"""Exact arithmetic in the ring of cyclotomic integers Z[zeta_m].

Values are stored in group-algebra form: an integer vector indexed by
exponents of zeta_m = exp(2*pi*i/m).  That representation is closed under
the ring operations and is cheap to accumulate character sums into.
Equality and rationality are decided by reducing modulo the m-th
cyclotomic polynomial; no floating point is involved anywhere on the
verification path.  ``canonical_rows`` is the one reduction: it reduces
whole arrays of group-algebra rows at once, through
Phi_m(x) = Phi_rad(x^(m/rad)) with rad the product of the primes dividing m,
``CyclotomicInteger.canonical`` is a one-row call of it, and
``reduced_rows`` reduces a block of rows into hashable canonical tuples.
Code that handles many values at once, like the Gauss-sum sweeps, keeps
those tuples and builds no value objects: ``canonical_text`` prints a
canonical tuple exactly as ``repr`` prints its value, and ``complex_value``
is the display-only float evaluation behind ``approx``.

>>> z = CyclotomicInteger.zeta(4)
>>> z * z == -1
True
>>> sum_of_cube_roots = sum(CyclotomicInteger.zeta(3, k) for k in range(3))
>>> sum_of_cube_roots.is_zero()
True
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NotRationalError, OrderMismatchError
from .rings import _ptrim, prime_factors

# Rows are reduced in int64 only while max|R| * sum|coeffs| stays below this,
# R the reduction table; the product bounds every partial sum of the
# reduction.  Larger rows run on Python ints.
INT64_SUM_BOUND = 2**62


def exact_int(value: Fraction, what: str) -> int:
    """The integer value of an exact rational; raises NotRationalError otherwise.

    Closed forms are rational expressions that must come out integral; a
    fraction here is a bug in a formula and is reported, never rounded.
    """
    if value.denominator != 1:
        raise NotRationalError(f"{what} is not integral: {value}")
    return int(value)


def _divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials; raises unless den is monic and divides num."""
    if not den or den[-1] != 1:
        raise NotRationalError(f"divisor {den} is not monic")
    num = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c:
            quo[shift] = c
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    rem = _ptrim(num)
    if rem:
        raise NotRationalError(f"{den} leaves the remainder {rem}")
    return quo


@lru_cache(maxsize=None)
def _roots_of_unity(m: int) -> tuple[complex, ...]:
    """exp(2 pi i k / m) for 0 <= k < m, as floats."""
    return tuple(cmath.exp(2j * cmath.pi * k / m) for k in range(m))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Little-endian integer coefficients of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by Phi_d for every proper divisor d of m.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("root order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k is the canonical form of x^k modulo Phi_m, for 0 <= k < m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    if deg > 0:
        cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        # multiply by x, fold the overflow back with x^deg = -(phi[:-1])
        lead = cur[deg - 1] if deg > 0 else 0
        nxt = [0] + cur[: deg - 1]
        if lead:
            for i in range(deg):
                nxt[i] -= lead * phi[i]
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[np.ndarray, int, int]:
    """The reduction modulo Phi_m, through Phi_m(x) = Phi_rad(x^step) with rad * step = m.

    rad is the product of the primes dividing m.  Returns
    ``_reduction_rows(rad)`` as an int64 (rad, phi(m) / step) matrix, step,
    and the largest |entry|, which is also that of ``_reduction_rows(m)``.
    """
    rad = math.prod(prime_factors(m))
    rows = _reduction_rows(rad)
    return np.array(rows, dtype=np.int64), m // rad, max(abs(c) for row in rows for c in row)


def sum_dtype(m: int, abs_sum: int):
    """The dtype that reduces rows of absolute coefficient sum <= ``abs_sum`` exactly.

    int64 while max|R| * abs_sum < INT64_SUM_BOUND, object (Python ints) otherwise.
    """
    return np.int64 if _reduction_table(m)[2] * abs_sum < INT64_SUM_BOUND else object


def canonical_text(m: int, canonical) -> str:
    """The text ``Cyc[m](...)`` of the value whose canonical form is ``canonical``."""
    terms = []
    for k, c in enumerate(canonical):
        if not c:
            continue
        if k == 0:
            terms.append(f"{c}")
        elif c == 1:
            terms.append(f"z^{k}")
        else:
            terms.append(f"{c}*z^{k}")
    body = " + ".join(terms) if terms else "0"
    return f"Cyc[{m}]({body})"


def complex_value(m: int, terms) -> complex:
    """Floating-point value of sum c * zeta_m^k over the (k, c) of ``terms``, for display only.

    The terms are added in the order given, zero coefficients skipped.
    """
    roots = _roots_of_unity(m)
    return sum(c * roots[k] for k, c in terms if c)


def canonical_rows(sums: np.ndarray, m: int) -> list[list[int]]:
    """Canonical forms modulo Phi_m of group-algebra rows: one matrix product.

    ``sums`` is a (rows, m) array, int64 or object as ``sum_dtype`` chose.
    x^(step*u + w) = y^u x^w with y = x^step, so each residue w mod step
    reduces y^u modulo Phi_rad(y), and the result is the canonical form
    ordered by exponent.
    """
    reduction, step, _ = _reduction_table(m)
    rad, deg = reduction.shape
    blocks = sums.reshape(len(sums), rad, step).transpose(0, 2, 1)
    reduced = blocks @ reduction.astype(sums.dtype, copy=False)  # (rows, step, deg)
    return reduced.transpose(0, 2, 1).reshape(len(sums), deg * step).tolist()


def reduced_rows(rows: np.ndarray, m: int) -> list[tuple[int, ...]]:
    """Canonical forms modulo Phi_m of an int64 (values, m) block of rows, as tuples.

    One ``canonical_rows`` call, in int64 or in Python ints as ``sum_dtype``
    chooses for the largest absolute row sum.
    """
    dtype = sum_dtype(m, int(np.abs(rows).sum(axis=1).max(initial=0)))
    return list(map(tuple, canonical_rows(rows.astype(dtype), m)))


class CyclotomicInteger:
    """An element of Z[zeta_m] in group-algebra form.

    ``coeffs[k]`` is the integer multiplicity of zeta_m^k.  Two values are
    equal when their reductions modulo Phi_m agree, so the same element may
    have many internal representations.
    """

    __slots__ = ("m", "coeffs", "_canonical")

    def __init__(self, m: int, coeffs):
        coeffs = tuple(coeffs)
        if m < 1 or len(coeffs) != m:
            raise ValueError("coefficient vector must have length m >= 1")
        self.m = m
        self.coeffs = coeffs
        self._canonical: tuple[int, ...] | None = None  # filled on first use; values never change

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CyclotomicInteger":
        return cls(m, (0,) * m)

    @classmethod
    def one(cls, m: int) -> "CyclotomicInteger":
        return cls.from_int(m, 1)

    @classmethod
    def from_int(cls, m: int, value: int) -> "CyclotomicInteger":
        c = [0] * m
        c[0] = value
        return cls(m, c)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CyclotomicInteger":
        """The root of unity zeta_m^k."""
        c = [0] * m
        c[k % m] += 1
        return cls(m, c)

    # -- ring operations ----------------------------------------------

    def _coerce_operand(self, other) -> "CyclotomicInteger":
        if isinstance(other, int):
            return CyclotomicInteger.from_int(self.m, other)
        if isinstance(other, CyclotomicInteger):
            if other.m != self.m:
                raise OrderMismatchError(
                    f"root orders differ: {self.m} vs {other.m}; coerce explicitly"
                )
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInteger(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInteger(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CyclotomicInteger(self.m, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.m, [other * a for a in self.coeffs])
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.m
        out = [0] * m
        sparse_self = [(k, c) for k, c in enumerate(self.coeffs) if c]
        sparse_other = [(k, c) for k, c in enumerate(other.coeffs) if c]
        for i, a in sparse_self:
            for j, b in sparse_other:
                out[(i + j) % m] += a * b
        return CyclotomicInteger(m, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicInteger":
        """Complex conjugation, i.e. zeta^k -> zeta^(-k)."""
        m = self.m
        out = [0] * m
        for k, c in enumerate(self.coeffs):
            if c:
                out[(-k) % m] += c
        return CyclotomicInteger(m, out)

    def abs_square(self) -> "CyclotomicInteger":
        """The value times its complex conjugate."""
        return self * self.conjugate()

    def coerce(self, m_new: int) -> "CyclotomicInteger":
        """Lift into Z[zeta_{m_new}] where m | m_new (zeta_m = zeta_{m_new}^(m_new/m))."""
        if m_new % self.m != 0:
            raise OrderMismatchError(f"{self.m} does not divide {m_new}")
        stride = m_new // self.m
        out = [0] * m_new
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * stride] += c
        return CyclotomicInteger(m_new, out)

    # -- canonical form and predicates ----------------------------------

    def canonical(self) -> tuple[int, ...]:
        """Coefficients of the unique representative of degree < deg(Phi_m)."""
        if self._canonical is None:
            dtype = sum_dtype(self.m, sum(map(abs, self.coeffs)))
            (row,) = canonical_rows(np.array([self.coeffs], dtype=dtype), self.m)
            self._canonical = tuple(row)
        return self._canonical

    def canonical_reduce(self) -> "CyclotomicInteger":
        """Same value, rewritten with all exponents below deg(Phi_m); idempotent."""
        can = self.canonical()
        out = [0] * self.m
        out[: len(can)] = can
        return CyclotomicInteger(self.m, out)

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def as_rational_integer(self) -> int:
        """The value as a plain integer; raises NotRationalError otherwise."""
        can = self.canonical()
        if any(can[1:]):
            raise NotRationalError(
                f"value is not rational: canonical form {can} over Z[zeta_{self.m}]"
            )
        return can[0] if can else 0

    def approx(self) -> complex:
        """Floating-point evaluation, for display only; never used for checks."""
        return complex_value(self.m, enumerate(self.coeffs))

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.m, self.canonical()))

    def __repr__(self):
        return canonical_text(self.m, self.canonical())
