"""Galois rings GR(p^2, r), their residue fields, and tower maps.

GR(p^2, r) is built as Z_{p^2}[x]/(h(x)) for a basic primitive modulus h:
a monic lift of a primitive polynomial over F_p such that xi = x mod h has
multiplicative order exactly q - 1 (q = p^r).  The Teichmuller set
T = {0} union <xi> then gives the unique decomposition a = a1 + p*a2 with
a1, a2 in T, which is what every structural operation here leans on.

Everything is exact: field elements are small integer codes (little-endian
base-p digit vectors), ring elements carry coefficient tuples mod p^2, and
the generator tables are built once at construction.  Frobenius and the
traces are Z_{p^2}-linear, so they are stored as integer matrices on the
coefficient vectors, each checked at construction against the scalar orbit
sum on a basis.  The log coordinates xi^k (1 + p T(v)) of every element are
one table, built on first use.  Rings and fields are logically immutable
afterwards (the only internal state is that table and value-transparent
memo tables) and safe to share across threads.
"""
from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import (
    IncompatibleTowerError,
    InvalidTowerError,
    NonPrimitiveInputError,
    NotAUnitError,
    ScaleGuardError,
)

# Constructions enumerate whole rings exhaustively; refuse anything whose
# element count would exceed this unless the caller overrides.
DESK_SCALE_LIMIT = 2**24


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense little-endian polynomials with coefficients mod m
# ---------------------------------------------------------------------------

def _ptrim(a: list[int]) -> list[int]:
    end = len(a)
    while end > 0 and a[end - 1] == 0:
        end -= 1
    return a[:end]


def _pmul(a, b, mod):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % mod
    return _ptrim(out)


def _pmod(num, den, mod):
    """Remainder of num modulo den, whose leading coefficient is 1 mod mod."""
    num = list(num)
    deg = len(den) - 1
    for top in range(len(num) - 1, deg - 1, -1):
        c = num[top] % mod
        if c:
            for i, d in enumerate(den, top - deg):
                num[i] = (num[i] - c * d) % mod
    return _ptrim(num)


def _ppow_x(exponent, modpoly, mod):
    """x^exponent modulo (modpoly, mod), by square and multiply."""
    result = [1]
    base = _pmod([0, 1], modpoly, mod)
    e = exponent
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, mod), modpoly, mod)
        base = _pmod(_pmul(base, base, mod), modpoly, mod)
        e >>= 1
    return result


def _order_of_x(modpoly, mod, n_max: int) -> int:
    """Multiplicative order of x modulo (modpoly, mod); 0 if x^n_max != 1."""
    if _pmod([0, 1], modpoly, mod) == [] or _ppow_x(n_max, modpoly, mod) != [1]:
        return 0
    order = n_max
    for ell in prime_factors(n_max):
        while order % ell == 0 and _ppow_x(order // ell, modpoly, mod) == [1]:
            order //= ell
    return order


# ---------------------------------------------------------------------------
# Z_{p^2}-linear maps on coefficient vectors (matrices as tuples of rows)
# ---------------------------------------------------------------------------

def _matvec(rows, vec, mod: int) -> list[int]:
    return [sum(map(operator.mul, row, vec)) % mod for row in rows]


def _matmul(a, b, mod: int) -> tuple[tuple[int, ...], ...]:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % mod for col in cols) for row in a)


def _power_map(ring: "GaloisRing", q0: int) -> tuple[tuple[int, ...], ...]:
    """The matrix of sigma_q0: it fixes Z_{p^2} and sends xi to xi^q0.

    The basis is xi^0 .. xi^(r-1), so column j holds the coefficients of
    xi^(j*q0 mod (q-1)).
    """
    cols = [ring.xi_powers[(j * q0) % (ring.q - 1)].coeffs for j in range(ring.r)]
    return tuple(zip(*cols))


def _orbit_matrix(sigma, steps: int, mod: int) -> tuple[tuple[int, ...], ...]:
    """The matrix of a -> a + sigma(a) + ... + sigma^(steps-1)(a)."""
    size = len(sigma)
    power = total = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    for _ in range(steps - 1):
        power = _matmul(sigma, power, mod)
        total = tuple(tuple((x + y) % mod for x, y in zip(t, pw)) for t, pw in zip(total, power))
    return total


def linear_span(images, mod: int, start=0) -> np.ndarray:
    """Row c = start + sum_j c_j images[j] mod ``mod``, for every code c = sum_j c_j mod^j.

    images is an array of shape (k, ...), entries below mod.  Digit j repeats the
    rows built so far mod times, each copy the previous one plus images[j]:
    additions only, in the smallest unsigned type that holds 2 mod - 1.
    """
    dtype = np.min_scalar_type(2 * mod - 1)
    rows = np.full((1,) + images.shape[1:], start, dtype=dtype)
    for image in images.astype(dtype):
        span = np.empty((mod,) + rows.shape, dtype=dtype)
        span[0] = rows
        for c in range(1, mod):
            np.add(span[c - 1], image, out=span[c])
            # reduce mod ``mod``: below mod, x - mod wraps around above x
            np.minimum(span[c], span[c] - dtype.type(mod), out=span[c])
        rows = span.reshape((-1,) + images.shape[1:])
    return rows


def _check_columns(matrix, basis, scalar_map, what: str) -> None:
    """Raise unless column j of the matrix is scalar_map(basis[j]) for every j.

    Both sides are Z_{p^2}-linear, so agreement on a basis is agreement on
    every element.
    """
    for j, b in enumerate(basis):
        if tuple(row[j] for row in matrix) != tuple(scalar_map(b).coeffs):
            raise InvalidTowerError(f"{what} matrix disagrees with the scalar {what} at xi^{j}")


# ---------------------------------------------------------------------------
# primitive polynomials and the Hensel lift
# ---------------------------------------------------------------------------

def find_primitive_poly(p: int, n: int) -> tuple[int, ...]:
    """Smallest monic primitive polynomial of degree n over F_p.

    "Smallest" is lexicographic on the little-endian coefficient tuple, so
    the choice is reproducible across runs and platforms.
    """
    if not is_prime(p):
        raise NonPrimitiveInputError(f"p={p} is not prime")
    if n < 1:
        raise NonPrimitiveInputError("degree must be >= 1")
    target = p**n - 1
    for tail in itertools.product(range(p), repeat=n):
        if tail[0] == 0:
            continue  # x divides the candidate
        g = tail + (1,)
        if _order_of_x(list(g), p, target) == target:
            return g
    raise NonPrimitiveInputError(f"no primitive polynomial found for p={p}, n={n}")


def is_primitive_poly(g, p: int) -> bool:
    g = list(g)
    n = len(_ptrim(g)) - 1
    if n < 1 or g[-1] % p != 1:
        return False
    target = p**n - 1
    return _order_of_x(g, p, target) == target


def hensel_lift_basic_primitive(g, p: int) -> tuple[int, ...]:
    """Lift a primitive g over F_p to the basic primitive h over Z_{p^2}.

    In Z_{p^2}[x]/(g), t = x^(p^n) is the Teichmuller lift of x: t = x (mod p)
    and t^(p^n - 1) = 1.  Its minimal polynomial is the unique monic h = g
    (mod p) dividing x^(p^n - 1) - 1 over Z_{p^2}; equivalently
    ord(x mod h) = p^n - 1.  Since t^k = x^k (mod p), t^0 .. t^(n-1) are
    independent and h is the monic relation among t^0 .. t^n.
    """
    g = [c % p for c in _ptrim(list(g))]
    if not is_primitive_poly(g, p):
        raise NonPrimitiveInputError(f"{g} is not primitive over F_{p}")
    n = len(g) - 1
    q, p2 = p**n, p * p
    powers = [_ppow_x(q * k, g, p2) for k in range(n + 1)]
    h = _monic_relation(powers, p2, p, NonPrimitiveInputError)
    order = _order_of_x(list(h), p2, q - 1)
    if order != q - 1:
        raise NonPrimitiveInputError(f"lift failed: ord(x) = {order}, expected {q - 1}")
    return h


# ---------------------------------------------------------------------------
# finite fields F_q, q = p^r, with discrete-log tables
# ---------------------------------------------------------------------------

class FiniteField:
    """F_{p^r} as integer codes 0..q-1 (little-endian base-p digit vectors).

    The modulus is a primitive polynomial, so the class of x generates the
    multiplicative group and exp/log tables cover all of F_q^*.
    """

    def __init__(self, p: int, r: int, modulus=None, allow_large: bool = False):
        if not is_prime(p):
            raise NonPrimitiveInputError(f"p={p} is not prime")
        if r < 1:
            raise NonPrimitiveInputError("degree must be >= 1")
        q = p**r
        if q * q > DESK_SCALE_LIMIT and not allow_large:
            raise ScaleGuardError(
                f"F_{q} exceeds the desk-scale guard; pass allow_large=True to override"
            )
        if modulus is None:
            modulus = find_primitive_poly(p, r)
        modulus = tuple(c % p for c in modulus)
        if len(_ptrim(list(modulus))) - 1 != r or modulus[-1] != 1:
            raise NonPrimitiveInputError(f"modulus must be monic of degree {r}")
        if not is_primitive_poly(list(modulus), p):
            raise NonPrimitiveInputError(f"modulus {list(modulus)} is not primitive over F_{p}")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = modulus

        # exp[i] = code of xi^i for 0 <= i < q-1; log inverts it on F_q^*
        self.exp: list[int] = []
        self.log: dict[int, int] = {}
        cur = [1]
        for i in range(q - 1):
            code = self._encode(cur)
            self.exp.append(code)
            self.log[code] = i
            cur = _pmod([0] + cur, modulus, p)  # times x: a shift, then one reduction step
        if self._encode(cur) != 1 or len(self.log) != q - 1:
            raise NonPrimitiveInputError("modulus is not primitive")
        self.generator = self.exp[1 % (q - 1)] if q > 2 else 1
        self._trace_table: list[int] | None = None

    # -- codes ----------------------------------------------------------

    def _encode(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def coeffs(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.r:
            raise ValueError(f"too many coefficients for degree {self.r}")
        coeffs += [0] * (self.r - len(coeffs))
        return self._encode(coeffs)

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        da, db = self.coeffs(a), self.coeffs(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise NotAUnitError("0 has no inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise NotAUnitError("0 has no inverse")
            return 0 if k else 1
        return self.exp[(self.log[a] * k) % (self.q - 1)]

    def orbit_sum(self, y: int, q0: int, steps: int) -> int:
        """y + y^q0 + ... + y^(q0^(steps-1)); the trace when steps is the degree."""
        acc = 0
        for _ in range(steps):
            acc = self.add(acc, y)
            y = self.pow(y, q0)
        return acc

    def trace_to_prime(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer 0 <= t < p."""
        if self._trace_table is None:
            table = [self.orbit_sum(x, self.p, self.r) for x in range(self.q)]
            if max(table) >= self.p:
                raise InvalidTowerError("trace left the prime field")
            self._trace_table = table
        return self._trace_table[a]

    def trace_row(self, b: int) -> np.ndarray:
        """tr(b * v) for every field code v, as an int64 array indexed by v."""
        return np.array([self.trace_to_prime(self.mul(b, v)) for v in self.elements()], np.int64)

    def __repr__(self):
        return f"FiniteField(p={self.p}, r={self.r})"


# ---------------------------------------------------------------------------
# Galois ring elements
# ---------------------------------------------------------------------------

class GaloisRingElement:
    """An element of GR(p^2, r): a coefficient tuple mod p^2 against the modulus."""

    __slots__ = ("ring", "coeffs", "_code")

    def __init__(self, ring: "GaloisRing", coeffs):
        self.ring = ring
        self.coeffs = tuple(c % ring.p2 for c in coeffs)
        if len(self.coeffs) != ring.r:
            raise IncompatibleTowerError(f"{len(self.coeffs)} coefficients do not fit {ring!r}")

    @property
    def code(self) -> int:
        """Canonical integer code: little-endian base-p^2 value of the coefficients."""
        try:
            return self._code
        except AttributeError:  # first read; elements are immutable, so it is kept
            code = 0
            for c in reversed(self.coeffs):
                code = code * self.ring.p2 + c
            self._code = code
            return code

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_unit(self) -> bool:
        return self.ring.reduce_mod_p(self) != 0

    def _check(self, other) -> "GaloisRingElement":
        if isinstance(other, int):
            c = [0] * self.ring.r
            c[0] = other
            return GaloisRingElement(self.ring, c)
        if isinstance(other, GaloisRingElement):
            if other.ring is not self.ring:
                raise ValueError("elements belong to different rings")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return GaloisRingElement(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return GaloisRingElement(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GaloisRingElement(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return GaloisRingElement(self.ring, [other * a for a in self.coeffs])
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        prod = _pmul(list(self.coeffs), list(other.coeffs), ring.p2)
        prod = _pmod(prod, list(ring.modulus), ring.p2)
        prod += [0] * (ring.r - len(prod))
        return GaloisRingElement(ring, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.ring.inverse(self) ** (-k)
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._check(other)
        if not isinstance(other, GaloisRingElement):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __repr__(self):
        body = ",".join(str(c) for c in self.coeffs)
        return f"<{body} in {self.ring!r}>"


class GaloisRing:
    """GR(p^2, r) = Z_{p^2}[x]/(h(x)) for a basic primitive modulus h."""

    def __init__(self, p: int, r: int, modulus=None, allow_large: bool = False):
        if not is_prime(p):
            raise NonPrimitiveInputError(f"p={p} is not prime")
        if r < 1:
            raise NonPrimitiveInputError("degree must be >= 1")
        q = p**r
        if q * q > DESK_SCALE_LIMIT and not allow_large:
            raise ScaleGuardError(
                f"GR({p}^2,{r}) has {q * q} elements, above the desk-scale guard; "
                "pass allow_large=True to override"
            )
        self.p = p
        self.r = r
        self.q = q
        self.p2 = p * p
        if modulus is None:
            modulus = hensel_lift_basic_primitive(find_primitive_poly(p, r), p)
        modulus = tuple(c % self.p2 for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise NonPrimitiveInputError(f"modulus must be monic of degree {r}")
        self.modulus = modulus
        # any monic lift of a primitive polynomial gives a valid residue field;
        # basic primitivity is the stronger condition ord(x mod h) = q - 1
        self.residue_field = FiniteField(p, r, tuple(c % p for c in modulus), allow_large)
        order = _order_of_x(list(modulus), self.p2, q - 1)
        if order != q - 1:
            observed = _order_of_x(list(modulus), self.p2, p * (q - 1))
            raise NonPrimitiveInputError(
                f"modulus is not basic primitive: x has multiplicative order "
                f"{observed or 'undefined'}, expected {q - 1}"
            )

        xi_coeffs = _pmod([0, 1], list(modulus), self.p2)
        xi_coeffs += [0] * (r - len(xi_coeffs))
        self.xi = GaloisRingElement(self, xi_coeffs)
        self.zero = GaloisRingElement(self, [0] * r)
        self.one = GaloisRingElement(self, [1] + [0] * (r - 1))

        # Teichmuller tables: xi powers, discrete logs, and the bijection pT <-> T
        self.xi_powers: list[GaloisRingElement] = []
        self.teichmuller_log: dict[tuple[int, ...], int] = {}
        cur = [1]
        for i in range(q - 1):
            power = GaloisRingElement(self, cur + [0] * (r - len(cur)))
            self.xi_powers.append(power)
            self.teichmuller_log[power.coeffs] = i
            cur = _pmod([0] + cur, modulus, self.p2)  # times xi: a shift, then one reduction step
        if cur != [1] or len(self.teichmuller_log) != q - 1:
            raise NonPrimitiveInputError("modulus is not basic primitive: xi order check failed")
        self._p_teich: dict[tuple[int, ...], GaloisRingElement] = {}
        for t in self.teichmuller_set():
            self._p_teich[(t * p).coeffs] = t
        self._teich_cache: dict[tuple[int, ...], tuple[GaloisRingElement, GaloisRingElement]] = {}
        self._log_table: tuple[np.ndarray, np.ndarray] | None = None

        # sigma_p and the absolute trace as matrices, checked against the
        # scalar Frobenius and orbit sum on the basis xi^j = x^j, j < r
        basis = self.xi_powers[:r]
        self.frobenius_matrix = _power_map(self, p)
        _check_columns(self.frobenius_matrix, basis, lambda b: self.frobenius(b, p), "Frobenius")
        trace_map = _orbit_matrix(self.frobenius_matrix, r, self.p2)
        _check_columns(trace_map, basis, lambda b: self.orbit_sum(b, p, r), "trace")
        if any(any(row) for row in trace_map[1:]):
            raise InvalidTowerError("trace left the prime ring")
        self.trace_vector: tuple[int, ...] = trace_map[0]

    # -- element constructors ---------------------------------------------

    def element(self, coeffs) -> GaloisRingElement:
        coeffs = list(coeffs)
        if len(coeffs) > self.r:
            raise ValueError(f"too many coefficients for degree {self.r}")
        coeffs += [0] * (self.r - len(coeffs))
        return GaloisRingElement(self, coeffs)

    def from_code(self, code: int) -> GaloisRingElement:
        coeffs = []
        for _ in range(self.r):
            coeffs.append(code % self.p2)
            code //= self.p2
        return GaloisRingElement(self, coeffs)

    def elements(self):
        for code in range(self.q * self.q):
            yield self.from_code(code)

    def units(self):
        for a in self.elements():
            if a.is_unit:
                yield a

    def teichmuller_set(self) -> list[GaloisRingElement]:
        return [self.zero] + self.xi_powers

    # -- structure maps -----------------------------------------------------

    def reduce_mod_p(self, a: GaloisRingElement) -> int:
        """The residue map GR(p^2, r) -> F_q, as a field code."""
        return self.residue_field.from_coeffs([c % self.p for c in a.coeffs])

    def lift_teichmuller(self, field_code: int) -> GaloisRingElement:
        """The unique Teichmuller element reducing to the given field element."""
        if field_code == 0:
            return self.zero
        return self.xi_powers[self.residue_field.log[field_code]]

    def teichmuller_decompose(
        self, a: GaloisRingElement
    ) -> tuple[GaloisRingElement, GaloisRingElement]:
        """The unique (a1, a2) in T x T with a = a1 + p*a2.

        For units a1 = a^q, which lands in T because (1 + p*m)^q = 1 in
        characteristic-p^2 Galois rings; for non-units a1 = 0.
        """
        cached = self._teich_cache.get(a.coeffs)
        if cached is not None:
            return cached
        if a.is_unit:
            a1 = a**self.q
        else:
            a1 = self.zero
        a2 = self._p_teich[(a - a1).coeffs]
        self._teich_cache[a.coeffs] = (a1, a2)
        return a1, a2

    def unit_decompose(
        self, a: GaloisRingElement
    ) -> tuple[GaloisRingElement, GaloisRingElement]:
        """The unique (t, v) in T* x T with a = t*(1 + p*v)."""
        if not a.is_unit:
            raise NotAUnitError(f"{a!r} lies in the maximal ideal")
        t, _ = self.teichmuller_decompose(a)
        w = a * self.inverse_teichmuller(t)
        v = self._p_teich[(w - self.one).coeffs]
        return t, v

    def log_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Log coordinates (k, v) of every element code, built on first use.

        A unit is xi^k (1 + p T(v)) with v a residue code; a nonzero non-unit is
        p xi^k, stored with v = -1; zero is (-1, -1).  The table is built forward
        from the stored xi powers, xi^k (1 + p T(v)) = xi^k + p xi^(k + log v),
        and must hit every code exactly once.
        """
        if self._log_table is None:
            p, q, p2 = self.p, self.q, self.p2
            xi = np.array([x.coeffs for x in self.xi_powers], dtype=np.int64)  # (q-1, r)
            ks = np.arange(q - 1)
            residue_logs = np.array([self.residue_field.log[v] for v in range(1, q)])
            shifted = np.zeros((q - 1, q, self.r), dtype=np.int64)  # xi^(k + log v), 0 at v = 0
            shifted[:, 1:] = xi[(ks[:, None] + residue_logs[None, :]) % (q - 1)]
            unit_codes = self.codes_of((xi[:, None, :] + p * shifted) % p2)
            ideal_codes = self.codes_of(p * xi % p2)
            k = np.full(q * q, -1, dtype=np.int64)
            v = np.full(q * q, -1, dtype=np.int64)
            k[unit_codes] = ks[:, None]
            v[unit_codes] = np.arange(q)[None, :]
            k[ideal_codes] = ks
            hits = np.bincount(
                np.concatenate([[0], unit_codes.ravel(), ideal_codes]), minlength=q * q
            )
            if (hits != 1).any():
                raise NonPrimitiveInputError("log coordinates do not hit every ring element once")
            self._log_table = (k, v)
        return self._log_table

    def unit_log(self, a: GaloisRingElement) -> tuple[int, int]:
        """(k, v) with a = xi^k (1 + p T(v)), read from the log table."""
        k, v = self.log_table()
        code = a.code
        if v[code] < 0:
            raise NotAUnitError(f"{a!r} lies in the maximal ideal")
        return int(k[code]), int(v[code])

    def inverse_teichmuller(self, t: GaloisRingElement) -> GaloisRingElement:
        k = self.teichmuller_log[t.coeffs]
        return self.xi_powers[(-k) % (self.q - 1)] if self.q > 1 else self.one

    def inverse(self, a: GaloisRingElement) -> GaloisRingElement:
        """Multiplicative inverse of a unit: t^(-1) * (1 - p*v) for a = t(1+pv)."""
        t, v = self.unit_decompose(a)
        return self.inverse_teichmuller(t) * (self.one - v * self.p)

    def frobenius(self, a: GaloisRingElement, q0: int) -> GaloisRingElement:
        """sigma_{q0}(a) = a1^{q0} + p * a2^{q0} on Teichmuller coordinates."""
        k, power = 0, 1
        while power < q0:
            power *= self.p
            k += 1
        if power != q0 or q0 > self.q:
            raise InvalidTowerError(f"{q0} is not a power of {self.p} within GR({self.p}^2,{self.r})")
        a1, a2 = self.teichmuller_decompose(a)
        return self._teich_power(a1, q0) + self._teich_power(a2, q0) * self.p

    def _teich_power(self, t: GaloisRingElement, k: int) -> GaloisRingElement:
        if t.is_zero():
            return self.zero
        return self.xi_powers[(self.teichmuller_log[t.coeffs] * k) % (self.q - 1)]

    def orbit_sum(self, a: GaloisRingElement, q0: int, steps: int) -> GaloisRingElement:
        """a + sigma_q0(a) + ... + sigma_q0^(steps-1)(a); the trace when steps is the degree."""
        acc = self.zero
        for _ in range(steps):
            acc = acc + a
            a = self.frobenius(a, q0)
        return acc

    def trace_to_prime(self, a: GaloisRingElement) -> int:
        """Trace down to Z_{p^2}, as an integer 0 <= t < p^2: one dot product."""
        return sum(map(operator.mul, self.trace_vector, a.coeffs)) % self.p2

    def codes_of(self, rows: np.ndarray, dtype=np.int64) -> np.ndarray:
        """The ``.code`` of each coefficient row (the last axis of rows), in dtype."""
        codes = np.zeros(rows.shape[:-1], dtype=dtype)
        for j in reversed(range(self.r)):  # little-endian base-p^2 digits, by Horner
            codes *= self.p2
            codes += rows[..., j]
        return codes

    def mul_matrix(self, u: GaloisRingElement) -> np.ndarray:
        """Matrix of a -> a * u on coefficient rows: row j is xi^j * u, from r ring products."""
        return np.array([(b * u).coeffs for b in self.xi_powers[:self.r]], dtype=np.int64)

    def __repr__(self):
        return f"GR({self.p}^2,{self.r})"


# ---------------------------------------------------------------------------
# row reduction over Z_{p^k}
# ---------------------------------------------------------------------------

def rref_mod(rows, mod: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z_mod, where mod is a power of the prime p.

    Column by column, the pivot is the first remaining row whose entry is
    nonzero mod p, hence a unit of Z_mod; it is scaled to 1 and cleared from
    every other row.  Returns the reduced rows and the pivot columns.
    """
    mat = [[x % mod for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, mod)
        mat[rank] = [(x * inv) % mod for x in mat[rank]]
        for i, row in enumerate(mat):
            if i != rank and row[col]:
                mat[i] = [(x - row[col] * y) % mod for x, y in zip(row, mat[rank])]
        pivots.append(col)
    return mat, pivots


def _monic_relation(powers, mod: int, p: int, error) -> tuple[int, ...]:
    """The monic f = (f_0, .., f_(d-1), 1) with sum_k f_k y^k = 0 over Z_mod.

    powers holds the coefficient vectors of y^0 .. y^d.  [y^0 .. y^(d-1) | y^d]
    is reduced with ``rref_mod``; raises ``error`` unless y^0 .. y^(d-1) are
    independent mod p and y^d lies in their span, which makes f unique.
    """
    d = len(powers) - 1
    rows, pivots = rref_mod(list(itertools.zip_longest(*powers, fillvalue=0)), mod, p)
    if pivots != list(range(d)) or any(row[d] for row in rows[d:]):
        raise error(f"y^{d} satisfies no unique monic relation of degree {d} over Z_{mod}")
    return tuple(-row[d] % mod for row in rows[:d]) + (1,)


# ---------------------------------------------------------------------------
# the tower GR(p^2, r) inside GR(p^2, r*s)
# ---------------------------------------------------------------------------

class RingTower:
    """The pair R = GR(p^2, r) inside R_big = GR(p^2, r*s), with its maps.

    The subring is generated by u = xi_big^((Q-1)/(q-1)); its modulus is the
    monic relation among u^0 .. u^r over Z_{p^2}, the minimal polynomial of u,
    so the embedding is exactly xi_small -> u and commutes with reduction mod p
    by construction.
    """

    def __init__(self, big: GaloisRing, small_degree: int):
        if big.r % small_degree != 0:
            raise IncompatibleTowerError(
                f"degree {small_degree} does not divide {big.r}"
            )
        self.big = big
        self.s = big.r // small_degree
        p = big.p
        q = p**small_degree
        Q = big.q
        ratio = (Q - 1) // (q - 1)
        powers = [big.xi_powers[(ratio * k) % (Q - 1)].coeffs for k in range(small_degree + 1)]
        self.small = GaloisRing(
            p, small_degree, _monic_relation(powers, big.p2, p, IncompatibleTowerError)
        )
        self.u = big.xi_powers[ratio % (Q - 1)]

        # embedding matrix E: column j holds the big-ring coefficients of u^j.
        # Its columns are independent mod p (checked by _monic_relation), so
        # reducing [E | I] mod p^2 puts I_r over the first r rows, and their
        # right part is a left inverse P E = I: the projection onto the subring
        self.embed_matrix = tuple(zip(*powers[:small_degree]))
        augmented = [list(row) + [int(i == j) for j in range(big.r)]
                     for i, row in enumerate(self.embed_matrix)]
        reduced, _ = rref_mod(augmented, big.p2, p)
        self.project_matrix = tuple(tuple(row[small_degree:]) for row in reduced[:small_degree])

        self.field_ratio = ratio
        self._check_compatibility()

        # sigma_q and the relative trace as matrices on the big coefficients;
        # the trace is the projection of the sigma_q orbit sum
        basis = big.xi_powers[:big.r]
        self.frobenius_matrix = _power_map(big, q)
        _check_columns(self.frobenius_matrix, basis, lambda b: big.frobenius(b, q), "Frobenius")
        orbit = _orbit_matrix(self.frobenius_matrix, self.s, big.p2)
        self.trace_matrix = _matmul(self.project_matrix, orbit, big.p2)
        _check_columns(
            self.trace_matrix, basis, lambda b: self.project(big.orbit_sum(b, q, self.s)), "trace"
        )

    def _check_compatibility(self):
        # the embedding must commute with reduction mod p on all of the subring
        for code in range(self.small.q * self.small.q):
            a = self.small.from_code(code)
            lhs = self.big.reduce_mod_p(self.embed(a))
            rhs = self.embed_field(self.small.reduce_mod_p(a))
            if lhs != rhs:
                raise IncompatibleTowerError("embedding does not commute with reduction mod p")

    # -- ring maps ---------------------------------------------------------

    def embed(self, a: GaloisRingElement) -> GaloisRingElement:
        if a.ring is not self.small:
            raise IncompatibleTowerError("element does not belong to the subring")
        return GaloisRingElement(self.big, _matvec(self.embed_matrix, a.coeffs, self.big.p2))

    def project(self, a: GaloisRingElement) -> GaloisRingElement:
        """Inverse of embed on its image; raises if a is not in the subring."""
        coeffs = _matvec(self.project_matrix, a.coeffs, self.big.p2)
        candidate = GaloisRingElement(self.small, coeffs)
        if self.embed(candidate) != a:
            raise InvalidTowerError(f"{a!r} does not lie in the embedded subring")
        return candidate

    def trace(self, a: GaloisRingElement) -> GaloisRingElement:
        """Relative trace R_big -> R_small, the sum of the sigma_q orbit: one matrix product."""
        if a.ring is not self.big:
            raise InvalidTowerError("element does not belong to the extension ring")
        return GaloisRingElement(self.small, _matvec(self.trace_matrix, a.coeffs, self.big.p2))

    def fixed_by_frobenius(self, a: GaloisRingElement) -> bool:
        return _matvec(self.frobenius_matrix, a.coeffs, self.big.p2) == list(a.coeffs)

    # -- residue-field maps --------------------------------------------------

    def embed_field(self, x: int) -> int:
        if x == 0:
            return 0
        Fq, FQ = self.small.residue_field, self.big.residue_field
        return FQ.exp[(Fq.log[x] * self.field_ratio) % (FQ.q - 1)]

    def project_field(self, y: int) -> int:
        if y == 0:
            return 0
        Fq, FQ = self.small.residue_field, self.big.residue_field
        log = FQ.log[y]
        if log % self.field_ratio != 0:
            raise InvalidTowerError("field element does not lie in the subfield")
        return Fq.exp[(log // self.field_ratio) % (Fq.q - 1)]

    def field_trace(self, y: int) -> int:
        """Relative field trace F_Q -> F_q, returned as a small-field code."""
        return self.project_field(self.big.residue_field.orbit_sum(y, self.small.q, self.s))

    def __repr__(self):
        return f"RingTower({self.small!r} in {self.big!r})"


# ---------------------------------------------------------------------------
# element literals ("3,2" = 3 + 2*xi, little-endian)
# ---------------------------------------------------------------------------

def parse_element(ring: GaloisRing, literal: str) -> GaloisRingElement:
    try:
        coeffs = [int(part) for part in literal.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad element literal {literal!r}: {exc}") from None
    return ring.element(coeffs)


def format_element(a: GaloisRingElement) -> str:
    return ",".join(str(c) for c in a.coeffs)


def parse_field_element(p: int, degree: int, literal: str) -> int:
    """The code of a literal of F_{p^degree}, its digits mod p read in base p; needs no field."""
    if not is_prime(p):
        raise NonPrimitiveInputError(f"p={p} is not prime")
    try:
        coeffs = [int(part) % p for part in literal.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad field element literal {literal!r}: {exc}") from None
    if len(coeffs) > degree:
        raise ValueError(f"too many coefficients for degree {degree}")
    return sum(c * p**j for j, c in enumerate(coeffs))


def format_field_element(field: FiniteField, code: int) -> str:
    return ",".join(str(c) for c in field.coeffs(code))
