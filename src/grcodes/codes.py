"""Trace codes over GR(p^2, r) from subgroups of the extension unit group.

A subgroup G = D x (1 + pV) of the units of R_big = GR(p^2, r*s) is given
by a divisor e of Q - 1 (D is generated by the e-th power of the Teichmuller
generator) and an F_p-basis of a subspace Vbar of F_Q.  The code C(G) lists
the relative traces T(beta * x) over the n = |G| group elements, one word
per beta in R_big; Ctilde(G) keeps one coordinate per coset of the subgroup
G meet R^*.

Symbol counts N_beta(a) are computed two independent ways: by direct tally
of the words, spanned in blocks from those of beta = xi^j, and by the exact
character-sum formulas whose value is assembled in Z[zeta_m] and converted
to a rational integer at the end.  The two must agree everywhere; any
non-integral intermediate raises instead of rounding.  c_(beta g) is c_beta
permuted for g in G, so each formula is evaluated once per orbit beta G.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characters import (
    CharacterSystem,
    field_quotient_characters,
    ring_quotient_characters,
)
from .cyclotomic import CyclotomicInteger, canonical_rows, exact_int, sum_dtype
from .errors import (
    IncompatibleTowerError,
    InvalidSubgroupError,
    InvalidTowerError,
    NegativeCountError,
    PreconditionViolatedError,
)
from .rings import (
    FiniteField,
    GaloisRing,
    GaloisRingElement,
    RingTower,
    linear_span,
    rref_mod,
)


TALLY_BLOCK_BYTES = 4 << 20  # one row block of span_blocks; a tally_rows step takes an eighth


# ---------------------------------------------------------------------------
# F_p-linear algebra on field elements
# ---------------------------------------------------------------------------

def echelon_basis(field: FiniteField, vectors) -> list[int]:
    """Row-reduced F_p-basis of the span of the given field elements.

    Deterministic: pivots are taken in digit order, rows sorted by pivot.
    """
    p = field.p
    rows = []
    for v in vectors:
        digits = list(field.coeffs(v))
        for pivot, prow in rows:
            if digits[pivot]:
                f = digits[pivot]
                digits = [(x - f * y) % p for x, y in zip(digits, prow)]
        nz = next((i for i, x in enumerate(digits) if x), None)
        if nz is None:
            continue
        inv = pow(digits[nz], -1, p)
        digits = [(x * inv) % p for x in digits]
        rows.append((nz, digits))
        rows.sort()
    return [field.from_coeffs(prow) for _, prow in rows]


def span_subspace(field: FiniteField, basis) -> list[int]:
    """All p^d elements spanned by the basis, as a sorted list of codes."""
    span = [0]
    for b in basis:
        multiples = [0]
        acc = 0
        for _ in range(field.p - 1):
            acc = field.add(acc, b)
            multiples.append(acc)
        span = [field.add(x, s) for s in multiples for x in span]
    return sorted(set(span))


def dual_subspace(field: FiniteField, basis) -> list[int]:
    """Echelon basis of the annihilator under the trace pairing.

    A_perp = { x : trace(a * x) = 0 for every a in A }, solved as an F_p
    linear system in the digit coordinates of x.
    """
    p, n = field.p, field.r
    unit_vectors = [field.from_coeffs([int(i == j) for i in range(n)]) for j in range(n)]
    matrix = [
        [field.trace_to_prime(field.mul(a, ej)) for ej in unit_vectors] for a in basis
    ]
    rows, pivots = rref_mod(matrix, p, p)
    basis_out = []
    for fcol in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fcol] = 1
        for prow, pcol in zip(rows, pivots):
            vec[pcol] = (-prow[fcol]) % p
        basis_out.append(field.from_coeffs(vec))
    return echelon_basis(field, basis_out)


# ---------------------------------------------------------------------------
# subgroup specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupSpec:
    """G = D x (1 + pV): e fixes D, vbar_basis spans Vbar inside F_Q."""

    e: int
    vbar_basis: tuple[int, ...]


def canonical_subspace_basis(
    field: FiniteField, d: int, sprime: int | None, q: int
) -> list[int]:
    """Deterministic choice of a d-dimensional Vbar.

    Without sprime: greedily take the smallest independent field codes.
    With sprime (s = p * sprime): start from the basis forced by the dual
    condition (the annihilator of the subfield of order q^sprime), then
    extend greedily; if d is too small for that condition, refuse.
    """
    start: list[int] = []
    if sprime is not None:
        Qp = q**sprime
        subfield = [x for x in field.elements() if field.pow(x, Qp) == x]
        forced = dual_subspace(field, echelon_basis(field, [x for x in subfield if x]))
        if d < len(forced):
            raise PreconditionViolatedError(
                f"d={d} is below the minimum {len(forced)} forced by the dual-subspace "
                f"hypothesis (annihilator of the order-{Qp} subfield)"
            )
        start = forced
    basis = echelon_basis(field, start)
    spanned = set(span_subspace(field, basis))
    for code in range(1, field.q):
        if len(basis) == d:
            break
        if code not in spanned:
            basis = echelon_basis(field, basis + [code])
            spanned = set(span_subspace(field, basis))
    if len(basis) != d:
        raise InvalidSubgroupError(f"cannot build a {d}-dimensional subspace")
    return basis


def check_generated_group(elements, generators) -> None:
    """Raise unless `elements` is exactly the subgroup the generators generate.

    The set must hold 1, each generator must map it into itself, and the generator maps
    must join it into one orbit: the orbit of 1 is the generated monoid, so the subgroup.
    """
    if not elements or elements[0].ring.one not in elements:
        raise InvalidSubgroupError("G is not closed under multiplication")
    maps = _moved(elements, generators)
    if (maps < 0).any() or len(permutation_orbits(maps, len(elements))[1]) != 1:
        raise InvalidSubgroupError("G is not closed under multiplication")


def _moved(elements, multipliers) -> np.ndarray:
    """[i, j]: the index in ``elements`` of elements[j] * multipliers[i], or -1 outside them."""
    ring = elements[0].ring
    coeffs = np.array([x.coeffs for x in elements], dtype=np.int64)
    position = np.full(ring.q * ring.q, -1, dtype=np.int64)
    position[[x.code for x in elements]] = np.arange(len(elements))
    moved = [position[ring.codes_of(coeffs @ ring.mul_matrix(u) % ring.p2)] for u in multipliers]
    return np.array(moved, dtype=np.int64).reshape(len(multipliers), len(elements))


# ---------------------------------------------------------------------------
# stored character tables
# ---------------------------------------------------------------------------

def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer array and how often each occurs, in byte order.

    Rows are compared as whole byte strings: ``np.unique(a, axis=0)`` sorts a
    structured view field by field, several times slower.  No sorted copy of
    the rows is made: sorted neighbours are compared in blocks of about
    TALLY_BLOCK_BYTES, and the distinct rows are read back from ``a``.
    """
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    order = np.argsort(rows)
    first = np.ones(len(rows), dtype=bool)
    step = max(1, TALLY_BLOCK_BYTES // max(1, rows.itemsize))
    for start in range(1, len(rows), step):
        block = rows[order[start - 1:start + step]]
        first[start:start + step] = block[1:] != block[:-1]
    starts = np.flatnonzero(first)
    return a[order[starts]], np.diff(np.append(starts, len(rows)))


def tally_rows(mat: np.ndarray, q2: int) -> np.ndarray:
    """(rows, q2) array: how often each symbol code below q2 occurs in each row.

    One ``np.bincount`` per block of rows, row i offset by i * q2: a block's
    int64 temporaries take about TALLY_BLOCK_BYTES / 8, no more than the
    ``span_blocks`` block they tally (larger ones made the heap refault per block).
    """
    step = max(1, TALLY_BLOCK_BYTES // (64 * (mat.shape[1] + q2)))
    offsets = np.arange(min(step, len(mat)), dtype=np.int64)[:, None] * q2
    counts = np.empty((len(mat), q2), dtype=np.int64)
    for start in range(0, len(mat), step):
        block = offsets[:len(mat) - start] + mat[start:start + step]
        tally = np.bincount(block.ravel(), minlength=len(block) * q2)
        counts[start:start + step] = tally.reshape(len(block), q2)
    return counts


def span_blocks(ring: GaloisRing, w: np.ndarray):
    """The ring codes of the rows of ``linear_span(w, ring.p2)``, as (start, block) pairs.

    w is (k, n, r): the coefficient rows of the images of the k basis vectors;
    codes come in the smallest unsigned type holding q^2 - 1.  The low digits
    span a block of rows within TALLY_BLOCK_BYTES from each offset of the high
    digits, which steps like an odometer: one image added mod p^2 per digit that
    moves, none undone on a wrap (p^2 W = 0).  One block and one offset are alive.
    """
    p2, dtype = ring.p2, np.min_scalar_type(ring.q**2 - 1)
    fit = TALLY_BLOCK_BYTES // (w[0].size * np.min_scalar_type(2 * p2 - 1).itemsize)
    low = max((j for j in range(len(w) + 1) if p2**j <= fit), default=0)
    offset = np.zeros(w.shape[1:], dtype=np.int64)
    for i in range(p2 ** (len(w) - low)):
        yield i * p2**low, ring.codes_of(linear_span(w[:low], p2, offset), dtype)
        for j, image in enumerate(w[low:]):  # on to i + 1: one image per high digit that moves
            offset = (offset + image) % p2
            if (i + 1) % p2 ** (j + 1):
                break


def permutation_orbits(perms, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the group that the permutations generate on 0..size-1.

    Returns the orbit index of every point, the smallest point of each orbit
    and the orbit sizes.  The orbits are the connected components of the
    permutations' graph: each point keeps the smallest label it can read
    across an edge, then jumps to its label's label, until nothing changes.
    A label is always a point of the same component, so at the fixed point
    every component carries its smallest point.
    """
    label = np.arange(size)
    while True:
        hooked = label.copy()
        for perm in perms:
            np.minimum(hooked, hooked[perm], out=hooked)
            hooked[perm] = np.minimum(hooked[perm], hooked)
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    is_rep = label == np.arange(size)
    index = (np.cumsum(is_rep) - 1)[label]  # the rank of each point's label among the reps
    return index, np.flatnonzero(is_rep), np.bincount(index)


def _int_array(values) -> np.ndarray:
    """``values`` as int64, or as Python ints when some entry does not fit in int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True)
class CharTable:
    """Characters chi = (i, b) and their weights W_chi, as arrays.

    ``index`` holds i, and ``trace[chi, v]`` holds tr(b_bar * v) for each
    residue code v (None for characters of the residue field, where b = 0).
    W_chi = sum_l coeffs[chi, l] zeta_m^support[chi, l] keeps only the
    nonzero terms of the group-algebra form, padded with zero coefficients:
    Gauss sums of ring characters have at most a few.
    """

    index: np.ndarray
    trace: np.ndarray | None
    support: np.ndarray
    coeffs: np.ndarray
    abs_sum: int  # sum of |coeffs|


# ---------------------------------------------------------------------------
# weight tables and reports
# ---------------------------------------------------------------------------

@dataclass
class WeightTable:
    n: int
    size: int
    hamming: dict[int, int]
    complete: dict[tuple[int, ...], int]
    homogeneous: dict[int, int]
    min_hamming: int
    min_homogeneous: int


@dataclass
class BoundsReport:
    m1: Fraction
    m2: Fraction
    verdict: bool
    d_hamming: Fraction | None
    remark_sufficient: bool


@dataclass
class TableRow:
    beta_class: str
    a_class: str
    predicted: int
    enumerated: int

    @property
    def match(self) -> bool:
        return self.predicted == self.enumerated


@dataclass
class TableReport:
    rows: list[TableRow]
    class_counts: dict[str, tuple[int, int]]  # name -> (predicted, enumerated)
    extras: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def all_match(self) -> bool:
        return (
            all(r.match for r in self.rows)
            and all(p == o for p, o in self.class_counts.values())
            and all(p == o for p, o in self.extras.values())
        )


@dataclass
class TildeCode:
    rep_indices: tuple[int, ...]
    l: int
    n_prime: int
    # group element j is x_{rep_indices[coset[j]]} * h_j, and factor[j] is the
    # small-ring code of h_j, an element of G meet R^*
    coset: tuple[int, ...]
    factor: tuple[int, ...]


BETA_UNIT_S = "unit_S"
BETA_UNIT_NO_S = "unit_noS"
BETA_P_TEICH = "pTstar"
BETA_ZERO = "zero"
A_UNIT = "unit"
A_P_TEICH = "pTstar"
A_ZERO = "zero"


# ---------------------------------------------------------------------------
# the code context
# ---------------------------------------------------------------------------

class CodeContext:
    """Everything derived from one (R in R_big, G) pair, immutable after build."""

    def __init__(
        self,
        p: int,
        r: int,
        s: int,
        e: int,
        vbar_basis=None,
        d: int | None = None,
        sprime: int | None = None,
        modulus=None,
        allow_large: bool = False,
    ):
        if sprime is not None and s != p * sprime:
            raise InvalidSubgroupError(f"s={s} must equal p*s'={p * sprime}")
        self.p, self.r, self.s = p, r, s
        self.sprime = sprime
        big = GaloisRing(p, r * s, modulus=modulus, allow_large=allow_large)
        self.tower = RingTower(big, r)
        self.big = big
        self.small = self.tower.small
        self.q = self.small.q
        self.Q = big.q
        if e < 1 or (self.Q - 1) % e:
            raise InvalidSubgroupError(f"e={e} does not divide Q-1={self.Q - 1}")
        self.e = e
        self.f = (self.Q - 1) // e
        self.e_prime = math.gcd(e, (self.Q - 1) // (self.q - 1))

        FQ = big.residue_field
        if vbar_basis is None:
            if d is None:
                raise InvalidSubgroupError("either vbar_basis or d must be given")
            vbar_basis = canonical_subspace_basis(FQ, d, sprime, self.q)
        vbar_basis = list(vbar_basis)
        reduced = echelon_basis(FQ, vbar_basis)
        if len(reduced) != len(vbar_basis):
            raise InvalidSubgroupError("vbar basis rows are dependent over F_p")
        self.spec = SubgroupSpec(e, tuple(reduced))
        self.d = len(reduced)
        self.vbar_span = span_subspace(FQ, reduced)
        self.n = self.f * (p**self.d)

        # enumerate G = { xi^(e k) (1 + p v) } in canonical element order
        elements = []
        lift = big.lift_teichmuller
        for k in range(self.f):
            dpart = big.xi_powers[(e * k) % (self.Q - 1)]
            for vcode in self.vbar_span:
                elements.append(dpart * (big.one + lift(vcode) * p))
        if len({x.coeffs for x in elements}) != self.n:
            raise InvalidSubgroupError("group enumeration produced duplicates")
        elements.sort(key=lambda x: x.code)
        self.group_elements = elements
        # reaching the whole set from 1 by the generators, never leaving it, proves it a group
        check_generated_group(elements, self._subgroup_generators("G")[0])

        # dual-subspace data for the closed-form tables
        self.vbar_perp = dual_subspace(FQ, self.spec.vbar_basis)
        self.s_dual: frozenset[int] | None = None
        self.vperp_in_subfield: bool | None = None
        if sprime is not None:
            Qp = self.q**sprime
            in_subfield = lambda x: FQ.pow(x, Qp) == x
            self.vperp_in_subfield = all(in_subfield(x) for x in self.vbar_perp)
            if self.vperp_in_subfield:
                # annihilator of Vbar_perp inside F_{Q'} under the trace F_{Q'} -> F_p
                traces = {
                    a: [FQ.orbit_sum(FQ.mul(a, x), p, r * sprime) for x in self.vbar_perp]
                    for a in FQ.elements() if in_subfield(a)
                }
                if any(t >= p for row in traces.values() for t in row):
                    raise InvalidTowerError("absolute subfield trace left F_p")
                self.s_dual = frozenset(a for a, row in traces.items() if not any(row))

        self._system: CharacterSystem | None = None
        self._small_system: CharacterSystem | None = None
        self._caches: dict[str, object] = {}

    # -- character machinery ------------------------------------------------

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def system(self) -> CharacterSystem:
        if self._system is None:
            self._system = CharacterSystem(self.big)
        return self._system

    @property
    def small_system(self) -> CharacterSystem:
        if self._small_system is None:
            self._small_system = CharacterSystem(self.small, self.m)
        return self._small_system

    def _cache(self, key: str, builder):
        if key not in self._caches:
            self._caches[key] = builder()
        return self._caches[key]

    def _subgroup_generators(self, which: str) -> tuple[list[GaloisRingElement], int]:
        """Generators and exact size for G, G(1+M) and G R*."""
        big, p = self.big, self.p
        FQ = big.residue_field
        gens = [big.xi_powers[self.e % (self.Q - 1)]] if self.Q > 2 else []
        gens += [
            big.one + big.lift_teichmuller(v) * p for v in self.spec.vbar_basis
        ]
        span = list(self.vbar_span)
        if which in ("G1M", "GRstar"):
            # adjoin 1 + pT of the subring: its residues form the subfield F_q
            fq_basis = [self.tower.embed_field(self.small.residue_field.from_coeffs(
                [int(i == j) for i in range(self.r)])) for j in range(self.r)]
            gens += [big.one + big.lift_teichmuller(v) * p for v in fq_basis]
            span = span_subspace(FQ, echelon_basis(FQ, list(self.spec.vbar_basis) + fq_basis))
        if which == "GRstar":
            gens.append(self.tower.embed(self.small.xi))
            tpart = (self.Q - 1) // self.e_prime
        else:  # G or G(1+M): the Teichmuller part is D itself
            tpart = self.f
        return gens, tpart * len(span)

    def beta_orbits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The orbits beta G: orbit index of every beta code, smallest code of each, sizes.

        Orbits come in order of their smallest code.  As p^2 = 0, xi^k (1 + pT(v))
        xi^(ej) (1 + pT(u)) = xi^(k+ej) (1 + pT(v+u)) and p xi^k g = p xi^(k+ej): the
        key is (k mod e, v + Vbar) for a unit, k mod e for p xi^k, and zero is alone.
        v is reduced by the echelon rows of Vbar in pivot order, each zero below its
        pivot, to the one element of v + Vbar that is zero at every pivot.
        """
        def build():
            Q, e, p, FQ = self.Q, self.e, self.p, self.big.residue_field
            digits = np.array([FQ.coeffs(v) for v in range(Q)], dtype=np.int64)
            for basis_row in self.spec.vbar_basis:
                row = np.array(FQ.coeffs(basis_row), dtype=np.int64)
                pivot = np.flatnonzero(row)[0]
                digits = (digits - digits[:, pivot, None] * row) % p
            coset = digits @ p ** np.arange(digits.shape[1])
            k, v = self.big.log_table()
            key = np.where(v >= 0, k % e * Q + coset[v], e * Q + np.where(k >= 0, k % e, e))
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            index = np.argsort(np.argsort(first))[inverse.ravel()]  # ranked by smallest code
            return index, np.sort(first), np.bincount(index)
        return self._cache("beta_orbits", build)

    def chars_mod_G(self):
        return self._cache(
            "chars_G",
            lambda: ring_quotient_characters(self.system, *self._subgroup_generators("G")),
        )

    def chars_mod_G1M(self):
        return self._cache(
            "chars_G1M",
            lambda: ring_quotient_characters(self.system, *self._subgroup_generators("G1M")),
        )

    def chars_mod_GRstar(self):
        return self._cache(
            "chars_GRstar",
            lambda: ring_quotient_characters(self.system, *self._subgroup_generators("GRstar")),
        )

    def field_chars_mod_D(self) -> list[int]:
        return field_quotient_characters(self.Q, self.e)

    def field_chars_mod_eprime(self) -> list[int]:
        return field_quotient_characters(self.Q, self.e_prime)

    def _restrict_char(self, chi):
        """Restriction of a big-ring character to the embedded subring."""
        i, b = chi
        b_bar_small = self.tower.field_trace(self.big.reduce_mod_p(b))
        return (i % (self.q - 1) if self.q > 2 else 0,
                self.small.lift_teichmuller(b_bar_small))

    # precomputed (character, Gauss-sum product) tables for the formulas ------

    def _char_table(self, index, rows, teich=None) -> CharTable:
        """Store characters (i, b) with weights given as length-m coefficient rows.

        Field characters have no b and pass no ``teich``.
        """
        terms = [[(k, c) for k, c in enumerate(row) if c] for row in rows]
        width = max([1] + [len(t) for t in terms])
        pad = [(0, 0)] * width
        support = np.array([[k for k, _ in (t + pad)[:width]] for t in terms], dtype=np.int64)
        coeffs = [[c for _, c in (t + pad)[:width]] for t in terms]
        abs_sum = sum(abs(c) for row in coeffs for c in row)
        trace = None
        if teich is not None:
            FQ = self.big.residue_field
            trace = np.array(
                [FQ.trace_row(self.big.reduce_mod_p(b)) for b in teich], dtype=np.int64
            ).reshape(len(teich), self.Q)
        return CharTable(
            index=np.array(index, dtype=np.int64),
            trace=trace,
            support=support.reshape(len(terms), width),
            coeffs=_int_array(coeffs).reshape(len(terms), width),
            abs_sum=abs_sum,
        )

    def _ring_char_table(self, chars, weights) -> CharTable:
        return self._char_table(
            [i for i, _ in chars], [w.coeffs for w in weights], [b for _, b in chars]
        )

    def _table_I_unit(self) -> CharTable:
        def build():
            chars = self.chars_mod_G()
            weights = []
            for chi in chars:
                g_big = self.system.gauss_sum_closed_form(chi, self.big.one)
                g_small = self.small_system.gauss_sum_closed_form(
                    self._restrict_char(chi), self.small.one
                )
                weights.append(g_big * g_small.conjugate())
            return self._ring_char_table(chars, weights)
        return self._cache("table_I_unit", build)

    def _table_I_pteich(self) -> CharTable:
        def build():
            chars = self.chars_mod_G1M()
            weights = []
            for chi in chars:
                g_big = self.system.gauss_sum_closed_form(chi, self.big.one)
                gq = self.small_system.gauss_sum_field_induced(chi[0])
                weights.append(self.q * (g_big * gq.conjugate()))
            return self._ring_char_table(chars, weights)
        return self._cache("table_I_pteich", build)

    def _table_I_zero(self) -> CharTable:
        def build():
            chars = self.chars_mod_GRstar()
            weights = [self.system.gauss_sum_closed_form(chi, self.big.one) for chi in chars]
            return self._ring_char_table(chars, weights)
        return self._cache("table_I_zero", build)

    def _table_field_eprime(self) -> CharTable:
        def build():
            js = self.field_chars_mod_eprime()
            return self._char_table(js, [self.system.gauss_sum_field_induced(j).coeffs for j in js])
        return self._cache("table_field_eprime", build)

    def _table_1_pteich(self) -> CharTable:
        def build():
            js = self.field_chars_mod_D()
            weights = [
                self.small_system.gauss_sum_field_induced(j).conjugate()
                * self.system.gauss_sum_field_induced(j)
                for j in js
            ]
            return self._char_table(js, [w.coeffs for w in weights])
        return self._cache("table_1_pteich", build)

    # -- the twisted-sum kernel ------------------------------------------------

    def _embedded_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """Big-ring (k, v) of each embedded small-ring code; (0, 0) at zero, v = 0 off the units."""
        def build():
            k, v = self.big.log_table()
            codes = [self.tower.embed(self.small.from_code(a)).code for a in range(self.q**2)]
            return np.maximum(k[codes], 0), np.maximum(v[codes], 0)
        return self._cache("embedded_logs", build)

    def _sum_dtype(self, *terms):
        """``cyclotomic.sum_dtype`` for a sum sum_k c_k G_k of (table, c_k) terms.

        sum_k |c_k| * sum|W_k| bounds every entry of the summed group-algebra
        rows, so it bounds their absolute sum as well.
        """
        return sum_dtype(self.m, sum(abs(c) * table.abs_sum for table, c in terms))

    def _group_sums(self, table: CharTable, dk, va, vb: int, dtype) -> np.ndarray:
        """Rows sum_chi zeta^(chi(x) - chi(y)) W_chi in group-algebra form, one per x.

        x = xi^(k_y + dk) (1 + p T(va)) and y has residue vb.  Every chi is a
        homomorphism, so chi(x) - chi(y) is read off the log coordinates, and
        the rows are one exact integer scatter-add of the terms of W.
        """
        m, Q, p = self.m, self.Q, self.p
        dk = np.asarray(dk, dtype=np.int64)
        exps = (table.index[:, None] * dk[None, :]) % (Q - 1) * (m // (Q - 1))
        if table.trace is not None:
            exps += (table.trace[:, va] - table.trace[:, vb, None]) % p * (m // p)
        slots = (exps[:, :, None] + table.support[:, None, :]) % m + m * np.arange(len(dk))[:, None]
        terms = np.broadcast_to(table.coeffs[:, None, :], slots.shape)
        sums = np.zeros(len(dk) * m, dtype=dtype)
        np.add.at(sums, slots.ravel(), terms.ravel().astype(dtype, copy=False))
        return sums.reshape(len(dk), m)

    def _rational(self, canonical: list[int]) -> int:
        """The integer a canonical form over Z[zeta_m] stands for."""
        if any(canonical[1:]):  # raises NotRationalError, worded as on the scalar route
            padded = canonical + [0] * (self.m - len(canonical))
            CyclotomicInteger(self.m, padded).as_rational_integer()
        return canonical[0]

    def _rational_sums(self, terms, dk, va=None, vb: int = 0) -> list[int]:
        """sum_k c_k sum_chi zeta^(chi(x) - chi(y)) W_chi for each x, as integers."""
        dtype = self._sum_dtype(*terms)
        sums = sum(c * self._group_sums(table, dk, va, vb, dtype) for table, c in terms)
        return [self._rational(row) for row in canonical_rows(sums, self.m)]

    # -- encoding and direct counting ----------------------------------------

    def _words(self, mul: np.ndarray) -> np.ndarray:
        """(n, r) small-ring coefficients of T(u x) over G, from the matrix of a -> a u on R_big."""
        coeffs = self._cache("group_coeffs", lambda: np.array(
            [x.coeffs for x in self.group_elements], dtype=np.int64))
        trace = np.array(self.tower.trace_matrix, dtype=np.int64)
        return coeffs @ mul % self.big.p2 @ trace.T % self.big.p2

    def _encode_rows(self, beta: GaloisRingElement) -> np.ndarray:
        """(n, r) small-ring coefficients of T(beta * x) over G, via ``mul_matrix(beta)``."""
        return self._words(self.big.mul_matrix(beta))

    def encode(self, beta: GaloisRingElement):
        """The codeword c_beta, T(beta * x) over G, as small-ring elements."""
        return tuple(GaloisRingElement(self.small, row) for row in self._encode_rows(beta).tolist())

    def count_components(self, beta: GaloisRingElement) -> dict[int, int]:
        """Direct tally N_beta(a) for every a in the small ring, by element code."""
        symbols = self.small.codes_of(self._encode_rows(beta))
        return dict(enumerate(np.bincount(symbols, minlength=self.q * self.q).tolist()))

    def _basis_images(self) -> np.ndarray:
        """(rs, n, r) words of beta = xi^j: rows j .. j+rs-1 of xi's powers multiply by xi^j."""
        def build():
            rs = self.r * self.s
            xi = np.array([self.big.xi_powers[i % (self.Q - 1)].coeffs for i in range(2 * rs - 1)])
            return np.array([self._words(xi[j:j + rs]) for j in range(rs)])
        return self._cache("basis_images", build)

    def _symbol_blocks(self, columns=slice(None)):
        """(start, block) pairs: the symbol codes of the words of every beta at the columns.

        Row beta is the ``span_blocks`` row of the basis images at the digits of beta;
        eight spread rows and the rows of beta = xi^j (the images) are checked against ``encode``.
        """
        rows, xis = self.Q * self.Q, self.big.xi_powers[:self.r * self.s]
        betas = np.array(sorted({*range(0, rows, max(1, rows // 8)), *(x.code for x in xis)}))
        expect = self._cache("encoded_samples", lambda: np.array(
            [self.small.codes_of(self._encode_rows(self.big.from_code(c))) for c in betas]))
        for start, block in span_blocks(self.small, self._basis_images()[:, columns]):
            at = (betas >= start) & (betas < start + len(block))
            if not np.array_equal(block[betas[at] - start], expect[at][:, columns]):
                raise IncompatibleTowerError("fast encoder disagrees with encode()")
            yield start, block

    def _tally(self, columns=slice(None)) -> np.ndarray:
        counts = np.empty((self.Q * self.Q, self.q**2), dtype=np.int64)
        for start, block in self._symbol_blocks(columns):
            counts[start:start + len(block)] = tally_rows(block, self.q**2)
        return counts

    def symbol_matrix(self) -> np.ndarray:
        """(Q^2, n) array of small-ring symbol codes, one row per beta code, not kept.

        The counts are tallied as the blocks stream: only a report of every symbol needs this.
        """
        return np.concatenate([block for _, block in self._symbol_blocks()])

    # -- symbol classification ------------------------------------------------

    def small_symbol_classes(self) -> np.ndarray:
        """Class of each small-ring code: 0 = zero, 1 = unit, 2 = p * Teichmuller."""
        k, v = self.small.log_table()
        return np.where(v >= 0, 1, np.where(k >= 0, 2, 0))

    def _unit_class(self, v_bar: int) -> str:
        """S or not-S for a unit beta whose 1 + pT part has residue v_bar."""
        if self.s_dual is None:
            raise PreconditionViolatedError("S-condition requires the s' tower data")
        FQ = self.big.residue_field
        # relative trace F_Q -> F_{Q'}, the value kept inside F_Q
        trace = FQ.orbit_sum(v_bar, self.q**self.sprime, self.p)
        return BETA_UNIT_S if FQ.add(trace, 1) in self.s_dual else BETA_UNIT_NO_S

    def beta_class(self, beta: GaloisRingElement) -> str:
        if beta.is_zero():
            return BETA_ZERO
        if not beta.is_unit:
            return BETA_P_TEICH
        return self._unit_class(self.big.unit_log(beta)[1])

    def beta_classes(self) -> list[str]:
        """``beta_class`` of every beta code, read from the log table.

        A unit's class depends only on its residue v_bar, so each of the Q
        residues is classified once.
        """
        logs_k, logs_v = self.big.log_table()
        unit_classes = [self._unit_class(v_bar) for v_bar in range(self.Q)]
        return [
            unit_classes[v] if v >= 0 else BETA_P_TEICH if k >= 0 else BETA_ZERO
            for k, v in zip(logs_k.tolist(), logs_v.tolist())
        ]

    # -- the general component-count formula -----------------------------------

    def _count(self, num: int, den: int) -> int:
        """The count num/den; NegativeCountError unless it is an integer in 0..n."""
        if num % den == 0 and 0 <= num // den <= self.n:
            return num // den
        raise NegativeCountError(
            f"component-count formula produced {Fraction(num, den)}, outside 0..{self.n}"
        )

    def theorem31_row(self, beta: GaloisRingElement) -> list[int]:
        """N_beta(a) for every small-ring code a, from the exact character-sum formula.

        Each class of a (unit, zero, p * Teichmuller) is one exact scatter-add
        over the stored tables, and the row one reduction modulo Phi_m;
        nothing is counted.  Raises at the first a, in code order, whose value
        is not rational (NotRationalError) or not a count in 0..n
        (NegativeCountError).
        """
        n, q, Q = self.n, self.q, self.Q
        q2 = q * q
        if beta.is_zero():
            return [n] + [0] * (q2 - 1)
        logs_k, logs_v = self.big.log_table()
        bk, bv = int(logs_k[beta.code]), int(logs_v[beta.code])
        ak, av = self._embedded_logs()
        classes = self.small_symbol_classes()
        units, pteich = np.flatnonzero(classes == 1), np.flatnonzero(classes == 2)
        at_one = np.array([-bk])  # a twist by chi(1) - chi(beta)
        ep = self._table_field_eprime()

        if bv < 0:  # beta = p * xi^bk: units a never occur
            one_p = self._table_1_pteich()
            dtype = self._sum_dtype((ep, 1), (one_p, 1))
            sums = np.concatenate([
                self._group_sums(ep, at_one, None, 0, dtype),
                self._group_sums(one_p, ak[pteich] - bk, None, 0, dtype),
            ])
            totals = canonical_rows(sums, self.m)
            row = [0] * q2
            den = q * (Q - 1)
            row[0] = self._count(n * (Q - 1 + (q - 1) * self._rational(totals[0])), den)
            for a, total in zip(pteich.tolist(), totals[1:]):
                row[a] = self._count(n * (Q - 1 + self._rational(total)), den)
            return row

        I_unit, one_p = self._table_I_unit(), self._table_1_pteich()
        I_zero, I_pteich = self._table_I_zero(), self._table_I_pteich()
        c_ep = Q * (q - 1)
        # one bound over all the tables covers each class's sum
        dtype = self._sum_dtype(
            (I_unit, 1), (one_p, Q), (I_zero, q * (q - 1)), (I_pteich, 1), (ep, c_ep)
        )
        sums = np.empty((q2, self.m), dtype=dtype)
        du = ak[units] - bk
        sums[units] = (self._group_sums(I_unit, du, av[units], bv, dtype)
                       + Q * self._group_sums(one_p, du, None, bv, dtype))
        part_ep = c_ep * self._group_sums(ep, at_one, None, bv, dtype)
        sums[0] = q * (q - 1) * self._group_sums(I_zero, at_one, [0], bv, dtype)[0] + part_ep[0]
        sums[pteich] = self._group_sums(
            I_pteich, ak[pteich] - bk, np.zeros_like(pteich), bv, dtype
        ) + part_ep
        den = q2 * Q * (Q - 1)
        return [
            self._count(n * (Q * (Q - 1) + self._rational(total)), den)
            for total in canonical_rows(sums, self.m)
        ]

    def theorem31_N(self, beta: GaloisRingElement, a: GaloisRingElement) -> int:
        """N_beta(a) from the exact character-sum formula: entry a of the row of beta's orbit.

        Rows are constant on orbits: each is computed at its orbit's smallest beta, once.
        """
        index, reps, _ = self.beta_orbits()
        orbit = int(index[beta.code])
        rows = self._cache("orbit_rows31", dict)
        if orbit not in rows:
            rows[orbit] = self.theorem31_row(self.big.from_code(int(reps[orbit])))
        return rows[orbit][a.code]

    # -- size / minimum-distance bounds -----------------------------------------

    def bounds_M1_M2(self) -> BoundsReport:
        """M1, M2 and the size and distance bounds of Theorem 3.1(3).

        M2 is a max over units of sums of characters trivial on G R^* or on D: it is
        constant on the orbits beta G, so one unit per orbit is read.
        """
        n, q, Q = self.n, self.q, self.Q
        FQ = self.big.residue_field
        table_ep = self._table_field_eprime()
        residue_logs = [FQ.log[b] for b in FQ.units()]
        m1 = max(Fraction(c, Q - 1) for c in self._rational_sums([(table_ep, 1)], residue_logs))
        terms = [(self._table_I_zero(), q), (table_ep, Q)]
        logs_k, logs_v = self.big.log_table()
        reps = self.beta_orbits()[1]
        m2 = None
        for code in reps[logs_v[reps] >= 0].tolist():  # the smallest unit of each orbit
            (combined,) = self._rational_sums(terms, [-logs_k[code]], [0], int(logs_v[code]))
            candidate = Fraction(combined, (q + 1) * Q * (Q - 1))
            if m2 is None or candidate > m2:
                m2 = candidate
        verdict = m1 < 1 and m2 < 1
        d_h = None
        if verdict:
            d_h = min(
                Fraction(n * (q - 1), q) * (1 - m1),
                Fraction(n * (q * q - 1), q * q) * (1 - m2),
            )
        remark = ((Q - 1) // self.e_prime) * self.p**self.d > Q and (
            (Q - 1) // self.e_prime
        ) ** 2 > Q
        return BoundsReport(m1, m2, verdict, d_h, remark)

    # -- exhaustive weight tables -------------------------------------------------

    def symbol_counts(self) -> np.ndarray:
        """(Q^2, q^2) array of N_beta(a): row beta code, column small-ring code a.

        Every count, weight and class-table cell of the code is read from it.
        """
        return self._cache("symbol_counts", self._tally)

    def hamming_distribution(self) -> WeightTable:
        counts = self.symbol_counts()
        hamming_tally = np.bincount(self.n - counts[:, 0], minlength=self.n + 1)
        hamming = {w: c for w, c in enumerate(hamming_tally.tolist()) if c}
        hom_tally = np.bincount(self.hom_weight_per_beta())
        homogeneous = {w: c for w, c in enumerate(hom_tally.tolist()) if c}
        rows, multiplicity = distinct_rows(counts)
        complete = {tuple(row): count for row, count in zip(rows.tolist(), multiplicity.tolist())}
        # c_beta is additive in beta, so |C| = Q^2 / |K| for the kernel K = {beta : c_beta = 0}
        kernel = int(np.count_nonzero(counts[:, 0] == self.n))
        return WeightTable(
            n=self.n,
            size=exact_int(Fraction(self.Q * self.Q, kernel), "code size"),
            hamming=hamming,
            complete=complete,
            homogeneous=homogeneous,
            min_hamming=min((w for w in hamming if w > 0), default=0),
            min_homogeneous=min((w for w in homogeneous if w > 0), default=0),
        )

    def _symbol_hom_weights(self) -> np.ndarray:
        """Homogeneous weight of each small-ring code: 0, q - 1 on units, q on p * T."""
        return np.array([0, self.q - 1, self.q], dtype=np.int64)[self.small_symbol_classes()]

    def hom_weight_per_beta(self) -> np.ndarray:
        return self.symbol_counts() @ self._symbol_hom_weights()

    # -- closed-form tables ---------------------------------------------------

    def _require_table_hypotheses(self, need_e_one: bool):
        if need_e_one and self.e != 1:
            raise PreconditionViolatedError("hypothesis e = 1 fails")
        if not need_e_one and self.e_prime != 1:
            raise PreconditionViolatedError("hypothesis gcd(e, (Q-1)/(q-1)) = 1 fails")
        if self.sprime is None:
            raise PreconditionViolatedError("hypothesis s = p*s' fails (no s' supplied)")
        if not self.vperp_in_subfield:
            raise PreconditionViolatedError(
                "hypothesis Vbar_perp inside the order-q^s' subfield fails"
            )
        lower = self.r * (self.p - 1) * self.sprime
        if not (self.r * self.s >= self.d >= lower):
            raise PreconditionViolatedError(
                f"hypothesis rs >= d >= r(p-1)s' fails: d={self.d}, bound={lower}"
            )

    def predicted_class_counts(self) -> dict[str, int]:
        Q, pd = self.Q, self.p**self.d
        return {
            BETA_UNIT_S: pd * (Q - 1),
            BETA_UNIT_NO_S: (Q - pd) * (Q - 1),
            BETA_P_TEICH: Q - 1,
            BETA_ZERO: 1,
        }

    def table1_predictions(self) -> dict[str, dict[str, int]]:
        """Predicted N_beta(a) per beta class and a class (e = 1 setting)."""
        q, Q, pd = self.q, self.Q, self.p**self.d
        F = Fraction
        exact = lambda value: exact_int(value, "table 1 closed form")
        return {
            BETA_UNIT_S: {
                A_UNIT: exact(F(Q * pd, q * q)),
                A_P_TEICH: exact(F(Q * (pd - q), q * q)),
                A_ZERO: exact(F(pd * (Q - q * q), q * q) + F(Q * (q - 1), q)),
            },
            BETA_UNIT_NO_S: {
                A_UNIT: exact(F(Q * pd, q * q)),
                A_P_TEICH: exact(F(Q * pd, q * q)),
                A_ZERO: exact(F(pd * (Q - q * q), q * q)),
            },
            BETA_P_TEICH: {
                A_UNIT: 0,
                A_P_TEICH: exact(F(Q * pd, q)),
                A_ZERO: exact(F((Q - q) * pd, q)),
            },
            BETA_ZERO: {A_UNIT: 0, A_P_TEICH: 0, A_ZERO: self.n},
        }

    def class_table(self, predictions, columns, observed: np.ndarray) -> TableReport:
        """Per-beta observations cross-checked against per-class closed forms.

        ``observed[code, j]`` is the value of column ``columns[j]`` for the
        beta of that code, and ``predictions[beta class][name]`` is the closed
        form of every column of that name.  A cell reads its block beta by
        beta, its columns in order within a beta, and shows the first value
        that misses its prediction, so one bad beta stays visible; otherwise
        its first value.  The betas of each class are counted too.
        """
        classes = np.array(self.beta_classes())
        names = np.array(columns)
        predicted_counts = self.predicted_class_counts()
        class_counts: dict[str, tuple[int, int]] = {}
        cells: dict[tuple[str, str], tuple[int, int]] = {}
        for bclass in predictions:
            members = np.flatnonzero(classes == bclass)
            class_counts[bclass] = (predicted_counts[bclass], len(members))
            if not len(members):
                continue
            for col in set(columns):
                block = observed[np.ix_(members, np.flatnonzero(names == col))].ravel()
                predicted = predictions[bclass][col]
                misses = np.flatnonzero(block != predicted)
                cells[bclass, col] = (predicted, int(block[misses[0] if len(misses) else 0]))
        rows = [TableRow(b, col, pred, obs) for (b, col), (pred, obs) in sorted(cells.items())]
        return TableReport(rows=rows, class_counts=class_counts)

    def theorem33_table(self) -> TableReport:
        """Symbol-count table in the e = 1 setting, every cell cross-checked."""
        self._require_table_hypotheses(need_e_one=True)
        q, Q, pd = self.q, self.Q, self.p**self.d
        a_classes = [(A_ZERO, A_UNIT, A_P_TEICH)[c] for c in self.small_symbol_classes()]
        report = self.class_table(self.table1_predictions(), a_classes, self.symbol_counts())
        table = self.hamming_distribution()
        report.extras = {
            "min_hamming_distance": (
                exact_int(Fraction(Q * pd * (q - 1), q), "table 1 minimum distance"),
                table.min_hamming,
            ),
            "code_size": (Q * Q, table.size),
        }
        return report

    def theorem34_params(self) -> dict[str, tuple[int, int]]:
        """Closed-form (n, d, n~, d~) with enumeration cross-checks."""
        self._require_table_hypotheses(need_e_one=False)
        q, Q, pd, e = self.q, self.Q, self.p**self.d, self.e
        F = Fraction
        exact = lambda value: exact_int(value, "theorem 3.4 closed form")
        n_pred = exact(F((Q - 1) * pd, e))
        d_pred = exact(F(pd * Q * (q - 1), e * q))
        nt_pred = exact(F((Q - 1) * pd, q * (q - 1)))
        dt_pred = exact(F(pd * Q, q * q))
        table = self.hamming_distribution()
        tilde = self.build_tilde_code()
        return {
            "n": (n_pred, self.n),
            "d": (d_pred, table.min_hamming),
            "n_tilde": (nt_pred, tilde.n_prime),
            "d_tilde": (dt_pred, self.tilde_min_hamming()),
        }

    # -- the coset-punctured code ------------------------------------------------

    def build_tilde_code(self) -> TildeCode:
        """Coset representatives of G meet R^* in G, canonically smallest first.

        Column j of ``moved`` lists the coset x_j (G meet R^*), so its smallest entry is the
        coset's representative; the cosets of the representatives must partition G.
        """
        def build():
            stabilizer = [x for x in self.group_elements if self.tower.fixed_by_frobenius(x)]
            moved = _moved(self.group_elements, stabilizer)
            reps = np.flatnonzero(moved.min(axis=0) == np.arange(self.n))
            block = moved[:, reps]  # block[i, c] is the index of x_{reps[c]} h_i
            if (moved < 0).any() or (np.bincount(block.ravel(), minlength=self.n) != 1).any():
                raise InvalidSubgroupError("cosets do not partition the group")
            coset, factor = np.empty((2, self.n), dtype=np.int64)
            coset[block] = np.arange(len(reps))
            factor[block] = np.array([self.tower.project(h).code for h in stabilizer])[:, None]
            reps, coset, factor = (tuple(a.tolist()) for a in (reps, coset, factor))
            return TildeCode(reps, len(stabilizer), len(reps), coset, factor)
        return self._cache("tilde", build)

    def tilde_symbol_counts(self) -> np.ndarray:
        """(Q^2, q^2) array of N_beta(a) on Ctilde: the tally of the representative columns."""
        reps = list(self.build_tilde_code().rep_indices)
        return self._cache("tilde_symbol_counts", lambda: self._tally(reps))

    def tilde_min_hamming(self) -> int:
        return self.build_tilde_code().n_prime - int(self.tilde_symbol_counts()[1:, 0].max())

    def __repr__(self):
        return (
            f"CodeContext(p={self.p}, r={self.r}, s={self.s}, e={self.e}, "
            f"d={self.d}, n={self.n})"
        )


def build_code(
    p: int,
    r: int,
    s: int,
    e: int,
    vbar_basis=None,
    d: int | None = None,
    sprime: int | None = None,
    modulus=None,
    allow_large: bool = False,
) -> CodeContext:
    """Construct the full code context; see CodeContext for the fields."""
    return CodeContext(
        p, r, s, e,
        vbar_basis=vbar_basis, d=d, sprime=sprime,
        modulus=modulus, allow_large=allow_large,
    )
