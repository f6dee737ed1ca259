"""Homogeneous weight and the Gray isometry into F_q vectors.

The homogeneous weight on GR(p^2, r) takes q - 1 on units, q on the nonzero
part of p*T, and 0 at zero; it generalizes the Lee weight on Z_4.  The Gray
map sends beta = b0 + p*b1 to the evaluation vector of the affine polynomial
f(x) = b0_bar * x + b1_bar over a fixed enumeration of F_q, which makes
(R^n, w_hom) -> (F_q^{nq}, w_Hamming) an isometry.  Images of the trace
codes are (usually nonlinear) two-distance codes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import (
    BETA_P_TEICH,
    BETA_UNIT_NO_S,
    BETA_UNIT_S,
    BETA_ZERO,
    CodeContext,
    TableReport,
    distinct_rows,
    unit_action,
)
from .cyclotomic import exact_int
from .errors import InvalidSubgroupError, PreconditionViolatedError
from .rings import GaloisRing, GaloisRingElement


def hom_weight(a: GaloisRingElement) -> int:
    """q - 1 on units, q on nonzero p*T, 0 at zero."""
    if a.is_zero():
        return 0
    return a.ring.q - 1 if a.is_unit else a.ring.q


def hom_weight_vec(symbols) -> int:
    return sum(hom_weight(a) for a in symbols)


# ---------------------------------------------------------------------------
# closed-form homogeneous weights of trace codewords
# ---------------------------------------------------------------------------

def theorem44_hom_weight(ctx: CodeContext, beta: GaloisRingElement) -> int:
    """Homogeneous weight of c_beta from the exact character-sum formula."""
    n, q, Q = ctx.n, ctx.q, ctx.Q
    if beta.is_zero():
        return 0
    logs_k, logs_v = ctx.big.log_table()
    twist = [-logs_k[beta.code]]  # chi(1) - chi(beta)
    if beta.is_unit:
        (total,) = ctx._rational_sums(
            [(ctx._table_I_zero(), 1)], twist, [0], int(logs_v[beta.code])
        )
        value = (q - 1) * (Fraction(n) - Fraction(n, Q * (Q - 1)) * total)
    else:  # beta = p * xi^k
        (total,) = ctx._rational_sums([(ctx._table_field_eprime(), 1)], twist)
        value = (q - 1) * (Fraction(n) - Fraction(n, Q - 1) * total)
    return exact_int(value, "homogeneous-weight formula")


def theorem45_table(ctx: CodeContext) -> TableReport:
    """Homogeneous weights of C and Ctilde by beta class, cross-checked."""
    ctx._require_table_hypotheses(need_e_one=False)
    q, Q, pd, e = ctx.q, ctx.Q, ctx.p**ctx.d, ctx.e
    F = Fraction
    exact = lambda value: exact_int(value, "table 2 closed form")
    columns = ("w_hom", "w_hom_tilde")
    by_class = {
        BETA_UNIT_S: (exact(F(Q * (q - 1) * (pd - 1), e)), exact(F(Q * (pd - 1), q))),
        BETA_UNIT_NO_S: (exact(F(Q * (q - 1) * pd, e)), exact(F(Q * pd, q))),
        BETA_P_TEICH: (exact(F(Q * (q - 1) * pd, e)), exact(F(Q * pd, q))),
        BETA_ZERO: (0, 0),
    }
    predictions = {name: dict(zip(columns, pair)) for name, pair in by_class.items()}
    observed = np.stack(
        [ctx.hom_weight_per_beta(), ctx.hom_weights(ctx.tilde_symbol_matrix())], axis=1
    )
    return ctx.class_table(predictions, columns, observed)


# ---------------------------------------------------------------------------
# the Gray map itself
# ---------------------------------------------------------------------------

def field_enumeration(ring: GaloisRing) -> list[int]:
    """The fixed order of F_q used for evaluation vectors: 0, then generator powers."""
    field = ring.residue_field
    return [0] + [field.exp[k] for k in range(field.q - 1)]


def gray_map(beta: GaloisRingElement) -> tuple[int, ...]:
    """Evaluation vector of f(x) = b0_bar * x + b1_bar over the fixed F_q order."""
    ring = beta.ring
    field = ring.residue_field
    b0, b1 = ring.teichmuller_decompose(beta)
    c0, c1 = ring.reduce_mod_p(b0), ring.reduce_mod_p(b1)
    return tuple(field.add(field.mul(c0, a), c1) for a in field_enumeration(ring))


def gray_map_vec(symbols) -> tuple[int, ...]:
    out: list[int] = []
    for a in symbols:
        out.extend(gray_map(a))
    return tuple(out)


def first_order_rm_code(ring: GaloisRing) -> set[tuple[int, ...]]:
    """All q^2 evaluation vectors of affine polynomials over F_q."""
    field = ring.residue_field
    order = field_enumeration(ring)
    return {
        tuple(field.add(field.mul(c0, a), c1) for a in order)
        for c0 in field.elements()
        for c1 in field.elements()
    }


# ---------------------------------------------------------------------------
# analysis of Gray images of the trace codes
# ---------------------------------------------------------------------------

@dataclass
class GrayImageReport:
    which: str
    length: int
    size: int
    weights: dict[int, int]
    distances: dict[int, int]
    min_distance: int
    two_distance: bool


def _gray_table(ctx: CodeContext) -> np.ndarray:
    """(q^2, q) array: the Gray image of each small-ring code, as F_q codes.

    The codes are stored in the smallest unsigned type that holds q - 1
    (uint8 up to q = 256).
    """
    table = np.zeros((ctx.q * ctx.q, ctx.q), dtype=np.min_scalar_type(ctx.q - 1))
    for code in range(ctx.q * ctx.q):
        table[code] = gray_map(ctx.small.from_code(code))
    return table


def _gray_matrix(ctx: CodeContext, symbol_matrix: np.ndarray) -> np.ndarray:
    """Gray images of all codewords as one (Q^2, n*q) array of F_q codes."""
    imgs = _gray_table(ctx)[symbol_matrix]  # (Q^2, n, q)
    return imgs.reshape(symbol_matrix.shape[0], -1)


def _check_symmetry(ctx: CodeContext, which: str, mat: np.ndarray) -> None:
    """Raise unless each generator g of G moves every row by a Gray isometry.

    Row beta g must be row beta with its columns permuted, and for Ctilde
    with entry i also multiplied by a unit h_i of the small ring, where
    g x_i = x_pi(i) h_i.  Each h_i must keep the Hamming distance between
    the Gray images of any two symbols.  Then the Gray image of row beta g
    is that of row beta moved by one Hamming isometry for all beta, so
    every row of an orbit beta G has the same distances to the other rows.
    The check reads only the matrix, the generator maps and the Gray table.
    """
    codes = np.array([x.code for x in ctx.group_elements])
    if which == "C":  # every element is its own column, times 1
        columns = coset = np.arange(ctx.n)
        factor = np.full(ctx.n, ctx.small.one.code)
    else:
        tilde = ctx.build_tilde_code()
        columns, coset, factor = map(np.array, (tilde.rep_indices, tilde.coset, tilde.factor))
    table = _gray_table(ctx)
    block_distance = np.count_nonzero(table[:, None, :] != table[None, :, :], axis=2)
    for perm in ctx.generator_action():
        moved = perm[codes[columns]]  # the codes of g x_i
        j = np.minimum(np.searchsorted(codes, moved), ctx.n - 1)
        if not np.array_equal(codes[j], moved):
            raise InvalidSubgroupError("a generator of G moves a coordinate out of G")
        pi, h = coset[j], factor[j]
        image = mat[perm]
        for unit in sorted(set(h.tolist())):  # np.unique would import numpy.ma
            times = unit_action(ctx.small, ctx.small.from_code(unit))
            cols = np.flatnonzero(h == unit)
            if not (
                np.array_equal(block_distance[np.ix_(times, times)], block_distance)
                and np.array_equal(image[:, cols], times.astype(mat.dtype)[mat[:, pi[cols]]])
            ):
                raise InvalidSubgroupError(
                    f"a generator of G does not act on the rows of {which} as a Gray isometry"
                )


def _orbit_distances(gray: np.ndarray, reps: np.ndarray, sizes: np.ndarray) -> dict[int, int]:
    """Multiset of Hamming distances over all unordered pairs of rows.

    Every row of an orbit has the same distances to all rows (``_check_symmetry``),
    so the tally over ordered pairs is, summed over the orbits, the orbit
    size times the distances from its representative to every row.  The
    pairs of a row with itself are then taken from distance 0, and each
    unordered pair was counted from both ends.
    """
    tally = np.zeros(gray.shape[1] + 1, dtype=np.int64)
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        diffs = np.count_nonzero(gray != gray[rep], axis=1)
        tally += size * np.bincount(diffs, minlength=len(tally))
    tally[0] -= len(gray)
    tally //= 2
    return {int(dist): int(count) for dist, count in enumerate(tally.tolist()) if count}


def gray_image_analyze(
    ctx: CodeContext, which: str = "C", assert_two_distance: bool = False
) -> GrayImageReport:
    """Map a whole trace code through the Gray isometry and measure it.

    Verifies injectivity, tallies Hamming weights, and computes the full
    pairwise distance multiset from one row per G-orbit, after checking on
    the rows that G acts by Gray isometries.  No homogeneous weight is read,
    so the result can serve as an independent check of the isometry.
    """
    if which not in ("C", "Ctilde"):
        raise ValueError("which must be 'C' or 'Ctilde'")
    mat = ctx.symbol_matrix() if which == "C" else ctx.tilde_symbol_matrix()
    gray = _gray_matrix(ctx, mat)
    size = len(distinct_rows(gray)[0])
    weight_tally = np.bincount(np.count_nonzero(gray, axis=1))
    weights = {w: count for w, count in enumerate(weight_tally.tolist()) if count}
    # checked here rather than first: its small temporaries, freed before the
    # Gray matrix is allocated, raised the n = 504 peak RSS from 80 to 90 MiB
    _check_symmetry(ctx, which, mat)
    _, reps, sizes = ctx.beta_orbits()
    distances = _orbit_distances(gray, reps, sizes)
    nonzero = sorted(d for d in distances if d > 0)
    two_distance = len(nonzero) == 2
    if assert_two_distance and not two_distance:
        raise PreconditionViolatedError(
            f"expected a two-distance code, found distances {nonzero}"
        )
    return GrayImageReport(
        which=which,
        length=gray.shape[1],
        size=size,
        weights=weights,
        distances=distances,
        min_distance=nonzero[0] if nonzero else 0,
        two_distance=two_distance,
    )
