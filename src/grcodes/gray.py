"""Homogeneous weight and the Gray isometry into F_q vectors.

The homogeneous weight on GR(p^2, r) takes q - 1 on units, q on the nonzero
part of p*T, and 0 at zero; it generalizes the Lee weight on Z_4.  The Gray
map sends beta = b0 + p*b1 to the evaluation vector of the affine polynomial
f(x) = b0_bar * x + b1_bar over a fixed enumeration of F_q, which makes
(R^n, w_hom) -> (F_q^{nq}, w_Hamming) an isometry.  Images of the trace
codes are (usually nonlinear) two-distance codes.  Their weights,
distances and size are read from the symbol counts of the additive code,
never from the images themselves, and no symbol matrix is read either.
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
)
from .cyclotomic import exact_int
from .errors import InvalidSubgroupError, PreconditionViolatedError
from .rings import GaloisRing, GaloisRingElement, linear_span


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
    tilde_weights = ctx.tilde_symbol_counts() @ ctx._symbol_hom_weights()
    observed = np.stack([ctx.hom_weight_per_beta(), tilde_weights], axis=1)
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


def _symbol_gray_weights(ctx: CodeContext) -> np.ndarray:
    """w(a), the Hamming weight of the Gray image of each small-ring code a, checked.

    The Gray distance between symbols a + c and c must be w(a) for every c,
    so that the distance between two images is the weight of their
    difference, and w(a) must be positive for a != 0, so that the Gray map is
    injective on symbols.
    """
    table = _gray_table(ctx)
    weights = np.count_nonzero(table, axis=1)
    digits = linear_span(np.eye(ctx.r, dtype=np.int64), ctx.small.p2)  # row a: a's coefficients
    for c in range(len(table)):
        shifted = ctx.small.codes_of((digits + digits[c]) % ctx.small.p2)  # the codes of a + c
        if not np.array_equal(np.count_nonzero(table[shifted] != table[c], axis=1), weights):
            raise InvalidSubgroupError(
                "the Gray distance between two symbols is not the weight of their difference"
            )
    if not weights[1:].all():
        raise InvalidSubgroupError("the Gray map sends a nonzero symbol to the zero vector")
    return weights


def gray_image_analyze(
    ctx: CodeContext, which: str = "C", assert_two_distance: bool = False
) -> GrayImageReport:
    """Map a whole trace code through the Gray isometry and measure it.

    The rows of the code are a ``linear_span`` in beta, so c_beta - c_beta' =
    c_(beta - beta').  Once the Gray table is checked translation-invariant
    and injective on symbols, the distance between the images of c_beta and
    c_beta' is the Gray weight of c_(beta - beta'): its symbol counts times
    the Gray weight of each symbol.  Every gamma is beta - beta' for Q^2
    ordered pairs, so the pairwise distance multiset is Q^2 times the weight
    tally, less the Q^2 pairs of a row with itself at distance 0, halved.
    The image has Q^2 / |K| words for the kernel K of zero rows.  No
    homogeneous weight is read, so the result can serve as an independent
    check of the isometry.
    """
    if which not in ("C", "Ctilde"):
        raise ValueError("which must be 'C' or 'Ctilde'")
    counts = ctx.symbol_counts() if which == "C" else ctx.tilde_symbol_counts()
    symbol_weights = _symbol_gray_weights(ctx)
    rows, n = len(counts), int(counts[0].sum())  # every row tallies the n symbols of a word
    weight_tally = np.bincount(counts @ symbol_weights).tolist()
    weights = {w: count for w, count in enumerate(weight_tally) if count}
    pairs = [rows * count for count in weight_tally]
    pairs[0] -= rows
    distances = {d: count // 2 for d, count in enumerate(pairs) if count}
    kernel = int(np.count_nonzero(counts[:, 0] == n))
    nonzero = sorted(d for d in distances if d > 0)
    two_distance = len(nonzero) == 2
    if assert_two_distance and not two_distance:
        raise PreconditionViolatedError(
            f"expected a two-distance code, found distances {nonzero}"
        )
    return GrayImageReport(
        which=which,
        length=n * ctx.q,
        size=exact_int(Fraction(rows, kernel), "Gray image size"),
        weights=weights,
        distances=distances,
        min_distance=nonzero[0] if nonzero else 0,
        two_distance=two_distance,
    )
