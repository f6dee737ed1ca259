import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from grcodes import codes, cyclotomic
from grcodes.cyclotomic import CyclotomicInteger, _reduction_rows, canonical_rows
from grcodes.codes import (
    BETA_P_TEICH,
    BETA_UNIT_NO_S,
    BETA_UNIT_S,
    BETA_ZERO,
    build_code,
    canonical_subspace_basis,
    check_generated_group,
    dual_subspace,
    echelon_basis,
    span_subspace,
)
from grcodes.errors import (
    IncompatibleTowerError,
    InvalidSubgroupError,
    NegativeCountError,
    NotRationalError,
    PreconditionViolatedError,
)
from grcodes.gray import hom_weight_vec, theorem44_hom_weight, theorem45_table
from grcodes.rings import (
    FiniteField,
    GaloisRing,
    format_element,
    hensel_lift_basic_primitive,
    is_primitive_poly,
    linear_span,
)
from grcodes.verify import suite_component_counts, suite_hom_weights
from test_characters import _quotient_characters_oracle


@pytest.fixture(scope="module")
def ctx212():
    # the e = 1, full-Vbar instance over GR(4,1) in GR(4,2)
    return build_code(2, 1, 2, e=1, d=2, sprime=1)


@pytest.fixture(scope="module")
def ctx_e3():
    return build_code(2, 1, 2, e=3, d=1)


# -- subspace helpers -----------------------------------------------------------

def test_dual_subspace_extremes():
    F4 = FiniteField(2, 2)
    full = echelon_basis(F4, [1, 2])
    assert dual_subspace(F4, full) == []
    assert span_subspace(F4, dual_subspace(F4, [])) == [0, 1, 2, 3]


def test_dual_subspace_f4_self_dual_line():
    F4 = FiniteField(2, 2)
    # tr(x) = x + x^2 kills exactly F_2, so F_2 is its own annihilator
    assert dual_subspace(F4, [1]) == [1]
    assert [F4.trace_to_prime(x) for x in range(4)] == [0, 0, 1, 1]


def test_dual_dimension_theorem():
    F27 = FiniteField(3, 3)
    for basis in ([], [1], echelon_basis(F27, [1, 3])):
        perp = dual_subspace(F27, basis)
        assert len(basis) + len(perp) == 3
        for a in basis:
            for x in perp:
                assert F27.trace_to_prime(F27.mul(a, x)) == 0


@pytest.mark.parametrize("r", [2, 3])
def test_dual_subspace_p5(r):
    field = FiniteField(5, r)
    rng = random.Random(r)
    for size in range(r + 2):
        for _ in range(4):
            basis = echelon_basis(field, [rng.randrange(field.q) for _ in range(size)])
            perp = dual_subspace(field, basis)
            assert len(perp) == r - len(basis)
            for a in basis:
                for x in perp:
                    assert field.trace_to_prime(field.mul(a, x)) == 0


# -- group construction -----------------------------------------------------------

def test_build_sizes(ctx212):
    assert ctx212.n == 12
    assert ctx212.e_prime == 1
    ctx = build_code(3, 1, 3, e=2, d=2, sprime=1)
    assert ctx.n == 117
    trivial = build_code(2, 1, 2, e=3, d=0)
    assert trivial.n == 1 and [x.code for x in trivial.group_elements] == [1]


def test_invalid_subgroup():
    with pytest.raises(InvalidSubgroupError):
        build_code(2, 1, 2, e=2, d=1)  # 2 does not divide Q-1 = 3
    big = GaloisRing(2, 2)
    with pytest.raises(InvalidSubgroupError):
        build_code(2, 1, 2, e=1, vbar_basis=[1, 1])  # dependent rows
    with pytest.raises(InvalidSubgroupError):
        build_code(2, 1, 2, e=1)  # neither vbar nor d


NOT_CLOSED = "G is not closed under multiplication"


def _pairwise_closed(elements) -> bool:
    """The exhaustive n^2 closure test, kept as an oracle for the generator check."""
    members = {x.coeffs for x in elements}
    return all((x * y).coeffs in members for x in elements for y in elements)


def _g_generators(ctx):
    return ctx._subgroup_generators("G")[0]


@pytest.mark.parametrize(
    "args, kwargs, n",
    [
        ((2, 1, 2), dict(e=1, d=2, sprime=1), 12),
        ((2, 1, 2), dict(e=3, d=1), 2),
        ((2, 1, 2), dict(e=3, d=0), 1),
        ((3, 1, 3), dict(e=2, d=2, sprime=1), 117),
        ((5, 1, 2), dict(e=4, d=1), 30),
    ],
)
def test_generator_check_agrees_with_pairwise_oracle(args, kwargs, n):
    ctx = build_code(*args, **kwargs)
    assert ctx.n == n == len(ctx.group_elements)
    assert _pairwise_closed(ctx.group_elements)
    check_generated_group(ctx.group_elements, _g_generators(ctx))


def test_generator_check_rejects_a_missing_element(ctx212):
    dropped = ctx212.group_elements[-1]
    assert dropped != ctx212.big.one
    holed = [x for x in ctx212.group_elements if x != dropped]
    assert not _pairwise_closed(holed)
    with pytest.raises(InvalidSubgroupError, match=NOT_CLOSED):
        check_generated_group(holed, _g_generators(ctx212))


def test_generator_check_rejects_a_swapped_element(ctx212):
    # same size as G, so only the membership test on each product catches it
    dropped = ctx212.group_elements[-1]
    swapped = [x for x in ctx212.group_elements if x != dropped] + [ctx212.big.one * 2]
    with pytest.raises(InvalidSubgroupError, match=NOT_CLOSED):
        check_generated_group(swapped, _g_generators(ctx212))


def test_generator_check_rejects_a_union_of_cosets(ctx_e3):
    # G u xG is closed under G's generators, but xG is not reached from 1
    x = ctx_e3.big.xi
    assert x.coeffs not in {g.coeffs for g in ctx_e3.group_elements}
    union = ctx_e3.group_elements + [x * g for g in ctx_e3.group_elements]
    assert len({u.coeffs for u in union}) == 2 * ctx_e3.n
    assert not _pairwise_closed(union)
    with pytest.raises(InvalidSubgroupError, match=NOT_CLOSED):
        check_generated_group(union, _g_generators(ctx_e3))


def test_generator_check_rejects_a_set_without_one(ctx_e3):
    coset = [ctx_e3.big.xi * g for g in ctx_e3.group_elements]
    with pytest.raises(InvalidSubgroupError, match=NOT_CLOSED):
        check_generated_group(coset, _g_generators(ctx_e3))
    with pytest.raises(InvalidSubgroupError, match=NOT_CLOSED):
        check_generated_group([], _g_generators(ctx_e3))
    with pytest.raises(InvalidSubgroupError, match=NOT_CLOSED):
        check_generated_group([ctx_e3.big.xi], [])  # one orbit, but without 1


def test_canonical_subspace_requires_room():
    FQ = FiniteField(3, 3)
    with pytest.raises(PreconditionViolatedError):
        canonical_subspace_basis(FQ, 1, sprime=1, q=3)
    basis = canonical_subspace_basis(FQ, 2, sprime=1, q=3)
    assert len(basis) == 2


# -- encoding and counting ----------------------------------------------------------

def test_encode_zero_and_ideal(ctx212):
    big = ctx212.big
    assert all(sym.is_zero() for sym in ctx212.encode(big.zero))
    for b in big.xi_powers:
        for sym in ctx212.encode(b * 2):
            assert not sym.is_unit  # traces of ideal multiples stay in the ideal


def test_count_components_sum(ctx212):
    for code in range(16):
        counts = ctx212.count_components(ctx212.big.from_code(code))
        assert sum(counts.values()) == ctx212.n


def test_counts_frozen_values(ctx212):
    """Counts computed by direct enumeration of the 12-unit instance."""
    big, small = ctx212.big, ctx212.small
    counts = ctx212.count_components(big.xi * 2)
    assert counts[small.element([2]).code] == 8
    assert counts[0] == 4
    counts_unit = ctx212.count_components(big.one)
    assert counts_unit[0] == 2
    assert counts_unit[small.element([2]).code] == 2
    assert counts_unit[small.element([1]).code] == 4
    assert counts_unit[small.element([3]).code] == 4


def test_linearity(ctx212):
    big = ctx212.big
    elements = list(big.elements())
    for a in elements[:8]:
        for b in elements[:8]:
            lhs = ctx212.encode(a + b)
            rhs = [x + y for x, y in zip(ctx212.encode(a), ctx212.encode(b))]
            assert list(lhs) == rhs


def test_group_scaling_preserves_counts(ctx212):
    # multiplying beta by a unit inside G permutes the codeword coordinates
    big = ctx212.big
    stab = [x for x in ctx212.group_elements if ctx212.tower.fixed_by_frobenius(x)]
    for gamma in stab:
        for code in range(16):
            beta = big.from_code(code)
            base = ctx212.count_components(beta)
            scaled = ctx212.count_components(gamma * beta)
            gamma_small = ctx212.tower.project(gamma)
            relabeled = {
                (gamma_small * ctx212.small.from_code(a)).code: cnt
                for a, cnt in base.items()
            }
            assert scaled == relabeled


# -- the component-count formula -------------------------------------------------------

def test_formula_matches_enumeration_small(ctx212, ctx_e3):
    for ctx in (ctx212, ctx_e3):
        for bcode in range(ctx.Q * ctx.Q):
            beta = ctx.big.from_code(bcode)
            counts = ctx.count_components(beta)
            for acode in range(ctx.q * ctx.q):
                assert ctx.theorem31_N(beta, ctx.small.from_code(acode)) == counts[acode]


def test_formula_frozen_values_eprime3(ctx_e3):
    """Hand-checked values for the e = 3, n = 2 instance (e' = 3)."""
    big, small = ctx_e3.big, ctx_e3.small
    two = small.element([2])
    assert ctx_e3.theorem31_N(big.element([2, 0]), two) == 0
    assert ctx_e3.theorem31_N(big.element([2, 0]), small.zero) == 2
    assert ctx_e3.theorem31_N(big.xi * 2, two) == 2
    assert ctx_e3.theorem31_N(big.xi * 2, small.zero) == 0
    one_counts = [ctx_e3.theorem31_N(big.one, small.from_code(a)) for a in range(4)]
    assert one_counts == [0, 0, 2, 0]


def test_formula_ideal_beta_unit_a_is_zero(ctx212):
    big = ctx212.big
    for b in big.xi_powers:
        for acode in range(4):
            a = ctx212.small.from_code(acode)
            if a.is_unit:
                assert ctx212.theorem31_N(b * 2, a) == 0


# -- bounds ---------------------------------------------------------------------------

def test_bounds(ctx212):
    report = ctx212.bounds_M1_M2()
    assert report.m1 == Fraction(-1, 3)
    assert report.verdict
    assert report.remark_sufficient
    table = ctx212.hamming_distribution()
    assert table.size == 16  # |C| = Q^2 when both bounds hold
    assert report.d_hamming == table.min_hamming == 8


def test_bounds_match_enumeration_more():
    ctx = build_code(3, 1, 2, e=2, d=1)
    report = ctx.bounds_M1_M2()
    table = ctx.hamming_distribution()
    if report.verdict:
        assert table.size == ctx.Q * ctx.Q
        assert report.d_hamming == table.min_hamming


# -- distributions ----------------------------------------------------------------------

def test_hamming_distribution(ctx212):
    table = ctx212.hamming_distribution()
    assert table.hamming == {0: 1, 8: 3, 10: 12}
    assert table.min_hamming == 8
    assert sum(table.hamming.values()) == 16
    assert sum(table.complete.values()) == 16


def test_complete_distribution_rows(ctx212):
    table = ctx212.hamming_distribution()
    # the all-zero word and the two symbol-count patterns seen above
    assert table.complete[(12, 0, 0, 0)] == 1
    assert table.complete[(4, 0, 8, 0)] == 3
    assert table.complete[(2, 4, 2, 4)] == 12


# -- closed-form tables -------------------------------------------------------------------

def test_table1(ctx212):
    report = ctx212.theorem33_table()
    assert report.all_match
    cells = {(r.beta_class, r.a_class): r.predicted for r in report.rows}
    assert cells[(BETA_P_TEICH, "pTstar")] == 8
    assert cells[(BETA_P_TEICH, "zero")] == 4
    assert cells[(BETA_UNIT_S, "zero")] == 2
    assert report.class_counts[BETA_UNIT_S] == (12, 12)
    assert report.class_counts[BETA_UNIT_NO_S] == (0, 0)
    assert report.class_counts[BETA_P_TEICH] == (3, 3)
    assert report.class_counts[BETA_ZERO] == (1, 1)


def test_table1_requires_hypotheses():
    ctx = build_code(2, 1, 2, e=3, d=0)
    with pytest.raises(PreconditionViolatedError):
        ctx.theorem33_table()
    # Vbar spanned by the generator: its annihilator leaves the subfield F_2
    ctx2 = build_code(2, 1, 2, e=1, vbar_basis=[2], sprime=1)
    with pytest.raises(PreconditionViolatedError) as err:
        ctx2.theorem33_table()
    assert "Vbar_perp" in str(err.value)


def test_table1_holds_at_minimum_dimension():
    # d = 1 meets the bound r(p-1)s' = 1 exactly, with Vbar = F_2
    ctx = build_code(2, 1, 2, e=1, d=1, sprime=1)
    assert ctx.theorem33_table().all_match


def test_inequality_chain(ctx212):
    q, Q, pd, n = ctx212.q, ctx212.Q, ctx212.p**ctx212.d, ctx212.n
    lo = Fraction(pd * (Q - q * q), q * q)
    mid = lo + Fraction(Q * (q - 1), q)
    hi = Fraction(pd * (Q - q), q)
    assert lo < mid <= hi < n


def test_theorem34():
    ctx = build_code(3, 1, 3, e=2, d=2, sprime=1)
    params = ctx.theorem34_params()
    assert params == {
        "n": (117, 117),
        "d": (81, 81),
        "n_tilde": (39, 39),
        "d_tilde": (27, 27),
    }


def test_theorem34_e1_consistency(ctx212):
    params = ctx212.theorem34_params()
    table = ctx212.theorem33_table()
    assert params["n"] == (12, 12)
    assert params["d"][0] == table.extras["min_hamming_distance"][0] == 8


# -- the coset-punctured code ----------------------------------------------------------------

def test_tilde_code(ctx212):
    tilde = ctx212.build_tilde_code()
    assert tilde.l == 2 and tilde.n_prime == 6
    assert tilde.l * tilde.n_prime == ctx212.n
    assert ctx212.tilde_min_hamming() == 4  # d / l = 8 / 2
    # distinct tilde codewords: same size as C
    mat = ctx212.symbol_matrix()[:, list(tilde.rep_indices)]
    assert len({tuple(row) for row in mat.tolist()}) == 16


def test_tilde_trivial_stabilizer():
    ctx = build_code(2, 1, 2, e=3, d=0)  # G = {1}
    tilde = ctx.build_tilde_code()
    assert tilde.l == 1 and tilde.n_prime == ctx.n


def _tilde_oracle(ctx) -> codes.TildeCode:
    """The coset loop, one ring product per group element, kept as the oracle."""
    fixed = [i for i, x in enumerate(ctx.group_elements) if ctx.tower.fixed_by_frobenius(x)]
    factors = [ctx.tower.project(ctx.group_elements[i]).code for i in fixed]
    index = {x.coeffs: i for i, x in enumerate(ctx.group_elements)}
    coset, factor = [-1] * ctx.n, [0] * ctx.n
    reps: list[int] = []
    for idx, x in enumerate(ctx.group_elements):
        if coset[idx] >= 0:
            continue
        reps.append(idx)
        for g_idx, h in zip(fixed, factors):
            j = index[(x * ctx.group_elements[g_idx]).coeffs]
            assert coset[j] < 0, "cosets overlap"
            coset[j], factor[j] = len(reps) - 1, h
    assert len(reps) * len(fixed) == ctx.n
    return codes.TildeCode(tuple(reps), len(fixed), len(reps), tuple(coset), tuple(factor))


@pytest.mark.parametrize("args, kwargs, l", [
    ((2, 1, 2), dict(e=3, d=0), 1),
    ((2, 1, 3), dict(e=1, d=0), 1),
    ((2, 1, 2), dict(e=1, d=2, sprime=1), 2),
    ((2, 2, 2), dict(e=3, d=1), 2),
    ((5, 1, 2), dict(e=4, d=1), 10),
    ((3, 1, 3), dict(e=2, d=2, sprime=1), 3),  # n = 117
    ((2, 3, 2), dict(e=1, d=3, sprime=1), 56),  # n = 504
])
def test_tilde_code_matches_the_coset_loop(args, kwargs, l):
    ctx = build_code(*args, **kwargs)
    tilde = ctx.build_tilde_code()
    assert tilde == _tilde_oracle(ctx)
    assert tilde.l == l
    fields = (tilde.rep_indices, tilde.coset, tilde.factor)
    assert all(type(v) is int for values in fields for v in values)


def test_tilde_code_refuses_overlapping_cosets(monkeypatch):
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    one, xi = ctx.big.one, ctx.big.xi  # {1, xi} is not a subgroup: xi has order 3
    monkeypatch.setattr(ctx.tower, "fixed_by_frobenius", lambda x: x in (one, xi))
    with pytest.raises(InvalidSubgroupError, match="cosets do not partition"):
        ctx.build_tilde_code()


# -- a base ring of degree two, so the formulas see q = 4 ---------------------------

def test_formula_matches_enumeration_degree_two():
    ctx = build_code(2, 2, 2, e=3, d=1)  # GR(4,2) in GR(4,4)
    assert ctx.e_prime == 1 and ctx.n == 10
    for bcode in range(ctx.Q * ctx.Q):
        beta = ctx.big.from_code(bcode)
        counts = ctx.count_components(beta)
        for acode in range(ctx.q * ctx.q):
            assert ctx.theorem31_N(beta, ctx.small.from_code(acode)) == counts[acode]


def test_formula_matches_enumeration_cubic_tower():
    # Z_4 in GR(4,3): a degree-three tower with the largest possible e' = 7
    ctx = build_code(2, 1, 3, e=7, d=1)
    assert ctx.e_prime == 7 and ctx.n == 2
    for bcode in range(ctx.Q * ctx.Q):
        beta = ctx.big.from_code(bcode)
        counts = ctx.count_components(beta)
        for acode in range(ctx.q * ctx.q):
            assert ctx.theorem31_N(beta, ctx.small.from_code(acode)) == counts[acode]


def test_table1_degree_two():
    ctx = build_code(2, 2, 2, e=1, d=3, sprime=1)
    report = ctx.theorem33_table()
    assert report.all_match
    assert report.extras["code_size"] == (256, 256)


# -- log coordinates and the array formula kernel -------------------------------------

def _tally(ctx, beta) -> list[int]:
    counts = ctx.count_components(beta)
    return [counts[a] for a in range(ctx.q * ctx.q)]


def _replace_weights(ctx, monkeypatch, name, edit):
    """Swap a cached formula table for a copy whose dense weights ``edit`` changed."""
    table = getattr(ctx, f"_{name}")()
    weights = np.zeros((len(table.index), ctx.m), dtype=np.int64)
    np.add.at(weights, (np.arange(len(table.index))[:, None], table.support), table.coeffs)
    edit(weights)
    edited = ctx._char_table(table.index, weights.tolist())
    monkeypatch.setitem(ctx._caches, name, dataclasses.replace(edited, trace=table.trace))


def test_formula_kernel_raises_on_a_non_rational_weight(monkeypatch):
    ctx = build_code(2, 1, 2, e=1, d=1)
    i, b = ctx.chars_mod_GRstar()[0]
    assert i == 0 and b.is_zero()  # the trivial character, whose weight G(chi) is 0

    def to_zeta(weights):
        weights[0] = 0
        weights[0, 1] = 1  # zeta_m

    _replace_weights(ctx, monkeypatch, "table_I_zero", to_zeta)
    message = rf"value is not rational: canonical form \(.*\) over Z\[zeta_{ctx.m}\]"
    with pytest.raises(NotRationalError, match=message):
        ctx.theorem31_row(ctx.big.one)
    with pytest.raises(NotRationalError, match=message):
        theorem44_hom_weight(ctx, ctx.big.one)
    with pytest.raises(NotRationalError, match=message):
        ctx.bounds_M1_M2()
    # the p * T rows never read that table
    assert ctx.theorem31_row(ctx.big.one * 2) == _tally(ctx, ctx.big.one * 2)


def test_formula_kernel_raises_on_a_count_out_of_range(monkeypatch):
    ctx = build_code(2, 1, 2, e=1, d=1)
    assert ctx.field_chars_mod_eprime()[0] == 0  # trivial: G_Q = -1, a rational weight

    def scale(weights):
        weights[0] *= 1000

    _replace_weights(ctx, monkeypatch, "table_field_eprime", scale)
    message = rf"component-count formula produced -?\d+(/\d+)?, outside 0\.\.{ctx.n}"
    for beta in (ctx.big.one, ctx.big.one * 2):  # a unit and a p * T row both use it
        with pytest.raises(NegativeCountError, match=message):
            ctx.theorem31_row(beta)


def test_formula_kernel_object_path_gives_identical_values(monkeypatch):
    def results(ctx):
        betas = list(ctx.big.elements())
        return ([ctx.theorem31_row(beta) for beta in betas],
                [theorem44_hom_weight(ctx, beta) for beta in betas],
                ctx.bounds_M1_M2())

    fast = build_code(3, 1, 2, e=2, d=1)
    expected = results(fast)
    values = [fast.system.gauss_sum_closed_form(chi, fast.big.one) for chi in fast.chars_mod_G()]
    forms = [value.canonical() for value in values]
    assert fast._table_I_pteich().coeffs.dtype == np.int64
    reduce, dtypes = cyclotomic.canonical_rows, []

    def recording(sums, m):
        dtypes.append(sums.dtype)
        return reduce(sums, m)

    monkeypatch.setattr(cyclotomic, "INT64_SUM_BOUND", 0)  # every sum now runs on Python ints
    monkeypatch.setattr(cyclotomic, "canonical_rows", recording)
    monkeypatch.setattr(codes, "canonical_rows", recording)
    exact = build_code(3, 1, 2, e=2, d=1)
    assert exact._sum_dtype((exact._table_I_pteich(), 1)) is object
    assert results(exact) == expected
    assert [value.canonical() for value in values] == forms
    assert dtypes and all(dtype == object for dtype in dtypes)
    # storage falls back to Python ints only for entries that do not fit in int64
    assert codes._int_array([[1, -(2**63)]]).dtype == np.int64
    assert codes._int_array([[1, 2**63]]).dtype == object


def _scalar_canonical(coeffs, m: int) -> list[int]:
    """The canonical form modulo Phi_m by a loop over the full m x phi(m) table."""
    rows = _reduction_rows(m)
    out = [0] * len(rows[0])
    for k, c in enumerate(coeffs):
        if c:
            for i, entry in enumerate(rows[k]):
                out[i] += c * entry
    return out


def _check_canonical_forms(rows, m: int) -> None:
    expected = [_scalar_canonical(row, m) for row in rows]
    assert canonical_rows(np.array(rows, dtype=object), m) == expected
    if all(abs(c) < 2**63 for row in rows for c in row):
        assert canonical_rows(np.array(rows, dtype=np.int64), m) == expected
    assert [list(CyclotomicInteger(m, row).canonical()) for row in rows] == expected


@pytest.mark.parametrize("m", [1, 2, 4, 6, 12, 28, 60, 72, 600, 2352])
def test_canonical_rows_match_the_scalar_oracle(m):
    rng = random.Random(m)
    _check_canonical_forms([[rng.randrange(-50, 50) for _ in range(m)] for _ in range(2)], m)
    _check_canonical_forms([[2**63 + rng.randrange(-50, 50) for _ in range(m)]], m)
    # absolute coefficient sums just below and exactly at the int64 bound
    largest = cyclotomic._reduction_table(m)[2]
    at_bound = -(-cyclotomic.INT64_SUM_BOUND // largest)
    assert largest * at_bound == cyclotomic.INT64_SUM_BOUND
    assert cyclotomic.sum_dtype(m, at_bound - 1) is np.int64
    assert cyclotomic.sum_dtype(m, at_bound) is object
    for total in (at_bound - 1, at_bound):
        row = [1] * m
        row[-1] = -(total - (m - 1))
        _check_canonical_forms([row], m)


@pytest.mark.parametrize("args, kwargs", [((2, 2, 2), dict(e=3, d=1)), ((5, 1, 2), dict(e=4, d=1))])
def test_canonical_rows_match_cyclotomic_canonical(args, kwargs):
    assert build_code(*args, **kwargs).m in (60, 600)  # both are in the list above


# -- seeded random instances, p in {2, 3, 5} ------------------------------------------

# Each of the Q^2 rows costs n tallies and q^2 formula values; the budget keeps
# every instance exhaustive and quick, which leaves r*s = 4 only to p = 2
RANDOM_WORK_BUDGET = 20000


def _random_code(rng: random.Random, p: int):
    """A code with r*s <= 4, e | Q - 1, 0 <= d <= r*s, a random modulus and Vbar."""
    shapes = []
    for r, s in itertools.product(range(1, 5), repeat=2):
        Q, q = p ** (r * s), p**r
        if r * s > 4:
            continue
        for e in (e for e in range(1, Q) if (Q - 1) % e == 0):
            for d in range(r * s + 1):
                if Q * Q * ((Q - 1) // e * p**d + q * q) <= RANDOM_WORK_BUDGET:
                    shapes.append((r, s, e, d))
    r, s, e, d = rng.choice(shapes)
    primitive = [g + (1,) for g in itertools.product(range(p), repeat=r * s)
                 if g[0] and is_primitive_poly(g + (1,), p)]
    modulus = hensel_lift_basic_primitive(rng.choice(primitive), p)
    field = FiniteField(p, r * s, tuple(c % p for c in modulus))
    basis: list[int] = []
    while len(basis) < d:
        basis = echelon_basis(field, basis + [rng.randrange(1, field.q)])
    return build_code(p, r, s, e, vbar_basis=basis, modulus=modulus)


@pytest.mark.parametrize("seed", range(6))
def test_formulas_match_enumeration_on_random_codes(seed):
    p = (2, 3, 5)[seed % 3]
    ctx = _random_code(random.Random(f"formula-oracle:{seed}"), p)
    hom = ctx.hom_weight_per_beta().tolist()
    for beta in ctx.big.elements():
        assert ctx.theorem31_row(beta) == _tally(ctx, beta), (ctx, beta)
        assert theorem44_hom_weight(ctx, beta) == hom[beta.code], (ctx, beta)


# -- the symbol matrix, weight tallies and beta classes against scalar routes -----

_FIXED_CODES = {
    "p2-n12": ((2, 1, 2), dict(e=1, d=2, sprime=1)),
    "p5-n30": ((5, 1, 2), dict(e=4, d=1)),
    "p2-r3s2-n3": ((2, 3, 2), dict(e=21, d=0)),  # r = 3 symbol coordinates
}
# and the seeded codes of test_formulas_match_enumeration_on_random_codes
_ORACLE_CODES = [*_FIXED_CODES, *(f"random-{seed}" for seed in range(6))]


def _oracle_code(name: str):
    if name in _FIXED_CODES:
        args, kwargs = _FIXED_CODES[name]
        return build_code(*args, **kwargs)
    seed = int(name.split("-")[1])
    return _random_code(random.Random(f"formula-oracle:{seed}"), (2, 3, 5)[seed % 3])


@pytest.mark.parametrize("name", _ORACLE_CODES)
def test_symbol_matrix_matches_encode_on_every_beta(name):
    ctx = _oracle_code(name)
    mat = ctx.symbol_matrix()
    assert mat.shape == (ctx.Q * ctx.Q, ctx.n) and mat.dtype == np.min_scalar_type(ctx.q**2 - 1)
    for beta in ctx.big.elements():
        assert mat[beta.code].tolist() == [sym.code for sym in ctx.encode(beta)], (ctx, beta)


@pytest.mark.parametrize("name", ["p2-n12", "p5-n30", "p2-r3s2-n3"])
def test_symbol_matrix_in_row_blocks_matches_encode(monkeypatch, name):
    ctx = _oracle_code(name)
    rs, row_bytes = ctx.r * ctx.s, ctx.n * ctx.r  # uint8 symbol digits for p = 2 and 5
    half = (ctx.p**2) ** (rs // 2) * row_bytes  # the low half of the beta digits fit
    mats = []  # all kept alive, so no block can reuse the buffer of a correct one
    for budget in (1, half):  # no low digit; half of the digits low
        monkeypatch.setattr(codes, "TALLY_BLOCK_BYTES", budget)
        mats.append(_oracle_code(name).symbol_matrix())
    for mat in mats:
        assert mat.dtype == np.min_scalar_type(ctx.q**2 - 1)
        for beta in ctx.big.elements():
            assert mat[beta.code].tolist() == [sym.code for sym in ctx.encode(beta)], (ctx, beta)


def test_symbol_matrix_refuses_a_corrupted_table(monkeypatch):
    span = codes.linear_span

    def corrupted(images, mod, start=0):
        rows = span(images, mod, start)
        rows[0] = (rows[0] + 1) % mod  # every block's first row, beta = 0 among them
        return rows

    monkeypatch.setattr(codes, "linear_span", corrupted)
    with pytest.raises(IncompatibleTowerError, match="disagrees with encode"):
        _oracle_code("p2-n12").symbol_matrix()


@pytest.mark.parametrize("which", ["symbol_counts", "tilde_symbol_counts"])
@pytest.mark.parametrize("j", range(4))
def test_a_corrupted_basis_image_is_refused(monkeypatch, j, which):
    # p = 2: the 8 spread betas are multiples of Q^2 / 8 = 32, so their digits 0 and 1 are zero
    ctx = build_code(2, 1, 4, e=5, d=2)  # n = 12, Q^2 = 256, rs = 4
    images = ctx._basis_images().copy()
    column = ctx.build_tilde_code().rep_indices[-1]  # a column of both C and Ctilde
    images[j, column] = (images[j, column] + 1) % ctx.small.p2
    monkeypatch.setattr(ctx, "_basis_images", lambda: images)
    with pytest.raises(IncompatibleTowerError, match="disagrees with encode"):
        getattr(ctx, which)()


def _per_row_tally(mat, q2: int) -> np.ndarray:
    return np.array([np.bincount(row, minlength=q2) for row in mat], dtype=np.int64)


@pytest.mark.parametrize("budget", ["one-byte", "half-the-rows", "default"])
@pytest.mark.parametrize("name", _ORACLE_CODES)
def test_streamed_counts_match_a_per_row_tally_of_the_matrix(monkeypatch, name, budget):
    mat = _oracle_code(name).symbol_matrix()
    half = mat.shape[0] // 2 * mat.shape[1] * _oracle_code(name).r  # uint8 digits for p <= 5
    if budget != "default":
        monkeypatch.setattr(codes, "TALLY_BLOCK_BYTES", 1 if budget == "one-byte" else half)
    ctx = _oracle_code(name)  # built after the budget is set: the tables are cached
    reps = list(ctx.build_tilde_code().rep_indices)
    for counts, expected in ((ctx.symbol_counts(), mat), (ctx.tilde_symbol_counts(), mat[:, reps])):
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _per_row_tally(expected, ctx.q**2)), (ctx, budget)


def test_streamed_counts_keep_a_few_blocks_alive(monkeypatch):
    ctx = build_code(2, 3, 2, e=1, d=3, sprime=1)  # n = 504: Q^2 = 4,096 rows of 1,512 digits
    budget = 4 << 10  # under two rows: one-row blocks, every digit of beta walked as an offset
    monkeypatch.setattr(codes, "TALLY_BLOCK_BYTES", budget)
    ctx.tilde_symbol_counts()  # builds the basis images and the rows checked against encode
    images = ctx._basis_images()
    eager_offsets = ctx.Q * ctx.Q * images[0].size  # linear_span of every image at once, in uint8
    tracemalloc.start()
    try:
        counts = ctx.symbol_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = counts.nbytes + 16 * budget + 2 * images.nbytes  # the table, blocks, one offset a digit
    assert peak < bound < eager_offsets, (peak, bound, eager_offsets)


def _encode_oracle(ctx, beta):
    """The element-wise encoder, one ring product and one trace per group element."""
    return tuple(ctx.tower.trace(beta * x) for x in ctx.group_elements)


@pytest.mark.parametrize("name", list(_FIXED_CODES))  # p = 2 and 5, r = 1 and 3
def test_encode_matches_the_element_wise_encoder(name):
    ctx = _oracle_code(name)
    for beta in ctx.big.elements():
        assert ctx.encode(beta) == _encode_oracle(ctx, beta), (ctx, beta)
    with pytest.raises(ValueError, match="different rings"):
        ctx.encode(GaloisRing(ctx.p, ctx.r * ctx.s).one)


@pytest.mark.parametrize("name", _ORACLE_CODES)
def test_quotient_characters_match_the_scan(name):
    ctx = _oracle_code(name)
    for which, chars in (("G", ctx.chars_mod_G()), ("G1M", ctx.chars_mod_G1M()),
                         ("GRstar", ctx.chars_mod_GRstar())):
        expected = _quotient_characters_oracle(ctx.system, *ctx._subgroup_generators(which))
        assert [(i, b.coeffs) for i, b in chars] == [(i, b.coeffs) for i, b in expected], which


@pytest.mark.parametrize("name", ["p2-n12", "random-1", "random-2", "p5-n30"])
def test_complete_weights_match_a_per_row_tally(name):
    ctx = _oracle_code(name)
    mat = ctx.symbol_matrix()
    complete: dict[tuple[int, ...], int] = {}
    for row in mat:
        key = tuple(int(c) for c in np.bincount(row, minlength=ctx.q * ctx.q))
        complete[key] = complete.get(key, 0) + 1
    table = ctx.hamming_distribution()
    assert table.complete == complete
    assert all(type(c) is int for key in table.complete for c in key)
    assert table.size == len({tuple(row) for row in mat.tolist()})


def test_distinct_rows_counts_each_row_once():
    a = np.array([[3, 1], [0, 2], [3, 1], [0, 2], [3, 1], [2, 0]], dtype=np.int64)
    rows, counts = codes.distinct_rows(a)
    assert sorted(zip(map(tuple, rows.tolist()), counts.tolist())) == [
        ((0, 2), 2), ((2, 0), 1), ((3, 1), 3)
    ]


def test_distinct_rows_compares_neighbours_in_blocks(monkeypatch):
    a = np.random.default_rng(2).integers(0, 3, size=(500, 3))  # 27 possible rows, all repeated
    rows, counts = np.unique(a, axis=0, return_counts=True)
    for budget in (1, 7 * a.itemsize * 3, 1 << 20):  # one-row blocks; 7 rows; one block
        monkeypatch.setattr(codes, "TALLY_BLOCK_BYTES", budget)
        found, multiplicity = codes.distinct_rows(a)
        pairs = sorted(zip(map(tuple, found.tolist()), multiplicity.tolist()))
        assert pairs == sorted(zip(map(tuple, rows.tolist()), counts.tolist())), budget


def test_distinct_rows_makes_no_sorted_copy_of_the_table():
    # 8 distinct rows of 81 int64 counts: a sorted copy would take the table's 25.9 MB again
    a = np.repeat(np.arange(8 * 81, dtype=np.int64).reshape(8, 81), 5000, axis=0)
    np.random.default_rng(3).shuffle(a)
    tracemalloc.start()
    try:
        rows, counts = codes.distinct_rows(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(counts.tolist()) == [5000] * 8 and len(rows) == 8
    assert peak < a.nbytes // 2, (peak, a.nbytes)


def test_suite_31_reads_one_count_row_at_a_time(monkeypatch):
    # n = 504: the (4,096, 64) count table as lists would take 2.3 MB, one row 568 bytes
    ctx = build_code(2, 3, 2, e=1, d=3, sprime=1)
    assert suite_component_counts(ctx).all_ok  # fills the tables that ctx keeps
    table = ctx.hamming_distribution()  # rebuilt on each call; not what is measured here
    monkeypatch.setattr(ctx, "hamming_distribution", lambda: table)
    counts = ctx.symbol_counts()
    tracemalloc.start()
    try:
        report = suite_component_counts(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_ok
    assert peak < counts.nbytes // 2, (peak, counts.nbytes)


@pytest.mark.parametrize("args, kwargs, kernel", [
    ((2, 1, 2), dict(e=3, d=1), 4),
    ((2, 1, 3), dict(e=7, d=0), 16),
    ((2, 1, 3), dict(e=7, d=2), 8),
    ((2, 1, 2), dict(e=1, d=2, sprime=1), 1),
    ((3, 1, 2), dict(e=1, d=1), 1),
])
def test_code_size_is_read_from_the_kernel(args, kwargs, kernel):
    ctx = build_code(*args, **kwargs)
    size = ctx.hamming_distribution().size
    assert size == len(codes.distinct_rows(ctx.symbol_matrix())[0])
    assert size * kernel == ctx.Q * ctx.Q


def unit_action(ring: GaloisRing, unit) -> np.ndarray:
    """code(a * unit) for every ring code a: the span of the rows xi^j * unit, checked bijective."""
    image = ring.codes_of(linear_span(ring.mul_matrix(unit), ring.p2))
    if (np.bincount(image, minlength=ring.q * ring.q) != 1).any():
        raise InvalidSubgroupError(f"multiplication by {unit!r} does not permute the ring")
    return image


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_unit_action_matches_ring_products(p, r):
    ring = GaloisRing(p, r)
    for unit in [x for x in ring.elements() if x.is_unit][:6]:
        assert unit_action(ring, unit).tolist() == [(x * unit).code for x in ring.elements()]


def test_unit_action_refuses_a_map_that_is_not_a_bijection():
    ring = GaloisRing(2, 2)
    for non_unit in (ring.one * ring.p, ring.zero):
        with pytest.raises(InvalidSubgroupError, match="does not permute"):
            unit_action(ring, non_unit)


def _orbit_oracle(ctx) -> list[frozenset[int]]:
    """The orbits beta G, by one ring product per (beta, g)."""
    orbits = {frozenset((beta * g).code for g in ctx.group_elements) for beta in ctx.big.elements()}
    return sorted(orbits, key=min)


def _check_orbits_against_the_oracle(ctx):
    index, reps, sizes = ctx.beta_orbits()
    assert sizes.sum() == ctx.Q * ctx.Q
    found = [frozenset(np.flatnonzero(index == i).tolist()) for i in range(len(reps))]
    assert found == _orbit_oracle(ctx)
    assert reps.tolist() == [min(orbit) for orbit in found]
    assert sizes.tolist() == [len(orbit) for orbit in found]


@pytest.mark.parametrize("args, kwargs", [
    ((2, 1, 3), dict(e=1, d=1)),  # cycles of length 7 under xi
    ((3, 1, 2), dict(e=2, d=1)),
])
def test_beta_orbits_match_the_orbit_sets(args, kwargs):
    _check_orbits_against_the_oracle(build_code(*args, **kwargs))


@pytest.mark.parametrize("name", _ORACLE_CODES)
def test_beta_orbits_match_the_ring_products_on_the_oracle_codes(name):
    _check_orbits_against_the_oracle(_oracle_code(name))


@pytest.mark.parametrize("args, kwargs, count", [
    ((2, 3, 2), dict(e=1, d=3, sprime=1), 1 * 64 // 8 + 1 + 1),  # n = 504
    ((2, 2, 4), dict(e=5, d=2), 5 * 256 // 4 + 5 + 1),  # Q = 256: 326 orbits
])
def test_beta_orbits_match_the_generator_maps(args, kwargs, count):
    ctx = build_code(*args, **kwargs)
    maps = [unit_action(ctx.big, g) for g in ctx._subgroup_generators("G")[0]]
    expected = codes.permutation_orbits(maps, ctx.Q * ctx.Q)
    found = ctx.beta_orbits()
    assert len(found[1]) == count
    for got, want in zip(found, expected):
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("seed", range(6))
def test_per_orbit_formulas_match_the_per_beta_route_on_random_codes(seed):
    ctx = _random_code(random.Random(f"formula-oracle:{seed}"), (2, 3, 5)[seed % 3])
    symbols = list(ctx.small.elements())
    for beta in ctx.big.elements():
        row = ctx.theorem31_row(beta)
        assert [ctx.theorem31_N(beta, a) for a in symbols] == row, (ctx, beta)
    # M2 as a max over every unit, one kernel call each
    q, Q = ctx.q, ctx.Q
    terms = [(ctx._table_I_zero(), q), (ctx._table_field_eprime(), Q)]
    logs_k, logs_v = ctx.big.log_table()
    m2 = max(
        Fraction(ctx._rational_sums(terms, [-logs_k[code]], [0], int(logs_v[code]))[0],
                 (q + 1) * Q * (Q - 1))
        for code in np.flatnonzero(logs_v >= 0).tolist()
    )
    assert ctx.bounds_M1_M2().m2 == m2, ctx


@pytest.mark.parametrize("args, kwargs", [
    ((2, 3, 2), dict(e=1, d=3, sprime=1)),  # n = 504
    ((3, 1, 3), dict(e=2, d=2, sprime=1)),  # n = 117
])
def test_beta_classes_match_beta_class(args, kwargs):
    ctx = build_code(*args, **kwargs)
    classes = ctx.beta_classes()
    assert classes == [ctx.beta_class(beta) for beta in ctx.big.elements()]
    assert {name: classes.count(name) for name in set(classes)} == ctx.predicted_class_counts()


@pytest.mark.parametrize("name", ["p2-n12", "p2-r3s2-n3", "random-1", "p5-n30"])
def test_small_symbol_classes_match_a_scalar_loop(name):
    ctx = _oracle_code(name)
    expected = []
    for a in ctx.small.elements():
        expected.append(0 if a.is_zero() else 1 if a.is_unit else 2)
    assert ctx.small_symbol_classes().tolist() == expected


@pytest.mark.parametrize("name", ["p2-n12", "random-1", "p5-n30"])  # p = 2, 3, 5
def test_suite_31_full_tallies_match_count_components(name):
    ctx = _oracle_code(name)
    report = suite_component_counts(ctx, full=True)
    vectors = [record for record in report.records if record.check_id.startswith("beta-")]
    assert len(vectors) == ctx.Q * ctx.Q
    for beta, record in zip(ctx.big.elements(), vectors):
        assert record.check_id == f"beta-{format_element(beta)}"
        assert record.observed == str(_tally(ctx, beta))
    assert report.all_ok


@pytest.mark.parametrize("full", [False, True])
def test_a_wrong_orbit_formula_fails_every_beta_of_that_orbit(monkeypatch, full):
    ctx = build_code(2, 1, 3, e=1, d=1)  # e = 1: the p * T betas are one orbit of 7
    assert ctx.e_prime == 1 and len(ctx.beta_orbits()[1]) == 8 // 2 + 1 + 1

    def shift(weights):  # only that orbit's formula reads the e' field table
        weights[0, 0] += ctx.Q - 1  # moves its weight by -(q - 1) n, an integer

    _replace_weights(ctx, monkeypatch, "table_field_eprime", shift)
    report = suite_hom_weights(ctx, full=full)
    failed = [r.check_id for r in report.records if not r.ok and r.check_id.startswith("beta-")]
    ideal = [beta for beta in ctx.big.elements() if not beta.is_unit and not beta.is_zero()]
    assert failed == [f"beta-{format_element(beta)}" for beta in ideal]
    shown = [r for r in report.records if r.check_id.startswith("beta-")]
    assert len(shown) == (ctx.Q * ctx.Q if full else len(ideal))
    counted = {r.check_id: r.observed for r in report.records}
    assert counted["all-beta"] == f"{ctx.Q * ctx.Q - len(ideal)} weights equal"
    assert counted["tilde-scaling"] == f"{len(ideal)} beta violate the scaling"


# -- the one count table and the tables read from it ------------------------------

def test_tally_rows_in_blocks_matches_one_bincount(monkeypatch):
    # every row holds 5 symbols, so a block left untallied cannot read as zeros
    mat = np.random.default_rng(1).integers(0, 9, size=(23, 5))
    offsets = np.arange(len(mat))[:, None] * 9
    expected = np.bincount((offsets + mat).ravel(), minlength=len(mat) * 9).reshape(-1, 9)
    tallies = []  # all kept alive, so no tally can reuse the buffer of a correct one
    for budget in (64 * (5 + 9) * 4, 1):  # 5 blocks of 4 rows and one of 3; one-row blocks
        monkeypatch.setattr(codes, "TALLY_BLOCK_BYTES", budget)
        tallies.append(codes.tally_rows(mat, 9))
    for tally in tallies:
        assert tally.dtype == np.int64 and np.array_equal(tally, expected)


def test_tally_rows_counts_each_symbol_of_each_row():
    mat = np.array([[0, 3, 3, 1], [2, 2, 2, 2], [3, 0, 1, 0]], dtype=np.int64)
    assert codes.tally_rows(mat, 4).tolist() == [[1, 1, 0, 2], [0, 0, 4, 0], [2, 1, 0, 1]]
    assert codes.tally_rows(mat, 5).tolist() == [[1, 1, 0, 2, 0], [0, 0, 4, 0, 0], [2, 1, 0, 1, 0]]


@pytest.mark.parametrize("name", ["p2-n12", "random-1", "p5-n30"])  # p = 2, 3, 5
def test_weights_read_from_the_count_table_match_encode(name):
    ctx = _oracle_code(name)
    counts = ctx.symbol_counts()
    assert ctx.symbol_counts() is counts  # tallied once
    hom = ctx.hom_weight_per_beta().tolist()
    tilde = (ctx.tilde_symbol_counts() @ ctx._symbol_hom_weights()).tolist()
    reps = ctx.build_tilde_code().rep_indices
    table = ctx.hamming_distribution()
    hamming: dict[int, int] = {}
    for beta in ctx.big.elements():
        word = ctx.encode(beta)
        assert counts[beta.code].tolist() == _tally(ctx, beta), (ctx, beta)
        assert hom[beta.code] == hom_weight_vec(word), (ctx, beta)
        assert tilde[beta.code] == hom_weight_vec(word[i] for i in reps), (ctx, beta)
        weight = sum(1 for a in word if not a.is_zero())
        hamming[weight] = hamming.get(weight, 0) + 1
    assert table.hamming == hamming
    homogeneous = {w: hom.count(w) for w in set(hom)}
    assert table.homogeneous == homogeneous
    assert table.min_homogeneous == min([w for w in hom if w] or [0])


def _class_table_oracle(ctx, predictions, columns, observed):
    """The per-(beta, column) loop that filled each cell, kept as the oracle."""
    observed_counts = {name: 0 for name in predictions}
    cells: dict[tuple[str, str], tuple[int, int]] = {}
    for code, bclass in enumerate(ctx.beta_classes()):
        observed_counts[bclass] += 1
        for col, value in zip(columns, observed[code].tolist()):
            predicted = predictions[bclass][col]
            prev = cells.get((bclass, col))
            if prev is None or (prev[0] == prev[1] and value != predicted):
                cells[bclass, col] = (predicted, value)
    predicted_counts = ctx.predicted_class_counts()
    return (
        [(b, col, pred, obs) for (b, col), (pred, obs) in sorted(cells.items())],
        {name: (predicted_counts[name], observed_counts[name]) for name in predictions},
    )


def _check_class_table(ctx, predictions, columns, observed) -> bool:
    report = ctx.class_table(predictions, columns, observed)
    rows = [(r.beta_class, r.a_class, r.predicted, r.enumerated) for r in report.rows]
    assert all(type(r.enumerated) is int for r in report.rows)
    assert (rows, report.class_counts) == _class_table_oracle(ctx, predictions, columns, observed)
    return report.all_match


def _corrupt(rng, observed, cells):
    """A copy of ``observed`` with each distinct (row, column) shifted by a nonzero amount."""
    observed = observed.copy()
    for row, col in dict.fromkeys(cells):
        observed[row, col] += rng.choice([-3, -2, -1, 1, 2, 3])
    return observed


def _class_table_cases(ctx, columns, observed, seed):
    """Seeded corruptions, and the cells where reading order decides the witness."""
    rng = random.Random(seed)
    classes = ctx.beta_classes()
    cases = [[]]
    for _ in range(6):
        cases.append([(rng.randrange(len(observed)), rng.randrange(len(columns)))
                      for _ in range(rng.randint(1, 4))])
    # cells do not interact, so each pattern is seeded in every cell of one table
    later, middle, two_misses, beta_major = [], [], [], []
    for bclass in sorted(set(classes)):
        members = [code for code, c in enumerate(classes) if c == bclass]
        first, second = members[0], members[-1]
        for name in sorted(set(columns)):
            cols = [j for j, c in enumerate(columns) if c == name]
            later.append((first, cols[-1]))  # a later column of a repeated name
            middle.append((first, cols[len(cols) // 2]))
            two_misses += [(first, cols[0]), (second, cols[0])]
            beta_major += [(second, cols[0]), (first, cols[-1])]
    cases += [later, middle, two_misses, beta_major]
    return [_corrupt(rng, observed, cells) for cells in cases]


@pytest.mark.parametrize("args, kwargs", [
    ((2, 3, 2), dict(e=1, d=3, sprime=1)),  # n = 504
    ((2, 1, 2), dict(e=1, d=2, sprime=1)),  # n = 12, with an empty beta class
])
def test_class_table_matches_the_cell_loop_on_symbol_counts(args, kwargs):
    ctx = build_code(*args, **kwargs)
    columns = [(codes.A_ZERO, codes.A_UNIT, codes.A_P_TEICH)[c] for c in ctx.small_symbol_classes()]
    predictions = ctx.table1_predictions()
    cases = _class_table_cases(ctx, columns, ctx.symbol_counts(), seed=ctx.n)
    verdicts = [_check_class_table(ctx, predictions, columns, observed) for observed in cases]
    assert verdicts[0] and not any(verdicts[1:])


def test_class_table_matches_the_cell_loop_on_hom_weights():
    ctx = build_code(3, 1, 3, e=2, d=2, sprime=1)  # n = 117
    report = theorem45_table(ctx)
    predictions: dict[str, dict[str, int]] = {}
    for row in report.rows:  # every class is nonempty here, so every prediction has a row
        predictions.setdefault(row.beta_class, {})[row.a_class] = row.predicted
    assert report.all_match and set(predictions) == set(report.class_counts)
    columns = ("w_hom", "w_hom_tilde")
    tilde_weights = ctx.tilde_symbol_counts() @ ctx._symbol_hom_weights()
    observed = np.stack([ctx.hom_weight_per_beta(), tilde_weights], axis=1)
    cases = _class_table_cases(ctx, columns, observed, seed=ctx.n)
    verdicts = [_check_class_table(ctx, predictions, columns, table) for table in cases]
    assert verdicts[0] and not any(verdicts[1:])
