import random
from fractions import Fraction

import pytest

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
    InvalidSubgroupError,
    PreconditionViolatedError,
)
from grcodes.rings import FiniteField, GaloisRing


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
        check_generated_group([ctx_e3.big.xi], [])  # no generators: the walk never leaves 1


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
    mat = ctx212.tilde_symbol_matrix()
    assert len({tuple(row) for row in mat.tolist()}) == 16


def test_tilde_trivial_stabilizer():
    ctx = build_code(2, 1, 2, e=3, d=0)  # G = {1}
    tilde = ctx.build_tilde_code()
    assert tilde.l == 1 and tilde.n_prime == ctx.n


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
