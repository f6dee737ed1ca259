import itertools
import random

import numpy as np
import pytest

from grcodes.characters import (
    CharacterSystem,
    field_quotient_characters,
    gauss_sum_field,
    ring_quotient_characters,
)
from grcodes.cyclotomic import CyclotomicInteger
from grcodes.errors import InvalidSubgroupError, NotAUnitError
from grcodes.rings import FiniteField, GaloisRing, format_element
from grcodes.verify import VerificationReport, suite_gauss_equivalence


def _eval_additive(cs, beta, x) -> CyclotomicInteger:
    """lambda_beta(x) as an element of Z[zeta_m]."""
    return CyclotomicInteger.zeta(cs.m, cs.additive_exponent(beta, x))


def _eval_mult(cs, chi, x) -> CyclotomicInteger:
    """chi(x) as an element of Z[zeta_m]; NotAUnitError off the units."""
    return CyclotomicInteger.zeta(cs.m, cs.mult_exponent(chi, x))


@pytest.fixture(scope="module")
def Z4():
    return GaloisRing(2, 1)


@pytest.fixture(scope="module")
def R42():
    return GaloisRing(2, 2)


def test_eval_additive(Z4, R42):
    cs = CharacterSystem(Z4)
    for x in Z4.elements():
        assert _eval_additive(cs, Z4.zero, x) == 1
    assert _eval_additive(cs, Z4.one, Z4.one) == CyclotomicInteger.zeta(cs.m, cs.m // 4)
    cs2 = CharacterSystem(R42)
    # trace of xi is 3, so lambda_1(xi) is the third power of the order-4 root
    assert _eval_additive(cs2, R42.one, R42.xi) == CyclotomicInteger.zeta(cs2.m, 3 * (cs2.m // 4))


def test_additive_is_homomorphism(R42):
    cs = CharacterSystem(R42)
    beta = R42.element([1, 2])
    for x in R42.elements():
        for y in list(R42.elements())[:6]:
            product = _eval_additive(cs, beta, x) * _eval_additive(cs, beta, y)
            assert _eval_additive(cs, beta, x + y) == product


def test_eval_mult(Z4, R42):
    cs = CharacterSystem(Z4)
    triv = cs.trivial_mult()
    three = Z4.element([3])
    assert _eval_mult(cs, triv, three) == 1
    assert _eval_mult(cs, (0, Z4.one), three) == -1
    cs2 = CharacterSystem(R42)
    omega = (1, R42.zero)
    assert _eval_mult(cs2, omega, R42.xi) == CyclotomicInteger.zeta(cs2.m, cs2.m // 3)
    with pytest.raises(NotAUnitError):
        _eval_mult(cs, triv, Z4.element([2]))


def test_orthogonality(Z4, R42):
    for ring in (Z4, R42):
        cs = CharacterSystem(ring)
        for beta in ring.elements():
            total = sum(
                (_eval_additive(cs, beta, x) for x in ring.elements()),
                CyclotomicInteger.zero(cs.m),
            )
            assert total == (ring.q * ring.q if beta.is_zero() else 0)
        for chi in cs.all_mult_chars():
            total = sum(
                (_eval_mult(cs, chi, x) for x in ring.units()),
                CyclotomicInteger.zero(cs.m),
            )
            expect = ring.q * (ring.q - 1) if cs.mult_char_is_trivial(chi) else 0
            assert total == expect


def test_field_gauss_sums():
    import math

    for p, r in [(2, 1), (2, 2), (3, 1)]:
        field = FiniteField(p, r)
        m = math.lcm(p, field.q - 1 if field.q > 2 else 1)
        assert gauss_sum_field(field, 0, m) == -1  # trivial character
    F4 = FiniteField(2, 2)
    g = gauss_sum_field(F4, 1, 12)
    assert g.abs_square() == 4


def test_ring_gauss_sum_trivial_cases(Z4):
    cs = CharacterSystem(Z4)
    triv = cs.trivial_mult()
    assert cs.gauss_sum_definition(triv, Z4.zero) == 2  # q(q-1)
    assert cs.gauss_sum_definition(triv, Z4.element([2])) == -2
    assert cs.gauss_sum_definition(triv, Z4.one) == 0
    chi = (0, Z4.one)
    assert cs.gauss_sum_closed_form(chi, Z4.zero) == 0  # chi != 1, lambda = 1


def test_ring_gauss_sum_closed_examples(Z4):
    cs = CharacterSystem(Z4)
    chi = (0, Z4.one)
    expected = 2 * CyclotomicInteger.zeta(cs.m, cs.m // 4)
    assert cs.gauss_sum_closed_form(chi, Z4.one) == expected
    assert cs.gauss_sum_definition(chi, Z4.one) == expected
    assert cs.gauss_sum_closed_form(chi, Z4.element([2])) == 0


def test_closed_equals_definition_small_rings():
    for p, r in [(2, 1), (2, 2), (3, 1)]:
        ring = GaloisRing(p, r)
        cs = CharacterSystem(ring)
        for chi in cs.all_mult_chars():
            for beta in ring.elements():
                assert cs.gauss_sum_closed_form(chi, beta) == cs.gauss_sum_definition(chi, beta)


def test_field_quotient_characters():
    assert field_quotient_characters(4, 1) == [0]
    assert field_quotient_characters(4, 3) == [0, 1, 2]
    assert field_quotient_characters(9, 2) == [0, 4]
    with pytest.raises(InvalidSubgroupError):
        field_quotient_characters(9, 3)


def test_ring_quotient_characters(R42):
    cs = CharacterSystem(R42)
    # subgroup = all units: only the trivial character survives
    units = [x for x in R42.elements() if x.is_unit]
    gens = [R42.xi, R42.one + R42.one * 2, R42.one + R42.xi * 2]
    chars = ring_quotient_characters(cs, gens, len(units))
    assert chars == [(0, R42.zero)]
    # wrong subgroup size is rejected
    with pytest.raises(InvalidSubgroupError):
        ring_quotient_characters(cs, gens, 6)


def _quotient_characters_oracle(system, generators, subgroup_size):
    """The scan over every character, with the scalar exponent, that the split replaced."""
    chars = [
        chi
        for chi in system.all_mult_chars()
        if all(system.mult_exponent(chi, g) == 0 for g in generators)
    ]
    ambient = system.ring.q * (system.ring.q - 1)
    if len(chars) * subgroup_size != ambient:
        raise InvalidSubgroupError(
            f"quotient character count {len(chars)} x subgroup size {subgroup_size} "
            f"!= unit group order {ambient}; generators do not span the subgroup"
        )
    return chars


def _same_as_oracle(system, generators, subgroup_size):
    """Both routes return the same list in the same order, or raise the same error."""
    outcomes = []
    for route in (_quotient_characters_oracle, ring_quotient_characters):
        try:
            outcomes.append([(i, b.coeffs) for i, b in route(system, generators, subgroup_size)])
        except (InvalidSubgroupError, NotAUnitError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], (system.ring, generators, subgroup_size)
    return outcomes[1]


def _subgroup_size(ring, generators) -> int:
    """Order of the subgroup the generators span, by closure under ring products."""
    seen = {ring.one.coeffs}
    frontier = [ring.one]
    while frontier:
        products = [x * g for x in frontier for g in generators]
        frontier = []
        for y in products:
            if y.coeffs not in seen:
                seen.add(y.coeffs)
                frontier.append(y)
    return len(seen)


@pytest.mark.parametrize("p, r", list(itertools.product((2, 3, 5), (1, 2, 3))))
def test_quotient_characters_match_the_scan_on_seeded_generators(p, r):
    ring = GaloisRing(p, r)
    system = CharacterSystem(ring)
    rng = random.Random(f"quotient-characters:{p}:{r}")
    units = [x for x in ring.elements() if x.is_unit]
    order = len(units)
    exponents = [d for d in range(1, order + 1) if order % d == 0]
    for _ in range(4):
        gens = [rng.choice(units) ** rng.choice(exponents) for _ in range(rng.randint(0, 3))]
        size = _subgroup_size(ring, gens)
        assert len(_same_as_oracle(system, gens, size)) * size == order


def test_quotient_characters_refuse_like_the_scan(R42):
    system = CharacterSystem(R42)
    gens = [R42.xi, R42.one + R42.xi * 2]
    size = _subgroup_size(R42, gens)
    for wrong in (1, size - 1, 2 * size):
        assert _same_as_oracle(system, gens, wrong)[0] is InvalidSubgroupError
    ideal = R42.xi * 2
    for gens in ([ideal], [R42.xi, ideal, R42.zero], [R42.zero, R42.xi]):
        bad = next(g for g in gens if not g.is_unit)
        assert _same_as_oracle(system, gens, size) == (NotAUnitError, f"{bad!r} is not a unit")


@pytest.mark.parametrize("p, r", [(2, 3), (3, 2), (5, 1)])
def test_mult_exponent_matches_unit_decompose(p, r):
    ring = GaloisRing(p, r)
    cs = CharacterSystem(ring)
    field, q = ring.residue_field, ring.q
    units = [x for x in ring.elements() if x.is_unit]
    logs = [(ring.teichmuller_log[t.coeffs], ring.reduce_mod_p(v))
            for t, v in map(ring.unit_decompose, units)]
    for chi in cs.all_mult_chars():
        i, b = chi
        b_bar = ring.reduce_mod_p(b)
        expected = [
            ((i * k % (q - 1)) * (cs.m // (q - 1))
             + field.trace_to_prime(field.mul(b_bar, v_bar)) * (cs.m // p)) % cs.m
            for k, v_bar in logs
        ]
        assert [cs.mult_exponent(chi, x) for x in units] == expected
        assert cs._mult_row(chi) == expected
    for x in ring.elements():
        if not x.is_unit:
            with pytest.raises(NotAUnitError, match="is not a unit"):
                cs.mult_exponent((1, ring.one), x)


@pytest.mark.parametrize("p, r", [(2, 2), (3, 1)])
def test_suite_21_full_records_each_pair_once(p, r):
    ring = GaloisRing(p, r)
    report = suite_gauss_equivalence(ring, full=True)
    q = ring.q
    assert len(report.records) == q * (q - 1) * q * q
    system = CharacterSystem(ring)
    expected = VerificationReport("2.1", {"p": p, "r": r, "modulus": list(ring.modulus)})
    for i, b in system.all_mult_chars():
        for beta in ring.elements():
            closed = system.gauss_sum_closed_form((i, b), beta)
            definition = system.gauss_sum_definition((i, b), beta)
            expected.add(
                f"pair-i{i}-b{format_element(b)}-beta{format_element(beta)}",
                "2.1-closed-vs-definition",
                repr(closed.canonical_reduce()),
                repr(definition.canonical_reduce()),
            )
    assert report.to_json() == expected.to_json()
    assert report.all_ok


_ROW_RINGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


@pytest.mark.parametrize("p, r", _ROW_RINGS)
def test_gauss_sum_rows_match_the_scalar_routes(p, r):
    ring = GaloisRing(p, r)
    system = CharacterSystem(ring)
    betas = list(ring.elements())
    for chi in system.all_mult_chars():
        closed, definition, sums = system.gauss_sum_rows(chi)
        assert len(closed) == len(definition) == len(sums) == len(betas)
        assert sums.dtype == np.int64 and sums.shape == (len(betas), system.m)
        for beta, row_closed, row_definition, row_sums in zip(betas, closed, definition, sums):
            scalar_closed = system.gauss_sum_closed_form(chi, beta)
            scalar_definition = system.gauss_sum_definition(chi, beta)
            assert row_closed == scalar_closed.canonical(), (chi, beta)
            assert row_definition == scalar_definition.canonical(), (chi, beta)
            assert tuple(row_sums.tolist()) == scalar_definition.coeffs, (chi, beta)


@pytest.mark.parametrize("p, r", _ROW_RINGS)
def test_trace_form_matches_the_scalar_trace(p, r):
    ring = GaloisRing(p, r)
    system = CharacterSystem(ring)
    block = system._additive_block()
    units = [x for x in ring.elements() if x.is_unit]
    assert block.shape == (ring.q * ring.q, len(units))
    scale = system.m // ring.p2
    for beta in ring.elements():
        expected = [ring.trace_to_prime(beta * x) * scale for x in units]
        assert block[beta.code].tolist() == expected, beta


def test_gauss_sum_rows_are_reduced_once(monkeypatch):
    import grcodes.cyclotomic as cyc

    calls = []
    reduce_rows = cyc.canonical_rows

    def counted(sums, m):
        calls.append(len(sums))
        return reduce_rows(sums, m)

    monkeypatch.setattr(cyc, "canonical_rows", counted)
    ring = GaloisRing(3, 2)
    system = CharacterSystem(ring)
    chi = (1, ring.xi)
    system.gauss_sum_closed_form(chi, ring.one)  # fills the per-ring caches
    calls.clear()
    canonical = CyclotomicInteger.canonical
    monkeypatch.setattr(
        CyclotomicInteger, "canonical", lambda self: calls.append("value") or canonical(self)
    )
    closed, definition, _ = system.gauss_sum_rows(chi)
    assert calls == [81, 81]  # one call per route, one row per beta, no value reduced
    assert closed == definition
    assert all(type(row) is tuple for row in closed + definition)
