import itertools
import math
import random

import numpy as np
import pytest

from grcodes import rings
from grcodes.errors import (
    IncompatibleTowerError,
    InvalidTowerError,
    NonPrimitiveInputError,
    NotAUnitError,
    ScaleGuardError,
)
from grcodes.rings import (
    FiniteField,
    GaloisRing,
    RingTower,
    _order_of_x,
    find_primitive_poly,
    format_element,
    hensel_lift_basic_primitive,
    parse_element,
    parse_field_element,
)


# -- primitive polynomials ----------------------------------------------------

def test_find_primitive_poly_smallest():
    assert find_primitive_poly(2, 1) == (1, 1)
    assert find_primitive_poly(2, 2) == (1, 1, 1)
    assert find_primitive_poly(3, 2) == (2, 1, 1)


def test_find_primitive_poly_exhaustive_check():
    # brute-force oracle: x^2+x+1 is the only monic quadratic over F_2 whose
    # root has order 3; over F_3 the first one in coefficient order is x^2+x+2
    survivors = [
        (c0, c1, 1)
        for c0, c1 in itertools.product(range(2), repeat=2)
        if _order_of_x([c0, c1, 1], 2, 3) == 3
    ]
    assert survivors == [(1, 1, 1)]
    first = next(
        (c0, c1, 1)
        for c0, c1 in itertools.product(range(3), repeat=2)
        if _order_of_x([c0, c1, 1], 3, 8) == 8
    )
    assert first == (2, 1, 1)


# -- Hensel lift ---------------------------------------------------------------

def test_hensel_degree_one():
    assert hensel_lift_basic_primitive((1, 1), 2) == (3, 1)


def test_hensel_f2_quadratic():
    h = hensel_lift_basic_primitive((1, 1, 1), 2)
    assert h == (1, 1, 1)
    ring = GaloisRing(2, 2, h)
    assert ring.xi**3 == ring.one and ring.xi != ring.one


def test_hensel_f3_quadratic_brute_force():
    h = hensel_lift_basic_primitive((2, 1, 1), 3)
    # oracle: among all 81 monic lifts of x^2+x+2 mod 9, exactly one gives
    # ord(x) = 8, and the lift must be it
    matches = [
        (c0, c1, 1)
        for c0 in range(2, 9, 3)
        for c1 in range(1, 9, 3)
        if _order_of_x([c0, c1, 1], 9, 8) == 8
    ]
    assert matches == [h]


def test_hensel_rejects_non_primitive():
    with pytest.raises(NonPrimitiveInputError):
        hensel_lift_basic_primitive((1, 0, 1), 2)  # x^2+1 = (x+1)^2 over F_2


@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2)]
                         + [(p, 1) for p in range(13, 126) if rings.is_prime(p)])
def test_hensel_lift_is_the_only_lift_of_full_order(p, max_degree):
    # oracle: of the q lifts g + p*u (deg u < n), exactly one has ord(x) = q - 1 mod p^2
    for n in range(1, max_degree + 1):
        q = p**n
        for tail in itertools.product(range(p), repeat=n):
            g = tail + (1,)
            if not rings.is_primitive_poly(g, p):
                continue
            lifts = [tuple(c + p * d for c, d in zip(g, u + (0,)))
                     for u in itertools.product(range(p), repeat=n)]
            full_order = [h for h in lifts if _order_of_x(list(h), p * p, q - 1) == q - 1]
            assert full_order == [hensel_lift_basic_primitive(g, p)], (p, g)


# -- finite fields ---------------------------------------------------------------

def test_field_tables():
    F4 = FiniteField(2, 2)
    assert sorted(F4.log) == [1, 2, 3]
    assert F4.trace_to_prime(F4.exp[1]) == 1  # tr(x) = x + x^2 = 1 for the generator
    assert [F4.trace_to_prime(x) for x in range(4)] == [0, 0, 1, 1]
    F9 = FiniteField(3, 2)
    assert all(F9.mul(x, F9.inv(x)) == 1 for x in F9.units())


@pytest.mark.parametrize("p, r", list(itertools.product((2, 3, 5), (1, 2, 4))))
def test_xi_powers_match_powers_of_x(p, r):
    ring = GaloisRing(p, r)
    field = ring.residue_field
    for k in range(ring.q - 1):
        power = rings._ppow_x(k, list(ring.modulus), ring.p2)
        assert ring.xi_powers[k].coeffs == tuple(power + [0] * (r - len(power))), k
        assert field.exp[k] == field.from_coeffs(rings._ppow_x(k, list(field.modulus), p)), k
    # xi^(q-1) = 1; at r = 1, x mod the modulus is a constant
    assert ring.xi_powers[1 % (ring.q - 1)] == ring.xi


@pytest.mark.parametrize("p, r", list(itertools.product((2, 3, 5), (1, 2, 3))))
def test_trace_row_matches_the_scalar_trace(p, r):
    field = FiniteField(p, r)
    for b in field.elements():
        expected = [field.trace_to_prime(field.mul(b, v)) for v in field.elements()]
        assert field.trace_row(b).tolist() == expected, b


def test_field_trace_additivity():
    F8 = FiniteField(2, 3)
    for x in F8.elements():
        for y in F8.elements():
            lhs = F8.trace_to_prime(F8.add(x, y))
            rhs = (F8.trace_to_prime(x) + F8.trace_to_prime(y)) % 2
            assert lhs == rhs


# -- ring arithmetic ---------------------------------------------------------------

@pytest.fixture(scope="module")
def Z4():
    return GaloisRing(2, 1)


@pytest.fixture(scope="module")
def R42():
    return GaloisRing(2, 2)


def test_ring_ops(Z4, R42):
    three = Z4.element([3])
    assert three * three == Z4.one
    assert R42.xi * R42.xi**2 == R42.one
    with pytest.raises(NotAUnitError):
        Z4.inverse(Z4.element([2]))


def test_inverse_everywhere(R42):
    for a in R42.units():
        assert a * R42.inverse(a) == R42.one


def test_teichmuller_decompose(Z4, R42):
    assert Z4.teichmuller_decompose(Z4.element([3])) == (Z4.one, Z4.one)
    assert Z4.teichmuller_decompose(Z4.element([2])) == (Z4.zero, Z4.one)
    a = R42.element([1, 2])  # 1 + 2*xi
    a1, a2 = R42.teichmuller_decompose(a)
    assert (a1, a2) == (R42.one, R42.xi)
    assert a**4 == a1  # the alpha^q route for units


def test_teichmuller_bijection(R42):
    seen = set()
    T = R42.teichmuller_set()
    for a1 in T:
        for a2 in T:
            seen.add((a1 + a2 * 2).coeffs)
    assert len(seen) == 16


def test_unit_decompose(Z4, R42):
    assert Z4.unit_decompose(Z4.element([3])) == (Z4.one, Z4.one)
    t, v = R42.unit_decompose(R42.xi * 3)
    assert (t, v) == (R42.xi, R42.one)
    assert t * (R42.one + v * 2) == R42.xi * 3
    with pytest.raises(NotAUnitError):
        Z4.unit_decompose(Z4.element([2]))


def test_frobenius(Z4, R42):
    assert Z4.frobenius(Z4.element([3]), 2) == Z4.element([3])
    assert R42.frobenius(R42.xi, 2) == R42.xi**2
    for a in R42.elements():
        assert R42.frobenius(R42.frobenius(a, 2), 2) == a


def test_frobenius_is_ring_hom(R42):
    for a in R42.elements():
        for b in list(R42.elements())[:8]:
            assert R42.frobenius(a * b, 2) == R42.frobenius(a, 2) * R42.frobenius(b, 2)
            assert R42.frobenius(a + b, 2) == R42.frobenius(a, 2) + R42.frobenius(b, 2)


def test_trace(R42):
    assert R42.trace_to_prime(R42.xi) == 3
    assert R42.trace_to_prime(R42.one) == 2
    F4 = R42.residue_field
    assert F4.trace_to_prime(R42.reduce_mod_p(R42.xi)) == 1


def test_counts(R42):
    q = R42.q
    elements = list(R42.elements())
    units = [a for a in elements if a.is_unit]
    ideal = [a for a in elements if not a.is_unit]
    assert len(elements) == q * q and len(units) == q * (q - 1) and len(ideal) == q


def test_reduce_mod_p(Z4, R42):
    assert Z4.reduce_mod_p(Z4.element([3])) == 1
    assert R42.reduce_mod_p(R42.xi * 2) == 0


# -- log coordinates ------------------------------------------------------------

@pytest.mark.parametrize("p, r", [(2, 4), (3, 2), (5, 2)])
def test_log_table_matches_unit_decompose(p, r):
    ring = GaloisRing(p, r)
    k, v = ring.log_table()
    assert ring.log_table()[0] is k  # built once
    for x in ring.elements():
        if x.is_unit:
            t, w = ring.unit_decompose(x)
            expected = (ring.teichmuller_log[t.coeffs], ring.reduce_mod_p(w))
            assert (k[x.code], v[x.code]) == expected
            assert ring.unit_log(x) == expected
            continue
        with pytest.raises(NotAUnitError):
            ring.unit_decompose(x)
        with pytest.raises(NotAUnitError):
            ring.unit_log(x)
        assert v[x.code] == -1
        if x.is_zero():
            assert k[x.code] == -1
        else:  # x = p * xi^k
            assert ring.xi_powers[k[x.code]] * p == x


@pytest.mark.parametrize("p, r", [(2, 2), (3, 1), (2, 3)])
def test_mul_matrix_matches_scalar_products(p, r):
    ring = GaloisRing(p, r)
    elements = list(ring.elements())
    for u in elements:  # units, p * xi^k and 0 alike
        matrix = ring.mul_matrix(u)
        assert matrix.shape == (r, r)
        for x in elements:
            row = [sum(c * m for c, m in zip(x.coeffs, col)) % ring.p2 for col in zip(*matrix)]
            assert tuple(row) == (x * u).coeffs, (x, u)


def test_mul_matrix_refuses_an_element_of_another_ring():
    with pytest.raises(ValueError, match="different rings"):
        GaloisRing(2, 2).mul_matrix(GaloisRing(2, 2).one)


@pytest.mark.parametrize("mod", [4, 9, 25, 169])  # 169: uint16, and sums past 255 wrap
@pytest.mark.parametrize("k, shape", [(0, ()), (2, ()), (2, (3,)), (2, (3, 2)), (0, (3, 2))])
def test_linear_span_matches_the_sum_of_digit_multiples(mod, k, shape):
    rng = np.random.default_rng(mod * 10 + k)
    images = rng.integers(0, mod, size=(k,) + shape)
    images.flat[:1] = mod - 1  # the largest residue, so the sums reach 2 * mod - 2
    start = rng.integers(0, mod, size=shape)
    digits = np.arange(mod**k)[:, None] // mod ** np.arange(k) % mod  # (mod^k, k)
    expected = (digits @ images.reshape(k, math.prod(shape))).reshape((mod**k,) + shape) % mod
    for offset, result in ((0, rings.linear_span(images, mod)),
                           (start, rings.linear_span(images, mod, start))):
        assert result.dtype == np.min_scalar_type(2 * mod - 1)
        assert np.array_equal(result, (expected + offset) % mod), (mod, k, shape)


@pytest.mark.parametrize("p, r", [(2, 2), (3, 1), (2, 3)])
def test_element_code_is_kept_and_matches_the_coefficients(p, r):
    # .code is computed on the first read and kept; elements are immutable
    ring = GaloisRing(p, r)

    def encoded(x):
        return sum(c * ring.p2**j for j, c in enumerate(x.coeffs))

    for x in ring.elements():
        before = x.code
        assert before == x.code == encoded(x)
        for y in (x * ring.xi + ring.one, x - ring.xi, -x, 3 * x):
            assert y.code == encoded(y) and ring.from_code(y.code) == y
        assert x.code == before == encoded(x) and ring.from_code(x.code) == x


@pytest.mark.parametrize("p, r", [(2, 3), (3, 2), (5, 1)])
def test_codes_of_matches_the_element_codes(p, r):
    ring = GaloisRing(p, r)
    elements = list(ring.elements())
    rows = np.array([x.coeffs for x in elements])
    expected = [x.code for x in elements]
    assert ring.codes_of(rows).tolist() == expected
    narrow = ring.codes_of(rows.astype(np.uint8), np.min_scalar_type(ring.q**2 - 1))
    assert narrow.dtype == np.uint8 and narrow.tolist() == expected
    assert ring.codes_of(rows.reshape(ring.q, ring.q, r)).tolist() == np.reshape(
        expected, (ring.q, ring.q)).tolist()


def test_log_table_rejects_a_bad_xi_table():
    ring = GaloisRing(2, 3)
    ring.xi_powers = ring.xi_powers[:1] * len(ring.xi_powers)  # every power set to 1
    with pytest.raises(NonPrimitiveInputError, match="hit every ring element once"):
        ring.log_table()


# -- towers ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def tower42():
    return RingTower(GaloisRing(2, 2), 1)


def test_embed_examples(tower42):
    assert tower42.embed(tower42.small.one) == tower42.big.one
    # q - 1 = 1 forces the subring Teichmuller generator to embed as 1
    assert tower42.embed(tower42.small.xi) == tower42.big.one


def test_embed_gr9():
    tower = RingTower(GaloisRing(3, 2), 1)
    gen = tower.small.xi  # order-2 Teichmuller generator of GR(9,1)
    image = tower.embed(gen)
    assert image == tower.big.xi_powers[4]
    assert image * image == tower.big.one and image != tower.big.one
    assert tower.big.reduce_mod_p(image) == tower.embed_field(tower.small.reduce_mod_p(gen))


def test_embed_is_ring_monomorphism(tower42):
    small, big = tower42.small, tower42.big
    images = set()
    for a in small.elements():
        for b in small.elements():
            assert tower42.embed(a * b) == tower42.embed(a) * tower42.embed(b)
            assert tower42.embed(a + b) == tower42.embed(a) + tower42.embed(b)
        images.add(tower42.embed(a).coeffs)
    assert len(images) == small.q * small.q


def test_trace_examples(tower42):
    big = tower42.big
    assert tower42.trace(big.xi) == tower42.small.element([3])
    assert tower42.trace(big.one) == tower42.small.element([2])


def test_trace_surjective_and_transitive():
    tower = RingTower(GaloisRing(3, 2), 1)
    big, small = tower.big, tower.small
    hit = {tower.trace(a).coeffs for a in big.elements()}
    assert len(hit) == small.q * small.q
    for a in big.elements():
        via_small = small.trace_to_prime(tower.trace(a))
        assert via_small == big.trace_to_prime(a)


def test_frobenius_fixes_exactly_the_subring(tower42):
    big = tower42.big
    fixed = {a.coeffs for a in big.elements() if tower42.fixed_by_frobenius(a)}
    embedded = {tower42.embed(a).coeffs for a in tower42.small.elements()}
    assert fixed == embedded


def test_diagram_commutes(tower42):
    big = tower42.big
    for a in big.elements():
        lhs = tower42.small.reduce_mod_p(tower42.trace(a))
        rhs = tower42.field_trace(big.reduce_mod_p(a))
        assert lhs == rhs


@pytest.mark.parametrize(
    "p, big_degree, small_degree", [(2, 4, 2), (3, 2, 1), (5, 2, 1), (5, 4, 2)]
)
def test_project_inverts_embed(p, big_degree, small_degree):
    tower = RingTower(GaloisRing(p, big_degree), small_degree)
    for a in tower.small.elements():
        assert tower.project(tower.embed(a)) == a
    outside = tower.big.xi
    assert not tower.fixed_by_frobenius(outside)
    with pytest.raises(InvalidTowerError):
        tower.project(outside)


def _orbit_product(big, small_degree):
    """prod_i (X - u^(p^i)) over the Frobenius orbit of u = xi^((Q-1)/(q-1)), in big."""
    u = big.xi ** ((big.q - 1) // (big.p**small_degree - 1))
    poly = [big.one]
    for i in range(small_degree):
        root = u ** (big.p**i)
        poly = [a - root * b for a, b in zip([big.zero] + poly, poly + [big.zero])]
    assert all(not any(c.coeffs[1:]) for c in poly)  # the coefficients lie in Z_{p^2}
    return tuple(c.coeffs[0] for c in poly)


@pytest.mark.parametrize(
    "p, big_degree, small_degree",
    [(2, 6, 3), (2, 6, 2), (2, 8, 4), (3, 4, 2), (5, 4, 2), (7, 2, 1)],
)
def test_subring_modulus_is_the_orbit_product(p, big_degree, small_degree):
    big = GaloisRing(p, big_degree)
    assert RingTower(big, small_degree).small.modulus == _orbit_product(big, small_degree)


def _subring_powers(p, big_degree, small_degree):
    big = GaloisRing(p, big_degree)
    ratio = (big.q - 1) // (p**small_degree - 1)
    return [list(big.xi_powers[ratio * k].coeffs) for k in range(small_degree + 1)], big


def test_monic_relation_needs_the_last_power_in_the_span():
    powers, big = _subring_powers(2, 4, 2)
    relation = rings._monic_relation(powers, big.p2, big.p, IncompatibleTowerError)
    assert relation == RingTower(big, 2).small.modulus
    # 1 lies in the subring, so a shift by p there moves f_0 by p; no other
    # basis monomial does, so a shift there leaves the span
    powers[2][0] += big.p
    shifted = rings._monic_relation(powers, big.p2, big.p, IncompatibleTowerError)
    assert shifted == ((relation[0] - big.p) % big.p2,) + relation[1:]
    for i in range(1, big.r):
        powers, _ = _subring_powers(2, 4, 2)
        powers[2][i] += big.p
        with pytest.raises(IncompatibleTowerError, match="no unique monic relation"):
            rings._monic_relation(powers, big.p2, big.p, IncompatibleTowerError)


def test_monic_relation_needs_independent_lower_powers():
    powers, big = _subring_powers(3, 4, 2)
    powers[1] = [a + big.p * b for a, b in zip(powers[0], powers[1])]  # y^1 = y^0 mod p
    with pytest.raises(NonPrimitiveInputError, match="no unique monic relation"):
        rings._monic_relation(powers, big.p2, big.p, NonPrimitiveInputError)


# -- Frobenius and traces as matrices ---------------------------------------------

def _apply(matrix, a) -> tuple[int, ...]:
    """matrix @ a.coeffs mod p^2, written out independently of the library."""
    p2 = a.ring.p2
    return tuple(sum(row[j] * c for j, c in enumerate(a.coeffs)) % p2 for row in matrix)


def _check_matrices_at(tower, a):
    """Every stored matrix against the scalar orbit-sum route, at one element a."""
    big, small = tower.big, tower.small
    assert _apply(big.frobenius_matrix, a) == big.frobenius(a, big.p).coeffs
    absolute = big.orbit_sum(a, big.p, big.r).coeffs
    assert not any(absolute[1:]) and big.trace_to_prime(a) == absolute[0]
    assert tower.trace(a) == tower.project(big.orbit_sum(a, small.q, tower.s))
    assert tower.fixed_by_frobenius(a) == (big.frobenius(a, small.q) == a)


@pytest.mark.parametrize("p, big_degree, small_degree", [(2, 4, 2), (3, 2, 1)])
def test_matrices_match_orbit_sums_everywhere(p, big_degree, small_degree):
    tower = RingTower(GaloisRing(p, big_degree), small_degree)
    for a in tower.big.elements():
        _check_matrices_at(tower, a)
    small = tower.small
    for a in small.elements():
        absolute = small.orbit_sum(a, p, small.r).coeffs
        assert small.trace_to_prime(a) == absolute[0] and not any(absolute[1:])
        assert _apply(small.frobenius_matrix, a) == small.frobenius(a, p).coeffs


def test_matrices_match_orbit_sums_on_gr25_4():
    tower = RingTower(GaloisRing(5, 4), 2)
    big = tower.big
    for a in big.xi_powers:
        _check_matrices_at(tower, a)
    rng = random.Random("matrix-oracle")
    for code in rng.sample(range(big.q * big.q), 2000):
        _check_matrices_at(tower, big.from_code(code))


def _corrupt_call(monkeypatch, name: str, nth: int, row: int = 0, col: int = 0):
    """Make the nth call of a rings matrix builder return one entry off by one."""
    original = getattr(rings, name)
    calls = []

    def corrupted(*args):
        matrix = [list(r) for r in original(*args)]
        calls.append(args)
        if len(calls) == nth:
            matrix[row][col] += 1
        return tuple(map(tuple, matrix))

    monkeypatch.setattr(rings, name, corrupted)
    return calls


@pytest.mark.parametrize("name", ["_power_map", "_orbit_matrix"])
def test_corrupted_ring_matrix_is_refused(monkeypatch, name):
    calls = _corrupt_call(monkeypatch, name, 1, col=1)
    with pytest.raises(InvalidTowerError, match="disagrees with the scalar .* at xi\\^1$"):
        GaloisRing(2, 2)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["_power_map", "_orbit_matrix"])
def test_corrupted_tower_matrix_is_refused(monkeypatch, name):
    big = GaloisRing(2, 4)
    # call 1 builds the subring's own matrix, call 2 the tower's
    calls = _corrupt_call(monkeypatch, name, 2, col=3)
    with pytest.raises(InvalidTowerError, match="disagrees with the scalar .* at xi\\^3$"):
        RingTower(big, 2)
    assert len(calls) == 2


def test_trace_outside_the_prime_ring_is_refused(monkeypatch):
    # shift the scalar orbit sum and its matrix alike, by 2*xi: they agree,
    # but every basis trace now has a nonzero xi coefficient
    scalar = GaloisRing.orbit_sum
    monkeypatch.setattr(GaloisRing, "orbit_sum",
                        lambda ring, a, q0, steps: scalar(ring, a, q0, steps) + ring.xi * 2)
    original = rings._orbit_matrix

    def shifted(sigma, steps, mod):
        matrix = [list(r) for r in original(sigma, steps, mod)]
        matrix[1] = [(x + 2) % mod for x in matrix[1]]
        return tuple(map(tuple, matrix))

    monkeypatch.setattr(rings, "_orbit_matrix", shifted)
    with pytest.raises(InvalidTowerError, match="trace left the prime ring"):
        GaloisRing(2, 2)


def test_incompatible_tower():
    with pytest.raises(IncompatibleTowerError):
        RingTower(GaloisRing(3, 3), 2)


def test_scale_guard():
    with pytest.raises(ScaleGuardError):
        GaloisRing(2, 13)
    GaloisRing(2, 3, allow_large=True)  # override accepted


def test_bad_modulus_rejected():
    with pytest.raises(NonPrimitiveInputError) as err:
        GaloisRing(2, 2, (3, 1, 1))
    assert "order 6" in str(err.value)


def test_element_literals(Z4, R42):
    assert parse_element(R42, "3,2").coeffs == (3, 2)
    assert format_element(parse_element(R42, "7,2")) == "3,2"
    with pytest.raises(ValueError):
        parse_element(Z4, "x")
    F27 = FiniteField(3, 3)
    assert parse_field_element(3, 3, "4,-1") == F27.from_coeffs([1, 2]) == 1 + 2 * 3
    assert parse_field_element(3, 3, "0,0,1") == 9 and parse_field_element(3, 3, "2") == 2
    with pytest.raises(ValueError, match="too many coefficients for degree 3"):
        parse_field_element(3, 3, "1,0,0,1")
