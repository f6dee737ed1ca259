import cmath
import doctest
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import grcodes
import grcodes.cyclotomic as cyc
from grcodes.cyclotomic import CyclotomicInteger, cyclotomic_polynomial, exact_int
from grcodes.errors import NotRationalError, OrderMismatchError


def test_doctests():
    failures, _ = doctest.testmod(cyc)
    assert failures == 0


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 200):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected), m


def test_basic_identities():
    z4 = CyclotomicInteger.zeta(4)
    assert z4 * z4 == -1
    cube_roots = sum(CyclotomicInteger.zeta(3, k) for k in range(3))
    assert cube_roots.is_zero()
    z8 = CyclotomicInteger.zeta(8)
    assert z8.conjugate() * z8 == 1


def test_canonical_reduction():
    assert CyclotomicInteger.zeta(2).as_rational_integer() == -1
    z6 = CyclotomicInteger.zeta(6)
    # canonical form satisfies z^2 = z - 1 forced by the order-6 minimal polynomial
    assert z6 * z6 == z6 - 1
    assert CyclotomicInteger.zero(5).canonical() == (0, 0, 0, 0)
    reduced = (z6 * z6 * z6).canonical_reduce()
    assert reduced.canonical_reduce().coeffs == reduced.coeffs  # idempotent


def test_each_value_is_reduced_once(monkeypatch):
    rows = []
    reduce_rows = cyc.canonical_rows

    def counted(sums, m):
        rows.append(m)
        return reduce_rows(sums, m)

    monkeypatch.setattr(cyc, "canonical_rows", counted)
    x = CyclotomicInteger.zeta(12, 5) + CyclotomicInteger.zeta(12, 7)
    y = CyclotomicInteger.zeta(12, 5) - CyclotomicInteger.zeta(12, 1)  # zeta^7 = -zeta
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y) == "Cyc[12](-2*z^1 + z^3)"
    assert not x.is_zero() and x.canonical_reduce() == x and x != 0
    assert len(rows) == 2 + 1 + 1  # x and y once each, then the reduced copy and the 0


def test_reduced_rows_reduce_a_block_once(monkeypatch):
    rng = random.Random("values-from-rows")
    for m, bound in ((12, 5), (36, 2**40), (30, 2**61)):  # the last needs Python ints
        rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(7)]
        expected = [CyclotomicInteger(m, row).canonical() for row in rows]
        calls = []
        reduce_rows = cyc.canonical_rows
        monkeypatch.setattr(
            cyc, "canonical_rows", lambda sums, m: calls.append(m) or reduce_rows(sums, m)
        )
        assert cyc.reduced_rows(np.array(rows, dtype=np.int64), m) == expected
        assert calls == [m]
        monkeypatch.undo()
    assert cyc.reduced_rows(np.zeros((0, 6), dtype=np.int64), 6) == []


@pytest.mark.parametrize("m", [4, 12, 18, 28, 72, 294])
def test_repr_is_the_shared_formatter(m):
    rng = random.Random(f"formatter-{m}")
    rows = [[0] * m, [1] * m]  # zero, and the sum of all m-th roots of unity
    rows += [[rng.choice([0, 0, 0, 1, -1, 2, -7]) for _ in range(m)] for _ in range(20)]
    canonical = cyc.reduced_rows(np.array(rows, dtype=np.int64), m)
    for row, can in zip(rows, canonical):
        value = CyclotomicInteger(m, row)
        assert can == value.canonical()
        assert repr(value) == cyc.canonical_text(m, can)
    zero = f"Cyc[{m}](0)"
    assert cyc.canonical_text(m, canonical[0]) == cyc.canonical_text(m, canonical[1]) == zero


def test_approx_gives_the_floats_of_a_fresh_exp_per_term():
    rng = random.Random(7)
    for m in (1, 2, 6, 7, 12, 49, 60):
        for _ in range(5):
            coeffs = [rng.choice([0, 0, 1, -1, 3]) for _ in range(m)]
            fresh = sum(c * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(coeffs) if c)
            assert CyclotomicInteger(m, coeffs).approx() == fresh  # bit for bit


def test_as_rational_integer():
    assert sum(CyclotomicInteger.zeta(3, k) for k in range(3)).as_rational_integer() == 0
    assert CyclotomicInteger.zeta(4, 2).as_rational_integer() == -1
    with pytest.raises(NotRationalError):
        CyclotomicInteger.zeta(8).as_rational_integer()
    assert CyclotomicInteger.from_int(12, 7).as_rational_integer() == 7


def test_abs_square():
    for m, k in [(5, 1), (12, 7), (9, 4)]:
        assert CyclotomicInteger.zeta(m, k).abs_square() == 1
    assert CyclotomicInteger.zero(6).abs_square() == 0


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        CyclotomicInteger.zeta(4) + CyclotomicInteger.zeta(8)
    with pytest.raises(OrderMismatchError, match="root orders differ: 4 vs 8; coerce explicitly"):
        CyclotomicInteger.zeta(4) == CyclotomicInteger.zeta(8)
    assert (CyclotomicInteger.zeta(4) == "z") is False
    with pytest.raises(OrderMismatchError):
        CyclotomicInteger.zeta(4).coerce(6)


def test_ring_axioms_randomized():
    rng = random.Random(20260810)
    for m in (12, 72):
        def rand():
            return CyclotomicInteger(m, [rng.randint(-3, 3) for _ in range(m)])
        for _ in range(25):
            a, b, c = rand(), rand(), rand()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == 0
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_coercion_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(20):
        a = CyclotomicInteger(6, [rng.randint(-2, 2) for _ in range(6)])
        b = CyclotomicInteger(6, [rng.randint(-2, 2) for _ in range(6)])
        assert a.coerce(12) * b.coerce(12) == (a * b).coerce(12)
        assert a.coerce(12) + b.coerce(12) == (a + b).coerce(12)
    # injectivity on a small exhaustive family
    seen = {}
    for k in range(6):
        image = CyclotomicInteger.zeta(6, k).coerce(12).canonical()
        assert image not in seen.values()
        seen[k] = image


def test_integer_embedding_roundtrip():
    for value in (-5, 0, 1, 42):
        assert CyclotomicInteger.from_int(20, value).as_rational_integer() == value


def test_exact_int():
    assert exact_int(Fraction(6, 3), "six thirds") == 2
    with pytest.raises(NotRationalError, match="one half is not integral: 1/2"):
        exact_int(Fraction(1, 2), "one half")


def test_exact_int_raises_under_optimize():
    # python -O strips assert statements; the integrality check must survive it
    script = (
        "from fractions import Fraction\n"
        "from grcodes.cyclotomic import exact_int\n"
        "from grcodes.errors import NotRationalError\n"
        "assert False, 'assert statements are live'\n"
        "try:\n"
        "    exact_int(Fraction(1, 2), 'one half')\n"
        "except NotRationalError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    src = str(Path(grcodes.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
