"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All comparisons are exact (tolerance zero); runtimes are asserted against
the stated budgets.
"""
import contextlib
import io
import time

import pytest

from grcodes.characters import CharacterSystem, gauss_sum_field
from grcodes.cli import main as cli_main
from grcodes.codes import build_code
from grcodes.cyclotomic import CyclotomicInteger
from grcodes.gray import (
    first_order_rm_code,
    gray_image_analyze,
    gray_map,
    hom_weight,
    hom_weight_vec,
    theorem44_hom_weight,
    theorem45_table,
)
from grcodes.rings import FiniteField, GaloisRing, RingTower
from test_characters import _eval_additive, _eval_mult

CRITERION3_INSTANCES = [
    (2, 1, 2, 1, 2, 1),
    (2, 1, 2, 1, 1, None),
    (2, 1, 2, 3, 1, None),
    (3, 1, 2, 2, 1, None),
    (3, 1, 2, 4, 0, None),
]
CRITERION4_INSTANCES = [(2, 1, 1, 2), (3, 1, 1, 2)]


@pytest.fixture(scope="module")
def small_contexts():
    return {
        args: build_code(args[0], args[1], args[2], e=args[3], d=args[4], sprime=args[5])
        for args in CRITERION3_INSTANCES
    }


@pytest.fixture(scope="module")
def table_contexts():
    return {
        (p, r, sp, d): build_code(p, r, p * sp, e=1, d=d, sprime=sp)
        for p, r, sp, d in CRITERION4_INSTANCES
    }


def _report(num, elapsed, detail):
    print(f"ACCEPTANCE {num} PASS ({elapsed:.1f}s): {detail}")


def test_criterion_1_gauss_sum_equivalence():
    started = time.monotonic()
    pairs = 0
    for p, r in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ring = GaloisRing(p, r)
        system = CharacterSystem(ring)
        for chi in system.all_mult_chars():
            for beta in ring.elements():
                closed = system.gauss_sum_closed_form(chi, beta)
                definition = system.gauss_sum_definition(chi, beta)
                assert closed == definition, (p, r, chi, beta)
                pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30
    _report(1, elapsed, f"closed-form equals definitional Gauss sum on {pairs} pairs")


def test_criterion_2_gauss_sum_magnitude():
    started = time.monotonic()
    import math

    checked = 0
    for p, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        field = FiniteField(p, r)
        m = math.lcm(p, field.q - 1)
        for i in range(1, field.q - 1):
            g = gauss_sum_field(field, i, m)
            assert g.abs_square() == field.q, (p, r, i)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5
    _report(2, elapsed, f"|G(chi)|^2 = Q exactly for {checked} nontrivial characters")


def test_criterion_3_component_count_oracle(small_contexts):
    started = time.monotonic()
    checked = 0
    for args, ctx in small_contexts.items():
        for bcode in range(ctx.Q * ctx.Q):
            beta = ctx.big.from_code(bcode)
            counted = ctx.count_components(beta)
            for acode in range(ctx.q * ctx.q):
                a = ctx.small.from_code(acode)
                assert ctx.theorem31_N(beta, a) == counted[acode], (args, bcode, acode)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(3, elapsed, f"character-sum counts equal direct tallies on {checked} (beta, a) pairs")


def test_criterion_4_complete_weight_table(table_contexts):
    started = time.monotonic()
    for key, ctx in table_contexts.items():
        report = ctx.theorem33_table()
        assert report.all_match, (key, [r for r in report.rows if not r.match])
        q, Q, pd = ctx.q, ctx.Q, ctx.p**ctx.d
        assert report.extras["min_hamming_distance"][0] == Q * pd * (q - 1) // q
        assert report.extras["code_size"] == (Q * Q, Q * Q)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(4, elapsed, "all table cells, class counts, distance and size match enumeration")


def test_criterion_5_code_parameters():
    started = time.monotonic()
    ctx = build_code(3, 1, 3, e=2, d=2, sprime=1)
    params = ctx.theorem34_params()
    assert params == {
        "n": (117, 117),
        "d": (81, 81),
        "n_tilde": (39, 39),
        "d_tilde": (27, 27),
    }
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(5, elapsed, "closed-form (n, d, n~, d~) = (117, 81, 39, 27) confirmed exhaustively")


def test_criterion_6_homogeneous_weight_formula(small_contexts):
    started = time.monotonic()
    checked = 0
    for args, ctx in small_contexts.items():
        weights = ctx.hom_weight_per_beta()
        tilde = ctx.build_tilde_code()
        for code in range(ctx.Q * ctx.Q):
            beta = ctx.big.from_code(code)
            formula = theorem44_hom_weight(ctx, beta)
            assert formula == int(weights[code]), (args, code)
            assert formula % tilde.l == 0
            word = ctx.encode(beta)
            assert formula // tilde.l == hom_weight_vec(word[i] for i in tilde.rep_indices), (args, code)
            checked += 1
    elapsed = time.monotonic() - started
    _report(6, elapsed, f"weight formula and tilde scaling exact for {checked} codewords")


def test_criterion_7_homogeneous_weight_table(table_contexts):
    started = time.monotonic()
    for key, ctx in table_contexts.items():
        report = theorem45_table(ctx)
        assert report.all_match, (key, [r for r in report.rows if not r.match])
        for name, (predicted, observed) in report.class_counts.items():
            assert predicted == observed, (key, name)
    elapsed = time.monotonic() - started
    _report(7, elapsed, "both weight columns and all four class counts reproduced")


def test_criterion_8_gray_map(table_contexts):
    started = time.monotonic()
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        ring = GaloisRing(p, r)
        for x in ring.elements():
            for y in ring.elements():
                gx, gy = gray_map(x), gray_map(y)
                assert sum(1 for a, b in zip(gx, gy) if a != b) == hom_weight(x - y)
        assert {gray_map(x) for x in ring.elements()} == first_order_rm_code(ring)
    for key, ctx in table_contexts.items():
        q, Q, pd, e = ctx.q, ctx.Q, ctx.p**ctx.d, ctx.e
        plain = gray_image_analyze(ctx, "C", assert_two_distance=True)
        assert plain.min_distance == Q * (q - 1) * (pd - 1) // e
        assert plain.size == Q * Q
        tilde = gray_image_analyze(ctx, "Ctilde", assert_two_distance=True)
        assert tilde.min_distance == Q * (pd - 1) // q
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(8, elapsed, "isometry, RM image, two-distance property and distances verified")


def test_criterion_9_structural_properties():
    started = time.monotonic()
    for p, r, s in [(2, 1, 2), (3, 1, 2), (2, 2, 1)]:
        big = GaloisRing(p, r * s)
        tower = RingTower(big, r)
        q = big.q
        # Teichmuller bijection T x T -> R
        T = big.teichmuller_set()
        assert len({(t1 + t2 * p).coeffs for t1 in T for t2 in T}) == q * q
        # trace surjectivity and transitivity
        images = {tower.trace(a).coeffs for a in big.elements()}
        assert len(images) == tower.small.q ** 2
        for a in big.elements():
            assert tower.small.trace_to_prime(tower.trace(a)) == big.trace_to_prime(a)
        # reduction diagram commutes elementwise
        for a in big.elements():
            lhs = tower.small.reduce_mod_p(tower.trace(a))
            assert lhs == tower.field_trace(big.reduce_mod_p(a))
        # character orthogonality, both kinds
        system = CharacterSystem(big)
        for beta in big.elements():
            total = sum(
                (_eval_additive(system, beta, x) for x in big.elements()),
                CyclotomicInteger.zero(system.m),
            )
            assert total == (q * q if beta.is_zero() else 0)
        for chi in system.all_mult_chars():
            total = sum(
                (_eval_mult(system, chi, x) for x in big.units()),
                CyclotomicInteger.zero(system.m),
            )
            assert total == (q * (q - 1) if system.mult_char_is_trivial(chi) else 0)
    elapsed = time.monotonic() - started
    _report(9, elapsed, "bijection, trace tower, reduction diagram and orthogonality exhaustive")


def test_criterion_10_determinism(tmp_path):
    started = time.monotonic()
    commands = [
        ["code", "verify", "--theorem", "3.1", "--p", "2", "--r", "1", "--s", "2",
         "--e", "1", "--vbar", "full", "--format", "json"],
        ["code", "verify", "--theorem", "2.1", "--p", "3", "--r", "1", "--format", "csv"],
        ["code", "verify", "--theorem", "4.4", "--p", "3", "--r", "1", "--s", "2",
         "--e", "2", "--d", "1", "--format", "json"],
    ]
    for base in commands:
        outputs = []
        for threads in ("1", "1", "4"):
            path = tmp_path / f"out-{len(outputs)}.txt"
            argv = base + ["--threads", threads, "--output", str(path)]
            with contextlib.redirect_stderr(io.StringIO()):
                status = cli_main(argv)
            assert status == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], base
    elapsed = time.monotonic() - started
    _report(10, elapsed, "verify reports byte-identical across repeats and thread counts")
