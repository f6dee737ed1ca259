import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import grcodes
from grcodes import gray as gray_module
from grcodes.codes import build_code
from grcodes.errors import (
    IncompatibleTowerError,
    InvalidSubgroupError,
    PreconditionViolatedError,
)
from grcodes.gray import (
    first_order_rm_code,
    gray_image_analyze,
    gray_map,
    gray_map_vec,
    hom_weight,
    hom_weight_vec,
    theorem44_hom_weight,
    theorem45_table,
)
from grcodes.rings import GaloisRing
from test_codes import _ORACLE_CODES, _oracle_code


@pytest.fixture(scope="module")
def Z4():
    return GaloisRing(2, 1)


@pytest.fixture(scope="module")
def Z9():
    return GaloisRing(3, 1)


def test_hom_weight_values(Z4, Z9):
    assert [hom_weight(Z4.from_code(c)) for c in range(4)] == [0, 1, 2, 1]
    assert hom_weight(Z9.element([3])) == 3
    assert hom_weight(Z9.element([2])) == 2
    assert hom_weight(Z9.zero) == 0


def test_hom_weight_vec(Z4):
    word = [Z4.element([2]), Z4.one, Z4.zero]
    assert hom_weight_vec(word) == 3


def test_gray_map_z4(Z4):
    assert gray_map(Z4.zero) == (0, 0)
    assert gray_map(Z4.one) == (0, 1)
    assert gray_map(Z4.element([2])) == (1, 1)
    assert gray_map(Z4.element([3])) == (1, 0)
    assert gray_map_vec([Z4.one, Z4.element([2])]) == (0, 1, 1, 1)


def test_isometry_exhaustive():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        ring = GaloisRing(p, r)
        for x in ring.elements():
            for y in ring.elements():
                gx, gy = gray_map(x), gray_map(y)
                d_hamming = sum(1 for a, b in zip(gx, gy) if a != b)
                assert d_hamming == hom_weight(x - y)


def test_image_is_first_order_rm():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        ring = GaloisRing(p, r)
        assert {gray_map(x) for x in ring.elements()} == first_order_rm_code(ring)


def test_theorem44_examples():
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    big = ctx.big
    assert theorem44_hom_weight(ctx, big.zero) == 0
    for b in big.xi_powers:
        assert theorem44_hom_weight(ctx, b * 2) == 16
    weights = ctx.hom_weight_per_beta()
    for code in range(16):
        assert theorem44_hom_weight(ctx, big.from_code(code)) == int(weights[code])


def test_theorem44_tilde_scaling():
    ctx = build_code(3, 1, 2, e=2, d=1)
    tilde = ctx.build_tilde_code()
    for code in range(ctx.Q * ctx.Q):
        beta = ctx.big.from_code(code)
        w = theorem44_hom_weight(ctx, beta)
        assert w % tilde.l == 0
        assert w // tilde.l == hom_weight_vec(ctx.encode(beta)[i] for i in tilde.rep_indices)


def test_d_hom():
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    assert ctx.hamming_distribution().min_homogeneous == 12


def test_theorem45_table():
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    report = theorem45_table(ctx)
    assert report.all_match
    cells = {(r.beta_class, r.a_class): r.predicted for r in report.rows}
    assert cells[("unit_S", "w_hom")] == 12
    assert cells[("unit_S", "w_hom_tilde")] == 6
    assert cells[("pTstar", "w_hom")] == 16
    assert cells[("pTstar", "w_hom_tilde")] == 8


def test_theorem45_requires_hypotheses():
    ctx = build_code(2, 1, 2, e=3, d=1)  # e' = 3
    with pytest.raises(PreconditionViolatedError):
        theorem45_table(ctx)


def test_gray_image_reports():
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    plain = gray_image_analyze(ctx, "C")
    assert (plain.length, plain.size) == (24, 16)
    assert sorted(plain.distances) == [12, 16]
    assert plain.min_distance == 12 and plain.two_distance
    tilde = gray_image_analyze(ctx, "Ctilde")
    assert (tilde.length, tilde.size) == (12, 16)
    assert sorted(tilde.distances) == [6, 8]
    assert tilde.min_distance == 6 and tilde.two_distance


def test_gray_weight_multiset_transfer():
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    plain = gray_image_analyze(ctx, "C")
    assert plain.weights == ctx.hamming_distribution().homogeneous


def test_gray_images_degree_two():
    # q = 4 images: psi(C) in F_4^480 with distances {336, 384}
    ctx = build_code(2, 2, 2, e=1, d=3, sprime=1)
    plain = gray_image_analyze(ctx, "C", assert_two_distance=True)
    assert (plain.length, plain.size) == (480, 256)
    assert sorted(plain.distances) == [336, 384] and plain.min_distance == 336
    tilde = gray_image_analyze(ctx, "Ctilde", assert_two_distance=True)
    assert (tilde.length, tilde.size) == (40, 256)
    assert sorted(tilde.distances) == [28, 32] and tilde.min_distance == 28
    report = theorem45_table(ctx)
    assert report.all_match


def pair_distances(gray: np.ndarray) -> dict[int, int]:
    """Multiset of Hamming distances over all unordered pairs of rows, by enumeration.

    Each row is compared with every later row; the distances of one row are
    counted into a single tally of length (row length + 1).
    """
    tally = np.zeros(gray.shape[1] + 1, dtype=np.int64)
    for i in range(gray.shape[0] - 1):
        diffs = np.count_nonzero(gray[i + 1:] != gray[i], axis=1)
        tally += np.bincount(diffs, minlength=len(tally))
    return {int(dist): int(count) for dist, count in enumerate(tally.tolist()) if count}


def _pair_distances_oracle(gray) -> dict[int, int]:
    """The pairwise distance multiset by one np.unique per row, over int64 rows."""
    gray = gray.astype(np.int64)
    distances: dict[int, int] = {}
    for i in range(gray.shape[0] - 1):
        diffs = (gray[i + 1:] != gray[i]).sum(axis=1)
        for dist, count in zip(*np.unique(diffs, return_counts=True)):
            distances[int(dist)] = distances.get(int(dist), 0) + int(count)
    return distances


def _gray_matrix(ctx, mat: np.ndarray) -> np.ndarray:
    """Gray images of all rows of a symbol matrix as one (rows, n*q) array of F_q codes."""
    return gray_module._gray_table(ctx)[mat].reshape(len(mat), -1)


def _symbol_matrix(ctx, which: str) -> np.ndarray:
    mat = ctx.symbol_matrix()
    return mat if which == "C" else mat[:, list(ctx.build_tilde_code().rep_indices)]


def _assert_report_matches_the_images(ctx, which: str, gray: np.ndarray) -> None:
    """Distances, weights, size and length of the report, against the Gray images themselves."""
    expected = _pair_distances_oracle(gray)
    assert sum(expected.values()) == len(gray) * (len(gray) - 1) // 2
    report = gray_image_analyze(ctx, which)
    assert report.distances == expected
    tally = np.bincount(np.count_nonzero(gray, axis=1)).tolist()
    assert report.weights == {w: count for w, count in enumerate(tally) if count}
    assert report.size == len({tuple(row) for row in gray.tolist()})
    assert report.length == gray.shape[1]


@pytest.mark.parametrize("args, kwargs, which", [
    ((2, 1, 2), dict(e=1, d=2, sprime=1), "C"),
    ((2, 2, 2), dict(e=1, d=3, sprime=1), "Ctilde"),
    ((3, 1, 3), dict(e=2, d=2, sprime=1), "Ctilde"),  # q = 3
    ((5, 1, 2), dict(e=4, d=1), "C"),
    ((2, 1, 2), dict(e=1, d=2, sprime=1), "Ctilde"),  # G meet R^* has order 2
    ((3, 1, 2), dict(e=1, d=1), "C"),  # q = 3
    ((3, 1, 2), dict(e=1, d=1), "Ctilde"),
    ((3, 1, 3), dict(e=2, d=2, sprime=1), "C"),
    ((2, 2, 2), dict(e=3, d=1), "C"),  # q = 4
    ((2, 2, 2), dict(e=3, d=1), "Ctilde"),
    ((5, 1, 2), dict(e=3, d=0), "Ctilde"),
    ((2, 1, 2), dict(e=3, d=1), "C"),  # kernel of size 4
    ((2, 1, 2), dict(e=3, d=1), "Ctilde"),
    ((2, 1, 3), dict(e=7, d=0), "C"),  # kernel of size 16
    ((2, 1, 3), dict(e=7, d=0), "Ctilde"),
    ((2, 1, 3), dict(e=7, d=2), "C"),  # kernel of size 8
    ((2, 1, 3), dict(e=7, d=2), "Ctilde"),
    ((3, 1, 2), dict(e=4, d=0), "C"),  # q = 3, kernel of size 9
    ((3, 1, 2), dict(e=4, d=0), "Ctilde"),
    ((5, 1, 2), dict(e=6, d=1), "C"),  # q = 5, kernel of size 25
])
def test_pair_distances_match_the_per_row_oracle(args, kwargs, which):
    ctx = build_code(*args, **kwargs)
    gray = _gray_matrix(ctx, _symbol_matrix(ctx, which))
    assert gray.dtype == np.uint8
    assert pair_distances(gray) == _pair_distances_oracle(gray)
    _assert_report_matches_the_images(ctx, which, gray)


@pytest.mark.parametrize("which", ["C", "Ctilde"])
@pytest.mark.parametrize("seed", range(6))
def test_gray_reports_match_the_images_on_random_codes(seed, which):
    # the seeded codes of test_formulas_match_enumeration_on_random_codes
    ctx = _oracle_code(f"random-{seed}")
    _assert_report_matches_the_images(ctx, which, _gray_matrix(ctx, _symbol_matrix(ctx, which)))


def test_the_size_of_ctilde_is_read_from_its_own_kernel(monkeypatch):
    # p times every symbol of Ctilde: still additive in beta, but more rows are zero than in C
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    times_p = ctx.small.p * _symbol_matrix(ctx, "Ctilde") % ctx.small.p2  # r = 1: code = digit
    counts = np.array([np.bincount(row, minlength=ctx.q * ctx.q) for row in times_p])
    monkeypatch.setattr(ctx, "tilde_symbol_counts", lambda: counts)
    gray = _gray_matrix(ctx, times_p)
    assert ctx.hamming_distribution().size == 16 != len({tuple(row) for row in gray.tolist()})
    _assert_report_matches_the_images(ctx, "Ctilde", gray)


def test_one_flipped_gray_symbol_changes_the_distances():
    ctx = build_code(3, 1, 3, e=2, d=2, sprime=1)
    gray = _gray_matrix(ctx, _symbol_matrix(ctx, "Ctilde"))
    before = pair_distances(gray)
    gray[5, 7] = (gray[5, 7] + 1) % ctx.q
    after = pair_distances(gray)
    assert after != before and after == _pair_distances_oracle(gray)


@pytest.mark.parametrize("which", ["C", "Ctilde"])
def test_a_flipped_symbol_fails_the_symmetry_check(which, monkeypatch):
    # a corrupted basis image is refused: the rows at beta = xi^j are checked against encode
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    images = ctx._basis_images().copy()
    column = ctx.build_tilde_code().rep_indices[-1]  # a column of both C and Ctilde
    images[1, column] = (images[1, column] + 1) % ctx.small.p2
    monkeypatch.setattr(ctx, "_basis_images", lambda: images)
    with pytest.raises(IncompatibleTowerError, match="disagrees with encode"):
        gray_image_analyze(ctx, which)


def test_a_gray_table_that_h_does_not_preserve_fails_the_check(monkeypatch):
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    table = gray_module._gray_table(ctx).copy()
    table[1] = table[0]  # the images of 0 and 1 now coincide
    monkeypatch.setattr(gray_module, "_gray_table", lambda ctx: table)
    with pytest.raises(InvalidSubgroupError, match="not the weight of their difference"):
        gray_image_analyze(ctx, "Ctilde")


def _gray_distance(table, a: int, b: int) -> int:
    return int(np.count_nonzero(table[a] != table[b]))


def test_a_gray_table_that_is_not_translation_invariant_fails_the_check(monkeypatch):
    ctx = build_code(2, 1, 2, e=1, d=2, sprime=1)
    table = gray_module._gray_table(ctx).copy()
    table[[1, 2]] = table[[2, 1]]  # still injective: the images of 1 and 2 swapped
    assert len({tuple(row) for row in table.tolist()}) == len(table)
    add = lambda a, c: (a + c) % ctx.small.p2  # r = 1: a code is its digit
    assert any(
        _gray_distance(table, add(a, c), c) != _gray_distance(table, a, 0)
        for a, c in itertools.product(range(len(table)), repeat=2)
    )
    monkeypatch.setattr(gray_module, "_gray_table", lambda ctx: table)
    for which in ("C", "Ctilde"):
        with pytest.raises(InvalidSubgroupError, match="not the weight of their difference"):
            gray_image_analyze(ctx, which)


def test_a_gray_table_that_is_not_injective_fails_the_check(monkeypatch):
    ctx = build_code(2, 2, 2, e=3, d=1)  # r = 2 coefficients per symbol
    digits = [(code % ctx.small.p2, code // ctx.small.p2) for code in range(ctx.q * ctx.q)]
    table = gray_module._gray_table(ctx)[[a0 for a0, _ in digits]]  # Gray of a with a_1 zeroed
    add = lambda a, c: sum((x + y) % ctx.small.p2 * ctx.small.p2**j
                           for j, (x, y) in enumerate(zip(digits[a], digits[c])))
    assert all(
        _gray_distance(table, add(a, c), c) == _gray_distance(table, a, 0)
        for a, c in itertools.product(range(len(table)), repeat=2)
    )
    monkeypatch.setattr(gray_module, "_gray_table", lambda ctx: table)
    for which in ("C", "Ctilde"):
        with pytest.raises(InvalidSubgroupError, match="nonzero symbol to the zero vector"):
            gray_image_analyze(ctx, which)


# -- MacWilliams and Delsarte: an oracle that does not read the count table -----

def _krawtchouk(k: int, x: int, length: int, alphabet: int) -> int:
    return sum((-1) ** j * (alphabet - 1) ** (k - j) * math.comb(x, j) * math.comb(length - x, k - j)
               for j in range(k + 1))


def _transform(distribution: dict[int, Fraction], length: int, alphabet: int) -> list[Fraction]:
    """B'_k = sum_i B_i K_k(i; length, alphabet) for k = 0..length."""
    return [sum(b * _krawtchouk(k, i, length, alphabet) for i, b in distribution.items())
            for k in range(length + 1)]


@pytest.mark.parametrize("name", [*_ORACLE_CODES, "p3-n117"])
def test_weights_and_distances_satisfy_macwilliams_and_delsarte(name):
    ctx = build_code(3, 1, 3, e=2, d=2, sprime=1) if name == "p3-n117" else _oracle_code(name)
    rows = ctx.Q * ctx.Q
    table = ctx.hamming_distribution()
    # C is additive over an alphabet of q^2 symbols, so its dual weight table is A'
    kernel = Fraction(rows, table.size)
    weights = {i: count / kernel for i, count in table.hamming.items()}  # A_i, per codeword
    dual = [a / table.size for a in _transform(weights, ctx.n, ctx.q**2)]
    assert all(a.denominator == 1 and a >= 0 for a in dual)
    assert dual[0] == 1 and sum(dual) == Fraction(ctx.q ** (2 * ctx.n), table.size)
    for which in ("C", "Ctilde"):
        report = gray_image_analyze(ctx, which)
        kernel = Fraction(rows, report.size)
        ordered = {d: 2 * count for d, count in report.distances.items()}
        ordered[0] = ordered.get(0, 0) + rows  # each row with itself
        # B_i: the ordered pairs of codewords at distance i, per codeword
        distance = {d: count / kernel**2 / report.size for d, count in ordered.items()}
        dual = [b / report.size for b in _transform(distance, report.length, ctx.q)]
        assert all(b >= 0 for b in dual), which
        assert dual[0] == 1 and sum(dual) == Fraction(ctx.q**report.length, report.size), which


def test_gray_jobs_do_not_import_numpy_ma():
    # np.unique imports numpy.ma, about 15 ms and 1 MiB in a job that has no use for it
    script = (
        "import contextlib, io, sys\n"
        "from grcodes.cli import main\n"
        "code = ['--p', '2', '--r', '1', '--s', '2', '--sprime', '1', '--e', '1', '--d', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['gray', 'analyze', '--which', 'C'], ['gray', 'analyze', '--which',\n"
        "                 'Ctilde'], ['code', 'verify', '--theorem', '4.6']):\n"
        "        if main(argv + code) != 0:\n"
        "            raise SystemExit(f'{argv} failed')\n"
        "raise SystemExit(3 if 'numpy.ma' in sys.modules else 0)\n"
    )
    src = str(Path(grcodes.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
