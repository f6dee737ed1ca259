import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grcodes
from grcodes import verify
from grcodes.characters import CharacterSystem
from grcodes.cli import CONFIG_KEYS, THEOREMS, RunConfig, main
from grcodes.codes import build_code
from grcodes.cyclotomic import CyclotomicInteger
from grcodes.rings import GaloisRing, format_element
from grcodes.verify import VerificationReport, json_text


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


def test_ring_info_text():
    status, out, _ = run_cli("ring", "info", "--p", "2", "--r", "2")
    assert status == 0
    assert "modulus 1,1,1" in out
    assert "|R| = 16" in out and "|R*| = 12" in out


def test_ring_info_json():
    status, out, _ = run_cli("ring", "info", "--p", "2", "--r", "2", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["modulus"] == [1, 1, 1]
    assert payload["size"] == 16 and payload["units"] == 12


def test_non_prime_rejected():
    status, _, err = run_cli("ring", "info", "--p", "4", "--r", "1")
    assert status == 2
    assert "prime" in err


def test_bad_modulus_rejected_with_order():
    status, _, err = run_cli("ring", "info", "--p", "2", "--r", "2", "--modulus", "3,1,1")
    assert status == 2
    assert "order 6" in err and "expected 3" in err


def test_gauss_trivial_pair():
    status, out, _ = run_cli("gauss", "--p", "2", "--r", "1")
    assert status == 0
    assert "EQUAL" in out


def test_gauss_sweep_pair_count():
    status, out, _ = run_cli("gauss", "--p", "2", "--r", "1", "--sweep", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["pairs"] == payload["pairs_expected"] == 8
    assert payload["all_equal"] is True


def test_gauss_sweep_builds_no_record_without_full(monkeypatch):
    import grcodes.cyclotomic as cyclotomic

    built = []
    approx = CyclotomicInteger.approx
    monkeypatch.setattr(
        CyclotomicInteger, "approx", lambda self: built.append(self) or approx(self)
    )
    for name in ("canonical_text", "complex_value"):
        helper = getattr(cyclotomic, name)
        monkeypatch.setattr(
            cyclotomic, name, lambda *args, helper=helper: built.append(args) or helper(*args)
        )
    status, out, _ = run_cli("gauss", "--sweep", "--p", "3", "--r", "2", "--format", "json")
    assert status == 0
    assert out == '{\n  "all_equal": true,\n  "pairs": 5832,\n  "pairs_expected": 5832\n}\n'
    # text and csv print only the summary line, with or without --full and --dump-sums
    for fmt in ("text", "csv"):
        for extra in ((), ("--full",), ("--dump-sums",), ("--full", "--dump-sums")):
            argv = ("gauss", "--sweep", "--p", "3", "--r", "2", "--format", fmt, *extra)
            assert run_cli(*argv)[:2] == (0, "5832 pairs checked, verdict EQUAL\n")
    assert built == []


_SWEEP_RINGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


@functools.lru_cache(maxsize=None)
def _scalar_sums(p, r):
    """m, and (chi, beta, closed form, definition) from the scalar routes in sweep order."""
    ring = GaloisRing(p, r)
    system = CharacterSystem(ring)
    betas = list(ring.elements())
    closed, definition = system.gauss_sum_closed_form, system.gauss_sum_definition
    return system.m, [
        (chi, beta, closed(chi, beta), definition(chi, beta))
        for chi in system.all_mult_chars()
        for beta in betas
    ]


def _sweep_oracle(p, r, bumped=frozenset()):
    """The `gauss --sweep --full --format json` payload, one record dict per pair.

    The closed form is one more at each (chi_i, chi_b code, beta code) in ``bumped``.
    """
    m, sums = _scalar_sums(p, r)
    records = []
    for (i, b), beta, closed, definition in sums:
        if (i, b.code, beta.code) in bumped:
            closed = closed + 1
        records.append({
            "chi_i": i,
            "chi_b": format_element(b),
            "beta": format_element(beta),
            "equal": closed == definition,
            "closed": repr(closed),
            "definition": repr(definition),
            "magnitude_approx": f"{abs(definition.approx()):.6f}",
            "closed_coeffs": {"m": m, "coeffs": list(closed.canonical())},
            "definition_coeffs": {"m": m, "coeffs": list(definition.canonical())},
        })
    q = p**r
    return {
        "pairs": len(records),
        "pairs_expected": q * (q - 1) * q * q,
        "all_equal": all(record["equal"] for record in records),
        "records": records,
    }


def _bump_closed_rows(monkeypatch, bumped):
    """Make ``gauss_sum_rows`` return each closed form in ``bumped`` one too large."""
    rows = CharacterSystem.gauss_sum_rows

    def bumped_rows(self, chi):
        closed, definition, sums = rows(self, chi)
        closed = [
            (row[0] + 1, *row[1:]) if (chi[0], chi[1].code, k) in bumped else row
            for k, row in enumerate(closed)
        ]
        return closed, definition, sums

    monkeypatch.setattr(CharacterSystem, "gauss_sum_rows", bumped_rows)


def _assert_same_report(out, expected):
    """Fail at the first differing line: pytest's own diff of reports this long takes minutes."""
    if out != expected:
        got, want = out.splitlines(), expected.splitlines()
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"reports differ at line {k + 1}: {got[k:k + 1]} != {want[k:k + 1]}")


@pytest.mark.parametrize("p, r", _SWEEP_RINGS)
def test_gauss_sweep_streams_the_record_report(p, r):
    status, out, _ = run_cli(
        "gauss", "--sweep", "--full", "--p", str(p), "--r", str(r), "--format", "json"
    )
    assert status == 0
    _assert_same_report(out, json_text(_sweep_oracle(p, r)) + "\n")


def test_gauss_sweep_streams_to_a_file_and_with_dump_sums(tmp_path):
    expected = json_text(_sweep_oracle(3, 2)) + "\n"
    target = tmp_path / "sweep.json"
    ring = ("--p", "3", "--r", "2", "--format", "json")
    status, out, _ = run_cli("gauss", "--sweep", "--full", *ring, "--output", str(target))
    assert (status, out) == (0, "")
    _assert_same_report(target.read_text(encoding="utf-8"), expected)
    status, out, _ = run_cli("gauss", "--sweep", "--dump-sums", *ring)
    assert status == 0
    _assert_same_report(out, expected)


def test_gauss_sweep_reports_a_single_differing_pair(monkeypatch):
    m, sums = _scalar_sums(2, 3)
    index = 5 * 64 + 11  # beta 11 of the sixth character
    (i, b), beta, _, _ = sums[index]
    bumped = {(i, b.code, beta.code)}
    _bump_closed_rows(monkeypatch, bumped)
    argv = ("gauss", "--sweep", "--full", "--p", "2", "--r", "3")
    status, out, _ = run_cli(*argv, "--format", "json")
    assert status == 1
    _assert_same_report(out, json_text(_sweep_oracle(2, 3, bumped)) + "\n")
    assert '\n  "all_equal": false,\n' in out
    payload = json.loads(out)
    assert [k for k, record in enumerate(payload["records"]) if not record["equal"]] == [index]
    assert run_cli(*argv)[:2] == (1, "3584 pairs checked, verdict DIFFER\n")


@pytest.mark.parametrize("full", [False, True])
def test_suite_21_reports_the_first_mismatch_of_each_character(monkeypatch, full):
    p, r = 2, 3
    m, sums = _scalar_sums(p, r)
    (i, b), _, _, _ = sums[5 * 64]
    bumped = {(i, b.code, 11), (i, b.code, 40)}
    _bump_closed_rows(monkeypatch, bumped)
    anchor = "2.1-closed-vs-definition"
    params = {"p": p, "r": r, "modulus": list(GaloisRing(p, r).modulus)}
    expected = VerificationReport("2.1", params)
    mismatches = []
    for (ci, cb), beta, closed, definition in sums:
        if (ci, cb.code, beta.code) in bumped:
            closed = closed + 1
            mismatches.append((closed, definition))
        if full:
            expected.add(
                f"pair-i{ci}-b{format_element(cb)}-beta{format_element(beta)}",
                anchor, repr(closed), repr(definition),
            )
    (first, first_definition), (last, _) = mismatches
    assert repr(first) != repr(last)  # the report can tell the first mismatch from the last
    if not full:
        expected.add(
            f"char-i{i}-b{format_element(b)}", anchor, repr(first), repr(first_definition)
        )
        expected.add("all-pairs", anchor, "3584 pairs equal", "3582 pairs equal")
    argv = ["code", "verify", "--theorem", "2.1", "--p", "2", "--r", "3", "--format", "json"]
    status, out, _ = run_cli(*argv, *(["--full"] if full else []))
    assert status == 1
    assert out == expected.to_json()


def test_gauss_dump_sums():
    status, out, _ = run_cli(
        "gauss", "--p", "2", "--r", "1", "--chi-i", "0", "--chi-b", "1",
        "--beta", "1", "--format", "json", "--dump-sums",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["closed_coeffs"]["m"] == 4
    assert payload["closed_coeffs"]["coeffs"] == [0, 2]  # 2 * zeta_4


def test_gauss_rejects_non_teichmuller_b():
    status, _, err = run_cli("gauss", "--p", "2", "--r", "1", "--chi-b", "2")
    assert status == 2
    assert "Teichmuller" in err


def test_code_build_json():
    status, out, _ = run_cli(
        "code", "build", "--p", "2", "--r", "1", "--s", "2", "--e", "1",
        "--vbar", "full", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["n"] == 12 and payload["e_prime"] == 1
    assert payload["stabilizer_size"] == 2 and payload["n_tilde"] == 6


def test_code_weights_csv_deterministic_across_threads():
    argv = ["code", "weights", "--p", "2", "--r", "1", "--s", "2", "--e", "1",
            "--vbar", "full", "--format", "csv"]
    _, first, _ = run_cli(*argv)
    _, second, _ = run_cli(*argv, "--threads", "4")
    assert first == second
    assert first.startswith("table,key,value\n")
    assert "hamming,8,3" in first


@pytest.mark.parametrize(
    "flags, args, kwargs",
    [
        (("--p", "2", "--r", "1", "--s", "2", "--sprime", "1", "--e", "1", "--vbar", "full"),
         (2, 1, 2), dict(e=1, d=2, sprime=1)),
        (("--p", "5", "--r", "1", "--s", "2", "--e", "4", "--d", "1"),
         (5, 1, 2), dict(e=4, d=1)),
    ],
)
def test_code_weights_full_rows_match_direct_tally(flags, args, kwargs):
    status, out, _ = run_cli("code", "weights", *flags, "--full", "--format", "json")
    assert status == 0
    rows = json.loads(out)["per_beta"]
    ctx = build_code(*args, **kwargs)
    assert len(rows) == ctx.Q * ctx.Q
    for code, row in enumerate(rows):
        beta = ctx.big.from_code(code)
        assert row["beta"] == format_element(beta)
        counts = ctx.count_components(beta)
        assert row["counts"] == [counts[a] for a in range(ctx.q * ctx.q)]
        assert sum(row["counts"]) == ctx.n
        assert row["w_hamming"] == ctx.n - row["counts"][0]


def test_verify_suite_same_under_optimize():
    # python -O strips assert statements; no check on the suite path may rely on them
    argv = ["-m", "grcodes.cli", "code", "verify", "--theorem", "3.4", "--p", "2", "--r", "1",
            "--s", "2", "--sprime", "1", "--e", "1", "--vbar", "full", "--format", "json"]
    src = str(Path(grcodes.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, timeout=120)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert plain.stdout == optimized.stdout
    assert json.loads(plain.stdout)["summary"]["failed"] == 0


def test_threads_out_of_range_rejected():
    # --threads has no effect, but its range is still checked
    for value in ("0", "65"):
        status, _, err = run_cli("ring", "info", "--p", "2", "--r", "1", "--threads", value)
        assert status == 2
        assert "between 1 and 64" in err


def test_code_verify_pass():
    status, out, _ = run_cli(
        "code", "verify", "--theorem", "3.1", "--p", "2", "--r", "1", "--s", "2",
        "--e", "1", "--vbar", "full",
    )
    assert status == 0
    assert "summary:" in out and "0 failed" in out


def test_code_verify_precondition_violated():
    status, _, err = run_cli(
        "code", "verify", "--theorem", "3.3", "--p", "3", "--r", "1", "--s", "3",
        "--sprime", "1", "--e", "1", "--d", "1",
    )
    assert status == 2
    assert "dual-subspace" in err


def test_code_verify_unknown_theorem():
    status, _, _ = run_cli(
        "code", "verify", "--theorem", "9.9", "--p", "2", "--r", "1", "--s", "2", "--e", "1",
    )
    assert status == 2


@pytest.mark.parametrize("ring, vbar, message", [
    # a malformed --vbar is reported before a ring too large or of degree 0
    (("--p", "2", "--s", "13"), "x", "bad field element literal 'x'"),
    (("--p", "2", "--s", "13"), ",".join("1" * 14), "too many coefficients for degree 13"),
    (("--p", "2", "--s", "0"), "1", "too many coefficients for degree 0"),
    # but after a p that is not prime, and a well-formed --vbar leaves the ring's own error
    (("--p", "4", "--s", "2"), "x", "p=4 is not prime"),
    (("--p", "4", "--s", "2"), "1,1", "p=4 is not prime"),
    (("--p", "0", "--s", "2"), "1,1", "p=0 is not prime"),
    (("--p", "0", "--s", "2"), "full", "p=0 is not prime"),
    (("--p", "2", "--s", "13"), "1,1", "above the desk-scale guard"),
])
def test_vbar_is_read_without_building_a_ring(ring, vbar, message):
    status, out, err = run_cli("code", "build", *ring, "--r", "1", "--e", "1", "--vbar", vbar)
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_gray_map_cli():
    status, out, _ = run_cli("gray", "map", "--p", "2", "--r", "1", "--beta", "2")
    assert status == 0
    assert out.strip() == "1 1"


def test_gray_analyze_json():
    status, out, _ = run_cli(
        "gray", "analyze", "--p", "2", "--r", "1", "--s", "2", "--e", "1",
        "--d", "2", "--sprime", "1", "--which", "C", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["length"] == 24 and payload["size"] == 16
    assert payload["min_distance"] == 12 and payload["two_distance"] is True
    assert payload["weights"] == {"0": 1, "12": 12, "16": 3}


_SMALL_CODE = ("--p", "2", "--r", "1", "--s", "2", "--sprime", "1", "--e", "1", "--d", "2")


@pytest.mark.parametrize("argv", [
    ("ring", "info", "--p", "2", "--r", "2"),
    ("gauss", "--p", "2", "--r", "2", "--chi-i", "1"),
    ("gauss", "--p", "2", "--r", "2", "--sweep", "--full"),
    ("code", "build", *_SMALL_CODE),
    ("code", "weights", "--full", *_SMALL_CODE),
    *[("code", "verify", "--theorem", theorem, *_SMALL_CODE) for theorem in THEOREMS],
    ("gray", "map", "--p", "2", "--r", "1", "--beta", "2"),
    ("gray", "analyze", "--which", "Ctilde", *_SMALL_CODE),
])
def test_cli_reports_never_reach_json_dumps(monkeypatch, argv):
    # every report is built from the types json_text writes itself
    dumps = json.dumps

    def no_indent(*args, **kwargs):
        if "indent" in kwargs:
            raise AssertionError("a report reached json.dumps")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(verify.json, "dumps", no_indent)
    status, out, err = run_cli(*argv, "--format", "json")
    assert status == 0, err
    assert json.loads(out)


@pytest.mark.parametrize("payload", [
    {"a": [1.5, (2,)], "b": {"c": None}},  # written by json.dumps
    {"a": [1, True], "b": {"c": None}},  # written by json_text itself
])
def test_json_text_at_depth_is_json_dumps_indented(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2).replace("\n", "\n    ")
    assert json_text(payload, depth=2) == expected


def _to_file_text(cfg: RunConfig) -> str:
    """The config file text of every option that is set, one ``key = value`` line each."""
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(cfg, key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def test_config_round_trip(tmp_path):
    cfg = RunConfig(p=2, r=1, s=2, e=1, vbar="full", format="json", threads=2)
    text = _to_file_text(cfg)
    assert RunConfig.from_file_text(text) == cfg


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 2\nr = 1\ns = 2\ne = 1\nvbar = full\nformat = json\n")
    status, out, _ = run_cli("code", "build", "--config", str(path))
    assert status == 0
    assert json.loads(out)["n"] == 12
    # flag overrides the file value
    status, out, _ = run_cli("code", "build", "--config", str(path), "--format", "csv")
    assert status == 0
    assert out.startswith("table,key,value")


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense = 1\n")
    status, _, err = run_cli("code", "build", "--config", str(path))
    assert status == 2
    assert "unknown key" in err


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    status, out, _ = run_cli(
        "ring", "info", "--p", "2", "--r", "1", "--format", "json",
        "--output", str(path),
    )
    assert status == 0 and out == ""
    assert json.loads(path.read_text())["q"] == 2


def test_verify_report_outputs_have_no_timing():
    _, out, err = run_cli(
        "code", "verify", "--theorem", "3.4", "--p", "3", "--r", "1", "--s", "3",
        "--sprime", "1", "--e", "2", "--d", "2", "--format", "json",
    )
    assert "elapsed" in err and "elapsed" not in out
    payload = json.loads(out)
    assert payload["summary"] == {"failed": 0, "passed": 4}
