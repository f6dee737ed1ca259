import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grcodes
from grcodes.cli import RunConfig, main
from grcodes.codes import build_code
from grcodes.rings import format_element


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
    from grcodes.cyclotomic import CyclotomicInteger

    approx_calls = []
    approx = CyclotomicInteger.approx
    monkeypatch.setattr(
        CyclotomicInteger, "approx", lambda self: approx_calls.append(self) or approx(self)
    )
    status, out, _ = run_cli("gauss", "--sweep", "--p", "3", "--r", "2", "--format", "json")
    assert status == 0
    assert out == '{\n  "all_equal": true,\n  "pairs": 5832,\n  "pairs_expected": 5832\n}\n'
    assert run_cli("gauss", "--sweep", "--p", "3", "--r", "2")[:2] == (
        0, "5832 pairs checked, verdict EQUAL\n"
    )
    assert approx_calls == []


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


def test_config_round_trip(tmp_path):
    cfg = RunConfig(p=2, r=1, s=2, e=1, vbar="full", format="json", threads=2)
    text = cfg.to_file_text()
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
