"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import trace_boot  # noqa: E402
from grcodes.codes import span_subspace  # noqa: E402
from grcodes.rings import FiniteField, GaloisRing  # noqa: E402


# -- span aggregation --------------------------------------------------------

# root(cli) 0-100 on thread 0; a(codes) 10-40 under it holding b(rings)
# 15-25; c(rings) 50-70 under root; a pool task on thread 1 under root,
# whose clock is its own and so is not subtracted from root
TREE = {
    "names": ["cli.main", "codes.CodeContext.theorem31_N", "rings.GaloisRingElement.__mul__",
              "verify.<pool task>"],
    "parent": [-1, 0, 1, 0, 0, 4],
    "thread": [0, 0, 0, 0, 1, 1],
    "fid":    [0, 1, 2, 2, 3, 1],
    "t0":     [0, 10, 15, 50, 0, 5],
    "t1":     [100, 40, 25, 70, 60, 35],
    "counts": {"rings.GaloisRingElement.__mul__": 7},
    "memos": {},
}


def test_self_time_subtracts_same_thread_children():
    own = spans.self_times(TREE["parent"], TREE["thread"], TREE["t0"], TREE["t1"])
    assert list(own) == [100 - 30 - 20, 30 - 10, 10, 20, 60 - 30, 30]


def test_aggregate_sums_layers_and_times_outermost_spans():
    agg = spans.aggregate(TREE)
    assert agg["cli.self_s"] == pytest.approx(50e-9)
    assert agg["codes.self_s"] == pytest.approx((20 + 30) * 1e-9)
    assert agg["rings.self_s"] == pytest.approx(30e-9)
    assert agg["verify.self_s"] == pytest.approx(30e-9)
    assert agg["codes.formula_s"] == pytest.approx((30 + 30) * 1e-9)
    assert agg["rings.mul_calls"] == 7
    assert agg["spans"] == 6


def test_nested_spans_of_one_timer_count_once():
    parent, fid = [-1, 0, 1], [0, 0, 0]
    assert spans.outermost_time(parent, fid, [0, 2, 3], [10, 8, 4], [0]) == 10


def test_traced_job_keeps_report_bytes(tmp_path):
    argv = ["code", "verify", "--theorem", "3.1", "--p", "2", "--r", "1", "--s", "2",
            "--e", "1", "--vbar", "full", "--threads", "2", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "grcodes.cli", *argv], capture_output=True,
                           env=env, check=True)
    out = tmp_path / "job.npz"
    traced = subprocess.run([sys.executable, str(BENCH / "trace_boot.py"), "j", str(out), "--",
                             *argv], capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    agg = spans.aggregate(trace_boot.load(str(out)))
    assert agg["codes.formula_calls"] == 16 * 4
    assert agg["rings.self_s"] > 0 and agg["cyclotomic.self_s"] > 0
    assert "rings.teich_cache_hit_ratio" in agg["memos"]


# -- output checks -------------------------------------------------------------

def test_digest_check_catches_one_changed_byte():
    argv = ["gauss", "--p", "2", "--r", "1"]
    report = b'{"all_equal": true}\n'
    digests = {checks.digest_key(argv): checks.sha256(report)}
    assert checks.digest_errors(argv, report, digests) == []
    changed = report.replace(b"true", b"trve")
    assert len(changed) == len(report)
    assert checks.digest_errors(argv, changed, digests)
    assert checks.digest_errors(["other"], report, digests) == [
        "no recorded digest for this argv"
    ]


def test_committed_digests_cover_the_jobs_of_many_seeds():
    digests = checks.load_digests()
    for workload in instances.WORKLOADS:
        for seed in (0, 1, 2, 3, 4, 5, 6, 7, 10**6, 2**31 - 1):
            for job in instances.build_jobs(workload, seed):
                assert checks.digest_key(job.argv) in digests, (seed, job.name)


def test_failed_fraction_counts_exit_status_and_timeout(tmp_path):
    ok_report = json.dumps({"records": [{"check": "x", "verdict": "pass"}],
                            "summary": {"failed": 0}})
    job = instances.Job("fake", "verify", ["fake"], {})
    digests = {"fake": checks.sha256(ok_report.encode() + b"\n")}
    commands = [
        [sys.executable, "-c", f"print({ok_report!r})"],
        [sys.executable, "-c", "import sys; sys.exit(3)"],
        [sys.executable, "-c", "import time; time.sleep(30)"],
    ]
    start = time.perf_counter()
    results = [run.run_job(job, cmd, {}, 2.0, tmp_path, digests) for cmd in commands]
    assert time.perf_counter() - start < 15
    assert [r.failed for r in results] == [False, True, True]
    assert results[1].status == 3
    assert results[2].status is None and "timed out" in results[2].errors[0]
    assert run.failed_frac(results) == pytest.approx(2 / 3)


def test_fail_record_is_a_failure():
    report = json.dumps({"records": [{"check": "beta-1", "verdict": "FAIL"}],
                         "summary": {"failed": 1}}).encode()
    assert checks.report_errors("verify", report, {}) == ["FAIL record beta-1"]


# -- instances -----------------------------------------------------------------

def test_same_seed_gives_same_instances():
    for workload in instances.WORKLOADS:
        first = [job.argv for job in instances.build_jobs(workload, 7)]
        assert first == [job.argv for job in instances.build_jobs(workload, 7)]
    drawn = {tuple(" ".join(j.argv) for j in instances.build_jobs("enumeration", seed))
             for seed in range(5)}
    assert len(drawn) > 1


def _brute_force_perp_in_subfield(p, r, s, sprime, modulus, vbar) -> bool:
    """Vbar-perp inside the order-q^s' subfield, by enumerating all of F_Q."""
    field = FiniteField(p, r * s, tuple(c % p for c in modulus))
    span = span_subspace(field, vbar)
    perp = [x for x in field.elements()
            if all(field.trace_to_prime(field.mul(a, x)) == 0 for a in span)]
    order = p ** (r * sprime)
    return len(span) == p ** len(vbar) and all(field.pow(x, order) == x for x in perp)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_instances_satisfy_the_hypotheses(seed):
    for job in instances.build_jobs("enumeration", seed):
        par = job.params
        assert _brute_force_perp_in_subfield(par["p"], par["r"], par["s"], par["sprime"],
                                             par["modulus"], par["vbar"]), job.name
        assert instances.hypothesis_failures(
            par["p"], par["r"], par["s"], par["sprime"], par["e"], par["d"], par["modulus"],
            par["vbar"], need_e_one=par["e"] == 1) == []
    for workload in ("formula", "gauss"):
        for job in instances.build_jobs(workload, seed):
            par = job.params
            ring = GaloisRing(par["p"], len(par["modulus"]) - 1, tuple(par["modulus"]))
            assert ring.q == par["p"] ** (len(par["modulus"]) - 1)
            if workload == "formula":
                span = span_subspace(ring.residue_field, par["vbar"])
                assert len(span) == par["p"] ** par["d"]


def test_hypothesis_check_rejects_a_bad_subspace():
    p, r, s, sprime, e, d = 3, 1, 3, 1, 2, 2
    modulus = instances.draw_modulus(random.Random(0), p, r * s)
    field = instances.residue_field(p, modulus)
    good = instances.forced_subspace(field, p**r, sprime)
    assert instances.hypothesis_failures(p, r, s, sprime, e, d, modulus, good) == []
    outside = next(x for x in field.elements() if x not in span_subspace(field, good))
    bad = [good[0], outside]
    assert instances.hypothesis_failures(p, r, s, sprime, e, d, modulus, bad) == [
        "Vbar-perp is not inside the order-3 subfield"
    ]


def test_benchmark_json_declares_exactly_the_reported_metrics():
    import kernels

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    fake = [run.JobResult("j", 1.0, 0, 2048, 10)]
    runner = type("R", (), {"jobs": [None], "results": fake, "setup": [0.3]})()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(runner, [fake]))
    traced = ({f"{layer}.self_s" for layer in spans.LAYERS} | set(spans.TIMERS)
              | set(spans.COUNTS) | set(spans.MEMOS) | set(kernels.INPUTS)
              | {"cli.output_bytes", "trace.overhead_frac"})
    assert {m["name"] for m in spec["per_layer"]} == traced
