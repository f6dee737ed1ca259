"""grcodes benchmark: CLI jobs run exactly as a user runs them.

Usage (from the repository root):

    python3 perfbench/run.py --workload {formula,enumeration,gauss} \\
        --seed N --seconds S --trace {0,1}

    # every workload, end to end
    for w in formula enumeration gauss; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 40 --trace 0; done

Every job is a fresh ``python -m grcodes.cli ...`` process, one at a time,
so each one pays for building its rings, code and character tables, and no
module-level cache carries over between jobs.  Every report is checked
(exit status, FAIL records, the paper's invariants, committed SHA-256
digests); a job that fails any check, or times out, counts in ``failed``.

``--trace 0`` repeats the workload's job list for about S seconds and
reports the end-to-end metrics.  ``--trace 1`` runs the list once plainly
and once under ``trace_boot.py``, which records spans at every layer
boundary, and reports the per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A run
record with every job's parameters and timings is written to
``.bench_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

from checks import digest_errors, load_digests, report_errors, sha256
from spans import COUNTS, LAYERS, MEMOS, TIMERS, aggregate
from trace_boot import load

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_SAMPLES = 12  # taken one before each job, so they spread over the run
JOB_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0  # every job is cut off by then, so the run ends within 180 s


@dataclass
class JobResult:
    name: str
    seconds: float
    status: int | None  # exit code; None when the job was killed at its timeout
    maxrss_kib: int
    output_bytes: int
    sha256: str = ""
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None  # per-job aggregate of a traced run

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def spawn(cmd: list[str], env: dict, timeout: float, stdout_path: Path, stderr_path: Path):
    """Run cmd to completion: (seconds, exit code or None on timeout, peak RSS KiB).

    The child is reaped with ``os.wait4`` so its own ``ru_maxrss`` is read;
    a timer kills it once ``timeout`` seconds have passed.
    """
    expired = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: leave no child behind
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if expired.is_set() and proc.returncode < 0 else proc.returncode
    return seconds, code, usage.ru_maxrss


def run_job(job, cmd, env, timeout, workdir: Path, digests: dict) -> JobResult:
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    seconds, code, maxrss = spawn(cmd, env, timeout, out_path, err_path)
    report = out_path.read_bytes()
    result = JobResult(job.name, seconds, code, maxrss, len(report), sha256(report))
    if code is None:
        result.errors.append(f"timed out after {timeout:.0f} s")
    elif code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        result.errors.append(f"exit status {code}: {' '.join(tail)}")
    else:
        result.errors += report_errors(job.kind, report, job.params)
        result.errors += digest_errors(job.argv, report, digests)
    return result


class Runner:
    """Runs one workload's jobs in fresh processes and keeps every result."""

    def __init__(self, jobs, workdir: Path, digests: dict):
        self.jobs = jobs
        self.workdir = workdir
        self.digests = digests
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.results: list[JobResult] = []
        self.setup: list[float] = []

    def timeout(self) -> float:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return max(1.0, min(JOB_TIMEOUT_S, left))

    def import_seconds(self) -> float:
        """Spawn-to-exit time of a fresh interpreter that imports grcodes.cli."""
        cmd = [sys.executable, "-c", "import grcodes.cli"]
        seconds, code, _ = spawn(cmd, self.env, self.timeout(),
                                 self.workdir / "stdout", self.workdir / "stderr")
        if code != 0:
            raise RuntimeError(f"import grcodes.cli failed with status {code}")
        return seconds

    def run_pass(self, traced: bool = False, sample_setup: bool = False) -> list[JobResult]:
        out = []
        for number, job in enumerate(self.jobs):
            if sample_setup and len(self.setup) < SETUP_SAMPLES:
                self.setup.append(self.import_seconds())
            cmd = [sys.executable, "-m", "grcodes.cli", *job.argv]
            trace_path = self.workdir / f"job{number}.npz"
            if traced:
                cmd = [sys.executable, str(BENCH / "trace_boot.py"), job.name, str(trace_path),
                       "--", *job.argv]
            result = run_job(job, cmd, self.env, self.timeout(), self.workdir, self.digests)
            if traced and trace_path.exists():
                result.trace = aggregate(load(str(trace_path)))
                trace_path.unlink()
            log(f"  {job.name:<24} {result.seconds:8.3f} s  "
                f"{'FAILED ' + '; '.join(result.errors) if result.failed else 'ok'}")
            out.append(result)
        self.results += out
        return out


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def failed_frac(results: list[JobResult]) -> float:
    return sum(r.failed for r in results) / len(results)


def end_to_end(runner: Runner, passes: list[list[JobResult]]) -> dict:
    # one value per job, the median over its passes, so that the statistics
    # do not depend on how many passes fit in the run
    per_job = [median(p[i].seconds for p in passes) for i in range(len(runner.jobs))]
    results = runner.results
    return {
        "setup_s": median(runner.setup),
        "wall_s": sum(per_job),
        "job_s.p50": median(per_job),
        "peak_rss_mb": max(r.maxrss_kib for r in results) / 1024,
        # failures as a metric that is never 0: 1 - failed_frac
        "ok_frac": 1 - failed_frac(results),
    }


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.import_seconds()  # the first import writes the bytecode caches
    passes = []
    # another pass only if it fits in the run, judged by the passes so far
    while not passes or (time.perf_counter() - runner.started
                         + median(sum(r.seconds for r in p) for p in passes)) <= seconds:
        passes.append(runner.run_pass(sample_setup=True))
    while len(runner.setup) < SETUP_SAMPLES:
        runner.setup.append(runner.import_seconds())
    metrics = end_to_end(runner, passes)
    info = {"setup_samples": runner.setup, "passes": len(passes),
            "job_samples": len(runner.results)}
    return metrics, info


def per_layer(runner: Runner, jobs, seed: int) -> tuple[dict, dict]:
    from instances import largest_ring
    from kernels import kernel_timings

    plain = runner.run_pass()
    traced = runner.run_pass(traced=True)
    metrics: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    metrics.update({name: 0.0 for name in TIMERS})
    metrics.update({name: 0 for name in COUNTS})
    memos: dict[str, list[int]] = {}
    for result in traced:
        trace = result.trace
        if trace is None:
            continue
        for name in metrics:
            metrics[name] += trace[name]
        for name, (hits, calls) in trace["memos"].items():
            memos.setdefault(name, [0, 0])
            memos[name][0] += hits
            memos[name][1] += calls
    # a memo that the program no longer has is reported absent
    for name in MEMOS:
        if name in memos:
            hits, calls = memos[name]
            metrics[name] = hits / calls if calls else 0.0
    metrics["cli.output_bytes"] = sum(r.output_bytes for r in traced)
    spec = largest_ring(jobs)
    metrics.update(kernel_timings(spec, seed))
    plain_wall = sum(r.seconds for r in plain)
    traced_wall = sum(r.seconds for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall, "kernel_ring": spec,
            "memo_probes": memos, "spans": sum(r.trace["spans"] for r in traced if r.trace)}
    return metrics, info


def load_benchmark_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grcodes" / "cli.py").is_file():
        log(f"error: no grcodes sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from instances import WORKLOADS, build_jobs

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}")
        return 2
    units = load_benchmark_units()
    jobs = build_jobs(args.workload, args.seed)
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(jobs, workdir, load_digests())
        log(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs")
        if args.trace:
            metrics, info = per_layer(runner, jobs, args.seed)
        else:
            metrics, info = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r in runner.results)
    attempted = len(runner.results)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "jobs": [{"name": j.name, "argv": j.argv, "params": j.params} for j in jobs],
        "results": [asdict(r) for r in runner.results],
        "info": info, "metrics": metrics,
    }
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  failed_frac {failed}/{attempted} = {failed / attempted:g}")
    for key in ("passes", "job_samples", "untraced_wall_s", "traced_wall_s", "spans"):
        if key in info:
            print(f"  {key} = {info[key]}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
