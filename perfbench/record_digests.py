"""Regenerate digests.json: the SHA-256 of every report the benchmark can ask for.

Usage (from the repository root): python3 perfbench/record_digests.py

The seeds draw from a finite set of moduli and subspaces, so the union of
the jobs of seeds 0..SEEDS-1 covers the instances of any seed; a job whose
argv is still missing fails its digest check.
A report is recorded only when its job exits 0 and passes every check, so
the table never blesses a wrong report.  Regenerate it only for a change
that is meant to alter report bytes.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import DIGESTS_PATH, digest_key, report_errors  # noqa: E402
from instances import WORKLOADS, build_jobs  # noqa: E402

SEEDS = 3000
WORKERS = 2


def main() -> int:
    jobs = {}
    for workload in WORKLOADS:
        for seed in range(SEEDS):
            for job in build_jobs(workload, seed):
                jobs.setdefault(digest_key(job.argv), job)
    print(f"{len(jobs)} distinct jobs", flush=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def digest(job):
        proc = subprocess.run([sys.executable, "-m", "grcodes.cli", *job.argv],
                              capture_output=True, env=env, cwd=ROOT, check=False)
        errors = report_errors(job.kind, proc.stdout, job.params) if proc.returncode == 0 \
            else [f"exit status {proc.returncode}"]
        return job, hashlib.sha256(proc.stdout).hexdigest(), errors

    table, bad = {}, 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for done, (job, sha, errors) in enumerate(pool.map(digest, jobs.values()), 1):
            if errors:
                bad += 1
                print(f"FAILED {job.name}: {errors}", file=sys.stderr, flush=True)
            else:
                table[digest_key(job.argv)] = sha
            if done % 50 == 0:
                print(f"{done}/{len(jobs)}", flush=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(table)} digests, {bad} jobs failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
