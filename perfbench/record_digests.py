#!/usr/bin/env python3
"""Re-record ``digests.json``: the per-job result digests at the default seed.

Run from the root of a checkout after a change that is *meant* to alter
results::

    python3 perfbench/record_digests.py

Each workload's job list runs once sequentially and once on every core;
the digests are written only when both agree (results are bit-identical
across backends).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, JOB_LISTS  # noqa: E402


def job_digests(workload: str, jobs: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    command = [
        sys.executable, str(HERE / "passrun.py"), "--workload", workload,
        "--seed", str(DEFAULT_SEED), "--jobs", str(jobs), "--launch", repr(time.monotonic()),
    ]
    out = subprocess.run(command, cwd=HERE.parent, env=env, check=True,
                         capture_output=True, text=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    return {job["name"]: job["digest"] for job in report["jobs"]}


def main() -> int:
    digests = {}
    for workload in JOB_LISTS:
        sequential = job_digests(workload, 1)
        parallel = job_digests(workload, os.cpu_count() or 1)
        if sequential != parallel:
            print(f"{workload}: sequential and parallel results differ", file=sys.stderr)
            return 1
        digests[workload] = sequential
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
