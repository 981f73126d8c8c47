#!/usr/bin/env python3
"""The repository's end-to-end and per-layer benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {yield,apps,mcm,service} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics the way a CLI user meets
them: every pass is a fresh interpreter with ``jobs = nproc``, the
``auto`` backend and the result cache off (``service`` instead drives
``python -m repro serve`` with its result cache on).  Passes repeat
until ``--seconds`` have been measured; each metric is the median over
the run.  ``--trace 1`` reports the per-layer metrics: engine counters
from one end-to-end pass, then one untraced and one traced sequential
(``jobs = 1``) pass whose difference is the tracing overhead.

Every result is checked (see ``workloads.py`` and ``service_load.py``).
The report lines go to stdout; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every result was correct.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import service_load  # noqa: E402
from stats import percentile, samples_beyond, tail_percentile  # noqa: E402

#: Workloads, metric names and units, and the run length all come from
#: ``BENCHMARK.json`` at the checkout root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Set-up-only server launches per ``service`` run, on top of the
#: measured one (batch workloads take a set-up sample from every pass).
SETUP_PROBES = 3

#: Service jobs whose completion ends the fixed part of the run (``wall_s``).
SERVICE_FIXED_JOBS = service_load.MIN_JOBS

#: Wall-clock budget of one run; passes and the service loop stop short of it.
RUN_BUDGET_S = 165


class PassFailed(RuntimeError):
    pass


def context(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
    }


class Runner:
    """Spawns passes and servers inside a scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.nproc = os.cpu_count() or 1
        self.scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.attempted = 0
        self.problems: list[str] = []
        self.passes: list[dict] = []
        self.latency_by_kind: dict[str, tuple[int, float, float]] = {}
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def env(self) -> dict:
        return {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def spawn(self, workload: str, jobs: int, setup_only: bool = False, trace: bool = False) -> dict:
        """One pass in a fresh interpreter; returns its report."""
        command = [
            sys.executable, str(HERE / "passrun.py"),
            "--workload", workload, "--seed", str(self.seed), "--jobs", str(jobs),
        ]
        command += ["--setup-only"] if setup_only else []
        command += ["--trace"] if trace else []
        load_before = os.getloadavg()[0]
        launch = time.monotonic()
        proc = subprocess.Popen(
            command + ["--launch", repr(launch)],
            cwd=ROOT, env=self.env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"pass overran the {RUN_BUDGET_S} s run budget") from None
        if proc.returncode != 0:
            raise PassFailed(f"pass exited {proc.returncode}: {stderr.strip()[-2000:]}")
        report = json.loads(stdout.strip().splitlines()[-1])
        report["loadavg"] = [load_before, os.getloadavg()[0]]
        if not setup_only:
            report["wall_s"] = report["done"] - report["ready"]
            self.attempted += len(report["jobs"])
            self.problems += [f"{job}: {problem}" for job, problem in report["problems"]]
            self.passes.append(report)
        return report

    # ------------------------------------------------------------ e2e #
    def batch_end_to_end(self) -> dict:
        begin = time.monotonic()
        passes = []
        while not passes or time.monotonic() - begin < self.seconds:
            try:
                passes.append(self.spawn(self.workload, self.nproc))
            except PassFailed as exc:
                self.attempted += 1
                self.problems.append(str(exc))
                break
        if not passes:
            return {}
        setups = [p["setup_s"] for p in passes]
        walls = [p["wall_s"] for p in passes]
        job_seconds = [job["seconds"] for p in passes for job in p["jobs"]]
        jobs = len(job_seconds)
        return {
            "setup_s": statistics.median(setups),
            # The mean, not the median: the engine's per-batch backend and
            # fusion choices can make pass times bimodal.
            "wall_s": statistics.fmean(walls),
            "jobs_per_s": len(job_seconds) / sum(walls),
            "job_p50_s": statistics.median(job_seconds),
            "job_p90_s": percentile(job_seconds, 90),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
            "_basis": {
                "setup_s": f"median of {len(setups)} set-ups",
                "wall_s": f"mean of {len(passes)} passes",
                "jobs_per_s": f"{jobs} jobs over {len(passes)} passes",
                "job_p50_s": f"median of {jobs} jobs",
                "job_p90_s": f"p90 of {jobs} jobs" + _tail_note(jobs),
                "peak_rss_mb": f"median of {len(passes)} passes",
            },
            "_jobs": job_seconds,
        }

    def serve_load(self) -> tuple[list[dict], dict, list[dict], float, float]:
        """One server, one closed loop; returns records, stats, job statuses."""
        server = service_load.Server(ROOT, self.scratch / "serve")
        server.start()
        try:
            begin = time.monotonic()
            records = asyncio.run(
                service_load.closed_loop(
                    server, self.seed, self.nproc, self.seconds, self.remaining() - 15
                )
            )
            stats = asyncio.run(service_load.http(server.host, server.port, "GET", "/stats"))[1]
            statuses = asyncio.run(service_load.http(server.host, server.port, "GET", "/jobs"))[1]
            rss_kb = server.peak_rss_kb()
        except OSError as exc:
            raise RuntimeError(f"service run failed ({exc}); server log: {server.log_tail()}") from exc
        finally:
            server.stop()
        self.attempted += len(records)
        from repro.engine import ExecutionEngine

        engine = ExecutionEngine(jobs=1, use_cache=False)
        self.problems += service_load.check_records(records, self.seed, engine)
        self.latency_by_kind = service_load.latency_by_kind(records)
        for record in records:
            record["done_at"] -= begin
        return records, stats, statuses, rss_kb, server.setup_s

    def service_end_to_end(self) -> dict:
        setups = []
        for probe in range(SETUP_PROBES):
            server = service_load.Server(ROOT, self.scratch / f"probe{probe}")
            server.start()
            server.stop()
            setups.append(server.setup_s)
        records, _stats, _statuses, rss_kb, setup_s = self.serve_load()
        setups.append(setup_s)
        latencies = [r["latency_s"] for r in records]
        finished = sorted(r["done_at"] for r in records)
        if len(records) < SERVICE_FIXED_JOBS:
            self.problems.append(
                f"only {len(records)} of {SERVICE_FIXED_JOBS} jobs finished within the run budget"
            )
        return {
            "setup_s": statistics.median(setups),
            "wall_s": finished[min(SERVICE_FIXED_JOBS, len(records)) - 1],
            "jobs_per_s": len(records) / finished[-1],
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": percentile(latencies, 90),
            "peak_rss_mb": rss_kb / 1024,
            "_basis": {
                "setup_s": f"median of {len(setups)} launches",
                "wall_s": f"time to the {SERVICE_FIXED_JOBS}th of {len(records)} jobs",
                "jobs_per_s": f"{len(records)} jobs",
                "job_p50_s": f"median of {len(records)} jobs",
                "job_p90_s": f"p90 of {len(records)} jobs" + _tail_note(len(records)),
                "peak_rss_mb": "server VmHWM",
            },
            "_jobs": latencies,
        }

    # ---------------------------------------------------------- trace #
    def traced_layers(self, workload: str) -> dict:
        """Untraced and traced sequential passes -> self times + overhead."""
        untraced = self.spawn(workload, 1)
        traced = self.spawn(workload, 1, trace=True)
        layers = dict(traced["layers"])
        runner_s = sum(job["seconds"] for job in traced["jobs"])
        layers["analysis.runner_s"] = runner_s
        layers["obs.tracing_overhead_s"] = runner_s - sum(
            job["seconds"] for job in untraced["jobs"]
        )
        return layers

    def batch_per_layer(self) -> dict:
        engine = self.spawn(self.workload, self.nproc)["engine"]
        layers = self.traced_layers(self.workload)
        layers.update(engine_metrics(engine))
        return layers

    def service_per_layer(self) -> dict:
        records, stats, statuses, _rss, _setup = self.serve_load()
        layers = self.traced_layers("service")
        by_id = {status["id"]: status for status in statuses}
        done = [s for s in statuses if s["finished"] is not None and s["started"] is not None]
        overhead = [
            r["latency_s"] - (by_id[r["id"]]["finished"] - by_id[r["id"]]["created"])
            for r in records
            if r.get("id") in by_id and by_id[r["id"]]["finished"] is not None
        ]
        engines = [s["engine"] for s in statuses if s.get("engine")]
        tasks = sum(e["tasks_total"] for e in engines)
        layers.update(
            {
                "service.queue_wait_s": statistics.median(s["started"] - s["created"] for s in done),
                "service.run_s": statistics.median(s["finished"] - s["started"] for s in done),
                "service.overhead_s": statistics.median(overhead),
                "service.coalesced_share": stats["coalesced"] / max(stats["submitted"], 1),
                "service.jobs_retained": stats["jobs_known"],
                "engine.tasks": tasks,
                "engine.tasks_executed": sum(e["tasks_executed"] for e in engines),
                "engine.fused_tasks": sum(e["tasks_fused"] for e in engines),
                "engine.workers_used": max((e["workers_used"] for e in engines), default=0),
                "engine.batch_s": sum(e["wall_seconds"] for e in engines),
                "engine.cache_hit_ratio": (
                    sum(e["cache_hits"] for e in engines) / tasks if tasks else 0.0
                ),
            }
        )
        return layers


def _tail_note(jobs: int) -> str:
    """Flags a 90th percentile that has fewer than 10 samples beyond it."""
    if samples_beyond(jobs, 90) >= 10:
        return ""
    return " (too few jobs for a latency tail: an interpolated order statistic)"


def engine_metrics(engine: dict) -> dict:
    batch_s = engine["wall_seconds"]
    tasks = engine["tasks_total"]
    return {
        "engine.tasks": tasks,
        "engine.tasks_executed": engine["tasks_executed"],
        "engine.fused_tasks": engine["tasks_fused"],
        "engine.workers_used": engine["workers_used"],
        "engine.batch_s": batch_s,
        "engine.task_s": engine["task_seconds"],
        "engine.busy_ratio": (
            engine["task_seconds"] / (batch_s * engine["jobs"]) if batch_s else 0.0
        ),
        "engine.cache_hit_ratio": engine["cache_hits"] / tasks if tasks else 0.0,
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the workload seed must be non-negative")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    runner = Runner(args.workload, args.seed, args.seconds)
    info = context(args.seed)
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    info["loadavg_before"] = os.getloadavg()
    runner.scratch.mkdir(parents=True, exist_ok=True)
    # Children (passes, servers) inherit this environment: the program's
    # defaults, and nothing written outside the checkout.
    for name in ("REPRO_BACKEND", "REPRO_SAMPLE_BANK", "REPRO_SAMPLE_BANK_BYTES"):
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(runner.scratch / "cache")
    os.environ["TMPDIR"] = str(runner.scratch)
    names = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            values = (
                runner.service_per_layer() if args.workload == "service"
                else runner.batch_per_layer()
            )
        else:
            values = (
                runner.service_end_to_end() if args.workload == "service"
                else runner.batch_end_to_end()
            )
    except (PassFailed, RuntimeError, OSError) as exc:
        runner.attempted = max(runner.attempted, 1)
        runner.problems.append(f"{type(exc).__name__}: {exc}")
        values = {}
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    info["loadavg_after"] = os.getloadavg()

    print("context " + json.dumps(info, sort_keys=True))
    for report in runner.passes:
        print("pass " + json.dumps({
            "wall_s": report.get("wall_s"), "setup_s": report["setup_s"],
            "jobs": [[j["name"], round(j["seconds"], 4)] for j in report["jobs"]],
            "loadavg": report["loadavg"], "rss_kb": report["rss_kb"],
        }))
    basis = values.pop("_basis", {})
    job_seconds = values.pop("_jobs", [])
    for kind, (count, p50, p90) in sorted(runner.latency_by_kind.items()):
        print(f"kind {kind}: {count} jobs, p50 {p50:.4f} s, p90 {p90:.4f} s")
    if job_seconds:
        tail = tail_percentile(job_seconds)
        if tail is not None:
            print(f"tail p{tail[0]:g} = {tail[1]:.4f} s over {tail[2]} jobs")
        else:
            print(f"tail: {len(job_seconds)} jobs are too few for a percentile "
                  "with 10 samples beyond it")
    attempted = max(runner.attempted, 1)
    # A failed operation can report more than one problem.
    failed = min(len(runner.problems), attempted)
    for problem in runner.problems:
        print("problem " + problem)
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} operations)")
    metrics = {}
    for name, unit in names.items() if values else ():
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
        note = f"  [{basis[name]}]" if name in basis else ""
        print(f"{name} = {metrics[name]['value']:.6g} {unit}{note}")
    correct = failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
