"""One benchmark pass in a fresh interpreter.

Usage (spawned by ``run.py``, from the root of a checkout)::

    python3 perfbench/passrun.py --workload yield --seed 1 --jobs 2 \\
        --launch <time.monotonic() of the parent at spawn> [--setup-only] [--trace]

The pass pays what a CLI user pays on every run: interpreter start, the
imports of ``python -m repro`` and engine construction ("ready"), then
the workload's jobs on the ``auto`` backend with the result cache off.
``--setup-only`` stops at ready.  ``--trace`` (meant for ``--jobs 1``)
installs the benchmark's layer probes and a span tracer and reports
per-layer self times.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _delta(before: dict, after: dict, key: str) -> float:
    return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _engine_block(engine) -> dict:
    stats = engine.stats
    return {
        "jobs": stats.jobs,
        "tasks_total": stats.tasks_total,
        "tasks_executed": stats.tasks_executed,
        "tasks_fused": stats.tasks_fused,
        "workers_used": stats.workers_used,
        "cache_hits": stats.cache_hits,
        "wall_seconds": stats.wall_seconds,
        "task_seconds": sum(stats.seconds_by_family.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro.__main__  # noqa: F401  (the CLI's import cost)
    from repro.engine import ExecutionEngine

    engine = ExecutionEngine(jobs=args.jobs, use_cache=False, backend="auto")
    ready = time.monotonic()
    report: dict = {"ready": ready, "setup_s": ready - args.launch}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    import workloads
    from repro.compiler.routing import routing_cache_stats
    from repro.core.sample_bank import sample_bank_stats

    on_job = None
    if args.trace:
        from layers import RUNNER_SPAN, Probe, self_times
        from repro.obs import tracing

        probe = Probe()
        probe.install()
        tracer = tracing.Tracer()

        def on_job(name, call):
            with tracer.activate():
                with tracing.span(RUNNER_SPAN, job=name):
                    return call()

        bank_before = sample_bank_stats()
        routing_before = routing_cache_stats()

    timings, results = workloads.run_pass(args.workload, args.seed, engine, on_job=on_job)
    report["done"] = time.monotonic()
    report["jobs"] = timings
    report["engine"] = _engine_block(engine)

    if args.trace:
        probe.uninstall()
        bank_after = sample_bank_stats()
        routing_after = routing_cache_stats()
        bank_hits = _delta(bank_before, bank_after, "hits")
        bank_lookups = bank_hits + _delta(bank_before, bank_after, "misses")
        routing_hits = _delta(routing_before, routing_after, "hits")
        routing_lookups = routing_hits + _delta(routing_before, routing_after, "misses")
        counts = dict(probe.counts)
        layers = self_times(tracer.spans)
        layers.update(counts)
        layers["core.sample_bank_hit_ratio"] = _ratio(bank_hits, bank_lookups)
        layers["compiler.routing_cache_hit_ratio"] = _ratio(routing_hits, routing_lookups)
        layers["compiler.layout_search_success_ratio"] = _ratio(
            counts.get("compiler.layout_search_found", 0.0),
            counts.get("compiler.layout_search_calls", 0.0),
        )
        report["layers"] = layers
        report["spans"] = len(tracer)

    report["problems"] = workloads.check_pass(args.workload, args.seed, results)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["rss_kb"] = max(usage_self, usage_children)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
