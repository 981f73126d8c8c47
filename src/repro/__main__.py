"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``run <experiment>``
    Regenerate one figure/table of the paper through the parallel
    experiment engine.  ``--jobs N`` controls the worker-process count
    (``1`` forces the sequential backend; results are bit-identical),
    ``--seed S`` overrides the experiment's master seed, ``--no-cache``
    bypasses the on-disk result cache and ``--batch B`` scales the
    Monte-Carlo batches.  ``--topology T`` switches topology-aware
    experiments to another registered architecture (heavy-hex, square,
    ring); the selection is validated against the registry and becomes
    part of every Monte-Carlo point's cache key.  The statistics flags
    select the adaptive Monte-Carlo layer: ``--chunk-size C`` streams
    every yield point in O(C) memory, ``--ci-target H`` keeps sampling
    each point until its confidence-interval half-width is at most ``H``
    (capped by ``--max-samples``, default: the batch size).  The tuning
    flags enable the post-fabrication repair stage on tuning-aware
    experiments: ``--tuning STRATEGY`` selects the repair strategy
    (``greedy`` or ``anneal``), ``--max-shift-mhz`` bounds the tuner's
    reach and ``--repair-budget`` caps the accepted shifts per qubit
    (``0`` is a strict no-op baseline).  ``--backend NAME`` selects the
    execution backend (``sequential``, ``threads``, ``processes``,
    ``shared-memory`` or the cost-based ``auto`` default; the
    ``REPRO_BACKEND`` environment variable changes the default) —
    results are bit-identical across backends.  The compiler flags steer the
    application experiments (``fig10``, ``appsweep``):
    ``--benchmarks NAMES`` restricts the compiled benchmark subset
    (comma-separated) and ``--routing NAME`` selects a registered
    routing strategy (``basic`` or ``noise-aware``).  ``--dump-json
    PATH`` writes the experiment's full result — every numeric field,
    confidence intervals included — to a machine-readable JSON file,
    along with engine statistics and routing/result-cache counters.
    ``--trace PATH`` records a span trace of the run (engine batches,
    per-task and per-phase spans, worker-process spans re-parented under
    the submitting task): a ``.jsonl`` path writes one span per line,
    anything else writes Chrome trace-event JSON loadable in Perfetto
    or ``chrome://tracing``.  ``--log-level``/``--log-json`` configure
    the ``repro.*`` structured-logging spine (``REPRO_LOG_LEVEL`` sets
    the default level).
``trace <path>``
    Summarize a trace file produced by ``run --trace``: span count,
    top spans by duration, per-name rollup and the critical path.
    ``--json`` emits the summary as JSON instead of text.
``list``
    Show every registered experiment, topology, repair strategy,
    benchmark, routing strategy and execution backend.
``cache clear``
    Drop the on-disk result cache.
``serve``
    Run the reproduction service: an asyncio HTTP job API over the
    engine (stdlib only, no extra dependencies).  ``--host``/``--port``
    bind the listener (``--port 0`` picks a free port and prints it),
    ``--workers`` sets the concurrent-job count, ``--queue-size`` the
    bounded-queue capacity (submissions beyond it get HTTP 429),
    ``--rate``/``--burst`` enable per-client token-bucket rate limiting,
    ``--max-attempts`` caps transient-failure retries and
    ``--jobs``/``--backend``/``--no-cache`` configure each job's
    execution engine exactly like ``run``, and
    ``--log-level``/``--log-json`` the logging spine.  Submissions with
    identical experiment + parameters + code version coalesce onto one
    in-flight job.  ``GET /metrics`` exposes the process-wide metrics
    registry in Prometheus text format.  See the README's "Reproduction
    as a service" section for the endpoint reference.

Unknown experiment or topology names exit with status 2 and a
did-you-mean suggestion from the corresponding registry.

Examples
--------
::

    python -m repro list
    python -m repro run fig4 --jobs 4 --seed 7
    python -m repro run fig4 --topology square --jobs 2
    python -m repro run topoyield --batch 500
    python -m repro run fig4 --ci-target 0.02 --chunk-size 250 --max-samples 4000
    python -m repro run tunedyield --tuning greedy --max-shift-mhz 100
    python -m repro run repairbudget --tuning anneal --jobs 4
    python -m repro run fig10 --routing noise-aware --benchmarks bv,qaoa
    python -m repro run appsweep --jobs 4 --batch 400
    python -m repro run fig4 --dump-json fig4.json
    python -m repro run fig4 --trace fig4.trace.json --backend processes
    python -m repro trace fig4.trace.json --top 5
    python -m repro run fig4 --log-level debug
    python -m repro run fig4 --backend threads --jobs 4
    python -m repro run fig8 --jobs 4 --batch 2000
    python -m repro cache clear
    python -m repro serve --port 8151 --workers 2
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from repro.analysis.registry import EXPERIMENTS
from repro.analysis.reporting import jsonable
from repro.circuits.benchmarks import BENCHMARK_NAMES
from repro.compiler.pipeline import ROUTING_STRATEGIES
from repro.compiler.routing import routing_cache_stats
from repro.core.architecture import ARCHITECTURES
from repro.core.sample_bank import SAMPLE_BANK_ENV, sample_bank_stats
from repro.engine import BACKENDS, ExecutionEngine, ResultCache, did_you_mean
from repro.obs import configure_logging
from repro.obs import tracing as obs_tracing
from repro.obs.export import format_summary, load_trace, summarize, write_trace
from repro.stats import StatsOptions
from repro.tuning import STRATEGIES, TuningOptions

__all__ = ["main"]


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures/tables on the parallel "
        "experiment engine.",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name (see `list`)")
    run.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes (default: all cores; 1 = sequential)",
    )
    run.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend (sequential, threads, processes, "
        "shared-memory, or auto; default: $REPRO_BACKEND or auto; "
        "results are bit-identical across backends)",
    )
    run.add_argument(
        "--seed", "-s", type=int, default=None, help="master seed override"
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    run.add_argument(
        "--no-sample-bank",
        action="store_true",
        help="disable the common-random-number fabrication sample bank "
        "(sets $REPRO_SAMPLE_BANK=0 so worker processes inherit it)",
    )
    run.add_argument(
        "--batch",
        "-b",
        type=int,
        default=None,
        help="Monte-Carlo batch size override",
    )
    run.add_argument(
        "--topology",
        "-t",
        default=None,
        metavar="NAME",
        help="registered device topology (default: heavy-hex; see `list`)",
    )
    run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="stream yield Monte-Carlo in chunks of this many devices "
        "(O(chunk) instead of O(batch) memory)",
    )
    run.add_argument(
        "--ci-target",
        type=float,
        default=None,
        help="adaptive sampling: draw chunks until the yield CI "
        "half-width is at most this value",
    )
    run.add_argument(
        "--max-samples",
        type=int,
        default=None,
        help="hard per-point sample cap for --ci-target runs "
        "(default: the batch size)",
    )
    run.add_argument(
        "--tuning",
        choices=sorted(STRATEGIES),
        default=None,
        help="enable post-fabrication frequency repair with this strategy",
    )
    run.add_argument(
        "--max-shift-mhz",
        type=_finite_float,
        default=None,
        help="tuner reach: largest intended per-qubit shift in MHz "
        "(implies --tuning greedy when no strategy is given)",
    )
    run.add_argument(
        "--repair-budget",
        type=int,
        default=None,
        help="per-qubit tune-count budget (0 = strict no-op baseline; "
        "implies --tuning greedy when no strategy is given)",
    )
    run.add_argument(
        "--benchmarks",
        default=None,
        metavar="NAMES",
        help="comma-separated benchmark subset for application "
        "experiments (default: fig10 compiles every benchmark, "
        "appsweep a three-benchmark core; see `list`)",
    )
    run.add_argument(
        "--routing",
        default=None,
        metavar="NAME",
        help="registered routing strategy for application experiments "
        "(default: basic; see `list`)",
    )
    run.add_argument(
        "--dump-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the experiment's result (CIs included) to a JSON file",
    )
    run.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record a span trace of the run (.jsonl = one span per "
        "line, anything else = Chrome trace-event JSON for Perfetto)",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="paper-sized configuration sweep (slow)",
    )
    run.add_argument(
        "--quiet", "-q", action="store_true", help="suppress the result table"
    )
    _add_logging_flags(run)

    trace = sub.add_parser(
        "trace", help="summarize a trace file produced by `run --trace`"
    )
    trace.add_argument("path", type=Path, help="trace file (.jsonl or Chrome)")
    trace.add_argument(
        "--top", type=int, default=10, help="longest spans to show (default 10)"
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    sub.add_parser("list", help="list registered experiments")

    cache = sub.add_parser("cache", help="manage the on-disk result cache")
    cache.add_argument("action", choices=("clear", "info"))

    serve = sub.add_parser("serve", help="run the HTTP reproduction service")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8151, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="concurrent jobs (warm pool size)"
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=32,
        help="bounded job-queue capacity (submissions beyond it get 429)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client rate limit in submissions/second (off by default)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=10.0,
        help="per-client burst capacity when --rate is set",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per job for transient failures (1 disables retries)",
    )
    serve.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="engine worker processes per job (default: all cores)",
    )
    serve.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="engine execution backend for every job (see `run --backend`)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    serve.add_argument(
        "--no-sample-bank",
        action="store_true",
        help="disable the common-random-number fabrication sample bank "
        "for every job (sets $REPRO_SAMPLE_BANK=0)",
    )
    _add_logging_flags(serve)
    return parser


def _add_logging_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="repro.* log level (debug, info, warning, error; "
        "default: $REPRO_LOG_LEVEL or warning)",
    )
    sub.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as JSON objects",
    )


def _cmd_list() -> int:
    print("experiments:")
    width = max((len(name) for name in EXPERIMENTS.names()), default=0)
    for spec in EXPERIMENTS.specs():
        aliases = f"  (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"  {spec.name:<{width}}  {spec.description}{aliases}")
    print("\ntopologies (for --topology):")
    width = max((len(name) for name in ARCHITECTURES.names()), default=0)
    for arch in ARCHITECTURES.specs():
        print(f"  {arch.name:<{width}}  {arch.description}")
    print("\nrepair strategies (for --tuning):")
    width = max((len(name) for name in STRATEGIES), default=0)
    for name in sorted(STRATEGIES):
        doc = (STRATEGIES[name].__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<{width}}  {doc}")
    print("\nbenchmarks (for --benchmarks):")
    print("  " + ", ".join(BENCHMARK_NAMES))
    print("\nrouting strategies (for --routing):")
    width = max((len(name) for name in ROUTING_STRATEGIES.names()), default=0)
    for strategy in ROUTING_STRATEGIES.specs():
        print(f"  {strategy.name:<{width}}  {strategy.description}")
    print("\nexecution backends (for --backend / $REPRO_BACKEND):")
    width = max((len(name) for name in BACKENDS.names()), default=0)
    for backend in BACKENDS.specs():
        print(f"  {backend.name:<{width}}  {backend.description}")
    return 0


def _cmd_cache(action: str) -> int:
    cache = ResultCache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
    else:
        print(f"cache directory: {cache.directory}")
        print(f"entries: {len(cache)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        configure_logging(level=args.log_level, json_format=args.log_json)
    except ValueError as exc:
        print(f"invalid logging options: {exc}", file=sys.stderr)
        return 2
    try:
        spec = EXPERIMENTS.get(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    if args.no_sample_bank:
        # The env var (not a process-local flag) so spawned engine worker
        # processes inherit the opt-out.
        os.environ[SAMPLE_BANK_ENV] = "0"

    if args.backend is not None and args.backend not in BACKENDS:
        known = ", ".join(BACKENDS.names())
        suggestion = did_you_mean(args.backend, BACKENDS.names())
        print(
            f"unknown backend {args.backend!r}{suggestion} (known: {known})",
            file=sys.stderr,
        )
        return 2

    if args.topology is not None and args.topology not in ARCHITECTURES:
        known = ", ".join(sorted(ARCHITECTURES.names()))
        suggestion = did_you_mean(args.topology, ARCHITECTURES.names())
        print(
            f"unknown topology {args.topology!r}{suggestion} (known: {known})",
            file=sys.stderr,
        )
        return 2

    benchmarks = None
    if args.benchmarks is not None:
        benchmarks = tuple(
            name.strip() for name in args.benchmarks.split(",") if name.strip()
        )
        for name in benchmarks:
            if name not in BENCHMARK_NAMES:
                known = ", ".join(BENCHMARK_NAMES)
                suggestion = did_you_mean(name, BENCHMARK_NAMES)
                print(
                    f"unknown benchmark {name!r}{suggestion} (known: {known})",
                    file=sys.stderr,
                )
                return 2
        if not benchmarks:
            print("--benchmarks needs at least one name", file=sys.stderr)
            return 2

    if args.routing is not None and args.routing not in ROUTING_STRATEGIES:
        known = ", ".join(ROUTING_STRATEGIES.names())
        suggestion = did_you_mean(args.routing, ROUTING_STRATEGIES.names())
        print(
            f"unknown routing strategy {args.routing!r}{suggestion} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 2

    if (args.benchmarks is not None or args.routing is not None) and not spec.compiler_aware:
        print(
            f"warning: experiment {spec.name!r} does not thread benchmark/"
            "routing selections; --benchmarks/--routing have no effect on it",
            file=sys.stderr,
        )

    stats = None
    if (
        args.chunk_size is not None
        or args.ci_target is not None
        or args.max_samples is not None
    ):
        try:
            stats = StatsOptions(
                chunk_size=args.chunk_size,
                ci_target=args.ci_target,
                max_samples=args.max_samples,
            )
        except ValueError as exc:
            print(f"invalid statistics options: {exc}", file=sys.stderr)
            return 2
        if not spec.stats_aware:
            print(
                f"warning: experiment {spec.name!r} does not use the "
                "statistics options; --chunk-size/--ci-target/--max-samples "
                "have no effect on it",
                file=sys.stderr,
            )

    if args.topology is not None and not spec.topology_aware:
        print(
            f"warning: experiment {spec.name!r} is heavy-hex only; "
            "--topology has no effect on it",
            file=sys.stderr,
        )

    tuning = None
    tuning_requested = (
        args.tuning is not None
        or args.max_shift_mhz is not None
        or args.repair_budget is not None
    )
    if tuning_requested:
        try:
            tuning = TuningOptions.build(
                strategy=args.tuning if args.tuning is not None else "greedy",
                max_shift_ghz=(
                    args.max_shift_mhz / 1000.0
                    if args.max_shift_mhz is not None
                    else None
                ),
                max_tunes_per_qubit=args.repair_budget,
            )
        except (KeyError, ValueError) as exc:
            print(f"invalid tuning options: {exc}", file=sys.stderr)
            return 2
        if not spec.tuning_aware:
            print(
                f"warning: experiment {spec.name!r} does not use the "
                "post-fabrication repair stage; --tuning/--max-shift-mhz/"
                "--repair-budget have no effect on it",
                file=sys.stderr,
            )

    tracer = obs_tracing.Tracer() if args.trace is not None else None
    engine = ExecutionEngine(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        backend=args.backend,
        tracer=tracer,
    )

    def _run() -> tuple:
        return spec.runner(
            engine,
            seed=args.seed,
            batch_size=args.batch,
            full=args.full,
            stats=stats,
            topology=args.topology,
            tuning=tuning,
            benchmarks=benchmarks,
            routing=args.routing,
        )

    started = time.perf_counter()
    if tracer is not None:
        with tracer.activate():
            with obs_tracing.span("run:" + spec.name):
                result, text = _run()
    else:
        result, text = _run()
    elapsed = time.perf_counter() - started

    if tracer is not None:
        write_trace(tracer.spans, str(args.trace))
        print(
            f"[trace] {len(tracer)} span(s) written to {args.trace} "
            f"(trace id {tracer.trace_id})"
        )

    if not args.quiet:
        print(f"[{spec.name}] {spec.description}")
        print(text)
    if args.dump_json is not None:
        payload = {
            "experiment": spec.name,
            "description": spec.description,
            "seed": args.seed,
            "batch_size": args.batch,
            "topology": args.topology,
            "benchmarks": list(benchmarks) if benchmarks else None,
            "routing": args.routing,
            "tuning": jsonable(tuning),
            "elapsed_seconds": elapsed,
            "engine": {
                "jobs": engine.stats.jobs,
                "backend": engine.stats.backend,
                "workers_used": engine.stats.workers_used,
                "tasks_total": engine.stats.tasks_total,
                "tasks_executed": engine.stats.tasks_executed,
                "tasks_fused": engine.stats.tasks_fused,
                "fusion_batches": engine.stats.fusion_batches,
                "cache_hits": engine.stats.cache_hits,
                "wall_seconds": engine.stats.wall_seconds,
                "seconds_by_family": jsonable(dict(engine.stats.seconds_by_family)),
                "seconds_by_phase": jsonable(dict(engine.stats.seconds_by_phase)),
                "routing_cache": routing_cache_stats(),
                "sample_bank": sample_bank_stats(),
                "result_cache": (
                    engine.cache.stats() if engine.cache is not None else None
                ),
            },
            "result": jsonable(result),
            "text": text,
        }
        args.dump_json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[dump] result written to {args.dump_json}")
    print(f"\n[engine] {engine.stats.summary()}")
    print(f"[engine] experiment wall-clock: {elapsed:.2f}s")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        spans = load_trace(str(args.path))
    except FileNotFoundError:
        print(f"no such trace file: {args.path}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"unreadable trace file {args.path}: {exc}", file=sys.stderr)
        return 2
    summary = summarize(spans, top=args.top)
    if args.json:
        print(json.dumps(jsonable(summary), indent=2))
    else:
        print(format_summary(summary))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import JobManager, RateLimiter, RetryPolicy, ServiceServer

    try:
        configure_logging(level=args.log_level, json_format=args.log_json)
    except ValueError as exc:
        print(f"invalid logging options: {exc}", file=sys.stderr)
        return 2
    if args.backend is not None and args.backend not in BACKENDS:
        known = ", ".join(BACKENDS.names())
        suggestion = did_you_mean(args.backend, BACKENDS.names())
        print(
            f"unknown backend {args.backend!r}{suggestion} (known: {known})",
            file=sys.stderr,
        )
        return 2
    try:
        retry = RetryPolicy(max_attempts=args.max_attempts)
    except ValueError as exc:
        print(f"invalid retry options: {exc}", file=sys.stderr)
        return 2
    if args.no_sample_bank:
        os.environ[SAMPLE_BANK_ENV] = "0"
    limiter = (
        RateLimiter(rate=args.rate, burst=args.burst)
        if args.rate is not None
        else None
    )
    engine_options = {
        "jobs": args.jobs,
        "backend": args.backend,
        "use_cache": not args.no_cache,
    }

    async def _serve() -> None:
        manager = JobManager(
            workers=args.workers,
            queue_size=args.queue_size,
            retry=retry,
            limiter=limiter,
            engine_options=engine_options,
        )
        async with manager:
            server = ServiceServer(manager, host=args.host, port=args.port)
            await server.start()
            print(
                f"[serve] listening on http://{server.host}:{server.port} "
                f"(workers={manager.workers}, queue={manager.queue_size})",
                flush=True,
            )
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\n[serve] stopped")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "cache":
            return _cmd_cache(args.action)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except BrokenPipeError:
        # Output piped into a pager/head that quit early (`repro trace
        # ... | head`): not an error.  Point stdout at devnull so the
        # interpreter's exit-time flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
