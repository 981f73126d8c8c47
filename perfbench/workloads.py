"""The benchmark's batch workloads and their correctness checks.

Each workload is a fixed list of experiment runs ("jobs") derived from
the benchmark's workload seed; a pass executes the list once on one
:class:`repro.engine.ExecutionEngine`.  Why these workloads:

``yield``
    The Fig. 4 heavy-hex grid once through each way the yield model can
    sample it (the legacy single draw, streaming chunks, adaptive
    CI-targeted sampling, shared common-random-number draws) plus a small
    post-fabrication repair run.  Many ~10 ms engine tasks; exercises
    ``core`` sampling and masking, ``stats``, the sample bank (the only
    traffic where it hits) and ``tuning``.  No compiling.
``apps``
    Fig. 10 for ``ghz,bv,qaoa`` on the 40-qubit-chiplet square MCMs:
    almost all of its time is compile tasks, ``ghz`` runs the
    long-path layout search, ``bv``/``qaoa`` route gate by gate.  Few,
    long tasks, so it also shows the engine's load balance.
``mcm``
    Fig. 8 at batch 150 (not the CLI default of 2000; README.md says
    why), chiplets 10/20/40: chiplet bins, MCM assembly,
    characterisation glue and the heavy-hex size search on many small
    chiplets.

Every job's result is checked: at the default seed against the digest
recorded in ``digests.json``, at any seed against invariants that hold
for every correct result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent

#: The workload seed whose results are pinned by ``digests.json``.
DEFAULT_SEED = 1

#: ``PERFBENCH_SMOKE=1`` shrinks every workload to a few seconds (the
#: benchmark's own tests use it); smoke runs skip the digest comparison.
SMOKE = os.environ.get("PERFBENCH_SMOKE") == "1"

#: Yield workload: Fig. 4 grid batch, streaming chunk, adaptive CI
#: target and the repair run's batch (small, so repair stays a minority
#: share of the pass).
YIELD_BATCH = 50 if SMOKE else 500
YIELD_CHUNK = 25 if SMOKE else 250
YIELD_CI_TARGET = 0.03
TUNED_BATCH = 10 if SMOKE else 100

#: Apps workload: the compiled benchmark subset and chiplet size.
APPS_BENCHMARKS = ("bv",) if SMOKE else ("ghz", "bv", "qaoa")
APPS_CHIPLET_SIZES = (40,)
APPS_BATCH = 50 if SMOKE else 200

#: Mcm workload: dies per chiplet bin and per monolithic population.
MCM_BATCH = 100 if SMOKE else 150


def _fig4(engine, seed: int, **options):
    from repro.analysis.figures import run_fig4_yield_sweep

    return run_fig4_yield_sweep(
        batch_size=YIELD_BATCH, seed=seed, engine=engine, **options
    )


def yield_jobs(seed: int) -> list[tuple[str, Callable]]:
    from repro.analysis.registry import EXPERIMENTS
    from repro.stats import StatsOptions

    tuned = EXPERIMENTS.get("tunedyield").runner
    return [
        ("fig4", lambda engine: _fig4(engine, seed)),
        (
            "fig4-stream",
            lambda engine: _fig4(engine, seed, stats=StatsOptions(chunk_size=YIELD_CHUNK)),
        ),
        (
            "fig4-adaptive",
            lambda engine: _fig4(
                engine,
                seed,
                stats=StatsOptions(chunk_size=YIELD_CHUNK, ci_target=YIELD_CI_TARGET),
            ),
        ),
        ("fig4-shared", lambda engine: _fig4(engine, seed, share_draws=True)),
        (
            "tunedyield",
            lambda engine: tuned(engine, seed=seed, batch_size=TUNED_BATCH)[0],
        ),
    ]


def apps_jobs(seed: int) -> list[tuple[str, Callable]]:
    def fig10(engine):
        from repro.analysis.figures import run_fig10_applications
        from repro.analysis.registry import build_study

        study = build_study(engine, seed, APPS_BATCH)
        return run_fig10_applications(
            study,
            chiplet_sizes=APPS_CHIPLET_SIZES,
            benchmarks=APPS_BENCHMARKS,
            seed=seed,
            engine=engine,
        )

    return [("fig10", fig10)]


def mcm_jobs(seed: int) -> list[tuple[str, Callable]]:
    from repro.analysis.registry import EXPERIMENTS

    fig8 = EXPERIMENTS.get("fig8").runner
    return [("fig8", lambda engine: fig8(engine, seed=seed, batch_size=MCM_BATCH)[0])]


def service_jobs(seed: int) -> list[tuple[str, Callable]]:
    """The service stream's first fresh jobs, run in process (traced runs)."""
    import service_load

    specs = service_load.fresh_specs(seed, service_load.REPLAY_JOBS)
    return [
        (
            f"service-{index}:{experiment}",
            lambda engine, e=experiment, p=params: service_load.in_process_result(e, p, engine),
        )
        for index, (experiment, params) in enumerate(specs)
    ]


#: Workload -> its job list.  ``service`` passes are the traced run's
#: in-process replays; its end-to-end runs go through ``service_load``.
JOB_LISTS = {
    "yield": yield_jobs,
    "apps": apps_jobs,
    "mcm": mcm_jobs,
    "service": service_jobs,
}


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
def _canonical(value: Any) -> Any:
    """JSON-ready value with floats rounded to 10 significant digits."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.10g}")
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(result: Any) -> str:
    """Content digest of one job's result (floats to 10 significant digits)."""
    from repro.analysis.reporting import jsonable

    blob = json.dumps(_canonical(jsonable(result)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def recorded_digests() -> dict[str, dict[str, str]]:
    """``{workload: {job: digest}}`` recorded at :data:`DEFAULT_SEED`."""
    return json.loads((HERE / "digests.json").read_text())


def _check_interval(point, cap: int | None, where: str) -> list[str]:
    problems = []
    low, estimate, high = point.ci_low, point.estimate, point.ci_high
    if not (0.0 <= low <= estimate <= high <= 1.0):
        problems.append(f"{where}: CI [{low}, {high}] does not bracket {estimate} in [0, 1]")
    if cap is not None and not 0 < point.samples_used <= cap:
        problems.append(f"{where}: {point.samples_used} samples outside (0, {cap}]")
    return problems


def check_invariants(name: str, result: Any) -> list[str]:
    """Problems found in one job's result (empty when it is sound)."""
    problems: list[str] = []
    if name.startswith("fig4"):
        for key, points in result.results.items():
            for point in points:
                problems += _check_interval(point, YIELD_BATCH, f"{name}{key}@{point.num_qubits}")
    elif name == "tunedyield":
        for topology, points in result.curves.items():
            for point in points:
                problems += _check_interval(point, TUNED_BATCH, f"{name}/{topology}")
                if not 0.0 <= point.as_fab_yield <= point.repaired_yield <= 1.0:
                    problems.append(f"{name}/{topology}: repair lowered the yield")
    elif name == "fig8":
        monolithic = dict(result.monolithic)
        for size, value in monolithic.items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"fig8: monolithic yield {value} at {size}")
        for size, low, high in result.monolithic_ci:
            if not 0.0 <= low <= monolithic[size] <= high <= 1.0:
                problems.append(f"fig8: monolithic CI [{low}, {high}] at {size}")
        for size, value in result.chiplet_yields.items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"fig8: chiplet yield {value} at {size}")
        for series in result.mcm_series.values():
            for entry in series:
                if not all(0.0 <= v <= 1.0 for v in entry[1:]):
                    problems.append(f"fig8: MCM yield {entry}")
        for size, gain in result.yield_improvements.items():
            if not gain >= 0.0:
                problems.append(f"fig8: yield improvement {gain} at {size}")
    elif name == "fig10":
        if not result.rows:
            problems.append("fig10: no rows")
        for row in result.rows:
            where = f"fig10 {row['benchmark']}@{row['num_qubits']}"
            if not (math.isfinite(row["mcm_log10_fidelity"]) and row["mcm_log10_fidelity"] <= 0):
                problems.append(f"{where}: MCM log10 fidelity {row['mcm_log10_fidelity']}")
            if row["mono_log10_fidelity"] is None:
                if row["ratio"] != math.inf:
                    problems.append(f"{where}: zero-yield monolith with ratio {row['ratio']}")
            elif not (math.isfinite(row["ratio"]) and row["ratio"] > 0):
                problems.append(f"{where}: fidelity ratio {row['ratio']}")
    return problems


def check_pass(workload: str, seed: int, results: list[tuple[str, Any]]) -> list[list[str]]:
    """``[job, problem]`` pairs for a pass (empty when every job is correct).

    Every seed is checked against the invariants; the default seed is
    also compared job by job with the recorded digests.
    """
    pinned = seed == DEFAULT_SEED and not SMOKE
    expected = recorded_digests().get(workload, {}) if pinned else {}
    problems = []
    for name, result in results:
        problems += [[name, problem] for problem in check_invariants(name, result)]
        if pinned and expected.get(name) != digest(result):
            problems.append([name, f"digest differs from the recorded one for seed {seed}"])
    return problems


def run_pass(workload: str, seed: int, engine, on_job=None) -> tuple[list[dict], list[tuple[str, Any]]]:
    """Execute one pass; returns per-job timings and ``(name, result)`` pairs.

    ``on_job(name, run)`` may wrap each job's execution (the traced run
    opens its root span there); by default the job runs directly.
    """
    timings: list[dict] = []
    results: list[tuple[str, Any]] = []
    for name, job in JOB_LISTS[workload](seed):
        started = time.perf_counter()
        result = on_job(name, lambda: job(engine)) if on_job else job(engine)
        seconds = time.perf_counter() - started
        timings.append({"name": name, "seconds": seconds, "digest": digest(result)})
        results.append((name, result))
    return timings, results
