"""E-TUN — post-fabrication repair: throughput and determinism.

Two measurements back the tuning subsystem:

1. **Greedy-repair throughput** — devices repaired per second on a
   collided heavy-hex batch (the regime the ``tunedyield`` experiment
   runs in), plus the recovered-yield gain, for both shipped strategies.
2. **Parallel == sequential bit-identity** — a tuned, chunked yield
   curve (``yield_vs_qubits`` through a 4-worker engine, one task per
   size) must reproduce the sequential in-process run *exactly*: same
   collision-free count, same repaired count, same accepted-shift
   totals.  This is the engine's spawn-seed contract extended through
   the repair stage.

Results are written to ``benchmarks/BENCH_tuning.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.architecture import get_architecture
from repro.core.fabrication import FabricationModel
from repro.core.yield_model import yield_vs_qubits
from repro.engine import ExecutionEngine, ResultCache
from repro.stats import StatsOptions
from repro.tuning import (
    AnnealingRepair,
    GreedyLocalRepair,
    TuningOptions,
    repair_batch,
)

RESULT_PATH = Path(__file__).parent / "BENCH_tuning.json"

#: Device size / precision of the benchmark batch: at 65 qubits and the
#: paper's laser-tuned sigma most dies are collided but repairable — the
#: regime where repair throughput actually matters.
NUM_QUBITS = 65
SIGMA = 0.014
BATCH_SIZE = 600
SEED = 2022

#: Sizes of the parallel bit-identity curve: one engine task each, so
#: all four workers get a point.
CURVE_SIZES = (16, 27, 40, NUM_QUBITS)
CHUNK_SIZE = 150


def _bench_strategy(allocation, frequencies, strategy):
    opts = TuningOptions(strategy=strategy)
    rng = np.random.default_rng(SEED + 1)
    started = time.perf_counter()
    outcome = repair_batch(allocation, frequencies, opts, rng)
    elapsed = time.perf_counter() - started
    collided = int((~outcome.as_fab_mask).sum())
    return {
        "strategy": strategy.name,
        "collided_devices": collided,
        "repaired_devices": outcome.num_repaired,
        "as_fab_yield": round(outcome.num_as_fab / BATCH_SIZE, 4),
        "repaired_yield": round(outcome.num_free / BATCH_SIZE, 4),
        "seconds": round(elapsed, 4),
        "devices_per_second": round(collided / elapsed, 1) if elapsed > 0 else None,
        "total_tunes": outcome.total_tunes,
    }


def test_repair_throughput_and_parallel_bit_identity(tmp_path):
    """Measure repair throughput and pin the parallel determinism contract."""
    arch = get_architecture(None)
    allocation = arch.allocate(arch.lattice(NUM_QUBITS))
    fabrication = FabricationModel(sigma_ghz=SIGMA)
    frequencies = fabrication.sample_batch(
        allocation, BATCH_SIZE, np.random.default_rng(SEED)
    )

    greedy = _bench_strategy(allocation, frequencies, GreedyLocalRepair())
    anneal = _bench_strategy(allocation, frequencies, AnnealingRepair())
    assert greedy["repaired_devices"] > 0, "benchmark batch produced no repairs"
    assert greedy["repaired_yield"] > greedy["as_fab_yield"]

    # Parallel == sequential bit-identity through the chunked pipeline.
    kwargs = dict(
        sigma_ghz=SIGMA,
        step_ghz=allocation.spec.step_ghz,
        sizes=CURVE_SIZES,
        batch_size=BATCH_SIZE,
        seed=SEED,
        stats=StatsOptions(chunk_size=CHUNK_SIZE),
        tuning=TuningOptions(),
    )
    sequential_curve = yield_vs_qubits(**kwargs)
    engine = ExecutionEngine(jobs=4, cache=ResultCache(tmp_path / "cache"))
    parallel_curve = yield_vs_qubits(executor=engine, **kwargs)
    assert sequential_curve.points == parallel_curve.points
    sequential = sequential_curve.at_size(NUM_QUBITS)
    parallel = parallel_curve.at_size(NUM_QUBITS)
    identical = (
        sequential.num_collision_free,
        sequential.num_repaired,
        sequential.tuned_qubits,
        sequential.total_tunes,
    ) == (
        parallel.num_collision_free,
        parallel.num_repaired,
        parallel.tuned_qubits,
        parallel.total_tunes,
    )
    assert identical, "parallel tuned run diverged from the sequential one"
    assert sequential == parallel

    record = {
        "benchmark": "post_fabrication_repair",
        "num_qubits": NUM_QUBITS,
        "sigma_ghz": SIGMA,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "strategies": [greedy, anneal],
        "parallel_bit_identity": {
            "jobs": 4,
            "chunk_size": CHUNK_SIZE,
            "num_collision_free": sequential.num_collision_free,
            "num_repaired": sequential.num_repaired,
            "total_tunes": sequential.total_tunes,
            "workers_used": engine.stats.workers_used,
            "identical": identical,
        },
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\n[tuning] greedy: {greedy['repaired_devices']}/{greedy['collided_devices']} "
        f"collided dies repaired in {greedy['seconds']}s "
        f"({greedy['devices_per_second']} dev/s), yield "
        f"{greedy['as_fab_yield']} -> {greedy['repaired_yield']}"
    )
    print(
        f"[tuning] anneal: {anneal['repaired_devices']}/{anneal['collided_devices']} "
        f"repaired in {anneal['seconds']}s ({anneal['devices_per_second']} dev/s)"
    )
    print(
        f"[tuning] parallel(jobs=4) == sequential: {identical} "
        f"({engine.stats.workers_used} workers used)"
    )
    print(f"[tuning] wrote {RESULT_PATH}")
