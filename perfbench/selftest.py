"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The smoke tests run every workload end to end with ``PERFBENCH_SMOKE=1``
(tiny inputs, one short pass), both untraced and traced.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import service_load  # noqa: E402
import workloads  # noqa: E402
from layers import Probe, self_times  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------- names #
def test_metric_names_are_well_formed():
    for name in [w["name"] for w in run.SPEC["workloads"]] + [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME_RE.fullmatch(name), name
        assert len(name) <= 64


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# ---------------------------------------------------------- percentiles #
@pytest.mark.parametrize(
    "count, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, pct):
    values = [float(v) for v in range(count)]
    chosen, value, reported = tail_percentile(values)
    assert chosen == pct
    assert reported == count
    assert value == pytest.approx(percentile(values, pct))
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_refuses_tiny_samples():
    assert tail_percentile([1.0] * 19) is None


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 90) == 5.0


# ------------------------------------------------------------ self time #
def _span(name, span_id, parent, start, end):
    return {"name": name, "id": span_id, "parent": parent, "ts": start, "dur": end - start}


def test_self_time_merges_overlapping_children():
    spans = [
        _span("analysis.runner", "r", None, 0.0, 10.0),
        _span("core.mask", "a", "r", 1.0, 4.0),
        _span("phase:mask", "b", "r", 3.0, 6.0),  # overlaps a
        _span("tuning.repair", "c", "r", 8.0, 12.0),  # runs past the parent
        _span("phase:mask", "d", "c", 9.0, 10.0),
    ]
    times = self_times(spans)
    # Children cover [1, 6] and [8, 10] of the root: 7 of its 10 seconds.
    assert times["analysis.unattributed_s"] == pytest.approx(3.0)
    assert times["core.mask_s"] == pytest.approx(3.0 + 3.0 + 1.0)
    assert times["tuning.repair_s"] == pytest.approx(3.0)


def test_self_time_of_engine_task_spans():
    spans = [
        _span("engine.batch", "e", None, 0.0, 5.0),
        _span("task:yield.point", "t", "e", 0.5, 4.5),
        _span("phase:sample", "s", "t", 1.0, 2.0),
    ]
    times = self_times(spans)
    assert times["engine.self_s"] == pytest.approx(1.0 + 3.0)
    assert times["core.sample_s"] == pytest.approx(1.0)


def test_probe_rebinds_where_callers_look_names_up_and_restores():
    import repro.core.collisions as collisions
    import repro.core.yield_model as yield_model

    original = collisions.collision_free_mask
    probe = Probe()
    probe.install()
    try:
        assert yield_model.collision_free_mask is not original
        assert yield_model.collision_free_mask is collisions.collision_free_mask
    finally:
        probe.uninstall()
    assert yield_model.collision_free_mask is original
    assert collisions.collision_free_mask is original


def test_latency_by_kind_counts_each_kind():
    records = [{"kind": "fresh", "latency_s": t} for t in (1.0, 2.0, 3.0)]
    records.append({"kind": "repeat", "latency_s": 0.5})
    summary = service_load.latency_by_kind(records)
    assert summary["fresh"] == (3, 2.0, pytest.approx(2.8))
    assert summary["repeat"] == (1, 0.5, 0.5)


# ---------------------------------------------------------- correctness #
def test_invariants_flag_a_broken_interval():
    point = SimpleNamespace(ci_low=0.6, estimate=0.5, ci_high=0.7, samples_used=10, num_qubits=5)
    result = SimpleNamespace(results={(0.06, 0.014): [point]})
    assert workloads.check_invariants("fig4", result)


def test_invariants_flag_a_non_finite_fidelity_ratio():
    row = {"benchmark": "bv", "num_qubits": 160, "mcm_log10_fidelity": -1.0,
           "mono_log10_fidelity": -2.0, "ratio": math.nan}
    assert workloads.check_invariants("fig10", SimpleNamespace(rows=[row]))


def test_default_seed_digest_mismatch_is_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "SMOKE", False)
    monkeypatch.setattr(workloads, "recorded_digests", lambda: {"mcm": {"fig8": "0" * 64}})
    result = SimpleNamespace(monolithic=[], monolithic_ci=[], chiplet_yields={},
                             mcm_series={}, yield_improvements={})
    problems = workloads.check_pass("mcm", workloads.DEFAULT_SEED, [("fig8", result)])
    assert problems and "digest" in problems[0][1]


# ---------------------------------------------------------------- smoke #
def _bench(args: list[str], cwd: Path, smoke: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    if smoke:
        env["PERFBENCH_SMOKE"] = "1"
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_runs_every_workload_end_to_end(workload, trace):
    proc = _bench(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "service":
        assert "kind fresh: " in proc.stdout
    assert not (ROOT / ".perfbench_tmp").exists()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(["--workload", "yield", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
