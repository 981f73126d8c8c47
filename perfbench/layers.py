"""Per-layer attribution for the benchmark's traced runs.

The program already emits spans for engine batches, engine tasks and
the five pipeline phases (``phase:sample`` ... ``phase:score``).  This
module adds spans and call counts around public functions that have no
span of their own, by wrapping them where their callers look them up:
module-level names are replaced in every ``repro`` module that bound
them, methods are replaced on their class.  The wrappers only exist in
a traced run; the untraced runs execute the program unmodified.

:func:`self_times` turns the collected span list into per-bucket *self*
time: a span's duration minus the part of its interval covered by its
child spans (overlapping children are merged first, so parallel
children are not subtracted twice).  Buckets are named after the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Root span the traced run opens around each experiment runner call.
RUNNER_SPAN = "analysis.runner"

#: Span name -> per-layer self-time metric.  ``task:<family>`` spans
#: belong to the engine; spans of any other name count as unattributed.
SPAN_BUCKETS = {
    RUNNER_SPAN: "analysis.unattributed_s",
    "engine.batch": "engine.self_s",
    "core.sample": "core.sample_s",
    "phase:sample": "core.sample_s",
    "core.mask": "core.mask_s",
    "phase:mask": "core.mask_s",
    "core.assembly": "core.assembly_s",
    "core.lattice": "core.lattice_s",
    "tuning.repair": "tuning.repair_s",
    "phase:repair": "tuning.repair_s",
    "phase:compile": "compiler.compile_s",
    "compiler.pipeline": "compiler.compile_s",
    "compiler.decompose": "compiler.compile_s",
    "compiler.layout": "compiler.layout_s",
    "compiler.layout_search": "compiler.layout_s",
    "compiler.route": "compiler.route_s",
    "compiler.swap-expand": "compiler.expand_s",
    "compiler.metrics": "compiler.metrics_s",
    "simulation.score": "simulation.score_s",
    "phase:score": "simulation.score_s",
}


def bucket_for(name: str) -> str:
    """The self-time metric a span name books to."""
    if name.startswith("task:"):
        return "engine.self_s"
    return SPAN_BUCKETS.get(name, "analysis.unattributed_s")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[dict]) -> dict[str, float]:
    """Sum of span self time per bucket (see :func:`bucket_for`).

    Each record needs ``name``, ``id``, ``parent``, ``ts`` (start) and
    ``dur``; a span's self time is its duration minus the union of its
    direct children's intervals.
    """
    spans = list(spans)
    children: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record.get("parent") is not None:
            children[record["parent"]].append(
                (record["ts"], record["ts"] + record["dur"])
            )
    totals: dict[str, float] = defaultdict(float)
    for record in spans:
        start, end = record["ts"], record["ts"] + record["dur"]
        own = record["dur"] - _covered(children.get(record["id"], []), start, end)
        totals[bucket_for(record["name"])] += max(own, 0.0)
    return dict(totals)


class Probe:
    """Spans and counters around the program's un-spanned public calls.

    :meth:`install` rebinds the wrappers, :meth:`uninstall` restores every
    original binding.  ``counts`` accumulates call and work counts
    (``core.mask_calls``, ``core.dies_screened`` ...).
    """

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- #
    def _wrap(self, span_name: str, fn: Callable, count: Callable | None) -> Callable:
        from repro.obs import tracing

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracing.span(span_name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _patch_function(self, module_name: str, attr: str, span_name: str, count=None) -> None:
        """Rebind ``module.attr`` in every loaded ``repro`` module."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrap(span_name, original, count)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                module, attr, None
            ) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _patch_method(self, cls: type, attr: str, span_name: str, count=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(span_name, raw.__func__, count))
        else:
            wrapped = self._wrap(span_name, raw, count)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _counter(self, key: str) -> Callable:
        def count(args, kwargs, result) -> None:
            self.counts[key] += 1

        return count

    # ---------------------------------------------------------------- #
    def install(self) -> None:
        # Import everything the workloads use first, so that every module
        # binding a wrapped name exists when the names are rebound.
        import repro.analysis.figures  # noqa: F401
        import repro.analysis.registry  # noqa: F401
        import repro.analysis.study  # noqa: F401
        from repro.compiler import pipeline
        from repro.core.architecture import Architecture
        from repro.core.chiplet import ChipletDesign
        from repro.core.fabrication import FabricationModel
        from repro.core.mcm import MCMDesign

        def mask_count(args, kwargs, result) -> None:
            self.counts["core.mask_calls"] += 1
            self.counts["core.dies_screened"] += len(result)

        def layout_search_count(args, kwargs, result) -> None:
            self.counts["compiler.layout_search_calls"] += 1
            self.counts["compiler.layout_search_found"] += result is not None

        def sample_count(args, kwargs, result) -> None:
            self.counts["core.yield_samples"] += len(result)

        self._patch_function(
            "repro.core.collisions", "collision_free_mask", "core.mask", mask_count
        )
        self._patch_function(
            "repro.tuning.repair", "repair_batch", "tuning.repair",
            self._counter("tuning.repair_calls"),
        )
        for name in ("fabricate_chiplet_bin", "assemble_mcms"):
            self._patch_function("repro.core.assembly", name, "core.assembly")
        for name in ("build_heavy_hex", "heavy_hex_by_qubit_count"):
            self._patch_function(
                "repro.topology.heavy_hex", name, "core.lattice",
                self._counter("core.architecture_calls"),
            )
        for cls, attr in (
            (Architecture, "lattice"),
            (Architecture, "allocate"),
            (ChipletDesign, "build"),
            (MCMDesign, "build"),
        ):
            self._patch_method(
                cls, attr, "core.lattice", self._counter("core.architecture_calls")
            )
        self._patch_method(FabricationModel, "sample_batch", "core.sample", sample_count)
        self._patch_function(
            "repro.compiler.layout", "find_long_path", "compiler.layout_search",
            layout_search_count,
        )
        for cls in (
            pipeline.DecomposePass,
            pipeline.LayoutPass,
            pipeline.RoutePass,
            pipeline.SwapExpandPass,
            pipeline.MetricsPass,
        ):
            self._patch_method(cls, "run", "compiler." + cls.name)
        self._patch_method(
            pipeline.PassPipeline, "run", "compiler.pipeline",
            self._counter("compiler.compiles"),
        )
        self._patch_function(
            "repro.simulation.esp", "fidelity_product", "simulation.score"
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
