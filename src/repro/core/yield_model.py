"""Monte-Carlo collision-free yield model (paper Section IV-B, Fig. 4).

The simulation virtually fabricates a batch of devices of any registered
topology (heavy-hex by default; see
:data:`repro.core.architecture.ARCHITECTURES`), samples their qubit
frequencies from the fabrication model, evaluates the seven Table I
collision criteria, and reports the fraction of devices with no
collision — the *collision-free yield*.  Every :class:`YieldResult`
carries a binomial confidence interval (Wilson by default) alongside the
point estimate.

Key entry points
----------------
:func:`simulate_yield_point`
    One self-contained (sigma, step, size) point — the engine task every
    sweep submits.  It runs a sampling *plan* (the legacy single draw, a
    fixed chunked stream, or chunks until a CI target) through one chunk
    loop.
:func:`simulate_yield`
    Yield for one allocation from a caller-supplied generator.
:func:`simulate_yield_with_devices`
    The same, also returning the surviving devices (known-good-die bins).
:func:`yield_vs_qubits`
    Yield curve over a range of device sizes (one curve of Fig. 4).
:func:`detuning_sweep`
    The full Fig. 4 grid: yield vs. qubits for several detuning steps and
    fabrication precisions.

The sweep entry points accept an ``executor`` hook — any object with a
``map_calls(fn, kwargs_list, name=...)`` method, in practice a
:class:`repro.engine.ExecutionEngine` — and submit one task per
(sigma, step, size) point.  Each point derives its own seed from the
master seed by position (``np.random.SeedSequence.spawn``), so parallel
and sequential runs are bit-identical at the same seed.  Within one
point, a chunked plan derives per-chunk seeds the same way (see
:mod:`repro.stats.streaming`), so a streamed run observes literally the
same samples as materialising the whole batch at once, and an adaptive
run observes a prefix of them.

Every entry point also accepts a :class:`repro.tuning.TuningOptions`:
when set, collided devices are handed to the post-fabrication repair
subsystem (:mod:`repro.tuning`) before yield is counted, and the result
is a :class:`RepairedYieldResult` that reports the as-fabricated and
repaired populations separately.  Repair randomness continues each
chunk's own generator after fabrication sampling, so the tuned pipeline
inherits the full parallel==sequential determinism contract; when the
option is unset the kwargs of every submitted point are byte-identical
to the untuned pipeline (see :func:`_tuning_kwargs`), keeping historical
engine cache keys and goldens untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.architecture import DEFAULT_TOPOLOGY, get_architecture
from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import FrequencyAllocation

# Shared with the engine: positional child-seed derivation (execution order
# never changes a point's stream) and the executor dispatch.  Note this
# imports the repro.engine package (stdlib + numpy only, no third-party
# deps); core calls nothing beyond these two helpers at runtime.
from repro.engine.dispatch import run_calls as _run_points
from repro.engine.seeding import spawn_seeds as _point_seeds
from repro.stats import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_CONFIDENCE,
    StatsOptions,
    StreamingEstimator,
    binomial_ci,
    chunk_layout,
    chunk_seed,
)
from repro.topology.base import Lattice
from repro.tuning.repair import TuningOptions, repair_batch

__all__ = [
    "YieldResult",
    "RepairedYieldResult",
    "YieldCurve",
    "simulate_yield",
    "simulate_yield_point",
    "simulate_yield_with_devices",
    "yield_vs_qubits",
    "detuning_sweep",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_SIZE_GRID",
]

#: Batch size used for the paper's Fig. 4 Monte-Carlo runs.
DEFAULT_BATCH_SIZE = 1000

#: Device sizes (qubits) probed by the yield-vs-size curves.
DEFAULT_SIZE_GRID = (
    5, 10, 16, 20, 27, 40, 50, 65, 80, 100, 127, 160, 200, 250, 300,
    400, 500, 650, 800, 1000,
)


@dataclass(frozen=True)
class YieldResult:
    """Collision-free yield at a single parameter point, with error bars.

    Attributes
    ----------
    num_qubits:
        Device size in qubits.
    sigma_ghz:
        Fabrication precision used for the batch.
    step_ghz:
        Ideal detuning between F0/F1/F2.
    batch_size:
        Number of simulated devices (for adaptive runs: the samples the
        stopping rule actually drew, also exposed as ``samples_used``).
    num_collision_free:
        Devices that passed every Table I criterion.
    ci_low, ci_high:
        Binomial confidence interval on the yield.  Computed from the
        counts on construction when not supplied, so every result —
        whatever path produced it — satisfies
        ``ci_low <= estimate <= ci_high``.
    confidence:
        Two-sided confidence level of the interval.
    ci_method:
        Interval construction (``"wilson"`` or ``"jeffreys"``).
    """

    num_qubits: int
    sigma_ghz: float
    step_ghz: float
    batch_size: int
    num_collision_free: int
    ci_low: float | None = None
    ci_high: float | None = None
    confidence: float = DEFAULT_CONFIDENCE
    ci_method: str = "wilson"

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 <= self.num_collision_free <= self.batch_size:
            raise ValueError("num_collision_free must lie in [0, batch_size]")
        if self.ci_low is None or self.ci_high is None:
            interval = binomial_ci(
                self.num_collision_free,
                self.batch_size,
                confidence=self.confidence,
                method=self.ci_method,
            )
            object.__setattr__(self, "ci_low", interval.low)
            object.__setattr__(self, "ci_high", interval.high)

    @property
    def collision_free_yield(self) -> float:
        """Fraction of devices with no frequency collision."""
        return self.num_collision_free / self.batch_size

    @property
    def estimate(self) -> float:
        """The point estimate the interval brackets (alias)."""
        return self.collision_free_yield

    @property
    def samples_used(self) -> int:
        """Monte-Carlo samples behind the estimate (alias of batch_size)."""
        return self.batch_size

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class RepairedYieldResult(YieldResult):
    """A yield point evaluated through the post-fabrication repair stage.

    ``num_collision_free`` (and therefore ``collision_free_yield``)
    counts every good die — as-fabricated survivors *plus* the dies the
    tuner recovered — while the extra fields keep the repaired
    population separately accountable.  Only tuned pipelines produce
    this type, so untuned results (and their goldens) are structurally
    unchanged.

    Attributes
    ----------
    num_repaired:
        Dies that are collision-free only thanks to repair.
    tuned_qubits:
        Qubits that received at least one accepted shift, summed over
        the batch.
    total_tunes:
        Accepted tuning shots summed over the batch.
    """

    num_repaired: int = 0
    tuned_qubits: int = 0
    total_tunes: int = 0

    @property
    def num_as_fab_free(self) -> int:
        """Dies that were collision-free straight out of fabrication."""
        return self.num_collision_free - self.num_repaired

    @property
    def as_fab_yield(self) -> float:
        """Collision-free yield before any repair."""
        return self.num_as_fab_free / self.batch_size

    @property
    def repaired_yield(self) -> float:
        """Collision-free yield after repair (alias of the estimate)."""
        return self.collision_free_yield


@dataclass
class YieldCurve:
    """Collision-free yield as a function of device size.

    ``points`` is append-only and holds each size at most once — that is
    the contract the O(1) size lookups rely on.  The backing index is
    rebuilt when points were appended since the last lookup (and once
    more on a missed lookup); replacing or reordering entries in place is
    unsupported and may serve a stale point.
    """

    sigma_ghz: float
    step_ghz: float
    points: list[YieldResult] = field(default_factory=list)
    _index: dict[int, YieldResult] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _point_index(self, rebuild: bool = False) -> dict[int, YieldResult]:
        if rebuild or len(self._index) != len(self.points):
            self._index.clear()
            self._index.update({p.num_qubits: p for p in self.points})
        return self._index

    @property
    def sizes(self) -> list[int]:
        """Device sizes along the curve."""
        return [p.num_qubits for p in self.points]

    @property
    def yields(self) -> list[float]:
        """Collision-free yields along the curve."""
        return [p.collision_free_yield for p in self.points]

    def at_size(self, num_qubits: int) -> YieldResult:
        """The full :class:`YieldResult` for one size, via an O(1) lookup."""
        try:
            return self._point_index()[num_qubits]
        except KeyError:
            pass
        try:
            return self._point_index(rebuild=True)[num_qubits]
        except KeyError:
            raise KeyError(f"size {num_qubits} not present in the curve") from None

    def yield_at(self, num_qubits: int) -> float:
        """Yield for a specific size (raises if the size was not simulated)."""
        return self.at_size(num_qubits).collision_free_yield


def _fabricate_and_screen(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    length: int,
    rng: np.random.Generator,
    draw_seed,
    thresholds: CollisionThresholds | None,
    tuning: TuningOptions | None,
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int, int]]:
    """Fabricate ``length`` devices from ``rng`` and screen them.

    The one fabricate -> screen body behind every sampler.  Returns the
    frequencies (repaired when ``tuning`` is set), their collision-free
    mask, and the counts ``(num_free, num_repaired, tuned_qubits,
    total_tunes)``.  Repair continues ``rng`` after fabrication
    sampling, so the fabricated devices are bit-identical to the untuned
    run and the repair shots are a pure function of the generator seed.
    ``draw_seed`` is the sample-bank key: the exact seed ``rng`` was
    freshly built from, or ``None`` (see :mod:`repro.core.sample_bank`).
    """
    frequencies = fabrication.sample_batch(allocation, length, rng, draw_seed=draw_seed)
    if tuning is None:
        mask = collision_free_mask(allocation, frequencies, thresholds)
        return frequencies, mask, (int(mask.sum()), 0, 0, 0)
    outcome = repair_batch(allocation, frequencies, tuning, rng, thresholds)
    counts = (
        outcome.num_free,
        outcome.num_repaired,
        outcome.tuned_qubits,
        outcome.total_tunes,
    )
    return outcome.frequencies, outcome.final_mask, counts


def _result(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    trials: int,
    counts: tuple[int, int, int, int],
    tuning: TuningOptions | None,
    confidence: float,
    ci_method: str,
) -> YieldResult:
    """The result for ``counts`` over ``trials`` devices (repaired form when tuned)."""
    num_free, num_repaired, tuned_qubits, total_tunes = counts
    fields = dict(
        num_qubits=allocation.num_qubits,
        sigma_ghz=fabrication.sigma_ghz,
        step_ghz=allocation.spec.step_ghz,
        batch_size=trials,
        num_collision_free=num_free,
        confidence=confidence,
        ci_method=ci_method,
    )
    if tuning is None:
        return YieldResult(**fields)
    return RepairedYieldResult(
        **fields,
        num_repaired=num_repaired,
        tuned_qubits=tuned_qubits,
        total_tunes=total_tunes,
    )


def simulate_yield(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: np.random.Generator | None = None,
    thresholds: CollisionThresholds | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
    ci_method: str = "wilson",
    tuning: TuningOptions | None = None,
    draw_seed=None,
) -> YieldResult:
    """Monte-Carlo collision-free yield for one topology.

    Parameters
    ----------
    allocation:
        Frequency plan of the device under test.
    fabrication:
        Gaussian frequency-scatter model.
    batch_size:
        Number of devices to fabricate virtually.
    rng:
        Source of randomness (a fresh default generator when omitted).
    thresholds:
        Collision windows; defaults to the Table I values.
    confidence, ci_method:
        Parameters of the confidence interval attached to the result.
    tuning:
        Optional post-fabrication repair stage; collided devices are
        repaired (continuing ``rng``) before yield is counted, and the
        result is a :class:`RepairedYieldResult`.
    draw_seed:
        Optional sample-bank key: the exact seed ``rng`` was freshly
        constructed from (see :mod:`repro.core.sample_bank`).  Banked
        hits restore the post-sampling generator state, so the repair
        stream continuing ``rng`` stays bit-identical.
    """
    rng = rng or np.random.default_rng()
    _, _, counts = _fabricate_and_screen(
        allocation, fabrication, batch_size, rng, draw_seed, thresholds, tuning
    )
    return _result(
        allocation, fabrication, batch_size, counts, tuning, confidence, ci_method
    )


def simulate_yield_with_devices(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: np.random.Generator | None = None,
    thresholds: CollisionThresholds | None = None,
    draw_seed=None,
) -> tuple[YieldResult, np.ndarray]:
    """Like :func:`simulate_yield` but also return the surviving devices.

    Returns
    -------
    tuple
        ``(result, frequencies)`` where ``frequencies`` has shape
        ``(num_collision_free, num_qubits)`` and holds the sampled frequency
        profile of every collision-free device — the raw material for
        known-good-die binning and MCM assembly.
    """
    rng = rng or np.random.default_rng()
    frequencies, mask, counts = _fabricate_and_screen(
        allocation, fabrication, batch_size, rng, draw_seed, thresholds, None
    )
    result = _result(
        allocation, fabrication, batch_size, counts, None, DEFAULT_CONFIDENCE, "wilson"
    )
    return result, frequencies[mask]


def simulate_yield_point(
    sigma_ghz: float,
    step_ghz: float,
    num_qubits: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = None,
    thresholds: CollisionThresholds | None = None,
    lattice: Lattice | None = None,
    chunk_size: int | None = None,
    ci_target: float | None = None,
    max_samples: int | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
    ci_method: str = "wilson",
    topology: str | None = None,
    tuning: TuningOptions | None = None,
) -> YieldResult:
    """One self-contained (sigma, step, size) Monte-Carlo point.

    This is the unit of work the sweep entry points submit to the engine:
    a module-level function of picklable arguments, so it runs identically
    in a worker process and in the calling process.  ``topology`` selects
    the registered architecture (lattice factory + frequency plan);
    heavy-hex when omitted.

    The statistics parameters select a sampling *plan* — a list of
    ``(draw_seed, length)`` chunks — and one loop runs it, fabricating
    and screening each chunk from ``default_rng(draw_seed)``:

    * neither ``chunk_size`` nor ``ci_target`` — the legacy single draw,
      the one-chunk plan ``[(seed, batch_size)]``;
    * ``chunk_size`` set — ``batch_size`` devices in spawn-seeded chunks
      (:func:`repro.stats.chunk_seed`), O(chunk) memory;
    * ``ci_target`` set — the same chunks over ``max_samples`` devices
      (``batch_size`` when unset; ``chunk_size`` defaults to
      :data:`repro.stats.DEFAULT_CHUNK_SIZE`), stopping after the first
      chunk at which the CI half-width is at or below the target.  Chunk
      seeds are prefix-stable, so the samples an adaptive run observes
      are the first ``samples_used`` rows of the fixed-size run.

    ``tuning`` repairs each chunk before it is counted.  All statistics,
    topology and tuning parameters participate in the engine's cache key,
    so changing any of them invalidates previously cached points.
    """
    arch = get_architecture(topology)
    if lattice is None:
        lattice = arch.lattice(num_qubits)
    allocation = arch.allocate(lattice, spec=arch.spec(step_ghz=step_ghz))
    fabrication = FabricationModel(sigma_ghz=sigma_ghz)
    if chunk_size is None and ci_target is None:
        plan = [(seed, batch_size)]
    else:
        total = batch_size
        if ci_target is not None and max_samples is not None:
            total = max_samples
        layout = chunk_layout(
            total, chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE
        )
        plan = [(chunk_seed(seed, index), length) for index, length in enumerate(layout)]

    estimator = StreamingEstimator(confidence=confidence, method=ci_method)
    totals = (0, 0, 0, 0)
    for draw_seed, length in plan:
        _, _, counts = _fabricate_and_screen(
            allocation,
            fabrication,
            length,
            np.random.default_rng(draw_seed),
            draw_seed,
            thresholds,
            tuning,
        )
        totals = tuple(map(sum, zip(totals, counts)))
        estimator.update(counts[0], length)
        if ci_target is not None and estimator.half_width() <= ci_target:
            break
    return _result(
        allocation, fabrication, estimator.trials, totals, tuning, confidence, ci_method
    )


def _stats_point_kwargs(stats: StatsOptions | None) -> dict:
    """Per-point kwargs encoding the statistics options.

    Returned empty when no option was set, so legacy sweeps keep their
    exact parameter sets (and therefore their engine cache keys).
    """
    if stats is None or stats.is_default:
        return {}
    return dict(
        chunk_size=stats.chunk_size,
        ci_target=stats.ci_target,
        max_samples=stats.max_samples,
        confidence=stats.confidence,
        ci_method=stats.method,
    )


def _topology_kwargs(topology: str | None) -> dict:
    """Per-point kwargs encoding the topology selection.

    Like :func:`_stats_point_kwargs`, returned empty for the default so
    heavy-hex sweeps keep their exact parameter sets and cache keys;
    any other topology becomes part of every point's cache identity.
    """
    if topology is None or topology == DEFAULT_TOPOLOGY:
        return {}
    return dict(topology=topology)


def _tuning_kwargs(tuning: TuningOptions | None) -> dict:
    """Per-point kwargs encoding the post-fabrication repair options.

    Returned empty when tuning is disabled, so untuned sweeps keep their
    exact parameter sets and engine cache keys; an enabled
    :class:`TuningOptions` (a frozen dataclass tree) becomes part of
    every point's cache identity.
    """
    if tuning is None:
        return {}
    return dict(tuning=tuning)


def yield_vs_qubits(
    sigma_ghz: float,
    step_ghz: float,
    sizes: tuple[int, ...] = DEFAULT_SIZE_GRID,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = 7,
    thresholds: CollisionThresholds | None = None,
    lattices: dict[int, Lattice] | None = None,
    executor=None,
    stats: StatsOptions | None = None,
    topology: str | None = None,
    tuning: TuningOptions | None = None,
) -> YieldCurve:
    """Collision-free yield curve over a range of device sizes.

    Parameters
    ----------
    sigma_ghz:
        Fabrication precision of the batch.
    step_ghz:
        Ideal detuning between consecutive frequencies.
    sizes:
        Device sizes (qubits) to probe.
    batch_size:
        Devices fabricated per size.
    seed:
        Master seed; each size derives its own child seed by position, so
        results do not depend on execution order (``None`` for
        non-deterministic sampling).
    thresholds:
        Collision windows.
    lattices:
        Optional cache mapping size -> pre-built lattice, to avoid repeating
        the lattice search across parameter points.
    executor:
        Optional engine hook (``map_calls``); ``None`` runs in-process.
    stats:
        Optional :class:`repro.stats.StatsOptions` switching every point
        to chunked streaming / adaptive sampling with CIs at the
        requested confidence.
    topology:
        Registered topology name (heavy-hex when omitted).
    tuning:
        Optional post-fabrication repair options applied at every point.
    """
    arch = get_architecture(topology)
    curve = YieldCurve(sigma_ghz=sigma_ghz, step_ghz=step_ghz)
    stats_kwargs = _stats_point_kwargs(stats)
    topo_kwargs = _topology_kwargs(topology)
    tuning_kwargs = _tuning_kwargs(tuning)
    kwargs_list = []
    for size, child_seed in zip(sizes, _point_seeds(seed, len(sizes))):
        if lattices is not None and size in lattices:
            lattice = lattices[size]
        else:
            lattice = arch.lattice(size)
            if lattices is not None:
                lattices[size] = lattice
        kwargs_list.append(
            dict(
                sigma_ghz=sigma_ghz,
                step_ghz=step_ghz,
                num_qubits=size,
                batch_size=batch_size,
                seed=child_seed,
                thresholds=thresholds,
                lattice=lattice,
                **stats_kwargs,
                **topo_kwargs,
                **tuning_kwargs,
            )
        )
    curve.points.extend(
        _run_points(simulate_yield_point, kwargs_list, executor, "yield.point")
    )
    return curve


def detuning_sweep(
    steps_ghz: tuple[float, ...] = (0.04, 0.05, 0.06, 0.07),
    sigmas_ghz: tuple[float, ...] = (0.1323, 0.014, 0.006),
    sizes: tuple[int, ...] = DEFAULT_SIZE_GRID,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = 7,
    thresholds: CollisionThresholds | None = None,
    executor=None,
    stats: StatsOptions | None = None,
    topology: str | None = None,
    tuning: TuningOptions | None = None,
    share_draws: bool = False,
) -> dict[tuple[float, float], YieldCurve]:
    """The full Fig. 4 grid: one yield curve per (step, sigma) combination.

    The grid is flattened into one task batch — ``len(steps) * len(sigmas)
    * len(sizes)`` independent points — before submission, so a parallel
    engine sees the full width of the sweep at once.  Seeding is two-level:
    the master seed spawns one child seed per (step, sigma) curve, and each
    curve spawns per-size point seeds from its child — positionally, never
    by execution order, so the output is independent of both the executor
    and the flattening.  (A curve of this grid therefore matches a lone
    :func:`yield_vs_qubits` call at the curve's *derived* seed, not at the
    master seed.)

    ``share_draws=True`` declares (step, sigma) as the shared-draw axis:
    every combination reuses ONE derived curve seed, so all curves
    fabricate the *same* virtual devices per size — the classic
    common-random-number design (adjacent sweep points compare identical
    noise instead of resampled noise), and the sample bank turns the
    whole grid into one sampling pass per size plus cheap affine
    re-scalings.  The default resamples per combination, preserving the
    historical seed derivation (and the committed goldens) exactly.

    Returns
    -------
    dict
        Mapping ``(step_ghz, sigma_ghz) -> YieldCurve``.
    """
    arch = get_architecture(topology)
    combos = [(step, sigma) for step in steps_ghz for sigma in sigmas_ghz]
    if share_draws:
        curve_seeds = [_point_seeds(seed, 1)[0]] * len(combos)
    else:
        curve_seeds = _point_seeds(seed, len(combos))
    stats_kwargs = _stats_point_kwargs(stats)
    topo_kwargs = _topology_kwargs(topology)
    tuning_kwargs = _tuning_kwargs(tuning)

    lattices: dict[int, Lattice] = {}
    for size in sizes:
        lattices[size] = arch.lattice(size)

    kwargs_list = []
    for (step, sigma), curve_seed in zip(combos, curve_seeds):
        for size, child_seed in zip(sizes, _point_seeds(curve_seed, len(sizes))):
            kwargs_list.append(
                dict(
                    sigma_ghz=sigma,
                    step_ghz=step,
                    num_qubits=size,
                    batch_size=batch_size,
                    seed=child_seed,
                    thresholds=thresholds,
                    lattice=lattices[size],
                    **stats_kwargs,
                    **topo_kwargs,
                    **tuning_kwargs,
                )
            )

    points = _run_points(simulate_yield_point, kwargs_list, executor, "yield.point")
    curves: dict[tuple[float, float], YieldCurve] = {}
    for combo_index, (step, sigma) in enumerate(combos):
        curve = YieldCurve(sigma_ghz=sigma, step_ghz=step)
        curve.points.extend(
            points[combo_index * len(sizes) : (combo_index + 1) * len(sizes)]
        )
        curves[(step, sigma)] = curve
    return curves
