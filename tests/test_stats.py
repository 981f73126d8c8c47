"""Tests for the adaptive Monte-Carlo statistics layer (``repro.stats``).

Covers the interval constructions, the streaming estimator, the adaptive
stopping rule, and — the load-bearing guarantee — bit-identical parity
between every sampling plan of :func:`simulate_yield_point` (legacy
single draw, chunked stream, CI-targeted stop) and the materialised
monolithic reference batch at the same seed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.collisions import collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import allocate_heavy_hex_frequencies
from repro.core.sample_bank import (
    clear_sample_bank,
    sample_bank_stats,
    set_sample_bank_enabled,
)
from repro.core.yield_model import (
    RepairedYieldResult,
    YieldResult,
    simulate_yield,
    simulate_yield_point,
    yield_vs_qubits,
)
from repro.engine import ExecutionEngine, spawn_seed_at, spawn_seeds
from repro.stats import (
    StatsOptions,
    StreamingEstimator,
    binomial_ci,
    chunk_layout,
    chunk_seed,
    jeffreys_interval,
    normal_quantile,
    samples_for_half_width,
    wilson_interval,
)
from repro.topology.heavy_hex import heavy_hex_by_qubit_count
from repro.tuning import TuningOptions, repair_batch

# Module-level device shared by the parity tests (built once; hypothesis
# dislikes function-scoped fixtures, and the lattice search is not free).
_LATTICE_20 = heavy_hex_by_qubit_count(20)
_ALLOCATION_20 = allocate_heavy_hex_frequencies(_LATTICE_20)
_FABRICATION = FabricationModel(0.014)


def chunked_plan(seed: int | None, total: int, chunk_size: int) -> list[tuple]:
    """The ``(draw_seed, length)`` chunks of a chunked run, derived here."""
    return [
        (chunk_seed(seed, index), length)
        for index, length in enumerate(chunk_layout(total, chunk_size))
    ]


def materialize_seeded_batch(
    allocation, fabrication: FabricationModel, plan: list[tuple]
) -> np.ndarray:
    """The *monolithic* reference batch of a sampling plan.

    Draws every ``(draw_seed, length)`` chunk from a fresh
    ``default_rng(draw_seed)`` — never through the sample bank — into
    one preallocated ``(total, num_qubits)`` array: O(batch) memory, the
    batch the chunk loop of :func:`simulate_yield_point` reduces chunk
    by chunk.  The parity tests pin every sampling plan to it bit for
    bit.
    """
    out = np.empty((sum(n for _, n in plan), allocation.num_qubits))
    start = 0
    for draw_seed, length in plan:
        rng = np.random.default_rng(draw_seed)
        out[start : start + length] = fabrication.sample_batch(allocation, length, rng)
        start += length
    return out


def reference_chunk_counts(allocation, plan: list[tuple], tuning=None) -> list[tuple]:
    """Per-chunk ``(free, length, repaired, tuned_qubits, total_tunes)``.

    Screens the materialised reference batch with ONE mask call; tuned
    runs repair each chunk's rows, continuing that chunk's generator past
    its fabrication draw.
    """
    batch = materialize_seeded_batch(allocation, _FABRICATION, plan)
    as_fab = collision_free_mask(allocation, batch)
    counts, start = [], 0
    for draw_seed, length in plan:
        rows = slice(start, start + length)
        start += length
        if tuning is None:
            counts.append((int(as_fab[rows].sum()), length, 0, 0, 0))
            continue
        rng = np.random.default_rng(draw_seed)
        _FABRICATION.sample_batch(allocation, length, rng)  # advance past the draw
        outcome = repair_batch(allocation, batch[rows].copy(), tuning, rng)
        assert np.array_equal(outcome.as_fab_mask, as_fab[rows])
        counts.append(
            (
                outcome.num_free,
                length,
                outcome.num_repaired,
                outcome.tuned_qubits,
                outcome.total_tunes,
            )
        )
    return counts


@pytest.fixture
def bank_switch():
    """Set the sample bank on/off for one test, then restore the default."""
    clear_sample_bank()
    yield set_sample_bank_enabled
    clear_sample_bank()
    set_sample_bank_enabled(None)


class TestIntervals:
    def test_normal_quantile_matches_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-5)

    @pytest.mark.parametrize("method", ["wilson", "jeffreys"])
    @pytest.mark.parametrize("successes,trials", [(0, 50), (50, 50), (7, 50), (1, 3)])
    def test_interval_brackets_estimate(self, method, successes, trials):
        ci = binomial_ci(successes, trials, method=method)
        assert 0.0 <= ci.low <= ci.estimate <= ci.high <= 1.0
        assert ci.estimate in ci

    def test_wilson_never_degenerates_in_the_tails(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0 and low < 1.0

    def test_jeffreys_tail_conventions(self):
        assert jeffreys_interval(0, 100)[0] == 0.0
        assert jeffreys_interval(100, 100)[1] == 1.0

    def test_width_shrinks_with_samples(self):
        wide = binomial_ci(70, 100)
        narrow = binomial_ci(700, 1000)
        assert narrow.half_width < wide.half_width

    def test_width_grows_with_confidence(self):
        ci90 = binomial_ci(70, 100, confidence=0.90)
        ci99 = binomial_ci(70, 100, confidence=0.99)
        assert ci99.half_width > ci90.half_width
        assert ci99.low < ci90.low and ci99.high > ci90.high

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            binomial_ci(5, 0)
        with pytest.raises(ValueError):
            binomial_ci(-1, 10)
        with pytest.raises(ValueError):
            binomial_ci(11, 10)
        with pytest.raises(ValueError):
            binomial_ci(5, 10, confidence=1.0)
        with pytest.raises(ValueError):
            binomial_ci(5, 10, method="wald")

    @given(
        trials=st.integers(1, 5000),
        frac=st.floats(0.0, 1.0),
        confidence=st.floats(0.5, 0.999),
        method=st.sampled_from(["wilson", "jeffreys"]),
    )
    def test_interval_validity_property(self, trials, frac, confidence, method):
        successes = min(trials, int(round(frac * trials)))
        ci = binomial_ci(successes, trials, confidence=confidence, method=method)
        assert 0.0 <= ci.low <= ci.estimate <= ci.high <= 1.0

    def test_samples_for_half_width_planning(self):
        n = samples_for_half_width(0.5, 0.02)
        assert 2300 <= n <= 2500  # ~ 0.25 * 1.96^2 / 0.0004

    def test_samples_for_half_width_validates(self):
        with pytest.raises(ValueError):
            samples_for_half_width(1.5, 0.02)
        with pytest.raises(ValueError):
            samples_for_half_width(0.5, 0.0)


class TestStreamingEstimator:
    def test_accumulates_and_serves_interval(self):
        estimator = StreamingEstimator()
        estimator.update(10, 50).update(20, 50)
        assert estimator.successes == 30
        assert estimator.trials == 100
        assert estimator.chunks == 2
        assert estimator.estimate == pytest.approx(0.3)
        direct = binomial_ci(30, 100)
        assert estimator.interval() == direct
        assert estimator.half_width() == direct.half_width

    def test_empty_estimator_edges(self):
        estimator = StreamingEstimator()
        assert math.isnan(estimator.estimate)
        assert estimator.half_width() == float("inf")
        with pytest.raises(ValueError):
            estimator.interval()

    def test_invalid_chunks_rejected(self):
        estimator = StreamingEstimator()
        with pytest.raises(ValueError):
            estimator.update(1, 0)
        with pytest.raises(ValueError):
            estimator.update(5, 4)

    def test_chunk_layout(self):
        assert chunk_layout(1000, 250) == [250, 250, 250, 250]
        assert chunk_layout(600, 250) == [250, 250, 100]
        assert chunk_layout(100, 250) == [100]
        with pytest.raises(ValueError):
            chunk_layout(0, 250)
        with pytest.raises(ValueError):
            chunk_layout(100, 0)

    def test_chunk_seed_prefix_stability(self):
        """Chunk i's seed never depends on how many chunks a run draws."""
        assert chunk_seed(None, 3) is None
        for n in (4, 8, 64):
            derived = spawn_seeds(42, n)
            for index in range(4):
                assert chunk_seed(42, index) == derived[index]
                assert spawn_seed_at(42, index) == derived[index]


class TestAdaptiveEstimate:
    """The CI-targeted stopping rule of :func:`simulate_yield_point`."""

    @staticmethod
    def _point(sigma: float = 0.014, **stats):
        return simulate_yield_point(
            sigma, 0.06, 20, seed=9, lattice=_LATTICE_20, **stats
        )

    def test_stops_when_target_reached(self):
        # sigma 0.5 GHz: every die collides, one tail chunk suffices
        result = self._point(0.5, ci_target=0.02, max_samples=10_000, chunk_size=250)
        assert result.num_collision_free == 0
        assert result.samples_used == 250
        assert result.ci_half_width <= 0.02

    def test_respects_sample_cap(self):
        result = self._point(ci_target=0.001, max_samples=1000, chunk_size=250)
        assert result.samples_used == 1000
        assert result.ci_half_width > 0.001

    def test_ragged_cap_layout(self):
        result = self._point(ci_target=0.0, max_samples=600, chunk_size=250)
        assert result.samples_used == 600

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            StatsOptions(ci_target=-0.1)
        with pytest.raises(ValueError):
            StatsOptions(ci_target=0.1, max_samples=0)
        with pytest.raises(ValueError):
            self._point(ci_target=0.1, max_samples=0)


class TestStatsOptions:
    def test_defaults_are_inert(self):
        assert StatsOptions().is_default
        assert not StatsOptions(chunk_size=100).is_default
        assert not StatsOptions(ci_target=0.02).is_default

    def test_validation(self):
        with pytest.raises(ValueError):
            StatsOptions(chunk_size=0)
        with pytest.raises(ValueError):
            StatsOptions(ci_target=-1.0)
        with pytest.raises(ValueError):
            StatsOptions(max_samples=-5)
        with pytest.raises(ValueError):
            StatsOptions(confidence=0.0)


class TestYieldResultCI:
    def test_ci_computed_on_construction(self):
        result = YieldResult(
            num_qubits=20, sigma_ghz=0.014, step_ghz=0.06,
            batch_size=1000, num_collision_free=700,
        )
        assert result.ci_low <= result.estimate <= result.ci_high
        assert result.estimate == result.collision_free_yield
        assert result.samples_used == 1000
        assert result.ci_half_width > 0.0

    def test_tail_results_keep_informative_intervals(self):
        zero = YieldResult(20, 0.014, 0.06, 1000, 0)
        full = YieldResult(20, 0.014, 0.06, 1000, 1000)
        assert zero.ci_low == 0.0 and zero.ci_high > 0.0
        assert full.ci_high == 1.0 and full.ci_low < 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            YieldResult(20, 0.014, 0.06, 0, 0)
        with pytest.raises(ValueError):
            YieldResult(20, 0.014, 0.06, 10, 11)

    def test_legacy_simulate_yield_carries_ci(self, allocation_27, rng):
        result = simulate_yield(allocation_27, FabricationModel(0.014), 200, rng)
        assert result.ci_low <= result.estimate <= result.ci_high


#: The three sampling plans of :func:`simulate_yield_point` (batch 500).
SAMPLERS = {
    "legacy": {},
    "streaming": {"chunk_size": 125},
    "adaptive": {"chunk_size": 100, "ci_target": 0.04, "max_samples": 700},
}


class TestChunkedParity:
    """The acceptance-criteria guarantee: chunked == monolithic, bit for bit."""

    @pytest.mark.parametrize("bank", [True, False], ids=["bank-on", "bank-off"])
    @pytest.mark.parametrize("tuned", [False, True], ids=["untuned", "tuned"])
    @pytest.mark.parametrize("sampler", list(SAMPLERS))
    def test_sampler_matches_materialized_reference(
        self, sampler, tuned, bank, bank_switch
    ):
        bank_switch(bank)
        options = SAMPLERS[sampler]
        tuning = TuningOptions() if tuned else None
        point = dict(
            sigma_ghz=0.014, step_ghz=0.06, num_qubits=20, batch_size=500,
            seed=11, lattice=_LATTICE_20, tuning=tuning, **options,
        )
        result = simulate_yield_point(**point)
        assert simulate_yield_point(**point) == result  # bank hits when on
        assert (sample_bank_stats()["hits"] > 0) == bank

        if sampler == "legacy":
            plan = [(11, 500)]
        else:
            total = options.get("max_samples", 500)
            plan = chunked_plan(11, total, options["chunk_size"])
        used = []
        for counts in reference_chunk_counts(_ALLOCATION_20, plan, tuning):
            used.append(counts)
            free, trials = sum(c[0] for c in used), sum(c[1] for c in used)
            target = options.get("ci_target")
            if target is not None and binomial_ci(free, trials).half_width <= target:
                break
        free, trials, repaired, tuned_qubits, total_tunes = map(sum, zip(*used))
        assert (result.num_collision_free, result.samples_used) == (free, trials)
        assert isinstance(result, RepairedYieldResult) == tuned
        if tuned:
            assert (result.num_repaired, result.tuned_qubits, result.total_tunes) == (
                repaired, tuned_qubits, total_tunes,
            )
            assert result.repaired_yield >= result.as_fab_yield
        if sampler == "adaptive":
            # the target stops the run strictly inside the sample cap
            assert result.samples_used < options["max_samples"]

    @pytest.mark.parametrize("chunk_size", [64, 250, 800, 1000])
    def test_materialized_batch_prefix_stability(self, chunk_size):
        """Same chunk partition -> same bits; the chunk partition is a prefix."""
        plan = chunked_plan(3, 500, chunk_size)
        full = materialize_seeded_batch(_ALLOCATION_20, _FABRICATION, plan)
        assert full.shape == (500, 20)
        again = materialize_seeded_batch(_ALLOCATION_20, _FABRICATION, plan)
        assert np.array_equal(full, again)
        longer = materialize_seeded_batch(
            _ALLOCATION_20, _FABRICATION, chunked_plan(3, 1500, chunk_size)
        )
        usable = sum(n for n in chunk_layout(500, chunk_size) if n == chunk_size)
        assert np.array_equal(full[:usable], longer[:usable])

    def test_adaptive_observes_a_prefix_of_the_fixed_batch(self):
        """With a zero target the adaptive run must replay the fixed batch."""
        point = dict(seed=5, lattice=_LATTICE_20, chunk_size=250)
        fixed = simulate_yield_point(0.014, 0.06, 20, batch_size=1000, **point)
        adaptive = simulate_yield_point(
            0.014, 0.06, 20, ci_target=0.0, max_samples=1000, **point
        )
        assert adaptive.num_collision_free == fixed.num_collision_free
        assert adaptive.samples_used == fixed.samples_used == 1000

    def test_adaptive_stops_early_in_the_tail(self):
        result = simulate_yield_point(
            0.014, 0.06, 300, ci_target=0.02, max_samples=4000, chunk_size=250, seed=7
        )
        assert result.samples_used == 250  # one chunk: yield ~ 0
        assert result.ci_half_width <= 0.02
        assert result.ci_low <= result.estimate <= result.ci_high

    def test_chunked_points_match_across_executors(self):
        options = StatsOptions(chunk_size=250)
        sweep = dict(sizes=(20,), batch_size=750, seed=13, stats=options)
        serial = yield_vs_qubits(0.014, 0.06, **sweep)
        parallel = yield_vs_qubits(
            0.014, 0.06, executor=ExecutionEngine(jobs=2, use_cache=False), **sweep
        )
        assert serial.points == parallel.points
        point_seed = spawn_seeds(13, 1)[0]
        reference = reference_chunk_counts(
            _ALLOCATION_20, chunked_plan(point_seed, 750, 250)
        )
        assert serial.at_size(20).num_collision_free == sum(c[0] for c in reference)

    @given(
        batch_size=st.integers(10, 200),
        chunk_size=st.integers(1, 250),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_streaming_parity_property(self, batch_size, chunk_size, seed):
        """For any (batch, chunk, seed): streaming == monolithic reduce."""
        lattice = heavy_hex_by_qubit_count(5)
        allocation = allocate_heavy_hex_frequencies(lattice)
        fabrication = FabricationModel(0.05)
        batch = materialize_seeded_batch(
            allocation, fabrication, chunked_plan(seed, batch_size, chunk_size)
        )
        monolithic = int(collision_free_mask(allocation, batch).sum())
        streamed = simulate_yield_point(
            0.05, 0.06, 5, batch_size, seed=seed, lattice=lattice, chunk_size=chunk_size
        )
        assert streamed.num_collision_free == monolithic

    def test_point_dispatch_selects_sampler(self):
        legacy = simulate_yield_point(0.014, 0.06, 20, 500, seed=7, lattice=_LATTICE_20)
        streamed = simulate_yield_point(
            0.014, 0.06, 20, 500, seed=7, lattice=_LATTICE_20, chunk_size=125
        )
        adaptive = simulate_yield_point(
            0.014, 0.06, 20, 500, seed=7, lattice=_LATTICE_20,
            chunk_size=125, ci_target=0.1,
        )
        batch = materialize_seeded_batch(
            _ALLOCATION_20, _FABRICATION, chunked_plan(7, 500, 125)
        )
        assert streamed.num_collision_free == int(
            collision_free_mask(_ALLOCATION_20, batch).sum()
        )
        assert adaptive.samples_used <= streamed.samples_used
        # the legacy sampler is one draw from the point seed itself
        single = materialize_seeded_batch(_ALLOCATION_20, _FABRICATION, [(7, 500)])
        assert legacy.batch_size == 500
        assert legacy.num_collision_free == int(
            collision_free_mask(_ALLOCATION_20, single).sum()
        )

    def test_sweep_accepts_stats_options(self):
        options = StatsOptions(ci_target=0.05, chunk_size=100, max_samples=600)
        curve = yield_vs_qubits(
            0.014, 0.06, sizes=(10, 100), batch_size=400, seed=3, stats=options
        )
        small, large = curve.at_size(10), curve.at_size(100)
        assert small.ci_low <= small.estimate <= small.ci_high
        # the deep-tail point stops early, the mid-yield point samples more
        assert large.samples_used <= small.samples_used
        assert large.samples_used <= 600
