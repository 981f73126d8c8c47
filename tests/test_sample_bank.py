"""The common-random-number sample bank (PR 10).

Four layers of guarantees:

* **The core NumPy contract** — ``Generator.normal(0, sigma, size)`` is
  bitwise ``sigma * standard_normal(size)`` at the same generator state,
  and the affine form ``ideal + sigma * z`` matches the historical
  ``ideal + normal(...)`` for every sigma *including zero* (where the
  raw noise arrays differ only in the sign of zero, which the add
  normalises).  Property-tested so a NumPy internals change under us
  fails loudly; CI runs this suite on the oldest supported NumPy.
* **Bank mechanics** — hits restore the post-draw generator state (the
  downstream repair stream continues bit-identically), LRU eviction
  respects the byte cap, oversize entries and contract violations fall
  back to direct sampling.
* **Pipeline parity** — banked runs equal unbanked runs equal engine
  runs at any ``--jobs``, tuned or untuned; every committed golden is
  re-checked with the bank *disabled* (the default tier-1 suite covers
  enabled).
* **Shared-draw axes** — ``share_draws`` on the sweep helpers hands
  combinations the same child seed without disturbing the historical
  derivation when off.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_golden_regression as golden
from test_stats import chunked_plan, materialize_seeded_batch
from repro.core.fabrication import FabricationModel
from repro.core.sample_bank import (
    SAMPLE_BANK_ENV,
    SampleBank,
    banked_standard_normal,
    clear_sample_bank,
    sample_bank_enabled,
    sample_bank_stats,
    set_sample_bank_enabled,
)
from repro.core.yield_model import detuning_sweep, simulate_yield_point
from repro.engine.seeding import spawn_seeds

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
SIGMAS = st.floats(min_value=1e-6, max_value=16.0, allow_nan=False)
ROWS = st.integers(min_value=1, max_value=40)
COLS = st.integers(min_value=1, max_value=32)


@pytest.fixture(autouse=True)
def _fresh_bank():
    """Every test starts (and leaves) a clean, env-controlled bank."""
    clear_sample_bank()
    set_sample_bank_enabled(None)
    yield
    clear_sample_bank()
    set_sample_bank_enabled(None)


# ---------------------------------------------------------------------- #
# The NumPy contract the bank is built on
# ---------------------------------------------------------------------- #
class TestNormalScalingIdentity:
    @given(seed=SEEDS, sigma=SIGMAS, rows=ROWS, cols=COLS)
    def test_normal_is_scaled_standard_normal_bitwise(self, seed, sigma, rows, cols):
        """normal(0, sigma) == sigma * standard_normal, bytes and state."""
        a_rng = np.random.default_rng(seed)
        b_rng = np.random.default_rng(seed)
        a = a_rng.normal(0.0, sigma, size=(rows, cols))
        b = sigma * b_rng.standard_normal((rows, cols))
        assert a.tobytes() == b.tobytes()
        assert a_rng.bit_generator.state == b_rng.bit_generator.state

    @given(seed=SEEDS, sigma=st.one_of(st.just(0.0), SIGMAS), rows=ROWS, cols=COLS)
    def test_affine_form_matches_legacy_for_every_sigma(self, seed, sigma, rows, cols):
        """ideal + normal(0, sigma) == (z * sigma) += ideal, incl. sigma=0.

        At sigma=0 the raw noise arrays differ in zero sign (0.0 * z is
        -0.0 for negative z) but the add normalises it, so the fabricated
        frequencies — the only thing downstream code sees — are bitwise
        identical.
        """
        ideal = np.linspace(5.0, 5.12, cols)
        legacy_rng = np.random.default_rng(seed)
        legacy = ideal + legacy_rng.normal(0.0, sigma, size=(rows, cols))
        split_rng = np.random.default_rng(seed)
        split = split_rng.standard_normal((rows, cols)) * sigma
        split += ideal
        assert legacy.tobytes() == split.tobytes()
        assert legacy_rng.bit_generator.state == split_rng.bit_generator.state

    @given(seed=SEEDS, sigma=st.one_of(st.just(0.0), SIGMAS), rows=ROWS)
    @settings(max_examples=15)
    def test_sample_batch_matches_legacy_normal_draw(
        self, allocation_27, seed, sigma, rows
    ):
        """The refactored sample_batch reproduces the historical draw."""
        fab = FabricationModel(sigma_ghz=sigma)
        legacy_rng = np.random.default_rng(seed)
        legacy = allocation_27.ideal_frequencies[np.newaxis, :] + legacy_rng.normal(
            0.0, sigma, size=(rows, allocation_27.num_qubits)
        )
        new_rng = np.random.default_rng(seed)
        new = fab.sample_batch(allocation_27, rows, new_rng, draw_seed=seed)
        assert legacy.tobytes() == new.tobytes()
        assert legacy_rng.bit_generator.state == new_rng.bit_generator.state


# ---------------------------------------------------------------------- #
# Bank mechanics
# ---------------------------------------------------------------------- #
class TestBankMechanics:
    def test_hit_returns_same_draws_and_restores_state(self):
        bank = SampleBank(max_bytes=10**7)
        miss_rng = np.random.default_rng(42)
        z_miss = bank.standard_normal(42, (10, 7), miss_rng)
        state_after_draw = miss_rng.bit_generator.state
        tail_miss = miss_rng.standard_normal(5)

        hit_rng = np.random.default_rng(42)
        z_hit = bank.standard_normal(42, (10, 7), hit_rng)
        assert z_hit.tobytes() == z_miss.tobytes()
        assert hit_rng.bit_generator.state == state_after_draw
        tail_hit = hit_rng.standard_normal(5)
        assert tail_hit.tobytes() == tail_miss.tobytes()
        assert bank.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "bypasses": 0,
            "oversize": 0,
            "entries": 1,
            "bytes": z_miss.nbytes,
        }

    def test_banked_arrays_are_read_only(self):
        bank = SampleBank(max_bytes=10**6)
        z = bank.standard_normal(1, (4, 4), np.random.default_rng(1))
        with pytest.raises(ValueError):
            z[0, 0] = 0.0

    def test_lru_eviction_respects_byte_cap(self):
        entry_bytes = 10 * 10 * 8
        bank = SampleBank(max_bytes=3 * entry_bytes)
        for seed in (1, 2, 3):
            bank.standard_normal(seed, (10, 10), np.random.default_rng(seed))
        # Touch seed 1 so seed 2 is the least recently used.
        bank.standard_normal(1, (10, 10), np.random.default_rng(1))
        bank.standard_normal(4, (10, 10), np.random.default_rng(4))
        stats = bank.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 3
        assert stats["bytes"] == 3 * entry_bytes
        # Seed 2 was evicted (miss again); seeds 1 and 4 are resident.
        before = bank.stats()["misses"]
        bank.standard_normal(2, (10, 10), np.random.default_rng(2))
        assert bank.stats()["misses"] == before + 1
        hits_before = bank.stats()["hits"]
        bank.standard_normal(4, (10, 10), np.random.default_rng(4))
        assert bank.stats()["hits"] == hits_before + 1

    def test_oversize_draws_are_served_but_not_stored(self):
        bank = SampleBank(max_bytes=100)
        z = bank.standard_normal(7, (10, 10), np.random.default_rng(7))
        reference = np.random.default_rng(7).standard_normal((10, 10))
        assert z.tobytes() == reference.tobytes()
        stats = bank.stats()
        assert stats["oversize"] == 1
        assert stats["entries"] == 0

    def test_contract_violation_bypasses_the_bank(self):
        """A generator with history cannot be banked under its seed."""
        bank = SampleBank(max_bytes=10**6)
        rng = np.random.default_rng(3)
        rng.standard_normal(1)  # advance: rng no longer "fresh from 3"
        reference_rng = np.random.default_rng(3)
        reference_rng.standard_normal(1)
        z = bank.standard_normal(3, (4, 4), rng)
        assert z.tobytes() == reference_rng.standard_normal((4, 4)).tobytes()
        stats = bank.stats()
        assert stats["bypasses"] == 1
        assert stats["entries"] == 0

    def test_unhashable_seed_bypasses_the_bank(self):
        bank = SampleBank(max_bytes=10**6)
        seed = [1, 2]  # a valid numpy seed spec, but not content-addressable
        z = bank.standard_normal(seed, (3, 3), np.random.default_rng(seed))
        assert z.tobytes() == np.random.default_rng([1, 2]).standard_normal(
            (3, 3)
        ).tobytes()
        assert bank.stats()["bypasses"] == 1

    def test_tuple_seeds_are_banked(self):
        """Study-style tuple seeds are first-class bank keys."""
        bank = SampleBank(max_bytes=10**6)
        key = (2022, 3, 65)
        bank.standard_normal(key, (5, 5), np.random.default_rng(key))
        bank.standard_normal(key, (5, 5), np.random.default_rng(key))
        assert bank.stats()["hits"] == 1

    def test_none_seed_skips_banking(self):
        rng = np.random.default_rng(9)
        reference = np.random.default_rng(9).standard_normal((3, 3))
        z = banked_standard_normal(None, (3, 3), rng)
        assert z.tobytes() == reference.tobytes()
        assert sample_bank_stats()["entries"] == 0

    def test_env_var_disables_banking(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_BANK_ENV, "0")
        assert not sample_bank_enabled()
        banked_standard_normal(5, (3, 3), np.random.default_rng(5))
        assert sample_bank_stats()["entries"] == 0
        monkeypatch.setenv(SAMPLE_BANK_ENV, "1")
        assert sample_bank_enabled()

    def test_programmatic_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_BANK_ENV, "0")
        set_sample_bank_enabled(True)
        assert sample_bank_enabled()
        set_sample_bank_enabled(None)
        assert not sample_bank_enabled()

    def test_clear_resets_counters_and_entries(self):
        banked_standard_normal(11, (4, 4), np.random.default_rng(11))
        assert sample_bank_stats()["entries"] == 1
        clear_sample_bank()
        stats = sample_bank_stats()
        assert stats["entries"] == 0
        assert stats["misses"] == 0
        assert stats["bytes"] == 0


# ---------------------------------------------------------------------- #
# Pipeline parity: banked == unbanked == parallel, goldens untouched
# ---------------------------------------------------------------------- #
SMALL_SWEEP = dict(
    steps_ghz=(0.05, 0.06),
    sigmas_ghz=(0.014, 0.1323),
    sizes=(10, 27),
    batch_size=120,
    seed=7,
)


def _flatten(curves):
    return [
        (key, p.num_qubits, p.num_collision_free, p.batch_size, p.ci_low, p.ci_high)
        for key in sorted(curves)
        for p in curves[key].points
    ]


class TestPipelineParity:
    @pytest.mark.parametrize("share_draws", [False, True])
    def test_bank_on_off_results_identical(self, share_draws):
        set_sample_bank_enabled(True)
        banked = detuning_sweep(**SMALL_SWEEP, share_draws=share_draws)
        set_sample_bank_enabled(False)
        unbanked = detuning_sweep(**SMALL_SWEEP, share_draws=share_draws)
        assert _flatten(banked) == _flatten(unbanked)

    def test_share_draws_collapses_sampling_to_one_pass_per_size(self):
        set_sample_bank_enabled(True)
        detuning_sweep(**SMALL_SWEEP, share_draws=True)
        stats = sample_bank_stats()
        num_combos = len(SMALL_SWEEP["steps_ghz"]) * len(SMALL_SWEEP["sigmas_ghz"])
        assert stats["misses"] == len(SMALL_SWEEP["sizes"])
        assert stats["hits"] == len(SMALL_SWEEP["sizes"]) * (num_combos - 1)
        assert stats["bypasses"] == 0

    @pytest.mark.parametrize(
        "backend,jobs", [("threads", 3), ("processes", 2)]
    )
    def test_cross_jobs_parity_with_bank(self, backend, jobs):
        """Engine runs at any --jobs reproduce the sequential banked sweep."""
        from repro.engine import ExecutionEngine

        set_sample_bank_enabled(True)
        sequential = detuning_sweep(**SMALL_SWEEP, share_draws=True)
        engine = ExecutionEngine(jobs=jobs, use_cache=False, backend=backend)
        parallel = detuning_sweep(**SMALL_SWEEP, share_draws=True, executor=engine)
        assert _flatten(parallel) == _flatten(sequential)

    def test_repair_stream_bit_identical_after_bank_hit(self):
        """Tuned runs: the repair rng continues identically through a hit."""
        from repro.tuning import TuningOptions

        point = dict(
            sigma_ghz=0.05,
            step_ghz=0.06,
            num_qubits=27,
            batch_size=120,
            seed=123,
            tuning=TuningOptions(),
        )
        set_sample_bank_enabled(True)
        first = simulate_yield_point(**point)  # bank miss
        second = simulate_yield_point(**point)  # bank hit, repair continues
        set_sample_bank_enabled(False)
        unbanked = simulate_yield_point(**point)
        assert first == second == unbanked
        assert first.total_tunes == unbanked.total_tunes
        assert first.num_repaired == unbanked.num_repaired

    def test_materialize_preallocated_matches_concatenated_chunks(
        self, allocation_27, fabrication
    ):
        """The bank-free preallocated reference == banked chunk draws."""
        plan = chunked_plan(7, 130, 50)
        materialized = materialize_seeded_batch(allocation_27, fabrication, plan)
        set_sample_bank_enabled(True)
        for _ in range(2):  # misses, then hits
            chunks = [
                fabrication.sample_batch(
                    allocation_27, length, np.random.default_rng(seed), draw_seed=seed
                )
                for seed, length in plan
            ]
            reference = np.concatenate(chunks, axis=0)
            assert materialized.tobytes() == reference.tobytes()
        assert sample_bank_stats()["hits"] == len(plan)
        assert materialized.flags.c_contiguous
        assert materialized.shape == (130, allocation_27.num_qubits)

    @pytest.mark.parametrize("name", sorted(golden.GOLDEN_PARAMS))
    def test_goldens_unchanged_with_bank_disabled(self, name):
        """Every committed golden holds at 1e-9 with the bank OFF.

        The regular golden suite runs with the bank at its default
        (enabled), so together the two suites pin the acceptance
        criterion: goldens unchanged with the bank on AND off.
        """
        set_sample_bank_enabled(False)
        actual = golden._run_experiment(name)
        golden_path = golden.GOLDEN_DIR / f"{name}.json"
        assert golden_path.exists(), f"no committed golden for {name!r}"
        committed = json.loads(golden_path.read_text())
        problems = golden._drift(committed, actual)
        assert not problems, (
            f"{name} drifted with the bank disabled:\n" + "\n".join(problems[:10])
        )


# ---------------------------------------------------------------------- #
# Shared-draw axes on the sweep helpers
# ---------------------------------------------------------------------- #
def _record_runner(seed=None, **params):
    return dict(params, seed=seed)


def _value_runner(value, seed=None):
    return {"value": value, "seed": seed}


class TestSharedDrawAxes:
    def test_grid_sweep_shares_seeds_along_declared_dims(self):
        from repro.analysis.sweeps import grid_sweep

        records = grid_sweep(
            {"a": [1, 2], "b": [10, 20, 30]},
            _record_runner,
            seed=5,
            share_draws=("b",),
        )
        by_a = {}
        for record in records:
            by_a.setdefault(record["a"], set()).add(record["result"]["seed"])
        # One seed per a-value, shared across every b.
        assert all(len(seeds) == 1 for seeds in by_a.values())
        assert by_a[1] != by_a[2]
        assert sorted(s for seeds in by_a.values() for s in seeds) == sorted(
            spawn_seeds(5, 2)
        )

    def test_grid_sweep_default_matches_historical_derivation(self):
        from repro.analysis.sweeps import grid_sweep

        records = grid_sweep({"a": [1, 2], "b": [10, 20]}, _record_runner, seed=5)
        assert [r["result"]["seed"] for r in records] == spawn_seeds(5, 4)

    def test_grid_sweep_rejects_unknown_share_dim(self):
        from repro.analysis.sweeps import grid_sweep

        with pytest.raises(ValueError, match="share_draws"):
            grid_sweep({"a": [1]}, _record_runner, seed=5, share_draws=("nope",))

    def test_sweep_parameter_share_draws_single_seed(self):
        from repro.analysis.sweeps import sweep_parameter

        pairs = sweep_parameter(
            [1, 2, 3], _value_runner, seed=9, share_draws=True
        )
        seeds = {result["seed"] for _, result in pairs}
        assert seeds == {spawn_seeds(9, 1)[0]}

    def test_detuning_sweep_share_draws_defaults_off(self):
        """The historical derivation is untouched when share_draws is off."""
        baseline = detuning_sweep(**SMALL_SWEEP)
        again = detuning_sweep(**SMALL_SWEEP, share_draws=False)
        assert _flatten(baseline) == _flatten(again)


# ---------------------------------------------------------------------- #
# CLI and observability surfaces
# ---------------------------------------------------------------------- #
class TestSurfaces:
    def test_metrics_registry_carries_bank_events(self):
        from repro.obs.metrics import REGISTRY

        banked_standard_normal(21, (4, 4), np.random.default_rng(21))
        banked_standard_normal(21, (4, 4), np.random.default_rng(21))
        snapshot = REGISTRY.snapshot()
        series = snapshot["repro_sample_bank_events_total"]["series"]
        by_event = {
            labels.get("event"): value
            for labels, value in (
                (dict(entry["labels"]), entry["value"]) for entry in series
            )
        }
        assert by_event.get("miss", 0) >= 1
        assert by_event.get("hit", 0) >= 1

    def test_cli_no_sample_bank_flag_and_dump_json_block(self, tmp_path):
        from repro.__main__ import main

        dump = tmp_path / "out.json"
        try:
            rc = main(
                [
                    "run",
                    "fig6",
                    "--batch",
                    "2000",
                    "--seed",
                    "7",
                    "--jobs",
                    "1",
                    "--no-cache",
                    "--no-sample-bank",
                    "--quiet",
                    "--dump-json",
                    str(dump),
                ]
            )
            assert rc == 0
            payload = json.loads(dump.read_text())
            bank = payload["engine"]["sample_bank"]
            assert bank["enabled"] is False
            assert bank["entries"] == 0
        finally:
            os.environ.pop(SAMPLE_BANK_ENV, None)

    def test_dump_json_reports_bank_traffic_when_enabled(self, tmp_path):
        from repro.__main__ import main

        dump = tmp_path / "out.json"
        rc = main(
            [
                "run",
                "fig6",
                "--batch",
                "2000",
                "--seed",
                "7",
                "--jobs",
                "1",
                "--no-cache",
                "--quiet",
                "--dump-json",
                str(dump),
            ]
        )
        assert rc == 0
        payload = json.loads(dump.read_text())
        bank = payload["engine"]["sample_bank"]
        assert bank["enabled"] is True
        assert bank["misses"] >= 1
