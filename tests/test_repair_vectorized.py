"""Repair strategies vs their scalar reference oracles.

``GreedyLocalRepair.repair`` batches its candidate screening and both
strategies re-check a shot with the plain-Python
``CollisionGraph.local_violations``.  The oracles below are the loops
they replaced, kept verbatim: ``_repair_reference`` (the historical
one-candidate-at-a-time greedy loop) and ``_anneal_reference`` (the
annealer re-counting touched criteria with numpy).  The contract is
bit-identity: same accepts, same landing points, same rng consumption —
checked here on random collided batches by comparing outcomes *and* the
generators' final bit-level state.  ``TestLocalViolations`` pins the
scalar re-check to the numpy criteria, ties at the strict ``<``
boundaries included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import get_architecture
from repro.core.collisions import CollisionThresholds
from repro.core.fabrication import FabricationModel
from repro.tuning import (
    AnnealingRepair,
    CollisionGraph,
    GreedyLocalRepair,
    RepairOutcome,
    TunerModel,
)
from repro.tuning.strategies import _noop


def _repair_reference(
    strategy: GreedyLocalRepair,
    graph: CollisionGraph,
    frequencies: np.ndarray,
    tuner: TunerModel,
    rng: np.random.Generator,
    initial_violations: int | None = None,
) -> RepairOutcome:
    """The historical scalar loop, kept verbatim as the parity oracle.

    ``repair`` must match this qubit-for-qubit: same accepts, same
    landing points, same rng stream.  The parity suite drives both
    over random collided batches and compares outcomes *and* final
    generator states.
    """
    initial = (
        initial_violations
        if initial_violations is not None
        else graph.total_violations(frequencies)
    )
    if initial == 0 or tuner.is_noop:
        return _noop(frequencies, initial)

    budget = tuner.budget_for(graph.num_qubits)
    as_fab = frequencies.astype(float, copy=True)
    repaired = as_fab.copy()
    tunes = np.zeros(graph.num_qubits, dtype=np.int64)
    total = initial
    sigma = tuner.precision_sigma_ghz
    reach = tuner.max_shift_ghz

    for _ in range(strategy.max_rounds):
        per_qubit = graph.per_qubit_violations(repaired)
        order = np.argsort(-per_qubit, kind="stable")
        improved = False
        for qubit in order:
            qubit = int(qubit)
            if per_qubit[qubit] == 0:
                break  # descending order: the rest are collision-free
            if tunes[qubit] >= budget:
                continue
            edge_idx, triple_idx = graph.touched(qubit)
            before = graph.edge_violations(
                repaired, edge_idx
            ) + graph.triple_violations(repaired, triple_idx)
            if before == 0:
                continue  # already fixed by an earlier shift this round
            # Aim at the design frequency; the tuner bounds the total
            # intended displacement from the as-fabricated frequency
            # and its actuation noise blurs the landing point.
            intended_total = float(
                np.clip(graph.ideal[qubit] - as_fab[qubit], -reach, reach)
            )
            noise = rng.normal(0.0, sigma) if sigma > 0 else 0.0
            previous = repaired[qubit]
            repaired[qubit] = as_fab[qubit] + intended_total + noise
            after = graph.edge_violations(
                repaired, edge_idx
            ) + graph.triple_violations(repaired, triple_idx)
            if after < before:
                tunes[qubit] += 1
                total += after - before
                improved = True
                if total == 0:
                    break
            else:
                repaired[qubit] = previous
        if total == 0 or not improved:
            break

    if not tunes.any():
        return _noop(frequencies, initial)
    return RepairOutcome(
        frequencies=repaired,
        violations_before=initial,
        violations_after=graph.total_violations(repaired),
        tuned_qubits=int((tunes > 0).sum()),
        total_tunes=int(tunes.sum()),
        tuned_qubit_indices=tuple(np.flatnonzero(tunes > 0).tolist()),
    )


def _anneal_reference(
    strategy: AnnealingRepair,
    graph: CollisionGraph,
    frequencies: np.ndarray,
    tuner: TunerModel,
    rng: np.random.Generator,
    initial_violations: int | None = None,
) -> RepairOutcome:
    """``AnnealingRepair.repair`` as it was before the scalar re-check:
    touched criteria re-counted by numpy over ``graph.touched(qubit)``."""
    initial = (
        initial_violations
        if initial_violations is not None
        else graph.total_violations(frequencies)
    )
    if initial == 0 or tuner.is_noop:
        return _noop(frequencies, initial)

    budget = tuner.budget_for(graph.num_qubits)
    as_fab = frequencies.astype(float, copy=True)
    work = as_fab.copy()
    tunes = np.zeros(graph.num_qubits, dtype=np.int64)
    energy = initial
    best = None
    best_energy = initial
    best_tunes = None
    sigma = tuner.precision_sigma_ghz
    reach = tuner.max_shift_ghz
    temperature = strategy.initial_temperature

    for _ in range(strategy.steps):
        if energy == 0:
            break
        candidates = graph.violating_qubits(work)
        candidates = candidates[tunes[candidates] < budget]
        if candidates.size == 0:
            break
        qubit = int(candidates[rng.integers(candidates.size)])
        shift = rng.uniform(-reach, reach)
        noise = rng.normal(0.0, sigma) if sigma > 0 else 0.0
        edge_idx, triple_idx = graph.touched(qubit)
        before = graph.edge_violations(
            work, edge_idx
        ) + graph.triple_violations(work, triple_idx)
        previous = work[qubit]
        work[qubit] = as_fab[qubit] + shift + noise
        after = graph.edge_violations(
            work, edge_idx
        ) + graph.triple_violations(work, triple_idx)
        delta = after - before
        if delta <= 0 or rng.random() < np.exp(-delta / max(temperature, 1e-9)):
            tunes[qubit] += 1
            energy += delta
            if energy < best_energy:
                best_energy = energy
                best = work.copy()
                best_tunes = tunes.copy()
        else:
            work[qubit] = previous
        temperature *= strategy.cooling

    if best is None:
        return _noop(frequencies, initial)
    return RepairOutcome(
        frequencies=best,
        violations_before=initial,
        violations_after=int(best_energy),
        tuned_qubits=int((best_tunes > 0).sum()),
        total_tunes=int(best_tunes.sum()),
        tuned_qubit_indices=tuple(np.flatnonzero(best_tunes > 0).tolist()),
    )


@pytest.fixture(scope="module")
def allocation():
    arch = get_architecture(None)
    return arch.allocate(arch.lattice(40))


@pytest.fixture(scope="module")
def graph(allocation):
    return CollisionGraph(allocation)


def collided_devices(allocation, graph, sigma, batch, seed):
    fab = FabricationModel(sigma_ghz=sigma)
    freqs = fab.sample_batch(allocation, batch, np.random.default_rng(seed))
    return [f for f in freqs if graph.total_violations(f) > 0]


TUNERS = [
    pytest.param(TunerModel(), id="default-noisy"),
    pytest.param(TunerModel(precision_sigma_ghz=0.0), id="noiseless-batch-path"),
    pytest.param(TunerModel(max_tunes_per_qubit=1), id="budget-1"),
    pytest.param(
        TunerModel(max_shift_ghz=0.05, precision_sigma_ghz=0.0), id="short-reach"
    ),
]


def assert_same_outcome(fast, ref, rng_fast, rng_ref):
    np.testing.assert_array_equal(fast.frequencies, ref.frequencies)
    assert fast.violations_before == ref.violations_before
    assert fast.violations_after == ref.violations_after
    assert fast.tuned_qubits == ref.tuned_qubits
    assert fast.total_tunes == ref.total_tunes
    assert fast.tuned_qubit_indices == ref.tuned_qubit_indices
    # Stream parity: any divergence in *when* noise is drawn would
    # desynchronise every later device in a batch.
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


class TestGreedyParity:
    @pytest.mark.parametrize("tuner", TUNERS)
    @pytest.mark.parametrize("sigma,seed", [(0.05, 11), (0.014, 7)])
    def test_matches_reference_on_random_collided_batches(
        self, allocation, graph, tuner, sigma, seed
    ):
        strategy = GreedyLocalRepair()
        devices = collided_devices(allocation, graph, sigma, batch=40, seed=seed)
        assert devices, "collided sample went empty; raise sigma"
        for index, freqs in enumerate(devices):
            rng_fast = np.random.default_rng(1000 + index)
            rng_ref = np.random.default_rng(1000 + index)
            fast = strategy.repair(graph, freqs, tuner, rng_fast)
            ref = _repair_reference(strategy, graph, freqs, tuner, rng_ref)
            assert_same_outcome(fast, ref, rng_fast, rng_ref)

    @pytest.mark.parametrize("tuner", TUNERS)
    def test_initial_violations_shortcut_matches(self, allocation, graph, tuner):
        strategy = GreedyLocalRepair()
        [freqs] = collided_devices(allocation, graph, 0.05, batch=8, seed=3)[:1]
        initial = graph.total_violations(freqs)
        fast = strategy.repair(
            graph, freqs, tuner, np.random.default_rng(5), initial_violations=initial
        )
        ref = _repair_reference(
            strategy,
            graph,
            freqs,
            tuner,
            np.random.default_rng(5),
            initial_violations=initial,
        )
        np.testing.assert_array_equal(fast.frequencies, ref.frequencies)
        assert fast.total_tunes == ref.total_tunes

    def test_noop_tuner_consumes_no_randomness(self, graph, allocation):
        [freqs] = collided_devices(allocation, graph, 0.05, batch=8, seed=3)[:1]
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        outcome = GreedyLocalRepair().repair(
            graph, freqs, TunerModel(max_tunes_per_qubit=0), rng
        )
        assert outcome.frequencies is freqs
        assert rng.bit_generator.state == state


class TestAnnealParity:
    @pytest.mark.parametrize(
        "tuner",
        [
            pytest.param(TunerModel(), id="default-noisy"),
            pytest.param(TunerModel(precision_sigma_ghz=0.0), id="noiseless"),
        ],
    )
    @pytest.mark.parametrize("sigma,seed", [(0.05, 11), (0.014, 7)])
    def test_matches_reference_on_random_collided_batches(
        self, allocation, graph, tuner, sigma, seed
    ):
        strategy = AnnealingRepair()
        devices = collided_devices(allocation, graph, sigma, batch=40, seed=seed)
        assert devices, "collided sample went empty; raise sigma"
        changed = 0
        for index, freqs in enumerate(devices):
            rng_fast = np.random.default_rng(2000 + index)
            rng_ref = np.random.default_rng(2000 + index)
            fast = strategy.repair(graph, freqs, tuner, rng_fast)
            ref = _anneal_reference(strategy, graph, freqs, tuner, rng_ref)
            assert_same_outcome(fast, ref, rng_fast, rng_ref)
            changed += fast.changed
        assert changed, "no device was tuned; the parity check is vacuous"


#: Dyadic criterion windows: with these, ``x + t`` and ``x - t`` are exact
#: for the ~5 GHz frequencies below, so a frequency pinned at a window's
#: edge makes the criterion's ``abs(...)`` equal the window exactly.
DYADIC = CollisionThresholds(
    type1_ghz=2.0**-6,
    type2_ghz=2.0**-8,
    type3_ghz=2.0**-5,
    type5_ghz=2.0**-6,
    type6_ghz=2.0**-5,
    type7_ghz=2.0**-6,
)


def pin_at_boundary(graph, f, kind, index, rule, sign):
    """Move one member of a constraint so one criterion sits on its edge.

    ``kind`` is ``"edge"`` or ``"triple"``, ``index`` the constraint's
    row, ``rule`` picks the criterion term, ``sign`` the side of the
    window (``0`` lands on the centre).  Returns the moved qubit.
    """
    th = graph.thresholds
    alpha = graph.alpha
    if kind == "edge":
        i, j = int(graph.edge_control[index]), int(graph.edge_target[index])
        rules = [
            (j, lambda: f[i] - sign * th.type1_ghz),  # |fi - fj| = t1
            (j, lambda: f[i] + alpha[i] / 2.0 - sign * th.type2_ghz),  # type 2
            (i, lambda: f[j] + alpha[j] + sign * th.type3_ghz),  # |fi - (fj+aj)|
            (j, lambda: f[i] + alpha[i] + sign * th.type3_ghz),  # |fj - (fi+ai)|
            (j, lambda: f[i] + alpha[i]),  # type 4: fj == fi + ai
            (j, lambda: f[i]),  # type 4: fi == fj
        ]
    else:
        c = int(graph.triple_control[index])
        j, k = int(graph.triple_a[index]), int(graph.triple_b[index])
        rules = [
            (k, lambda: f[j] - sign * th.type5_ghz),  # |fj - fk| = t5
            (j, lambda: f[k] + alpha[k] + sign * th.type6_ghz),  # |fj - (fk+ak)|
            (k, lambda: f[j] + alpha[j] + sign * th.type6_ghz),  # |fk - (fj+aj)|
            (k, lambda: 2.0 * f[c] + alpha[c] - f[j] - sign * th.type7_ghz),  # type 7
        ]
    qubit, value = rules[rule % len(rules)]
    f[qubit] = value()
    return qubit


def numpy_local(graph, f, qubit):
    edge_idx, triple_idx = graph.touched(qubit)
    return graph.edge_violations(f, edge_idx) + graph.triple_violations(f, triple_idx)


@pytest.fixture(scope="module")
def graphs(allocation):
    return [CollisionGraph(allocation), CollisionGraph(allocation, DYADIC)]


class TestLocalViolations:
    def test_every_boundary_tie_matches_numpy(self, graphs):
        # Deterministic sweep: each criterion term of each constraint,
        # pinned exactly on either edge of its window and at its centre.
        for graph in graphs:
            for kind, rows, rules in (
                ("edge", graph.edge_control.shape[0], 6),
                ("triple", graph.triple_control.shape[0], 4),
            ):
                for index in range(rows):
                    for rule in range(rules):
                        for sign in (-1, 0, 1):
                            f = graph.ideal.copy()
                            moved = pin_at_boundary(graph, f, kind, index, rule, sign)
                            for qubit in graph.constraint_neighbors(moved).tolist():
                                assert graph.local_violations(
                                    f.tolist(), qubit
                                ) == numpy_local(graph, f, qubit)

    def test_dyadic_windows_produce_exact_ties(self, graphs):
        # Guards the sweep above: a tie really lands on ``abs(...) == t``.
        graph = graphs[1]
        f = graph.ideal.copy()
        pin_at_boundary(graph, f, "edge", 0, 0, 1)
        i, j = int(graph.edge_control[0]), int(graph.edge_target[0])
        assert abs(f[i] - f[j]) == DYADIC.type1_ghz
        pin_at_boundary(graph, f, "edge", 0, 1, -1)
        assert abs(f[i] + graph.alpha[i] / 2.0 - f[j]) == DYADIC.type2_ghz

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_numpy_over_touched(self, graphs, data):
        graph = data.draw(st.sampled_from(graphs))
        n = graph.num_qubits
        steps = data.draw(st.lists(st.integers(-400, 400), min_size=n, max_size=n))
        f = graph.ideal + np.asarray(steps, dtype=float) * 2.0**-12
        pins = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["edge", "triple"]),
                    st.integers(0, 10**6),
                    st.integers(0, 5),
                    st.sampled_from([-1, 0, 1]),
                ),
                max_size=6,
            )
        )
        for kind, index, rule, sign in pins:
            rows = graph.edge_control if kind == "edge" else graph.triple_control
            pin_at_boundary(graph, f, kind, index % rows.shape[0], rule, sign)
        qubit = data.draw(st.integers(0, graph.num_qubits - 1))
        expected = numpy_local(graph, f, qubit)
        assert graph.local_violations(list(f), qubit) == expected
        assert graph.local_violations(f.tolist(), qubit) == expected


class TestConstraintNeighbors:
    def test_includes_self(self, graph):
        for qubit in range(graph.num_qubits):
            assert qubit in graph.constraint_neighbors(qubit)

    def test_symmetric(self, graph):
        for qubit in range(graph.num_qubits):
            for other in graph.constraint_neighbors(qubit):
                assert qubit in graph.constraint_neighbors(int(other))

    def test_matches_edge_and_triple_membership(self, graph):
        expected = [{q} for q in range(graph.num_qubits)]
        for u, v in zip(graph.edge_control, graph.edge_target):
            expected[int(u)].add(int(v))
            expected[int(v)].add(int(u))
        for c, a, b in zip(graph.triple_control, graph.triple_a, graph.triple_b):
            for q in (int(c), int(a), int(b)):
                expected[q].update({int(c), int(a), int(b)})
        for qubit in range(graph.num_qubits):
            assert set(graph.constraint_neighbors(qubit).tolist()) == expected[qubit]

    def test_sorted_and_stable(self, graph):
        first = graph.constraint_neighbors(0)
        assert list(first) == sorted(first)
        assert graph.constraint_neighbors(0) is first  # memoised
