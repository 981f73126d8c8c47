"""Tests for the compiler: decomposition, layout, routing, transpilation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.benchmarks import build_benchmark, ghz
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.decompose import decompose_swaps, decompose_to_cx_basis
from repro.compiler.layout import Layout, choose_layout, find_long_path, is_chain_circuit
from repro.compiler.metrics import gate_metrics
from repro.compiler.routing import route_circuit
from repro.compiler.transpile import transpile
from repro.core.chiplet import ChipletDesign
from repro.core.mcm import MCMDesign
from repro.simulation.statevector import simulate
from repro.topology.coupling import CouplingMap
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


@pytest.fixture(scope="module")
def line5() -> CouplingMap:
    return CouplingMap(num_qubits=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])


class TestDecompose:
    def test_ccx_becomes_cx_basis(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        decomposed = decompose_to_cx_basis(circuit)
        assert decomposed.count_ops().get("ccx", 0) == 0
        assert decomposed.count_ops()["cx"] == 6

    def test_ccx_decomposition_preserves_unitary(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).ry(0.3, 1).x(2).ccx(0, 1, 2)
        decomposed = decompose_to_cx_basis(circuit)
        original = simulate(circuit).amplitudes
        rebuilt = simulate(decomposed).amplitudes
        # Equal up to a global phase.
        overlap = abs(np.vdot(original, rebuilt))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_swap_decomposition_preserves_unitary(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 2).swap(0, 1)
        decomposed = decompose_swaps(circuit)
        assert decomposed.count_ops().get("swap", 0) == 0
        overlap = abs(np.vdot(simulate(circuit).amplitudes, simulate(decomposed).amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_rzz_and_cz_are_rewritten(self):
        circuit = QuantumCircuit(2)
        circuit.rzz(0.4, 0, 1).cz(0, 1)
        decomposed = decompose_to_cx_basis(circuit)
        names = set(decomposed.count_ops())
        assert "rzz" not in names and "cz" not in names

    def test_keep_swaps_option(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        assert decompose_to_cx_basis(circuit, keep_swaps=True).count_ops()["swap"] == 1


class TestLayout:
    def test_layout_is_bijective(self):
        layout = Layout({0: 3, 1: 5, 2: 7})
        assert layout.physical(1) == 5
        assert layout.virtual(7) == 2
        assert layout.virtual(4) is None

    def test_layout_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1})

    def test_swap_physical(self):
        layout = Layout({0: 1, 1: 2})
        layout.swap_physical(1, 3)
        assert layout.physical(0) == 3
        assert layout.virtual(1) is None

    def test_is_chain_circuit(self):
        assert is_chain_circuit(ghz(6))
        star = QuantumCircuit(4)
        star.cx(0, 1).cx(0, 2).cx(0, 3)
        assert not is_chain_circuit(star)

    def test_find_long_path_on_heavy_hex(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        path = find_long_path(coupling, 20)
        assert path is not None
        assert len(path) == 20
        assert len(set(path)) == 20
        for a, b in zip(path, path[1:]):
            assert coupling.has_edge(a, b)

    def test_choose_layout_chain_uses_path(self, line5):
        layout = choose_layout(ghz(5), line5, method="line")
        physical = [layout.physical(v) for v in range(5)]
        assert sorted(physical) == list(range(5))

    def test_choose_layout_dense_connected(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(40))
        circuit = build_benchmark("qaoa", 20, seed=1)
        layout = choose_layout(circuit, coupling, method="dense")
        assert len({layout.physical(v) for v in range(20)}) == 20

    def test_choose_layout_rejects_oversized_circuit(self, line5):
        with pytest.raises(ValueError):
            choose_layout(ghz(6), line5)

    def test_noise_aware_layout_uses_error_map(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        errors = {edge: 0.05 for edge in coupling.edges}
        best_edge = coupling.edges[10]
        errors[best_edge] = 0.001
        circuit = build_benchmark("qaoa", 8, seed=1)
        layout = choose_layout(circuit, coupling, method="noise", edge_errors=errors)
        assert len({layout.physical(v) for v in range(8)}) == 8


def _find_long_path_reference(
    coupling: CouplingMap,
    length: int,
    attempts: int = 12,
    step_budget: int = 200_000,
) -> list[int] | None:
    """The networkx-based search ``find_long_path`` must reproduce step for step.

    Kept verbatim (apart from this docstring) so the parity tests below pin the
    visit order and the step budget.  Its one known defect: ``length == 1``
    returns two qubits, so the parity tests leave that length out.
    """
    graph = coupling.graph()
    if length <= 0:
        return []
    if length > graph.number_of_nodes():
        return None
    nodes = sorted(graph.nodes, key=lambda n: (graph.degree[n], n))
    starts = nodes[:attempts]

    for start in starts:
        path = [start]
        on_path = {start}
        # Iterator stack: candidates still to try from each path position.
        stack = [iter(sorted(graph.neighbors(start), key=lambda n: (graph.degree[n], n)))]
        steps = 0
        while stack and steps < step_budget:
            steps += 1
            try:
                candidate = next(stack[-1])
            except StopIteration:
                stack.pop()
                on_path.discard(path.pop())
                continue
            if candidate in on_path:
                continue
            path.append(candidate)
            on_path.add(candidate)
            if len(path) >= length:
                return path
            stack.append(
                iter(sorted(graph.neighbors(candidate), key=lambda n: (graph.degree[n], n)))
            )
    return None


@st.composite
def small_couplings(draw) -> CouplingMap:
    """A random coupling map of up to 8 qubits, isolated qubits allowed."""
    num_qubits = draw(st.integers(min_value=1, max_value=8))
    pairs = list(itertools.combinations(range(num_qubits), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return CouplingMap(num_qubits, [pair for pair, k in zip(pairs, keep) if k])


def _has_simple_path(coupling: CouplingMap, length: int) -> bool:
    """Brute force: does any simple path visit exactly ``length`` qubits?"""
    return any(
        all(coupling.has_edge(a, b) for a, b in zip(path, path[1:]))
        for path in itertools.permutations(range(coupling.num_qubits), length)
    )


@pytest.fixture(scope="module")
def fig10_mcm_couplings() -> list[CouplingMap]:
    """The 160- and 360-qubit square MCMs of 40-qubit chiplets (Fig. 10)."""
    chiplet = ChipletDesign.build(40)
    return [MCMDesign.build(chiplet, n, n).coupling_map() for n in (2, 3)]


class TestFindLongPath:
    def test_length_one_is_the_first_start(self):
        # Qubit 4 is isolated, so it is the lowest (degree, label) start.
        coupling = CouplingMap(5, [(0, 1), (1, 2), (2, 3)])
        assert find_long_path(coupling, 1) == [4]
        assert find_long_path(coupling, 1, attempts=0) is None

    @staticmethod
    def assert_same_budget_boundary(coupling: CouplingMap, length: int) -> None:
        """Both searches first succeed at the same step budget, on the same path."""
        low, high = 1, 4096
        while low < high:  # bisect: success is monotone in the budget
            mid = (low + high) // 2
            if _find_long_path_reference(coupling, length, step_budget=mid) is None:
                low = mid + 1
            else:
                high = mid
        expected = _find_long_path_reference(coupling, length, step_budget=low)
        assert expected is not None
        assert find_long_path(coupling, length, step_budget=low) == expected
        assert find_long_path(coupling, length, step_budget=low - 1) is None

    @pytest.mark.parametrize("num_qubits", [27, 65, 127])
    def test_parity_on_heavy_hex(self, num_qubits):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(num_qubits))
        for length in (num_qubits // 2, int(0.8 * num_qubits)):
            expected = _find_long_path_reference(coupling, length)
            assert expected is not None
            assert find_long_path(coupling, length) == expected
        self.assert_same_budget_boundary(coupling, int(0.8 * num_qubits))
        # A Hamiltonian path is out of reach: exhaust a cut budget on every start.
        assert _find_long_path_reference(coupling, num_qubits, step_budget=2000) is None
        assert find_long_path(coupling, num_qubits, step_budget=2000) is None

    def test_parity_on_fig10_mcms(self, fig10_mcm_couplings):
        for coupling in fig10_mcm_couplings:
            # At the Fig. 10 size (80 %) every start exhausts a cut budget,
            # as it does the full one.
            length = int(round(0.8 * coupling.num_qubits))
            for step_budget in (1, 3000):
                assert _find_long_path_reference(coupling, length, step_budget=step_budget) is None
                assert find_long_path(coupling, length, step_budget=step_budget) is None
            # At 60 % the search backtracks for hundreds of steps, then succeeds.
            self.assert_same_budget_boundary(coupling, int(0.6 * coupling.num_qubits))

    @settings(deadline=None)
    @given(
        coupling=small_couplings(),
        data=st.data(),
        attempts=st.integers(min_value=0, max_value=4),
        step_budget=st.integers(min_value=0, max_value=60),
    )
    def test_parity_on_random_graphs(self, coupling, data, attempts, step_budget):
        lengths = [n for n in range(coupling.num_qubits + 2) if n != 1]
        length = data.draw(st.sampled_from(lengths))
        assert find_long_path(
            coupling, length, attempts=attempts, step_budget=step_budget
        ) == _find_long_path_reference(
            coupling, length, attempts=attempts, step_budget=step_budget
        )

    @settings(deadline=None)
    @given(
        coupling=small_couplings(),
        data=st.data(),
        attempts=st.integers(min_value=0, max_value=4),
        step_budget=st.integers(min_value=0, max_value=60),
    )
    def test_result_is_a_simple_coupled_path(self, coupling, data, attempts, step_budget):
        num_qubits = coupling.num_qubits
        length = data.draw(st.integers(min_value=0, max_value=num_qubits + 1))
        # Every start and a budget no 8-qubit search can exhaust.
        exhaustive = find_long_path(coupling, length, attempts=num_qubits, step_budget=10**6)
        assert (exhaustive is None) == (
            length > num_qubits or not _has_simple_path(coupling, length)
        )
        limited = find_long_path(coupling, length, attempts=attempts, step_budget=step_budget)
        for path in (exhaustive, limited):
            if path is not None:
                assert len(path) == length
                assert len(set(path)) == length
                assert all(coupling.has_edge(a, b) for a, b in zip(path, path[1:]))


class TestRouting:
    def test_adjacent_gates_need_no_swaps(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = route_circuit(circuit, line5, Layout({0: 0, 1: 1}))
        assert routed.num_swaps == 0
        assert routed.two_qubit_edges == [(0, 1)]

    def test_distant_gates_insert_swaps(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = route_circuit(circuit, line5, Layout({0: 0, 1: 4}))
        assert routed.num_swaps == 3
        # Every emitted two-qubit gate respects the connectivity.
        for u, v in routed.two_qubit_edges:
            assert line5.has_edge(u, v)

    def test_single_qubit_gates_follow_the_mapping(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).h(0)
        routed = route_circuit(circuit, line5, Layout({0: 0, 1: 4}))
        h_gates = [g for g in routed.circuit if g.name == "h"]
        assert len(h_gates) == 1
        # Qubit 0 may have moved; the H must land on its current host.
        assert h_gates[0].qubits[0] == routed.final_layout.physical(0)

    def test_routing_rejects_multi_qubit_gates(self, line5):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(ValueError):
            route_circuit(circuit, line5, Layout({0: 0, 1: 1, 2: 2}))

    def test_routed_circuit_preserves_semantics(self):
        """Routing + SWAP decomposition implements the same state up to relabelling."""
        coupling = CouplingMap(num_qubits=4, edges=[(0, 1), (1, 2), (2, 3)])
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 3).cx(1, 2).rz(0.5, 3).cx(0, 2)
        layout = Layout({i: i for i in range(4)})
        routed = route_circuit(circuit, coupling, layout)
        physical = decompose_swaps(routed.circuit)

        original = simulate(circuit)
        mapped = simulate(physical)
        # Compare marginals through the final layout (virtual -> physical).
        for virtual in range(4):
            physical_qubit = routed.final_layout.physical(virtual)
            assert mapped.marginal_probability(physical_qubit, 1) == pytest.approx(
                original.marginal_probability(virtual, 1), abs=1e-9
            )


class TestTranspile:
    def test_transpile_respects_connectivity(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        circuit = build_benchmark("qaoa", 20, seed=2)
        transpiled = transpile(circuit, coupling)
        edge_set = set(coupling.edges)
        for gate in transpiled.circuit:
            if gate.num_qubits == 2:
                assert (min(gate.qubits), max(gate.qubits)) in edge_set

    def test_two_qubit_edge_list_matches_gate_count(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        circuit = build_benchmark("bv", 20)
        transpiled = transpile(circuit, coupling)
        assert len(transpiled.two_qubit_edges) == transpiled.metrics.num_two_qubit

    def test_chain_circuits_route_cheaply(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(65))
        transpiled = transpile(ghz(50), coupling)
        assert transpiled.metrics.num_two_qubit < 80

    def test_metrics_consistency(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        circuit = build_benchmark("adder", 20)
        transpiled = transpile(circuit, coupling)
        metrics = gate_metrics(transpiled.circuit)
        assert metrics.num_two_qubit == transpiled.metrics.num_two_qubit
        assert metrics.two_qubit_critical_path <= metrics.num_two_qubit
        assert metrics.as_row() == (
            metrics.num_one_qubit,
            metrics.num_two_qubit,
            metrics.two_qubit_critical_path,
        )

    def test_transpile_onto_device_uses_error_map(self, small_study):
        mcm = small_study.mcm_result(20, (2, 2))
        assert mcm.best_device is not None
        circuit = build_benchmark("bv", 30)
        transpiled = transpile(circuit, mcm.best_device)
        for u, v in transpiled.two_qubit_edges:
            assert (min(u, v), max(u, v)) in mcm.best_device.edge_errors
