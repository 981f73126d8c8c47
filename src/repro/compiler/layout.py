"""Initial-layout selection for benchmark compilation.

The paper compiles benchmarks sized at 80 % of the device, so the layout
pass has to pick a *connected region* of physical qubits and map virtual
qubits onto it.  Three strategies are provided:

* ``"line"`` — embed the circuit along a long simple path of the coupling
  graph; ideal for chain-structured circuits (GHZ, TFIM) which then route
  with zero SWAP overhead.
* ``"dense"`` — place the circuit on a densely-connected subgraph, ordering
  virtual qubits by a BFS of their interaction graph so frequently
  interacting qubits land close together.
* ``"noise"`` — like ``"dense"`` but seeded at the physical qubit whose
  incident couplings have the lowest error (requires a device error map).
"""

from __future__ import annotations

from collections import deque

import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.topology.coupling import CouplingMap
from repro.topology.metrics import densest_connected_subgraph

__all__ = ["Layout", "choose_layout", "find_long_path", "is_chain_circuit"]


class Layout:
    """A bijective virtual -> physical qubit assignment."""

    def __init__(self, virtual_to_physical: dict[int, int]):
        self._v2p = dict(virtual_to_physical)
        self._p2v = {p: v for v, p in self._v2p.items()}
        if len(self._p2v) != len(self._v2p):
            raise ValueError("layout maps two virtual qubits to the same physical qubit")

    @property
    def size(self) -> int:
        """Number of mapped virtual qubits."""
        return len(self._v2p)

    def physical(self, virtual: int) -> int:
        """Physical qubit hosting ``virtual``."""
        return self._v2p[virtual]

    def virtual(self, physical: int) -> int | None:
        """Virtual qubit hosted on ``physical`` (``None`` when empty)."""
        return self._p2v.get(physical)

    def mapping(self) -> dict[int, int]:
        """Copy of the virtual -> physical mapping."""
        return dict(self._v2p)

    def swap_physical(self, p_a: int, p_b: int) -> None:
        """Exchange the virtual qubits held by two physical qubits."""
        v_a = self._p2v.get(p_a)
        v_b = self._p2v.get(p_b)
        if v_a is not None:
            self._v2p[v_a] = p_b
        if v_b is not None:
            self._v2p[v_b] = p_a
        if v_a is not None:
            self._p2v[p_b] = v_a
        elif p_b in self._p2v:
            del self._p2v[p_b]
        if v_b is not None:
            self._p2v[p_a] = v_b
        elif p_a in self._p2v:
            del self._p2v[p_a]

    def copy(self) -> "Layout":
        """Deep copy of the layout."""
        return Layout(self._v2p)


def is_chain_circuit(circuit: QuantumCircuit) -> bool:
    """True when the circuit's interaction graph is a simple path.

    Chain circuits (GHZ, 1D TFIM, the repetition code) can be embedded along
    a path of the device and routed without SWAPs.
    """
    adjacency = circuit.interaction_graph()
    active = {q for q, neighbours in adjacency.items() if neighbours}
    if not active:
        return True
    degrees = [len(adjacency[q]) for q in active]
    if any(d > 2 for d in degrees):
        return False
    endpoints = sum(1 for d in degrees if d == 1)
    if endpoints != 2:
        return False
    graph = nx.Graph(
        (a, b) for a, neighbours in adjacency.items() for b in neighbours if a < b
    )
    return nx.is_connected(graph)


def find_long_path(
    coupling: CouplingMap,
    length: int,
    attempts: int = 12,
    step_budget: int = 200_000,
) -> list[int] | None:
    """Backtracking search for a simple path visiting ``length`` qubits.

    Heavy-hex lattices contain long snaking paths, but a pure greedy walk
    tends to strand itself; a depth-first search with backtracking and a
    low-degree-first expansion order finds them quickly in practice.  The
    search starts from the ``attempts`` lowest ``(degree, label)`` qubits and
    tries neighbours in the same order.  It is bounded by ``step_budget``
    steps per starting node, and returns ``None`` when no sufficiently long
    path was found.
    """
    if length <= 0:
        return []
    num_qubits = coupling.num_qubits
    if length > num_qubits:
        return None
    degree = [len(coupling.neighbors(q)) for q in range(num_qubits)]
    by_degree = lambda q: (degree[q], q)
    # Candidates of every qubit in ascending (degree, label) order, built once.
    candidates = [sorted(coupling.neighbors(q), key=by_degree) for q in range(num_qubits)]
    starts = sorted(range(num_qubits), key=by_degree)[:attempts]

    for start in starts:
        path = [start]
        if length == 1:
            return path
        on_path = bytearray(num_qubits)
        on_path[start] = 1
        # Iterator stack: candidates still to try from each path position,
        # with the innermost one held in ``top``.  Every iteration costs one
        # step: a backtrack, a skipped on-path candidate or an extension.
        top = iter(candidates[start])
        stack = []
        for _ in range(step_budget):
            candidate = next(top, None)
            if candidate is None:
                on_path[path.pop()] = 0
                if not stack:
                    break
                top = stack.pop()
            elif not on_path[candidate]:
                path.append(candidate)
                on_path[candidate] = 1
                if len(path) >= length:
                    return path
                stack.append(top)
                top = iter(candidates[candidate])
    return None


def _interaction_order(circuit: QuantumCircuit) -> list[int]:
    """Every virtual qubit, BFS-ordered over the interaction graph (idle ones last)."""
    adjacency = circuit.interaction_graph()
    order: list[int] = []
    seen: set[int] = set()
    pending = sorted(adjacency, key=lambda q: -len(adjacency[q]))
    for root in pending:
        if root in seen:
            continue
        queue = deque([root])
        seen.add(root)
        while queue:
            node = queue.popleft()
            order.append(node)
            for neighbour in sorted(adjacency[node]):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return order


def choose_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    method: str = "auto",
    edge_errors: dict[tuple[int, int], float] | None = None,
) -> Layout:
    """Pick an initial layout for a circuit on a coupling map.

    Parameters
    ----------
    circuit:
        Circuit to place (its width must not exceed the device size).
    coupling:
        Device connectivity.
    method:
        ``"auto"``, ``"line"``, ``"dense"`` or ``"noise"``.  ``"auto"``
        selects ``"line"`` for chain circuits and ``"dense"`` otherwise.
    edge_errors:
        Per-coupling error map used by the ``"noise"`` strategy.
    """
    width = circuit.num_qubits
    if width > coupling.num_qubits:
        raise ValueError(
            f"circuit needs {width} qubits but the device only has {coupling.num_qubits}"
        )
    if method == "auto":
        method = "line" if is_chain_circuit(circuit) else "dense"

    if method == "line":
        path = find_long_path(coupling, width)
        if path is not None:
            order = _interaction_order(circuit)
            return Layout({virtual: path[i] for i, virtual in enumerate(order)})
        method = "dense"

    graph = coupling.graph()
    seed = None
    if method == "noise":
        if edge_errors:
            incident: dict[int, list[float]] = {}
            for (u, v), error in edge_errors.items():
                incident.setdefault(u, []).append(error)
                incident.setdefault(v, []).append(error)
            seed = min(
                incident,
                key=lambda q: sum(incident[q]) / len(incident[q]) - 0.001 * len(incident[q]),
            )
        method = "dense"
    if method != "dense":
        raise ValueError(f"unknown layout method {method!r}")

    region = densest_connected_subgraph(graph, width, seed=seed)
    sub = graph.subgraph(region)
    # Physical placement order: BFS from the highest-degree node of the region.
    start = max(region, key=lambda n: sub.degree[n])
    physical_order = list(nx.bfs_tree(sub, start))
    placed = set(physical_order)
    physical_order += [n for n in region if n not in placed]
    virtual_order = _interaction_order(circuit)
    return Layout(
        {virtual: physical_order[i] for i, virtual in enumerate(virtual_order)}
    )
