"""Parametric heavy-hexagon lattice generation.

The heavy-hexagon ("heavy-hex") lattice is the qubit topology used by IBM's
fixed-frequency transmon processors (Falcon, Hummingbird, Eagle) and by the
chiplet designs of the paper.  Qubits sit both on the vertices and on the
edges of a hexagonal tiling, which keeps the maximum qubit degree at three
and makes the lattice three-colourable with the F0/F1/F2 frequency pattern.
It is the *default* topology of this reproduction, registered alongside the
square-grid and ring alternatives in
:data:`repro.core.architecture.ARCHITECTURES`.

The construction used here mirrors the IBM layout:

* *dense rows* — horizontal chains of qubits connected to their left/right
  neighbours,
* *bridge qubits* — single qubits placed between two consecutive dense rows
  that connect vertically, one bridge every four columns, with the column
  offset alternating between 0 and 2 from one bridge row to the next.

``HeavyHexLattice`` is an immutable description of one such lattice,
implementing the :class:`repro.topology.base.Lattice` protocol.  The
factory :func:`heavy_hex_by_qubit_count` searches the (rows, columns) space
and, when necessary, trims non-articulation qubits so that the returned
lattice contains *exactly* the requested number of qubits while remaining
connected.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

import networkx as nx

from repro.topology.base import LatticeOps, QubitSite

__all__ = [
    "QubitSite",
    "HeavyHexLattice",
    "build_heavy_hex",
    "heavy_hex_qubit_count",
    "heavy_hex_by_qubit_count",
    "bridge_columns",
]

#: Column offset of the bridge qubits in even- and odd-indexed bridge rows.
_BRIDGE_OFFSETS = (0, 2)

#: Spacing (in columns) between two bridge qubits within a bridge row.
_BRIDGE_PERIOD = 4


def bridge_columns(cols: int, bridge_row: int) -> list[int]:
    """Columns that host a bridge qubit for the given bridge row.

    Parameters
    ----------
    cols:
        Number of columns in the dense rows.
    bridge_row:
        Index of the bridge row (0 is the row between dense rows 0 and 1).
    """
    offset = _BRIDGE_OFFSETS[bridge_row % 2]
    return list(range(offset, cols, _BRIDGE_PERIOD))


def heavy_hex_qubit_count(rows: int, cols: int) -> int:
    """Total number of qubits of an *untrimmed* ``rows x cols`` lattice."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    # rows - 1 bridge rows alternate offsets 0 and 2 (see bridge_columns):
    # rows // 2 of them hold ceil(cols / 4) bridges, the other
    # (rows - 1) // 2 hold ceil((cols - 2) / 4).
    return rows * cols + (rows // 2) * ((cols + 3) // 4) + ((rows - 1) // 2) * (
        (cols + 1) // 4
    )


@dataclass
class HeavyHexLattice(LatticeOps):
    """A heavy-hexagon qubit lattice.

    Instances are normally created through :func:`build_heavy_hex` or
    :func:`heavy_hex_by_qubit_count` rather than directly.

    Attributes
    ----------
    rows, cols:
        Dense-row count and dense-row length of the generating lattice.
    sites:
        One :class:`QubitSite` per qubit, indexed by qubit number.
    edges:
        Undirected couplings as ``(low, high)`` qubit-index pairs.
    name:
        Human readable identifier (useful when lattices represent chiplets).
    """

    rows: int
    cols: int
    sites: list[QubitSite]
    edges: list[tuple[int, int]]
    name: str = "heavy-hex"
    _graph: nx.Graph | None = field(default=None, repr=False, compare=False)

    def relabelled(self, name: str) -> "HeavyHexLattice":
        """Return a copy of the lattice under a different name."""
        return HeavyHexLattice(
            rows=self.rows,
            cols=self.cols,
            sites=list(self.sites),
            edges=list(self.edges),
            name=name,
        )


def build_heavy_hex(rows: int, cols: int, name: str = "heavy-hex") -> HeavyHexLattice:
    """Construct an untrimmed heavy-hex lattice.

    Parameters
    ----------
    rows:
        Number of dense rows (each a horizontal chain of qubits).
    cols:
        Number of qubits per dense row.
    name:
        Optional identifier stored on the lattice.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")

    sites: list[QubitSite] = []
    edges: list[tuple[int, int]] = []
    dense_index: dict[tuple[int, int], int] = {}

    counter = 0
    for row in range(rows):
        # Dense row qubits and their horizontal couplings.
        for col in range(cols):
            sites.append(QubitSite(counter, "dense", row, col))
            dense_index[(row, col)] = counter
            if col > 0:
                edges.append((counter - 1, counter))
            counter += 1
        # Bridge qubits between this dense row and the previous one.
        if row > 0:
            for col in bridge_columns(cols, row - 1):
                sites.append(QubitSite(counter, "bridge", row - 1, col))
                edges.append((dense_index[(row - 1, col)], counter))
                edges.append((counter, dense_index[(row, col)]))
                counter += 1

    lattice = HeavyHexLattice(rows=rows, cols=cols, sites=sites, edges=edges, name=name)
    return lattice


def _trim_to_count(lattice: HeavyHexLattice, target: int) -> HeavyHexLattice | None:
    """Remove non-articulation qubits (highest index first) down to ``target``.

    Returns ``None`` when the lattice cannot be trimmed to the target while
    staying connected.
    """
    graph = lattice.graph().copy()
    while graph.number_of_nodes() > target:
        articulation = set(nx.articulation_points(graph))
        candidates = [n for n in sorted(graph.nodes, reverse=True) if n not in articulation]
        if not candidates:
            return None
        graph.remove_node(candidates[0])

    keep = sorted(graph.nodes)
    relabel = {old: new for new, old in enumerate(keep)}
    sites = [
        QubitSite(relabel[s.index], s.kind, s.row, s.col)
        for s in lattice.sites
        if s.index in relabel
    ]
    edges = [
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
        for u, v in lattice.edges
        if u in relabel and v in relabel
    ]
    return HeavyHexLattice(
        rows=lattice.rows,
        cols=lattice.cols,
        sites=sites,
        edges=edges,
        name=lattice.name,
    )


def _candidate_shapes(target: int) -> Iterable[tuple[int, int, int]]:
    """Yield (excess, rows, cols) candidates able to cover ``target`` qubits.

    Per row count only the smallest adequate column count is a candidate,
    and only while trimming it back to ``target`` stays modest.
    """
    columns = range(2, 80)
    for rows in range(1, 40):
        # The count grows strictly with cols: bisect for the first fit.
        index = bisect_left(
            columns, target, key=lambda cols: heavy_hex_qubit_count(rows, cols)
        )
        if index == len(columns):
            continue
        cols = columns[index]
        excess = heavy_hex_qubit_count(rows, cols) - target
        # Skip shapes so big that trimming them would distort the lattice.
        if excess <= max(12, target // 3):
            yield excess, rows, cols


def heavy_hex_by_qubit_count(
    num_qubits: int, name: str | None = None
) -> HeavyHexLattice:
    """Build a connected heavy-hex lattice with exactly ``num_qubits`` qubits.

    The search prefers exact (untrimmed) matches, then the smallest trim, and
    among equals the most "square" aspect ratio, which minimises the topology
    diameter in line with the paper's MCM-dimension selection rule.

    Parameters
    ----------
    num_qubits:
        Exact number of qubits the lattice must contain (>= 2).
    name:
        Optional identifier; defaults to ``"heavy-hex-<n>"``.
    """
    if num_qubits < 2:
        raise ValueError("a heavy-hex lattice needs at least 2 qubits")

    label = name or f"heavy-hex-{num_qubits}"
    # Rank candidates by an estimate of the topology diameter (cols + 2*rows,
    # since travelling between dense rows costs two hops through a bridge)
    # plus a penalty for every trimmed qubit.  This keeps lattices "square",
    # mirroring the paper's preference for low-diameter devices, while still
    # hitting the exact qubit count.
    candidates = sorted(
        _candidate_shapes(num_qubits),
        key=lambda item: (item[2] + 2 * item[1] + 2 * item[0], item[0]),
    )
    for excess, rows, cols in candidates:
        lattice = build_heavy_hex(rows, cols, name=label)
        if not lattice.is_connected():
            # Degenerate shapes (e.g. two-column lattices missing a bridge
            # row) are skipped outright.
            continue
        if excess == 0:
            return lattice
        trimmed = _trim_to_count(lattice, num_qubits)
        if trimmed is not None and trimmed.is_connected():
            return trimmed
    raise ValueError(f"could not construct a heavy-hex lattice with {num_qubits} qubits")
