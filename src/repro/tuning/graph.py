"""Collision-graph extraction: from violated criteria to repairable qubits.

Repairing a device is a *local* optimisation problem: shifting one
qubit's frequency can only change the Table I criteria whose edge or
control-triple contains that qubit.  :class:`CollisionGraph` precomputes
that incidence structure once per :class:`FrequencyAllocation` — the
edge indices and triple indices touching every qubit — so a repair
strategy can

1. evaluate the full device once (vectorised over all edges/triples),
2. locate the qubits participating in violated criteria, and
3. after each candidate shift, re-check **only the touched criteria**
   instead of the whole device — a plain-Python count over per-qubit
   constraint tables, since a few scalars per shot are far cheaper
   outside numpy.

The per-criterion formulas are the same as
:func:`repro.core.collisions.collision_free_mask` — the graph counts one
violation per (criterion type, edge/triple) pair, exactly like
:meth:`repro.core.collisions.CollisionReport.num_collisions` — so a
device the graph scores at zero violations is collision-free under the
authoritative batched mask.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.collisions import CollisionThresholds
from repro.core.frequencies import FrequencyAllocation

__all__ = ["CollisionGraph"]

_EMPTY = np.zeros(0, dtype=np.int64)


class CollisionGraph:
    """Incidence structure of the seven criteria over one allocation.

    Parameters
    ----------
    allocation:
        The frequency plan whose directed edges / control triples define
        the criteria.  The graph is device-independent: one instance
        serves every sampled device of a batch.
    thresholds:
        Criterion windows; defaults to the paper's Table I values.
    """

    def __init__(
        self,
        allocation: FrequencyAllocation,
        thresholds: CollisionThresholds | None = None,
    ):
        self.allocation = allocation
        self.thresholds = thresholds or CollisionThresholds()
        self.ideal = allocation.ideal_frequencies
        self.alpha = allocation.anharmonicities
        self.num_qubits = allocation.num_qubits

        edges = allocation.directed_edges
        triples = allocation.control_triples
        self.edge_control = edges[:, 0] if edges.shape[0] else _EMPTY
        self.edge_target = edges[:, 1] if edges.shape[0] else _EMPTY
        self.triple_control = triples[:, 0] if triples.shape[0] else _EMPTY
        self.triple_a = triples[:, 1] if triples.shape[0] else _EMPTY
        self.triple_b = triples[:, 2] if triples.shape[0] else _EMPTY

        # Per-qubit incidence: the index lists behind touched(), and the
        # same constraints as scalar tables for local_violations (edges as
        # (control, target, a_control, a_target), triples as
        # (c, a, b, a_c, a_a, a_b)) in Python ints and floats, so a
        # re-check never crosses into numpy.
        alpha = self.alpha.tolist()
        edge_lists: list[list[int]] = [[] for _ in range(self.num_qubits)]
        self._edge_terms: list[list[tuple]] = [[] for _ in range(self.num_qubits)]
        for index, (u, v) in enumerate(edges.tolist()):
            term = (u, v, alpha[u], alpha[v])
            for qubit in (u, v):
                edge_lists[qubit].append(index)
                self._edge_terms[qubit].append(term)
        triple_lists: list[list[int]] = [[] for _ in range(self.num_qubits)]
        self._triple_terms: list[list[tuple]] = [[] for _ in range(self.num_qubits)]
        for index, (c, a, b) in enumerate(triples.tolist()):
            term = (c, a, b, alpha[c], alpha[a], alpha[b])
            for qubit in (c, a, b):
                triple_lists[qubit].append(index)
                self._triple_terms[qubit].append(term)
        self._edges_by_qubit = [np.asarray(l, dtype=np.int64) for l in edge_lists]
        self._triples_by_qubit = [np.asarray(l, dtype=np.int64) for l in triple_lists]
        self._neighbors_by_qubit: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Criterion evaluation (single device, vectorised over constraints)
    # ------------------------------------------------------------------ #
    def edge_violations(
        self, frequencies: np.ndarray, edge_indices: np.ndarray | None = None
    ) -> int:
        """Violated pair criteria (types 1-4) over selected edges.

        ``edge_indices`` restricts the check to a subset (the touched
        edges of a candidate shift); ``None`` checks every edge.
        """
        control = self.edge_control
        target = self.edge_target
        if edge_indices is not None:
            control = control[edge_indices]
            target = target[edge_indices]
        if control.shape[0] == 0:
            return 0
        th = self.thresholds
        fi = frequencies[control]
        fj = frequencies[target]
        ai = self.alpha[control]
        aj = self.alpha[target]
        type1 = np.abs(fi - fj) < th.type1_ghz
        type2 = np.abs(fi + ai / 2.0 - fj) < th.type2_ghz
        type3 = (np.abs(fi - (fj + aj)) < th.type3_ghz) | (
            np.abs(fj - (fi + ai)) < th.type3_ghz
        )
        type4 = (fj < fi + ai) | (fi < fj)
        return int(type1.sum() + type2.sum() + type3.sum() + type4.sum())

    def triple_violations(
        self, frequencies: np.ndarray, triple_indices: np.ndarray | None = None
    ) -> int:
        """Violated shared-control criteria (types 5-7) over selected triples."""
        control = self.triple_control
        t_a = self.triple_a
        t_b = self.triple_b
        if triple_indices is not None:
            control = control[triple_indices]
            t_a = t_a[triple_indices]
            t_b = t_b[triple_indices]
        if control.shape[0] == 0:
            return 0
        th = self.thresholds
        fi = frequencies[control]
        fj = frequencies[t_a]
        fk = frequencies[t_b]
        ai = self.alpha[control]
        aj = self.alpha[t_a]
        ak = self.alpha[t_b]
        type5 = np.abs(fj - fk) < th.type5_ghz
        type6 = (np.abs(fj - (fk + ak)) < th.type6_ghz) | (
            np.abs(fk - (fj + aj)) < th.type6_ghz
        )
        type7 = np.abs(2.0 * fi + ai - (fj + fk)) < th.type7_ghz
        return int(type5.sum() + type6.sum() + type7.sum())

    def total_violations(self, frequencies: np.ndarray) -> int:
        """Violated criteria over the whole device (0 == collision-free)."""
        return self.edge_violations(frequencies) + self.triple_violations(frequencies)

    # ------------------------------------------------------------------ #
    # Criterion evaluation (device-major: whole batch, one pass)
    # ------------------------------------------------------------------ #
    def batch_total_violations(self, frequencies: np.ndarray) -> np.ndarray:
        """Per-device violated-criteria counts for a ``(batch, num_qubits)``
        array — every criterion extracted across the batch dimension in one
        vectorised pass.

        Row ``i`` equals ``total_violations(frequencies[i])`` exactly (the
        same comparisons summed in a different order over integers), so
        the batch repair driver can screen every collided device up front
        instead of paying one Python-level evaluation per die.
        """
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.ndim == 1:
            freqs = freqs[np.newaxis, :]
        counts = np.zeros(freqs.shape[0], dtype=np.int64)
        th = self.thresholds
        if self.edge_control.shape[0]:
            fi = freqs[:, self.edge_control]
            fj = freqs[:, self.edge_target]
            ai = self.alpha[self.edge_control][np.newaxis, :]
            aj = self.alpha[self.edge_target][np.newaxis, :]
            counts += (np.abs(fi - fj) < th.type1_ghz).sum(axis=1)
            counts += (np.abs(fi + ai / 2.0 - fj) < th.type2_ghz).sum(axis=1)
            counts += (
                (np.abs(fi - (fj + aj)) < th.type3_ghz)
                | (np.abs(fj - (fi + ai)) < th.type3_ghz)
            ).sum(axis=1)
            counts += ((fj < fi + ai) | (fi < fj)).sum(axis=1)
        if self.triple_control.shape[0]:
            fi = freqs[:, self.triple_control]
            fj = freqs[:, self.triple_a]
            fk = freqs[:, self.triple_b]
            ai = self.alpha[self.triple_control][np.newaxis, :]
            aj = self.alpha[self.triple_a][np.newaxis, :]
            ak = self.alpha[self.triple_b][np.newaxis, :]
            counts += (np.abs(fj - fk) < th.type5_ghz).sum(axis=1)
            counts += (
                (np.abs(fj - (fk + ak)) < th.type6_ghz)
                | (np.abs(fk - (fj + aj)) < th.type6_ghz)
            ).sum(axis=1)
            counts += (np.abs(2.0 * fi + ai - (fj + fk)) < th.type7_ghz).sum(axis=1)
        return counts

    # ------------------------------------------------------------------ #
    # Locality
    # ------------------------------------------------------------------ #
    def touched(self, qubit: int) -> tuple[np.ndarray, np.ndarray]:
        """``(edge_indices, triple_indices)`` containing ``qubit``.

        These are exactly the criteria a shift of ``qubit`` can change;
        everything else is invariant under the shift.
        """
        return self._edges_by_qubit[qubit], self._triples_by_qubit[qubit]

    def constraint_neighbors(self, qubit: int) -> np.ndarray:
        """Sorted qubits sharing a criterion with ``qubit`` (incl. itself).

        Shifting any of these invalidates a precomputed evaluation of
        ``qubit``'s touched criteria; shifting anything else cannot.
        The greedy strategy's staged screen uses this as its dirty set.
        Built lazily in one pass and cached on the graph.
        """
        if self._neighbors_by_qubit is None:
            members: list[set[int]] = [{q} for q in range(self.num_qubits)]
            for u, v in zip(self.edge_control, self.edge_target):
                members[int(u)].add(int(v))
                members[int(v)].add(int(u))
            for c, a, b in zip(self.triple_control, self.triple_a, self.triple_b):
                triple = (int(c), int(a), int(b))
                for q in triple:
                    members[q].update(triple)
            self._neighbors_by_qubit = [
                np.fromiter(sorted(s), count=len(s), dtype=np.int64) for s in members
            ]
        return self._neighbors_by_qubit[qubit]

    def local_violations(self, frequencies: Sequence[float], qubit: int) -> int:
        """Violated criteria among the constraints touching ``qubit``.

        The repair strategies' per-shot re-check.  ``frequencies`` is a
        sequence indexed by qubit (the strategies pass a Python-list
        mirror of their working array).  A handful of constraints touch
        one qubit, so this is a plain-Python count over the per-qubit
        tables rather than a numpy pass; it applies the same float64
        operations in the same order as :meth:`edge_violations` and
        :meth:`triple_violations` over :meth:`touched`, so the count is
        identical, not just close.
        """
        th = self.thresholds
        type1, type2, type3 = th.type1_ghz, th.type2_ghz, th.type3_ghz
        type5, type6, type7 = th.type5_ghz, th.type6_ghz, th.type7_ghz
        count = 0
        for control, target, ai, aj in self._edge_terms[qubit]:
            fi = frequencies[control]
            fj = frequencies[target]
            if abs(fi - fj) < type1:
                count += 1
            if abs(fi + ai / 2.0 - fj) < type2:
                count += 1
            if abs(fi - (fj + aj)) < type3 or abs(fj - (fi + ai)) < type3:
                count += 1
            if fj < fi + ai or fi < fj:
                count += 1
        for control, t_a, t_b, ai, aj, ak in self._triple_terms[qubit]:
            fi = frequencies[control]
            fj = frequencies[t_a]
            fk = frequencies[t_b]
            if abs(fj - fk) < type5:
                count += 1
            if abs(fj - (fk + ak)) < type6 or abs(fk - (fj + aj)) < type6:
                count += 1
            if abs(2.0 * fi + ai - (fj + fk)) < type7:
                count += 1
        return count

    def per_qubit_violations(self, frequencies: np.ndarray) -> np.ndarray:
        """Number of violated criteria each qubit participates in.

        Computed in one vectorised pass: every violated edge scores both
        endpoints, every violated triple all three members.
        """
        counts = np.zeros(self.num_qubits, dtype=np.int64)
        th = self.thresholds
        if self.edge_control.shape[0]:
            fi = frequencies[self.edge_control]
            fj = frequencies[self.edge_target]
            ai = self.alpha[self.edge_control]
            aj = self.alpha[self.edge_target]
            per_edge = (
                (np.abs(fi - fj) < th.type1_ghz).astype(np.int64)
                + (np.abs(fi + ai / 2.0 - fj) < th.type2_ghz)
                + (
                    (np.abs(fi - (fj + aj)) < th.type3_ghz)
                    | (np.abs(fj - (fi + ai)) < th.type3_ghz)
                )
                + ((fj < fi + ai) | (fi < fj))
            )
            np.add.at(counts, self.edge_control, per_edge)
            np.add.at(counts, self.edge_target, per_edge)
        if self.triple_control.shape[0]:
            fi = frequencies[self.triple_control]
            fj = frequencies[self.triple_a]
            fk = frequencies[self.triple_b]
            ai = self.alpha[self.triple_control]
            aj = self.alpha[self.triple_a]
            ak = self.alpha[self.triple_b]
            per_triple = (
                (np.abs(fj - fk) < th.type5_ghz).astype(np.int64)
                + (
                    (np.abs(fj - (fk + ak)) < th.type6_ghz)
                    | (np.abs(fk - (fj + aj)) < th.type6_ghz)
                )
                + (np.abs(2.0 * fi + ai - (fj + fk)) < th.type7_ghz)
            )
            np.add.at(counts, self.triple_control, per_triple)
            np.add.at(counts, self.triple_a, per_triple)
            np.add.at(counts, self.triple_b, per_triple)
        return counts

    def violating_qubits(self, frequencies: np.ndarray) -> np.ndarray:
        """Sorted indices of qubits participating in a violated criterion."""
        return np.flatnonzero(self.per_qubit_violations(frequencies) > 0)
