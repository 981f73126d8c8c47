"""Known-good-die binning and MCM assembly (paper Sections V-D, VII-B).

The assembly pipeline is:

1. *Fabricate* a batch of chiplets (Monte-Carlo frequency sampling), keep
   only the collision-free ones, and characterise each survivor's two-qubit
   gate errors from the empirical detuning-binned model — this is the
   known-good-die (KGD) step.  When a :class:`repro.tuning.TuningOptions`
   is supplied, collided dies pass through the post-fabrication repair
   stage first, and the dies the tuner recovers join the bin flagged as
   ``repaired`` (counted separately all the way to
   :class:`repro.core.output_model.FabricationOutput`).
2. *Sort* the collision-free bin by average error so the best chiplets are
   consumed first ("speed binning").
3. *Stitch* chiplets into MCMs greedily: take the next ``k*m`` chiplets,
   test the assembled module for frequency collisions across the
   inter-chip links, and reshuffle the placement (up to 100 permutations,
   the paper's time-out) when a collision is found.  If no collision-free
   placement exists the leading chiplet is set aside and assembly continues
   with the next subset.
4. *Account for assembly losses*: every linked qubit requires 25 C4 bump
   bonds, each succeeding with probability ``s_l`` (silicon interposer
   defect rates), so the post-assembly yield is the chiplet utilisation
   scaled by ``(s_l ** 25) ** L``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.chiplet import ChipletDesign
from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.mcm import MCMDesign
from repro.device.device import Device
from repro.device.noise import EmpiricalCXModel, LinkErrorModel
from repro.tuning.repair import TuningOptions, repair_batch

__all__ = [
    "FabricatedChiplet",
    "ChipletBin",
    "AssembledMCM",
    "AssemblyResult",
    "fabricate_chiplet_bin",
    "assemble_mcms",
    "rank_devices",
    "post_assembly_yield",
    "bump_bond_success_probability",
    "C4_BUMP_SUCCESS_PROBABILITY",
    "BUMPS_PER_LINK_QUBIT",
    "DEFAULT_MAX_RESHUFFLES",
]

#: Success probability of a single C4 bump bond on a passive interposer.
C4_BUMP_SUCCESS_PROBABILITY = 0.99999960642

#: Number of bump bonds required per inter-chip linked qubit.
BUMPS_PER_LINK_QUBIT = 25

#: Placement-reshuffle time-out used during MCM stitching.
DEFAULT_MAX_RESHUFFLES = 100


@dataclass
class FabricatedChiplet:
    """One collision-free chiplet out of a fabrication batch.

    Attributes
    ----------
    frequencies_ghz:
        Actual qubit frequencies of this die.
    edge_errors:
        KGD-characterised two-qubit infidelity per on-chip coupling
        (local qubit indices).
    repaired:
        True when the die is collision-free only because the
        post-fabrication tuner repaired it (``compare=False`` so the
        flag stays out of golden summaries and cache identities).
    tuned_qubits:
        Local indices of the qubits the tuner shifted on this die
        (empty for as-fabricated survivors).
    """

    frequencies_ghz: np.ndarray
    edge_errors: dict[tuple[int, int], float]
    repaired: bool = field(default=False, compare=False)
    tuned_qubits: tuple[int, ...] = field(default=(), compare=False)
    average_error_ghz: float | None = field(default=None, compare=False)

    @property
    def average_error(self) -> float:
        """Average on-chip two-qubit infidelity (used for binning).

        ``fabricate_chiplet_bin`` precomputes this for the whole bin in
        one contiguous ``mean(axis=1)`` (bit-identical to averaging the
        dict values per die); directly-constructed chiplets fall back to
        the per-die reduction.
        """
        if self.average_error_ghz is not None:
            return self.average_error_ghz
        return float(np.mean(list(self.edge_errors.values())))


@dataclass
class ChipletBin:
    """The sorted, collision-free chiplet bin produced by KGD testing.

    Attributes
    ----------
    design:
        The chiplet design every die implements.
    chiplets:
        Collision-free dies sorted by ascending average error.
    batch_size:
        Size of the original fabrication batch.
    num_repaired:
        Dies in the bin that exist only thanks to post-fabrication
        repair (0 for untuned bins; ``compare=False`` keeps it out of
        golden summaries and cache identities).
    """

    design: ChipletDesign
    chiplets: list[FabricatedChiplet]
    batch_size: int
    num_repaired: int = field(default=0, compare=False)

    @property
    def num_collision_free(self) -> int:
        """Number of dies that survived collision screening."""
        return len(self.chiplets)

    @property
    def collision_free_yield(self) -> float:
        """Fraction of the batch that is collision-free (repaired included)."""
        return self.num_collision_free / self.batch_size

    @property
    def as_fab_yield(self) -> float:
        """Fraction of the batch collision-free without any repair."""
        return (self.num_collision_free - self.num_repaired) / self.batch_size


@dataclass
class AssembledMCM:
    """A complete, collision-free multi-chip module.

    Attributes
    ----------
    design:
        The MCM design (grid + links) the module implements.
    frequencies_ghz:
        Assembled per-qubit frequencies (global MCM indices).
    edge_errors:
        Two-qubit infidelity for every coupling, including links.
    num_repaired_chiplets:
        How many of the module's chiplets were post-fabrication repairs
        (0 for untuned pipelines; ``compare=False``, see
        :class:`FabricatedChiplet`).
    tuned_qubits:
        Global MCM indices of the qubits the tuner shifted across the
        module's chiplets (exported into ``Device`` metadata, where
        ``Device.qubit(i).tuned`` picks it up).
    """

    design: MCMDesign
    frequencies_ghz: np.ndarray
    edge_errors: dict[tuple[int, int], float]
    num_repaired_chiplets: int = field(default=0, compare=False)
    tuned_qubits: tuple[int, ...] = field(default=(), compare=False)

    @property
    def average_error(self) -> float:
        """Average two-qubit infidelity over all couplings (``E_avg``)."""
        return float(np.mean(list(self.edge_errors.values())))

    def to_device(self, name: str | None = None) -> Device:
        """Convert the assembled module into a :class:`Device`."""
        return Device(
            name=name or self.design.name,
            coupling=self.design.coupling_map(),
            frequencies_ghz=self.frequencies_ghz,
            labels=self.design.allocation.labels.copy(),
            edge_errors=dict(self.edge_errors),
            metadata={
                "chiplet_size": self.design.chiplet.num_qubits,
                "grid": (self.design.grid_rows, self.design.grid_cols),
                "num_links": self.design.num_links,
                "repaired_chiplets": self.num_repaired_chiplets,
                "tuned_qubits": self.tuned_qubits,
            },
        )


def rank_devices(
    mcms: "list[AssembledMCM]", count: int, name_prefix: str
) -> list[Device]:
    """Device views of the ``count`` lowest-average-error modules.

    The application-evaluation layer scores this top-k ensemble instead
    of a single best device: one device per configuration is a noisy
    (single order statistic) estimator of architecture quality.  Shared
    by :meth:`repro.analysis.study.MCMResult.top_devices` and the
    appsweep device-build task so the ranking rule lives in one place.
    """
    ranked = sorted(mcms, key=lambda m: m.average_error)[:count]
    return [
        mcm.to_device(name=f"{name_prefix}-rank{rank}")
        for rank, mcm in enumerate(ranked)
    ]


@dataclass
class AssemblyResult:
    """Outcome of assembling one MCM configuration from a chiplet bin."""

    design: MCMDesign
    mcms: list[AssembledMCM] = field(default_factory=list)
    chiplets_used: int = 0
    chiplets_set_aside: int = 0
    reshuffles: int = 0
    repaired_chiplets_used: int = field(default=0, compare=False)

    @property
    def num_mcms(self) -> int:
        """Number of complete, collision-free MCMs assembled."""
        return len(self.mcms)


def fabricate_chiplet_bin(
    design: ChipletDesign,
    fabrication: FabricationModel,
    cx_model: EmpiricalCXModel,
    batch_size: int,
    rng: np.random.Generator,
    thresholds: CollisionThresholds | None = None,
    tuning: TuningOptions | None = None,
    draw_seed=None,
) -> ChipletBin:
    """Fabricate, screen, (optionally) repair and KGD-characterise a batch.

    ``draw_seed`` — the exact seed ``rng`` was freshly constructed from,
    when known — routes the fabrication draws through the sample bank
    (:mod:`repro.core.sample_bank`): bins re-fabricated at another sigma
    but the same seed reuse the base draws, and the characterisation /
    repair streams continue ``rng`` bit-identically.

    With ``tuning`` set, dies that fail collision screening are handed to
    the post-fabrication repair stage; recovered dies join the bin after
    the as-fabricated survivors, flagged ``repaired``, before the whole
    bin is speed-sorted by average error.  Repair (and the repaired
    dies' error characterisation) draws from a *spawned child* of
    ``rng``, never from the main stream — so the as-fabricated
    survivors' frequencies AND error draws are bit-identical between a
    tuned bin and its untuned twin at the same seed, and the repair axis
    of a comparison isolates the repair effect instead of resampling
    every coupling.  The untuned path consumes exactly the historical
    random stream.  (Child spawning needs a seed-sequence-backed
    generator — anything from ``np.random.default_rng``.)
    """
    frequencies = fabrication.sample_batch(
        design.allocation, batch_size, rng, draw_seed=draw_seed
    )
    mask = collision_free_mask(design.allocation, frequencies, thresholds)
    num_repaired = 0
    repaired_rows = frequencies[:0]
    repaired_tuned: list[tuple[int, ...]] = []
    repair_rng: np.random.Generator | None = None
    if tuning is not None and not mask.all():
        repair_rng = rng.spawn(1)[0]
        outcome = repair_batch(
            design.allocation, frequencies, tuning, repair_rng, thresholds
        )
        num_repaired = outcome.num_repaired
        repaired_rows = outcome.frequencies[outcome.repaired_mask]
        repaired_tuned = [
            outcome.tuned_qubit_indices.get(int(index), ())
            for index in np.flatnonzero(outcome.repaired_mask)
        ]

    edges = design.edges()
    edge_u = np.asarray([u for u, _ in edges])
    edge_v = np.asarray([v for _, v in edges])

    def _characterise(rows: np.ndarray, sample_rng: np.random.Generator) -> np.ndarray:
        # Vectorised detunings for every surviving die and coupling; the
        # whole bin is characterised from one contiguous (dies, edges)
        # array.
        detunings = np.abs(rows[:, edge_u] - rows[:, edge_v])
        return cx_model.sample_many(detunings, sample_rng)

    # Characterise both survivor groups device-major, then build the bin
    # already speed-sorted: per-die averages come from one bulk
    # mean(axis=1) over the contiguous error array, and the stable
    # argsort reproduces exactly what sorting chiplet objects by their
    # per-die dict average used to produce (same float64 values, same
    # tie order: as-fabricated dies before repaired ones).
    as_fab = frequencies[mask]
    parts: list[np.ndarray] = []
    part_errors: list[np.ndarray] = []
    if as_fab.shape[0]:
        parts.append(as_fab)
        part_errors.append(_characterise(as_fab, rng))
    if repaired_rows.shape[0]:
        parts.append(repaired_rows)
        part_errors.append(_characterise(repaired_rows, repair_rng))

    chiplets: list[FabricatedChiplet] = []
    if parts:
        num_as_fab = as_fab.shape[0]
        all_rows = np.concatenate(parts, axis=0)
        all_errors = np.concatenate(part_errors, axis=0)
        averages = all_errors.mean(axis=1)
        error_lists = all_errors.tolist()  # one bulk ndarray -> float conversion
        for position in np.argsort(averages, kind="stable"):
            position = int(position)
            is_repaired = position >= num_as_fab
            chiplets.append(
                FabricatedChiplet(
                    frequencies_ghz=all_rows[position].copy(),
                    edge_errors=dict(zip(edges, error_lists[position])),
                    repaired=is_repaired,
                    tuned_qubits=tuple(repaired_tuned[position - num_as_fab])
                    if is_repaired
                    else (),
                    average_error_ghz=float(averages[position]),
                )
            )
    return ChipletBin(
        design=design,
        chiplets=chiplets,
        batch_size=batch_size,
        num_repaired=num_repaired,
    )


def _try_placements(
    subset: list[FabricatedChiplet],
    design: MCMDesign,
    rng: np.random.Generator,
    max_reshuffles: int,
    thresholds: CollisionThresholds | None,
) -> tuple[list[int] | None, int]:
    """Search for a collision-free placement of ``subset`` into the MCM grid.

    Returns the placement (a permutation of subset indices) and the number
    of reshuffles that were attempted.

    The in-order placement is tested first (one cheap call — the common
    case when the bin is clean).  When it collides, every candidate
    permutation is drawn up front and evaluated in a *single* batched
    :func:`collision_free_mask` call instead of up to ``max_reshuffles``
    batch-of-1 calls (see ``benchmarks/bench_assembly.py`` for the
    measured speedup).  To keep the caller's random stream bit-identical
    to the historical draw-one-test-one loop — the same generator later
    samples link errors — the generator state is saved before the bulk
    draw and then replayed for exactly as many permutations as the
    sequential search would have consumed.
    """
    num_chips = design.num_chips
    identity = list(range(num_chips))
    frequencies = design.assemble_frequencies(
        [subset[i].frequencies_ghz for i in identity]
    )
    if bool(collision_free_mask(design.allocation, frequencies, thresholds)[0]):
        return identity, 0
    if max_reshuffles <= 0:
        return None, 0

    state = rng.bit_generator.state
    permutations = np.stack(
        [rng.permutation(num_chips) for _ in range(max_reshuffles)]
    )
    chip_frequencies = np.stack([c.frequencies_ghz for c in subset])
    # chip_frequencies[permutations] has shape (reshuffles, chips, qubits);
    # flattening the chip axis reproduces assemble_frequencies row by row.
    candidate_batch = chip_frequencies[permutations].reshape(max_reshuffles, -1)
    mask = collision_free_mask(design.allocation, candidate_batch, thresholds)
    hits = np.flatnonzero(mask)

    attempts = int(hits[0]) + 1 if hits.size else max_reshuffles
    rng.bit_generator.state = state
    for _ in range(attempts):
        rng.permutation(num_chips)

    if hits.size:
        return [int(chip) for chip in permutations[hits[0]]], attempts
    return None, attempts


def assemble_mcms(
    chiplet_bin: ChipletBin,
    design: MCMDesign,
    link_model: LinkErrorModel,
    rng: np.random.Generator,
    max_reshuffles: int = DEFAULT_MAX_RESHUFFLES,
    max_mcms: int | None = None,
    thresholds: CollisionThresholds | None = None,
) -> AssemblyResult:
    """Greedily stitch the sorted chiplet bin into complete MCMs.

    Parameters
    ----------
    chiplet_bin:
        Sorted, collision-free chiplets (best first).
    design:
        The MCM configuration to assemble.
    link_model:
        Inter-chip link error distribution used to characterise link gates.
    rng:
        Source of randomness for reshuffling and link-error sampling.
    max_reshuffles:
        Placement-permutation time-out per subset (paper: 100).
    max_mcms:
        Optional cap on the number of MCMs to assemble (useful when only
        the best module is needed for application analysis).
    thresholds:
        Collision windows.
    """
    if design.chiplet.num_qubits != chiplet_bin.design.num_qubits:
        raise ValueError("chiplet bin and MCM design use different chiplet sizes")

    result = AssemblyResult(design=design)
    pool = list(chiplet_bin.chiplets)
    num_chips = design.num_chips
    qc = design.chiplet.num_qubits

    while len(pool) >= num_chips:
        if max_mcms is not None and result.num_mcms >= max_mcms:
            break
        subset = pool[:num_chips]
        placement, attempts = _try_placements(
            subset, design, rng, max_reshuffles, thresholds
        )
        result.reshuffles += attempts
        if placement is None:
            # No collision-free arrangement: set the leading chiplet aside and
            # retry with the next subset from the sorted bin.
            pool.pop(0)
            result.chiplets_set_aside += 1
            continue

        ordered = [subset[i] for i in placement]
        frequencies = design.assemble_frequencies([c.frequencies_ghz for c in ordered])
        edge_errors: dict[tuple[int, int], float] = {}
        tuned_qubits: list[int] = []
        for chip_index, chiplet in enumerate(ordered):
            offset = chip_index * qc
            for (u, v), error in chiplet.edge_errors.items():
                edge_errors[(u + offset, v + offset)] = error
            tuned_qubits.extend(q + offset for q in chiplet.tuned_qubits)
        for link in design.links:
            edge_errors[link.edge] = float(link_model.sample(rng))

        repaired_chiplets = sum(1 for c in ordered if c.repaired)
        result.mcms.append(
            AssembledMCM(
                design=design,
                frequencies_ghz=frequencies,
                edge_errors=edge_errors,
                num_repaired_chiplets=repaired_chiplets,
                tuned_qubits=tuple(tuned_qubits),
            )
        )
        result.chiplets_used += num_chips
        result.repaired_chiplets_used += repaired_chiplets
        pool = pool[num_chips:]

    return result


def bump_bond_success_probability(
    num_link_qubits: int,
    bump_success: float = C4_BUMP_SUCCESS_PROBABILITY,
    bumps_per_link_qubit: int = BUMPS_PER_LINK_QUBIT,
    failure_multiplier: float = 1.0,
) -> float:
    """Probability that every link qubit of an MCM bonds successfully.

    ``failure_multiplier`` scales the per-bump *failure* probability and is
    used for the paper's 100x sensitivity study (Fig. 8 dashed curves).
    """
    if not 0.0 <= bump_success <= 1.0:
        raise ValueError("bump_success must be a probability")
    failure = (1.0 - bump_success) * failure_multiplier
    effective_success = max(0.0, 1.0 - failure)
    per_qubit = effective_success**bumps_per_link_qubit
    return per_qubit**num_link_qubits


def post_assembly_yield(
    result: AssemblyResult,
    batch_size: int,
    bump_success: float = C4_BUMP_SUCCESS_PROBABILITY,
    bumps_per_link_qubit: int = BUMPS_PER_LINK_QUBIT,
    failure_multiplier: float = 1.0,
) -> float:
    """Post-assembly MCM yield (paper Section VII-C1).

    The utilisation term is the fraction of the original fabrication batch
    that ended up inside complete, collision-free MCMs; the bonding term is
    the probability that all ``L`` link qubits of a module bond correctly.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    utilisation = result.chiplets_used / batch_size
    bonding = bump_bond_success_probability(
        result.design.num_link_qubits,
        bump_success=bump_success,
        bumps_per_link_qubit=bumps_per_link_qubit,
        failure_multiplier=failure_multiplier,
    )
    return utilisation * bonding
