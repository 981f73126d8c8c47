"""Tuner models: what a post-fabrication frequency-repair tool can do.

Real fabs do not re-fabricate a collided die — they *repair* it.  After
cryogenic (or room-temperature resistance) measurement reveals each
qubit's actual frequency, a tuning tool shifts selected qubits to break
specific Table I collisions:

* **laser annealing** (LASIQ-style) trims the Josephson junction of a
  selected transmon, shifting its frequency by up to a few hundred MHz
  with a per-shot precision of a few MHz.  The junction can realistically
  be annealed only once or twice before the trim saturates.
* **flux trimming** (weakly tunable transmons / trim coils) applies a
  small in-situ bias: a much tighter shift range, but with excellent
  precision, and re-adjustable at will.

:class:`TunerModel` captures the three knobs every such tool shares — a
bounded maximum shift, a Gaussian actuation imprecision, and an optional
per-qubit tune-count budget — without committing to a mechanism.  The
repair strategies (:mod:`repro.tuning.strategies`) consume the model;
the yield pipeline threads it through :class:`repro.tuning.TuningOptions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TunerModel",
    "laser_anneal_tuner",
    "flux_trim_tuner",
    "DEFAULT_MAX_SHIFT_GHZ",
    "DEFAULT_TUNER_SIGMA_GHZ",
]

#: Default bounded tuning range (GHz) — a laser-anneal-like reach.
DEFAULT_MAX_SHIFT_GHZ = 0.300

#: Default actuation imprecision (GHz) of a single tuning shot.
DEFAULT_TUNER_SIGMA_GHZ = 0.005


@dataclass(frozen=True)
class TunerModel:
    """Capabilities of one post-fabrication frequency-tuning tool.

    Attributes
    ----------
    max_shift_ghz:
        Largest intended frequency shift (GHz) the tool can apply to one
        qubit, in either direction, measured from the qubit's
        *as-fabricated* frequency.  ``0`` disables tuning entirely.
    precision_sigma_ghz:
        Standard deviation of the Gaussian actuation error: a shot aimed
        at shift ``s`` lands at ``s + N(0, sigma)``.  The realised shift
        may therefore overshoot ``max_shift_ghz`` slightly — the bound
        constrains the *intent*, the noise models the tool.
    max_tunes_per_qubit:
        Optional per-qubit tune-count budget: how many accepted shifts a
        single qubit may receive.  ``None`` means unlimited; ``0`` makes
        every repair strategy a strict no-op (the CLI's
        ``--repair-budget 0`` baseline).
    """

    max_shift_ghz: float = DEFAULT_MAX_SHIFT_GHZ
    precision_sigma_ghz: float = DEFAULT_TUNER_SIGMA_GHZ
    max_tunes_per_qubit: int | None = None

    def __post_init__(self) -> None:
        # ``not 0 <= x < inf`` also rejects NaN, which every comparison
        # (and so every Table I criterion) would silently pass.
        if not 0 <= self.max_shift_ghz < math.inf:
            raise ValueError("max_shift_ghz must be finite and non-negative")
        if not 0 <= self.precision_sigma_ghz < math.inf:
            raise ValueError("precision_sigma_ghz must be finite and non-negative")
        if self.max_tunes_per_qubit is not None and self.max_tunes_per_qubit < 0:
            raise ValueError("max_tunes_per_qubit must be non-negative or None")

    @property
    def is_noop(self) -> bool:
        """True when no repair strategy can move any frequency."""
        return self.max_shift_ghz == 0.0 or self.max_tunes_per_qubit == 0

    def budget_for(self, num_qubits: int) -> int:
        """Effective per-qubit tune budget (``num_qubits`` caps unlimited).

        An unlimited budget is returned as a finite number large enough
        that no strategy implemented here can exhaust it, so strategy
        code never branches on ``None``.
        """
        if self.max_tunes_per_qubit is None:
            return max(num_qubits, 1) * 16
        return self.max_tunes_per_qubit


def laser_anneal_tuner(
    max_shift_ghz: float = DEFAULT_MAX_SHIFT_GHZ,
    precision_sigma_ghz: float = DEFAULT_TUNER_SIGMA_GHZ,
    max_tunes_per_qubit: int | None = 2,
) -> TunerModel:
    """A LASIQ-like junction annealer: long reach, few shots per qubit."""
    return TunerModel(
        max_shift_ghz=max_shift_ghz,
        precision_sigma_ghz=precision_sigma_ghz,
        max_tunes_per_qubit=max_tunes_per_qubit,
    )


def flux_trim_tuner(
    max_shift_ghz: float = 0.040,
    precision_sigma_ghz: float = 0.001,
    max_tunes_per_qubit: int | None = None,
) -> TunerModel:
    """A flux-trim-like tuner: short reach, tight precision, re-adjustable."""
    return TunerModel(
        max_shift_ghz=max_shift_ghz,
        precision_sigma_ghz=precision_sigma_ghz,
        max_tunes_per_qubit=max_tunes_per_qubit,
    )
