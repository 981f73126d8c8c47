"""Post-fabrication frequency-repair subsystem.

The paper's only lever against collision-limited yield collapse is
tighter as-fabricated precision (a global sigma shrink).  Real fabs add
a second lever: *repair* — measure each die, then selectively shift
individual qubit frequencies within a bounded tuning range to break the
specific criteria that fired.  This package models that lever as a new
pipeline stage between fabrication and yield evaluation:

:mod:`repro.tuning.models`
    :class:`TunerModel` — bounded max shift, actuation precision,
    optional per-qubit tune-count budget; laser-anneal-like and
    flux-trim-like presets.
:mod:`repro.tuning.graph`
    :class:`CollisionGraph` — maps violated Table I criteria onto the
    qubits/edges involved, with per-qubit incidence so a shift re-checks
    only the criteria it can change.
:mod:`repro.tuning.strategies`
    The :class:`RepairStrategy` protocol and two implementations:
    vectorised greedy local repair and seeded simulated annealing.
:mod:`repro.tuning.repair`
    :class:`TuningOptions` (the object the yield model, sweeps, CLI and
    cache keys thread through) and :func:`repair_batch` (the batch
    driver with the parallel==sequential determinism contract).

See the README's "Post-fabrication repair" section for how to add a
strategy.
"""

# Import order matters: repro.core's assembly and yield model import
# repro.tuning.repair, and the tuning modules import from repro.core.
# Loading repro.core before any tuning module lets it import those
# modules whole, so a fresh ``import repro.tuning.graph`` works too.
import repro.core  # noqa: F401
from repro.tuning.graph import CollisionGraph
from repro.tuning.models import (
    DEFAULT_MAX_SHIFT_GHZ,
    DEFAULT_TUNER_SIGMA_GHZ,
    TunerModel,
    flux_trim_tuner,
    laser_anneal_tuner,
)
from repro.tuning.repair import BatchRepairOutcome, TuningOptions, repair_batch
from repro.tuning.strategies import (
    STRATEGIES,
    AnnealingRepair,
    GreedyLocalRepair,
    RepairOutcome,
    RepairStrategy,
    get_strategy,
)

__all__ = [
    "AnnealingRepair",
    "BatchRepairOutcome",
    "CollisionGraph",
    "DEFAULT_MAX_SHIFT_GHZ",
    "DEFAULT_TUNER_SIGMA_GHZ",
    "GreedyLocalRepair",
    "RepairOutcome",
    "RepairStrategy",
    "STRATEGIES",
    "TunerModel",
    "TuningOptions",
    "flux_trim_tuner",
    "get_strategy",
    "laser_anneal_tuner",
    "repair_batch",
]
