"""Monte-Carlo statistics: chunked sampling plans + confidence intervals.

Every yield estimate the repo publishes is a binomial success fraction;
this package upgrades those point estimates into interval estimates and
bounded-memory, bounded-error sampling:

* :mod:`repro.stats.intervals` — Wilson and Jeffreys binomial confidence
  intervals (the Wald interval collapses exactly where the paper's
  yield-collapse curves live, at yields near 0 and 1);
* :mod:`repro.stats.streaming` — the chunked sampling contract (spawn-
  seeded, prefix-stable chunk seeds) and the O(1)-state
  :class:`StreamingEstimator` reduction whose running half-width is the
  CI-targeted stopping rule;
* :mod:`repro.stats.options` — the :class:`StatsOptions` bundle the CLI
  threads into the sweeps.

The sampling loop itself lives in
:func:`repro.core.yield_model.simulate_yield_point`.

Layering: ``repro.stats`` depends only on numpy/scipy and
:mod:`repro.engine.seeding`; it knows nothing about devices or
collisions, so any layer (core, analysis, benchmarks) may import it.
"""

from repro.stats.intervals import (
    CI_METHODS,
    DEFAULT_CONFIDENCE,
    ConfidenceInterval,
    binomial_ci,
    jeffreys_interval,
    median_interval,
    midpoint_median,
    normal_quantile,
    samples_for_half_width,
    wilson_interval,
)
from repro.stats.options import StatsOptions
from repro.stats.streaming import (
    DEFAULT_CHUNK_SIZE,
    StreamingEstimator,
    chunk_layout,
    chunk_seed,
)

__all__ = [
    "ConfidenceInterval",
    "StatsOptions",
    "StreamingEstimator",
    "binomial_ci",
    "chunk_layout",
    "chunk_seed",
    "jeffreys_interval",
    "median_interval",
    "midpoint_median",
    "normal_quantile",
    "samples_for_half_width",
    "wilson_interval",
    "CI_METHODS",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_CONFIDENCE",
]
