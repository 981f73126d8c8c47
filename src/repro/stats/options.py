"""The statistics knobs of a yield sweep.

:class:`StatsOptions` is the user-facing bundle of the statistics knobs
(``--chunk-size``, ``--ci-target``, ``--max-samples`` on the CLI)
threaded from the command line through the experiment registry into the
sweep entry points, where
:func:`repro.core.yield_model.simulate_yield_point` turns them into a
chunked (optionally CI-targeted) sampling plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.intervals import DEFAULT_CONFIDENCE

__all__ = ["StatsOptions"]


@dataclass(frozen=True)
class StatsOptions:
    """Statistics knobs threaded from the CLI into the yield sweeps.

    Attributes
    ----------
    chunk_size:
        Devices fabricated per chunk.  Setting it switches a sweep point
        to an O(chunk)-memory chunked sampling plan; the chunk partition is
        part of the seeded sampling scheme, so results are a function of
        ``(seed, chunk_size)``.
    ci_target:
        Target CI half-width; setting it enables adaptive stopping.
    max_samples:
        Hard sample cap of adaptive runs (defaults to the sweep's batch
        size when unset).
    confidence, method:
        Interval parameters attached to every resulting
        :class:`~repro.core.yield_model.YieldResult`.
    """

    chunk_size: int | None = None
    ci_target: float | None = None
    max_samples: int | None = None
    confidence: float = DEFAULT_CONFIDENCE
    method: str = "wilson"

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.ci_target is not None and self.ci_target < 0.0:
            raise ValueError("ci_target must be non-negative")
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError("max_samples must be positive")
        if self.max_samples is not None and self.ci_target is None:
            raise ValueError(
                "max_samples only applies to adaptive runs — set ci_target "
                "(fixed-size runs are bounded by the sweep's batch size)"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly inside (0, 1)")

    @property
    def is_default(self) -> bool:
        """True when no knob differs from the defaults (legacy sampling).

        Includes ``confidence`` and ``method``: a caller asking for 99%
        or Jeffreys intervals must reach the stats-aware code paths even
        with default chunking.
        """
        return (
            self.chunk_size is None
            and self.ci_target is None
            and self.max_samples is None
            and self.confidence == DEFAULT_CONFIDENCE
            and self.method == "wilson"
        )
