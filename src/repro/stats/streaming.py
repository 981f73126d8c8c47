"""Streaming (chunked) accumulation of binomial Monte-Carlo outcomes.

The seed-level contract of the chunked estimators lives here:

* a batch of ``total`` samples is partitioned into chunks of
  ``chunk_size`` (the last chunk ragged) by :func:`chunk_layout`;
* chunk ``i`` of a run with master seed ``s`` always derives its seed as
  ``SeedSequence(s).spawn``-child ``i`` — a pure function of ``(s, i)``,
  independent of how many chunks end up being drawn (spawned children
  are prefix-stable), of execution order, and of the process the chunk
  runs in.

Those two rules make every chunked consumer bit-identical to the
monolithic batch at the same seed: materialising all chunks into one
``(total, num_qubits)`` array and reducing once, streaming them through
a :class:`StreamingEstimator` in O(chunk) memory, and stopping early
after any chunk prefix all observe literally the same samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.seeding import spawn_seed_at
from repro.stats.intervals import (
    DEFAULT_CONFIDENCE,
    ConfidenceInterval,
    binomial_ci,
)

__all__ = [
    "StreamingEstimator",
    "chunk_layout",
    "chunk_seed",
    "DEFAULT_CHUNK_SIZE",
]

#: Devices fabricated per chunk when the caller does not choose a size.
DEFAULT_CHUNK_SIZE = 250


def chunk_layout(total: int, chunk_size: int) -> list[int]:
    """Chunk lengths covering ``total`` samples (last chunk ragged).

    ``chunk_layout(1000, 250) == [250, 250, 250, 250]``;
    ``chunk_layout(600, 250) == [250, 250, 100]``.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    full, remainder = divmod(total, chunk_size)
    return [chunk_size] * full + ([remainder] if remainder else [])


def chunk_seed(seed: int | None, chunk_index: int) -> int | None:
    """The canonical seed of chunk ``chunk_index`` under master ``seed``.

    ``None`` propagates (explicitly non-reproducible sampling).  For any
    ``n > chunk_index`` this equals
    ``repro.engine.seeding.spawn_seeds(seed, n)[chunk_index]`` — the
    derivation does not depend on how many chunks a run draws.
    """
    return spawn_seed_at(seed, chunk_index)


@dataclass
class StreamingEstimator:
    """Accumulates binomial chunk outcomes and serves running intervals.

    The estimator never sees the samples themselves — only per-chunk
    ``(successes, trials)`` pairs — so it is the O(1)-state reduction at
    the heart of the O(chunk)-memory yield paths.

    Attributes
    ----------
    confidence:
        Two-sided confidence level of the served intervals.
    method:
        Interval construction (``"wilson"`` or ``"jeffreys"``).
    successes, trials, chunks:
        Running totals.
    """

    confidence: float = DEFAULT_CONFIDENCE
    method: str = "wilson"
    successes: int = 0
    trials: int = 0
    chunks: int = field(default=0)

    def update(self, successes: int, trials: int) -> "StreamingEstimator":
        """Fold one chunk's outcome into the running totals."""
        if trials <= 0:
            raise ValueError("a chunk must contain at least one trial")
        if not 0 <= successes <= trials:
            raise ValueError("chunk successes must lie in [0, trials]")
        self.successes += successes
        self.trials += trials
        self.chunks += 1
        return self

    @property
    def estimate(self) -> float:
        """Running success fraction (``nan`` before the first chunk)."""
        if self.trials == 0:
            return float("nan")
        return self.successes / self.trials

    def interval(self) -> ConfidenceInterval:
        """Confidence interval at the current totals."""
        if self.trials == 0:
            raise ValueError("no chunks accumulated yet")
        return binomial_ci(
            self.successes, self.trials, confidence=self.confidence, method=self.method
        )

    def half_width(self) -> float:
        """CI half-width at the current totals (``inf`` with no data)."""
        if self.trials == 0:
            return float("inf")
        return self.interval().half_width
