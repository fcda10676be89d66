"""How thoroughly to run an experiment point: seeds and optimizer preset."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import OptimizerConfig

__all__ = ["RunSettings"]


@dataclass(frozen=True)
class RunSettings:
    """How thoroughly to run an experiment point.

    ``seeds`` drive both the random relation placement and the randomized
    optimizer, so every repetition sees a fresh placement, exactly as in
    the paper's 10-way experiments ("the data points ... represent the
    average of many such random placements", section 4.3).

    Plans are reused only inside one grid point: a point optimizes all
    of its policies for one seed against one environment and one plan
    cache, so hybrid's pure data- and query-shipping passes repeat no
    search.  Nothing is shared across points, so the result does not
    depend on how points are split over worker processes.
    """

    seeds: tuple[int, ...] = (3, 7, 11, 13, 17)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig.fast)

    def quick(self) -> "RunSettings":
        """Three-seed variant for smoke tests."""
        return RunSettings(seeds=self.seeds[:3], optimizer=self.optimizer)
