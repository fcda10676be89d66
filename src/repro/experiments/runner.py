"""How thoroughly to run an experiment point: seeds, optimizer preset, plan cache."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import OptimizerConfig
from repro.optimizer.cache import PlanCache

__all__ = ["RunSettings"]


@dataclass(frozen=True)
class RunSettings:
    """How thoroughly to run an experiment point.

    ``seeds`` drive both the random relation placement and the randomized
    optimizer, so every repetition sees a fresh placement, exactly as in
    the paper's 10-way experiments ("the data points ... represent the
    average of many such random placements", section 4.3).

    ``plan_cache`` memoizes the per-point optimizations: sweeps that
    revisit the same (query, environment, policy, seed) combination -- or
    whose hybrid runs repeat a pure subspace pass -- reuse the earlier
    result instead of re-searching.  Caching never changes which plan a
    point measures.
    """

    seeds: tuple[int, ...] = (3, 7, 11, 13, 17)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig.fast)
    plan_cache: PlanCache | None = field(default=None, compare=False)

    def quick(self) -> "RunSettings":
        """Three-seed variant for smoke tests."""
        return RunSettings(
            seeds=self.seeds[:3], optimizer=self.optimizer, plan_cache=self.plan_cache
        )
