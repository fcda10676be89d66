"""Plan cache: memoized 2PO results.

2PO is deterministic for one (query, environment belief, policy,
objective, optimizer config, seed), so within one workload run (sessions
and fault-recovery replans) and one sweep point (its DS, QS and HY
optimizations) a repeated optimization can reuse its result.  A
:class:`PlanCache` memoizes the **full** ``optimize()`` result and each
**per-subspace 2PO pass**, so a hybrid run's pure pass hits an earlier
standalone optimization of that policy with the same seed (the pass
streams are seeded identically -- see ``RandomizedOptimizer.optimize``).

An entry is keyed by the environment and the query *by identity* -- a
caller that wants reuse passes one :class:`EnvironmentState` on purpose,
and equal but distinct objects never share an entry -- plus the
optimizer's value inputs (policy, objective, config, seed, plan shape,
the annotation-moves-only flag, forced client relations).  Each entry
holds both objects, so their ids cannot be reused while it exists.
"""

from __future__ import annotations

import typing
from collections import OrderedDict
from dataclasses import dataclass

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.costmodel.model import EnvironmentState, PlanCost
    from repro.plans.logical import Query
    from repro.plans.operators import DisplayOp

__all__ = ["CacheStats", "PlanCache"]

#: Entries one :class:`PlanCache` keeps; the least recently used goes first.
MAX_ENTRIES = 512


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """LRU cache of ``(plan, cost)`` results, safe to share across optimizers.

    A key is ``(environment, query, inputs)``: the first two by identity,
    the tuple of value ``inputs`` by value.  Results are immutable, so
    sharing them is free.  At most :data:`MAX_ENTRIES` are kept.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        # key -> (environment, query, plan, cost)
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, environment: "EnvironmentState", query: "Query", inputs: tuple
    ) -> "tuple[DisplayOp, PlanCost] | None":
        key = (id(environment), id(query), inputs)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[2], entry[3]

    def put(
        self,
        environment: "EnvironmentState",
        query: "Query",
        inputs: tuple,
        plan: "DisplayOp",
        cost: "PlanCost",
    ) -> None:
        key = (id(environment), id(query), inputs)
        # The entry pins both objects, so their ids stay theirs.
        self._entries[key] = (environment, query, plan, cost)
        self._entries.move_to_end(key)
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PlanCache entries={len(self._entries)} hits={self.stats.hits} "
            f"misses={self.stats.misses}>"
        )
