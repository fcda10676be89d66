"""Plan cache: memoized 2PO results keyed by a canonical fingerprint.

Within one workload run (sessions and fault-recovery replans) and one
sweep point (its data-, query- and hybrid-shipping optimizations), the
same (query, policy, objective, environment, seed, optimizer config)
tuple is optimized over and over; the search itself is deterministic for
that tuple, so its result can be reused.  A :class:`PlanCache` memoizes two
granularities:

- the **full** ``optimize()`` result, hit when the exact optimization is
  repeated (e.g. sessions re-submitting the same query class, or a replan
  whose crashed-site exclusion set matches an earlier one);
- the **per-subspace 2PO pass**, hit when a hybrid-shipping run's pure
  query-/data-shipping pass matches an earlier standalone optimization of
  that pure policy on the same environment and seed (the pass streams are
  seeded identically -- see ``RandomizedOptimizer.optimize``).

The fingerprint canonicalizes every input that can change the outcome:
query structure, policy, objective, catalog (schemas, placement, cache
fractions), system config, server loads, calibration, forced client
relations (the crash-exclusion set -- so replans invalidate correctly when
a different site set is down), seed, optimizer config, plan shape, and the
annotation-moves-only flag.  Plans returned by the cache are the immutable
frozen-dataclass trees the optimizer produced, shared by reference.
"""

from __future__ import annotations

import hashlib
import typing
from collections import OrderedDict
from dataclasses import dataclass

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.config import OptimizerConfig
    from repro.costmodel.model import EnvironmentState, Objective, PlanCost
    from repro.optimizer.random_plans import PlanShape
    from repro.plans.logical import Query
    from repro.plans.operators import DisplayOp
    from repro.plans.policies import Policy

__all__ = ["CacheStats", "PlanCache", "plan_fingerprint"]

#: Entries one :class:`PlanCache` keeps; the least recently used goes first.
MAX_ENTRIES = 512


def _environment_parts(environment: "EnvironmentState") -> list[str]:
    catalog = environment.catalog
    relations = [
        (name, catalog.relation(name).tuples, catalog.relation(name).tuple_bytes)
        for name in catalog.relation_names
    ]
    placement = sorted(catalog.placement.assignments.items())
    cache = sorted(catalog.cache_fractions.items())
    state = environment.cache_state
    parts = [
        repr(relations),
        repr(placement),
        repr(cache),
        repr(environment.config),
        repr(sorted(environment.server_loads.items())),
        repr(environment.calibration),
        # Client cache view this optimization plans against: as the cache
        # warms, churns or is invalidated, the digest changes and stale
        # plans stop hitting.
        "cache:" + state.digest() if state is not None else "nocache",
        # Broker occupancy this optimization prices against: plans chosen
        # under different memory pressure never alias in the cache.
        (
            "pressure:" + environment.memory_pressure.digest()
            if environment.memory_pressure is not None
            else "nopressure"
        ),
    ]
    # Replica sets participate only when present, so unreplicated catalogs
    # fingerprint exactly as they did before replication existed.
    if catalog.placement.replicas:
        parts.append("replicas:" + repr(sorted(catalog.placement.replicas.items())))
    return parts


def plan_fingerprint(
    query: "Query",
    environment: "EnvironmentState",
    policy: "Policy",
    objective: "Objective",
    config: "OptimizerConfig",
    seed: int,
    shape: "PlanShape",
    annotation_moves_only: bool,
    forced_client_relations: frozenset[str],
    subspace: "Policy | None" = None,
) -> str:
    """Canonical digest of everything that determines an optimization.

    ``subspace=None`` keys a full ``optimize()`` result; a policy keys one
    2PO pass confined to that policy's move set (in which case the
    constructing policy is irrelevant and excluded, so a hybrid run's pure
    pass shares an entry with the standalone pure optimization).

    Client cache contents are keyed through the environment: a per-client
    override is a catalog with its own cache fractions
    (``Catalog.with_cache``), and a live buffer cache is the environment's
    ``cache_state`` snapshot.
    """
    parts = [
        repr(query.relations),
        repr(query.predicates),
        repr(sorted(query.selections.items())),
        repr(query.result_tuple_bytes),
        # Function-shipping features participate only when present, so
        # plain SPJ queries fingerprint exactly as they did before the SQL
        # frontend existed.  The reprs include every placement-relevant
        # field (UDF cost/selectivity/pinned site, group-by keys and group
        # estimate, semi-join digests), so two queries differing only in
        # UDF placement or GROUP BY columns never collide.
        *(["udfs:" + repr(query.udfs)] if query.udfs else []),
        *(
            ["aggregation:" + repr(query.aggregation)]
            if query.aggregation is not None
            else []
        ),
        *(["semijoins:" + repr(query.semi_joins)] if query.semi_joins else []),
        "*" if subspace is not None else policy.value,
        objective.value,
        *_environment_parts(environment),
        repr(config),
        repr(seed),
        shape.value,
        repr(annotation_moves_only),
        repr(sorted(forced_client_relations)),
        "pass:" + subspace.value if subspace is not None else "full",
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


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
    """LRU cache of optimization results, safe to share across optimizers.

    Entries are ``(plan, cost)`` tuples for pass-level keys and full
    ``OptimizationResult``-shaped tuples for whole-run keys; both sides are
    immutable, so sharing them across callers is free.  At most
    :data:`MAX_ENTRIES` are kept; the least recently used goes first.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, tuple[DisplayOp, PlanCost]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> "tuple[DisplayOp, PlanCost] | None":
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: str, plan: "DisplayOp", cost: "PlanCost") -> None:
        self._entries[key] = (plan, cost)
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
