"""Client buffer cache: the client disk as a page cache.

The paper's experiments assume a *static* cached prefix, installed before
the query and never changed (footnote 8): a :class:`BufferCache` seeded
with those prefixes that never admits a page.  For workload runs the same
cache can run *dynamically*: it starts cold (or pre-seeded), admits pages
faulted in from servers mid-query, evicts under a pluggable replacement
policy (LRU, MRU, CLOCK) once full, and persists across the queries of a
stream -- so data-shipping clients warm up instead of re-faulting the same
pages query after query.

:class:`CacheState` is the immutable per-relation resident-page summary the
optimizer consumes: the cost model estimates client-resident fractions from
it instead of the static catalog fractions.  ``QueryExecutor.optimize_for``
plans every call whose snapshot has the same digest against one
environment, so cached plans go stale exactly when the cache contents
they were planned against do.
"""

from repro.caching.buffer import BufferCache, CacheState
from repro.caching.config import CacheConfig
from repro.caching.policies import (
    ClockPolicy,
    LRUPolicy,
    MRUPolicy,
    ReplacementPolicy,
    make_policy,
)

__all__ = [
    "BufferCache",
    "CacheConfig",
    "CacheState",
    "ClockPolicy",
    "LRUPolicy",
    "MRUPolicy",
    "ReplacementPolicy",
    "make_policy",
]
