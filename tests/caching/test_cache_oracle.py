"""BufferCache agrees with the tuple-keyed reference model, op for op.

Random ``seed`` / ``lookup`` / ``admit`` / ``contains`` / ``version_of`` /
``invalidate`` sequences drive :class:`repro.caching.BufferCache` and
:class:`TupleBufferCache` side by side at small capacities, so eviction,
slot reuse and invalidation interleave often.  After every operation both
must return the same value and agree on counters, ``snapshot()``,
per-relation residency and the eviction history, and the cache must hold
a version entry for exactly its resident pages stamped other than 0.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import BufferCache
from repro.caching.policies import POLICY_NAMES
from repro.storage import ExtentAllocator
from tests.caching.tuple_cache_oracle import TupleBufferCache

#: Few pages against capacities up to 6, so hits, evictions and successful
#: invalidations are frequent.  "Z" is only ever probed, never stored.
RELATIONS = ("A", "B", "Z")
stored = st.tuples(st.sampled_from(("A", "B")), st.integers(0, 5))
probed = st.tuples(st.sampled_from(RELATIONS), st.integers(0, 5))
operation = st.one_of(
    st.tuples(st.just("seed"), st.sampled_from(("A", "B")), st.integers(0, 6)),
    st.tuples(st.just("lookup"), probed),
    st.tuples(st.just("admit"), stored, st.integers(0, 3)),
    st.tuples(st.just("contains"), probed),
    st.tuples(st.just("version_of"), probed),
    st.tuples(st.just("invalidate"), probed),
)


def apply(cache, op):
    kind = op[0]
    if kind == "seed":
        return cache.seed(op[1], op[2])
    if kind == "admit":
        (relation, index), version = op[1], op[2]
        return cache.admit(relation, index, version=version)
    return getattr(cache, kind)(*op[1])


def observable(cache):
    return (
        cache.snapshot(),
        cache.seeded,
        cache.resident_count,
        tuple(cache.resident_pages(name) for name in RELATIONS),
        cache.eviction_history.count,
        cache.eviction_history.hexdigest(),
    )


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(POLICY_NAMES),
    capacity=st.integers(0, 6),
    admits=st.booleans(),
    ops=st.lists(operation, min_size=10, max_size=80),
)
def test_buffer_cache_matches_tuple_oracle(policy, capacity, admits, ops):
    cache = BufferCache(ExtentAllocator(100), capacity, policy=policy, admits=admits)
    oracle = TupleBufferCache(ExtentAllocator(100), capacity, policy=policy, admits=admits)
    for op in ops:
        assert apply(cache, op) == apply(oracle, op), op
        assert observable(cache) == observable(oracle), op
        # Sparse stamps: an entry for exactly the resident pages at a
        # version other than 0, and nothing left behind by a dropped page.
        assert len(cache._versions) == sum(1 for v in oracle._versions.values() if v), op
    # Every resident page answers the same version, page by page.
    for relation in RELATIONS:
        for index in range(6):
            assert cache.version_of(relation, index) == oracle.version_of(relation, index)
