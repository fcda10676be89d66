"""BufferCache unit tests: residency, capacity, seeding, snapshots."""

import random
from dataclasses import replace

import pytest

from repro.caching import BufferCache, CacheConfig, CacheState
from repro.errors import ConfigurationError
from repro.storage import ExtentAllocator


def make_cache(capacity, policy="lru", **kwargs):
    return BufferCache(ExtentAllocator(2000), capacity, policy=policy, **kwargs)


class TestResidency:
    def test_miss_then_admit_then_hit(self):
        cache = make_cache(8)
        assert cache.lookup("A", 0) is None
        assert cache.misses == 1
        page = cache.admit("A", 0)
        assert page is not None
        assert cache.lookup("A", 0) == page
        assert cache.hits == 1
        assert cache.admissions == 1

    def test_contains_does_not_count(self):
        cache = make_cache(8)
        cache.admit("A", 0)
        assert cache.contains("A", 0)
        assert not cache.contains("A", 1)
        assert cache.hits == 0 and cache.misses == 0

    def test_readmit_is_noop(self):
        cache = make_cache(8)
        first = cache.admit("A", 0)
        again = cache.admit("A", 0)
        assert again == first
        assert cache.admissions == 1

    def test_distinct_pages_get_distinct_disk_pages(self):
        cache = make_cache(8)
        pages = {cache.admit("A", i) for i in range(8)}
        assert len(pages) == 8


class TestCapacity:
    def test_lru_never_exceeds_capacity(self):
        """Property: under any reference stream, residency <= capacity."""
        cache = make_cache(16, policy="lru")
        rng = random.Random(3)
        for _ in range(1000):
            relation = rng.choice(("A", "B"))
            index = rng.randrange(50)
            if cache.lookup(relation, index) is None:
                cache.admit(relation, index)
            assert cache.resident_count <= 16
        assert cache.evictions > 0
        assert cache.resident_count == 16

    @pytest.mark.parametrize("policy", ("lru", "mru", "clock"))
    def test_eviction_log_matches_counters(self, policy):
        cache = make_cache(4, policy=policy)
        for i in range(10):
            cache.admit("A", i)
        assert cache.evictions == 6
        assert cache.eviction_history.count == 6
        assert cache.resident_count == 4

    def test_capacity_zero_admits_nothing(self):
        cache = make_cache(0)
        assert cache.admit("A", 0) is None
        assert cache.lookup("A", 0) is None
        assert cache.resident_count == 0
        assert cache.admissions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cache(-1)


class TestSeeding:
    def test_seed_populates_prefix_without_demand_counters(self):
        cache = make_cache(100)
        placed = cache.seed("A", 40)
        assert placed == 40
        assert cache.seeded == 40
        assert cache.admissions == 0
        assert cache.resident_pages("A") == 40
        assert cache.contains("A", 0) and cache.contains("A", 39)

    def test_seed_stops_at_capacity(self):
        cache = make_cache(10)
        assert cache.seed("A", 25) == 10
        assert cache.resident_count == 10
        assert cache.evictions == 0

    def test_seeded_prefix_is_contiguous_on_disk(self):
        cache = make_cache(50)
        cache.seed("A", 20)
        pages = [cache.lookup("A", i) for i in range(20)]
        assert pages == list(range(pages[0], pages[0] + 20))


class TestSnapshots:
    def test_snapshot_summarizes_per_relation(self):
        cache = make_cache(100)
        cache.seed("B", 10)
        cache.seed("A", 5)
        state = cache.snapshot()
        assert state.resident == (("A", 5), ("B", 10))
        assert state.total_resident == 15
        assert state.resident_pages("A") == 5
        assert state.resident_pages("missing") == 0

    def test_digest_ignores_counters(self):
        """Stable resident sets keep hitting the plan cache even as the
        hit/miss counters march on."""
        cache = make_cache(100)
        cache.seed("A", 10)
        before = cache.digest()
        cache.lookup("A", 0)
        cache.lookup("A", 99)  # miss
        assert cache.digest() == before
        cache.admit("A", 99)
        assert cache.digest() != before

    def test_state_equality_includes_counters(self):
        a = CacheState(capacity_pages=10, resident=(("A", 5),), hits=1)
        b = CacheState(capacity_pages=10, resident=(("A", 5),), hits=2)
        assert a != b
        assert a.digest() == b.digest()

    def test_identical_streams_identical_state_and_log(self):
        """Byte-identical determinism: state snapshot and eviction log."""

        def run():
            cache = make_cache(8, policy="clock")
            cache.seed("A", 4)
            rng = random.Random(7)
            for _ in range(200):
                relation = rng.choice(("A", "B"))
                index = rng.randrange(20)
                if cache.lookup(relation, index) is None:
                    cache.admit(relation, index)
            return cache.snapshot(), cache.eviction_history

        (state1, history1), (state2, history2) = run(), run()
        assert state1 == state2
        assert history1 == history2
        assert history1.count > 0


class TestKeys:
    """Per-relation slot tables from a per-cache name table; sparse stamps."""

    def test_probing_unknown_relations_leaves_state_unchanged(self):
        cache = make_cache(8)
        cache.seed("A", 2)
        before = cache.snapshot()
        assert not cache.contains("B", 0)
        assert cache.version_of("B", 0) is None
        assert not cache.invalidate("B", 0)
        assert cache.lookup("B", 0) is None
        # Only the miss counter moved; the name table still holds just "A".
        assert cache._names == ["A"] and list(cache._ordinals) == ["A"]
        assert cache.snapshot() == replace(before, misses=1)

    def test_a_cache_that_never_admits_never_learns_names(self):
        cache = make_cache(8, admits=False)
        assert cache.admit("A", 0) is None
        assert cache._names == []

    def test_version_stamps_are_sparse(self):
        cache = make_cache(8)
        cache.seed("A", 3)
        cache.admit("A", 5, version=0)
        assert cache.version_of("A", 0) == 0 and cache.version_of("A", 5) == 0
        assert cache.version_of("A", 6) is None
        assert cache._versions == {}
        cache.admit("A", 5, version=2)
        assert cache.version_of("A", 5) == 2 and len(cache._versions) == 1
        cache.admit("A", 5, version=0)  # refreshed back to "as loaded"
        assert cache.version_of("A", 5) == 0 and cache._versions == {}

    def test_page_index_outside_key_range_rejected(self):
        cache = make_cache(8)
        for index in (-1, 2**32):
            with pytest.raises(ConfigurationError):
                cache.admit("A", index)
        # A page index costs its relation a table entry up to that index,
        # so probe a far index well inside the key range.
        cache.admit("A", 2**20)
        assert cache.contains("A", 2**20)
        assert cache.resident_pages("A") == 1


class TestConfig:
    def test_defaults_are_static(self):
        config = CacheConfig()
        assert config.mode == "static"
        assert not config.is_dynamic

    def test_dynamic_mode(self):
        assert CacheConfig(mode="dynamic").is_dynamic

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(mode="adaptive")

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(policy="arc")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(capacity_pages=-5)
