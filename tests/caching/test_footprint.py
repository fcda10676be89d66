"""Memory footprint of resident pages in the client buffer cache.

A resident page is array entries only: 4 B in its relation's page -> slot
table and 8 B of packed key per arena slot, plus the replacement policy's
slot order (8 B of ``prev``/``next`` links for LRU and MRU; 4 B of ring
and 1 B of reference bit for CLOCK).  Its version stamp costs nothing
while it is 0.  On CPython 3.11 that measures about 21 B per page (LRU,
MRU) and 18 B (CLOCK) under ``tracemalloc``, array over-allocation
included; the bound leaves margin for other interpreter versions.
"""

import tracemalloc

import pytest

from repro.caching import BufferCache
from repro.caching.policies import POLICY_NAMES
from repro.storage import ExtentAllocator

PAGES = 20_000
MAX_BYTES_PER_PAGE = 32


def bytes_per_resident_page(policy):
    allocator = ExtentAllocator(PAGES)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cache = BufferCache(allocator, PAGES, policy=policy)
        assert cache.seed("R", PAGES) == PAGES
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.resident_count == PAGES
    return (after - before) / PAGES


def test_seeded_lru_cache_stays_under_the_per_page_bound():
    per_page = bytes_per_resident_page("lru")
    assert per_page <= MAX_BYTES_PER_PAGE, f"{per_page:.1f} B per resident page"


@pytest.mark.parametrize("policy", [name for name in POLICY_NAMES if name != "lru"])
def test_seeded_cache_stays_under_the_per_page_bound(policy):
    per_page = bytes_per_resident_page(policy)
    assert per_page <= MAX_BYTES_PER_PAGE, f"{per_page:.1f} B per resident page"
