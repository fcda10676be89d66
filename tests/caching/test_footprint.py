"""Memory footprint of resident pages in the client buffer cache.

A resident page costs one entry in the replacement policy's recency map
(``int key -> arena slot``) and nothing else when its version stamp is 0.
On CPython 3.11 that measures about 138 B per page under ``tracemalloc``;
the bound leaves margin for other interpreter versions.
"""

import tracemalloc

from repro.caching import BufferCache
from repro.storage import ExtentAllocator

PAGES = 20_000
MAX_BYTES_PER_PAGE = 160


def test_seeded_lru_cache_stays_under_the_per_page_bound():
    allocator = ExtentAllocator(PAGES)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cache = BufferCache(allocator, PAGES, policy="lru")
        assert cache.seed("R", PAGES) == PAGES
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.resident_count == PAGES
    per_page = (after - before) / PAGES
    assert per_page <= MAX_BYTES_PER_PAGE, f"{per_page:.1f} B per resident page"
