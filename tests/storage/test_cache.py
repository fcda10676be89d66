"""Unit tests for the static client disk cache.

The paper's client cache is a contiguous prefix of each relation, resident
on the client disk before the query starts (footnote 8).  A catalog
install under ``cache="static"`` seeds exactly those prefixes into the
client's buffer cache, which never admits a page.
"""

import pytest

from repro.caching import CacheConfig
from repro.catalog import Catalog, Placement, Relation
from repro.config import SystemConfig
from repro.errors import CatalogError
from repro.hardware import Topology
from repro.sim import Environment

STATIC = SystemConfig(num_servers=1, cache=CacheConfig(mode="static"))


def install(fractions, relations=("A",)):
    """Install a catalog of 250-page relations; returns the client cache."""
    catalog = Catalog(
        [Relation(name, 10_000) for name in relations],
        Placement({name: 1 for name in relations}),
    )
    topology = Topology(Environment(), STATIC, seed=1)
    catalog.install(topology, client_caches={0: fractions})
    return topology.client.buffer_cache


def test_install_prefix():
    cache = install({"A": 0.5})
    assert cache.resident_pages("A") == 125
    assert cache.capacity_pages == 125
    assert cache.snapshot().resident == (("A", 125),)


def test_prefix_containment():
    cache = install({"A": 0.25})
    assert cache.contains("A", 0)
    assert cache.contains("A", 61)
    assert not cache.contains("A", 62)  # round(250 * 0.25) = 62 pages cached


def test_disk_page_mapping():
    cache = install({"A": 1.0})
    first = cache.lookup("A", 0)
    assert cache.lookup("A", 249) == first + 249


def test_uncached_page_rejected():
    cache = install({"A": 0.1})
    assert cache.lookup("A", 200) is None
    assert cache.misses == 1
    # A static cache never admits the faulted-in page.
    assert cache.admit("A", 200) is None
    assert not cache.contains("A", 200)


def test_zero_fraction_not_reported_cached():
    cache = install({"A": 0.0})
    assert cache.resident_pages("A") == 0
    assert cache.capacity_pages == 0
    assert cache.snapshot().resident == ()


def test_contents_and_digest_track_installs():
    empty = install({"A": 0.0}).snapshot().digest()
    half = install({"A": 0.5}).snapshot().digest()
    full = install({"A": 1.0}).snapshot().digest()
    assert len({empty, half, full}) == 3


def test_invalid_fraction_rejected():
    with pytest.raises(CatalogError):
        install({"A": 1.5})


def test_multiple_relations():
    cache = install({"A": 0.5, "B": 1.0}, relations=("A", "B"))
    assert cache.resident_pages("A") == 125
    assert cache.resident_pages("B") == 250
    assert cache.resident_pages("unknown") == 0
    # Prefixes are seeded relation by relation into one contiguous run.
    assert cache.lookup("B", 0) == cache.lookup("A", 124) + 1
