"""Unit tests for sites and topology wiring."""

import pytest

from repro.catalog import Catalog, Placement, Relation
from repro.config import SystemConfig
from repro.errors import CatalogError, ConfigurationError
from repro.hardware import SiteKind, Topology


@pytest.fixture
def topology(env):
    return Topology(env, SystemConfig(num_servers=3), seed=7)


class TestTopology:
    def test_one_client_n_servers(self, topology):
        assert topology.client.kind is SiteKind.CLIENT
        assert len(topology.servers) == 3
        assert all(s.kind is SiteKind.SERVER for s in topology.servers)

    def test_site_ids(self, topology):
        assert topology.client.site_id == 0
        assert [s.site_id for s in topology.servers] == [1, 2, 3]
        assert topology.site(0) is topology.client
        assert topology.site(2) is topology.servers[1]

    def test_unknown_site_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            topology.site(99)

    def test_server_storing(self, topology):
        topology.servers[1].store_relation("R", 250)
        assert topology.server_storing("R") is topology.servers[1]
        with pytest.raises(ConfigurationError):
            topology.server_storing("missing")

    def test_disks_have_distinct_rngs(self, env):
        topology = Topology(env, SystemConfig(num_servers=2), seed=7)
        rngs = [site.disk.rng.random() for site in topology.sites]
        assert len(set(rngs)) == len(rngs)


class TestSiteStorage:
    def test_store_and_locate_relation(self, topology):
        server = topology.servers[0]
        extent = server.store_relation("A", 250)
        assert extent.pages == 250
        disk_index, located = server.relation_location("A")
        assert located == extent
        assert server.stores("A")
        assert server.stored_relations == ["A"]

    def test_client_cannot_store_primary(self, topology):
        with pytest.raises(CatalogError):
            topology.client.store_relation("A", 250)

    def test_duplicate_relation_rejected(self, topology):
        server = topology.servers[0]
        server.store_relation("A", 250)
        with pytest.raises(CatalogError):
            server.store_relation("A", 250)

    def test_unknown_relation_location(self, topology):
        with pytest.raises(CatalogError):
            topology.servers[0].relation_location("nope")

    def test_client_has_cache_servers_do_not(self, topology):
        catalog = Catalog([Relation("A", 10_000)], Placement({"A": 1}), {"A": 0.5})
        catalog.install(topology)
        assert topology.client.buffer_cache is not None
        assert all(server.buffer_cache is None for server in topology.servers)


class TestTempFiles:
    def test_allocate_and_release(self, topology):
        server = topology.servers[0]
        free_before = server.allocators[0].free_pages
        temp = server.allocate_temp(64)
        assert server.allocators[0].free_pages == free_before - 64
        temp.release()
        assert server.allocators[0].free_pages == free_before

    def test_release_is_idempotent(self, topology):
        temp = topology.client.allocate_temp(16)
        temp.release()
        temp.release()  # second release must not double-free

    def test_temp_page_addressing(self, topology):
        temp = topology.client.allocate_temp(8)
        assert temp.page(0) == temp.extent.start
        assert temp.page(7) == temp.extent.start + 7
        with pytest.raises(IndexError):
            temp.page(8)
