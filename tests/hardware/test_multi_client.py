"""Multi-client topologies: site ids, names, caches, catalog install."""

import pytest

from repro.catalog import Catalog, Placement, Relation
from repro.config import SystemConfig
from repro.errors import CatalogError, ConfigurationError
from repro.hardware import CLIENT_SITE_ID, Topology, client_site_id, is_client_site_id
from repro.hardware.site import SiteKind


@pytest.fixture
def catalog():
    return Catalog(
        [Relation("A", 10_000), Relation("B", 10_000)],
        Placement({"A": 1, "B": 1}),
        {"A": 0.5, "B": 0.5},
    )


class TestSiteIdScheme:
    def test_client_ordinals_map_to_non_positive_ids(self):
        assert client_site_id(0) == CLIENT_SITE_ID == 0
        assert client_site_id(1) == -1
        assert client_site_id(7) == -7

    def test_negative_ordinal_rejected(self):
        with pytest.raises(CatalogError):
            client_site_id(-1)

    def test_is_client_site_id(self):
        assert is_client_site_id(0)
        assert is_client_site_id(-3)
        assert not is_client_site_id(1)


class TestMultiClientTopology:
    def test_clients_and_servers(self, env):
        topology = Topology(env, SystemConfig(num_servers=2, num_clients=3), seed=1)
        assert [c.site_id for c in topology.clients] == [0, -1, -2]
        assert [s.site_id for s in topology.servers] == [1, 2]
        assert all(c.kind is SiteKind.CLIENT for c in topology.clients)

    def test_client_names(self, env):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=3), seed=1)
        assert [c.name for c in topology.clients] == ["client", "client1", "client2"]

    def test_client_property_is_first_client(self, env):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=2), seed=1)
        assert topology.client is topology.clients[0]

    def test_site_lookup_by_negative_id(self, env):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=2), seed=1)
        assert topology.site(-1) is topology.clients[1]
        assert topology.site(0) is topology.clients[0]
        assert topology.site(1) is topology.servers[0]

    def test_each_client_has_its_own_cache(self, env, catalog):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=2), seed=1)
        catalog.install(topology)
        first, second = topology.clients
        assert first.buffer_cache is not None and second.buffer_cache is not None
        assert first.buffer_cache is not second.buffer_cache

    def test_sites_enumerates_clients_then_servers(self, env):
        topology = Topology(env, SystemConfig(num_servers=2, num_clients=2), seed=1)
        assert [s.site_id for s in topology.sites] == [0, -1, 1, 2]

    def test_single_client_default_unchanged(self, env):
        """num_clients defaults to 1 and keeps the historical site layout."""
        topology = Topology(env, SystemConfig(num_servers=3), seed=1)
        assert len(topology.clients) == 1
        assert topology.client.site_id == 0
        assert topology.client.name == "client"


class TestConfig:
    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=0)

    def test_with_clients(self):
        config = SystemConfig(num_servers=2).with_clients(4)
        assert config.num_clients == 4
        assert config.num_servers == 2


class TestCatalogInstall:
    def test_default_install_caches_every_client(self, env, catalog):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=2), seed=1)
        catalog.install(topology)
        for client in topology.clients:
            assert client.buffer_cache.resident_pages("A") > 0
            assert client.buffer_cache.resident_pages("B") > 0

    def test_per_client_cache_overrides(self, env, catalog):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=2), seed=1)
        catalog.install(topology, client_caches={-1: {"A": 1.0}})
        first, second = topology.clients
        # Client 0 keeps the catalog-level fractions.
        assert first.buffer_cache.resident_pages("A") > 0
        assert first.buffer_cache.resident_pages("B") > 0
        # Client -1 was overridden: all of A, none of B.
        assert second.buffer_cache.resident_pages("A") == catalog.pages_of("A", topology.config)
        assert second.buffer_cache.resident_pages("B") == 0

    def test_unknown_client_site_rejected(self, env, catalog):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=1), seed=1)
        with pytest.raises(CatalogError):
            catalog.install(topology, client_caches={-5: {"A": 1.0}})
