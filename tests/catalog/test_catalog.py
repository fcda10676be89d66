"""Unit tests for schemas, placement, and the catalog."""

import random

import pytest

from repro.catalog import Catalog, Placement, Relation, random_placement
from repro.config import SystemConfig
from repro.errors import CatalogError
from repro.hardware import Topology
from repro.sim import Environment


class TestRelation:
    def test_paper_page_count(self):
        relation = Relation("A", 10_000, 100)
        config = SystemConfig()
        assert relation.tuples_per_page(config) == 40
        assert relation.pages(config) == 250  # the paper's 250-page relations

    def test_partial_last_page(self):
        relation = Relation("A", 41, 100)
        assert relation.pages(SystemConfig()) == 2

    def test_empty_relation(self):
        assert Relation("A", 0).pages(SystemConfig()) == 0

    def test_invalid_relation(self):
        with pytest.raises(CatalogError):
            Relation("", 100)
        with pytest.raises(CatalogError):
            Relation("A", -1)
        with pytest.raises(CatalogError):
            Relation("A", 10, tuple_bytes=0)


class TestPlacement:
    def test_lookup(self):
        placement = Placement({"A": 1, "B": 2})
        assert placement.server_of("A") == 1
        assert placement.relations_on(2) == ["B"]
        assert placement.servers_used == {1, 2}

    def test_client_placement_rejected(self):
        with pytest.raises(CatalogError):
            Placement({"A": 0})

    def test_unknown_relation(self):
        with pytest.raises(CatalogError):
            Placement({}).server_of("A")


class TestRandomPlacement:
    def test_every_server_nonempty(self):
        names = [f"R{i}" for i in range(10)]
        for seed in range(20):
            placement = random_placement(names, 4, random.Random(seed))
            assert placement.servers_used == {1, 2, 3, 4}
            assert len(placement) == 10

    def test_more_servers_than_relations_rejected(self):
        with pytest.raises(CatalogError):
            random_placement(["A"], 2, random.Random(0))

    def test_deterministic_for_seed(self):
        names = [f"R{i}" for i in range(10)]
        a = random_placement(names, 3, random.Random(5))
        b = random_placement(names, 3, random.Random(5))
        assert a.assignments == b.assignments


class TestCatalog:
    def _catalog(self, cache=None):
        return Catalog(
            [Relation("A", 10_000), Relation("B", 10_000)],
            Placement({"A": 1, "B": 2}),
            cache,
        )

    def test_lookups(self):
        catalog = self._catalog({"A": 0.5})
        config = SystemConfig()
        assert catalog.relation_names == ["A", "B"]
        assert catalog.server_of("A") == 1
        assert catalog.pages_of("B", config) == 250
        assert catalog.cached_pages_of("A", config) == 125
        assert catalog.cached_pages_of("B", config) == 0

    def test_unknown_relation(self):
        with pytest.raises(CatalogError):
            self._catalog().relation("C")

    def test_placement_must_cover_all(self):
        with pytest.raises(CatalogError):
            Catalog([Relation("A", 10)], Placement({}))

    def test_placement_unknown_relation_rejected(self):
        with pytest.raises(CatalogError):
            Catalog([Relation("A", 10)], Placement({"A": 1, "B": 1}))

    def test_bad_cache_fraction(self):
        with pytest.raises(CatalogError):
            self._catalog({"A": 2.0})

    def test_cache_unknown_relation(self):
        with pytest.raises(CatalogError):
            self._catalog({"Z": 0.5})

    def test_install_on_topology(self):
        catalog = self._catalog({"A": 0.5})
        env = Environment()
        topology = Topology(env, SystemConfig(num_servers=2), seed=1)
        catalog.install(topology)
        assert topology.servers[0].stores("A")
        assert topology.servers[1].stores("B")
        assert topology.client.buffer_cache.resident_pages("A") == 125

    def test_install_needs_enough_servers(self):
        catalog = self._catalog()
        env = Environment()
        topology = Topology(env, SystemConfig(num_servers=1), seed=1)
        with pytest.raises(CatalogError):
            catalog.install(topology)

    def test_with_placement_and_cache(self):
        catalog = self._catalog()
        moved = catalog.with_placement(Placement({"A": 2, "B": 1}))
        assert moved.server_of("A") == 2
        cached = catalog.with_cache({"B": 1.0})
        assert cached.cached_fraction("B") == 1.0
        # original untouched
        assert catalog.server_of("A") == 1
        assert catalog.cached_fraction("B") == 0.0

    def test_duplicate_relation_rejected(self):
        with pytest.raises(CatalogError):
            Catalog(
                [Relation("A", 10), Relation("A", 10)],
                Placement({"A": 1}),
            )
