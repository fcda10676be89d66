"""Consistency-protocol unit tests: version table, config, both protocols."""

import pytest

from repro.caching import BufferCache
from repro.config import SystemConfig
from repro.consistency import (
    ConsistencyConfig,
    DetectionProtocol,
    InvalidationProtocol,
    VersionTable,
    make_protocol,
)
from repro.errors import ConfigurationError
from repro.hardware.topology import Topology
from repro.storage import ExtentAllocator


class TestVersionTable:
    def test_unwritten_pages_are_version_zero(self):
        table = VersionTable()
        assert table.version("A", 0) == 0
        assert len(table) == 0

    def test_bump_increments_per_page(self):
        table = VersionTable()
        table.bump("A", 0)
        table.bump("A", 0)
        table.bump("A", 1)
        assert table.version("A", 0) == 2
        assert table.version("A", 1) == 1
        assert table.version("B", 0) == 0
        assert table.total_writes == 3
        assert len(table) == 2


class TestConfig:
    def test_default_is_invalidation(self):
        assert ConsistencyConfig().protocol == "invalidation"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsistencyConfig(protocol="optimistic")

    def test_make_protocol_resolves_names(self, env):
        topology = Topology(env, SystemConfig(num_servers=1), seed=1)
        assert isinstance(make_protocol("invalidation", topology), InvalidationProtocol)
        assert isinstance(make_protocol("detection", topology), DetectionProtocol)
        manager = make_protocol(ConsistencyConfig(protocol="detection"), topology)
        assert isinstance(manager, DetectionProtocol)
        assert manager.stale_served == 0


def _client_with_cache(topology, relation="A", pages=(0, 1)):
    client = topology.clients[0]
    client.buffer_cache = BufferCache(ExtentAllocator(200), 16)
    for index in pages:
        client.buffer_cache.admit(relation, index, version=0)
    return client


def _drive(env, generator):
    """Run one protocol hook inside the simulation; returns its value."""
    box = {}

    def runner():
        box["value"] = yield from generator

    env.run(until=env.process(runner(), name="protocol-driver"))
    return box["value"]


class TestInvalidationProtocol:
    def test_commit_drops_cached_copies_and_counts(self, env):
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=2), seed=1)
        manager = make_protocol("invalidation", topology)
        caching = _client_with_cache(topology, pages=(0, 1))
        bystander = topology.clients[1]  # no buffer cache at all
        server = topology.servers[0]
        _drive(env, manager.commit_write(server, "A", (0,)))
        assert manager.versions.version("A", 0) == 1
        assert not caching.buffer_cache.contains("A", 0)
        assert caching.buffer_cache.contains("A", 1)
        assert caching.consistency.invalidations == 1
        assert bystander.consistency.invalidations == 0
        # One callback control message crossed the wire.
        assert topology.network.control_messages_sent == 1

    def test_commit_skips_clients_not_caching_the_page(self, env):
        topology = Topology(env, SystemConfig(num_servers=1), seed=1)
        manager = make_protocol("invalidation", topology)
        _client_with_cache(topology, pages=(1,))
        _drive(env, manager.commit_write(topology.servers[0], "A", (0,)))
        assert topology.network.control_messages_sent == 0
        assert topology.clients[0].consistency.invalidations == 0

    def test_commit_to_an_uncached_relation_leaves_caches_untouched(self, env):
        # Every commit probes every client's cache; probing a relation a
        # cache never held must not add it to the cache's name table.
        topology = Topology(env, SystemConfig(num_servers=1, num_clients=2), seed=1)
        manager = make_protocol("invalidation", topology)
        client = _client_with_cache(topology, relation="A", pages=(0, 1))
        topology.clients[1].buffer_cache = BufferCache(ExtentAllocator(200), 16)
        _drive(env, manager.commit_write(topology.servers[0], "B", (0, 1, 2)))
        assert client.buffer_cache._names == ["A"]
        assert topology.clients[1].buffer_cache._names == []
        assert topology.network.control_messages_sent == 0

    def test_hit_in_callback_flight_window_is_detected_locally(self, env):
        # A version bump the callback has not delivered yet: the local
        # compare still refuses to serve the stale copy.
        topology = Topology(env, SystemConfig(num_servers=1), seed=1)
        manager = make_protocol("invalidation", topology)
        client = _client_with_cache(topology, pages=(0,))
        manager.versions.bump("A", 0)  # write committed elsewhere
        fresh = _drive(
            env, manager.validate_hit(client, topology.servers[0], "A", 0)
        )
        assert fresh is False
        assert client.consistency.stale_hits == 1
        assert not client.buffer_cache.contains("A", 0)
        assert manager.stale_served == 0


class TestDetectionProtocol:
    def test_fresh_hit_costs_a_validation_round_trip(self, env):
        topology = Topology(env, SystemConfig(num_servers=1), seed=1)
        manager = make_protocol("detection", topology)
        client = _client_with_cache(topology, pages=(0,))
        fresh = _drive(
            env, manager.validate_hit(client, topology.servers[0], "A", 0)
        )
        assert fresh is True
        assert client.consistency.validations == 1
        assert topology.network.control_messages_sent == 2  # request + reply
        assert client.buffer_cache.contains("A", 0)

    def test_stale_hit_is_dropped_never_served(self, env):
        topology = Topology(env, SystemConfig(num_servers=1), seed=1)
        manager = make_protocol("detection", topology)
        client = _client_with_cache(topology, pages=(0,))
        _drive(env, manager.commit_write(topology.servers[0], "A", (0,)))
        # Detection commits are silent: version bump only, no callbacks.
        assert topology.network.control_messages_sent == 0
        fresh = _drive(
            env, manager.validate_hit(client, topology.servers[0], "A", 0)
        )
        assert fresh is False
        assert client.consistency.stale_hits == 1
        assert not client.buffer_cache.contains("A", 0)
        assert manager.stale_served == 0

    def test_page_readmitted_at_current_version_is_fresh(self, env):
        topology = Topology(env, SystemConfig(num_servers=1), seed=1)
        manager = make_protocol("detection", topology)
        client = _client_with_cache(topology, pages=())
        manager.versions.bump("A", 0)
        client.buffer_cache.admit("A", 0, version=manager.current_version("A", 0))
        fresh = _drive(
            env, manager.validate_hit(client, topology.servers[0], "A", 0)
        )
        assert fresh is True
        assert client.consistency.stale_hits == 0
