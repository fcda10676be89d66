"""Unit tests for the network model."""

import pytest

from repro.config import SystemConfig
from repro.hardware import Topology


@pytest.fixture
def topology(env):
    return Topology(env, SystemConfig(num_servers=2), seed=1)


def test_page_wire_time(env, topology):
    network = topology.network
    config = topology.config

    def sender():
        yield from network.send_page(topology.servers[0], topology.client)

    env.run(until=env.process(sender()))
    wire = config.wire_time(config.page_size)
    cpu = 2 * config.instructions_time(config.message_cpu_instructions(config.page_size))
    assert env.now == pytest.approx(wire + cpu)


def test_page_counts_as_data(env, topology):
    network = topology.network

    def sender():
        yield from network.send_page(topology.servers[0], topology.client)
        yield from network.send_request(topology.client, topology.servers[1])

    env.run(until=env.process(sender()))
    assert network.data_pages_sent == 1
    assert network.control_messages_sent == 1
    assert network.bytes_sent == topology.config.page_size + topology.config.request_message_bytes


def test_local_sends_are_free(env, topology):
    network = topology.network

    def sender():
        yield from network.send_page(topology.client, topology.client)

    env.run(until=env.process(sender()))
    assert env.now == 0.0
    assert network.data_pages_sent == 0


def test_wire_is_fifo_shared(env, topology):
    network = topology.network
    finish = []

    def sender(name):
        yield from network.send_page(topology.servers[0], topology.client)
        finish.append((name, env.now))

    env.process(sender("a"))
    env.process(sender("b"))
    env.run()
    # Second message's wire time queues behind the first (plus CPU FIFO).
    assert finish[0][1] < finish[1][1]


def test_utilization(env, topology):
    network = topology.network
    config = topology.config

    def sender():
        for _ in range(3):
            yield from network.send_page(topology.servers[0], topology.client)

    env.run(until=env.process(sender()))
    wire_total = 3 * config.wire_time(config.page_size)
    assert network.utilization() == pytest.approx(wire_total / env.now)
