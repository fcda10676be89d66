"""Fault hooks on the raw hardware models: disks, network, sites."""

import pytest

from repro.config import DiskParams, SystemConfig
from repro.errors import NetworkPartitionError, SiteUnavailableError
from repro.hardware import Disk
from repro.hardware.network import MAX_RETRANSMITS, Network
from repro.hardware.topology import Topology
from repro.sim import Environment


@pytest.fixture
def disk(env):
    return Disk(env, DiskParams(sample_rotation=False))


class TestDiskPowerOff:
    def test_new_requests_fail_while_off(self, env, disk):
        disk.power_off(lambda: SiteUnavailableError("down"))
        request = disk.submit("read", 0)
        assert request.done.triggered and not request.done.ok
        assert disk.faulted_requests == 1

    def test_queued_requests_fail_on_power_off(self, env, disk):
        def reader():
            yield disk.read(0)

        def crasher():
            yield env.timeout(1e-4)  # mid-service of the first read
            disk.power_off(lambda: SiteUnavailableError("down"))

        process = env.process(reader())
        env.process(crasher())
        with pytest.raises(SiteUnavailableError):
            env.run(until=process)

    def test_power_on_serves_again(self, env, disk):
        disk.power_off()
        disk.power_on()

        def reader():
            yield disk.read(0)
            return env.now

        assert env.run(until=env.process(reader())) > 0.0

    def test_power_off_clears_controller_cache(self, env, disk):
        def reader(page):
            yield disk.read(page)

        env.run(until=env.process(reader(0)))
        assert disk._cache
        disk.power_off()
        assert not disk._cache
        assert disk._last_page is None

    def test_default_offline_error(self, env, disk):
        disk.power_off()
        request = disk.submit("read", 0)
        with pytest.raises(RuntimeError, match="powered off"):

            def waiter():
                yield request.done

            env.run(until=env.process(waiter()))

    def test_slow_factor_scales_service_time(self, env):
        def timed_read(disk):
            local_env = disk.env

            def reader():
                start = local_env.now
                yield disk.read(500)
                return local_env.now - start

            return local_env.run(until=local_env.process(reader()))

        normal = timed_read(Disk(Environment(), DiskParams(sample_rotation=False)))
        slow_disk = Disk(Environment(), DiskParams(sample_rotation=False))
        slow_disk.slow_factor = 5.0
        assert timed_read(slow_disk) == pytest.approx(5.0 * normal)


#: Every public way to put a message on the network.  Data pages travel
#: through send_page and page-fault requests through send_request, so each
#: availability check below runs against all three, not only send.
SENDS = {
    "send": lambda network, source, destination: network.send(
        source, destination, 8192, data_pages=2
    ),
    "send_page": lambda network, source, destination: network.send_page(source, destination),
    "send_request": lambda network, source, destination: network.send_request(
        source, destination
    ),
}


def _run_send(entry, before=None, during=None):
    """Send one client->server message through ``entry`` in a fresh system.

    ``before(topology)`` runs ahead of the send; ``during(topology)`` runs
    1 us into it, while the message is in flight.
    """
    env = Environment()
    topology = Topology(env, SystemConfig(num_servers=1))
    if before is not None:
        before(topology)
    if during is not None:

        def fault():
            yield env.timeout(1e-6)
            during(topology)

        env.process(fault())
    sender = env.process(SENDS[entry](topology.network, topology.client, topology.site(1)))
    try:
        env.run(until=sender)
    finally:
        # Nothing may count as delivered once the send failed.
        assert topology.network.data_pages_sent == 0
        assert topology.network.control_messages_sent == 0


class TestNetworkFaults:
    @pytest.fixture
    def topology(self, env):
        return Topology(env, SystemConfig(num_servers=1))

    def test_send_fails_during_outage(self):
        for entry in SENDS:
            with pytest.raises(NetworkPartitionError, match="outage"):
                _run_send(entry, before=lambda topology: topology.network.set_down())

    def test_send_fails_when_destination_crashed(self):
        for entry in SENDS:
            with pytest.raises(SiteUnavailableError):
                _run_send(entry, before=lambda topology: topology.site(1).crash())

    def test_outage_mid_transfer_kills_in_flight_message(self):
        for entry in SENDS:
            with pytest.raises(NetworkPartitionError):
                _run_send(entry, during=lambda topology: topology.network.set_down())

    def test_degradation_multiplies_wire_time(self, env):
        def one_send(factor):
            local = Environment()
            topo = Topology(local, SystemConfig(num_servers=1))
            topo.network.degrade(factor)

            def sender():
                start = local.now
                yield from topo.network.send(topo.client, topo.site(1), 40960)
                return local.now - start

            return local.run(until=local.process(sender()))

        assert one_send(4.0) > 2.0 * one_send(1.0)

    def test_drops_retransmit_then_succeed(self, env, topology):
        network = topology.network

        class DropFirstTwo:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.0 if self.calls <= 2 else 1.0

        network.configure_drops(0.5, DropFirstTwo())

        def sender():
            yield from network.send(topology.client, topology.site(1), 4096, data_pages=1)

        env.run(until=env.process(sender()))
        assert network.messages_dropped == 2
        assert network.data_pages_sent == 1

    def test_always_dropping_link_gives_up(self, env, topology):
        network = topology.network

        class AlwaysDrop:
            def random(self):
                return 0.0

        network.configure_drops(0.99, AlwaysDrop())

        def sender():
            yield from network.send(topology.client, topology.site(1), 4096, data_pages=1)

        with pytest.raises(NetworkPartitionError, match="giving up"):
            env.run(until=env.process(sender()))
        assert network.messages_dropped == MAX_RETRANSMITS + 1


class TestSiteCrash:
    @pytest.fixture
    def topology(self, env):
        return Topology(env, SystemConfig(num_servers=1))

    def test_client_cannot_crash(self, env, topology):
        with pytest.raises(SiteUnavailableError, match="client"):
            topology.client.crash()

    def test_crash_and_restart_are_idempotent(self, env, topology):
        server = topology.site(1)
        server.restart()  # no-op while up
        server.crash()
        server.crash()  # no-op while down
        assert server.crash_count == 1
        server.restart()
        assert server.up

    def test_check_available_raises_with_site_id(self, env, topology):
        server = topology.site(1)
        server.crash()
        with pytest.raises(SiteUnavailableError) as excinfo:
            server.check_available()
        assert excinfo.value.site_id == 1
