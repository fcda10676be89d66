"""Multi-client memory contention: broker arbitration under a shared pool."""

from repro.config import BufferAllocation, MemoryConfig, SystemConfig
from repro.faults.recovery import RecoveryPolicy
from repro.plans.policies import Policy
from repro.workload import StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario


def _run(mode, num_clients=4, server_memory_pages=400, seed=3):
    scenario = chain_scenario(
        num_relations=2,
        num_servers=1,
        allocation=BufferAllocation.MAXIMUM,
        placement_seed=seed,
        config=SystemConfig(
            server_memory_pages=server_memory_pages,
            memory=MemoryConfig(mode=mode),
        ),
    )
    runner = WorkloadRunner(
        scenario,
        Policy.QUERY_SHIPPING,
        num_clients=num_clients,
        stream=StreamConfig(arrival="closed", think_time=0.25, queries_per_client=2),
        seed=seed,
        recovery=RecoveryPolicy.none(),
        cache="static",
    )
    return runner.run(), runner


class TestDynamicContention:
    def test_tight_memory_completes_every_query(self):
        result, runner = _run("dynamic")
        assert result.shed == 0
        assert result.failed == 0
        assert result.completed == result.submitted
        # Contention was real: the broker spilled and clawed pages back
        # from running joins (tiny minimums mean requests rarely queue
        # outright -- reclaim satisfies late arrivals synchronously).
        profile = result.profile
        assert profile["site.server1.memory.spill_pages"] > 0
        assert profile["site.server1.memory.reclaims"] > 0
        # Every grant was returned; nobody is left queued.
        for site in runner.last_topology.sites:
            assert site.memory.allocated_pages == 0
            assert site.memory.waiting == 0

    def test_static_allocation_sheds_under_same_pressure(self):
        result, _ = _run("static")
        assert result.shed > 0
        assert result.completed < result.submitted
        assert result.profile["site.server1.memory.spill_pages"] == 0

    def test_dynamic_outcompletes_static(self):
        dynamic, _ = _run("dynamic")
        static, _ = _run("static")
        assert dynamic.completed > static.completed


class TestBrokerDeterminism:
    """Satellite: same seed and workload => byte-identical broker history."""

    def test_repeat_run_replays_grant_reclaim_spill_sequence(self):
        first, first_runner = _run("dynamic")
        second, second_runner = _run("dynamic")
        assert first.makespan == second.makespan
        assert first.throughput == second.throughput
        assert [s.response_time for s in first.sessions] == [
            s.response_time for s in second.sessions
        ]
        assert first.profile == second.profile
        for site_a, site_b in zip(
            first_runner.last_topology.sites, second_runner.last_topology.sites
        ):
            assert site_a.memory.history == site_b.memory.history
        assert first_runner.last_topology.servers[0].memory.history.count > 0

    def test_seed_changes_broker_history(self):
        first, first_runner = _run("dynamic", seed=3)
        second, second_runner = _run("dynamic", seed=7)
        history_a = first_runner.last_topology.servers[0].memory.history
        history_b = second_runner.last_topology.servers[0].memory.history
        assert history_a.count > 0 and history_b.count > 0
        assert history_a != history_b
