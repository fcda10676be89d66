"""Multi-client memory contention: broker arbitration under a shared pool."""

import pytest

from repro.config import BufferAllocation, MemoryConfig, SystemConfig
from repro.faults.recovery import RecoveryPolicy
from repro.plans.policies import Policy
from repro.workload import AdmissionConfig, StreamConfig, WorkloadRunner
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


def _run_contended_4way(memory, cache, policy=Policy.QUERY_SHIPPING, seed=1):
    """Six clients of 4-way joins on two servers with 64-page pools, no
    recovery policy: every session is one inline attempt."""
    scenario = chain_scenario(
        num_relations=4,
        num_servers=2,
        cached_fraction=0.5,
        placement_seed=seed,
        config=SystemConfig(server_memory_pages=64, memory=MemoryConfig(mode=memory)),
    )
    runner = WorkloadRunner(
        scenario,
        policy,
        num_clients=6,
        stream=StreamConfig(queries_per_client=2),
        seed=seed,
        admission=AdmissionConfig(max_concurrent=4, queue_limit=16),
        cache=cache,
    )
    return runner.run(), runner


def _assert_everything_released(result, runner):
    topology = runner.last_topology
    for site in topology.sites:
        assert site.memory.allocated_pages == 0
        assert site.memory.waiting == 0
        # Only the stored copies and the client cache arena stay on disk.
        if site.is_client:
            kept = site.buffer_cache.capacity_pages
        else:
            kept = sum(site.relation_location(r)[1].pages for r in site.stored_relations)
        assert sum(a.used_pages for a in site.allocators) == kept
    for admission in result.admission:
        assert admission.completed == admission.admitted


class TestInlineShed:
    """A fixed grant shed inside an exchange subtree of an inline attempt."""

    def test_shed_ends_the_session_instead_of_crashing_the_run(self):
        result, runner = _run_contended_4way("static", "static")
        assert result.failed == 0
        assert result.shed > 0
        assert result.completed + result.shed == result.submitted
        sheds = [s for s in result.sessions if s.status == "shed"]
        # Some sheds happen at a server site, inside a pumped subtree.
        assert any("server2.memory" in s.error for s in sheds)
        _assert_everything_released(result, runner)


class TestBrokerDeadlock:
    """Hold-and-wait across sessions: the broker sheds only a stalled wait."""

    @pytest.mark.parametrize(
        "cache, policy, seed",
        [
            ("static", Policy.QUERY_SHIPPING, 1),
            ("dynamic", Policy.QUERY_SHIPPING, 5),
            ("static", Policy.HYBRID_SHIPPING, 1),
        ],
    )
    def test_deadlocked_waiters_are_shed(self, cache, policy, seed):
        result, runner = _run_contended_4way("dynamic", cache, policy, seed)
        assert result.failed == 0
        assert result.completed > 0
        assert result.completed + result.shed == result.submitted
        assert all(
            "deadlocked" in s.error for s in result.sessions if s.status == "shed"
        )
        _assert_everything_released(result, runner)
