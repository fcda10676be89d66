"""End-to-end workload runner tests on the real engine."""

import gc

import pytest

from repro import api
from repro.engine.executor import QueryExecutor
from repro.errors import ConfigurationError
from repro.faults.recovery import RecoveryPolicy
from repro.hardware.site import TempFile
from repro.plans.policies import Policy
from repro.sim import Process
from repro.workload import (
    AdmissionConfig,
    AdmissionPolicy,
    StreamConfig,
    WorkloadRunner,
)
from repro.workloads.scenarios import chain_scenario


def run_workload(policy, num_clients, **kwargs):
    scenario = chain_scenario(
        num_relations=2,
        num_servers=1,
        cached_fraction=kwargs.pop("cached_fraction", 0.75),
        placement_seed=3,
    )
    defaults = dict(
        stream=StreamConfig(arrival="closed", think_time=0.0, queries_per_client=2),
        admission=AdmissionConfig(max_concurrent=4, queue_limit=64),
        seed=3,
        # The shape margins below were tuned for the paper's static prefix
        # model; dynamic-cache behaviour has its own tests in tests/caching.
        cache="static",
    )
    defaults.update(kwargs)
    return WorkloadRunner(scenario, policy, num_clients=num_clients, **defaults).run()


class TestThroughputShape:
    """The headline experiment: DS scales with cached clients, QS saturates."""

    def test_data_shipping_scales_with_clients(self):
        one = run_workload(Policy.DATA_SHIPPING, 1)
        four = run_workload(Policy.DATA_SHIPPING, 4)
        assert four.throughput > 2.5 * one.throughput

    def test_query_shipping_saturates_server_disk(self):
        one = run_workload(Policy.QUERY_SHIPPING, 1)
        four = run_workload(Policy.QUERY_SHIPPING, 4)
        assert four.throughput < 1.5 * one.throughput
        # The tail pays for the contention.
        assert four.p95_response_time > 2.0 * one.p95_response_time

    def test_all_sessions_accounted(self):
        result = run_workload(Policy.HYBRID_SHIPPING, 3)
        assert result.submitted == 6
        assert result.completed + result.shed + result.failed == result.submitted
        assert len(result.sessions) == result.submitted


class TestAdmission:
    def test_shed_policy_rejects_overflow(self):
        result = run_workload(
            Policy.QUERY_SHIPPING,
            4,
            admission=AdmissionConfig(max_concurrent=1, policy=AdmissionPolicy.SHED),
            stream=StreamConfig(arrival="open", rate=2.0, queries_per_client=2),
        )
        assert result.shed > 0
        assert result.admission[0].shed == result.shed
        shed_sessions = [s for s in result.sessions if s.status == "shed"]
        assert all(s.result_tuples == 0 for s in shed_sessions)

    def test_wait_policy_queues_and_accounts_delay(self):
        result = run_workload(
            Policy.QUERY_SHIPPING,
            4,
            admission=AdmissionConfig(max_concurrent=1, queue_limit=64),
        )
        assert result.shed == 0
        assert result.completed == result.submitted
        assert result.mean_queue_delay > 0.0
        assert result.admission[0].max_queue_length > 0

    def test_no_admission_control(self):
        result = run_workload(Policy.DATA_SHIPPING, 2, admission=None)
        assert result.admission == ()
        assert result.shed == 0

    def test_queue_delay_is_part_of_response_time(self):
        result = run_workload(
            Policy.QUERY_SHIPPING,
            3,
            admission=AdmissionConfig(max_concurrent=1, queue_limit=64),
        )
        for session in result.sessions:
            if session.status == "completed":
                assert session.response_time >= session.queue_delay


class TestSingleClientParity:
    def test_closed_zero_think_matches_run_query(self):
        """A lone query is a one-client session: a one-client closed
        zero-think workload reproduces it exactly, not approximately."""
        for policy in ("ds", "qs", "hy"):
            for seed in (1, 3, 7):
                workload = api.run_workload(
                    policy=policy,
                    num_clients=1,
                    arrival="closed",
                    think_time=0.0,
                    queries_per_client=1,
                    cached_fraction=0.5,
                    admission=None,
                    seed=seed,
                    cache="static",  # run_query simulates the static prefix model
                )
                single = api.run_query(policy=policy, cached_fraction=0.5, seed=seed)
                assert workload.completed == 1
                session = workload.sessions[0]
                expected = single.result
                assert session.response_time == expected.response_time, (policy, seed)
                assert session.pages_sent == expected.pages_sent, (policy, seed)
                assert session.result_tuples == expected.result_tuples, (policy, seed)


class TestPerClientCaches:
    def test_override_changes_a_clients_execution(self):
        scenario = chain_scenario(
            num_relations=2, num_servers=1, cached_fraction=0.0, placement_seed=3
        )
        fully_cached = {name: 1.0 for name in scenario.catalog.relation_names}
        result = WorkloadRunner(
            scenario,
            Policy.DATA_SHIPPING,
            num_clients=2,
            stream=StreamConfig(arrival="closed", queries_per_client=1),
            seed=3,
            client_caches={1: fully_cached},
            cache="static",
        ).run()
        by_client = {s.client_site: s.response_time for s in result.sessions}
        # Client -1 reads its own cached copies; client 0 faults every page
        # from the server.  Different data paths, clearly different times
        # (per Figure 3, faulting can actually be the *faster* of the two).
        assert abs(by_client[-1] - by_client[0]) > 1.0

    def test_identically_cached_clients_behave_identically(self):
        """Fully cached DS clients never share a resource, so their
        concurrently-run sessions finish in exactly the same time."""
        scenario = chain_scenario(
            num_relations=2, num_servers=1, cached_fraction=0.0, placement_seed=3
        )
        fully_cached = {name: 1.0 for name in scenario.catalog.relation_names}
        result = WorkloadRunner(
            scenario,
            Policy.DATA_SHIPPING,
            num_clients=2,
            stream=StreamConfig(arrival="closed", queries_per_client=1),
            seed=3,
            client_caches={0: fully_cached, 1: fully_cached},
            cache="static",
        ).run()
        times = [s.response_time for s in result.sessions]
        # Not exactly equal: each client's disk has its own randomized
        # geometry state, so "identical" means within a fraction of a percent.
        assert times[0] == pytest.approx(times[1], rel=0.02)

    def test_unknown_ordinal_rejected(self):
        scenario = chain_scenario(num_relations=2, num_servers=1)
        with pytest.raises(ConfigurationError):
            WorkloadRunner(
                scenario, Policy.DATA_SHIPPING, num_clients=2, client_caches={5: {}}
            )

    def test_zero_clients_rejected(self):
        scenario = chain_scenario(num_relations=2, num_servers=1)
        with pytest.raises(ConfigurationError):
            WorkloadRunner(scenario, Policy.DATA_SHIPPING, num_clients=0)


class TestSubmissionPlanning:
    @pytest.mark.parametrize("cache", ["static", "dynamic"])
    def test_every_read_session_is_planned_once_at_submission(self, cache, monkeypatch):
        """Static and dynamic caches share one planning path: each read
        session calls ``optimize_for`` for its own client exactly once."""
        calls = []
        optimize_for = QueryExecutor.optimize_for

        def counting(self, client_site, *args, **kwargs):
            calls.append(client_site)
            return optimize_for(self, client_site, *args, **kwargs)

        monkeypatch.setattr(QueryExecutor, "optimize_for", counting)
        scenario = chain_scenario(
            num_relations=2, num_servers=1, cached_fraction=0.0, placement_seed=3
        )
        fully_cached = {name: 1.0 for name in scenario.catalog.relation_names}
        result = WorkloadRunner(
            scenario,
            Policy.HYBRID_SHIPPING,
            num_clients=3,
            stream=StreamConfig(arrival="closed", queries_per_client=2),
            seed=3,
            client_caches={1: fully_cached},
            cache=cache,
        ).run()
        assert result.completed == result.submitted == 6
        assert sorted(calls) == [-2, -2, -1, -1, 0, 0]


class TestApiSurface:
    def test_run_workload_returns_percentiles(self):
        result = api.run_workload(
            policy="hybrid",
            num_clients=2,
            arrival="open",
            rate=1.0,
            queries_per_client=2,
            cached_fraction=0.75,
            seed=3,
        )
        assert result.throughput > 0.0
        assert (
            result.p50_response_time
            <= result.p95_response_time
            <= result.p99_response_time
        )
        assert result.arrival == "open"
        assert result.num_clients == 2

    def test_admission_off_string(self):
        result = api.run_workload(
            policy="ds", num_clients=1, queries_per_client=1, admission="off", seed=3
        )
        assert result.admission == ()

    def test_utilizations_reported(self):
        result = api.run_workload(
            policy="qs", num_clients=2, queries_per_client=1, seed=3
        )
        assert any(v > 0.0 for v in result.disk_utilizations.values())
        assert any(v > 0.0 for v in result.cpu_utilizations.values())


class TestFinishedSessionsFreedByRefcount:
    """The runner pauses cyclic GC for the whole simulation, so a finished
    session must be freed by refcounting alone: no reference cycle may keep
    its processes or temp files until the pause ends."""

    @pytest.mark.parametrize("case", ("recovery", "writes"))
    def test_no_session_state_in_cyclic_garbage(self, case):
        stream = dict(arrival="closed", think_time=0.0, queries_per_client=2)
        policy = Policy.HYBRID_SHIPPING
        extra = {}
        if case == "recovery":
            extra["recovery"] = RecoveryPolicy()
        elif case == "writes":
            stream["write_fraction"] = 0.5
            policy = Policy.DATA_SHIPPING
        runner = WorkloadRunner(
            chain_scenario(
                num_relations=2, num_servers=1, cached_fraction=0.5, placement_seed=3
            ),
            policy,
            num_clients=4,
            stream=StreamConfig(**stream),
            admission=AdmissionConfig(max_concurrent=2, queue_limit=64),
            seed=3,
            cache="dynamic",
            **extra,
        )
        gc.collect()
        gc_was_enabled = gc.isenabled()
        # With GC already off the runner neither pauses nor collects, so
        # the collection below is the first one after its env.run.
        gc.disable()
        try:
            result = runner.run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            pinned = [
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, (Process, TempFile))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if gc_was_enabled:
                gc.enable()
        assert result.completed == result.submitted
        assert pinned == []
