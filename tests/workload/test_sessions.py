"""Sessions under faults and admission: exact outcomes, queue delay, signals.

Single queries, read sessions and write sessions share one attempt loop
(:class:`repro.engine.executor.Session`).  These tests pin what that loop
produces on faulted workloads exactly, check that a shed session still
reports the time it queued, and check that every path emits the same
recovery counters and trace instants a lone faulted query does.
"""

import json

import pytest

from repro.config import OptimizerConfig
from repro.engine.executor import QueryExecutor, Session
from repro.faults.recovery import RecoveryPolicy
from repro.faults.schedule import FaultSchedule
from repro.obs.check import check_trace
from repro.obs.export import chrome_trace_json
from repro.obs.trace import Tracer
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workload import (
    AdmissionConfig,
    AdmissionController,
    StreamConfig,
    WorkloadRunner,
)
from repro.workloads.scenarios import chain_scenario

QS, HY, DS = Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING, Policy.DATA_SHIPPING


def run_faulted(policy, num_servers=1, replication_factor=1, write_fraction=0.0,
                cached_fraction=0.5, crash_at=1.0, tracer=None):
    """Three closed zero-think clients, two submissions each, server 1
    crashing at ``crash_at`` for 4 s, at most two sessions per server."""
    scenario = chain_scenario(
        num_relations=2,
        num_servers=num_servers,
        cached_fraction=cached_fraction,
        placement_seed=3,
        replication_factor=replication_factor,
    )
    return WorkloadRunner(
        scenario,
        policy,
        num_clients=3,
        stream=StreamConfig(
            arrival="closed",
            think_time=0.0,
            queries_per_client=2,
            write_fraction=write_fraction,
        ),
        admission=AdmissionConfig(max_concurrent=2),
        seed=3,
        faults=FaultSchedule.server_crash(1, at=crash_at, duration=4.0),
        recovery=RecoveryPolicy(max_attempts=5, base_backoff=0.5, query_timeout=300.0),
        tracer=tracer,
    ).run()


# DS with writes on two 2-way replicated servers; the crash comes early
# enough (t=0.01 s) to hit the first write in flight, so the write path
# retries too.
DS_WRITES = dict(
    num_servers=2, replication_factor=2, write_fraction=0.25,
    cached_fraction=0.0, crash_at=0.01,
)

# (session id, status, retries, replans, response time, queue delay,
#  pages sent, servers used) of every session, in submission order.
EXPECTED = {
    "qs": [
        ("c0q0", "completed", 4, 0, 55.89419699786615, 23.105898695353947, 985, (1,)),
        ("c0q1", "completed", 0, 0, 23.22380040694366, 0.2412272075809554, 515, (1,)),
        ("c1q0", "completed", 4, 0, 32.12245651535368, 0.0, 485, (1,)),
        ("c1q1", "completed", 0, 0, 24.012967690093426, 0.3893742250929293, 515, (1,)),
        ("c2q0", "completed", 4, 0, 32.51183074044661, 1.0, 500, (1,)),
        ("c2q1", "completed", 0, 0, 46.52006309449526, 23.38236625741954, 985, (1,)),
    ],
    "hy": [
        ("c0q0", "completed", 2, 1, 17.400885654803194, 0.0, 1189, ()),
        ("c0q1", "completed", 0, 0, 9.870730742326096, 4.929182218866373, 1497, (1,)),
        ("c1q0", "completed", 2, 1, 17.367890917821295, 0.0, 1186, ()),
        ("c1q1", "completed", 0, 0, 4.962176955848271, 0.0, 1000, (1,)),
        ("c2q0", "completed", 2, 1, 17.390653368977354, 1.0003889657977871, 1187, ()),
        ("c2q1", "completed", 0, 0, 4.939741489996862, 0.0, 999, (1,)),
    ],
    "ds-writes": [
        ("c0q0", "completed", 1, 1, 13.109301715850295, 0.0, 1502, ()),
        ("c0w1", "completed", 0, 0, 0.021623648039261312, 0.0, 2, (1, 2)),
        ("c1q0", "completed", 1, 1, 13.152926073177703, 0.0, 1504, ()),
        ("c1q1", "completed", 0, 0, 12.25386584348368, 0.0, 1, ()),
        ("c2w0", "completed", 1, 0, 0.555893310736405, 0.0, 6, (1, 2)),
        ("c2q1", "completed", 1, 1, 12.826845671053198, 0.0, 1498, ()),
    ],
}

CASES = {"qs": dict(policy=QS), "hy": dict(policy=HY), "ds-writes": dict(policy=DS, **DS_WRITES)}


class TestFaultedWorkloadOracle:
    """Exact per-session outcomes of faulted workloads (admission waits,
    retries, replans onto client caches, write failover) -- the values the
    three separate recovery loops produced before they became one."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_session_outcome_is_pinned(self, case):
        result = run_faulted(**CASES[case])
        observed = [
            (
                s.session_id,
                s.status,
                s.retries,
                s.replans,
                s.response_time,
                s.queue_delay,
                s.pages_sent,
                s.servers_used,
            )
            for s in result.sessions
        ]
        assert observed == EXPECTED[case]


class TestShedSessionQueueDelay:
    def test_wait_before_a_shed_counts_as_queue_delay(self):
        """A QS session queues 5 s for server 1's only slot, then finds
        server 2's queue full and is shed: those 5 s are queue delay."""
        scenario = chain_scenario(num_relations=2, num_servers=2, placement_seed=0)
        plan = RandomizedOptimizer(
            scenario.query,
            scenario.environment(),
            policy=QS,
            config=OptimizerConfig.fast(),
            seed=0,
        ).optimize().plan
        executor = QueryExecutor(scenario.config, scenario.catalog, scenario.query)
        env = executor.env
        config = AdmissionConfig(max_concurrent=1, queue_limit=1)
        admission = {sid: AdmissionController(env, sid, config) for sid in (1, 2)}

        def occupy(controller, name, hold):
            ticket = yield from controller.admit(name)
            yield env.timeout(hold)
            ticket.release()

        env.process(occupy(admission[1], "holder1", 5.0))
        env.process(occupy(admission[2], "holder2", 100.0))
        env.process(occupy(admission[2], "waiter2", 1.0))  # fills server 2's queue
        session = Session(executor, plan, admission=admission, session_id="q")
        process = env.process(session.run())
        env.run(until=process)
        result = process.value
        assert result.servers_used == ()
        assert result.status == "shed"
        assert result.queue_delay == pytest.approx(5.0)
        assert result.response_time == pytest.approx(5.0)
        # The server-1 ticket taken before the shed was given back.
        assert admission[1].running == 0


class TestRecoverySignals:
    """Sessions report the counters and trace instants a lone faulted
    query reports (see ``QueryExecutor.execute``)."""

    def test_profile_carries_the_recovery_counters(self):
        result = run_faulted(QS)
        assert result.profile["recovery.retries"] == result.total_retries > 0
        assert result.profile["recovery.replans"] == result.total_replans
        wasted = sum(s.wasted_work_pages for s in result.sessions)
        assert result.profile["recovery.wasted_work_pages"] == wasted > 0

    def test_fault_free_workload_reports_zero_recovery(self):
        result = run_faulted(QS, crash_at=1000.0)
        assert result.total_retries == 0
        assert result.profile["recovery.retries"] == 0
        assert result.profile["recovery.wasted_work_pages"] == 0

    def test_reads_and_writes_emit_one_instant_per_failed_attempt(self):
        tracer = Tracer()
        result = run_faulted(DS, tracer=tracer, **DS_WRITES)
        assert all(s.status == "completed" for s in result.sessions)
        retried = {s.session_id for s in result.sessions if s.retries}
        assert any("w" in sid for sid in retried) and any("q" in sid for sid in retried)
        names = [instant.name for instant in tracer.instants]
        # Every session completed, so each failed attempt was retried.
        assert names.count("attempt-failed") == result.total_retries
        assert names.count("retry") == result.total_retries
        assert result.profile["recovery.retries"] == result.total_retries
        assert check_trace(json.loads(chrome_trace_json(tracer))) == []
