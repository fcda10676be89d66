"""Dynamic hybrid-hash join: broker grants, spilling, reversal, recovery."""

import pytest

from repro.catalog import Catalog, Placement, Relation
from repro.config import BufferAllocation, MemoryConfig, SystemConfig
from repro.engine import QueryExecutor
from repro.errors import TransientFaultError
from repro.faults import FaultSchedule, RecoveryPolicy
from repro.obs.trace import Tracer
from repro.plans import DisplayOp, JoinOp, JoinPredicate, Query, ScanOp
from repro.plans.annotations import Annotation

A = Annotation
MODERATE = 1e-4


def run_join(
    allocation,
    memory_mode="static",
    server_memory_pages=2048,
    inner_tuples=10_000,
    outer_tuples=10_000,
    selectivity=MODERATE,
    seed=1,
    faults=None,
    recovery=None,
    tracer=None,
):
    config = SystemConfig(
        num_servers=1,
        buffer_allocation=allocation,
        server_memory_pages=server_memory_pages,
        memory=MemoryConfig(mode=memory_mode),
    )
    catalog = Catalog(
        [Relation("A", inner_tuples), Relation("B", outer_tuples)],
        Placement({"A": 1, "B": 1}),
    )
    query = Query(("A", "B"), (JoinPredicate("A", "B", selectivity),))
    join = JoinOp(
        A.INNER_RELATION,
        inner=ScanOp(A.PRIMARY_COPY, "A"),
        outer=ScanOp(A.PRIMARY_COPY, "B"),
    )
    plan = DisplayOp(A.CLIENT, child=join)
    executor = QueryExecutor(
        config,
        catalog,
        query,
        seed=seed,
        faults=faults,
        recovery=recovery,
        tracer=tracer,
    )
    return executor.execute(plan), executor


class TestUnboundedParity:
    """Satellite: with memory to spare, dynamic == static, event for event."""

    def test_matches_static_maximum_exactly(self):
        static, static_exec = run_join(BufferAllocation.MAXIMUM, "static")
        dynamic, dynamic_exec = run_join(BufferAllocation.MAXIMUM, "dynamic")
        assert dynamic.response_time == static.response_time
        assert dynamic.pages_sent == static.pages_sent
        assert dynamic.result_tuples == static.result_tuples
        s_disk = static_exec.topology.servers[0].disk
        d_disk = dynamic_exec.topology.servers[0].disk
        assert (d_disk.reads, d_disk.writes) == (s_disk.reads, s_disk.writes)

    def test_uncontended_grant_is_maximal_and_spill_free(self):
        _result, executor = run_join(BufferAllocation.MAXIMUM, "dynamic")
        server = executor.topology.servers[0]
        assert server.disk.writes == 0
        assert server.memory.allocated_pages == 0
        assert server.memory.high_water_mark >= 300
        assert server.memory.spill_pages == 0
        assert server.memory.grants_issued == 1


class TestConstrainedDynamic:
    def test_partial_grant_spills_and_completes(self):
        result, executor = run_join(
            BufferAllocation.MAXIMUM, "dynamic", server_memory_pages=100
        )
        server = executor.topology.servers[0]
        # The broker granted what it had (100 < the 300-page maximum);
        # the join degraded to a spilling hybrid-hash and still finished.
        assert result.result_tuples == 10_000
        assert server.disk.writes > 0
        assert server.memory.spill_pages > 0
        assert server.memory.allocated_pages == 0
        assert server.allocators[0].used_pages == 500  # temps freed

    def test_constrained_slower_than_unconstrained(self):
        tight, _ = run_join(
            BufferAllocation.MAXIMUM, "dynamic", server_memory_pages=100
        )
        roomy, _ = run_join(BufferAllocation.MAXIMUM, "dynamic")
        assert tight.response_time > roomy.response_time

    def test_role_reversal_on_smaller_probe(self):
        # Inner 10k tuples (250 pages), outer 2k (50 pages): any spilled
        # partition pair has the probe side smaller than the build side,
        # so the dynamic join swaps their roles before rejoining them.
        tracer = Tracer()
        result, executor = run_join(
            BufferAllocation.MAXIMUM,
            "dynamic",
            server_memory_pages=40,
            outer_tuples=2_000,
            selectivity=5e-4,
            tracer=tracer,
        )
        assert result.result_tuples > 0
        names = {i.name for i in tracer.instants}
        assert "join.role-reversal" in names
        server = executor.topology.servers[0]
        assert server.memory.allocated_pages == 0
        assert server.allocators[0].used_pages == 300  # 250 + 50 base pages

    def test_determinism_under_constrained_memory(self):
        a, exec_a = run_join(
            BufferAllocation.MAXIMUM, "dynamic", server_memory_pages=100, seed=5
        )
        b, exec_b = run_join(
            BufferAllocation.MAXIMUM, "dynamic", server_memory_pages=100, seed=5
        )
        assert a.response_time == b.response_time
        assert a.pages_sent == b.pages_sent
        history_a = exec_a.topology.servers[0].memory.history
        assert history_a.count > 0
        assert history_a == exec_b.topology.servers[0].memory.history


class TestCrashDuringDynamicJoin:
    """Satellite: abort during a granted join releases broker memory."""

    def test_crash_mid_join_releases_grant_and_recovers(self):
        result, executor = run_join(
            BufferAllocation.MAXIMUM,
            "dynamic",
            server_memory_pages=100,
            faults=FaultSchedule.server_crash(1, at=0.5, duration=1.0),
            recovery=RecoveryPolicy(max_attempts=8, base_backoff=0.5),
        )
        assert result.result_tuples == 10_000
        assert result.retries >= 1
        server = executor.topology.servers[0]
        assert server.memory.allocated_pages == 0
        assert server.memory.waiting == 0
        assert server.allocators[0].used_pages == 500

    def test_failed_recovery_still_drains_broker(self):
        config = SystemConfig(
            num_servers=1,
            buffer_allocation=BufferAllocation.MAXIMUM,
            server_memory_pages=100,
            memory=MemoryConfig(mode="dynamic"),
        )
        catalog = Catalog(
            [Relation("A", 10_000), Relation("B", 10_000)],
            Placement({"A": 1, "B": 1}),
        )
        query = Query(("A", "B"), (JoinPredicate("A", "B", MODERATE),))
        plan = DisplayOp(
            A.CLIENT,
            child=JoinOp(
                A.INNER_RELATION,
                inner=ScanOp(A.PRIMARY_COPY, "A"),
                outer=ScanOp(A.PRIMARY_COPY, "B"),
            ),
        )
        executor = QueryExecutor(
            config,
            catalog,
            query,
            seed=1,
            faults=FaultSchedule.server_crash(1, at=0.5),
            recovery=RecoveryPolicy.none(),
        )
        with pytest.raises(TransientFaultError):
            executor.execute(plan)
        server = executor.topology.servers[0]
        assert server.memory.allocated_pages == 0
        assert server.memory.waiting == 0
