"""Unit tests for buffer accounting, Shapiro's formulas, and the broker."""


import pytest

from repro.config import HYBRID_HASH_FUDGE_FACTOR, BufferAllocation
from repro.errors import ConfigurationError, MemoryExhaustedError, TransientFaultError
from repro.sim import Environment
from repro.storage import MemoryBroker, MemoryManager, MemoryPressureState, plan_hybrid_hash
from repro.storage.memory import (
    join_allocation,
    maximum_join_allocation,
    minimum_join_allocation,
)


class TestAllocationFormulas:
    def test_minimum_is_sqrt_fm(self):
        # Paper relations: 250 pages; F * M = 300; sqrt = 17.3 -> 18 frames.
        assert minimum_join_allocation(250) == 18

    def test_maximum_fits_inner(self):
        assert maximum_join_allocation(250) == 300

    def test_join_allocation_dispatch(self):
        assert join_allocation(250, BufferAllocation.MINIMUM) == 18
        assert join_allocation(250, BufferAllocation.MAXIMUM) == 300

    def test_tiny_relations_get_floor(self):
        assert minimum_join_allocation(0) >= 2
        assert maximum_join_allocation(1) >= 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            minimum_join_allocation(-1)
        with pytest.raises(ConfigurationError):
            maximum_join_allocation(-1)

    def test_degenerate_fudge_rejected(self):
        # A fudge factor below 1 would claim hash tables shrink their data.
        with pytest.raises(ConfigurationError):
            minimum_join_allocation(250, fudge=0.9)
        with pytest.raises(ConfigurationError):
            maximum_join_allocation(250, fudge=0.0)
        with pytest.raises(ConfigurationError):
            plan_hybrid_hash(250, 250, 18, fudge=0.5)

    def test_fudge_boundary_exactly_one_allowed(self):
        assert minimum_join_allocation(250, fudge=1.0) == 16
        assert maximum_join_allocation(250, fudge=1.0) == 250

    def test_zero_inner_floor(self):
        # inner_pages=0 must yield a sane minimal allocation, not 0 frames.
        assert minimum_join_allocation(0) == 2
        assert maximum_join_allocation(0) == 2
        assert join_allocation(0, BufferAllocation.MINIMUM) == 2


class TestHybridHashPlan:
    def test_maximum_allocation_runs_in_memory(self):
        plan = plan_hybrid_hash(250, 250, maximum_join_allocation(250))
        assert plan.in_memory
        assert plan.spill_partitions == 0
        assert plan.resident_fraction == 1.0
        assert plan.temp_io_pages == 0

    def test_minimum_allocation_spills_almost_everything(self):
        plan = plan_hybrid_hash(250, 250, minimum_join_allocation(250))
        assert not plan.in_memory
        assert plan.resident_fraction < 0.02
        assert plan.spilled_inner_pages >= 245
        # Every spilled page is written once and read once.
        assert plan.temp_io_pages == 2 * (
            plan.spilled_inner_pages + plan.spilled_outer_pages
        )

    def test_partitions_fit_when_reprocessed(self):
        buffers = minimum_join_allocation(250)
        plan = plan_hybrid_hash(250, 250, buffers)
        per_partition = plan.spilled_inner_pages / plan.spill_partitions
        # Each spilled inner partition must fit in memory with fudge factor.
        assert per_partition * HYBRID_HASH_FUDGE_FACTOR <= buffers + 1

    def test_intermediate_allocation(self):
        plan = plan_hybrid_hash(250, 250, 150)
        assert 0.0 < plan.resident_fraction < 1.0
        assert plan.spilled_inner_pages < 250

    def test_empty_inner(self):
        plan = plan_hybrid_hash(0, 250, 10)
        assert plan.in_memory

    def test_too_few_buffers_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_hybrid_hash(250, 250, 1)


class TestMemoryManager:
    def test_allocate_release(self):
        memory = MemoryManager(100)
        memory.allocate(60)
        assert memory.available_pages == 40
        memory.release(60)
        assert memory.available_pages == 100

    def test_oversubscription_sheds(self):
        # Static-discipline exhaustion is a shed (load control), not a
        # configuration bug: MemoryExhaustedError is a QueryShedError.
        memory = MemoryManager(100)
        memory.allocate(80)
        with pytest.raises(MemoryExhaustedError, match="exhausted"):
            memory.allocate(30)

    def test_high_water_mark(self):
        memory = MemoryManager(100)
        memory.allocate(50)
        memory.allocate(30)
        memory.release(70)
        assert memory.high_water_mark == 80

    def test_bad_release_rejected(self):
        memory = MemoryManager(100)
        memory.allocate(10)
        with pytest.raises(ConfigurationError):
            memory.release(20)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            MemoryManager(0)


def _drive(env, generator, name="request"):
    """Run a broker-request generator as a process; returns the Process."""
    return env.process(generator, name=name)


class TestMemoryBroker:
    def make(self, capacity=100, reclaim=True):
        env = Environment()
        return env, MemoryBroker(env, capacity, name="site.memory", reclaim_enabled=reclaim)

    def test_uncontended_grant_is_synchronous_and_maximal(self):
        _env, broker = self.make()
        grant = broker.try_grant(10, 40, "join#0")
        assert grant is not None
        assert grant.pages == 40  # greedy up to the maximum
        assert broker.allocated_pages == 40
        grant.release()
        assert broker.allocated_pages == 0

    def test_grant_release_idempotent(self):
        _env, broker = self.make()
        grant = broker.try_grant(10, 40, "join#0")
        grant.release()
        grant.release()
        assert broker.allocated_pages == 0

    def test_minimum_respected_under_pressure(self):
        _env, broker = self.make(capacity=50)
        first = broker.try_grant(10, 40, "a")
        assert first is not None and first.pages == 40
        # 10 pages free: a [10..30] request gets its minimum, not less.
        second = broker.try_grant(10, 30, "b")
        assert second is not None and second.pages == 10

    def test_never_partially_starved(self):
        _env, broker = self.make(capacity=50)
        broker.try_grant(10, 45, "a")
        # 5 free < minimum 10 and no reclaimable grant: no partial grant.
        assert broker.try_grant(10, 30, "b") is None

    def test_impossible_minimum_fails_fast(self):
        _env, broker = self.make(capacity=50)
        with pytest.raises(MemoryExhaustedError):
            broker.try_grant(51, 60, "join#0")

    def test_fifo_wait_queue_and_wake_on_release(self):
        env, broker = self.make(capacity=50)
        first = broker.try_grant(20, 50, "a")
        assert first is not None
        granted: list[str] = []

        def ask(label):
            grant = yield from broker.request(20, 25, label)
            granted.append(label)
            return grant

        _drive(env, ask("b"))
        _drive(env, ask("c"))
        env.run(until=env.timeout(0.0))
        assert granted == []  # both queued behind the full pool
        assert broker.waiting == 2
        first.release()
        env.run(until=env.timeout(0.0))
        # Release wakes the queue strictly in arrival order.
        assert granted == ["b", "c"]
        assert broker.waiting == 0

    def test_head_of_queue_blocks_later_requests(self):
        env, broker = self.make(capacity=50)
        broker.try_grant(20, 45, "a")  # 5 free
        _drive(env, broker.request(30, 30, "big"))
        env.run(until=env.timeout(0.0))
        # A small request that *would* fit must still queue behind "big".
        assert broker.try_grant(2, 4, "small") is None
        assert broker.waiting == 1

    def test_reclaim_shrinks_oldest_toward_minimum(self):
        _env, broker = self.make(capacity=50)
        taken: list[int] = []

        def give_back(pages):
            taken.append(pages)
            return pages

        first = broker.try_grant(10, 50, "a", give_back)
        assert first.pages == 50
        second = broker.try_grant(10, 20, "b")
        # The broker clawed pages above "a"'s minimum to serve "b".
        assert second is not None and second.pages >= 10
        assert taken and first.pages >= 10
        assert broker.reclaims == 1
        assert broker.reclaimed_pages == sum(taken)

    def test_reclaim_never_goes_below_minimum(self):
        _env, broker = self.make(capacity=50)
        first = broker.try_grant(30, 50, "a", lambda pages: pages)
        assert first.pages == 50
        assert broker.try_grant(25, 30, "b") is None  # only 20 reclaimable
        assert first.pages == 30  # shrunk exactly to its minimum

    def test_reclaim_disabled_only_queues(self):
        _env, broker = self.make(capacity=50, reclaim=False)
        first = broker.try_grant(10, 50, "a", lambda pages: pages)
        assert first.pages == 50
        assert broker.try_grant(10, 20, "b") is None

    def test_cancel_queued_waiter_fails_event(self):
        env, broker = self.make(capacity=50)
        broker.try_grant(20, 50, "a")
        waiter = broker.enqueue(20, 30, "b")
        failures: list[BaseException] = []

        def wait():
            try:
                yield waiter.event
            except TransientFaultError as exc:
                failures.append(exc)

        _drive(env, wait())
        broker.cancel(waiter)
        env.run(until=env.timeout(0.0))
        assert len(failures) == 1
        assert broker.waiting == 0

    def test_cancel_after_grant_releases_it(self):
        env, broker = self.make(capacity=50)
        first = broker.try_grant(20, 50, "a")
        waiter = broker.enqueue(20, 30, "b")
        first.release()  # grants the waiter synchronously
        assert waiter.granted is not None
        broker.cancel(waiter)
        assert broker.allocated_pages == 0
        env.run(until=env.timeout(0.0))

    def _history(self, spill_pages=3):
        env, broker = self.make(capacity=50)
        a = broker.try_grant(10, 50, "a", lambda pages: pages)
        broker.try_grant(10, 20, "b")
        broker.record_spill("a", spill_pages)
        a.release()
        env.run(until=env.timeout(0.0))
        return broker.history

    def test_log_is_deterministic(self):
        history = self._history()
        assert history.count == 5  # grant a, reclaim a, grant b, spill, release
        assert history == self._history()

    def test_history_sees_one_event_pages_change(self):
        changed = self._history(spill_pages=4)
        assert changed.count == self._history().count
        assert changed != self._history()

    def test_bad_range_rejected(self):
        _env, broker = self.make()
        with pytest.raises(ConfigurationError):
            broker.try_grant(0, 10, "a")
        with pytest.raises(ConfigurationError):
            broker.try_grant(10, 5, "a")

    def test_describe_pressure(self):
        _env, broker = self.make(capacity=50)
        assert broker.describe_pressure() == ""
        broker.try_grant(20, 45, "join#0@server1")
        broker.enqueue(20, 30, "join#0@server1")
        text = broker.describe_pressure()
        assert "granted" in text and "waiter" in text and "join#0@server1" in text


class TestMemoryPressureState:
    def test_capture_and_digest(self):
        env = Environment()

        class FakeSite:
            def __init__(self, site_id, broker):
                self.site_id = site_id
                self.memory = broker

        busy = MemoryBroker(env, 100, name="s1")
        busy.try_grant(10, 60, "j")
        idle = MemoryBroker(env, 100, name="s2")
        state = MemoryPressureState.capture([FakeSite(2, idle), FakeSite(1, busy)])
        assert state.sites[0][0] == 1  # sorted by site id
        assert state.free_pages(1) == 40
        assert state.free_pages(2) == 100
        assert state.free_pages(99) is None
        assert state.waiters(1) == 0
        other = MemoryPressureState.capture([FakeSite(1, busy)])
        assert state.digest() != other.digest()
        assert state.digest() == MemoryPressureState.capture(
            [FakeSite(2, idle), FakeSite(1, busy)]
        ).digest()
