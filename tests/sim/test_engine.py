"""Unit tests for the environment and process scheduler."""

import pytest

from repro.sim import Environment, Event, Timeout
from repro.sim.engine import SimulationError


class TestEnvironment:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_run_until_time(self, env):
        Timeout(env, 10.0)
        env.run(until=4.0)
        assert env.now == 4.0
        env.run(until=11.0)
        assert env.now == 11.0

    def test_run_until_past_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_run_drains_queue(self, env):
        timeouts = [Timeout(env, t) for t in (1.0, 2.0, 3.0)]
        env.run()
        assert all(t.processed for t in timeouts)
        assert env.now == 3.0

    def test_peek(self, env):
        assert env.peek() == float("inf")
        Timeout(env, 7.0)
        assert env.peek() == 7.0

    def test_schedule_into_past_rejected(self, env):
        event = Event(env)
        with pytest.raises(SimulationError):
            env.schedule(event, delay=-0.5)

    def test_fifo_order_at_same_timestamp(self, env):
        order = []
        for tag in ("a", "b", "c"):
            event = Timeout(env, 1.0, value=tag)
            event.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value(self, env):
        def worker():
            yield env.timeout(2.0)
            return "done"

        process = env.process(worker())
        assert env.run(until=process) == "done"
        assert env.now == 2.0

    def test_processes_interleave(self, env):
        trace = []

        def worker(name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                trace.append((name, env.now))

        env.process(worker("fast", 1.0))
        env.process(worker("slow", 1.5))
        env.run()
        # At t=3.0 both fire; "slow" was scheduled earlier (at t=1.5) so its
        # event sits ahead in the queue.
        assert trace == [
            ("fast", 1.0), ("slow", 1.5), ("fast", 2.0),
            ("slow", 3.0), ("fast", 3.0), ("slow", 4.5),
        ]

    def test_process_waits_for_process(self, env):
        def child():
            yield env.timeout(3.0)
            return 41

        def parent():
            value = yield env.process(child())
            return value + 1

        assert env.run(until=env.process(parent())) == 42

    def test_yielding_non_event_raises(self, env):
        def bad():
            yield 5

        with pytest.raises(SimulationError):
            env.process(bad())
            env.run()

    def test_exception_propagates_in_strict_mode(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("inside process")

        env.process(failing())
        with pytest.raises(ValueError, match="inside process"):
            env.run()

    def test_exception_stored_in_lenient_mode(self):
        env = Environment(strict=False)

        def failing():
            yield env.timeout(1.0)
            raise ValueError("inside process")

        process = env.process(failing())
        env.run()
        assert process.triggered and not process.ok

    def test_failed_event_rethrown_inside_process(self, env):
        event = Event(env)

        def waiter():
            try:
                yield event
            except RuntimeError:
                return "caught"
            return "missed"

        process = env.process(waiter())
        event.fail(RuntimeError("fail over"))
        assert env.run(until=process) == "caught"

    def test_wait_on_already_processed_event(self, env):
        timeout = Timeout(env, 1.0, value="early")
        env.run()

        def late_waiter():
            value = yield timeout
            return value

        assert env.run(until=env.process(late_waiter())) == "early"

    def test_deadlock_detected(self, env):
        def waiter():
            yield Event(env)  # never triggered

        process = env.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=process)

    def test_deadlock_message_names_time_and_alive_processes(self, env):
        def stuck():
            yield Event(env)  # never triggered

        def bystander():
            yield env.timeout(2.5)

        process = env.process(stuck(), name="stuck-waiter")
        env.process(bystander(), name="done-by-then")
        with pytest.raises(SimulationError) as excinfo:
            env.run(until=process)
        message = str(excinfo.value)
        assert "t=2.5" in message
        assert "stuck-waiter" in message
        assert "done-by-then" not in message  # finished processes not listed

    def test_deadlock_message_includes_debug_dumper_state(self, env):
        env.debug_dumpers.append(lambda: "frobnicator: 3 widgets stuck")
        env.debug_dumpers.append(lambda: "")  # idle dumpers stay silent

        def stuck():
            yield Event(env)

        process = env.process(stuck(), name="stuck-waiter")
        with pytest.raises(SimulationError) as excinfo:
            env.run(until=process)
        message = str(excinfo.value)
        assert "frobnicator: 3 widgets stuck" in message

    def test_deadlock_message_dumps_broker_pressure(self, env):
        """A stuck memory waiter shows up with the grants blocking it."""
        from repro.storage.memory import MemoryBroker

        broker = MemoryBroker(env, 10, name="server1.memory")
        env.debug_dumpers.append(broker.describe_pressure)

        def hog():
            grant = broker.try_grant(10, 10, "join#0")
            assert grant is not None
            yield Event(env)  # never releases

        def starved():
            waiter = broker.enqueue(5, 8, "join#1")
            yield waiter.event

        env.process(hog(), name="hog")
        process = env.process(starved(), name="starved")
        with pytest.raises(SimulationError) as excinfo:
            env.run(until=process)
        message = str(excinfo.value)
        assert "server1.memory" in message
        assert "join#0" in message  # outstanding grant
        assert "join#1" in message  # queued waiter

    def test_alive_processes_listing(self, env):
        def forever():
            yield Event(env)

        def quick():
            yield env.timeout(1.0)

        immortal = env.process(forever(), name="immortal")
        env.process(quick(), name="mortal")
        env.run()
        assert immortal in env.alive_processes()
        assert all(p.name != "mortal" for p in env.alive_processes())

    def test_is_alive(self, env):
        def worker():
            yield env.timeout(1.0)

        process = env.process(worker())
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestScheduleValidation:
    """NaN/inf delays must be rejected before they touch the heap.

    A NaN key compares false against everything, so one poisoned entry
    silently corrupts sift-up for every later push -- events start firing
    out of order with no error anywhere near the cause.
    """

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_schedule_rejects_non_finite_and_negative_delays(self, env, delay):
        event = Event(env)
        event._value = None
        with pytest.raises(SimulationError):
            env.schedule(event, delay=delay)
        assert not env._queue  # nothing reached the heap

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.5])
    def test_succeed_with_bad_delay_rejected(self, env, delay):
        with pytest.raises(SimulationError):
            Event(env).succeed(delay=delay)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_raw_sleep_rejects_non_finite_and_negative(self, env, bad):
        def sleeper():
            yield bad

        env.process(sleeper(), name="bad-sleeper")
        with pytest.raises(SimulationError):
            env.run()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_sleep_until_rejects_non_finite_and_past_instants(self, env, bad):
        def sleeper():
            yield env.sleep_until(bad)

        env.process(sleeper(), name="bad-sleeper")
        with pytest.raises(SimulationError):
            env.run()
        assert not env._queue

    def test_sleep_until_wakes_at_the_instant_exactly(self, env):
        # A raw sleep from 1.9513433300794225 by (end - now) wakes one ulp
        # early here; a booked window must end where it was booked.
        start, end = 1.9513433300794225, 6.739405870761753
        assert start + (end - start) != end
        woke = []

        def sleeper():
            yield start
            yield env.sleep_until(end)
            woke.append(env.now)

        env.process(sleeper())
        env.run()
        assert woke == [end]

    def test_heap_order_survives_rejected_schedule(self, env):
        """The rejected call must leave the queue fully usable."""
        order = []

        def worker(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        env.process(worker("a", 2.0))
        with pytest.raises(SimulationError):
            env.schedule(Event(env), delay=float("nan"))
        env.process(worker("b", 1.0))
        env.run()
        assert order == ["b", "a"]


class TestProcessRegistryCompaction:
    """The weakref registry must not grow without bound across sessions."""

    def test_dead_refs_are_compacted(self, env):
        import gc

        def quick():
            yield 0.0

        # A few hundred "sessions" worth of short-lived processes, run in
        # waves the way a workload stream launches them.
        for _ in range(40):
            for _ in range(100):
                env.process(quick())
            env.run()
            gc.collect()  # drop the finished generators' processes
        # 4000 dead processes went through; the registry must have been
        # compacted down to the survivors (none), not grown linearly.
        assert len(env._processes) < 1024
        assert env.alive_processes() == []

    def test_compaction_keeps_alive_processes(self, env):
        import gc

        def forever():
            yield Event(env)

        def quick():
            yield 0.0

        keeper = env.process(forever(), name="keeper")
        for _ in range(20):
            for _ in range(100):
                env.process(quick())
            env.run()
            gc.collect()
        assert keeper in env.alive_processes()


class TestClose:
    """``close`` frees a finished simulation: every live process ends."""

    def test_close_runs_pending_finally_blocks(self, env):
        unwound = []
        pending = Event(env)

        def waiter(name, event):
            try:
                yield event
            finally:
                unwound.append(name)

        def sleeper():
            try:
                yield 5.0
            finally:
                unwound.append("sleeper")

        first = env.process(waiter("first", pending), name="first")
        env.process(waiter("second", first), name="second")
        env.process(sleeper(), name="sleeper")
        env.run(until=1.0)
        env.close()
        assert sorted(unwound) == ["first", "second", "sleeper"]
        assert env.alive_processes() == []
        assert not first.is_alive
        assert pending.callbacks == []
        assert env.peek() == float("inf")

    def test_close_is_idempotent(self, env):
        unwound = []

        def waiter():
            try:
                yield Event(env)
            finally:
                unwound.append(1)

        env.process(waiter())
        env.run(until=1.0)
        env.close()
        env.close()
        assert unwound == [1]

    def test_close_clears_hooks_and_keeps_the_clock(self, env):
        env.debug_dumpers.append(lambda: "")
        env.stall_handlers.append(lambda: False)
        Timeout(env, 3.0)
        env.run(until=2.0)
        env.close()
        assert env.debug_dumpers == [] and env.stall_handlers == []
        assert env.active_process is None and env.tracer is None
        assert env.now == 2.0

    def test_closed_environment_rejects_new_work(self, env):
        env.close()

        def quick():
            yield 0.0

        generator = quick()
        with pytest.raises(SimulationError, match="closed"):
            env.process(generator)
        generator.close()
        with pytest.raises(SimulationError, match="closed"):
            env.schedule(Event(env))
        with pytest.raises(SimulationError, match="closed"):
            env.run()
        with pytest.raises(SimulationError, match="closed"):
            env.run(until=5.0)
