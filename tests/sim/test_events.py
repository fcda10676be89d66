"""Unit tests for the event primitives."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Timeout
from repro.sim.events import EventError


class TestEvent:
    def test_starts_pending(self, env):
        event = Event(env)
        assert not event.triggered
        assert not event.processed

    def test_succeed_delivers_value(self, env):
        event = Event(env)
        event.succeed("payload")
        assert event.triggered
        env.run()
        assert event.processed
        assert event.value == "payload"

    def test_double_trigger_rejected(self, env):
        event = Event(env)
        event.succeed()
        with pytest.raises(EventError):
            event.succeed()

    def test_fail_then_succeed_rejected(self, env):
        event = Event(env)
        event.fail(RuntimeError("boom"))
        with pytest.raises(EventError):
            event.succeed()

    def test_value_before_trigger_raises(self, env):
        event = Event(env)
        with pytest.raises(EventError):
            _ = event.value

    def test_fail_requires_exception(self, env):
        event = Event(env)
        with pytest.raises(TypeError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_failed_event_reraises_from_value(self, env):
        event = Event(env)
        event.fail(ValueError("bad"))
        env.run()
        with pytest.raises(ValueError, match="bad"):
            _ = event.value

    def test_ok_reflects_outcome(self, env):
        good, bad = Event(env), Event(env)
        good.succeed()
        bad.fail(RuntimeError("x"))
        env.run()
        assert good.ok
        assert not bad.ok


class TestTimeout:
    def test_fires_at_delay(self, env):
        timeout = Timeout(env, 2.5)
        env.run()
        assert timeout.processed
        assert env.now == 2.5

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_zero_delay_fires_immediately(self, env):
        timeout = Timeout(env, 0.0, value="now")
        env.run()
        assert timeout.value == "now"
        assert env.now == 0.0

    def test_carries_value(self, env):
        timeout = Timeout(env, 1.0, value=123)
        env.run()
        assert timeout.value == 123


class TestConditions:
    def test_all_of_collects_values(self, env):
        events = [Timeout(env, t, value=t) for t in (3.0, 1.0, 2.0)]
        combined = AllOf(env, events)
        env.run()
        assert combined.value == [3.0, 1.0, 2.0]
        assert env.now == 3.0

    def test_all_of_empty_fires_immediately(self, env):
        combined = AllOf(env, [])
        env.run()
        assert combined.value == []

    def test_any_of_fires_on_first(self, env):
        slow = Timeout(env, 5.0, value="slow")
        fast = Timeout(env, 1.0, value="fast")
        combined = AnyOf(env, [slow, fast])
        env.run(until=combined)
        assert combined.value == "fast"
        assert env.now == 1.0

    def test_any_of_unhooks_from_pending_children_once_fired(self, env):
        never = Event(env)
        fast = Timeout(env, 1.0, value="fast")
        combined = AnyOf(env, [never, fast])
        assert len(never.callbacks) == 1
        env.run(until=combined)
        # A child that never fires must not keep the decided condition
        # (and through it the other children) alive.
        assert never.callbacks == []
        never.succeed("late")
        env.run()
        assert combined.value == "fast"

    def test_all_of_propagates_failure(self, env):
        good = Timeout(env, 1.0)
        bad = Event(env)
        bad.fail(RuntimeError("child failed"))
        combined = AllOf(env, [good, bad])
        env.run()
        assert combined.triggered
        assert not combined.ok

    def test_all_of_with_already_processed_children(self, env):
        first = Timeout(env, 1.0, value=1)
        env.run()
        second = Timeout(env, 1.0, value=2)
        combined = AllOf(env, [first, second])
        env.run()
        assert combined.value == [1, 2]
