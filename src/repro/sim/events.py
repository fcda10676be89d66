"""Events: one-shot occurrences that simulated processes wait on."""

from __future__ import annotations

import typing
from heapq import heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Event", "Timeout", "AnyOf", "AllOf", "EventError"]

_INF = float("inf")


class EventError(RuntimeError):
    """Raised on invalid event-lifecycle transitions (e.g. double trigger)."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (which schedules it on the environment's queue),
    and is *processed* once the environment has run its callbacks.  Processes
    wait for events by ``yield``-ing them; the value passed to
    :meth:`succeed` is delivered as the result of the ``yield``.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
        "wait_reason",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[typing.Callable[["Event"], None]] = []
        self._value: typing.Any = None
        self._exception: BaseException | None = None
        self._triggered = False
        self._processed = False
        # The ``wait_reason`` slot stays unset unless a channel/resource
        # queues a waiter on this event (cold path); the deadlock
        # diagnostics read it with getattr so __init__ stays minimal.

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to occur."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> typing.Any:
        """The value delivered by :meth:`succeed`."""
        if not self._triggered:
            raise EventError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The exception delivered by :meth:`fail`, if any."""
        return self._exception

    def succeed(self, value: typing.Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        if self._triggered:
            raise EventError("event already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        if delay == 0.0:
            # Zero-delay triggers (the overwhelmingly common case) ride the
            # immediate deque: entries are appended in strictly increasing
            # (time, seq) order, so the scheduler's head-to-head merge with
            # the heap preserves the exact global ordering at deque cost
            # instead of heap cost.
            env._sequence += 1
            env._immediate.append((env._now, env._sequence, self, None))
        else:
            env.schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event.
        """
        if self._triggered:
            raise EventError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._exception = exception
        env = self.env
        if delay == 0.0:
            env._sequence += 1
            env._immediate.append((env._now, env._sequence, self, None))
        else:
            env.schedule(self, delay)
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that occurs a fixed delay after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: typing.Any = None) -> None:
        # ``0.0 <= delay < inf`` rejects negatives, +inf, and NaN (NaN fails
        # every comparison) in one test, keeping heap ordering well-defined.
        if not (0.0 <= delay < _INF):
            raise ValueError(f"timeout delay must be finite and non-negative: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        env._sequence += 1
        heappush(env._queue, (env._now + delay, env._sequence, self))


class _Condition(Event):
    """Base for events that fire when some subset of child events have fired."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: typing.Sequence[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event.processed:
                self._child_fired(event)
            else:
                event.callbacks.append(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> list[typing.Any]:
        return [event._value for event in self.events if event.triggered and event.ok]


class AllOf(_Condition):
    """Fires once every child event has fired; value is the list of values."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.exception or EventError("child event failed"))
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires as soon as one child event fires; value is that event's value."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.exception or EventError("child event failed"))
        else:
            self.succeed(event._value)
        # Decided: unhook from the children still pending.  Their callbacks
        # would only return early, and a child that never fires (a
        # session's fault event) would otherwise keep this condition -- and
        # through it every other child -- alive for the rest of the run.
        callback = self._child_fired
        for child in self.events:
            if not child._processed and callback in child.callbacks:
                child.callbacks.remove(callback)
