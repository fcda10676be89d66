"""Resources: FIFO servers and selectable request pools.

The paper models CPUs and the network as FIFO queues (section 3.2.2); those
map onto :class:`Resource`.  The disk has its own scheduling discipline
(elevator), so it consumes requests from a :class:`RequestPool` whose server
process chooses which pending request to serve next.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.monitor import UtilizationMonitor

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Resource", "Request", "RequestPool"]


class Request(Event):
    """A pending claim on a :class:`Resource` (fires when granted)."""

    __slots__ = ("resource",)

    def __init__(self, env: "Environment", resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource


class Resource:
    """A FIFO resource: a single booked server plus a pool of raw grants.

    CPUs and the network wire call :meth:`serve`, which books each hold as
    a service window on a virtual clock: a window starts when the previous
    one ends (or now, if the server is idle), so FIFO order and every grant
    and release instant follow from arithmetic instead of a chain of grant
    events::

        yield from resource.serve(service_time)

    Admission slots use the raw interface instead, with any ``capacity``::

        req = resource.request()
        yield req
        ...
        resource.release(req)

    One resource uses one interface or the other: booked windows do not
    see raw grants, and raw grants do not see booked windows.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._queue: deque[Request] = deque()
        self._in_service: set[Request] = set()
        # End of the last booked service window (see serve()).
        self._virtual_avail = 0.0
        # Monitoring: busy while at least one server is granted.
        self.monitor = UtilizationMonitor(env, name=name)
        self.completed = 0
        # When set ("cpu" / "disk" / "net"), serve() emits tracer spans of
        # that category; None keeps the resource invisible to traces.
        self.trace_cat: str | None = None

    @property
    def in_use(self) -> int:
        """Number of servers currently granted."""
        return len(self._in_service)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a server."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for a server; the returned event fires when one is granted."""
        req = Request(self.env, self)
        if len(self._in_service) < self.capacity and not self._queue:
            self._grant(req)
        else:
            # No wait_reason string here: a Request already knows its
            # resource, and the deadlock dump describes it from that.
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted server and wake the next waiter."""
        if req in self._in_service:
            self._in_service.remove(req)
            self.completed += 1
        elif req in self._queue:  # released before being granted
            self._queue.remove(req)
        else:
            raise ValueError("release() of a request not held on this resource")
        while self._queue and len(self._in_service) < self.capacity:
            self._grant(self._queue.popleft())
        if not self._in_service:
            # Inline UtilizationMonitor.idle(): grant/release run once per
            # service burst, and the method call costs more than the update.
            monitor = self.monitor
            if monitor._busy_since is not None:
                monitor.busy_time += self.env._now - monitor._busy_since
                monitor._busy_since = None

    def _grant(self, req: Request) -> None:
        if not self._in_service:
            # Inline UtilizationMonitor.busy() (see release()).
            monitor = self.monitor
            if monitor._busy_since is None:
                monitor._busy_since = self.env._now
        self._in_service.add(req)
        # No value: a request delivering itself would reference itself,
        # and every grant would leave a cycle behind.
        req.succeed()

    def serve(self, duration: float) -> typing.Generator[typing.Any, None, None]:
        """Hold the single server for ``duration``, FIFO behind earlier holds.

        The window is booked on arrival and the caller sleeps straight
        through wait plus service to the window's end.  The monitor opens (or
        extends) its busy interval at the window's start and caps it at the
        window's end, so mid-window reads such as the telemetry sampler's
        see exactly the busy time a held server would show; ``completed``
        counts the window at its end (in :meth:`_settle`).

        When a tracer is attached and :attr:`trace_cat` is set, the
        queueing delay (if any) becomes a ``wait`` span and the window a
        span of category :attr:`trace_cat`, both recorded from the booked
        instants and attributed to the calling process's current operator.
        """
        if self.capacity != 1:
            raise SimulationError(
                f"serve() books a single server; {self.name!r} has capacity {self.capacity}"
            )
        env = self.env
        now = env._now
        start = self._virtual_avail
        if start < now:
            start = now
        end = start + duration
        monitor = self.monitor
        since = monitor._busy_since
        if since is None:
            monitor._busy_since = start
        else:
            cap = monitor.virtual_until
            if 0.0 < cap < start:
                # The previous window ended before this one starts: close the
                # open interval at its cap and open a new one at our start.
                monitor.busy_time += cap - since
                monitor._busy_since = start
        monitor.virtual_until = end
        self._virtual_avail = end
        if self.trace_cat is not None and env.tracer is not None:
            tracer = env.tracer
            if start > now:
                tracer.record(f"{self.name}.wait", now, start, cat="wait")
            tracer.record(self.name, start, end, cat=self.trace_cat)
        try:
            yield env.sleep_until(end)
        finally:
            self._settle()

    def _settle(self) -> None:
        """Epilogue of a booked window: count it, close the idle monitor."""
        self.completed += 1
        if self._virtual_avail <= self.env._now:
            # No later window is booked: the busy interval ends at the cap
            # (the last window's end, never after now).
            monitor = self.monitor
            if monitor._busy_since is not None:
                monitor.busy_time += monitor.virtual_until - monitor._busy_since
                monitor._busy_since = None
            monitor.virtual_until = 0.0

    @property
    def busy_time(self) -> float:
        """Accumulated busy time (see :class:`UtilizationMonitor`)."""
        return self.monitor.elapsed_busy_time()

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time at least one server was busy."""
        return self.monitor.utilization(elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name!r} cap={self.capacity} "
            f"busy={self.in_use} queued={self.queue_length}>"
        )


class RequestPool:
    """An unordered pool of work items with a single consumer.

    Producers :meth:`put` items; the consumer :meth:`get`\\ s an event that
    fires with the *pool itself* once at least one item is available, then
    calls :meth:`take` with a selector to remove the item of its choice.
    This supports schedulers (like the disk elevator) that do not serve FIFO.
    """

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        self.items: list[typing.Any] = []
        self._waiter: Event | None = None
        # Monitoring: "busy" while the pool holds pending items, so
        # utilization() is the fraction of time work was queued or in
        # flight (the consumer empties the pool only when caught up).
        self.monitor = UtilizationMonitor(env, name=name)
        # Precomputed wait description: the consumer re-waits per item.
        self._wait_reason = f"pool {name or 'RequestPool'!r}"

    def put(self, item: typing.Any) -> None:
        """Add an item and wake the consumer if it is waiting."""
        if not self.items:
            # Inline UtilizationMonitor.busy(), guarded on the empty->busy
            # transition: put() runs once per disk request (hot path).
            monitor = self.monitor
            if monitor._busy_since is None:
                monitor._busy_since = self.env._now
        self.items.append(item)
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.succeed(self)

    def wait_for_item(self) -> "Event | float":
        """Yieldable that resumes the consumer once the pool is non-empty.

        With items already pending this returns a raw ``0.0`` sleep -- the
        consumer parks at the identical (time, sequence) scheduler slot a
        pre-triggered event would have given it, without the allocation.
        An empty pool returns the waiter event that :meth:`put` fires.
        """
        if self.items:
            return 0.0
        if self._waiter is not None:
            raise RuntimeError(f"RequestPool {self.name!r} supports a single consumer")
        event = Event(self.env)
        event.wait_reason = self._wait_reason
        self._waiter = event
        return event

    def take(self, chooser: typing.Callable[[list[typing.Any]], typing.Any]) -> typing.Any:
        """Remove and return the item selected by ``chooser(items)``."""
        if not self.items:
            raise LookupError(f"take() from empty RequestPool {self.name!r}")
        item = chooser(self.items)
        self.items.remove(item)
        if not self.items:
            # Inline UtilizationMonitor.idle() (see put()).
            monitor = self.monitor
            if monitor._busy_since is not None:
                monitor.busy_time += self.env._now - monitor._busy_since
                monitor._busy_since = None
        return item

    def clear(self) -> list[typing.Any]:
        """Drop and return all pending items (e.g. on a device power-off)."""
        items, self.items = self.items, []
        self.monitor.idle()
        return items

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time the pool held at least one pending item."""
        return self.monitor.utilization(elapsed)

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RequestPool {self.name!r} items={len(self.items)}>"
