"""The simulation environment: clock, event queue, and process scheduler."""

from __future__ import annotations

import heapq
import math
import typing
import weakref
from collections import deque
from heapq import heappush as _heappush

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

__all__ = ["Environment", "Process", "SimulationError"]

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class _Parked:
    """What a process yields after :meth:`Environment.sleep_until` has
    already put it in the scheduler heap: there is nothing left to wait on.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<parked>"


_PARKED = _Parked()


class _Start:
    """Pre-triggered pseudo-event used to bootstrap a process's generator.

    A single shared instance replaces the per-process bootstrap ``Event``:
    :meth:`Process._resume` only reads ``_exception`` and ``_value`` from its
    trigger, both of which are trivially stable here.
    """

    __slots__ = ()
    _value = None
    _exception = None


_START = _Start()


class Process(Event):
    """A simulated process driving a generator of events.

    A process is itself an :class:`Event` that fires when the generator
    returns, delivering the generator's return value.  This lets processes
    wait for each other with ``result = yield other_process``.
    """

    __slots__ = ("generator", "_send", "_throw", "name", "_waiting_on", "__weakref__")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(env)
        self.generator = generator
        # Bound methods cached once: _resume is the hottest call site in the
        # simulator and the attribute chain generator.send costs per resume.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        # The event this process last yielded (None before its first resume);
        # read by the deadlock diagnostics to explain what it is blocked on.
        self._waiting_on: Event | None = None
        env._register_process(self)
        env._sequence += 1
        env._immediate.append((env._now, env._sequence, self, _START))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value (or exception) of ``trigger``."""
        env = self.env
        # active_process is only ever read (by the tracer) while the
        # generator below is running, so it is set but never reset: a stale
        # pointer between resumes is unobservable and the reset would cost
        # a try/finally on the hottest path in the simulator.
        env.active_process = self
        try:
            if trigger._exception is None:
                target = self._send(trigger._value)
            else:
                target = self._throw(trigger._exception)
        except StopIteration as stop:
            # A finished process must not keep its last event: a failed
            # channel get holds ChannelClosed, whose traceback frame holds
            # the consumer's state, which points back here -- a cycle that
            # would pin the whole finished session until a GC pass.
            self._waiting_on = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._waiting_on = None
            if env.strict:
                raise
            self.fail(exc)
            return
        self._waiting_on = target
        if type(target) is float:
            # Raw sleep: ``yield <seconds>`` parks the process directly in
            # the scheduler heap as a 4-tuple, skipping the Timeout event
            # allocation and its callback list entirely.  The sequence
            # number is taken at the same instant a Timeout created by this
            # resume would have been scheduled, so global ordering -- and
            # therefore every tie-break against sibling events -- is
            # bit-for-bit identical to the event-based path.
            if not 0.0 <= target < math.inf:
                raise SimulationError(
                    f"process {self.name!r} yielded sleep {target!r}; raw sleeps "
                    f"must be finite and non-negative"
                )
            seq = env._sequence = env._sequence + 1
            _heappush(env._queue, (env._now + target, seq, self, None))
            return
        if target is _PARKED:
            # Already in the heap (see Environment.sleep_until).
            return
        try:
            processed = target._processed
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            ) from None
        if processed:
            # The target already fired; resume on the next scheduler pass so
            # that sibling events scheduled "now" keep FIFO order.  The
            # immediate-resume deque replaces the former rebound-Event
            # allocation: entries carry the same (time, sequence) ordering
            # key the heap would have assigned, and the scheduler merges the
            # two streams, so processing order is bit-for-bit unchanged.
            seq = env._sequence = env._sequence + 1
            env._immediate.append((env._now, seq, self, target))
        else:
            target.callbacks.append(self._resume)

    def _close(self) -> None:
        """End this process where it stands (see :meth:`Environment.close`).

        The process counts as finished without a value, forgets the event
        it waited on (and unhooks from it), and its generator is closed, so
        its pending ``finally`` blocks run and its frame is freed.
        """
        waiting = self._waiting_on
        self._waiting_on = None
        if isinstance(waiting, Event) and self._resume in waiting.callbacks:
            waiting.callbacks.remove(self._resume)
        self._triggered = self._processed = True
        self.callbacks = []
        self.env.active_process = self
        self.generator.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class Environment:
    """Discrete-event simulation environment.

    Parameters
    ----------
    strict:
        When true (the default), an exception escaping a process propagates
        out of :meth:`run` immediately instead of being stored on the process
        event.  This surfaces bugs in simulation code early.

    The kernel has one scheduling path.  Hardware models book service
    windows ahead on a virtual clock (see :meth:`Resource.serve` and the
    disk's service loop), so a caller sleeps through wait plus service in
    one raw sleep whether or not a tracer or fault injector is attached.
    """

    def __init__(self, strict: bool = True) -> None:
        self._now = 0.0
        # Heap entries are (time, seq, Event) for scheduled events, or
        # (time, seq, Process, None) for raw sleeps (``yield <float>``).
        # Sequence numbers are unique, so tuple comparison never reaches the
        # third element and the two shapes coexist in one ordering.
        self._queue: list[tuple] = []
        # Same-time work bypasses the heap via this deque: entries are
        # (time, seq, process, trigger) for immediate process resumes, or
        # (time, seq, event, None) for zero-delay event triggers.  Both are
        # appended in strictly increasing (time, seq) order, so a
        # head-to-head comparison with the heap top reproduces the exact
        # global ordering.
        self._immediate: deque[tuple] = deque()
        self._sequence = 0
        self.strict = strict
        self._processes: list[weakref.ref[Process]] = []
        self._compact_at = 512
        # Observability hooks: the tracer bound to this environment (None
        # disables all tracing at the cost of one attribute read per hook)
        # and the process whose generator is currently being advanced.
        self.tracer: "Tracer | None" = None
        self.active_process: Process | None = None
        # Zero-argument callables returning extra diagnostic text ("" when
        # idle) appended to the deadlock dump -- e.g. per-site memory-broker
        # grant/waiter queues, registered by the components themselves.
        self.debug_dumpers: list[typing.Callable[[], str]] = []
        # Zero-argument callables tried in order when a run-until event
        # can no longer fire because no event is left; one that unblocks a
        # waiter (by failing its event) returns True and the run goes on.
        # Registered by components whose waits only they can end, e.g.
        # the per-site memory brokers.
        self.stall_handlers: list[typing.Callable[[], bool]] = []
        self._closed = False

    def _register_process(self, process: Process) -> None:
        if self._closed:
            raise SimulationError(f"cannot start process {process.name!r}: environment is closed")
        refs = self._processes
        if len(refs) >= self._compact_at:
            # Compact dead weakrefs so a long workload (hundreds of
            # sessions, each spawning pump/ship/driver processes) does not
            # grow this list without bound.  The threshold doubles with the
            # surviving population so compaction stays amortized O(1).
            refs[:] = [ref for ref in refs if ref() is not None]
            self._compact_at = max(512, 2 * len(refs))
        refs.append(weakref.ref(process))

    def alive_processes(self) -> list[Process]:
        """All processes whose generators have not finished (debug aid)."""
        alive: list[Process] = []
        for ref in self._processes:
            process = ref()
            if process is not None and process.is_alive:
                alive.append(process)
        return alive

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue a triggered event to be processed ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: NaN or infinite delays
        would silently corrupt the heap ordering (NaN compares false against
        everything, wedging sift-up), so they are rejected eagerly.
        """
        if delay < 0.0 or not math.isfinite(delay):
            raise SimulationError(
                f"cannot schedule event: delay must be finite and non-negative (delay={delay})"
            )
        if self._closed:
            raise SimulationError("cannot schedule event: environment is closed")
        seq = self._sequence = self._sequence + 1
        _heappush(self._queue, (self._now + delay, seq, event))

    def event(self) -> Event:
        """Create a new pending event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep_until(self, time: float) -> _Parked:
        """Park the running process until the absolute instant ``time``.

        ``yield env.sleep_until(t)`` is the raw sleep ``yield t - now``
        except that it wakes at ``t`` exactly: ``now + (t - now)`` can round
        an ulp away from ``t``, and a booked service window must end where
        it was booked.  The sequence number is taken at the same point in
        the run as a raw sleep's, so ordering against siblings is the same.
        """
        if not self._now <= time < math.inf:
            raise SimulationError(f"cannot sleep until {time!r} (now={self._now})")
        seq = self._sequence = self._sequence + 1
        _heappush(self._queue, (time, seq, self.active_process, None))
        return _PARKED

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._immediate:
            return self._immediate[0][0]
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: "Event | float | None" = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until no events remain;
        - a number: run until the clock reaches that time;
        - an :class:`Event` (e.g. a :class:`Process`): run until it fires and
          return its value (re-raising its exception if it failed).
        """
        # The dispatch bodies below are a hand-inlined :meth:`step` (see the
        # note there): the heap and the immediate deque are merged by
        # comparing (time, seq) heads, heap entries dispatch on tuple arity
        # (4 = raw sleep), deque entries on ``trigger is None`` (zero-delay
        # event).  One method call per event is measurable at hundreds of
        # thousands of events per run, so the loops pay for the duplication.
        if self._closed:
            raise SimulationError("cannot run a closed environment")
        queue = self._queue
        immediate = self._immediate
        heappop = heapq.heappop
        if until is None:
            while queue or immediate:
                if immediate:
                    first = immediate[0]
                    if not queue or (
                        (head := queue[0])[0] > first[0]
                        or (head[0] == first[0] and head[1] > first[1])
                    ):
                        time, _seq, obj, trigger = immediate.popleft()
                        self._now = time
                        if trigger is None:
                            obj._run_callbacks()
                        else:
                            obj._resume(trigger)
                        continue
                entry = heappop(queue)
                self._now = entry[0]
                if len(entry) == 4:
                    entry[2]._resume(_START)
                else:
                    entry[2]._run_callbacks()
            return None
        if isinstance(until, Event):
            while not until._processed:
                if immediate:
                    first = immediate[0]
                    if not queue or (
                        (head := queue[0])[0] > first[0]
                        or (head[0] == first[0] and head[1] > first[1])
                    ):
                        time, _seq, obj, trigger = immediate.popleft()
                        self._now = time
                        if trigger is None:
                            obj._run_callbacks()
                        else:
                            obj._resume(trigger)
                        continue
                elif not queue:
                    if not any(handler() for handler in self.stall_handlers):
                        raise SimulationError(self._deadlock_message())
                    continue
                entry = heappop(queue)
                self._now = entry[0]
                if len(entry) == 4:
                    entry[2]._resume(_START)
                else:
                    entry[2]._run_callbacks()
            return until.value
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")
        while (immediate and immediate[0][0] <= deadline) or (queue and queue[0][0] <= deadline):
            if immediate:
                first = immediate[0]
                if not queue or (
                    (head := queue[0])[0] > first[0]
                    or (head[0] == first[0] and head[1] > first[1])
                ):
                    time, _seq, obj, trigger = immediate.popleft()
                    self._now = time
                    if trigger is None:
                        obj._run_callbacks()
                    else:
                        obj._resume(trigger)
                    continue
            entry = heappop(queue)
            self._now = entry[0]
            if len(entry) == 4:
                entry[2]._resume(_START)
            else:
                entry[2]._run_callbacks()
        self._now = deadline
        return None

    def _deadlock_message(self) -> str:
        """Explain a deadlock: what every alive process is blocked on.

        With a tracer attached, each process line also carries its open-span
        stack (e.g. ``query > join#0@client.next > scan[RelA]@server1.next``),
        pinpointing which operator was mid-flight when progress stopped.
        """
        lines = [
            f"deadlock at t={self._now:.6f}: event queue empty but "
            f"run-until event never fired; alive processes:"
        ]
        alive = self.alive_processes()
        if not alive:
            lines.append("  (none)")
        for process in alive:
            entry = f"  - {process.name!r} waiting on {_describe_wait(process._waiting_on)}"
            if self.tracer is not None:
                stack = self.tracer.describe_stack(self.tracer.track_of(process))
                if stack:
                    entry += f"; span stack: {stack}"
            lines.append(entry)
        for dumper in self.debug_dumpers:
            text = dumper()
            if text:
                lines.append("  " + text.replace("\n", "\n  "))
        return "\n".join(lines)

    def close(self) -> None:
        """Free the simulated system once its results are collected.

        A finished run still has live processes: the disks' service loops,
        load generators and a telemetry sampler wait forever, and each
        waiting process and the event it waits on reference each other.
        Together with the hooks components register here, those cycles
        would keep every device of the run resident until a full cyclic
        GC pass.  ``close`` ends every live process (running its pending
        ``finally`` blocks), drops every pending event, and clears the
        tracer, the diagnostic hooks and the active process, so the whole
        system is freed by refcounting as soon as its last user lets go.
        Devices and their counters stay readable.

        Idempotent.  Afterwards :meth:`process`, :meth:`schedule` and
        :meth:`run` raise :class:`SimulationError`.  Must not be called
        from inside a process.
        """
        if self._closed:
            return
        # A finally block may start another process; close those too.
        while alive := self.alive_processes():
            for process in alive:
                process._close()
        self._closed = True
        self._queue.clear()
        self._immediate.clear()
        self._processes.clear()
        self.active_process = None
        self.tracer = None
        self.debug_dumpers.clear()
        self.stall_handlers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = len(self._queue) + len(self._immediate)
        return f"<Environment t={self._now:.6f} pending={pending}>"


def _describe_wait(event: Event | None) -> str:
    """Human-readable description of the event a process is blocked on."""
    if event is None:
        return "nothing (never resumed)"
    if type(event) is float:
        return f"sleep({event:g}s)"
    if event is _PARKED:
        return "a booked service window"
    reason = getattr(event, "wait_reason", None)
    if reason is not None:
        return reason
    if isinstance(event, Process):
        return f"process {event.name!r}"
    if isinstance(event, Timeout):
        return f"timeout({event.delay:g}s)"
    resource = getattr(event, "resource", None)
    if resource is not None:
        return f"resource {resource.name or type(resource).__name__!r}"
    return type(event).__name__
