"""Span-based tracing of simulated query execution.

A :class:`Tracer` records *spans* -- named intervals of simulated time --
and *instants* (point events such as faults and retries).  Spans are
organised into *tracks*: one track per simulated process, because a process
is sequential, so the spans it opens and closes always nest LIFO.  The
operator iterators, the hardware models, and the recovery loop all emit
spans when (and only when) a tracer is attached to their environment; with
no tracer attached every hook is a single ``is None`` check, so disabled
runs pay essentially nothing.

Span categories:

``op``
    One open/next/close call of a physical operator, carrying the
    operator's plan label (``scan[RelA]@server1``, ``join#0@client``, ...).
``query``
    The whole drive of one query (the root span of the driver track).
``cpu`` / ``disk`` / ``net``
    Service on a hardware resource.  These spans are *attributed*: each
    carries the label of the operator on whose behalf the work ran, so the
    tracer can aggregate actual per-operator resource seconds -- the data
    the cost-model validation harness compares against predictions.
``wait``
    Time spent queued for a resource before service began.

Attribution crosses process boundaries where the hardware does: a disk
request remembers the operator that submitted it, and the disk's service
span (emitted from the disk's own server process) is attributed back to
that operator.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Span", "Instant", "Tracer", "RESOURCE_CATEGORIES"]

#: Span categories whose durations are rolled up into per-operator
#: actual resource seconds.
RESOURCE_CATEGORIES = ("cpu", "disk", "net")


class Span:
    """One named interval of simulated time on one track."""

    __slots__ = ("name", "cat", "track", "start", "end", "op", "args", "child_op_time")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        op: str | None = None,
        args: dict | None = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: float | None = None
        self.op = op
        self.args = args
        # Simulated time spent in *nested operator spans* on the same
        # track; subtracting it gives this span's operator self time.
        self.child_op_time = 0.0

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def self_time(self) -> float:
        """Duration minus time spent in nested operator spans."""
        return self.duration - self.child_op_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return f"<Span {self.name!r} [{self.cat}] {self.start:.6f}..{end} @{self.track}>"


class Instant:
    """A point event (fault injected, retry started, query shed, ...)."""

    __slots__ = ("name", "cat", "track", "time", "args")

    def __init__(
        self, name: str, cat: str, track: str, time: float, args: dict | None = None
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.time = time
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instant {self.name!r} t={self.time:.6f}>"


class Tracer:
    """Records spans and instants of one simulated run.

    Attach with :meth:`bind` (or pass ``tracer=`` to the executor / API
    entry points, which bind it for you).  All times are simulated seconds.
    """

    def __init__(self) -> None:
        self.env: "Environment | None" = None
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self._stacks: dict[str, list[Span]] = {}
        # Track name per process *object*: distinct processes may share a
        # name (e.g. two exchanges between the same site pair), but spans
        # only nest LIFO within one process, so each needs its own track.
        self._process_tracks: dict[typing.Any, str] = {}
        self._track_names: dict[str, int] = {}
        #: Extra metadata the exporters embed (response time, policy, ...).
        self.metadata: dict[str, typing.Any] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def bind(self, env: "Environment") -> "Tracer":
        """Attach this tracer to an environment (env.tracer = self)."""
        self.env = env
        env.tracer = self
        return self

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _now(self) -> float:
        assert self.env is not None, "tracer used before bind()"
        return self.env.now

    def current_track(self) -> str:
        assert self.env is not None, "tracer used before bind()"
        process = self.env.active_process
        return self.track_of(process) if process is not None else "main"

    def track_of(self, process: typing.Any) -> str:
        """The track name of one process; second ``pump:x`` becomes
        ``pump:x#2`` and so on, so same-named processes never share a
        track (assignment order is deterministic for a deterministic run)."""
        track = self._process_tracks.get(process)
        if track is None:
            count = self._track_names.get(process.name, 0) + 1
            self._track_names[process.name] = count
            track = process.name if count == 1 else f"{process.name}#{count}"
            self._process_tracks[process] = track
        return track

    def begin(
        self,
        name: str,
        cat: str = "op",
        op: str | None = None,
        args: dict | None = None,
    ) -> Span:
        """Open a span on the current process's track.

        ``op`` is the operator label the span is attributed to; when
        omitted, the innermost open operator span on the same track (if
        any) is inherited -- so a CPU burst inside ``join#0@client.next``
        is automatically attributed to ``join#0@client``.
        """
        track = self.current_track()
        if op is None:
            op = self.current_op(track)
        span = Span(name, cat, track, self._now(), op=op, args=args)
        self._stacks.setdefault(track, []).append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close a span (must be the innermost open span of its track).

        A span that :meth:`finish` already force-closed is left untouched:
        after an aborted run the executor's abandoned generators still
        unwind (on garbage collection) through their ``tracer.end`` calls.
        """
        if span.end is not None:
            return span
        stack = self._stacks.get(span.track)
        assert stack and stack[-1] is span, (
            f"span {span.name!r} ended out of order on track {span.track!r}"
        )
        stack.pop()
        span.end = self._now()
        if span.cat == "op":
            parent = self._innermost_op(stack)
            if parent is not None:
                parent.child_op_time += span.duration
        self.spans.append(span)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float,
        cat: str = "op",
        op: str | None = None,
        args: dict | None = None,
    ) -> Span:
        """Record an already-closed span ``[start, end]`` on the current track.

        For service booked ahead of time (a resource's service window), so
        ``end`` may lie in the simulated future.  ``op`` is inherited as in
        :meth:`begin`.
        """
        track = self.current_track()
        if op is None:
            op = self.current_op(track)
        span = Span(name, cat, track, start, op=op, args=args)
        span.end = end
        self.spans.append(span)
        return span

    def instant(self, name: str, cat: str = "event", args: dict | None = None) -> Instant:
        """Record a point event on the current track."""
        record = Instant(name, cat, self.current_track(), self._now(), args=args)
        self.instants.append(record)
        return record

    @staticmethod
    def _innermost_op(stack: list[Span]) -> Span | None:
        for span in reversed(stack):
            if span.cat == "op":
                return span
        return None

    def current_op(self, track: str | None = None) -> str | None:
        """Label of the operator the current process is executing, if any."""
        stack = self._stacks.get(track if track is not None else self.current_track())
        if not stack:
            return None
        span = self._innermost_op(stack)
        return span.op if span is not None else None

    def describe_stack(self, track: str) -> str:
        """Render a track's open-span stack as ``a > b > c`` (deadlock dumps)."""
        stack = self._stacks.get(track)
        if not stack:
            return ""
        return " > ".join(span.name for span in stack)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close any spans still open (end of run / aborted attempts).

        Idempotent, and a no-op on a tracer that never got bound to an
        environment -- error paths may finish a tracer whose run died
        before (or during) executor construction.
        """
        if self.env is None:
            return
        for stack in self._stacks.values():
            while stack:
                span = stack.pop()
                span.end = self.env.now
                self.spans.append(span)

    def operator_resource_seconds(self) -> dict[str, dict[str, float]]:
        """Actual resource seconds per operator label.

        ``{"scan[RelA]@server1": {"cpu": 0.012, "disk": 0.43, "net": 0.0}}``
        -- service time only (queue waits are separate ``wait`` spans).
        """
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.cat in RESOURCE_CATEGORIES and span.op is not None:
                per_op = totals.setdefault(span.op, dict.fromkeys(RESOURCE_CATEGORIES, 0.0))
                per_op[span.cat] += span.duration
        return totals

    def operator_self_times(self) -> dict[str, float]:
        """Simulated seconds of *self* time per operator label.

        Self time excludes nested child-operator spans on the same track,
        so on any one track the self times of its spans partition that
        track's busy time.
        """
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.cat == "op" and span.op is not None:
                totals[span.op] = totals.get(span.op, 0.0) + span.self_time
        return totals

    def coverage(self) -> float:
        """Total simulated time covered by at least one operator/query span.

        Computed as the length of the union of all ``op`` and ``query``
        span intervals.  For a single-query run the driver is busy from
        submission to completion, so this equals the response time.
        """
        intervals = sorted(
            (s.start, s.end if s.end is not None else s.start)
            for s in self.spans
            if s.cat in ("op", "query")
        )
        covered = 0.0
        current_start: float | None = None
        current_end = 0.0
        for start, end in intervals:
            if current_start is None or start > current_end:
                if current_start is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_start is not None:
            covered += current_end - current_start
        return covered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tracer spans={len(self.spans)} instants={len(self.instants)}>"
