"""Lightweight statistics collectors for simulation runs."""

from __future__ import annotations

import hashlib
import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Counter", "EventHistory", "Tally", "UtilizationMonitor"]


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name!r}={self.value}>"


class Tally:
    """Streaming mean / variance / extrema of observed samples."""

    __slots__ = ("name", "count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, sample: float) -> None:
        """Add one observation (Welford's online update)."""
        self.count += 1
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)
        self.minimum = min(self.minimum, sample)
        self.maximum = max(self.maximum, sample)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tally {self.name!r} n={self.count} mean={self.mean:.6g}>"


class EventHistory:
    """An event count plus a fixed-size running digest of every event.

    Determinism tests compare whole event histories between reruns (the
    memory broker's grants and spills, the buffer cache's victims).  Keeping
    the events themselves would grow with every event processed; this state
    stays the same size for the whole run.  Two histories are equal exactly
    when they saw the same number of events with the same fields in the same
    order (up to a 128-bit BLAKE2b collision).  Each event is hashed as the
    ``repr`` of its field tuple, which is exact for floats and
    self-delimiting for strings, so no two distinct streams share an
    encoding.
    """

    __slots__ = ("count", "_hash")

    def __init__(self) -> None:
        self.count = 0
        self._hash = hashlib.blake2b(digest_size=16)

    def record(self, *fields: typing.Any) -> None:
        """Fold one event into the history."""
        self.count += 1
        self._hash.update(repr(fields).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventHistory):
            return NotImplemented
        return self.count == other.count and self._hash.digest() == other._hash.digest()

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EventHistory n={self.count} {self.hexdigest()}>"


class UtilizationMonitor:
    """Tracks the busy fraction of a device over simulated time.

    This is the *single* definition of utilization used throughout the
    simulator (``Resource``, ``RequestPool``, and the hardware models all
    delegate here):

    - *busy time* is the accumulated length of ``busy()``..``idle()``
      intervals, **including** a still-open busy interval up to ``env.now``;
    - *utilization* is busy time divided by the elapsed simulated time
      (``env.now`` by default, or an explicit ``elapsed`` horizon);
    - at ``env.now == 0`` no time has elapsed, so utilization is defined
      as ``0.0`` (never a division by zero), regardless of busy state.

    Booked service (a resource's or disk's service window) accounts a whole
    busy window at its *start*: the interval opens then and the window's
    end is kept in ``virtual_until``, which :meth:`elapsed_busy_time` caps
    the open interval at, so mid-window reads (e.g. the telemetry
    sampler's utilization gauges) see exactly the value an open
    ``busy()``..``idle()`` interval would have produced.  A device is
    accounted either by booked windows or by ``busy()``/``idle()``, never
    both.
    """

    __slots__ = ("env", "name", "_busy_since", "busy_time", "virtual_until")

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        self._busy_since: float | None = None
        self.busy_time = 0.0
        self.virtual_until = 0.0

    def accrue(self, duration: float) -> None:
        """Open (or extend) a busy interval capped at ``now + duration``.

        The cap records where the window ends so later reads and intervals
        account it exactly -- bit-identical to a ``busy()``..``idle()``
        pair closed at the window's end, including float summation order.
        The caller guarantees the device performs no other service before
        the cap.
        """
        now = self.env._now
        virtual_until = self.virtual_until
        if virtual_until != 0.0 and virtual_until < now:
            # The previous window ended before now: close its interval.
            if self._busy_since is not None:
                self.busy_time += virtual_until - self._busy_since
                self._busy_since = None
        if self._busy_since is None:
            self._busy_since = now
        self.virtual_until = now + duration

    def busy(self) -> None:
        """Mark the device busy (idempotent)."""
        if self._busy_since is None:
            self._busy_since = self.env._now

    def idle(self) -> None:
        """Mark the device idle (idempotent)."""
        if self._busy_since is not None:
            self.busy_time += self.env._now - self._busy_since
            self._busy_since = None

    @property
    def is_busy(self) -> bool:
        """True while inside an open ``busy()``..``idle()`` interval."""
        return self._busy_since is not None

    def elapsed_busy_time(self) -> float:
        """Accumulated busy time, including any still-open busy interval."""
        total = self.busy_time
        since = self._busy_since
        if since is not None:
            now = self.env.now
            virtual_until = self.virtual_until
            end = virtual_until if 0.0 < virtual_until < now else now
            total += end - since
        return total

    def utilization(self, elapsed: float | None = None) -> float:
        """Busy fraction over ``elapsed`` simulated seconds (default: now).

        Returns ``0.0`` when the horizon is zero (e.g. at ``env.now == 0``).
        """
        horizon = self.env.now if elapsed is None else elapsed
        return self.elapsed_busy_time() / horizon if horizon > 0 else 0.0
