"""Bounded FIFO channels between producer and consumer processes.

A :class:`Channel` with capacity 1 gives exactly the paper's pipelining
behaviour: "each producer has a process that tries to stay one page ahead of
its consumer so that requests can be satisfied immediately" (section 3.2.1).
The producer blocks on :meth:`Channel.put` while the buffer is full and the
consumer blocks on :meth:`Channel.get` while it is empty.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Channel", "ChannelClosed"]


class ChannelClosed(Exception):
    """Raised in a consumer waiting on a channel that was closed empty."""


_SENTINEL = object()


class Channel:
    """A bounded FIFO buffer connecting simulated processes.

    Items are arbitrary Python objects (the execution engine ships page
    descriptors).  A closed channel delivers its remaining buffered items,
    after which further :meth:`get` events fail with :class:`ChannelClosed`
    -- or with the error the producer closed it with.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"channel capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.closed = False
        self._error: BaseException | None = None
        self.items_passed = 0
        self._buffer: deque[typing.Any] = deque()
        self._putters: deque[tuple[Event, typing.Any]] = deque()
        self._getters: deque[Event] = deque()
        # Wait descriptions for the deadlock diagnostics, precomputed once
        # here because put/get block on every pipelined page (hot path).
        self._put_wait = f"put() on full channel {name or 'channel'!r}"
        self._get_wait = f"get() on empty channel {name or 'channel'!r}"

    def put(self, item: typing.Any) -> "Event | float":
        """Offer ``item``; yield the result to proceed once it is accepted.

        When the item is accepted synchronously (a consumer is waiting, or
        the buffer has room) this returns a raw ``0.0`` sleep instead of a
        pre-triggered event: the yielding producer parks at the same
        (time, sequence) scheduler slot either way, so ordering is
        identical, but the event allocation disappears from the per-page
        hot path.  Only a put blocked on a full buffer pays for an event.
        """
        if self.closed:
            raise ChannelClosed(f"put() on closed channel {self.name!r}")
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            self.items_passed += 1
            return 0.0
        if len(self._buffer) < self.capacity:
            self._buffer.append(item)
            return 0.0
        event = Event(self.env)
        event.wait_reason = self._put_wait
        self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Take the next item; fails with :class:`ChannelClosed` at end."""
        event = Event(self.env)
        if self._buffer:
            item = self._buffer.popleft()
            self.items_passed += 1
            event.succeed(item)
            self._admit_waiting_putter()
        elif self._putters:
            putter, item = self._putters.popleft()
            putter.succeed()
            self.items_passed += 1
            event.succeed(item)
        elif self.closed:
            event.fail(self._end_of_stream())
        else:
            event.wait_reason = self._get_wait
            self._getters.append(event)
        return event

    def _admit_waiting_putter(self) -> None:
        if self._putters and len(self._buffer) < self.capacity:
            putter, item = self._putters.popleft()
            self._buffer.append(item)
            putter.succeed()

    def close(self, error: BaseException | None = None) -> None:
        """Mark end-of-stream; waiting consumers beyond the buffer fail.

        They fail with :class:`ChannelClosed`, or with ``error`` when the
        producer ended because of it.
        """
        if self.closed:
            return
        self.closed = True
        self._error = error
        while self._getters and self._buffer:
            getter = self._getters.popleft()
            self.items_passed += 1
            getter.succeed(self._buffer.popleft())
        for getter in self._getters:
            getter.fail(self._end_of_stream())
        self._getters.clear()

    def _end_of_stream(self) -> BaseException:
        return ChannelClosed(self.name) if self._error is None else self._error

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"<Channel {self.name!r} {state} buffered={len(self._buffer)}>"
