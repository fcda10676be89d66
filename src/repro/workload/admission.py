"""Server-side admission control for concurrent query workloads.

A loaded server cannot let every arriving query run at once: each admitted
query pins buffer memory and adds seek traffic, so past a point extra
concurrency only destroys disk locality.  The admission controller caps the
number of queries a server executes simultaneously (``max_concurrent``) and
decides what happens to the overflow:

* ``wait`` -- overflow queries queue FIFO for a slot, up to ``queue_limit``
  waiters; beyond that the query is shed.
* ``shed`` -- overflow queries are rejected immediately (no queue).

A shed query surfaces as :class:`~repro.errors.QueryShedError` and becomes a
``"shed"`` session outcome -- deliberately *not* a transient fault, so the
recovery loop never burns retries on a deliberate rejection.

Multi-server queries acquire one ticket per participating server in sorted
server-id order (see ``Session._acquire``), which makes the scheme
deadlock-free without any global lock manager.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass

from repro.errors import ConfigurationError, QueryShedError
from repro.sim import Resource

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment, Request

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionSnapshot",
    "AdmissionTicket",
]


class AdmissionPolicy(enum.Enum):
    """What a full server does with one more arriving query."""

    WAIT = "wait"
    SHED = "shed"


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-server admission parameters (identical at every server)."""

    max_concurrent: int = 4
    queue_limit: int = 16
    policy: AdmissionPolicy = AdmissionPolicy.WAIT

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )


@dataclass(frozen=True)
class AdmissionSnapshot:
    """End-of-run statistics of one server's admission controller."""

    server_id: int
    admitted: int
    shed: int
    completed: int
    max_queue_length: int
    total_queue_delay: float

    @property
    def mean_queue_delay(self) -> float:
        return self.total_queue_delay / self.admitted if self.admitted else 0.0


class AdmissionTicket:
    """One granted execution slot; ``release`` is idempotent."""

    __slots__ = ("_controller", "_request")

    def __init__(self, controller: "AdmissionController", request: "Request") -> None:
        self._controller = controller
        self._request = request

    def release(self) -> None:
        if self._request is not None:
            self._controller._release(self._request)
            self._request = None


class AdmissionController:
    """Admission gate of one server: a slot pool plus a bounded FIFO queue."""

    def __init__(
        self, env: "Environment", server_id: int, config: AdmissionConfig
    ) -> None:
        self.env = env
        self.server_id = server_id
        self.config = config
        self._slots = Resource(
            env, capacity=config.max_concurrent, name=f"admission-s{server_id}"
        )
        self.admitted = 0
        self.shed = 0
        self.max_queue_length = 0
        self.total_queue_delay = 0.0

    def admit(self, session_id: str = "?") -> typing.Generator:
        """Wait for (or be refused) an execution slot; returns a ticket.

        Raises :class:`QueryShedError` without consuming simulated time when
        the policy says the query cannot be accepted.
        """
        slots = self._slots
        if slots.in_use >= slots.capacity:
            if self.config.policy is AdmissionPolicy.SHED:
                self.shed += 1
                raise QueryShedError(
                    f"server {self.server_id} shed query {session_id} "
                    f"({slots.in_use}/{slots.capacity} slots busy, policy=shed)",
                    server_id=self.server_id,
                )
            if slots.queue_length >= self.config.queue_limit:
                self.shed += 1
                raise QueryShedError(
                    f"server {self.server_id} shed query {session_id} "
                    f"(admission queue full: {slots.queue_length} waiting)",
                    server_id=self.server_id,
                )
        waited_from = self.env.now
        request = slots.request()
        self.max_queue_length = max(self.max_queue_length, slots.queue_length)
        yield request
        self.total_queue_delay += self.env.now - waited_from
        self.admitted += 1
        return AdmissionTicket(self, request)

    def _release(self, request: "Request") -> None:
        self._slots.release(request)

    @property
    def running(self) -> int:
        """Queries currently holding a slot at this server."""
        return self._slots.in_use

    @property
    def waiting(self) -> int:
        """Queries currently queued for a slot at this server."""
        return self._slots.queue_length

    def snapshot(self) -> AdmissionSnapshot:
        return AdmissionSnapshot(
            server_id=self.server_id,
            admitted=self.admitted,
            shed=self.shed,
            completed=self._slots.completed,
            max_queue_length=self.max_queue_length,
            total_queue_delay=self.total_queue_delay,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AdmissionController s{self.server_id} running={self.running} "
            f"waiting={self.waiting} shed={self.shed}>"
        )
