"""Buffer memory accounting and Shapiro's hybrid-hash allocation rules.

The paper gives joins either the *minimum* or the *maximum* allocation, both
defined following Shapiro [Sha86] (section 3.2.2):

- **maximum**: the hash table for the inner relation is built entirely in
  main memory -- ``ceil(F * M)`` buffer frames for an inner of ``M`` pages,
  with fudge factor ``F = 1.2``;
- **minimum**: ``ceil(sqrt(F * M))`` frames; the inner and outer relations
  are split into partitions, all but one of which are written to and re-read
  from temporary disk storage.
"""

from __future__ import annotations

import hashlib
import math
import typing
from collections import deque
from dataclasses import dataclass

from repro.config import HYBRID_HASH_FUDGE_FACTOR, BufferAllocation, SystemConfig
from repro.errors import ConfigurationError, MemoryExhaustedError, TransientFaultError
from repro.sim.events import Event
from repro.sim.monitor import EventHistory

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = [
    "MemoryBroker",
    "MemoryGrant",
    "MemoryPressureState",
    "HybridHashPlan",
    "minimum_join_allocation",
    "maximum_join_allocation",
    "join_allocation",
    "grant_range",
    "plan_hybrid_hash",
]


def _check_fudge(fudge: float) -> None:
    # A fudge factor below 1 claims hash-table overhead makes data *shrink*;
    # allocations derived from it understate memory and corrupt every spill
    # decision downstream, so reject it at the source.
    if fudge < 1.0:
        raise ConfigurationError(f"hybrid-hash fudge factor must be >= 1, got {fudge}")


def minimum_join_allocation(inner_pages: int, fudge: float = HYBRID_HASH_FUDGE_FACTOR) -> int:
    """Shapiro's minimum hybrid-hash allocation: ``ceil(sqrt(F * M))``."""
    if inner_pages < 0:
        raise ConfigurationError(f"negative inner size: {inner_pages}")
    _check_fudge(fudge)
    return max(2, math.ceil(math.sqrt(fudge * max(1, inner_pages))))


def maximum_join_allocation(inner_pages: int, fudge: float = HYBRID_HASH_FUDGE_FACTOR) -> int:
    """Allocation letting the inner hash table reside fully in memory."""
    if inner_pages < 0:
        raise ConfigurationError(f"negative inner size: {inner_pages}")
    _check_fudge(fudge)
    return max(2, math.ceil(fudge * max(1, inner_pages)))


def join_allocation(
    inner_pages: int,
    allocation: BufferAllocation,
    fudge: float = HYBRID_HASH_FUDGE_FACTOR,
) -> int:
    """Buffer frames granted to one join under the configured discipline."""
    if allocation is BufferAllocation.MINIMUM:
        return minimum_join_allocation(inner_pages, fudge)
    return maximum_join_allocation(inner_pages, fudge)


def grant_range(
    config: SystemConfig, inner_pages: int | None = None, write_pages: int = 1
) -> tuple[int, int, bool]:
    """``(min_pages, max_pages, waits)`` of one broker request.

    A join asks for its inner's allocation (``inner_pages``), a write for
    a buffer of up to ``write_pages`` pages.  The static discipline asks
    for a *fixed* grant ``[n, n]`` -- Shapiro's plan-time allocation for a
    join, one page for a write -- that never waits: a pool that cannot
    cover it sheds the query.  The dynamic discipline asks for
    ``[minimum, maximum]`` allocation (``[1, write_pages]`` for a write)
    and queues when the pool is short.
    """
    dynamic = config.memory.is_dynamic
    if inner_pages is None:
        return 1, (write_pages if dynamic else 1), dynamic
    if dynamic:
        return minimum_join_allocation(inner_pages), maximum_join_allocation(inner_pages), True
    pages = join_allocation(inner_pages, config.buffer_allocation)
    return pages, pages, False


@dataclass(frozen=True)
class HybridHashPlan:
    """Derived hybrid-hash execution shape for one join.

    ``resident_fraction`` (Shapiro's *q*) is the fraction of the inner (and,
    assuming uniform hashing, of the outer) processed without touching disk;
    the remaining fraction is written once and read once on the join's
    temporary disk, in ``spill_partitions`` partition files.
    """

    inner_pages: int
    outer_pages: int
    buffer_pages: int
    spill_partitions: int
    resident_fraction: float

    @property
    def spilled_inner_pages(self) -> int:
        return round((1.0 - self.resident_fraction) * self.inner_pages)

    @property
    def spilled_outer_pages(self) -> int:
        return round((1.0 - self.resident_fraction) * self.outer_pages)

    @property
    def temp_io_pages(self) -> int:
        """Total temp-disk page transfers (each spilled page written + read)."""
        return 2 * (self.spilled_inner_pages + self.spilled_outer_pages)

    @property
    def in_memory(self) -> bool:
        return self.spill_partitions == 0


def plan_hybrid_hash(
    inner_pages: int,
    outer_pages: int,
    buffer_pages: int,
    fudge: float = HYBRID_HASH_FUDGE_FACTOR,
) -> HybridHashPlan:
    """Compute the hybrid-hash shape for the given buffer allocation.

    With ``B`` buffer frames and an inner of ``M`` pages: if ``B >= F * M``
    the join runs entirely in memory.  Otherwise ``k`` spill partitions are
    chosen so each fits in memory when processed later, one output frame is
    reserved per spill partition, and the remaining frames hold the
    memory-resident part of the hash table.
    """
    if inner_pages < 0 or outer_pages < 0:
        raise ConfigurationError("relation sizes must be non-negative")
    _check_fudge(fudge)
    if buffer_pages < 2:
        raise ConfigurationError(f"a join needs at least 2 buffer pages, got {buffer_pages}")
    needed = fudge * inner_pages
    if buffer_pages >= needed or inner_pages == 0:
        return HybridHashPlan(inner_pages, outer_pages, buffer_pages, 0, 1.0)
    partitions = math.ceil((needed - buffer_pages) / max(1, buffer_pages - 1))
    partitions = max(1, min(partitions, buffer_pages - 1))
    resident_frames = buffer_pages - partitions
    resident_fraction = min(1.0, max(0.0, resident_frames / needed))
    return HybridHashPlan(inner_pages, outer_pages, buffer_pages, partitions, resident_fraction)


class MemoryGrant:
    """A broker-issued lease on ``pages`` buffer frames at one site.

    ``pages`` starts somewhere in ``[min_pages, max_pages]`` and may shrink
    while the grant is live -- the broker calls ``on_reclaim`` (if given) to
    claw back frames above the minimum for a queued waiter; the holder spills
    incrementally instead of aborting.  ``release`` is idempotent, so the
    fault-recovery abort path can release unconditionally.
    """

    __slots__ = ("broker", "label", "min_pages", "max_pages", "pages", "on_reclaim", "_released")

    def __init__(
        self,
        broker: "MemoryBroker",
        label: str,
        min_pages: int,
        max_pages: int,
        pages: int,
        on_reclaim: "typing.Callable[[int], int] | None",
    ) -> None:
        self.broker = broker
        self.label = label
        self.min_pages = min_pages
        self.max_pages = max_pages
        self.pages = pages
        self.on_reclaim = on_reclaim
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self.broker._release_grant(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryGrant {self.label!r} {self.pages} [{self.min_pages}..{self.max_pages}]>"


class _GrantWaiter:
    """One queued grant request; ``event`` succeeds with the MemoryGrant."""

    __slots__ = ("event", "min_pages", "max_pages", "label", "on_reclaim", "granted", "started")

    def __init__(
        self,
        event: Event,
        min_pages: int,
        max_pages: int,
        label: str,
        on_reclaim: "typing.Callable[[int], int] | None",
        started: float,
    ) -> None:
        self.event = event
        self.min_pages = min_pages
        self.max_pages = max_pages
        self.label = label
        self.on_reclaim = on_reclaim
        self.granted: MemoryGrant | None = None
        self.started = started


class MemoryBroker:
    """Per-site join-memory arbiter with grants, a wait queue, and reclaim.

    Every join and write holds a :class:`MemoryGrant`.  Four rules make
    saturation safe and deterministic:

    - **grant >= minimum or queue**: a request is satisfied with at least its
      minimum allocation (up to its maximum, greedily) or not at all -- no
      join ever runs with fewer frames than its spill plan can absorb;
    - **strict FIFO**: the wait queue is served in arrival order and the
      head blocks everyone behind it, so a large request cannot starve
      behind a stream of small ones and replayed workloads issue
      byte-identical grant sequences;
    - **reclaim toward the minimum**: to serve the queue head the broker
      claws back frames *above* each live grant's minimum (issue order,
      oldest first) via its ``on_reclaim`` callback; holders shrink by
      spilling, never abort.  A request whose minimum exceeds total
      capacity can never be satisfied and fails immediately
      (:class:`~repro.errors.MemoryExhaustedError`) instead of deadlocking;
    - **shed only a wait that cannot end**: when the whole simulation has
      run out of events while requests still queue here (every holder is
      itself blocked, so no release will ever come), the broker sheds its
      newest waiter (:meth:`shed_stalled_waiter`) so that session's
      grants flow back.

    A request that must not wait (``wait=False``: the static discipline's
    fixed plan-time grant, see :func:`grant_range`) sheds the query with
    :class:`~repro.errors.MemoryExhaustedError` when the pool cannot cover
    it right now.

    ``history`` folds every event's ``(time, kind, label, pages)`` into an
    event count and a running digest (:class:`~repro.sim.monitor.EventHistory`)
    rather than keeping the events, so the broker's memory does not grow
    with the run -- the determinism tests compare it across repeat runs.  The
    simulator's deadlock dump renders :meth:`describe_pressure` from the
    live grants and queue.
    """

    def __init__(self, env: "Environment", capacity_pages: int, name: str = "") -> None:
        if capacity_pages < 1:
            raise ConfigurationError("memory capacity must be at least one page")
        self.env = env
        self.capacity_pages = capacity_pages
        self.name = name
        self.allocated_pages = 0
        self.high_water_mark = 0
        self._grants: list[MemoryGrant] = []
        self._waiters: deque[_GrantWaiter] = deque()
        self.grants_issued = 0
        self.reclaims = 0
        self.reclaimed_pages = 0
        self.spill_pages = 0
        self.wait_count = 0
        self.total_wait_time = 0.0
        self.history = EventHistory()

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    @property
    def available_pages(self) -> int:
        return self.capacity_pages - self.allocated_pages

    @property
    def waiting(self) -> int:
        """Number of queued grant requests."""
        return len(self._waiters)

    def _check_range(self, min_pages: int, max_pages: int, label: str, wait: bool) -> None:
        if min_pages < 1 or max_pages < min_pages:
            raise ConfigurationError(
                f"bad grant range [{min_pages}, {max_pages}] for {label!r}"
            )
        if wait and min_pages > self.capacity_pages:
            # Forward-progress rule: no amount of waiting or reclaiming can
            # ever free more than the pool holds.
            raise MemoryExhaustedError(
                f"buffer pool {self.name!r} exhausted: minimum grant {min_pages} "
                f"exceeds capacity {self.capacity_pages}"
            )

    def try_grant(
        self,
        min_pages: int,
        max_pages: int,
        label: str,
        on_reclaim: "typing.Callable[[int], int] | None" = None,
        wait: bool = True,
    ) -> MemoryGrant | None:
        """Issue a grant synchronously if possible, else return None.

        Purely synchronous -- no events are created and no simulated time
        passes, so on an uncontended pool a dynamic request is
        event-for-event identical to a fixed one.  With ``wait=False`` a
        request the pool cannot cover sheds instead of returning None.
        """
        self._check_range(min_pages, max_pages, label, wait)
        if not self._waiters:  # FIFO: never overtake the queue
            if self.available_pages < min_pages:
                self._reclaim(min_pages - self.available_pages)
            if self.available_pages >= min_pages:
                return self._issue(min_pages, max_pages, label, on_reclaim)
        if not wait:
            raise MemoryExhaustedError(
                f"buffer pool {self.name!r} exhausted: requested {min_pages}, "
                f"available {self.available_pages} of {self.capacity_pages}"
            )
        return None

    def enqueue(
        self,
        min_pages: int,
        max_pages: int,
        label: str,
        on_reclaim: "typing.Callable[[int], int] | None" = None,
    ) -> _GrantWaiter:
        """Queue a grant request; the waiter's event succeeds with the grant."""
        self._check_range(min_pages, max_pages, label, wait=True)
        event = Event(self.env)
        event.wait_reason = f"memory grant [{min_pages}..{max_pages}] from {self.name!r}"
        waiter = _GrantWaiter(event, min_pages, max_pages, label, on_reclaim, self.env.now)
        self._waiters.append(waiter)
        self.wait_count += 1
        self._log("wait", label, min_pages)
        self._drain()
        return waiter

    def request(
        self,
        min_pages: int,
        max_pages: int,
        label: str,
        on_reclaim: "typing.Callable[[int], int] | None" = None,
        wait: bool = True,
    ) -> typing.Generator[typing.Any, typing.Any, MemoryGrant]:
        """Process-style convenience: ``grant = yield from broker.request(...)``."""
        grant = self.try_grant(min_pages, max_pages, label, on_reclaim, wait)
        if grant is None:
            waiter = self.enqueue(min_pages, max_pages, label, on_reclaim)
            grant = yield waiter.event
        return grant

    def cancel(self, waiter: _GrantWaiter) -> None:
        """Withdraw a queued request (abort path); idempotent.

        If the grant raced in before the cancel, it is released; otherwise
        the waiter leaves the queue and its event fails with a
        :class:`~repro.errors.TransientFaultError` so a process still
        blocked on it resumes (and is swallowed by fault supervision)
        instead of lingering as a zombie.
        """
        if waiter.granted is not None:
            waiter.granted.release()
            return
        try:
            self._waiters.remove(waiter)
        except ValueError:
            return
        self._log("cancel", waiter.label, waiter.min_pages)
        if not waiter.event.triggered:
            waiter.event.fail(
                TransientFaultError(f"memory wait cancelled for {waiter.label!r}")
            )
        self._drain()

    def shed_stalled_waiter(self) -> bool:
        """Shed the newest queued request; True if there was one.

        The environment calls this only once it has no event left to run
        (see :attr:`~repro.sim.Environment.stall_handlers`): nothing can
        release memory any more, so every queued request would wait
        forever.  Shedding the newest one fails its event with
        :class:`~repro.errors.MemoryExhaustedError`; its session aborts and
        releases whatever it holds, which lets older waiters proceed.
        """
        if not self._waiters:
            return False
        waiter = self._waiters.pop()
        self._log("shed", waiter.label, waiter.min_pages)
        waiter.event.fail(
            MemoryExhaustedError(
                f"buffer pool {self.name!r} deadlocked: {waiter.label!r} waited "
                f"for {waiter.min_pages} pages while every holder was blocked "
                f"({self.allocated_pages}/{self.capacity_pages} pages granted)"
            )
        )
        return True

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _log(self, kind: str, label: str, pages: int) -> None:
        self.history.record(self.env.now, kind, label, pages)

    def _issue(
        self,
        min_pages: int,
        max_pages: int,
        label: str,
        on_reclaim: "typing.Callable[[int], int] | None",
    ) -> MemoryGrant:
        pages = min(max_pages, self.available_pages)
        self.allocated_pages += pages
        self.high_water_mark = max(self.high_water_mark, self.allocated_pages)
        grant = MemoryGrant(self, label, min_pages, max_pages, pages, on_reclaim)
        self._grants.append(grant)
        self.grants_issued += 1
        self._log("grant", label, pages)
        return grant

    def _release_grant(self, grant: MemoryGrant) -> None:
        self.allocated_pages -= grant.pages
        self._grants.remove(grant)
        self._log("release", grant.label, grant.pages)
        self._drain()

    def _reclaim(self, needed: int) -> int:
        """Claw back up to ``needed`` pages from live grants, oldest first."""
        freed_total = 0
        for grant in self._grants:
            if needed <= 0:
                break
            margin = grant.pages - grant.min_pages
            if margin <= 0 or grant.on_reclaim is None:
                continue
            take = min(needed, margin)
            freed = grant.on_reclaim(take)
            freed = max(0, min(freed, margin))
            if freed == 0:
                continue
            grant.pages -= freed
            self.allocated_pages -= freed
            self.reclaims += 1
            self.reclaimed_pages += freed
            freed_total += freed
            needed -= freed
            self._log("reclaim", grant.label, freed)
        return freed_total

    def _drain(self) -> None:
        """Serve the queue head while it can be satisfied (strict FIFO)."""
        while self._waiters:
            head = self._waiters[0]
            if self.available_pages < head.min_pages:
                self._reclaim(head.min_pages - self.available_pages)
            if self.available_pages < head.min_pages:
                break
            self._waiters.popleft()
            grant = self._issue(head.min_pages, head.max_pages, head.label, head.on_reclaim)
            head.granted = grant
            self.total_wait_time += self.env.now - head.started
            head.event.succeed(grant)

    # ------------------------------------------------------------------
    # Spill accounting and diagnostics
    # ------------------------------------------------------------------
    def record_spill(self, label: str, pages: int = 1) -> None:
        """Count a join partition page written to temp disk at this site."""
        self.spill_pages += pages
        self._log("spill", label, pages)

    def describe_pressure(self) -> str:
        """Broker state for the simulator's deadlock dump; "" when idle."""
        if not self._grants and not self._waiters:
            return ""
        lines = [
            f"memory broker {self.name!r}: {self.allocated_pages}/{self.capacity_pages} "
            f"pages granted, {len(self._waiters)} waiting"
        ]
        for grant in self._grants:
            lines.append(
                f"    grant {grant.label!r}: {grant.pages} pages "
                f"[{grant.min_pages}..{grant.max_pages}]"
            )
        for waiter in self._waiters:
            lines.append(
                f"    waiter {waiter.label!r}: needs [{waiter.min_pages}.."
                f"{waiter.max_pages}], queued at t={waiter.started:.6f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MemoryBroker {self.name!r} {self.allocated_pages}/{self.capacity_pages} "
            f"waiting={len(self._waiters)}>"
        )


@dataclass(frozen=True)
class MemoryPressureState:
    """Immutable snapshot of every site's broker occupancy.

    Captured at (re)planning time and threaded into
    :class:`~repro.costmodel.model.EnvironmentState` so the optimizer can
    price memory-wait time; ``QueryExecutor.optimize_for`` plans against a
    new environment when ``digest`` changes, so plans chosen under
    different pressure never alias in the plan cache.
    """

    # (site_id, capacity_pages, granted_pages, waiting) per site, sorted.
    sites: tuple[tuple[int, int, int, int], ...] = ()

    @classmethod
    def capture(cls, sites: "typing.Iterable[typing.Any]") -> "MemoryPressureState":
        rows = sorted(
            (site.site_id, site.memory.capacity_pages, site.memory.allocated_pages,
             site.memory.waiting)
            for site in sites
        )
        return cls(sites=tuple(rows))

    def free_pages(self, site_id: int) -> int | None:
        for sid, capacity, granted, _waiting in self.sites:
            if sid == site_id:
                return capacity - granted
        return None

    def waiters(self, site_id: int) -> int:
        for sid, _capacity, _granted, waiting in self.sites:
            if sid == site_id:
                return waiting
        return 0

    def digest(self) -> str:
        return hashlib.sha256(repr(self.sites).encode()).hexdigest()
