"""Detailed disk model: elevator scheduling, controller cache, read-ahead.

Adapted, like the paper's simulator, from the ZetaSim disk model [Bro92]:

- geometry of cylinders, tracks and pages (pages are the unit of I/O);
- seek time as a base cost plus a per-cylinder travel cost;
- rotational latency, skipped when a request continues a sequential stream
  (the head is already positioned just past the previous page);
- a controller cache holding recently read and prefetched pages;
- track read-ahead: after a sequential read the controller keeps reading the
  rest of the track into its cache;
- elevator (SCAN) scheduling over pending requests.

"The important aspect of the disk model is that it captures the cost
differences between sequential and random I/Os" (section 3.2.2).  The
defaults in :class:`repro.config.DiskParams` are calibrated so that the
measured averages match the paper: about 3.5 ms per page sequential and
11.8 ms per page random.
"""

from __future__ import annotations

import random
import typing

from repro.config import DiskParams
from repro.sim import Environment, Event, RequestPool, UtilizationMonitor

__all__ = ["Disk", "DiskRequest"]


class DiskRequest:
    """One page read or write, with an event that fires on completion."""

    __slots__ = ("kind", "page", "done", "submitted_at", "op")

    def __init__(self, env: Environment, kind: str, page: int) -> None:
        if kind not in ("read", "write"):
            raise ValueError(f"unknown disk request kind: {kind!r}")
        self.kind = kind
        self.page = page
        self.done = Event(env)
        self.submitted_at = env._now
        # Label of the operator the request runs on behalf of; stamped at
        # submit time (requests are served by the disk's own process, which
        # would otherwise lose the attribution).
        self.op: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DiskRequest {self.kind} page={self.page}>"


class Disk:
    """A single simulated disk drive with its own scheduling process."""

    def __init__(
        self,
        env: Environment,
        params: DiskParams,
        name: str = "disk",
        rng: random.Random | None = None,
    ) -> None:
        self.env = env
        self.params = params
        self.name = name
        self.rng = rng or random.Random(0)
        # DiskParams derives these via properties; the geometry is immutable
        # and they sit on every request's hot path, so cache them flat.
        self._pages_per_cylinder = params.pages_per_cylinder
        self._capacity_pages = params.capacity_pages
        self._transfer_time = params.transfer_time
        self._pool = RequestPool(env, name=f"{name}.queue")
        # Head state.
        self._cylinder = 0
        self._direction = 1  # elevator direction: +1 up, -1 down
        self._last_page: int | None = None  # last physical page under the head
        # Controller cache: page -> True in LRU order (a plain dict keeps
        # insertion order; a hit re-inserts the page at the young end).
        self._cache: dict[int, bool] = {}
        # Fault state (driven by the fault injector; healthy by default).
        self.slow_factor = 1.0
        self._off = False
        self._offline_error: typing.Callable[[], Exception] | None = None
        # Statistics.
        self.reads = 0
        self.writes = 0
        self.cache_hits = 0
        self.sequential_ios = 0
        self.random_ios = 0
        self.faulted_requests = 0
        self.monitor = UtilizationMonitor(env, name=name)
        # End of the last booked service window (see _serve_loop): the loop
        # has already completed a request analytically out to this time; a
        # newly arriving request must not start service before it.
        self._virtual_busy_until = 0.0
        self._virtual_request: DiskRequest | None = None
        self._server = env.process(self._serve_loop(), name=f"{name}.server")

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def read(self, page: int) -> Event:
        """Submit a one-page read; the returned event fires when done."""
        return self.submit("read", page).done

    def write(self, page: int) -> Event:
        """Submit a one-page write; the returned event fires when done."""
        return self.submit("write", page).done

    def submit(self, kind: str, page: int) -> DiskRequest:
        """Queue a request without waiting for it."""
        env = self.env
        if not 0 <= page < self._capacity_pages:
            self._check_page(page)  # raises with the full description
        request = DiskRequest(env, kind, page)
        tracer = env.tracer
        if tracer is not None:
            request.op = tracer.current_op()
        if self._off:
            self.faulted_requests += 1
            request.done.fail(self._make_offline_error())
            return request
        self._pool.put(request)
        return request

    # ------------------------------------------------------------------
    # Fault hooks (driven by the fault injector through the owning site)
    # ------------------------------------------------------------------
    def power_off(self, error_factory: typing.Callable[[], Exception] | None = None) -> None:
        """Fail every in-flight request and reject new ones until power-on."""
        if self._off:
            return
        self._off = True
        self._offline_error = error_factory
        # Queued but unserved requests fail immediately.
        for request in self._pool.clear():
            self.faulted_requests += 1
            request.done.fail(self._make_offline_error())
        # The request in service has its success sitting in the heap at
        # its window's end; revoke it by rewriting the event to a failure
        # and scheduling it now -- callbacks run on the first (failing)
        # pass, so the later heap entry is a no-op and the waiter observes
        # the crash at power-off time, as modelled.
        virtual = self._virtual_request
        if (
            virtual is not None
            and self.env.now < self._virtual_busy_until
            and not virtual.done._processed
        ):
            self.faulted_requests += 1
            done = virtual.done
            done._exception = self._make_offline_error()
            done._value = None
            self.env.schedule(done, 0.0)
            self._virtual_request = None
        # A crash empties the volatile controller cache.
        self._cache.clear()
        self._last_page = None

    def power_on(self) -> None:
        """Accept requests again (head position is arbitrary but harmless)."""
        self._off = False
        self._offline_error = None

    @property
    def is_off(self) -> bool:
        return self._off

    def _make_offline_error(self) -> Exception:
        if self._offline_error is not None:
            return self._offline_error()
        return RuntimeError(f"disk {self.name!r} is powered off")

    @property
    def queue_length(self) -> int:
        return len(self._pool)

    def utilization(self) -> float:
        """Busy fraction of this disk since time zero."""
        return self.monitor.utilization()

    def queue_utilization(self) -> float:
        """Fraction of time at least one request was queued (not in service)."""
        return self._pool.utilization()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def cylinder_of(self, page: int) -> int:
        return page // self._pages_per_cylinder

    def track_of(self, page: int) -> int:
        return (page % self.params.pages_per_cylinder) // self.params.pages_per_track

    def _offset_in_track(self, page: int) -> int:
        return page % self.params.pages_per_track

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self._capacity_pages:
            raise ValueError(
                f"page {page} outside disk {self.name!r} "
                f"(capacity {self.params.capacity_pages} pages)"
            )

    # ------------------------------------------------------------------
    # Scheduling and service
    # ------------------------------------------------------------------
    def _serve_loop(self) -> typing.Generator:
        """Serve requests in elevator order, one booked window each.

        A request's service time is computed when it is chosen (head,
        cache and statistics advance then), its busy window is accounted
        at once (:meth:`UtilizationMonitor.accrue`), and its completion is
        scheduled at the window's end -- one scheduler pass per request.
        Nothing else can serve this disk before the window ends: the loop
        sleeps it out before choosing among everything queued by then.
        """
        env = self.env
        pool = self._pool
        while True:
            if not pool.items or self._virtual_busy_until <= env._now:
                # With requests already queued *and* a window still playing
                # out, the wait below would be a zero-sleep followed
                # immediately by the window sleep -- two scheduler passes
                # where one suffices -- so that case skips straight to the
                # window sleep.  The zero-sleep is kept when the window has
                # expired: it is what lets same-instant sibling submits join
                # the pool before the next elevator choice.
                yield pool.wait_for_item()
            busy_until = self._virtual_busy_until
            if busy_until > env._now:
                yield env.sleep_until(busy_until)
                if not pool.items:
                    # A power-off cleared the queue while the window played
                    # out; go back to waiting.
                    continue
            request = pool.take(self._elevator_choose)
            duration = self._service(request) * self.slow_factor
            self._virtual_request = request
            if duration > 0.0:
                self.monitor.accrue(duration)
                end = self._virtual_busy_until = env._now + duration
                request.done.succeed(duration, delay=duration)
                tracer = env.tracer
                if tracer is not None:
                    tracer.record(
                        self.name,
                        env._now,
                        end,
                        cat="disk",
                        op=request.op,
                        args={"kind": request.kind, "page": request.page},
                    )
            else:
                request.done.succeed(duration)

    def _elevator_choose(self, items: list[DiskRequest]) -> DiskRequest:
        """SCAN policy: nearest request in the travel direction, else reverse.

        Single pass, first-minimal on ties (matching ``min()`` over the
        original filtered list, which preserves submission order).
        """
        if len(items) == 1:
            return items[0]
        pages_per_cylinder = self._pages_per_cylinder
        cylinder = self._cylinder
        direction = self._direction
        best: DiskRequest | None = None
        best_distance = 0
        for request in items:
            delta = request.page // pages_per_cylinder - cylinder
            if delta * direction >= 0:
                distance = delta if delta >= 0 else -delta
                if best is None or distance < best_distance:
                    best = request
                    best_distance = distance
        if best is None:
            self._direction = -direction
            for request in items:
                delta = request.page // pages_per_cylinder - cylinder
                distance = delta if delta >= 0 else -delta
                if best is None or distance < best_distance:
                    best = request
                    best_distance = distance
        return best

    def _service(self, request: DiskRequest) -> float:
        """Compute service time and update head / cache state."""
        p = self.params
        page = request.page
        if request.kind == "read":
            self.reads += 1
            cache = self._cache
            if page in cache:
                self.cache_hits += 1
                del cache[page]
                cache[page] = True
                return p.cache_hit_time
        else:
            self.writes += 1
            # Write-through: the media is updated below; the controller
            # cache ends up holding the freshly written copy (valid).
            self._cache.pop(page, None)

        target_cylinder = page // self._pages_per_cylinder
        sequential = self._last_page is not None and page == self._last_page + 1
        duration = 0.0
        if sequential:
            self.sequential_ios += 1
            # Crossing a track or cylinder boundary costs a head switch; the
            # controller's read-ahead hides rotational latency either way.
            if self._offset_in_track(page) == 0:
                duration += p.head_switch_time
        else:
            self.random_ios += 1
            distance = abs(target_cylinder - self._cylinder)
            duration += p.seek_time(distance)
            duration += self._rotational_latency()
        duration += self._transfer_time
        self._cylinder = target_cylinder
        self._last_page = page
        self._cache_insert(page)
        if request.kind == "read" and sequential:
            duration += self._prefetch(page)
        return duration

    def _prefetch(self, page: int) -> float:
        """Read ahead to the end of the track (bounded), filling the cache."""
        p = self.params
        remaining_on_track = p.pages_per_track - 1 - self._offset_in_track(page)
        count = min(p.read_ahead_pages, remaining_on_track)
        duration = 0.0
        for ahead in range(1, count + 1):
            prefetched = page + ahead
            if prefetched >= self._capacity_pages or prefetched in self._cache:
                break
            duration += self._transfer_time
            self._cache_insert(prefetched)
            self._last_page = prefetched
        return duration

    def _rotational_latency(self) -> float:
        p = self.params
        if p.sample_rotation:
            return self.rng.uniform(0.0, p.revolution_time)
        return p.average_rotational_latency

    def _cache_insert(self, page: int) -> None:
        # Every call site has already established that ``page`` is absent
        # (read miss, write-through pop, or the prefetch membership check),
        # so a plain insert lands it at the young end of the LRU order.
        cache = self._cache
        cache[page] = True
        if len(cache) > self.params.controller_cache_pages:
            del cache[next(iter(cache))]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Disk {self.name!r} cyl={self._cylinder} queued={self.queue_length}>"
