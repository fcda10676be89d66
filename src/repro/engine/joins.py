"""Hybrid-hash join [Sha86] at page granularity.

The build phase (inside ``open``) consumes the inner (left) input: a
memory-resident fraction *q* of it goes into the in-memory hash table and
the rest is written to partition files on the join site's disk.  The probe
phase consumes the outer input, emitting the resident share of the output
immediately (pipelined) and spilling the rest of the outer to partition
files.  Finally the spilled partition pairs are read back and joined.

Spill writes are asynchronous (the engine queues them on the disk and
continues), so a join's temp I/O overlaps with its inputs' scans -- when
they share a disk this creates exactly the seek interference the paper
blames for query-shipping's poor minimum-allocation performance (4.2.2).

Every join runs on a :class:`~repro.storage.MemoryGrant` from its site's
broker; :func:`~repro.storage.memory.grant_range` picks the request:

- **static** (the paper's model): a *fixed* grant ``[n, n]`` of the
  plan-time min/max allocation that sheds the query instead of queueing.
  A fixed grant keeps the paper's plan-time spill model: no recursive
  overflow passes and no role reversal;
- **dynamic** (``SystemConfig.memory.mode == "dynamic"``): a grant in
  ``[minimum, maximum]`` allocation that queues deterministically under
  saturation, *shrinks mid-join* when the broker reclaims pages for a
  waiter (evicted hash-table pages spill incrementally), reverses build
  and probe roles per spilled partition pair when the outer side turned
  out smaller, and handles partitions still too big for memory with
  bounded recursive overflow passes.  On an uncontended pool the broker
  issues the maximum synchronously, so single-session runs are
  event-for-event identical to static maximum allocation.
"""

from __future__ import annotations

import typing

from repro.config import HYBRID_HASH_FUDGE_FACTOR
from repro.engine.base import Page, PageAssembler, PhysicalOp
from repro.errors import ExecutionError, TransientFaultError
from repro.sim import AllOf, Event
from repro.storage.memory import HybridHashPlan, grant_range, plan_hybrid_hash

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import ExecutionContext
    from repro.hardware.site import Site, TempFile
    from repro.storage.memory import MemoryGrant, _GrantWaiter

__all__ = ["HashJoinIterator"]


class _PartitionSet:
    """The spill files of one join input: round-robin page placement.

    Each partition owns a list of extent chunks; the initial chunk is sized
    from the expected spill volume.  When every partition is full (reclaims
    make the spill volume unpredictable) the next one grows by another
    chunk.  Chunks are allocated one at a time so a failure
    mid-construction releases what was already taken.
    """

    def __init__(
        self,
        site: "Site",
        num_partitions: int,
        expected_pages: int,
        disk_index: int = 0,
    ) -> None:
        self.site = site
        self.disk_index = disk_index
        per_partition = -(-max(expected_pages, num_partitions) // num_partitions) + 2
        self._chunk = per_partition
        self.files: list[list[TempFile]] = []
        try:
            for _ in range(num_partitions):
                self.files.append([site.allocate_temp(per_partition, disk_index)])
        except BaseException:
            self.release()
            raise
        self._cursor = 0
        self._fill = [0] * num_partitions
        self.pages_written = 0

    def _capacity(self, index: int) -> int:
        return sum(file.extent.pages for file in self.files[index])

    def _page_at(self, index: int, position: int) -> int:
        for file in self.files[index]:
            if position < file.extent.pages:
                return file.page(position)
            position -= file.extent.pages
        raise ExecutionError(f"partition {index} has no page {position}")

    def next_write_page(self) -> int:
        """Disk page for the next spilled page (round-robin partitions)."""
        start = self._cursor
        while True:
            index = self._cursor
            self._cursor = (self._cursor + 1) % len(self.files)
            if self._fill[index] < self._capacity(index):
                self._fill[index] += 1
                self.pages_written += 1
                return self._page_at(index, self._fill[index] - 1)
            if self._cursor == start:
                self.files[index].append(
                    self.site.allocate_temp(self._chunk, self.disk_index)
                )
                self._fill[index] += 1
                self.pages_written += 1
                return self._page_at(index, self._fill[index] - 1)

    def partition_pages(self, index: int) -> list[int]:
        """Disk pages written to partition ``index``, in write order."""
        return [self._page_at(index, i) for i in range(self._fill[index])]

    def release(self) -> None:
        for chunks in self.files:
            for file in chunks:
                file.release()

    def __len__(self) -> int:
        return len(self.files)


class HashJoinIterator(PhysicalOp):
    """Hybrid-hash equi-join; left input builds, right input probes."""

    #: Cap on recursive overflow passes per spilled partition pair; with
    #: at least the minimum allocation each pass divides the oversized
    #: partition by (buffers - 1), so skew deeper than this is pathological.
    MAX_RECURSION_PASSES = 3

    def __init__(
        self,
        context: "ExecutionContext",
        site: "Site",
        inner: PhysicalOp,
        outer: PhysicalOp,
        est_inner_pages: int,
        est_outer_pages: int,
        est_outer_tuples: float,
        est_output_tuples: float,
        output_tuple_bytes: int,
    ) -> None:
        super().__init__(context, site)
        self.inner = inner
        self.outer = outer
        self.est_inner_pages = max(1, est_inner_pages)
        self.est_outer_pages = max(1, est_outer_pages)
        self.est_outer_tuples = max(1.0, est_outer_tuples)
        self.est_output_tuples = est_output_tuples
        self.output_tuple_bytes = output_tuple_bytes
        self._buffer_pages = 0
        self._hh: HybridHashPlan | None = None
        self._assembler = PageAssembler(
            context.config.tuples_per_page(output_tuple_bytes), output_tuple_bytes
        )
        self._ready: list[Page] = []
        self._inner_parts: _PartitionSet | None = None
        self._outer_parts: _PartitionSet | None = None
        self._pending_writes: list[Event] = []
        self._inner_tuples_seen = 0
        self._outer_tuples_seen = 0
        self._inner_tuple_bytes = 100
        self._outer_tuple_bytes = 100
        self._spill_accum_inner = 0.0
        self._spill_accum_outer = 0.0
        self._phase = "build"
        self._partition_cursor = 0
        self._grant: "MemoryGrant | None" = None
        # Whether the grant's range is a single size (see _partition_step).
        self._fixed = False
        self._pending_wait: "_GrantWaiter | None" = None
        self._aborted = False
        self._build_pages_seen = 0
        self._reclaim_spill_pages = 0
        self._spilled_output_tuples = 0.0
        self._scratch: list["TempFile"] = []
        self.role_reversals = 0
        self.recursion_passes = 0

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------
    def _open(self) -> typing.Generator:
        config = self.config
        yield from self._acquire_grant()
        self._hh = plan_hybrid_hash(
            self.est_inner_pages, self.est_outer_pages, self._buffer_pages
        )
        if not self._hh.in_memory:
            self._inner_parts = _PartitionSet(
                self.site, self._hh.spill_partitions, self._hh.spilled_inner_pages
            )
        yield from self.inner.open()
        while True:
            page = yield from self.inner.next()
            if page is None:
                break
            self._build_pages_seen += 1
            self._inner_tuples_seen += page.tuples
            self._inner_tuple_bytes = page.tuple_bytes
            cpu = config.hash_inst * page.tuples
            cpu += config.move_instructions(page.payload_bytes)
            yield from self.site.cpu.execute(cpu)
            spill_fraction = 1.0 - self._hh.resident_fraction
            if spill_fraction > 0.0:
                self._spill_accum_inner += spill_fraction
                yield from self._drain_spill("inner", page.tuple_bytes)
            yield from self._drain_reclaim()
        yield from self._drain_reclaim()
        yield from self._flush_spill("inner")
        yield from self.inner.close()
        yield from self._await_writes()
        self._phase = "probe"
        yield from self.outer.open()
        if not self._hh.in_memory and self._outer_parts is None:
            self._outer_parts = _PartitionSet(
                self.site, self._hh.spill_partitions, self._hh.spilled_outer_pages
            )

    def _acquire_grant(self) -> typing.Generator:
        """Obtain the broker grant :func:`grant_range` asks for; may wait.

        The fast path is fully synchronous: on an uncontended pool the
        broker hands out the maximum with no events created.  A fixed
        (static) grant has no reclaim callback and sheds instead of
        queueing.
        """
        broker = self.site.memory
        min_pages, max_pages, waits = grant_range(self.config, self.est_inner_pages)
        on_reclaim = self._reclaimed if waits else None
        grant = broker.try_grant(min_pages, max_pages, self.label, on_reclaim, waits)
        if grant is None:
            waiter = broker.enqueue(min_pages, max_pages, self.label, on_reclaim)
            self._pending_wait = waiter
            waited_from = self.env.now
            try:
                grant = yield waiter.event
            finally:
                self._pending_wait = None
            if self._aborted:
                # The attempt died while we were queued; the fresh grant
                # must flow back immediately or it leaks until close().
                grant.release()
                raise TransientFaultError(
                    f"{self.label} aborted while waiting for memory"
                )
            tracer = self.env.tracer
            if tracer is not None:
                tracer.instant(
                    "memory.wait",
                    cat="memory",
                    args={
                        "op": self.label,
                        "granted_pages": grant.pages,
                        "waited": self.env.now - waited_from,
                    },
                )
        self._grant = grant
        self._fixed = grant.min_pages == grant.max_pages
        self._buffer_pages = grant.pages

    def _reclaimed(self, take: int) -> int:
        """Broker callback: give back up to ``take`` pages by spilling.

        Runs synchronously inside the broker (no simulated time): the plan
        is reshaped to the smaller allocation and the evicted hash-table
        pages are queued on ``_reclaim_spill_pages``; the join's own
        process writes them out at its next step, so the I/O cost lands on
        the victim, not the waiter.
        """
        if self._phase not in ("build", "probe") or self._hh is None:
            return 0
        assert self._grant is not None
        margin = self._buffer_pages - self._grant.min_pages
        take = min(take, margin)
        if take <= 0:
            return 0
        old = self._hh
        new_buffers = self._buffer_pages - take
        if old.in_memory:
            new = plan_hybrid_hash(self.est_inner_pages, self.est_outer_pages, new_buffers)
        else:
            # Keep the partition count: pages already written are hashed
            # into k files, so only the resident fraction can shrink.
            k = old.spill_partitions
            fraction = min(
                old.resident_fraction,
                max(
                    0.0,
                    (new_buffers - k)
                    / (HYBRID_HASH_FUDGE_FACTOR * max(1, self.est_inner_pages)),
                ),
            )
            new = HybridHashPlan(
                self.est_inner_pages, self.est_outer_pages, new_buffers, k, fraction
            )
        if not new.in_memory and self._inner_parts is None:
            self._inner_parts = _PartitionSet(
                self.site, new.spill_partitions, new.spilled_inner_pages
            )
            if self._phase == "probe" and self._outer_parts is None:
                self._outer_parts = _PartitionSet(
                    self.site, new.spill_partitions, new.spilled_outer_pages
                )
        evicted = round((old.resident_fraction - new.resident_fraction) * self._build_pages_seen)
        self._reclaim_spill_pages += max(0, evicted)
        self._hh = new
        self._buffer_pages = new_buffers
        tracer = self.env.tracer
        if tracer is not None:
            tracer.instant(
                "memory.reclaim",
                cat="memory",
                args={"op": self.label, "pages": take, "evicted_pages": max(0, evicted)},
            )
        return take

    def _drain_reclaim(self) -> typing.Generator:
        """Write out hash-table pages evicted by a broker reclaim."""
        while self._reclaim_spill_pages > 0 and self._inner_parts is not None:
            self._reclaim_spill_pages -= 1
            yield from self._spill_page(self._inner_parts)

    def _drain_spill(self, which: str, tuple_bytes: int) -> typing.Generator:
        """Write a spilled page whenever a full page has accumulated."""
        parts = self._inner_parts if which == "inner" else self._outer_parts
        accum_attr = "_spill_accum_inner" if which == "inner" else "_spill_accum_outer"
        while getattr(self, accum_attr) >= 1.0 and parts is not None:
            setattr(self, accum_attr, getattr(self, accum_attr) - 1.0)
            yield from self._spill_page(parts)

    def _flush_spill(self, which: str) -> typing.Generator:
        """Write the final partial spilled page of a phase, if any."""
        parts = self._inner_parts if which == "inner" else self._outer_parts
        accum_attr = "_spill_accum_inner" if which == "inner" else "_spill_accum_outer"
        if parts is not None and getattr(self, accum_attr) >= 0.5:
            yield from self._spill_page(parts)
        setattr(self, accum_attr, 0.0)

    def _spill_page(self, parts: _PartitionSet) -> typing.Generator:
        """Asynchronously write one spilled page (CPU charged now)."""
        yield from self.site.cpu.execute(self.config.disk_inst)
        request = self.site.disk.submit("write", parts.next_write_page())
        self._pending_writes.append(request.done)
        self.site.memory.record_spill(self.label)

    def _await_writes(self) -> typing.Generator:
        if self._pending_writes:
            yield AllOf(self.env, self._pending_writes)
            self._pending_writes = []

    # ------------------------------------------------------------------
    # Probe phase and spilled-partition processing
    # ------------------------------------------------------------------
    def _next(self) -> typing.Generator:
        while not self._ready:
            if self._phase == "probe":
                yield from self._probe_step()
            elif self._phase == "partitions":
                yield from self._partition_step()
            elif self._phase == "flush":
                self._ready.extend(self._assembler.flush())
                self._phase = "done"
            else:
                return None
        page = self._ready.pop(0)
        yield from self.site.cpu.execute(self.config.move_instructions(page.payload_bytes))
        return page

    def _probe_step(self) -> typing.Generator:
        config = self.config
        page = yield from self.outer.next()
        if page is None:
            yield from self._drain_reclaim()
            yield from self._flush_spill("outer")
            yield from self.outer.close()
            yield from self._await_writes()
            self._phase = "partitions" if not self._hh.in_memory else "flush"
            return
        self._outer_tuples_seen += page.tuples
        self._outer_tuple_bytes = page.tuple_bytes
        cpu = config.hash_inst * page.tuples + config.move_instructions(page.payload_bytes)
        yield from self.site.cpu.execute(cpu)
        yield from self._drain_reclaim()
        resident = self._hh.resident_fraction
        if resident > 0.0:
            contribution = (
                self.est_output_tuples * resident * page.tuples / self.est_outer_tuples
            )
            self._ready.extend(self._assembler.add(contribution))
        if resident < 1.0:
            self._spilled_output_tuples += (
                self.est_output_tuples * (1.0 - resident) * page.tuples / self.est_outer_tuples
            )
            self._spill_accum_outer += 1.0 - resident
            yield from self._drain_spill("outer", page.tuple_bytes)

    def _partition_step(self) -> typing.Generator:
        """Join one spilled partition pair: build one side, probe the other.

        An elastic (dynamic) grant uses what the run has learned: when the
        outer's share of a partition turned out *smaller* than the inner's,
        the roles flip -- the smaller side builds the hash table (Shapiro's
        heuristic generalized to runtime knowledge); a build side still
        larger than the allocation triggers up to ``MAX_RECURSION_PASSES``
        re-partitioning passes, each a full extra write+read of the pair,
        after which it is processed regardless (matching how real systems
        cap recursion on pathological skew); and the pair's output share
        follows the resident fractions actually in force during the probe.

        A fixed grant (``min_pages == max_pages``: the static discipline)
        keeps the paper's plan-time model instead: the inner always builds
        and no overflow pass runs.  Its output is paced like an elastic
        grant's.
        """
        assert self._inner_parts is not None and self._outer_parts is not None
        if self._partition_cursor >= len(self._inner_parts):
            self._phase = "flush"
            return
        index = self._partition_cursor
        self._partition_cursor += 1
        config = self.config
        fixed = self._fixed
        inner_pages = self._inner_parts.partition_pages(index)
        outer_pages = self._outer_parts.partition_pages(index)
        build_pages, probe_pages = inner_pages, outer_pages
        build_bytes, probe_bytes = self._inner_tuple_bytes, self._outer_tuple_bytes
        if not fixed and 0 < len(outer_pages) < len(inner_pages):
            build_pages, probe_pages = outer_pages, inner_pages
            build_bytes, probe_bytes = self._outer_tuple_bytes, self._inner_tuple_bytes
            self.role_reversals += 1
            tracer = self.env.tracer
            if tracer is not None:
                tracer.instant(
                    "join.role-reversal",
                    cat="memory",
                    args={"op": self.label, "partition": index,
                          "build_pages": len(build_pages)},
                )
        build_len = len(build_pages)
        passes = 0
        while (
            not fixed
            and build_len > 0
            and HYBRID_HASH_FUDGE_FACTOR * build_len > self._buffer_pages
            and passes < self.MAX_RECURSION_PASSES
        ):
            passes += 1
            self.recursion_passes += 1
            yield from self._overflow_pass(index, len(build_pages) + len(probe_pages))
            build_len = -(-build_len // max(2, self._buffer_pages - 1))
        for disk_page in build_pages:
            yield from self.site.cpu.execute(config.disk_inst)
            yield self.site.disk.read(disk_page)
            cpu = config.hash_inst * config.tuples_per_page(build_bytes)
            cpu += config.move_instructions(config.page_size)
            yield from self.site.cpu.execute(cpu)
        outer_written = max(1, self._outer_parts.pages_written)
        # The partition's output share follows its *outer* pages no matter
        # which side built.
        partition_output = self._spilled_output_tuples * len(outer_pages) / outer_written
        per_page_output = partition_output / max(1, len(probe_pages))
        for disk_page in probe_pages:
            yield from self.site.cpu.execute(config.disk_inst)
            yield self.site.disk.read(disk_page)
            cpu = config.hash_inst * config.tuples_per_page(probe_bytes)
            cpu += config.move_instructions(config.page_size)
            yield from self.site.cpu.execute(cpu)
            self._ready.extend(self._assembler.add(per_page_output))

    def _overflow_pass(self, index: int, total_pages: int) -> typing.Generator:
        """One recursive re-partitioning pass: write the pair out, read back."""
        tracer = self.env.tracer
        if tracer is not None:
            tracer.instant(
                "join.recursive-pass",
                cat="memory",
                args={"op": self.label, "partition": index, "pages": total_pages},
            )
        scratch = self.site.allocate_temp(max(1, total_pages))
        self._scratch.append(scratch)
        config = self.config
        for position in range(total_pages):
            yield from self.site.cpu.execute(config.disk_inst)
            request = self.site.disk.submit("write", scratch.page(position))
            self._pending_writes.append(request.done)
            self.site.memory.record_spill(self.label)
        yield from self._await_writes()
        for position in range(total_pages):
            yield from self.site.cpu.execute(config.disk_inst)
            yield self.site.disk.read(scratch.page(position))
        scratch.release()
        self._scratch.remove(scratch)

    def _close(self) -> typing.Generator:
        self._release_resources()
        return
        yield  # pragma: no cover

    def abort(self) -> None:
        self._aborted = True
        self._release_resources()

    def _release_resources(self) -> None:
        """Free partition files, scratch extents, grants, wait-queue slots
        and buffer frames (idempotent); shared by close() and abort()."""
        if self._inner_parts is not None:
            self._inner_parts.release()
        if self._outer_parts is not None:
            self._outer_parts.release()
        for scratch in self._scratch:
            scratch.release()
        self._scratch = []
        if self._pending_wait is not None:
            # Cancelling fails the waiter's event, so a process still
            # blocked on it resumes (into fault supervision) rather than
            # lingering as a zombie holding a queue slot.
            self.site.memory.cancel(self._pending_wait)
            self._pending_wait = None
        if self._grant is not None:
            self._grant.release()
            self._grant = None
            self._buffer_pages = 0
