"""The client buffer cache and its immutable snapshot.

One :class:`BufferCache` manages a contiguous arena of client-disk pages
(allocated once, up front) and maps ``(relation, page index)`` keys onto
arena slots.  Lookups and admissions update hit/miss/eviction/admission
counters and the replacement policy; :meth:`BufferCache.snapshot` freezes
the per-relation resident summary into a :class:`CacheState` the
optimizer can plan against.

Everything is deterministic: slots are handed out in ascending order (so
prefixes seeded relation by relation occupy contiguous,
sequentially-readable runs, one after the other), freed slots are reused
LIFO, and the eviction order is whatever the policy computes from the
reference stream.
``eviction_history`` folds every victim, in order, into an eviction count
and a running digest (:class:`~repro.sim.monitor.EventHistory`) -- the
determinism tests compare it across reruns without the cache keeping every
victim for the whole run.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass

from repro.caching.policies import make_policy
from repro.errors import ConfigurationError
from repro.sim.monitor import EventHistory

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.storage.layout import ExtentAllocator

__all__ = ["BufferCache", "CacheState"]


@dataclass(frozen=True)
class CacheState:
    """Immutable summary of a buffer cache: what is resident, and counters.

    ``resident`` is a sorted tuple of ``(relation, resident page count)``
    pairs -- the granularity the cost model needs (it prices a client scan
    by how many pages it reads locally vs faults, not *which* pages).

    Equality covers the counters too (two byte-identical runs must agree on
    them), but :meth:`digest` deliberately hashes only capacity and the
    resident set: plans depend on what is resident, not on how many hits it
    took to get there, so a stream whose resident set has stabilised keeps
    hitting the plan cache.
    """

    capacity_pages: int
    resident: tuple[tuple[str, int], ...] = ()
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    admissions: int = 0
    invalidations: int = 0

    def resident_pages(self, relation: str) -> int:
        for name, pages in self.resident:
            if name == relation:
                return pages
        return 0

    @property
    def total_resident(self) -> int:
        return sum(pages for _, pages in self.resident)

    def digest(self) -> str:
        """Canonical digest of the *contents* (capacity + resident set)."""
        text = repr((self.capacity_pages, self.resident))
        return hashlib.sha256(text.encode()).hexdigest()


class BufferCache:
    """Page-grained cache over one client disk.

    ``capacity_pages`` slots are carved from the client's extent allocator
    as one arena.  ``lookup`` answers where a relation page lives on the
    client disk (or None, counting a miss); ``admit`` makes a faulted-in
    page resident, evicting a victim via the replacement policy when full.
    ``seed`` pre-populates a contiguous prefix without touching the demand
    counters -- the paper's "resident before the query starts" assumption.
    A cache built with ``admits=False`` (the static model) never admits:
    it serves its seeded prefixes and only shrinks, by invalidation.
    """

    def __init__(
        self,
        allocator: "ExtentAllocator",
        capacity_pages: int,
        policy: str = "lru",
        admits: bool = True,
    ) -> None:
        if capacity_pages < 0:
            raise ConfigurationError(f"capacity_pages must be >= 0, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self.policy_name = policy
        self.admits = admits
        self._policy = make_policy(policy)
        self._extent = allocator.allocate(capacity_pages)
        # (relation, page index) -> arena slot.  Slots are handed out in
        # ascending order; freed slots are reused LIFO (deterministic).
        self._slots: dict[tuple[str, int], int] = {}
        # (relation, page index) -> page version stamp, maintained for every
        # resident page.  Version 0 is "as loaded"; writers bump the global
        # version table and the consistency protocol compares against this.
        self._versions: dict[tuple[str, int], int] = {}
        self._next_slot = 0
        self._free: list[int] = []
        # Demand counters (seeding is tracked separately).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.admissions = 0
        self.invalidations = 0
        self.seeded = 0
        #: Count and running digest of every victim, in eviction order --
        #: compared across reruns by the determinism tests.
        self.eviction_history = EventHistory()

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    @property
    def resident_count(self) -> int:
        return len(self._slots)

    def resident_pages(self, relation: str) -> int:
        """Resident pages of one relation (any pages, not just a prefix)."""
        return sum(1 for name, _ in self._slots if name == relation)

    def contains(self, relation: str, page_index: int) -> bool:
        """Residency check without touching counters or the policy."""
        return (relation, page_index) in self._slots

    def lookup(self, relation: str, page_index: int) -> int | None:
        """Absolute client-disk page holding ``page_index``, or None (miss)."""
        slot = self._slots.get((relation, page_index))
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        self._policy.touch((relation, page_index))
        return self._extent.page(slot)

    # ------------------------------------------------------------------
    # Admission / eviction
    # ------------------------------------------------------------------
    def _take_slot(self) -> int:
        if self._free:
            return self._free.pop()
        if self._next_slot < self.capacity_pages:
            slot = self._next_slot
            self._next_slot += 1
            return slot
        victim = self._policy.evict()
        self.evictions += 1
        self.eviction_history.record(*victim)
        self._versions.pop(victim, None)
        return self._slots.pop(victim)

    def admit(self, relation: str, page_index: int, version: int = 0) -> int | None:
        """Make a page resident; returns its client-disk page.

        Returns None when the cache never admits, or has no capacity at
        all (capacity 0 degenerates to the no-cache baseline: every access
        faults, nothing is kept).  Admitting an already-resident page is a
        no-op beyond a policy touch and a version refresh.
        """
        if not self.admits or self.capacity_pages == 0:
            return None
        key = (relation, page_index)
        slot = self._slots.get(key)
        if slot is not None:
            self._policy.touch(key)
            self._versions[key] = version
            return self._extent.page(slot)
        slot = self._take_slot()
        self._slots[key] = slot
        self._versions[key] = version
        self._policy.admit(key)
        self.admissions += 1
        return self._extent.page(slot)

    def version_of(self, relation: str, page_index: int) -> int | None:
        """Version stamp of a resident page, or None if not resident."""
        return self._versions.get((relation, page_index))

    def invalidate(self, relation: str, page_index: int) -> bool:
        """Drop a (possibly stale) page from the cache; True if it was resident.

        The freed slot goes on the LIFO free list, exactly as if the policy
        had evicted it -- but the drop is *not* an eviction: it is counted
        separately, bypasses the policy's victim choice, and never appears
        in ``eviction_history``.
        """
        key = (relation, page_index)
        slot = self._slots.pop(key, None)
        if slot is None:
            return False
        self._versions.pop(key, None)
        self._policy.discard(key)
        self._free.append(slot)
        self.invalidations += 1
        return True

    def seed(self, relation: str, pages: int) -> int:
        """Pre-populate the first ``pages`` pages of a relation (no I/O).

        Stops at capacity (seeding never evicts); returns how many pages
        were actually seeded.
        """
        placed = 0
        for index in range(pages):
            if len(self._slots) >= self.capacity_pages:
                break
            key = (relation, index)
            if key in self._slots:
                continue
            slot = self._take_slot()
            self._slots[key] = slot
            self._versions[key] = 0
            self._policy.admit(key)
            self.seeded += 1
            placed += 1
        return placed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> CacheState:
        """Freeze the current residency + counters into a :class:`CacheState`."""
        per_relation: dict[str, int] = {}
        for name, _ in self._slots:
            per_relation[name] = per_relation.get(name, 0) + 1
        return CacheState(
            capacity_pages=self.capacity_pages,
            resident=tuple(sorted(per_relation.items())),
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            admissions=self.admissions,
            invalidations=self.invalidations,
        )

    def digest(self) -> str:
        return self.snapshot().digest()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BufferCache {self.policy_name} resident={len(self._slots)}"
            f"/{self.capacity_pages} hits={self.hits} misses={self.misses}>"
        )
