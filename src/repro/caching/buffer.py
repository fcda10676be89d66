"""The client buffer cache and its immutable snapshot.

One :class:`BufferCache` manages a contiguous arena of client-disk pages
(allocated once, up front) and maps ``(relation, page index)`` pages onto
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
from array import array
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


#: A page's packed key is ``relation ordinal << 32 | page index``.
_INDEX_BITS = 32
_INDEX_MASK = (1 << _INDEX_BITS) - 1


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

    Internally a resident page is a few array entries, not a Python object.
    The cache owns page <-> slot: each relation ordinal (from a per-cache
    name table that only ``seed`` and ``admit`` extend) has an
    ``array("i")`` mapping page index to arena slot + 1 (0: not resident),
    grown to the largest index stored, and one ``array("q")`` maps each
    slot back to its packed key ``ordinal << 32 | page index``.  The
    replacement policy orders slots only.  Version stamps are stored only
    when non-zero, and per-relation resident counts are kept up to date so
    snapshots cost O(relations).  Page indices must lie in ``[0, 2**32)``.
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
        # Relation name <-> ordinal; per ordinal, resident pages and the
        # page index -> slot + 1 table.
        self._ordinals: dict[str, int] = {}
        self._names: list[str] = []
        self._resident: list[int] = []
        self._tables: list[array] = []
        # Arena slot -> packed key of the page it holds.  Slots are handed
        # out in ascending order; freed slots are reused LIFO
        # (deterministic).
        self._keys = array("q")
        # Packed key -> page version stamp, for stamps != 0 only.
        # Version 0 is "as loaded"; writers bump the global version table
        # and the consistency protocol compares against this.
        self._versions: dict[int, int] = {}
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

    def _ordinal(self, relation: str) -> int:
        """The relation's ordinal, adding it to the name table if new."""
        ordinal = self._ordinals.get(relation)
        if ordinal is None:
            ordinal = len(self._names)
            self._ordinals[relation] = ordinal
            self._names.append(relation)
            self._resident.append(0)
            self._tables.append(array("i"))
        return ordinal

    def _held(self, relation: str, page_index: int) -> int:
        """Arena slot + 1 holding a page; 0 when it is not resident."""
        ordinal = self._ordinals.get(relation)
        if ordinal is None:
            return 0
        table = self._tables[ordinal]
        if 0 <= page_index < len(table):
            return table[page_index]
        return 0

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    @property
    def resident_count(self) -> int:
        return len(self._policy)

    def resident_pages(self, relation: str) -> int:
        """Resident pages of one relation (any pages, not just a prefix)."""
        ordinal = self._ordinals.get(relation)
        return 0 if ordinal is None else self._resident[ordinal]

    def contains(self, relation: str, page_index: int) -> bool:
        """Residency check without touching counters or the policy."""
        return self._held(relation, page_index) != 0

    def lookup(self, relation: str, page_index: int) -> int | None:
        """Absolute client-disk page holding ``page_index``, or None (miss)."""
        held = self._held(relation, page_index)
        if not held:
            self.misses += 1
            return None
        self.hits += 1
        self._policy.touch(held - 1)
        return self._extent.page(held - 1)

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
        slot = self._policy.evict()
        victim = self._keys[slot]
        ordinal, index = victim >> _INDEX_BITS, victim & _INDEX_MASK
        self._tables[ordinal][index] = 0
        self._resident[ordinal] -= 1
        self.evictions += 1
        self.eviction_history.record(self._names[ordinal], index)
        self._versions.pop(victim, None)
        return slot

    def _place(self, ordinal: int, page_index: int) -> int:
        """Give a non-resident page a slot (evicting if full)."""
        slot = self._take_slot()
        self._policy.admit(slot)
        table = self._tables[ordinal]
        missing = page_index + 1 - len(table)
        if missing > 0:
            table.frombytes(bytes(missing * table.itemsize))
        table[page_index] = slot + 1
        key = ordinal << _INDEX_BITS | page_index
        if slot == len(self._keys):
            self._keys.append(key)
        else:
            self._keys[slot] = key
        self._resident[ordinal] += 1
        return slot

    def admit(self, relation: str, page_index: int, version: int = 0) -> int | None:
        """Make a page resident; returns its client-disk page.

        Returns None when the cache never admits, or has no capacity at
        all (capacity 0 degenerates to the no-cache baseline: every access
        faults, nothing is kept).  Admitting an already-resident page is a
        no-op beyond a policy touch and a version refresh.
        """
        if not self.admits or self.capacity_pages == 0:
            return None
        if not 0 <= page_index <= _INDEX_MASK:
            raise ConfigurationError(f"page index {page_index} outside [0, 2**32)")
        ordinal = self._ordinal(relation)
        table = self._tables[ordinal]
        held = table[page_index] if page_index < len(table) else 0
        if held:
            slot = held - 1
            self._policy.touch(slot)
        else:
            slot = self._place(ordinal, page_index)
            self.admissions += 1
        key = ordinal << _INDEX_BITS | page_index
        if version:
            self._versions[key] = version
        else:
            self._versions.pop(key, None)
        return self._extent.page(slot)

    def version_of(self, relation: str, page_index: int) -> int | None:
        """Version stamp of a resident page, or None if not resident."""
        held = self._held(relation, page_index)
        if not held:
            return None
        return self._versions.get(self._keys[held - 1], 0)

    def invalidate(self, relation: str, page_index: int) -> bool:
        """Drop a (possibly stale) page from the cache; True if it was resident.

        The freed slot goes on the LIFO free list, exactly as if the policy
        had evicted it -- but the drop is *not* an eviction: it is counted
        separately, bypasses the policy's victim choice, and never appears
        in ``eviction_history``.
        """
        held = self._held(relation, page_index)
        if not held:
            return False
        slot = held - 1
        self._policy.discard(slot)
        key = self._keys[slot]
        ordinal = key >> _INDEX_BITS
        self._tables[ordinal][page_index] = 0
        self._versions.pop(key, None)
        self._resident[ordinal] -= 1
        self._free.append(slot)
        self.invalidations += 1
        return True

    def seed(self, relation: str, pages: int) -> int:
        """Pre-populate the first ``pages`` pages of a relation (no I/O).

        Stops at capacity (seeding never evicts); returns how many pages
        were actually seeded.
        """
        if pages > _INDEX_MASK + 1:
            raise ConfigurationError(f"cannot seed {pages} pages: indices stop at 2**32")
        ordinal = self._ordinal(relation)
        table = self._tables[ordinal]
        policy = self._policy
        placed = 0
        for index in range(pages):
            if len(policy) >= self.capacity_pages:
                break
            if index < len(table) and table[index]:
                continue
            self._place(ordinal, index)
            placed += 1
        self.seeded += placed
        return placed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> CacheState:
        """Freeze the current residency + counters into a :class:`CacheState`."""
        resident = sorted(
            (name, pages) for name, pages in zip(self._names, self._resident) if pages
        )
        return CacheState(
            capacity_pages=self.capacity_pages,
            resident=tuple(resident),
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
            f"<BufferCache {self.policy_name} resident={len(self._policy)}"
            f"/{self.capacity_pages} hits={self.hits} misses={self.misses}>"
        )
