"""Reference model of the client buffer cache: tuple keys, dense stamps.

This is the straightforward formulation the slot-array
:class:`repro.caching.BufferCache` must agree with, kept here as a test
oracle (not imported by ``src/``).  Pages are keyed by
``(relation, page index)`` tuples; three maps hold every resident page --
key -> arena slot, key -> version stamp (0 included), and the replacement
policy's recency structure -- and ``snapshot`` / ``resident_pages`` walk
every resident key.  Slot hand-out, LIFO slot reuse, victim choice and
counters are exactly those of the production cache.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.caching.buffer import CacheState
from repro.errors import ConfigurationError
from repro.sim.monitor import EventHistory

Key = tuple[str, int]


class LRUModel:
    def __init__(self) -> None:
        self._order: "OrderedDict[Key, None]" = OrderedDict()

    def admit(self, key: Key) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def touch(self, key: Key) -> None:
        self._order.move_to_end(key)

    def evict(self) -> Key:
        key, _ = self._order.popitem(last=False)
        return key

    def discard(self, key: Key) -> None:
        self._order.pop(key, None)


class MRUModel(LRUModel):
    def evict(self) -> Key:
        key, _ = self._order.popitem(last=True)
        return key


class ClockModel:
    def __init__(self) -> None:
        self._ring: list[Key] = []
        self._ref: dict[Key, bool] = {}
        self._hand = 0

    def admit(self, key: Key) -> None:
        if key not in self._ref:
            self._ring.insert(self._hand, key)
            self._hand += 1
        self._ref[key] = True

    def touch(self, key: Key) -> None:
        self._ref[key] = True

    def evict(self) -> Key:
        while True:
            if self._hand >= len(self._ring):
                self._hand = 0
            key = self._ring[self._hand]
            if self._ref[key]:
                self._ref[key] = False
                self._hand += 1
            else:
                del self._ring[self._hand]
                del self._ref[key]
                return key

    def discard(self, key: Key) -> None:
        if key not in self._ref:
            return
        index = self._ring.index(key)
        del self._ring[index]
        del self._ref[key]
        if index < self._hand:
            self._hand -= 1


MODELS = {"lru": LRUModel, "mru": MRUModel, "clock": ClockModel}


class TupleBufferCache:
    """Same public surface as :class:`repro.caching.BufferCache`."""

    def __init__(self, allocator, capacity_pages: int, policy: str = "lru", admits: bool = True):
        if capacity_pages < 0:
            raise ConfigurationError(f"capacity_pages must be >= 0, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self.admits = admits
        self._policy = MODELS[policy]()
        self._extent = allocator.allocate(capacity_pages)
        self._slots: dict[Key, int] = {}
        self._versions: dict[Key, int] = {}
        self._next_slot = 0
        self._free: list[int] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.admissions = 0
        self.invalidations = 0
        self.seeded = 0
        self.eviction_history = EventHistory()

    @property
    def resident_count(self) -> int:
        return len(self._slots)

    def resident_pages(self, relation: str) -> int:
        return sum(1 for name, _ in self._slots if name == relation)

    def contains(self, relation: str, page_index: int) -> bool:
        return (relation, page_index) in self._slots

    def lookup(self, relation: str, page_index: int) -> int | None:
        slot = self._slots.get((relation, page_index))
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        self._policy.touch((relation, page_index))
        return self._extent.page(slot)

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
        return self._versions.get((relation, page_index))

    def invalidate(self, relation: str, page_index: int) -> bool:
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

    def snapshot(self) -> CacheState:
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
