"""Replacement policies for the dynamic client buffer cache.

A policy maps each resident page key to the arena slot holding it and
answers one question: which key goes next?  Everything is deterministic --
the eviction order is a pure function of the admit/touch history, so two
runs that issue the same reference stream produce byte-identical eviction
sequences (asserted in ``tests/caching``).

LRU is the sensible default for the paper's sequential scan streams at
full-database capacity (nothing ever evicts); MRU is the classic antidote
to sequential flooding when a relation does *not* fit (evicting the page
just used keeps the head of the scan resident across re-scans); CLOCK is
the cheap second-chance approximation of LRU that real buffer managers
ship.
"""

from __future__ import annotations

import typing
from collections import OrderedDict

from repro.errors import ConfigurationError

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "MRUPolicy",
    "ClockPolicy",
    "POLICY_NAMES",
    "make_policy",
]

#: Page key: any hashable; the buffer cache uses ``ordinal << 32 | index``.
Key = typing.Hashable


class ReplacementPolicy:
    """Interface: map resident keys to arena slots, pick eviction victims.

    ``slots`` (key -> slot of every resident key) is the buffer cache's
    residency map as well as the policy's recency structure, so a resident
    page costs one hash entry in total.
    """

    name = "?"
    slots: typing.MutableMapping[Key, int]

    def admit(self, key: Key, slot: int) -> None:
        """A new key became resident in arena slot ``slot``."""
        raise NotImplementedError

    def touch(self, key: Key) -> None:
        """A resident key was referenced (cache hit)."""
        raise NotImplementedError

    def evict(self) -> tuple[Key, int]:
        """Choose and remove the next victim; returns ``(key, slot)``."""
        raise NotImplementedError

    def discard(self, key: Key) -> int | None:
        """Forget a key without electing it (consistency invalidation).

        Returns the slot it held, or None if it was not resident.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} resident={len(self)}>"


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used key."""

    name = "lru"

    def __init__(self) -> None:
        # Ordered oldest reference first.
        self.slots: "OrderedDict[Key, int]" = OrderedDict()

    def admit(self, key: Key, slot: int) -> None:
        self.slots[key] = slot
        self.slots.move_to_end(key)

    def touch(self, key: Key) -> None:
        self.slots.move_to_end(key)

    def evict(self) -> tuple[Key, int]:
        if not self.slots:
            raise ConfigurationError("evict() on an empty replacement policy")
        return self.slots.popitem(last=False)

    def discard(self, key: Key) -> int | None:
        return self.slots.pop(key, None)


class MRUPolicy(LRUPolicy):
    """Evict the *most* recently used key (anti-sequential-flooding)."""

    name = "mru"

    def evict(self) -> tuple[Key, int]:
        if not self.slots:
            raise ConfigurationError("evict() on an empty replacement policy")
        return self.slots.popitem(last=True)


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: a hand sweeps a ring of reference bits.

    Admitted and touched keys get their reference bit set; the hand clears
    set bits as it passes and evicts the first key found with a clear bit.
    The bits live in a bytearray indexed by arena slot.
    """

    name = "clock"

    def __init__(self) -> None:
        self.slots: dict[Key, int] = {}
        self._ring: list[Key] = []
        self._ref = bytearray()
        self._hand = 0

    def admit(self, key: Key, slot: int) -> None:
        if key not in self.slots:
            # New keys join just behind the hand, so the full sweep passes
            # them last (standard CLOCK insertion order).
            self._ring.insert(self._hand, key)
            self._hand += 1
        self.slots[key] = slot
        if slot >= len(self._ref):
            self._ref.extend(bytes(slot + 1 - len(self._ref)))
        self._ref[slot] = 1

    def touch(self, key: Key) -> None:
        self._ref[self.slots[key]] = 1

    def evict(self) -> tuple[Key, int]:
        if not self._ring:
            raise ConfigurationError("evict() on an empty replacement policy")
        ring, ref = self._ring, self._ref
        while True:
            if self._hand >= len(ring):
                self._hand = 0
            key = ring[self._hand]
            slot = self.slots[key]
            if ref[slot]:
                ref[slot] = 0
                self._hand += 1
            else:
                del ring[self._hand]
                del self.slots[key]
                return key, slot

    def discard(self, key: Key) -> int | None:
        slot = self.slots.pop(key, None)
        if slot is None:
            return None
        index = self._ring.index(key)
        del self._ring[index]
        if index < self._hand:
            self._hand -= 1
        return slot


POLICY_NAMES = ("lru", "mru", "clock")
_POLICIES = {"lru": LRUPolicy, "mru": MRUPolicy, "clock": ClockPolicy}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``mru``/``clock``)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {POLICY_NAMES}"
        ) from None
