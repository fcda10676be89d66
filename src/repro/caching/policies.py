"""Replacement policies for the dynamic client buffer cache.

A policy orders the buffer cache's occupied arena slots and answers one
question: which slot goes next?  It never sees page keys -- the cache
owns the page <-> slot mapping -- so its state is a few flat arrays
indexed by slot, and a resident page costs it no Python object.

Everything is deterministic: the eviction order is a pure function of the
admit/touch history, so two runs that issue the same reference stream
produce byte-identical eviction sequences (asserted in ``tests/caching``).

LRU is the sensible default for the paper's sequential scan streams at
full-database capacity (nothing ever evicts); MRU is the classic antidote
to sequential flooding when a relation does *not* fit (evicting the page
just used keeps the head of the scan resident across re-scans); CLOCK is
the cheap second-chance approximation of LRU that real buffer managers
ship.
"""

from __future__ import annotations

from array import array

from repro.errors import ConfigurationError

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "MRUPolicy",
    "ClockPolicy",
    "POLICY_NAMES",
    "make_policy",
]


class ReplacementPolicy:
    """Interface: order occupied arena slots, pick eviction victims.

    Slots are small non-negative ints.  The caller admits a slot only when
    it is free in the policy, and touches only occupied slots.
    """

    name = "?"

    def admit(self, slot: int) -> None:
        """Arena slot ``slot`` now holds a newly resident page."""
        raise NotImplementedError

    def touch(self, slot: int) -> None:
        """The page in an occupied slot was referenced (cache hit)."""
        raise NotImplementedError

    def evict(self) -> int:
        """Choose, free and return the next victim slot."""
        raise NotImplementedError

    def discard(self, slot: int) -> bool:
        """Free a slot without electing it (consistency invalidation).

        Returns whether the slot was occupied.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} resident={len(self)}>"


#: ``prev``/``next`` of a list end: no neighbour on that side.
_NIL = -1
#: ``prev`` of a slot that is not on the list.
_ABSENT = -2
_ABSENT_FILL = array("i", [_ABSENT])


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used slot.

    Recency is one doubly linked list over slots, held in two
    ``array("i")`` buffers, ``prev`` and ``next``, grown as slots are
    admitted.  ``_head`` is the least recently used slot and ``_tail`` the
    most recent one.
    """

    name = "lru"

    def __init__(self) -> None:
        self._prev = array("i")
        self._next = array("i")
        self._head = _NIL
        self._tail = _NIL
        self._count = 0

    def admit(self, slot: int) -> None:
        prev, next_ = self._prev, self._next
        missing = slot + 1 - len(prev)
        if missing > 0:
            prev.extend(_ABSENT_FILL * missing)
            next_.extend(_ABSENT_FILL * missing)
        tail = self._tail
        prev[slot] = tail
        next_[slot] = _NIL
        if tail == _NIL:
            self._head = slot
        else:
            next_[tail] = slot
        self._tail = slot
        self._count += 1

    def touch(self, slot: int) -> None:
        tail = self._tail
        if slot == tail:
            return
        prev, next_ = self._prev, self._next
        before, after = prev[slot], next_[slot]
        if before == _NIL:
            self._head = after
        else:
            next_[before] = after
        prev[after] = before
        prev[slot] = tail
        next_[slot] = _NIL
        next_[tail] = slot
        self._tail = slot

    def _unlink(self, slot: int) -> int:
        prev, next_ = self._prev, self._next
        before, after = prev[slot], next_[slot]
        if before == _NIL:
            self._head = after
        else:
            next_[before] = after
        if after == _NIL:
            self._tail = before
        else:
            prev[after] = before
        prev[slot] = _ABSENT
        self._count -= 1
        return slot

    def evict(self) -> int:
        if not self._count:
            raise ConfigurationError("evict() on an empty replacement policy")
        return self._unlink(self._head)

    def discard(self, slot: int) -> bool:
        if slot >= len(self._prev) or self._prev[slot] == _ABSENT:
            return False
        self._unlink(slot)
        return True

    def __len__(self) -> int:
        return self._count


class MRUPolicy(LRUPolicy):
    """Evict the *most* recently used slot (anti-sequential-flooding)."""

    name = "mru"

    def evict(self) -> int:
        if not self._count:
            raise ConfigurationError("evict() on an empty replacement policy")
        return self._unlink(self._tail)


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: a hand sweeps a ring of reference bits.

    Admitted and touched slots get their reference bit set; the hand clears
    set bits as it passes and evicts the first slot found with a clear bit.
    The ring is an ``array("i")`` of slots; the bits live in a bytearray
    indexed by slot.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ring = array("i")
        self._ref = bytearray()
        self._hand = 0

    def admit(self, slot: int) -> None:
        # New slots join just behind the hand, so the full sweep passes
        # them last (standard CLOCK insertion order).
        self._ring.insert(self._hand, slot)
        self._hand += 1
        if slot >= len(self._ref):
            self._ref.extend(bytes(slot + 1 - len(self._ref)))
        self._ref[slot] = 1

    def touch(self, slot: int) -> None:
        self._ref[slot] = 1

    def evict(self) -> int:
        if not self._ring:
            raise ConfigurationError("evict() on an empty replacement policy")
        ring, ref = self._ring, self._ref
        while True:
            if self._hand >= len(ring):
                self._hand = 0
            slot = ring[self._hand]
            if ref[slot]:
                ref[slot] = 0
                self._hand += 1
            else:
                del ring[self._hand]
                return slot

    def discard(self, slot: int) -> bool:
        try:
            index = self._ring.index(slot)
        except ValueError:
            return False
        del self._ring[index]
        if index < self._hand:
            self._hand -= 1
        return True

    def __len__(self) -> int:
        return len(self._ring)


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
