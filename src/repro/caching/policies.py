"""Replacement policies for the dynamic client buffer cache.

A policy tracks the set of resident page keys and answers one question:
which key goes next?  Everything is deterministic -- the eviction order is
a pure function of the admit/touch history, so two runs that issue the
same reference stream produce byte-identical eviction sequences (asserted
in ``tests/caching``).

LRU is the sensible default for the paper's sequential scan streams at
full-database capacity (nothing ever evicts); MRU is the classic antidote
to sequential flooding when a relation does *not* fit (evicting the page
just used keeps the head of the scan resident across re-scans); CLOCK is
the cheap second-chance approximation of LRU that real buffer managers
ship.
"""

from __future__ import annotations

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

#: Page key: (relation name, page index within the relation).
Key = tuple[str, int]


class ReplacementPolicy:
    """Interface: track resident keys, pick eviction victims."""

    name = "?"

    def admit(self, key: Key) -> None:
        """A new key became resident."""
        raise NotImplementedError

    def touch(self, key: Key) -> None:
        """A resident key was referenced (cache hit)."""
        raise NotImplementedError

    def evict(self) -> Key:
        """Choose, remove, and return the next victim."""
        raise NotImplementedError

    def discard(self, key: Key) -> None:
        """Forget a key without electing it (consistency invalidation)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} resident={len(self)}>"


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used key."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[Key, None]" = OrderedDict()

    def admit(self, key: Key) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def touch(self, key: Key) -> None:
        self._order.move_to_end(key)

    def evict(self) -> Key:
        if not self._order:
            raise ConfigurationError("evict() on an empty replacement policy")
        key, _ = self._order.popitem(last=False)
        return key

    def discard(self, key: Key) -> None:
        self._order.pop(key, None)

    def __len__(self) -> int:
        return len(self._order)


class MRUPolicy(LRUPolicy):
    """Evict the *most* recently used key (anti-sequential-flooding)."""

    name = "mru"

    def evict(self) -> Key:
        if not self._order:
            raise ConfigurationError("evict() on an empty replacement policy")
        key, _ = self._order.popitem(last=True)
        return key


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: a hand sweeps a ring of reference bits.

    Admitted and touched keys get their reference bit set; the hand clears
    set bits as it passes and evicts the first key found with a clear bit.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ring: list[Key] = []
        self._ref: dict[Key, bool] = {}
        self._hand = 0

    def admit(self, key: Key) -> None:
        if key not in self._ref:
            # New keys join just behind the hand, so the full sweep passes
            # them last (standard CLOCK insertion order).
            self._ring.insert(self._hand, key)
            self._hand += 1
        self._ref[key] = True

    def touch(self, key: Key) -> None:
        self._ref[key] = True

    def evict(self) -> Key:
        if not self._ring:
            raise ConfigurationError("evict() on an empty replacement policy")
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
