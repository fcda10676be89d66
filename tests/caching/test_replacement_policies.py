"""Replacement policies: behaviour and byte-identical determinism."""

import random

import pytest

from repro.caching.policies import (
    POLICY_NAMES,
    ClockPolicy,
    LRUPolicy,
    MRUPolicy,
    make_policy,
)
from repro.errors import ConfigurationError


def key(i):
    return ("R", i)


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        for i in range(3):
            policy.admit(key(i), i)
        assert policy.evict() == (key(0), 0)
        assert policy.evict() == (key(1), 1)

    def test_touch_refreshes_recency(self):
        policy = LRUPolicy()
        for i in range(3):
            policy.admit(key(i), i)
        policy.touch(key(0))
        assert policy.evict() == (key(1), 1)

    def test_evict_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy().evict()


class TestMRU:
    def test_evicts_most_recently_used(self):
        policy = MRUPolicy()
        for i in range(3):
            policy.admit(key(i), i)
        assert policy.evict() == (key(2), 2)

    def test_touch_marks_the_victim(self):
        policy = MRUPolicy()
        for i in range(3):
            policy.admit(key(i), i)
        policy.touch(key(0))
        assert policy.evict() == (key(0), 0)


class TestClock:
    def test_second_chance_spares_referenced_keys(self):
        policy = ClockPolicy()
        for i in range(3):
            policy.admit(key(i), i)
        # All reference bits are set: the first sweep clears 0..2, wraps,
        # and evicts key 0 -- FIFO when nothing was touched since admission.
        assert policy.evict() == (key(0), 0)

    def test_touched_key_survives_a_sweep(self):
        policy = ClockPolicy()
        for i in range(3):
            policy.admit(key(i), i)
        policy.evict()  # clears every bit, evicts key 0
        policy.touch(key(1))
        assert policy.evict() == (key(2), 2)

    def test_evict_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ClockPolicy().evict()

    def test_discard_behind_the_hand_keeps_its_position(self):
        policy = ClockPolicy()
        for i in range(4):
            policy.admit(key(i), i)
        assert policy.evict() == (key(0), 0)  # the sweep clears every bit
        policy.admit(key(4), 0)
        policy.admit(key(5), 4)
        # Ring: 4 5 1 2 3, hand on key 1 (bit clear).  Dropping key 4,
        # behind the hand, must leave the hand on key 1.
        assert policy.discard(key(4)) == 0
        assert policy.evict() == (key(1), 1)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_discard_returns_the_slot_once(name):
    policy = make_policy(name)
    policy.admit(key(0), 7)
    assert policy.discard(key(0)) == 7
    assert policy.discard(key(0)) is None
    assert len(policy) == 0


class TestFactory:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("arc")


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_eviction_sequence_is_deterministic(name):
    """Same reference stream, same policy => byte-identical victim order."""

    def run():
        policy = make_policy(name)
        rng = random.Random(17)
        resident = set()
        victims = []
        for _ in range(400):
            k = key(rng.randrange(40))
            if k in resident:
                policy.touch(k)
            else:
                slot = len(resident)
                if len(resident) >= 16:
                    victim, slot = policy.evict()
                    resident.discard(victim)
                    victims.append(victim)
                policy.admit(k, slot)
                resident.add(k)
            assert len(policy) == len(resident)
        return victims

    first, second = run(), run()
    assert first == second
    assert len(first) > 0
