"""Replacement policies over arena slots: behaviour and determinism."""

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


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        for i in range(3):
            policy.admit(i)
        assert policy.evict() == 0
        assert policy.evict() == 1

    def test_touch_refreshes_recency(self):
        policy = LRUPolicy()
        for i in range(3):
            policy.admit(i)
        policy.touch(0)
        assert policy.evict() == 1

    def test_evict_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy().evict()


class TestMRU:
    def test_evicts_most_recently_used(self):
        policy = MRUPolicy()
        for i in range(3):
            policy.admit(i)
        assert policy.evict() == 2

    def test_touch_marks_the_victim(self):
        policy = MRUPolicy()
        for i in range(3):
            policy.admit(i)
        policy.touch(0)
        assert policy.evict() == 0


class TestClock:
    def test_second_chance_spares_referenced_keys(self):
        policy = ClockPolicy()
        for i in range(3):
            policy.admit(i)
        # All reference bits are set: the first sweep clears 0..2, wraps,
        # and evicts slot 0 -- FIFO when nothing was touched since admission.
        assert policy.evict() == 0

    def test_touched_key_survives_a_sweep(self):
        policy = ClockPolicy()
        for i in range(3):
            policy.admit(i)
        policy.evict()  # clears every bit, evicts slot 0
        policy.touch(1)
        assert policy.evict() == 2

    def test_evict_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ClockPolicy().evict()

    def test_discard_behind_the_hand_keeps_its_position(self):
        policy = ClockPolicy()
        for i in range(4):
            policy.admit(i)
        assert policy.evict() == 0  # the sweep clears every bit
        policy.admit(0)  # the freed slot, reused
        policy.admit(4)
        # Ring: 0 4 1 2 3, hand on slot 1 (bit clear).  Dropping slot 0,
        # behind the hand, must leave the hand on slot 1.
        assert policy.discard(0) is True
        assert policy.evict() == 1


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_discard_returns_the_slot_once(name):
    policy = make_policy(name)
    policy.admit(7)
    assert policy.discard(7) is True
    assert policy.discard(7) is False
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
        slots = {}  # resident key -> slot; the policy sees slots only
        keys = {}
        victims = []
        for _ in range(400):
            k = rng.randrange(40)
            if k in slots:
                policy.touch(slots[k])
            else:
                slot = len(slots)
                if len(slots) >= 16:
                    slot = policy.evict()
                    victim = keys.pop(slot)
                    del slots[victim]
                    victims.append(victim)
                policy.admit(slot)
                slots[k] = slot
                keys[slot] = k
            assert len(policy) == len(slots)
        return victims

    first, second = run(), run()
    assert first == second
    assert len(first) > 0
