"""Unit tests for bounded channels (pipelined page shipping)."""

import gc
import weakref

import pytest

from repro.sim import Channel, ChannelClosed


def test_put_then_get(env):
    channel = Channel(env, capacity=2)

    def producer():
        yield channel.put("x")
        yield channel.put("y")

    def consumer():
        first = yield channel.get()
        second = yield channel.get()
        return [first, second]

    env.process(producer())
    process = env.process(consumer())
    assert env.run(until=process) == ["x", "y"]


def test_capacity_blocks_producer(env):
    channel = Channel(env, capacity=1)
    timeline = []

    def producer():
        for i in range(3):
            yield channel.put(i)
            timeline.append(("put", i, env.now))

    def consumer():
        for _ in range(3):
            item = yield channel.get()
            timeline.append(("got", item, env.now))
            yield env.timeout(1.0)

    env.process(producer())
    process = env.process(consumer())
    env.run(until=process)
    puts = [entry for entry in timeline if entry[0] == "put"]
    # One page buffered ahead: the producer stays exactly one item ahead.
    assert puts[0][2] == 0.0
    assert puts[1][2] == 0.0  # fills the buffer slot
    assert puts[2][2] == 1.0  # blocked until the consumer frees a slot


def test_get_blocks_until_put(env):
    channel = Channel(env, capacity=1)

    def consumer():
        item = yield channel.get()
        return (item, env.now)

    def producer():
        yield env.timeout(5.0)
        yield channel.put("late")

    process = env.process(consumer())
    env.process(producer())
    assert env.run(until=process) == ("late", 5.0)


def test_close_drains_buffer_then_fails(env):
    channel = Channel(env, capacity=4)

    def producer():
        yield channel.put(1)
        yield channel.put(2)
        channel.close()

    def consumer():
        received = []
        while True:
            try:
                received.append((yield channel.get()))
            except ChannelClosed:
                return received

    env.process(producer())
    process = env.process(consumer())
    assert env.run(until=process) == [1, 2]


def test_close_wakes_blocked_getter(env):
    channel = Channel(env, capacity=1)

    def consumer():
        try:
            yield channel.get()
        except ChannelClosed:
            return "closed"
        return "got"

    process = env.process(consumer())

    def closer():
        yield env.timeout(1.0)
        channel.close()

    env.process(closer())
    assert env.run(until=process) == "closed"


def test_put_on_closed_channel_raises(env):
    channel = Channel(env, capacity=1)
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.put("too late")


def test_items_passed_counter(env):
    channel = Channel(env, capacity=2)

    def producer():
        for i in range(5):
            yield channel.put(i)
        channel.close()

    def consumer():
        while True:
            try:
                yield channel.get()
            except ChannelClosed:
                return

    env.process(producer())
    env.run(until=env.process(consumer()))
    assert channel.items_passed == 5


def test_invalid_capacity(env):
    with pytest.raises(ValueError):
        Channel(env, capacity=0)


def test_fifo_order_under_pressure(env):
    channel = Channel(env, capacity=1)
    received = []

    def producer():
        for i in range(10):
            yield channel.put(i)
        channel.close()

    def consumer():
        while True:
            try:
                received.append((yield channel.get()))
            except ChannelClosed:
                return
            if len(received) % 3 == 0:
                yield env.timeout(0.1)

    env.process(producer())
    env.run(until=env.process(consumer()))
    assert received == list(range(10))


def test_finished_consumer_of_closed_channel_is_freed_by_refcount(env):
    """A consumer ending on ChannelClosed keeps no reference to its last event.

    The failed get holds the exception, whose traceback holds the
    consumer's frame, whose locals reach back to the process (here through
    ``receiver``, as an exchange receiver does): unless the finished process
    drops that event, the cycle survives until a cyclic GC pass.
    """
    channel = Channel(env, capacity=1)

    class Receiver:
        process = None

    def consume(receiver):
        while True:
            try:
                yield channel.get()
            except ChannelClosed:
                return "closed"

    def closer():
        yield env.timeout(1.0)
        channel.close()
        # Resumed last, so the environment's active-process pointer has
        # moved off the consumer by the time the run ends.
        yield env.timeout(1.0)

    receiver = Receiver()
    receiver.process = env.process(consume(receiver))
    env.process(closer())
    env.run()
    process = receiver.process
    assert not process.is_alive
    assert process._waiting_on is None
    ref = weakref.ref(process)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        del process, receiver
        assert ref() is None
    finally:
        if gc_was_enabled:
            gc.enable()
