"""Unit tests for FIFO resources and the selectable request pool."""

import pytest

from repro.errors import SimulationError
from repro.sim import RequestPool, Resource


class TestResource:
    def test_grant_when_free(self, env):
        resource = Resource(env, capacity=1)
        request = resource.request()
        env.run()
        assert request.processed
        assert resource.in_use == 1

    def test_fifo_queueing(self, env):
        resource = Resource(env, capacity=1)
        grant_times = {}

        def worker(name, hold):
            request = resource.request()
            yield request
            grant_times[name] = env.now
            yield env.timeout(hold)
            resource.release(request)

        env.process(worker("first", 2.0))
        env.process(worker("second", 1.0))
        env.process(worker("third", 1.0))
        env.run()
        assert grant_times == {"first": 0.0, "second": 2.0, "third": 3.0}

    def test_capacity_two_serves_in_parallel(self, env):
        resource = Resource(env, capacity=2)
        finished = []

        def worker(name):
            request = resource.request()
            yield request
            yield env.timeout(1.0)
            resource.release(request)
            finished.append((name, env.now))

        for name in ("a", "b", "c"):
            env.process(worker(name))
        env.run()
        assert finished == [("a", 1.0), ("b", 1.0), ("c", 2.0)]

    def test_serve_needs_a_single_server(self, env):
        resource = Resource(env, capacity=2)
        with pytest.raises(SimulationError, match="single server"):
            env.run(until=env.process(resource.serve(1.0)))

    def test_release_unknown_request_raises(self, env):
        resource = Resource(env, capacity=1)
        other = Resource(env, capacity=1)
        request = other.request()
        with pytest.raises(ValueError):
            resource.release(request)

    def test_release_queued_request_cancels_it(self, env):
        resource = Resource(env, capacity=1)
        holder = resource.request()
        queued = resource.request()
        resource.release(queued)  # withdraw before grant
        resource.release(holder)
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_utilization_tracks_busy_time(self, env):
        resource = Resource(env, capacity=1)

        def worker():
            yield from resource.serve(3.0)
            yield env.timeout(1.0)

        env.process(worker())
        env.run()
        assert resource.utilization() == pytest.approx(0.75)

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_completed_counter(self, env):
        resource = Resource(env, capacity=1)

        def worker():
            for _ in range(4):
                yield from resource.serve(0.5)

        env.run(until=env.process(worker()))
        assert resource.completed == 4


class TestRequestPool:
    def test_wait_fires_when_item_arrives(self, env):
        pool = RequestPool(env)
        served = []

        def consumer():
            yield pool.wait_for_item()
            served.append(pool.take(lambda items: items[0]))

        env.process(consumer())
        env.run(until=0.0)
        pool.put("job")
        env.run()
        assert served == ["job"]

    def test_wait_immediate_when_nonempty(self, env):
        pool = RequestPool(env)
        pool.put("ready")
        resumed = []

        def consumer():
            yield pool.wait_for_item()
            resumed.append(pool.take(lambda items: items[0]))

        env.process(consumer())
        env.run()
        assert resumed == ["ready"]

    def test_take_uses_chooser(self, env):
        pool = RequestPool(env)
        for item in (5, 1, 3):
            pool.put(item)
        assert pool.take(min) == 1
        assert pool.take(max) == 5
        assert len(pool) == 1

    def test_take_empty_raises(self, env):
        pool = RequestPool(env)
        with pytest.raises(LookupError):
            pool.take(lambda items: items[0])

    def test_single_consumer_enforced(self, env):
        pool = RequestPool(env)
        pool.wait_for_item()
        with pytest.raises(RuntimeError):
            pool.wait_for_item()
