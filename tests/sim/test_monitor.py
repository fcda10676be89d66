"""Unit tests for the statistics collectors."""

import pytest

from repro.sim import Counter, EventHistory, Tally, UtilizationMonitor


class TestCounter:
    def test_add(self):
        counter = Counter("pages")
        counter.add()
        counter.add(4)
        assert counter.value == 5
        assert int(counter) == 5

    def test_cannot_decrease(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.add(-1)


class TestTally:
    def test_mean_and_extrema(self):
        tally = Tally()
        for sample in (2.0, 4.0, 6.0):
            tally.record(sample)
        assert tally.mean == pytest.approx(4.0)
        assert tally.minimum == 2.0
        assert tally.maximum == 6.0
        assert tally.count == 3

    def test_variance_matches_numpy_definition(self):
        tally = Tally()
        samples = [1.0, 2.0, 3.0, 4.0]
        for sample in samples:
            tally.record(sample)
        mean = sum(samples) / 4
        expected = sum((s - mean) ** 2 for s in samples) / 3
        assert tally.variance == pytest.approx(expected)
        assert tally.stddev == pytest.approx(expected**0.5)

    def test_empty_tally_is_safe(self):
        tally = Tally()
        assert tally.mean == 0.0
        assert tally.variance == 0.0


class TestUtilizationMonitor:
    def test_busy_fraction(self, env):
        monitor = UtilizationMonitor(env)

        def worker():
            monitor.busy()
            yield env.timeout(3.0)
            monitor.idle()
            yield env.timeout(1.0)

        env.run(until=env.process(worker()))
        assert monitor.utilization() == pytest.approx(0.75)

    def test_idempotent_transitions(self, env):
        monitor = UtilizationMonitor(env)
        monitor.busy()
        monitor.busy()
        env.run(until=env.timeout(2.0))
        monitor.idle()
        monitor.idle()
        assert monitor.busy_time == pytest.approx(2.0)

    def test_open_busy_interval_counted(self, env):
        monitor = UtilizationMonitor(env)
        monitor.busy()
        env.run(until=env.timeout(4.0))
        assert monitor.utilization() == pytest.approx(1.0)

    def test_zero_time_utilization(self, env):
        monitor = UtilizationMonitor(env)
        assert monitor.utilization() == 0.0


class TestTallyAgainstNumpy:
    """Welford accumulation must match numpy's batch formulas."""

    def test_statistics_match_numpy(self):
        numpy = pytest.importorskip("numpy")
        rng = __import__("random").Random(7)
        samples = [rng.expovariate(0.2) for _ in range(500)]
        tally = Tally()
        for sample in samples:
            tally.record(sample)
        assert tally.mean == pytest.approx(float(numpy.mean(samples)))
        assert tally.variance == pytest.approx(float(numpy.var(samples, ddof=1)))
        assert tally.stddev == pytest.approx(float(numpy.std(samples, ddof=1)))
        assert tally.minimum == pytest.approx(float(numpy.min(samples)))
        assert tally.maximum == pytest.approx(float(numpy.max(samples)))


class TestUtilizationMonitorInterleavings:
    def test_two_processes_share_one_monitor(self, env):
        """busy()/idle() from interleaved processes: the monitor tracks the
        union of busy intervals, not per-caller time."""
        monitor = UtilizationMonitor(env)

        def phase(start, duration):
            yield env.timeout(start)
            monitor.busy()
            yield env.timeout(duration)
            monitor.idle()

        # [1,3) and [2,5): overlapping busy claims -> idempotent busy();
        # the first idle() at t=3 closes the interval (transitions are
        # boolean, not reference-counted -- documented on the monitor).
        first = env.process(phase(1.0, 2.0))
        second = env.process(phase(2.0, 3.0))

        def driver():
            yield first
            yield second
            yield env.timeout(1.0)

        env.run(until=env.process(driver()))
        assert env.now == pytest.approx(6.0)
        assert monitor.busy_time == pytest.approx(2.0)  # [1,3)
        assert monitor.utilization() == pytest.approx(2.0 / 6.0)

    def test_open_interval_in_elapsed_busy_time(self, env):
        monitor = UtilizationMonitor(env)

        def worker():
            yield env.timeout(1.0)
            monitor.busy()
            yield env.timeout(3.0)

        env.run(until=env.process(worker()))
        assert monitor.is_busy
        # busy_time excludes the open interval; elapsed_busy_time includes it.
        assert monitor.busy_time == pytest.approx(0.0)
        assert monitor.elapsed_busy_time() == pytest.approx(3.0)
        assert monitor.utilization() == pytest.approx(0.75)

    def test_explicit_elapsed_horizon(self, env):
        monitor = UtilizationMonitor(env)
        monitor.busy()
        env.run(until=env.timeout(2.0))
        monitor.idle()
        assert monitor.utilization(8.0) == pytest.approx(0.25)

    def test_rapid_zero_length_toggles(self, env):
        monitor = UtilizationMonitor(env)

        def worker():
            for _ in range(3):
                monitor.busy()
                monitor.idle()
            monitor.busy()
            yield env.timeout(1.0)
            monitor.idle()
            yield env.timeout(1.0)

        env.run(until=env.process(worker()))
        assert monitor.busy_time == pytest.approx(1.0)
        assert monitor.utilization() == pytest.approx(0.5)


class TestUnifiedUtilizationSemantics:
    """Resource and RequestPool both delegate to UtilizationMonitor, so all
    three agree on the env.now == 0 edge case and on open intervals."""

    def test_all_report_zero_at_time_zero(self, env):
        from repro.sim import RequestPool, Resource

        resource = Resource(env)
        pool = RequestPool(env)
        monitor = UtilizationMonitor(env)
        assert resource.utilization() == 0.0
        assert pool.utilization() == 0.0
        assert monitor.utilization() == 0.0

    def test_resource_matches_its_monitor(self, env):
        from repro.sim import Resource

        resource = Resource(env)

        def worker():
            yield from resource.serve(3.0)
            yield env.timeout(1.0)

        env.run(until=env.process(worker()))
        assert resource.busy_time == pytest.approx(3.0)
        assert resource.utilization() == pytest.approx(0.75)
        assert resource.utilization() == resource.monitor.utilization()

    def test_pool_busy_while_items_pending(self, env):
        from repro.sim import RequestPool

        pool = RequestPool(env)

        def producer():
            yield env.timeout(1.0)
            pool.put("a")

        def consumer():
            yield pool.wait_for_item()
            yield env.timeout(2.0)  # item sits in the pool while "serving"
            pool.take(lambda items: items[0])
            yield env.timeout(1.0)

        env.process(producer())
        env.run(until=env.process(consumer()))
        assert pool.utilization() == pytest.approx(2.0 / 4.0)


class TestEventHistory:
    def test_equal_streams_are_equal(self):
        a, b = EventHistory(), EventHistory()
        assert a == b
        for history in (a, b):
            history.record(0.5, "grant", "join#0@server1", 40)
            history.record(1.25, "spill", "join#0@server1", 3)
        assert a.count == b.count == 2
        assert a == b
        assert a.hexdigest() == b.hexdigest()

    def test_one_changed_field_changes_the_digest(self):
        a, b = EventHistory(), EventHistory()
        a.record(0.5, "spill", "join#0@server1", 3)
        b.record(0.5, "spill", "join#0@server1", 4)
        assert a.count == b.count
        assert a != b

    def test_order_and_framing_matter(self):
        a, b = EventHistory(), EventHistory()
        a.record("x", 1)
        a.record("y", 2)
        b.record("y", 2)
        b.record("x", 1)
        assert a != b
        c, d = EventHistory(), EventHistory()
        c.record("ab", "c")
        d.record("a", "bc")
        assert c != d

    def test_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(EventHistory())
