"""Client stream tests, driven with stub sessions of known durations."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.workload import ClientStream, StreamConfig


class StubSession:
    """A fake Session that runs for a fixed simulated duration."""

    def __init__(self, env, ordinal, index, duration, log):
        self.env = env
        self.ordinal = ordinal
        self.index = index
        self.duration = duration
        self.log = log

    def run(self):
        self.log.append(("start", self.ordinal, self.index, self.env.now))
        yield self.env.timeout(self.duration)
        self.log.append(("end", self.ordinal, self.index, self.env.now))
        return (self.ordinal, self.index, self.env.now)


def make_launch(env, log, duration=2.0):
    def launch(ordinal, index):
        return StubSession(env, ordinal, index, duration, log)

    return launch


class TestConfig:
    def test_unknown_arrival(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(arrival="bursty")

    def test_open_needs_positive_rate(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(arrival="open", rate=0.0)

    def test_negative_think_time(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(think_time=-1.0)

    def test_at_least_one_query(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(queries_per_client=0)


class TestClosedStream:
    def test_zero_think_time_runs_back_to_back(self, env):
        log = []
        config = StreamConfig(arrival="closed", think_time=0.0, queries_per_client=3)
        stream = ClientStream(env, 0, config, seed=1, launch=make_launch(env, log))
        env.run(until=env.process(stream.run()))
        # Strictly serial: each query starts exactly when the previous ends.
        starts = [t for kind, _, _, t in log if kind == "start"]
        assert starts == [0.0, 2.0, 4.0]
        assert [r[1] for r in stream.results] == [0, 1, 2]

    def test_think_time_spaces_queries(self, env):
        log = []
        config = StreamConfig(arrival="closed", think_time=5.0, queries_per_client=3)
        stream = ClientStream(env, 0, config, seed=1, launch=make_launch(env, log))
        env.run(until=env.process(stream.run()))
        starts = [t for kind, _, _, t in log if kind == "start"]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap > 2.0 for gap in gaps)  # 2.0 service + nonzero think

    def test_at_most_one_in_flight(self, env):
        log = []
        config = StreamConfig(arrival="closed", queries_per_client=4)
        stream = ClientStream(env, 0, config, seed=1, launch=make_launch(env, log))
        env.run(until=env.process(stream.run()))
        in_flight = 0
        for kind, *_ in log:
            in_flight += 1 if kind == "start" else -1
            assert 0 <= in_flight <= 1


class TestOpenStream:
    def test_arrivals_overlap_when_service_exceeds_gap(self, env):
        log = []
        # Mean interarrival 1/5 s << 2 s service: sessions must overlap.
        config = StreamConfig(arrival="open", rate=5.0, queries_per_client=5)
        stream = ClientStream(env, 0, config, seed=1, launch=make_launch(env, log))
        env.run(until=env.process(stream.run()))
        peak = in_flight = 0
        for kind, *_ in sorted(log, key=lambda entry: (entry[3], entry[0] == "start")):
            in_flight += 1 if kind == "start" else -1
            peak = max(peak, in_flight)
        assert peak >= 2
        assert len(stream.results) == 5

    def test_results_in_submission_order(self, env):
        log = []
        config = StreamConfig(arrival="open", rate=5.0, queries_per_client=4)
        stream = ClientStream(env, 0, config, seed=1, launch=make_launch(env, log))
        env.run(until=env.process(stream.run()))
        assert [r[1] for r in stream.results] == [0, 1, 2, 3]


class TestDeterminism:
    def arrivals(self, env_factory, ordinal, seed):
        from repro.sim import Environment

        env = Environment()
        log = []
        config = StreamConfig(arrival="open", rate=1.0, queries_per_client=4)
        stream = ClientStream(env, ordinal, config, seed=seed, launch=make_launch(env, log))
        env.run(until=env.process(stream.run()))
        return [t for kind, _, _, t in log if kind == "start"]

    def test_same_seed_same_arrivals(self):
        assert self.arrivals(None, 0, seed=9) == self.arrivals(None, 0, seed=9)

    def test_clients_have_independent_streams(self):
        assert self.arrivals(None, 0, seed=9) != self.arrivals(None, 1, seed=9)

    def test_seed_changes_arrivals(self):
        assert self.arrivals(None, 0, seed=9) != self.arrivals(None, 0, seed=10)


class TestArrivalRng:
    """The arrival RNG exists only where the stream draws from it."""

    def run(self, config, ordinal=2, seed=9):
        from repro.sim import Environment

        env = Environment()
        log = []
        stream = ClientStream(env, ordinal, config, seed=seed, launch=make_launch(env, log))
        env.run(until=env.process(stream.run()))
        return stream, [t for kind, _, _, t in log if kind == "start"]

    def test_closed_zero_think_stream_has_no_rng(self):
        stream, starts = self.run(StreamConfig(arrival="closed", queries_per_client=3))
        assert stream.rng is None
        assert starts == [0.0, 2.0, 4.0]

    def test_open_stream_draws_from_the_client_seed(self):
        reference = random.Random("9:client2:stream")
        expected, now = [], 0.0
        for _ in range(4):
            now += reference.expovariate(1.5)
            expected.append(now)
        _, starts = self.run(StreamConfig(arrival="open", rate=1.5, queries_per_client=4))
        assert starts == expected

    def test_thinking_stream_draws_from_the_client_seed(self):
        reference = random.Random("9:client2:stream")
        expected, now = [0.0], 0.0
        for _ in range(3):
            now += 2.0  # the stub session's service time
            now += reference.expovariate(1.0 / 5.0)
            expected.append(now)
        config = StreamConfig(arrival="closed", think_time=5.0, queries_per_client=4)
        _, starts = self.run(config)
        assert starts == expected
