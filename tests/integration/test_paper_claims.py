"""Integration tests: the paper's claims, end to end.

Each test runs the full pipeline (workload -> randomized optimizer ->
simulator) at a single representative experiment point and asserts the
qualitative claim the paper makes there.  The benchmark suite covers the
full sweeps; these tests guard the conclusions in the regular test run.
"""

from types import SimpleNamespace

import pytest

from repro.config import BufferAllocation, OptimizerConfig
from repro.costmodel import Objective
from repro.experiments.runner import RunSettings
from repro.experiments.stats import summarize
from repro.optimizer import optimize
from repro.plans import Policy
from repro.workloads import chain_scenario

SETTINGS = RunSettings(seeds=(3, 7), optimizer=OptimizerConfig.fast())


def two_way(cache, allocation, load=0.0):
    def factory(seed):
        return chain_scenario(
            num_relations=2,
            num_servers=1,
            allocation=allocation,
            cached_fraction=cache,
            placement_seed=seed,
            server_load=load,
        )

    return factory


def ten_way(servers, cached_relations=0):
    def factory(seed):
        return chain_scenario(
            num_relations=10,
            num_servers=servers,
            allocation=BufferAllocation.MINIMUM,
            cached_relations=cached_relations or None,
            placement_seed=seed,
        )

    return factory


def run(factory, policy, objective):
    """Optimize under the true state and simulate, per seed; summarize both metrics."""
    results = []
    for seed in SETTINGS.seeds:
        scenario = factory(seed)
        plan = optimize(
            scenario.query,
            scenario.environment(),
            policy=policy,
            objective=objective,
            config=SETTINGS.optimizer,
            seed=seed,
        ).plan
        results.append(scenario.execute(plan, seed=seed))
    return SimpleNamespace(
        response_time=summarize([r.response_time for r in results]),
        pages_sent=summarize([float(r.pages_sent) for r in results]),
    )


class TestSection421CommunicationVolume:
    def test_ds_crossover_at_half_cached(self):
        """Figure 2: DS sends less than QS exactly past 50% cached."""
        for cache, winner in ((0.25, "QS"), (0.75, "DS")):
            ds = run(two_way(cache, BufferAllocation.MINIMUM),
                     Policy.DATA_SHIPPING, Objective.PAGES_SENT)
            qs = run(two_way(cache, BufferAllocation.MINIMUM),
                     Policy.QUERY_SHIPPING, Objective.PAGES_SENT)
            better = "DS" if ds.pages_sent.mean < qs.pages_sent.mean else "QS"
            assert better == winner


class TestSection422MinimumAllocation:
    def test_qs_suffers_disk_contention(self):
        """Figure 3: QS is roughly 2x worse than hybrid's split plan."""
        qs = run(two_way(0.0, BufferAllocation.MINIMUM),
                 Policy.QUERY_SHIPPING, Objective.RESPONSE_TIME)
        hy = run(two_way(0.0, BufferAllocation.MINIMUM),
                 Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME)
        assert qs.response_time.mean > 2.0 * hy.response_time.mean

    def test_caching_degrades_ds(self):
        uncached = run(two_way(0.0, BufferAllocation.MINIMUM),
                       Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        cached = run(two_way(1.0, BufferAllocation.MINIMUM),
                     Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        assert cached.response_time.mean > 1.8 * uncached.response_time.mean

    def test_hybrid_not_forced_to_use_cache(self):
        """'Unlike DS, the HY approach is not forced to use cached data.'"""
        uncached = run(two_way(0.0, BufferAllocation.MINIMUM),
                       Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME)
        cached = run(two_way(1.0, BufferAllocation.MINIMUM),
                     Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME)
        assert cached.response_time.mean == pytest.approx(
            uncached.response_time.mean, rel=0.05
        )

    def test_loaded_server_makes_caching_valuable(self):
        """Figure 4's flip at ~90% server-disk utilization."""
        load = 70.0
        uncached = run(two_way(0.0, BufferAllocation.MINIMUM, load),
                       Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        cached = run(two_way(1.0, BufferAllocation.MINIMUM, load),
                     Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        assert cached.response_time.mean < 0.75 * uncached.response_time.mean


class TestSection423MaximumAllocation:
    def test_crossover_beyond_half(self):
        """DS still loses at exactly 50% cached (no comm/work overlap)."""
        ds = run(two_way(0.5, BufferAllocation.MAXIMUM),
                 Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        qs = run(two_way(0.5, BufferAllocation.MAXIMUM),
                 Policy.QUERY_SHIPPING, Objective.RESPONSE_TIME)
        assert qs.response_time.mean < ds.response_time.mean

    def test_ds_wins_fully_cached(self):
        ds = run(two_way(1.0, BufferAllocation.MAXIMUM),
                 Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        qs = run(two_way(1.0, BufferAllocation.MAXIMUM),
                 Policy.QUERY_SHIPPING, Objective.RESPONSE_TIME)
        assert ds.response_time.mean < qs.response_time.mean


class TestSection43TenWayJoins:
    def test_qs_communication_grows_with_servers(self):
        """Figure 6: 250 pages at one server, 2500 at ten."""
        one = run(ten_way(1), Policy.QUERY_SHIPPING, Objective.PAGES_SENT)
        ten = run(ten_way(10), Policy.QUERY_SHIPPING, Objective.PAGES_SENT)
        assert one.pages_sent.mean == 250
        assert ten.pages_sent.mean == 2500

    def test_hybrid_beats_both_with_half_cache(self):
        """Figure 7: HY sends less than DS and QS at mid-range servers."""
        factory = ten_way(3, cached_relations=5)
        results = {
            policy: run(factory, policy, Objective.PAGES_SENT).pages_sent.mean
            for policy in Policy
        }
        assert results[Policy.DATA_SHIPPING] == 1250
        assert results[Policy.HYBRID_SHIPPING] < results[Policy.DATA_SHIPPING]
        assert results[Policy.HYBRID_SHIPPING] < results[Policy.QUERY_SHIPPING]

    def test_response_time_endpoints(self):
        """Figure 8: QS worst at one server, best at ten; DS flat."""
        ds1 = run(ten_way(1), Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        ds10 = run(ten_way(10), Policy.DATA_SHIPPING, Objective.RESPONSE_TIME)
        qs1 = run(ten_way(1), Policy.QUERY_SHIPPING, Objective.RESPONSE_TIME)
        qs10 = run(ten_way(10), Policy.QUERY_SHIPPING, Objective.RESPONSE_TIME)
        assert ds10.response_time.mean == pytest.approx(ds1.response_time.mean, rel=0.05)
        assert qs1.response_time.mean > 1.5 * ds1.response_time.mean
        assert qs10.response_time.mean < 0.5 * ds10.response_time.mean
