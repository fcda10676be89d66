"""The sweep driver every experiment runs through."""

import functools

from repro.experiments.figures import FigureResult, _sweep, figure8, function_shipping
from repro.experiments.runner import RunSettings
from repro.optimizer import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workloads.scenarios import Scenario


def _fake_point(seed, *, x, labels):
    """Two series per point; each value encodes (x, seed) so order is visible."""
    return [(label, x, 100.0 * x + seed) for label in labels]


def _points():
    return [
        functools.partial(_fake_point, x=2.0, labels=("b", "a")),
        functools.partial(_fake_point, x=1.0, labels=("a", "c")),
    ]


def _result():
    return FigureResult("fake", "Fake", "x", "y")


def test_groups_by_label_and_x_in_first_seen_order():
    result = _sweep(_result(), _points(), seeds=(5, 3))
    assert list(result.series) == ["b", "a", "c"]
    assert [p.x for p in result.series["a"]] == [2.0, 1.0]
    assert [p.x for p in result.series["b"]] == [2.0]
    assert [p.x for p in result.series["c"]] == [1.0]


def test_one_sample_per_seed_in_seed_order():
    result = _sweep(_result(), _points(), seeds=(5, 3))
    estimate = result.series["a"][0].estimate
    assert estimate.count == 2
    assert (estimate.minimum, estimate.maximum, estimate.mean) == (203.0, 205.0, 204.0)
    single = _sweep(_result(), _points(), seeds=(7,))
    assert single.series["c"][0].estimate.count == 1
    assert single.series["c"][0].y == 107.0


def test_seeds_run_in_the_given_order():
    seen = []

    def point(seed):
        seen.append(seed)
        return [("a", 0.0, float(seed))]

    _sweep(_result(), [point, point], seeds=(11, 3, 7))
    assert seen == [11, 3, 7, 11, 3, 7]


def test_two_jobs_match_one():
    serial = _sweep(_result(), _points(), seeds=(5, 3), jobs=1)
    parallel = _sweep(_result(), _points(), seeds=(5, 3), jobs=2)
    assert parallel.series == serial.series


def test_function_shipping_simulates_each_arm_cost_and_seed_once(monkeypatch):
    calls = []
    execute = Scenario.execute

    def counting_execute(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "execute", counting_execute)
    costs, seeds = (0.0, 128_000.0), (3, 7)
    result = function_shipping(RunSettings(seeds=seeds), udf_costs=costs)
    # Three arms; one run per (arm, cost, seed) feeds both of the arm's series.
    assert len(calls) == 3 * len(costs) * len(seeds)
    assert len(result.series) == 2 * 3


def test_one_point_runs_each_pure_pass_once(monkeypatch):
    """DS, QS and HY of one (x, seed) share their search: hybrid's pure
    passes reuse the standalone DS and QS optimizations of the point."""
    calls = []
    run_2po = RandomizedOptimizer._run_2po

    def counting_run_2po(self, move_policy):
        calls.append((self.policy, move_policy))
        return run_2po(self, move_policy)

    monkeypatch.setattr(RandomizedOptimizer, "_run_2po", counting_run_2po)
    figure8(RunSettings(seeds=(3,)), server_counts=(2,))
    assert calls == [
        (Policy.DATA_SHIPPING, Policy.DATA_SHIPPING),
        (Policy.QUERY_SHIPPING, Policy.QUERY_SHIPPING),
        (Policy.HYBRID_SHIPPING, Policy.HYBRID_SHIPPING),
    ]
