"""Incremental cost evaluation: bit-identical to the naive walk, cheaper."""

import random

from repro.config import OptimizerConfig
from repro.costmodel.model import CostModel, Objective
from repro.optimizer import RandomizedOptimizer
from repro.optimizer.random_plans import random_plan
from repro.optimizer.space import random_neighbor
from repro.plans.policies import Policy
from repro.workloads.scenarios import chain_scenario


def _neighbor_chain(scenario, policy, seed, length):
    """A plan followed by a chain of random neighbours (shared subtrees)."""
    rng = random.Random(seed)
    plan = random_plan(scenario.query, policy, rng)
    plans = [plan]
    while len(plans) < length:
        neighbor = random_neighbor(plan, scenario.query, policy, rng)
        if neighbor is not None:
            plan = neighbor
            plans.append(plan)
    return plans


class TestBitIdentical:
    def test_matches_naive_walk_exactly(self):
        """Memoized evaluation must equal the full walk bit for bit."""
        scenario = chain_scenario(num_relations=4, num_servers=2, cached_fraction=0.5)
        environment = scenario.environment()
        incremental = CostModel(scenario.query, environment)
        naive = CostModel(scenario.query, environment, incremental=False)
        for policy in (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING):
            for plan in _neighbor_chain(scenario, policy, seed=7, length=40):
                fast = incremental.evaluate(plan)
                slow = naive.evaluate(plan)
                assert fast == slow


class TestFewerVisits:
    def test_repeated_plan_is_free(self):
        scenario = chain_scenario(num_relations=3)
        model = CostModel(scenario.query, scenario.environment())
        plan = random_plan(scenario.query, Policy.HYBRID_SHIPPING, random.Random(1))
        model.evaluate(plan)
        visits = model.node_visits
        model.evaluate(plan)
        assert model.node_visits == visits

    def test_2po_run_visits_drop_at_least_30_percent(self):
        """The headline win: a full 2PO run touches far fewer cost nodes."""
        scenario = chain_scenario(num_relations=3, cached_fraction=0.5)
        visits = {}
        for incremental in (False, True):
            optimizer = RandomizedOptimizer(
                scenario.query,
                scenario.environment(),
                policy=Policy.HYBRID_SHIPPING,
                objective=Objective.RESPONSE_TIME,
                config=OptimizerConfig.fast(),
                seed=3,
            )
            optimizer.cost_model = CostModel(
                scenario.query, scenario.environment(), incremental=incremental
            )
            result = optimizer.optimize()
            visits[incremental] = optimizer.cost_model.node_visits
            assert result.evaluations > 0
        assert visits[True] <= 0.7 * visits[False]
