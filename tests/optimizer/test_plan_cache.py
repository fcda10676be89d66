"""Plan cache: semantic transparency, pass-level reuse, and invalidation."""

import pytest

from repro.config import OptimizerConfig
from repro.costmodel.model import Objective
from repro.optimizer import PlanCache, RandomizedOptimizer, plan_fingerprint
from repro.optimizer import cache as cache_module
from repro.optimizer.random_plans import PlanShape, random_plan
from repro.plans.policies import Policy
from repro.workload import StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario

import random

POLICIES = (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING)
OBJECTIVES = (Objective.RESPONSE_TIME, Objective.PAGES_SENT)
SEEDS = (3, 7, 11)


def _optimize(scenario, policy, objective, seed, cache):
    return RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=policy,
        objective=objective,
        config=OptimizerConfig.fast(),
        seed=seed,
        plan_cache=cache,
    ).optimize()


class TestTransparency:
    def test_cached_equals_uncached_across_grid(self):
        """Property: caching never changes the chosen plan or its cost."""
        scenario = chain_scenario(num_relations=3, cached_fraction=0.5)
        cache = PlanCache()
        for policy in POLICIES:
            for objective in OBJECTIVES:
                for seed in SEEDS:
                    plain = _optimize(scenario, policy, objective, seed, None)
                    warm = _optimize(scenario, policy, objective, seed, cache)
                    hit = _optimize(scenario, policy, objective, seed, cache)
                    assert warm.plan == plain.plan
                    assert warm.cost == plain.cost
                    assert hit.plan == plain.plan
                    assert hit.cost == plain.cost
        assert cache.stats.hits >= len(POLICIES) * len(OBJECTIVES) * len(SEEDS)

    def test_throughput_sweep_with_cache_matches_uncached(self, monkeypatch):
        """A cached multi-client workload reproduces the uncached numbers."""
        import functools

        from repro.experiments import figures, throughput_sweep
        from repro.experiments.runner import RunSettings

        plain = throughput_sweep(RunSettings(seeds=(3,)), client_counts=(1, 2))
        # Every run of the sweep plans against one shared cache: cold on the
        # first sweep, warm from it on the second.
        shared = PlanCache()
        monkeypatch.setattr(
            figures, "WorkloadRunner",
            functools.partial(WorkloadRunner, plan_cache=shared),
        )
        for _ in range(2):
            cached = throughput_sweep(RunSettings(seeds=(3,)), client_counts=(1, 2))
            assert cached.series == plain.series
        assert shared.stats.hits > 0
        monkeypatch.undo()

        # A workload run with an explicit cache -- cold, then warm from the
        # run before -- equals one on the run's own cache, in both modes.
        scenario = chain_scenario(num_relations=3, cached_fraction=0.5)
        stream = StreamConfig(arrival="closed", queries_per_client=2)
        for mode in ("static", "dynamic"):
            shared = PlanCache()
            own, cold, warm = (
                WorkloadRunner(
                    scenario, Policy.HYBRID_SHIPPING, num_clients=2,
                    stream=stream, seed=3, plan_cache=plan_cache, cache=mode,
                ).run()
                for plan_cache in (None, shared, shared)
            )
            assert cold == own
            assert warm == own
            assert shared.stats.hits > 0

    def test_full_run_hit_does_no_search(self):
        scenario = chain_scenario(num_relations=2)
        cache = PlanCache()
        _optimize(scenario, Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 3, cache)
        opt = RandomizedOptimizer(
            scenario.query,
            scenario.environment(),
            policy=Policy.HYBRID_SHIPPING,
            config=OptimizerConfig.fast(),
            seed=3,
            plan_cache=cache,
        )
        result = opt.optimize()
        assert opt.evaluations == 0
        assert result.evaluations == 0


class TestSubspaceReuse:
    def test_hybrid_reuses_pure_subspace_passes(self):
        """Standalone DS/QS passes pre-warm a hybrid run with the same seed."""
        scenario = chain_scenario(num_relations=2, cached_fraction=0.5)
        cache = PlanCache()
        _optimize(scenario, Policy.QUERY_SHIPPING, Objective.RESPONSE_TIME, 3, cache)
        _optimize(scenario, Policy.DATA_SHIPPING, Objective.RESPONSE_TIME, 3, cache)
        before = cache.stats.hits
        hybrid = _optimize(scenario, Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 3, cache)
        assert cache.stats.hits - before == 2
        plain = _optimize(scenario, Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 3, None)
        assert hybrid.plan == plain.plan
        assert hybrid.cost == plain.cost


class TestInvalidation:
    def test_forced_client_relations_change_the_key(self):
        """Replans around a crashed site never reuse the unconstrained plan."""
        scenario = chain_scenario(num_relations=2)
        environment = scenario.environment()
        config = OptimizerConfig.fast()
        relation = sorted(scenario.query.relations)[0]
        plain = plan_fingerprint(
            scenario.query, environment, Policy.HYBRID_SHIPPING,
            Objective.RESPONSE_TIME, config, 0, PlanShape.ANY, False, frozenset(),
        )
        constrained = plan_fingerprint(
            scenario.query, environment, Policy.HYBRID_SHIPPING,
            Objective.RESPONSE_TIME, config, 0, PlanShape.ANY, False,
            frozenset({relation}),
        )
        assert plain != constrained

    def test_environment_change_changes_the_key(self):
        """Cached fractions key the plan, also a per-client override:
        the catalog copy a client plans against carries its fractions."""
        from repro.costmodel.model import EnvironmentState

        config = OptimizerConfig.fast()
        cold = chain_scenario(num_relations=2, cached_fraction=0.0)
        warm = chain_scenario(num_relations=2, cached_fraction=0.5)
        environments = [cold.environment(), warm.environment()]
        for override in ({"R0": 0.5}, {"R0": 0.5, "R1": 0.25}):
            environments.append(
                EnvironmentState(cold.catalog.with_cache(override), cold.config, {})
            )
        keys = {
            plan_fingerprint(
                cold.query, environment, Policy.HYBRID_SHIPPING,
                Objective.RESPONSE_TIME, config, 0, PlanShape.ANY, False, frozenset(),
            )
            for environment in environments
        }
        assert len(keys) == 4

    def test_dynamic_cache_state_changes_the_key(self):
        """A warming buffer cache stops stale plans from hitting."""
        from dataclasses import replace

        from repro.caching import CacheConfig, CacheState
        from repro.costmodel.model import EnvironmentState

        scenario = chain_scenario(num_relations=2)
        config = OptimizerConfig.fast()
        # A live snapshot: the pages one data-shipping query faulted in.
        dynamic = replace(
            scenario, config=replace(scenario.config, cache=CacheConfig(mode="dynamic"))
        )
        plan = _optimize(dynamic, Policy.DATA_SHIPPING, Objective.RESPONSE_TIME, 0, None)
        live = dynamic.execute(plan.plan).cache_state
        assert live.resident
        keys = set()
        for state in (
            None,
            CacheState(capacity_pages=500),
            CacheState(capacity_pages=500, resident=(("R0", 10),)),
            live,
        ):
            environment = EnvironmentState(
                scenario.catalog, scenario.config, {}, cache_state=state
            )
            keys.add(
                plan_fingerprint(
                    scenario.query, environment, Policy.HYBRID_SHIPPING,
                    Objective.RESPONSE_TIME, config, 0, PlanShape.ANY, False,
                    frozenset(),
                )
            )
        assert len(keys) == 4

    def test_counters_alone_do_not_change_the_key(self):
        """Plans depend on what is resident, not on the hit/miss history --
        a stream whose resident set stabilised keeps planning from cache."""
        from repro.caching import CacheState
        from repro.costmodel.model import EnvironmentState

        scenario = chain_scenario(num_relations=2)
        config = OptimizerConfig.fast()
        keys = set()
        for hits in (0, 100):
            state = CacheState(
                capacity_pages=500, resident=(("R0", 10),), hits=hits
            )
            environment = EnvironmentState(
                scenario.catalog, scenario.config, {}, cache_state=state
            )
            keys.add(
                plan_fingerprint(
                    scenario.query, environment, Policy.HYBRID_SHIPPING,
                    Objective.RESPONSE_TIME, config, 0, PlanShape.ANY, False,
                    frozenset(),
                )
            )
        assert len(keys) == 1

    def test_initial_plan_bypasses_the_cache(self):
        scenario = chain_scenario(num_relations=2)
        cache = PlanCache()
        start = random_plan(scenario.query, Policy.HYBRID_SHIPPING, random.Random(0))
        RandomizedOptimizer(
            scenario.query,
            scenario.environment(),
            config=OptimizerConfig.fast(),
            seed=0,
            initial_plan=start,
            plan_cache=cache,
        ).optimize()
        assert len(cache) == 0
        assert cache.stats.lookups == 0


class TestMechanics:
    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache = PlanCache()
        scenario = chain_scenario(num_relations=2)
        plan = _optimize(scenario, Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 0, None)
        for key in ("a", "b", "c"):
            cache.put(key, plan.plan, plan.cost)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("c") is not None

    def test_stats_and_clear(self):
        cache = PlanCache()
        assert cache.get("missing") is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.0)
        scenario = chain_scenario(num_relations=2)
        r = _optimize(scenario, Policy.DATA_SHIPPING, Objective.RESPONSE_TIME, 0, None)
        cache.put("k", r.plan, r.cost)
        assert cache.get("k") == (r.plan, r.cost)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
