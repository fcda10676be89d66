"""Plan cache: semantic transparency, pass-level reuse, and what keys an entry."""

import copy
import dataclasses
import gc
import random
import weakref

import pytest

from repro.config import OptimizerConfig
from repro.costmodel.model import Objective
from repro.engine.executor import QueryExecutor
from repro.hardware.site import CLIENT_SITE_ID
from repro.optimizer import PlanCache, RandomizedOptimizer
from repro.optimizer import cache as cache_module
from repro.optimizer.random_plans import PlanShape, random_plan
from repro.plans.policies import Policy
from repro.workload import StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario

POLICIES = (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING)
OBJECTIVES = (Objective.RESPONSE_TIME, Objective.PAGES_SENT)
SEEDS = (3, 7, 11)


def _optimize(query, environment, policy, objective, seed, cache, **options):
    options.setdefault("config", OptimizerConfig.fast())
    return RandomizedOptimizer(
        query,
        environment,
        policy=policy,
        objective=objective,
        seed=seed,
        plan_cache=cache,
        **options,
    ).optimize()


def _executor(scenario, plan_cache, policy=Policy.HYBRID_SHIPPING):
    return QueryExecutor(
        scenario.config,
        scenario.catalog,
        scenario.query,
        seed=3,
        policy=policy,
        plan_cache=plan_cache,
    )


class TestTransparency:
    def test_cached_equals_uncached_across_grid(self):
        """Property: caching never changes the chosen plan or its cost."""
        scenario = chain_scenario(num_relations=3, cached_fraction=0.5)
        environment = scenario.environment()
        cache = PlanCache()
        for policy in POLICIES:
            for objective in OBJECTIVES:
                for seed in SEEDS:
                    args = (scenario.query, environment, policy, objective, seed)
                    plain = _optimize(*args, None)
                    warm = _optimize(*args, cache)
                    hit = _optimize(*args, cache)
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
        # Every run of the sweep plans against one shared cache; each run
        # hits only its own entries, as its executor's environments are
        # its own.
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

        # A workload run with an explicit cache -- fresh, then holding the
        # run before's entries -- equals one on the run's own cache, in
        # both modes.
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
        environment = scenario.environment()
        cache = PlanCache()
        _optimize(
            scenario.query, environment, Policy.HYBRID_SHIPPING,
            Objective.RESPONSE_TIME, 3, cache,
        )
        opt = RandomizedOptimizer(
            scenario.query,
            environment,
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
        environment = scenario.environment()
        cache = PlanCache()

        def run(policy, plan_cache):
            return _optimize(
                scenario.query, environment, policy, Objective.RESPONSE_TIME, 3, plan_cache
            )

        run(Policy.QUERY_SHIPPING, cache)
        run(Policy.DATA_SHIPPING, cache)
        before = cache.stats.hits
        hybrid = run(Policy.HYBRID_SHIPPING, cache)
        assert cache.stats.hits - before == 2
        plain = run(Policy.HYBRID_SHIPPING, None)
        assert hybrid.plan == plain.plan
        assert hybrid.cost == plain.cost


class TestInvalidation:
    def test_each_value_input_changes_the_key(self):
        """Same environment and query, one value input changed: a miss, and
        the plan the uncached search finds."""
        scenario = chain_scenario(num_relations=3, cached_fraction=0.5)
        environment = scenario.environment()
        relation = sorted(scenario.query.relations)[0]
        base = dict(policy=Policy.DATA_SHIPPING, objective=Objective.RESPONSE_TIME, seed=3)
        variants = [
            dict(policy=Policy.QUERY_SHIPPING),
            dict(objective=Objective.PAGES_SENT),
            dict(config=dataclasses.replace(OptimizerConfig.fast(), ii_starts=2)),
            dict(seed=4),
            dict(shape=PlanShape.DEEP),
            dict(annotation_moves_only=True),
            dict(forced_client_relations=frozenset({relation})),
        ]
        for variant in variants:
            options = {**base, **variant}
            cache = PlanCache()
            RandomizedOptimizer(
                scenario.query, environment, config=OptimizerConfig.fast(),
                plan_cache=cache, **base,
            ).optimize()
            options.setdefault("config", OptimizerConfig.fast())
            cached, plain = (
                RandomizedOptimizer(
                    scenario.query, environment, plan_cache=plan_cache, **options
                ).optimize()
                for plan_cache in (cache, None)
            )
            assert cache.stats.hits == 0, variant
            assert cached.plan == plain.plan
            assert cached.cost == plain.cost

    def test_equal_but_distinct_objects_never_share_an_entry(self):
        """The environment and the query are keyed by identity, not value."""
        scenario = chain_scenario(num_relations=2, cached_fraction=0.5)
        environment = scenario.environment()
        twin_environment = scenario.environment()
        twin_query = copy.copy(scenario.query)
        assert twin_environment == environment and twin_environment is not environment
        assert twin_query == scenario.query and twin_query is not scenario.query
        cache = PlanCache()
        args = (Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 3)
        first = _optimize(scenario.query, environment, *args, cache)
        for query, env in ((scenario.query, twin_environment), (twin_query, environment)):
            again = _optimize(query, env, *args, cache)
            assert again.evaluations > 0
            assert (again.plan, again.cost) == (first.plan, first.cost)
        assert cache.stats.hits == 0

    def test_an_entry_keeps_its_environment_alive(self):
        """An entry pins its environment, so no later object can take its
        id while the entry exists: a new environment always misses."""
        scenario = chain_scenario(num_relations=2)
        cache = PlanCache()
        args = (Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 3)
        environment = scenario.environment()
        pinned = weakref.ref(environment)
        _optimize(scenario.query, environment, *args, cache)
        del environment
        gc.collect()
        assert pinned() is not None
        fresh = scenario.environment()
        assert _optimize(scenario.query, fresh, *args, cache).evaluations > 0
        assert cache.stats.hits == 0
        del fresh
        cache.clear()
        gc.collect()
        assert pinned() is None

    def test_environment_change_changes_the_key(self):
        """Cached fractions key the plan, also a per-client override: the
        catalog copy a client plans against carries its fractions."""
        from repro.costmodel.model import EnvironmentState

        cold = chain_scenario(num_relations=2, cached_fraction=0.0)
        warm = chain_scenario(num_relations=2, cached_fraction=0.5)
        environments = [cold.environment(), warm.environment()]
        for override in ({"R0": 0.5}, {"R0": 0.5, "R1": 0.25}):
            environments.append(
                EnvironmentState(cold.catalog.with_cache(override), cold.config, {})
            )
        cache = PlanCache()
        args = (Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 0)
        for environment in environments:
            cached = _optimize(cold.query, environment, *args, cache)
            plain = _optimize(cold.query, environment, *args, None)
            assert (cached.plan, cached.cost) == (plain.plan, plain.cost)
        assert cache.stats.hits == 0

    def test_forced_client_relations_change_the_key(self):
        """Replans around the same crashed site set reuse their plan; a
        different set, or none, never reuses it."""
        scenario = chain_scenario(num_relations=2)
        first, second = sorted(scenario.query.relations)
        cache = PlanCache()
        executor = _executor(scenario, cache)
        try:
            for forced, hits in (
                ({first}, 0),
                ({first}, 1),
                ({second}, 1),
                (set(), 1),
                ({second}, 2),
            ):
                plan = executor.optimize_for(
                    CLIENT_SITE_ID, forced_client_relations=frozenset(forced)
                )
                assert cache.stats.hits == hits, forced
                plain = _executor(scenario, None)
                assert plan == plain.optimize_for(
                    CLIENT_SITE_ID, forced_client_relations=frozenset(forced)
                )
                plain.close()
        finally:
            executor.close()

    def test_dynamic_cache_state_changes_the_key(self):
        """A client cache whose resident set changed stops stale plans from
        hitting: the executor plans against a new environment."""
        scenario = chain_scenario(num_relations=2, cached_fraction=0.5)
        cache = PlanCache()
        executor = _executor(scenario, cache)
        try:
            buffer_cache = executor.topology.site(CLIENT_SITE_ID).buffer_cache
            executor.optimize_for(CLIENT_SITE_ID)
            executor.optimize_for(CLIENT_SITE_ID)
            assert cache.stats.hits == 1
            assert buffer_cache.invalidate("R0", 0)
            executor.optimize_for(CLIENT_SITE_ID)
            assert cache.stats.hits == 1
            executor.optimize_for(CLIENT_SITE_ID)
            assert cache.stats.hits == 2
        finally:
            executor.close()

    def test_counters_alone_do_not_change_the_key(self):
        """Plans depend on what is resident, not on the hit/miss history --
        a stream whose resident set stabilised keeps planning from cache."""
        scenario = chain_scenario(num_relations=2, cached_fraction=0.5)
        cache = PlanCache()
        executor = _executor(scenario, cache)
        try:
            buffer_cache = executor.topology.site(CLIENT_SITE_ID).buffer_cache
            before = buffer_cache.snapshot()
            executor.optimize_for(CLIENT_SITE_ID)
            assert buffer_cache.lookup("R0", 0) is not None
            after = buffer_cache.snapshot()
            assert after != before and after.digest() == before.digest()
            executor.optimize_for(CLIENT_SITE_ID)
            assert cache.stats.hits == 1
        finally:
            executor.close()

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
        environment = scenario.environment()
        query = scenario.query
        plan = _optimize(
            query, environment, Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, 0, None
        )
        for key in ("a", "b", "c"):
            cache.put(environment, query, (key,), plan.plan, plan.cost)
        assert len(cache) == 2
        assert cache.get(environment, query, ("a",)) is None
        assert cache.get(environment, query, ("c",)) is not None

    def test_stats_and_clear(self):
        cache = PlanCache()
        scenario = chain_scenario(num_relations=2)
        environment = scenario.environment()
        query = scenario.query
        assert cache.get(environment, query, ("missing",)) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.0)
        r = _optimize(query, environment, Policy.DATA_SHIPPING, Objective.RESPONSE_TIME, 0, None)
        cache.put(environment, query, ("k",), r.plan, r.cost)
        assert cache.get(environment, query, ("k",)) == (r.plan, r.cost)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
