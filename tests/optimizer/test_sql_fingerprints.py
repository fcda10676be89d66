"""Plan caching of SQL-planned queries.

Two guarantees: statements that differ only in a function-shipping
feature (UDF placement or cost, GROUP BY keys, a semi-join) never share a
cached plan, even planned against one environment on one cache; and a
plain SPJ statement plans exactly as the hand-built query it equals, yet
shares no entry with it -- a query is keyed by identity, so the frontend
can neither collide with nor invalidate the chain-join experiments'
cached optimizations.
"""

from repro.config import OptimizerConfig
from repro.optimizer.cache import PlanCache
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.logical import JoinPredicate, Query
from repro.plans.policies import Policy
from repro.sql.scenario import sql_scenario


def _optimize(query, environment, plan_cache):
    return RandomizedOptimizer(
        query,
        environment,
        policy=Policy.HYBRID_SHIPPING,
        config=OptimizerConfig.fast(),
        seed=3,
        plan_cache=plan_cache,
    ).optimize()


def assert_no_shared_entries(*statements):
    """Optimize every statement against the first one's environment on one
    cache: each misses and finds the plan an uncached search finds."""
    queries = [sql_scenario(sql, placement_seed=3).query for sql in statements]
    environment = sql_scenario(statements[0], placement_seed=3).environment()
    assert len(set(map(repr, queries))) == len(queries)
    cache = PlanCache()
    for query in queries:
        cached = _optimize(query, environment, cache)
        plain = _optimize(query, environment, None)
        assert (cached.plan, cached.cost) == (plain.plan, plain.cost)
    assert cache.stats.hits == 0


class TestSqlFingerprints:
    def test_udf_placement_changes_the_key(self):
        template = "SELECT * FROM R0 WHERE f(R0) COST 20000{at}"
        assert_no_shared_entries(
            *(template.format(at=at) for at in ("", " AT CLIENT", " AT SERVER"))
        )

    def test_udf_cost_changes_the_key(self):
        assert_no_shared_entries(
            "SELECT * FROM R0 WHERE f(R0) COST 0",
            "SELECT * FROM R0 WHERE f(R0) COST 20000",
        )

    def test_group_by_keys_change_the_key(self):
        template = "SELECT {col}, COUNT(*) FROM R0 GROUP BY {col}"
        assert_no_shared_entries(template.format(col="R0.a"), template.format(col="R0.b"))

    def test_grouped_and_plain_statements_differ(self):
        assert_no_shared_entries("SELECT COUNT(*) FROM R0", "SELECT * FROM R0")

    def test_semijoin_changes_the_key(self):
        template = "SELECT * FROM R0, R1 WHERE R0.k = R1.k SELECTIVITY 0.00002{semi}"
        assert_no_shared_entries(template.format(semi=""), template.format(semi=" SEMIJOIN"))

    def test_plain_spj_matches_a_hand_built_query(self):
        scenario = sql_scenario(
            "SELECT * FROM R0, R1 WHERE R0.k = R1.k SELECTIVITY 0.0001",
            placement_seed=3,
        )
        hand_built = Query(("R0", "R1"), (JoinPredicate("R0", "R1", 0.0001),))
        assert scenario.query == hand_built
        environment = scenario.environment()
        cache = PlanCache()
        sql_plan = _optimize(scenario.query, environment, cache)
        hand_plan = _optimize(hand_built, environment, cache)
        assert (sql_plan.plan, sql_plan.cost) == (hand_plan.plan, hand_plan.cost)
        assert cache.stats.hits == 0


class TestSqlPlanCaching:
    def test_cached_equals_uncached(self):
        sql = (
            "SELECT R0.k, COUNT(*) FROM R0, R1 "
            "WHERE R0.k = R1.k SELECTIVITY 0.00002 SEMIJOIN "
            "AND slow(R0) COST 20000 GROUP BY R0.k"
        )
        scenario = sql_scenario(sql, placement_seed=3)
        environment = scenario.environment()

        def optimize(plan_cache):
            optimizer = RandomizedOptimizer(
                scenario.query,
                environment,
                policy=Policy.HYBRID_SHIPPING,
                seed=3,
                plan_cache=plan_cache,
            )
            return optimizer.optimize()

        uncached = optimize(None)
        cache = PlanCache()
        first = optimize(cache)
        second = optimize(cache)  # full-run hit
        assert cache.stats.hits > 0
        assert first.plan == uncached.plan == second.plan
        assert first.cost.response_time == uncached.cost.response_time
