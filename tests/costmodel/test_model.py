"""Cost model unit tests: metric behaviour and plan ranking."""

import pytest

from repro.catalog import Catalog, Placement, Relation
from repro.config import BufferAllocation, SystemConfig
from repro.costmodel import CostModel, EnvironmentState, Objective
from repro.plans import DisplayOp, JoinOp, JoinPredicate, Query, ScanOp
from repro.plans.annotations import Annotation

A = Annotation
MODERATE = 1e-4


def catalog_with(cache=None, num_servers=1):
    placement = {"A": 1, "B": 1 if num_servers == 1 else 2}
    return Catalog(
        [Relation("A", 10_000), Relation("B", 10_000)],
        Placement(placement),
        cache,
    )


def two_way_query():
    return Query(("A", "B"), (JoinPredicate("A", "B", MODERATE),))


def ds_plan():
    join = JoinOp(A.CONSUMER, inner=ScanOp(A.CLIENT, "A"), outer=ScanOp(A.CLIENT, "B"))
    return DisplayOp(A.CLIENT, child=join)


def qs_plan():
    join = JoinOp(
        A.INNER_RELATION, inner=ScanOp(A.PRIMARY_COPY, "A"), outer=ScanOp(A.PRIMARY_COPY, "B")
    )
    return DisplayOp(A.CLIENT, child=join)


def hy_join_at_client_plan():
    join = JoinOp(
        A.CONSUMER, inner=ScanOp(A.PRIMARY_COPY, "A"), outer=ScanOp(A.PRIMARY_COPY, "B")
    )
    return DisplayOp(A.CLIENT, child=join)


def model(cache=None, allocation=BufferAllocation.MINIMUM, loads=None):
    config = SystemConfig(num_servers=1, buffer_allocation=allocation)
    environment = EnvironmentState(catalog_with(cache), config, loads or {})
    return CostModel(two_way_query(), environment)


class TestPagesSent:
    def test_qs_ships_only_result(self):
        assert model().evaluate(qs_plan()).pages_sent == 250

    def test_ds_faults_everything_uncached(self):
        assert model().evaluate(ds_plan()).pages_sent == 500

    def test_ds_faults_only_missing(self):
        assert model({"A": 0.5, "B": 0.5}).evaluate(ds_plan()).pages_sent == 250

    def test_ds_fully_cached_sends_nothing(self):
        assert model({"A": 1.0, "B": 1.0}).evaluate(ds_plan()).pages_sent == 0

    def test_hybrid_ships_relations_and_nothing_else(self):
        assert model().evaluate(hy_join_at_client_plan()).pages_sent == 500


class TestResponseTimeRanking:
    """The orderings that drive the paper's figures (section 4.2)."""

    def test_min_alloc_qs_is_worst(self):
        cost_model = model()
        qs = cost_model.evaluate(qs_plan()).response_time
        ds = cost_model.evaluate(ds_plan()).response_time
        hy = cost_model.evaluate(hy_join_at_client_plan()).response_time
        assert qs > ds
        assert qs > hy

    def test_min_alloc_caching_hurts_ds(self):
        uncached = model().evaluate(ds_plan()).response_time
        cached = model({"A": 1.0, "B": 1.0}).evaluate(ds_plan()).response_time
        assert cached > uncached

    def test_min_alloc_hybrid_ignores_cache(self):
        plan = hy_join_at_client_plan()
        uncached = model().evaluate(plan).response_time
        cached = model({"A": 1.0, "B": 1.0}).evaluate(plan).response_time
        assert cached == pytest.approx(uncached, rel=0.01)

    def test_max_alloc_caching_helps_ds(self):
        uncached = model(allocation=BufferAllocation.MAXIMUM).evaluate(ds_plan())
        cached = model({"A": 1.0, "B": 1.0}, BufferAllocation.MAXIMUM).evaluate(ds_plan())
        assert cached.response_time < uncached.response_time

    def test_max_alloc_qs_beats_ds_uncached(self):
        cost_model = model(allocation=BufferAllocation.MAXIMUM)
        assert (
            cost_model.evaluate(qs_plan()).response_time
            < cost_model.evaluate(ds_plan()).response_time
        )

    def test_server_load_inflates_qs(self):
        unloaded = model().evaluate(qs_plan()).response_time
        loaded = model(loads={1: 60.0}).evaluate(qs_plan()).response_time
        assert loaded > 2.0 * unloaded

    def test_load_makes_cached_ds_attractive(self):
        """Figure 4's flip: at ~90% utilization caching helps DS."""
        loads = {1: 70.0}
        uncached = model(loads=loads).evaluate(ds_plan()).response_time
        cached = model({"A": 1.0, "B": 1.0}, loads=loads).evaluate(ds_plan()).response_time
        assert cached < uncached


class TestTotalCost:
    def test_total_cost_positive_and_exceeds_response(self):
        cost = model().evaluate(qs_plan())
        assert cost.total_cost > 0
        # Total cost sums all resources; response time overlaps them.
        assert cost.total_cost >= cost.response_time * 0.5

    def test_metric_tuples(self):
        cost = model().evaluate(qs_plan())
        assert cost.metric(Objective.PAGES_SENT)[0] == cost.pages_sent
        assert cost.metric(Objective.RESPONSE_TIME)[0] == cost.response_time
        assert cost.metric(Objective.TOTAL_COST)[0] == cost.total_cost


class TestEnvironmentState:
    def test_load_factor(self):
        environment = EnvironmentState(catalog_with(), SystemConfig())
        assert environment.load_factor(1) == 1.0
        loaded = EnvironmentState(catalog_with(), SystemConfig(), {1: 40.0})
        assert loaded.load_factor(1) == pytest.approx(1.0 / (1.0 - 40 * 0.0118))

    def test_load_factor_capped(self):
        overloaded = EnvironmentState(catalog_with(), SystemConfig(), {1: 1000.0})
        assert overloaded.load_factor(1) == pytest.approx(20.0)

    def test_server_loads_are_read_only(self):
        """An environment keys plan-cache entries, so its loads cannot
        change under them: not by writing, not through the caller's dict."""
        loads = {1: 40.0}
        catalog = catalog_with()
        environment = EnvironmentState(catalog, SystemConfig(), loads)
        with pytest.raises(TypeError):
            environment.server_loads[1] = 80.0
        with pytest.raises(TypeError):
            del environment.server_loads[1]
        loads[1] = 80.0
        assert environment.server_loads == {1: 40.0}
        assert environment.load_factor(1) == pytest.approx(1.0 / (1.0 - 40 * 0.0118))
        assert environment == EnvironmentState(catalog, SystemConfig(), {1: 40.0})

    def test_evaluation_counter(self):
        cost_model = model()
        cost_model.evaluate(qs_plan())
        cost_model.evaluate(ds_plan())
        assert cost_model.evaluations == 2
