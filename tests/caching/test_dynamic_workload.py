"""Dynamic cache end to end: warm-up, parity, determinism, cache-aware plans."""

from dataclasses import replace

from repro import api
from repro.caching import CacheConfig
from repro.costmodel.model import Objective
from repro.obs import Tracer
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workload import StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario


def run_stream(policy="ds", cache=None, cached_fraction=0.0, queries=3, **kwargs):
    return api.run_workload(
        policy=policy,
        num_clients=1,
        arrival="closed",
        think_time=0.0,
        queries_per_client=queries,
        cached_fraction=cached_fraction,
        admission=None,
        seed=3,
        cache=cache,
        **kwargs,
    )


class TestWarmup:
    def test_ds_pages_shipped_monotone_non_increasing(self):
        result = run_stream(policy="ds", queries=3)
        pages = [s.pages_sent for s in result.sessions]
        assert pages == sorted(pages, reverse=True)
        assert pages[0] > 0  # the cold fault storm
        assert pages[-1] == 0  # fully warmed: everything on the client disk

    def test_resident_set_grows_and_persists_across_queries(self):
        result = run_stream(policy="ds", queries=2)
        first, second = result.sessions
        assert first.cache_resident_pages > 0
        assert second.cache_resident_pages >= first.cache_resident_pages
        assert second.pages_sent == 0

    def test_seeded_fraction_shrinks_the_fault_storm(self):
        cold = run_stream(policy="ds", cached_fraction=0.0, queries=1)
        seeded = run_stream(policy="ds", cached_fraction=0.6, queries=1)
        assert 0 < seeded.sessions[0].pages_sent < cold.sessions[0].pages_sent

    def test_faults_are_traced(self):
        tracer = Tracer()
        run_stream(policy="ds", queries=1, trace=tracer)
        fault_spans = [s for s in tracer.spans if s.cat == "cache"]
        assert len(fault_spans) > 0
        assert all(s.name.startswith("fault[") for s in fault_spans)

    def test_profile_reports_cache_counters(self):
        result = run_stream(policy="ds", queries=2)
        assert result.profile["site.client.cache.misses"] > 0
        assert result.profile["site.client.cache.hits"] > 0
        assert result.profile["site.client.cache.admissions"] > 0
        assert result.profile["site.client.cache.resident_pages"] > 0


class TestStaticParity:
    def test_capacity_zero_matches_the_uncached_static_run_exactly(self):
        """A dynamic cache that can hold nothing is the no-cache baseline:
        every access faults, nothing is admitted, and the simulated event
        stream -- hence every timing -- is identical."""
        static = run_stream(policy="ds", cache="static", queries=2)
        dynamic = run_stream(
            policy="ds",
            cache=CacheConfig(mode="dynamic", capacity_pages=0),
            queries=2,
        )
        assert dynamic.makespan == static.makespan
        assert dynamic.throughput == static.throughput
        static_times = [s.response_time for s in static.sessions]
        dynamic_times = [s.response_time for s in dynamic.sessions]
        assert dynamic_times == static_times
        assert [s.pages_sent for s in dynamic.sessions] == [
            s.pages_sent for s in static.sessions
        ]


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        """Sessions, profile counters, and eviction activity all repeat."""
        config = CacheConfig(mode="dynamic", capacity_pages=300, policy="mru")

        def run():
            scenario = chain_scenario(
                num_relations=2, num_servers=1, cached_fraction=0.5, placement_seed=3
            )
            return WorkloadRunner(
                scenario,
                Policy.DATA_SHIPPING,
                num_clients=1,
                stream=StreamConfig(
                    arrival="closed", think_time=0.0, queries_per_client=3
                ),
                seed=3,
                cache=config,
            ).run()

        first, second = run(), run()
        assert first.sessions == second.sessions
        assert first.profile == second.profile
        assert first.makespan == second.makespan
        # The undersized cache really did churn (evictions repeated too).
        assert first.profile["site.client.cache.evictions"] > 0


class TestCacheAwarePlanning:
    def test_hybrid_shifts_client_side_as_the_cache_warms(self):
        """Cold, pages-sent hybrid plans a server-side join; 60% resident
        tips every operator to the client (see examples/cache_warmup.py)."""
        from repro.caching import CacheState
        from repro.costmodel.model import EnvironmentState

        scenario = chain_scenario(
            num_relations=2, num_servers=1, cached_fraction=0.0, placement_seed=3
        )
        pages = {
            name: scenario.catalog.relation(name).pages(scenario.config)
            for name in scenario.query.relations
        }

        def plan_for(fraction):
            resident = tuple(
                (name, round(total * fraction))
                for name, total in sorted(pages.items())
                if round(total * fraction)
            )
            state = CacheState(
                capacity_pages=sum(pages.values()), resident=resident
            )
            environment = EnvironmentState(
                scenario.catalog,
                scenario.config,
                dict(scenario.server_loads),
                cache_state=state,
            )
            return RandomizedOptimizer(
                scenario.query,
                environment,
                policy=Policy.HYBRID_SHIPPING,
                objective=Objective.PAGES_SENT,
                seed=3,
            ).optimize().plan

        cold, warm = plan_for(0.0), plan_for(0.6)
        assert cold != warm
        assert "client" in repr(warm).lower()


class TestSingleQueryPath:
    def test_execute_reports_the_cache_state(self):
        """Scenario.execute under a dynamic config populates
        ExecutionResult.cache_state, and the session's faulted pages are
        resident afterwards."""
        scenario = chain_scenario(
            num_relations=2, num_servers=1, cached_fraction=0.0, placement_seed=3
        )
        scenario = replace(
            scenario, config=replace(scenario.config, cache=CacheConfig(mode="dynamic"))
        )
        plan = RandomizedOptimizer(
            scenario.query,
            scenario.environment(),
            policy=Policy.DATA_SHIPPING,
            seed=3,
        ).optimize().plan
        result = scenario.execute(plan, seed=3)
        assert result.cache_state is not None
        assert result.cache_state.total_resident > 0
        assert result.cache_state.misses > 0

    def test_static_config_reports_seeded_cache_state(self):
        scenario = chain_scenario(
            num_relations=2, num_servers=1, cached_fraction=0.5, placement_seed=3
        )
        plan = RandomizedOptimizer(
            scenario.query,
            scenario.environment(),
            policy=Policy.DATA_SHIPPING,
            seed=3,
        ).optimize().plan
        state = scenario.execute(plan, seed=3).cache_state
        # The static cache serves its seeded prefixes and admits nothing.
        assert state.resident == (("R0", 125), ("R1", 125))
        assert state.capacity_pages == 250
        assert state.hits == 250 and state.misses == 250
        assert state.admissions == 0
