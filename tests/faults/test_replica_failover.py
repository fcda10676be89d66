"""Mid-query replica failover: a crash rehomes scans onto surviving copies.

The acceptance scenario of the replication work: crash the server holding
a relation's serving copy mid-scan and the recovery loop must repoint the
scan at a surviving replica -- NOT fall back to scanning the client cache
(the pre-replication escape hatch, which query-shipping plans cannot even
express).
"""

import pytest

from repro.config import OptimizerConfig
from repro.costmodel.model import Objective
from repro.errors import SiteUnavailableError
from repro.faults import FaultSchedule, RecoveryPolicy
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.operators import ScanOp
from repro.plans.policies import Policy
from repro.workloads.scenarios import chain_scenario

FAST = OptimizerConfig.fast()


def scenario_with_replicas(factor=2, cached_fraction=0.0, seed=0):
    return chain_scenario(
        num_relations=2,
        num_servers=2,
        cached_fraction=cached_fraction,
        placement_seed=seed,
        replication_factor=factor,
    )


def optimized(scenario, policy, seed=0):
    return RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=policy,
        objective=Objective.RESPONSE_TIME,
        config=FAST,
        seed=seed,
    ).optimize().plan


def run_with_crash(scenario, policy, server=1, at=0.2, duration=None, attempts=5):
    plan = optimized(scenario, policy)
    faults = (
        FaultSchedule.server_crash(server, at=at)
        if duration is None
        else FaultSchedule.server_crash(server, at=at, duration=duration)
    )
    return scenario.execute(
        plan,
        seed=0,
        faults=faults,
        recovery=RecoveryPolicy(max_attempts=attempts, base_backoff=0.5),
        policy=policy,
        optimizer_config=FAST,
    )


class TestMidQueryFailover:
    def test_query_shipping_fails_over_onto_surviving_replica(self):
        # Query shipping has no client-cache fallback and the crash is
        # permanent, so completing at all proves the scan was rehomed onto
        # the surviving copy.
        result = run_with_crash(
            scenario_with_replicas(cached_fraction=0.0), Policy.QUERY_SHIPPING
        )
        assert result.result_tuples > 0
        assert result.replans >= 1
        assert result.retries >= 1

    def test_unreplicated_query_shipping_still_cannot_escape(self):
        # Sanity of the baseline: the same permanent crash without replicas
        # leaves query shipping stuck until its retries run out.
        with pytest.raises(SiteUnavailableError):
            run_with_crash(
                scenario_with_replicas(factor=1, cached_fraction=0.0),
                Policy.QUERY_SHIPPING,
                attempts=3,
            )

    def test_hybrid_prefers_replica_over_client_cache_scans(self):
        # Hybrid shipping with a *partial* client cache: the pre-replication
        # fallback would force uncached relations to client scans, which
        # then fault pages from the crashed primary.  With a surviving
        # replica the replan simply rehomes -- the recovered plan keeps its
        # scans on servers.
        scenario = scenario_with_replicas(cached_fraction=0.3)
        result = run_with_crash(scenario, Policy.HYBRID_SHIPPING)
        assert result.result_tuples > 0
        assert result.replans >= 1

    def test_replan_rehomes_every_scan_of_the_crashed_server(self):
        # Drive the recovery loop's replanner directly and inspect the plan.
        from repro.engine.executor import QueryExecutor
        from repro.engine.supervision import replan

        scenario = scenario_with_replicas(cached_fraction=0.0)
        plan = optimized(scenario, Policy.QUERY_SHIPPING)
        executor = QueryExecutor(
            scenario.config,
            scenario.catalog,
            scenario.query,
            seed=0,
            policy=Policy.QUERY_SHIPPING,
            optimizer_config=FAST,
        )
        executor.topology.site(1).up = False
        replanned = replan(executor, plan)
        assert replanned is not None
        for op in replanned.walk():
            if not isinstance(op, ScanOp):
                continue
            primary = scenario.catalog.server_of(op.relation)
            home = op.home if op.home is not None else primary
            assert home != 1, f"scan of {op.relation} still targets the crash"
            assert home in scenario.catalog.servers_of(op.relation)
