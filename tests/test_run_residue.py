"""A finished run leaves nothing for the cyclic garbage collector.

Figure grids run hundreds of independent simulations one after another.
Anything a run leaves in a reference cycle stays resident until a full
collection, which a grid pass may never trigger, so every run must be
freed by refcounting alone once its result is collected.  Each test runs
one simulation with the collector saving what it finds
(``gc.DEBUG_SAVEALL``), drops the result, and asserts a full collection
finds nothing.
"""

from __future__ import annotations

import gc

import pytest

from repro.config import OptimizerConfig
from repro.errors import TransientFaultError
from repro.faults import FaultSchedule, RecoveryPolicy
from repro.obs import TelemetryConfig
from repro.optimizer import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workload import AdmissionConfig, StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario

SEED = 3


def optimized(scenario, policy=Policy.HYBRID_SHIPPING):
    return RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=policy,
        config=OptimizerConfig.fast(),
        seed=SEED,
    ).optimize().plan


def cyclic_garbage(run) -> list:
    """The objects a full collection finds after ``run()`` and its result
    are gone (the run's inputs are built by the caller, outside the probe).

    Automatic collection is off during the run, so the one collection
    after it sees everything the run left in cycles, however the
    collector's thresholds happen to fall.
    """
    # Earlier garbage first; a finalizer may free more on a second pass.
    while gc.collect():
        pass
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found


def describe(objects: list) -> str:
    kinds: dict[str, int] = {}
    for obj in objects:
        kinds[type(obj).__name__] = kinds.get(type(obj).__name__, 0) + 1
    return ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))


@pytest.fixture(scope="module")
def figure2():
    scenario = chain_scenario(num_relations=2, num_servers=1, cached_fraction=0.5)
    return scenario, optimized(scenario)


def assert_no_residue(run) -> None:
    found = cyclic_garbage(run)
    assert not found, f"run left {len(found)} objects in cycles: {describe(found)}"


def test_healthy_query(figure2):
    scenario, plan = figure2
    assert_no_residue(lambda: scenario.execute(plan, seed=SEED))


def test_faulted_query(figure2):
    scenario, plan = figure2
    faults = FaultSchedule.server_crash(1, at=0.2, duration=1.0).merge(
        FaultSchedule.network_outage(at=1.5, duration=0.5)
    )
    recovery = RecoveryPolicy(max_attempts=8, base_backoff=0.5)

    def run():
        result = scenario.execute(
            plan, seed=SEED, faults=faults, recovery=recovery, policy=Policy.HYBRID_SHIPPING
        )
        assert result.faults_seen > 0

    assert_no_residue(run)


def test_failed_query(figure2):
    scenario, plan = figure2
    faults = FaultSchedule.server_crash(1, at=0.2)

    def run():
        with pytest.raises(TransientFaultError):
            scenario.execute(plan, seed=SEED, faults=faults, recovery=RecoveryPolicy.none())

    assert_no_residue(run)


def test_query_under_server_load():
    scenario = chain_scenario(num_relations=2, num_servers=1, server_load=40.0)
    plan = optimized(scenario, Policy.QUERY_SHIPPING)
    assert_no_residue(lambda: scenario.execute(plan, seed=SEED))


def test_query_with_telemetry(figure2):
    scenario, plan = figure2
    config = TelemetryConfig(interval=0.25)

    def run():
        result = scenario.execute(plan, seed=SEED, telemetry=config)
        assert result.telemetry.samples_taken > 0

    assert_no_residue(run)


def test_workload_run():
    scenario = chain_scenario(num_relations=2, num_servers=2, cached_fraction=0.5)
    stream = StreamConfig(queries_per_client=2)

    def run():
        result = WorkloadRunner(
            scenario, Policy.HYBRID_SHIPPING, num_clients=4, stream=stream, seed=SEED
        ).run()
        assert result.completed == 8

    assert_no_residue(run)


@pytest.mark.parametrize("protocol", ("invalidation", "detection"))
def test_write_workload_run(protocol):
    scenario = chain_scenario(
        num_relations=2, num_servers=2, cached_fraction=0.5, replication_factor=2
    )
    stream = StreamConfig(arrival="closed", queries_per_client=4, write_fraction=0.5)

    def run():
        result = WorkloadRunner(
            scenario,
            Policy.DATA_SHIPPING,
            num_clients=4,
            stream=stream,
            seed=SEED,
            consistency=protocol,
        ).run()
        assert result.completed == 16

    assert_no_residue(run)


def test_shedding_workload_run():
    scenario = chain_scenario(num_relations=2, num_servers=2, cached_fraction=0.5)
    stream = StreamConfig(arrival="closed", queries_per_client=3)
    admission = AdmissionConfig(max_concurrent=1, queue_limit=1)

    def run():
        result = WorkloadRunner(
            scenario,
            Policy.HYBRID_SHIPPING,
            num_clients=4,
            stream=stream,
            admission=admission,
            seed=SEED,
        ).run()
        assert result.shed > 0

    assert_no_residue(run)
