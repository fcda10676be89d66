"""Observing a run must not perturb it, and booked windows match the oracle.

Every CPU, wire and disk hold is booked as a service window on a virtual
clock, in every run: traced, faulted or neither.  Two families of checks
pin that single path down:

- *Oracle equality.*  Routing every hold through the page-at-a-time
  reference implementation in :mod:`tests.properties.service_oracle`
  (one grant event per hold, an evented disk loop) must produce identical
  results on the Figure-2 grid, and identical finish instants, counters
  and busy time for random holds on one server.
- *Observation invariance.*  A tracer on vs. off, and ``faults=None`` vs.
  an empty :class:`FaultSchedule`, must give equal results on the
  Figure-2 grid, on the quick availability-sweep points, and on a
  16-client closed workload under admission control.

The contended 64-client sweep is pinned by the throughput-sweep golden
(``benchmarks/results/throughput-sweep-quick-64.txt``) instead: it takes
over a minute per run.  Its point at 16 clients (static caches, zero
think time) is checked traced against untraced for every policy.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BufferAllocation, OptimizerConfig
from repro.costmodel.model import Objective
from repro.errors import TransientFaultError
from repro.experiments.figures import _two_way
from repro.faults import FaultSchedule, RecoveryPolicy
from repro.obs import Tracer
from repro.obs.telemetry import TelemetryConfig
from repro.optimizer import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.sim import Environment, Resource
from repro.workload import AdmissionConfig, StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario
from tests.properties import service_oracle

POLICIES = (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING)
FRACTIONS = (0.0, 0.5, 1.0)
SEED = 3


def _best_plan(scenario, policy, seed):
    return RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=policy,
        objective=Objective.RESPONSE_TIME,
        config=OptimizerConfig.fast(),
        seed=seed,
    ).optimize().plan


@functools.lru_cache(maxsize=None)
def _figure2_grid():
    """(scenario, plan) for each Figure-2 point, optimized once."""
    points = []
    for fraction in FRACTIONS:
        scenario = chain_scenario(
            num_relations=2,
            num_servers=1,
            allocation=BufferAllocation.MINIMUM,
            cached_fraction=fraction,
            placement_seed=SEED,
        )
        for policy in POLICIES:
            points.append((scenario, _best_plan(scenario, policy, SEED)))
    return points


def _figure2_grid_results(**kwargs):
    return [scenario.execute(plan, seed=SEED, **kwargs) for scenario, plan in _figure2_grid()]


def test_batched_transfers_identical_to_page_at_a_time(monkeypatch):
    booked = _figure2_grid_results()
    service_oracle.install(monkeypatch)
    reference = _figure2_grid_results()
    assert len(booked) == len(reference) == len(FRACTIONS) * len(POLICIES)
    for booked_result, reference_result in zip(booked, reference):
        # Full dataclass equality: timings, counters, utilizations,
        # profile snapshot -- nothing may differ, not even in float bits.
        assert booked_result == reference_result


_instants = st.floats(min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False)
_durations = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def _run_holds(serve, holds, probes):
    """Start one process per (arrival, duration) hold on a single server;
    return each hold's finish instant, ``completed`` and the busy time
    read at each probe instant and at the end."""
    env = Environment()
    server = Resource(env, capacity=1, name="cpu")
    finished = [None] * len(holds)
    busy_at_probes = []

    def hold(index, arrival, duration):
        yield arrival
        yield from serve(server, duration)
        finished[index] = env.now

    def probe(at):
        yield at
        busy_at_probes.append((at, server.busy_time))

    for index, (arrival, duration) in enumerate(holds):
        env.process(hold(index, arrival, duration))
    for at in probes:
        env.process(probe(at))
    env.run()
    return finished, server.completed, server.busy_time, sorted(busy_at_probes)


@settings(max_examples=200, deadline=None)
@given(
    holds=st.lists(st.tuples(_instants, _durations), min_size=1, max_size=8),
    probes=st.lists(_instants, max_size=4),
)
def test_booked_windows_match_page_at_a_time_oracle(holds, probes):
    booked = _run_holds(Resource.serve, holds, probes)
    reference = _run_holds(service_oracle.page_at_a_time_serve, holds, probes)
    assert booked == reference


def test_observation_does_not_perturb_figure2_grid():
    plain = _figure2_grid_results()
    assert _figure2_grid_results(tracer=Tracer()) == plain
    assert _figure2_grid_results(faults=FaultSchedule()) == plain


def _availability_runs(seed, policy, mtbf, tracer):
    """One quick availability-sweep point (see ``availability_sweep``)."""
    horizon = 120.0
    scenario = _two_way(1.0)(placement_seed=seed)
    plan = _best_plan(scenario, policy, seed)
    try:
        return scenario.execute(
            plan,
            seed=seed,
            faults=FaultSchedule.periodic_crashes(
                1, mtbf=mtbf, mttr=2.0, horizon=horizon, seed=seed
            ),
            recovery=RecoveryPolicy(max_attempts=6, base_backoff=0.5, query_timeout=horizon),
            policy=policy,
            optimizer_config=OptimizerConfig.fast(),
            tracer=tracer,
        )
    except TransientFaultError as exc:
        return repr(exc)


@pytest.mark.parametrize("mtbf", (5.0, 20.0))
@pytest.mark.parametrize("seed", (3, 7, 11))
def test_tracing_does_not_perturb_quick_fault_sweep(seed, mtbf):
    for policy in POLICIES:
        plain = _availability_runs(seed, policy, mtbf, tracer=None)
        assert _availability_runs(seed, policy, mtbf, tracer=Tracer()) == plain


def _closed_workload(**kwargs):
    scenario = chain_scenario(num_relations=2, num_servers=1, cached_fraction=0.5)
    runner = WorkloadRunner(
        scenario,
        Policy.HYBRID_SHIPPING,
        num_clients=16,
        stream=StreamConfig(arrival="closed", queries_per_client=2),
        admission=AdmissionConfig(max_concurrent=4, queue_limit=64),
        seed=SEED,
        **kwargs,
    )
    return runner.run()


def test_observation_does_not_perturb_closed_workload():
    plain = _closed_workload()
    assert plain.completed == plain.submitted
    assert _closed_workload(tracer=Tracer()) == plain
    assert _closed_workload(faults=FaultSchedule()) == plain


def _sweep_point(policy, tracer=None):
    """The throughput sweep's point at 16 clients (see ``throughput_sweep``)."""
    return WorkloadRunner(
        _two_way(0.75)(placement_seed=SEED),
        policy,
        num_clients=16,
        stream=StreamConfig(arrival="closed", think_time=0.0, queries_per_client=3),
        admission=AdmissionConfig(max_concurrent=4, queue_limit=64),
        seed=SEED,
        cache="static",
        tracer=tracer,
    ).run()


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.short_name)
def test_tracing_does_not_perturb_throughput_sweep_point(policy):
    plain = _sweep_point(policy)
    assert plain.completed == plain.submitted == 48
    tracer = Tracer()
    assert _sweep_point(policy, tracer) == plain
    assert tracer.spans


def test_contended_workload_logs_broker_history():
    """A 4-client telemetry workload under admission control runs to
    completion, and every client's memory broker logs its joins' events
    (the server only scans, so its broker stays idle)."""
    scenario = chain_scenario(num_relations=2, num_servers=1, cached_fraction=0.5)
    runner = WorkloadRunner(
        scenario,
        Policy.HYBRID_SHIPPING,
        num_clients=4,
        stream=StreamConfig(arrival="closed", queries_per_client=3),
        admission=AdmissionConfig(max_concurrent=2, queue_limit=64),
        seed=SEED,
        telemetry=TelemetryConfig(interval=0.25),
    )
    result = runner.run()
    assert result.completed == result.submitted
    assert runner.last_memo is None
    for site in runner.last_topology.clients:
        assert site.memory.history.count > 0
