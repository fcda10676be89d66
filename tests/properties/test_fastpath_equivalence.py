"""The simulator fast paths must be invisible in every simulated result.

Two properties gate the whole fast-path stack:

- **Batched transfers / virtual-clock booking off vs on**: running the
  Figure-2 grid with ``fastpath`` disabled (the page-at-a-time,
  event-cascade reference implementation, selectable at runtime with
  ``REPRO_SIM_FASTPATH=0``) must produce *identical* results -- response
  times, traffic counters, utilizations, profiles -- point for point.
- **Session memoization off vs on**: a memoized workload run (tapes
  replayed for repeat sessions) must produce a ``WorkloadResult`` equal
  to the plain simulated run, including the profile snapshot and the
  sampled telemetry series.
"""

import repro.sim.engine as engine_mod
from repro.config import BufferAllocation, OptimizerConfig
from repro.costmodel.model import Objective
from repro.obs.telemetry import TelemetryConfig
from repro.optimizer import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workload import AdmissionConfig, StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario

POLICIES = (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING)
FRACTIONS = (0.0, 0.5, 1.0)
SEED = 3


def _figure2_grid_results():
    results = []
    for fraction in FRACTIONS:
        scenario = chain_scenario(
            num_relations=2,
            num_servers=1,
            allocation=BufferAllocation.MINIMUM,
            cached_fraction=fraction,
            placement_seed=SEED,
        )
        environment = scenario.environment()
        for policy in POLICIES:
            plan = RandomizedOptimizer(
                scenario.query,
                environment,
                policy=policy,
                objective=Objective.RESPONSE_TIME,
                config=OptimizerConfig.fast(),
                seed=SEED,
            ).optimize().plan
            results.append(scenario.execute(plan, seed=SEED))
    return results


def test_batched_transfers_identical_to_page_at_a_time(monkeypatch):
    fast = _figure2_grid_results()
    # The reference implementation: no virtual-clock booking, no flattened
    # sends, no raw-sleep shortcuts -- every hop is its own event cascade.
    monkeypatch.setattr(engine_mod, "_FASTPATH_DEFAULT", False)
    slow = _figure2_grid_results()
    assert len(fast) == len(slow) == len(FRACTIONS) * len(POLICIES)
    for fast_result, slow_result in zip(fast, slow):
        # Full dataclass equality: timings, counters, utilizations,
        # profile snapshot -- nothing may differ, not even in float bits.
        assert fast_result == slow_result


def _run_workload(memoize):
    scenario = chain_scenario(num_relations=2, num_servers=1, cached_fraction=0.5)
    runner = WorkloadRunner(
        scenario,
        Policy.HYBRID_SHIPPING,
        num_clients=4,
        stream=StreamConfig(arrival="closed", queries_per_client=3),
        admission=AdmissionConfig(max_concurrent=2, queue_limit=64),
        seed=SEED,
        telemetry=TelemetryConfig(interval=0.25),
        memoize=memoize,
    )
    return runner, runner.run()


def test_memoized_workload_identical_to_simulated():
    memo_runner, memo_result = _run_workload(memoize=True)
    plain_runner, plain_result = _run_workload(memoize=False)
    # The opt-out really opted out, and the memo really replayed.
    assert plain_runner.last_memo is None
    memo = memo_runner.last_memo
    assert memo is not None
    assert memo.replays > 0
    # Same seeds => identical WorkloadResult, down to the profile counters
    # and the sampled telemetry time series (frozen-dataclass equality).
    assert memo_result == plain_result
    # Replayed spills carry the replaying client's labels, so every site's
    # broker history matches event for event.
    for memo_site, plain_site in zip(
        memo_runner.last_topology.sites, plain_runner.last_topology.sites
    ):
        assert memo_site.memory.history == plain_site.memory.history
    assert memo_runner.last_topology.sites[0].memory.history.count > 0
    # Steady state keeps the hardware hooks on the recorder-is-None path.
    assert memo_runner.last_topology.env.recorder is None
