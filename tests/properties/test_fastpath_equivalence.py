"""The simulator fast paths must be invisible in every simulated result.

Batched transfers / virtual-clock booking off vs on: running the
Figure-2 grid with ``fastpath`` disabled (the page-at-a-time,
event-cascade reference implementation, selected by patching
``repro.sim.engine._FASTPATH_DEFAULT``) must produce *identical* results
-- response times, traffic counters, utilizations, profiles -- point for
point.  A contended multi-client workload runs the same fast paths; its
exact results are pinned by the 64-client throughput-sweep golden
(``benchmarks/results/throughput-sweep-quick-64.txt``).
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
