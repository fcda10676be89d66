"""Property: every failure path gives back what it took.

Random fault schedules (server crashes and network outages) are run through
each kind of session -- a single query, concurrent read sessions, and
concurrent write sessions, behind admission controllers -- and once the
environment has drained, nothing may still be held: no admission slot or
queue entry, no buffer-pool page or queued grant, and no temp extent on
any disk.  Faults, sheds, timeouts, and exhausted retries all end in the
same clean state, because all three kinds of session share one attempt
loop.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import OptimizerConfig
from repro.engine.executor import QueryExecutor, Session
from repro.engine.writes import WRITE_KINDS, WriteSpec
from repro.errors import QueryShedError, TransientFaultError
from repro.faults.recovery import RecoveryPolicy
from repro.faults.schedule import CrashWindow, FaultSchedule, OutageWindow
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workload import AdmissionConfig, AdmissionController
from repro.workloads.scenarios import chain_scenario

RECOVERY = RecoveryPolicy(max_attempts=3, base_backoff=0.2, query_timeout=20.0)


@functools.lru_cache(maxsize=None)
def scenario():
    return chain_scenario(
        num_relations=2, num_servers=2, cached_fraction=0.5,
        placement_seed=1, replication_factor=2,
    )


@functools.lru_cache(maxsize=None)
def plan_for(policy):
    sc = scenario()
    return RandomizedOptimizer(
        sc.query, sc.environment(), policy=policy,
        config=OptimizerConfig.fast(), seed=1,
    ).optimize().plan


def window(start, length):
    return start, start + length


crash_windows = st.lists(
    st.builds(
        lambda site, bounds: CrashWindow(site, *bounds),
        st.sampled_from((1, 2)),
        st.builds(window, st.floats(0.0, 3.0), st.floats(0.05, 6.0)),
    ),
    max_size=2,
    unique_by=lambda w: w.site_id,  # one window per server
)
outage_windows = st.lists(
    st.builds(
        lambda bounds: OutageWindow(*bounds),
        st.builds(window, st.floats(0.0, 3.0), st.floats(0.05, 2.0)),
    ),
    max_size=1,
)
schedules = st.builds(
    lambda crashes, outages: FaultSchedule(
        server_crashes=tuple(crashes), network_outages=tuple(outages)
    ),
    crash_windows,
    outage_windows,
)


def held_resources(topology, admission):
    return {
        "admission": [(c.running, c.waiting) for c in admission.values()],
        "memory": [
            (site.memory.capacity_pages - site.memory.available_pages, site.memory.waiting)
            for site in topology.sites
        ],
        "disk": [alloc.used_pages for site in topology.sites for alloc in site.allocators],
    }


def run_to_drain(mode, policy, memory, faults):
    """Run one ``mode`` workload under ``faults``; return (installed, after)."""
    sc = scenario()
    executor = QueryExecutor(
        sc.config.with_memory(memory), sc.catalog, sc.query, seed=1,
        faults=faults, recovery=RECOVERY,
    )
    env, topology = executor.env, executor.topology
    admission = {
        server.site_id: AdmissionController(
            env, server.site_id, AdmissionConfig(max_concurrent=1, queue_limit=1)
        )
        for server in topology.servers
    }
    installed = held_resources(topology, admission)
    if mode == "query":
        try:
            executor.execute(plan_for(policy))
        except (QueryShedError, TransientFaultError):
            pass
    else:
        relations = sc.catalog.relation_names
        for index in range(3):
            if mode == "read":
                work = plan_for(policy)
            else:
                relation = relations[index % len(relations)]
                work = WriteSpec(WRITE_KINDS[index % len(WRITE_KINDS)], relation, (0, 1))
            session = Session(
                executor, work, admission=admission, session_id=f"{mode}{index}"
            )
            env.process(session.run(), name=f"{mode}{index}")
    env.run()
    return installed, held_resources(topology, admission)


@pytest.mark.parametrize("mode", ("query", "read", "write"))
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    faults=schedules,
    policy=st.sampled_from(
        (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING)
    ),
    memory=st.sampled_from(("static", "dynamic")),
)
def test_drained_environment_holds_nothing(mode, faults, policy, memory):
    installed, after = run_to_drain(mode, policy, memory, faults)
    assert after["admission"] == [(0, 0)] * len(after["admission"])
    assert after["memory"] == [(0, 0)] * len(after["memory"])
    assert after["disk"] == installed["disk"]
