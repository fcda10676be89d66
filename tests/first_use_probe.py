"""Runs a Figure-2 point, then the first use of each optional feature.

Usage: ``python first_use_probe.py {fresh,preloaded}``.  ``preloaded``
imports every module of ``repro`` before the first call; ``fresh`` leaves
each optional module to the call that first needs it.  The last line of
output is one JSON object: every step's results and, per step, the
optional modules that step loaded.  ``tests/test_import_footprint.py``
runs both modes and compares them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import sys

#: The modules a run loads only when it uses their feature.
OPTIONAL_MODULES = (
    "repro.consistency.protocol",
    "repro.consistency.versions",
    "repro.engine.aggregates",
    "repro.engine.filters",
    "repro.engine.loadgen",
    "repro.engine.semijoins",
    "repro.engine.supervision",
    "repro.engine.writes",
    "repro.faults.injector",
    "repro.faults.schedule",
    "repro.obs.export",
    "repro.obs.telemetry",
    "repro.obs.trace",
    "repro.optimizer.two_step",
    "repro.plans.render",
)

SEED = 3


def preload() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def figure2() -> dict:
    from repro.config import BufferAllocation, OptimizerConfig
    from repro.optimizer import RandomizedOptimizer
    from repro.plans.policies import Policy
    from repro.workloads.scenarios import chain_scenario

    scenario = chain_scenario(
        num_relations=2,
        num_servers=1,
        allocation=BufferAllocation.MINIMUM,
        cached_fraction=0.5,
        placement_seed=SEED,
    )
    out = {}
    for policy in Policy:
        plan = RandomizedOptimizer(
            scenario.query,
            scenario.environment(),
            policy=policy,
            config=OptimizerConfig.fast(),
            seed=SEED,
        ).optimize().plan
        result = scenario.execute(plan, seed=SEED)
        out[policy.value] = [repr(result.response_time), result.pages_sent]
        STATE[policy] = plan
    STATE["scenario"] = scenario
    return out


def sql() -> dict:
    from repro.config import OptimizerConfig
    from repro.optimizer import RandomizedOptimizer
    from repro.plans.policies import Policy
    from repro.sql.scenario import sql_scenario

    scenario = sql_scenario(
        "SELECT R0.k, COUNT(*) FROM R0, R1 WHERE R0.k = R1.k SELECTIVITY 0.00002 "
        "SEMIJOIN AND slow(R0) COST 20000 GROUP BY R0.k",
        num_servers=2,
        placement_seed=SEED,
    )
    plan = RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=Policy.HYBRID_SHIPPING,
        config=OptimizerConfig.fast(),
        seed=SEED,
    ).optimize().plan
    result = scenario.execute(plan, seed=SEED)
    return {"response_time": repr(result.response_time), "pages_sent": result.pages_sent}


def faults() -> dict:
    from repro.faults import FaultSchedule, RecoveryPolicy
    from repro.plans.policies import Policy

    result = STATE["scenario"].execute(
        STATE[Policy.HYBRID_SHIPPING],
        seed=SEED,
        faults=FaultSchedule.server_crash(1, at=0.2, duration=1.0),
        recovery=RecoveryPolicy(max_attempts=8, base_backoff=0.5),
        policy=Policy.HYBRID_SHIPPING,
    )
    return {
        "response_time": repr(result.response_time),
        "retries": result.retries,
        "replans": result.replans,
        "pages_sent": result.pages_sent,
    }


def trace() -> dict:
    from repro.obs import TelemetryConfig, Tracer, chrome_trace_json
    from repro.plans.policies import Policy

    tracer = Tracer()
    result = STATE["scenario"].execute(
        STATE[Policy.HYBRID_SHIPPING],
        seed=SEED,
        tracer=tracer,
        telemetry=TelemetryConfig(interval=0.25),
    )
    document = chrome_trace_json(tracer, telemetry=result.telemetry)
    return {
        "response_time": repr(result.response_time),
        "chrome_trace_sha256": hashlib.sha256(document.encode()).hexdigest(),
    }


def writes(protocol: str) -> dict:
    from repro.plans.policies import Policy
    from repro.workload import StreamConfig, WorkloadRunner
    from repro.workloads.scenarios import chain_scenario

    scenario = chain_scenario(
        num_relations=2,
        num_servers=2,
        cached_fraction=0.5,
        placement_seed=SEED,
        replication_factor=2,
    )
    result = WorkloadRunner(
        scenario,
        Policy.DATA_SHIPPING,
        num_clients=2,
        stream=StreamConfig(queries_per_client=4, write_fraction=0.5),
        seed=SEED,
        consistency=protocol,
    ).run()
    return {
        "sessions": [
            [s.session_id, s.status, repr(s.response_time)] for s in result.sessions
        ],
        "consistency": {
            key: value for key, value in sorted(result.profile.items()) if ".consistency." in key
        },
    }


def server_load() -> dict:
    from repro.config import OptimizerConfig
    from repro.optimizer import RandomizedOptimizer
    from repro.plans.policies import Policy
    from repro.workloads.scenarios import chain_scenario

    scenario = chain_scenario(num_relations=2, num_servers=1, placement_seed=SEED, server_load=40.0)
    plan = RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=Policy.QUERY_SHIPPING,
        config=OptimizerConfig.fast(),
        seed=SEED,
    ).optimize().plan
    result = scenario.execute(plan, seed=SEED)
    return {"response_time": repr(result.response_time), "pages_sent": result.pages_sent}


def two_step() -> dict:
    from repro.config import OptimizerConfig
    from repro.costmodel.model import Objective
    from repro.optimizer import TwoStepOptimizer

    scenario = STATE["scenario"]
    optimizer = TwoStepOptimizer(Objective.RESPONSE_TIME, OptimizerConfig.fast())
    compiled = optimizer.compile(scenario.query, scenario.environment(), seed=SEED)
    plan = optimizer.runtime_plan(compiled, scenario.environment(), seed=SEED)
    STATE["two_step"] = plan
    return {"response_time": repr(scenario.execute(plan, seed=SEED).response_time)}


def render() -> dict:
    from repro.plans import render_plan

    return {"plan": render_plan(STATE["two_step"])}


STATE: dict = {}

STEPS = (
    ("figure2", figure2),
    ("sql", sql),
    ("faults", faults),
    ("trace", trace),
    ("writes-invalidation", lambda: writes("invalidation")),
    ("writes-detection", lambda: writes("detection")),
    ("server-load", server_load),
    ("two-step", two_step),
    ("render", render),
)


def main(mode: str) -> None:
    if mode == "preloaded":
        preload()
    results = {}
    loaded = {}
    for name, step in STEPS:
        before = {m for m in OPTIONAL_MODULES if m in sys.modules}
        results[name] = step()
        loaded[name] = sorted(m for m in OPTIONAL_MODULES if m in sys.modules and m not in before)
    print(json.dumps({"results": results, "loaded": loaded}))


if __name__ == "__main__":
    main(sys.argv[1])
