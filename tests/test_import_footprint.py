"""A run loads optional code only when it uses it, and loads it correctly.

Fault injection and the recovery loop, tracing, telemetry export, writes,
consistency protocols, disk load generators, the SQL front end's
operators, 2-step optimization and plan rendering are imported by the
call that first needs them.  Inside one
pytest process every module is already loaded by some earlier test, so
these checks run in fresh interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from tests.first_use_probe import OPTIONAL_MODULES

SRC = Path(repro.__file__).parent.parent
PERFBENCH = SRC.parent / "perfbench"
PROBE = Path(__file__).with_name("first_use_probe.py")

#: Packages whose public names may resolve on first access.
PACKAGES = (
    "repro.consistency",
    "repro.engine",
    "repro.faults",
    "repro.obs",
    "repro.optimizer",
    "repro.plans",
)

FOOTPRINT = f"""
import importlib, json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
import suite

scenario = suite.chain_scenario(
    num_relations=2, num_servers=1, allocation=suite.BufferAllocation.MINIMUM,
    cached_fraction=0.5, placement_seed=3,
)
plan = suite.RandomizedOptimizer(
    scenario.query, scenario.environment(), policy=suite.Policy.HYBRID_SHIPPING,
    config=suite.OptimizerConfig.fast(), seed=3,
).optimize().plan
scenario.execute(plan, seed=3)
loaded = sorted(name for name in sys.modules if name.startswith("repro"))

mismatched = []
for package_name in {PACKAGES!r}:
    package = importlib.import_module(package_name)
    for name in package.__all__:
        value = getattr(package, name)
        module = getattr(value, "__module__", None)
        if not isinstance(module, str):
            module = package._EXPORTS[name]
        defining = importlib.import_module(module)
        if not module.startswith(package_name + ".") or getattr(defining, name) is not value:
            mismatched.append(f"{{package_name}}.{{name}} -> {{module}}")
    if hasattr(package, "no_such_name"):
        mismatched.append(f"{{package_name}}.no_such_name resolves")
print(json.dumps({{"loaded": loaded, "mismatched": mismatched}}))
"""


def _run(*args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_figure2_point_loads_no_optional_module():
    """What the benchmark imports, plus one Figure-2 point, stays core-only;
    then every package name is the object its defining module holds."""
    outcome = _run("-c", FOOTPRINT)
    assert sorted(set(OPTIONAL_MODULES) & set(outcome["loaded"])) == []
    assert outcome["mismatched"] == []


def test_first_use_in_a_fresh_interpreter_matches_preloaded():
    fresh = _run(str(PROBE), "fresh")
    preloaded = _run(str(PROBE), "preloaded")
    assert fresh["results"] == preloaded["results"]
    # Each step really was the first use of its modules in the fresh run.
    assert fresh["loaded"] == {
        "figure2": [],
        "sql": ["repro.engine.aggregates", "repro.engine.filters", "repro.engine.semijoins"],
        "faults": [
            "repro.engine.supervision",
            "repro.faults.injector",
            "repro.faults.schedule",
        ],
        "trace": ["repro.obs.export", "repro.obs.telemetry", "repro.obs.trace"],
        "writes-invalidation": [
            "repro.consistency.protocol",
            "repro.consistency.versions",
            "repro.engine.writes",
        ],
        "writes-detection": [],
        "server-load": ["repro.engine.loadgen"],
        "two-step": ["repro.optimizer.two_step"],
        "render": ["repro.plans.render"],
    }
    assert not any(preloaded["loaded"].values())
