"""The benchmark's own tests, at tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
import worker  # noqa: E402

from repro.plans.policies import Policy  # noqa: E402
from repro.workload import AdmissionConfig  # noqa: E402
from repro.workload.admission import AdmissionPolicy  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *arguments],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json and the printed metrics
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalog():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    spec = _benchmark_json()
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    process = _run(
        "--workload", "fig2_grid", "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [line.split() for line in lines[:-1] if not line.startswith("#")]
        assert any(
            row[1] == metric["name"] and row[-1] == metric["unit"] for row in printed
        ), metric["name"]


def test_missing_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    process = _run(
        "--workload", "fig2_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""


# ----------------------------------------------------------------------
# Exact metrics repeat; perturbed results fail their checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_exact_metrics_equal_between_two_passes(name):
    workload = suite.build(name, seed=5, size="tiny")
    first, second = workload.run_pass(), workload.run_pass()
    assert first.failures == [] and second.failures == []
    assert first.sim == second.sim
    assert first.counts == second.counts
    assert first.digest == second.digest


def test_inputs_follow_the_seed():
    assert suite.derive_seeds(1, 3) == suite.derive_seeds(1, 3)
    assert suite.derive_seeds(1, 3) != suite.derive_seeds(2, 3)
    one = suite.build("write_mix", seed=1, size="tiny").run_pass()
    two = suite.build("write_mix", seed=2, size="tiny").run_pass()
    assert one.digest != two.digest


def test_figure2_shape_check():
    check = suite._figure2_shape
    assert check(0.5, Policy.QUERY_SHIPPING, 250) is None
    assert check(0.25, Policy.DATA_SHIPPING, 376) is None
    assert check(0.5, Policy.QUERY_SHIPPING, 251) is not None
    assert check(0.5, Policy.DATA_SHIPPING, 300) is not None


def test_perturbed_grid_result_fails_its_check(monkeypatch):
    workload = suite.build("fig2_grid", seed=1, size="tiny")
    scenario_type = type(workload.points[0].scenario)
    execute = scenario_type.execute

    def shifted(self, plan, **kwargs):
        result = execute(self, plan, **kwargs)
        return replace(result, pages_sent=result.pages_sent + 7)

    monkeypatch.setattr(scenario_type, "execute", shifted)
    outcome = workload.run_pass()
    assert len(outcome.failures) >= 2  # every DS and QS point
    assert all("shipped" in failure for failure in outcome.failures)


def test_shed_sessions_fail_their_check():
    workload = suite.build("closed_100", seed=1, size="tiny")
    workload.runs[0]["admission"] = AdmissionConfig(
        max_concurrent=1, queue_limit=0, policy=AdmissionPolicy.SHED
    )
    outcome = workload.run_pass()
    assert outcome.failures
    assert outcome.counts["workload.shed"] == len(outcome.failures)


def test_served_stale_page_fails_its_check(monkeypatch):
    import repro.workload.runner as runner_module

    run_workload = runner_module.WorkloadRunner.run

    def leaky(self):
        result = run_workload(self)
        self.last_topology.consistency.stale_served = 1
        return result

    monkeypatch.setattr(runner_module.WorkloadRunner, "run", leaky)
    outcome = suite.build("write_mix", seed=1, size="tiny").run_pass()
    assert any("stale pages served" in failure for failure in outcome.failures)


class _DriftingWorkload:
    """A workload whose simulated results change from pass to pass."""

    def __init__(self) -> None:
        self.passes = 0

    def run_pass(self) -> suite.PassOutcome:
        self.passes += 1
        return suite.PassOutcome(1, [], {}, {}, digest=str(self.passes))


def test_a_pass_that_differs_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(suite, "build", lambda *args: _DriftingWorkload())
    assert worker.main(["--workload", "fig2_grid", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == worker.MIN_PASSES
    result.update(setup_samples=[0.1], pass_walls=[0.1])
    result["sim"] = {name: 1.0 for name in run.END_TO_END}
    final = run.report("fig2_grid", result, trace=False)
    assert final["correct"] is False


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
def test_wrappers_are_restored():
    owners = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in spans._entry_points()]
    recorder = spans.SpanRecorder()
    recorder.install()
    assert all(owner.__dict__[attribute] is not original for owner, attribute, original in owners)
    recorder.uninstall()
    assert all(owner.__dict__[attribute] is original for owner, attribute, original in owners)


def test_traced_pass_matches_untraced_and_self_time_adds_up(tmp_path):
    workload = suite.build("closed_100", seed=2, size="tiny")
    untraced = workload.run_pass()
    recorder = spans.SpanRecorder()
    recorder.pass_label = 0
    recorder.install()
    try:
        traced = workload.run_pass()
    finally:
        recorder.uninstall()
    assert traced.digest == untraced.digest
    totals = recorder.layer_totals(0)
    assert totals["workload.run"]["count"] == 1
    assert totals["optimizer.optimize"]["count"] >= 1
    assert totals["workload.run"]["nested_optimize_s"] > 0.0
    root = next(s for s in recorder.spans if s[0] == "workload.run")
    duration = root[2] - root[1]
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(duration)
    for name, start, end, parent, unit, _label, self_s, _attr in recorder.spans:
        assert 0.0 <= self_s <= end - start + 1e-9
        if parent is not None:
            assert recorder.spans[parent][1] <= start and end <= recorder.spans[parent][2]
            assert unit == recorder.spans[parent][4]
    out = tmp_path / "spans.json"
    recorder.export(out)
    assert len(json.loads(out.read_text())) == len(recorder.spans)
