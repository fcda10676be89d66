"""Span tracing of ``repro``'s layers from outside the program.

A :class:`SpanRecorder` wraps the public entry points of each layer at the
module where callers look them up, records one span per call (name,
start, end, parent span, unit id) in memory, and restores every original
on :meth:`SpanRecorder.uninstall`.  Nothing under ``src/`` knows about it,
so untraced runs pay nothing.

The unit id of a span is the id of its outermost ancestor: every span a
grid point's optimization or a workload run causes shares that id.

A layer's self time is its span's duration minus the time its child spans
cover; since every wrapped call is synchronous, children nest strictly and
self time is computed when a span closes.
"""

from __future__ import annotations

import functools
import json
import time
import typing
from collections import defaultdict

__all__ = ["SpanRecorder"]


def _entry_points() -> list[tuple[typing.Any, str, str]]:
    """``(owner, attribute, span name)`` of every wrapped entry point."""
    import repro.costmodel.model as costmodel_model
    import repro.engine.executor as engine_executor
    import repro.optimizer.two_phase as two_phase
    import repro.sim.engine as sim_engine
    import repro.workload.runner as workload_runner
    import repro.workloads.scenarios as scenarios

    import suite

    return [
        (two_phase.RandomizedOptimizer, "optimize", "optimizer.optimize"),
        (two_phase, "random_neighbor", "optimizer.neighbor"),
        (costmodel_model.CostModel, "evaluate", "costmodel.evaluate"),
        # bind_plan is looked up in the cost model and the executor.
        (costmodel_model, "bind_plan", "plans.bind"),
        (engine_executor, "bind_plan", "plans.bind"),
        (suite, "chain_scenario", "workloads.scenario"),
        (scenarios.Scenario, "execute", "engine.execute"),
        (workload_runner.WorkloadRunner, "run", "workload.run"),
        (sim_engine.Environment, "run", "sim.run"),
    ]


class SpanRecorder:
    """Records spans of wrapped ``repro`` calls; see the module docstring."""

    def __init__(self) -> None:
        #: Spans in the order they opened: [name, start, end, parent index,
        #: unit, pass, self seconds, attribute].  A span's index is its
        #: position here.
        self.spans: list[list[typing.Any]] = []
        self._stack: list[list[typing.Any]] = []
        self._originals: list[tuple[typing.Any, str, typing.Any]] = []
        self.pass_label: typing.Any = "setup"

    # ------------------------------------------------------------------
    # Installing and restoring the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("span recorder already installed")
        for owner, attribute, name in _entry_points():
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(self, function: typing.Callable, name: str) -> typing.Callable:
        recorder = self
        measure = _ATTRIBUTES.get(name)

        @functools.wraps(function)
        def traced(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            before = measure[0](args) if measure is not None else None
            frame = recorder._open(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                attribute = None
                if measure is not None:
                    attribute = measure[1](args, before, result)
                recorder._close(frame, attribute)

        return traced

    def _open(self, name: str) -> list[typing.Any]:
        """Start a span; returns its stack frame ``[index, child seconds]``."""
        index = len(self.spans)
        if self._stack:
            parent = self._stack[-1][0]
            unit = self.spans[parent][4]
        else:
            parent, unit = None, index
        self.spans.append([name, 0.0, 0.0, parent, unit, self.pass_label, 0.0, None])
        frame = [index, 0.0]
        self._stack.append(frame)
        self.spans[index][1] = time.perf_counter()
        return frame

    def _close(self, frame: list[typing.Any], attribute: typing.Any) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[frame[0]]
        duration = end - span[1]
        if self._stack:
            self._stack[-1][1] += duration
        span[2] = end
        span[6] = duration - frame[1]
        span[7] = attribute

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------
    def layer_totals(self, pass_label: typing.Any) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``self_s``, ``total_s`` and ``attr``
        (sum of the recorded attribute) over the spans of one pass.

        ``nested_optimize_s`` is the inclusive time of optimize spans whose
        ancestors include a workload run (planning at submission time).
        """
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "self_s": 0.0, "total_s": 0.0, "attr": 0.0}
        )
        in_run: dict[int, bool] = {}
        nested_optimize = 0.0
        for index, (name, start, end, parent, _unit, label, self_s, attr) in enumerate(
            self.spans
        ):
            if label != pass_label:
                continue
            entry = totals[name]
            entry["count"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
            entry["attr"] += attr or 0
            inside = parent is not None and (
                in_run.get(parent, False) or self.spans[parent][0] == "workload.run"
            )
            in_run[index] = inside
            if inside and name == "optimizer.optimize":
                nested_optimize += end - start
        totals["workload.run"]["nested_optimize_s"] = nested_optimize
        return dict(totals)

    def export(self, path: "typing.Any") -> None:
        """Write every span as JSON (one object per span)."""
        fields = ("name", "start", "end", "parent", "unit", "pass", "self_s", "attr")
        with open(path, "w") as out:
            json.dump([dict(zip(fields, span)) for span in self.spans], out)


def _node_visits(args: tuple) -> int:
    return args[0].node_visits


def _visits_delta(args: tuple, before: int, _result: typing.Any) -> int:
    return args[0].node_visits - before


def _sim_now(args: tuple) -> float:
    return args[0].now


def _sim_advance(args: tuple, before: float, _result: typing.Any) -> float:
    return args[0].now - before


def _no_state(_args: tuple) -> None:
    return None


def _evaluations(_args: tuple, _before: None, result: typing.Any) -> int:
    # Cost evaluations the optimizer itself ran (0 on a plan-cache hit).
    return 0 if result is None else result.evaluations


#: Per span name: (read before the call, attribute after the call).
_ATTRIBUTES: dict[str, tuple[typing.Callable, typing.Callable]] = {
    "optimizer.optimize": (_no_state, _evaluations),
    "costmodel.evaluate": (_node_visits, _visits_delta),
    "sim.run": (_sim_now, _sim_advance),
}
