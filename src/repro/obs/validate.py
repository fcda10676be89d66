"""Cost-model validation: predicted vs actual per-operator resource costs.

The 2PO optimizer steers plan choice with the analytical cost model of
:mod:`repro.costmodel.model`; this harness quantifies how well that model
tracks the simulator it steers.  For any executed plan it lines up, per
operator label:

- *predicted* resource seconds from
  :meth:`~repro.costmodel.model.CostModel.evaluate_with_breakdown`, and
- *actual* resource seconds from a traced execution
  (:meth:`~repro.obs.trace.Tracer.operator_resource_seconds`),

plus the end-to-end predicted vs actual response time.  2PO mispredictions
show up as large per-row deltas; the EXPERIMENTS.md table over the Figure-2
workload is produced by :func:`figure2_validation`.

This module deliberately stays out of ``repro.obs.__init__``: it imports the
engine and optimizer layers, which themselves import the tracer/metrics
half of ``repro.obs``.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.config import OptimizerConfig
from repro.costmodel.model import CostModel, Objective, PlanCost
from repro.engine.executor import ExecutionResult
from repro.obs.trace import RESOURCE_CATEGORIES, Tracer
from repro.optimizer.two_phase import optimize
from repro.plans.policies import Policy

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.plans.binding import BoundPlan
    from repro.plans.operators import DisplayOp
    from repro.workloads.scenarios import Scenario

__all__ = [
    "OperatorValidation",
    "ValidationReport",
    "validate_plan_costs",
    "figure2_validation",
    "render_validation",
]


@dataclass(frozen=True)
class OperatorValidation:
    """Predicted vs actual resource seconds for one operator."""

    label: str
    predicted: dict[str, float]
    actual: dict[str, float]

    def delta(self, resource: str) -> float:
        """Signed relative error (actual - predicted) / max(actual, eps)."""
        actual = self.actual.get(resource, 0.0)
        predicted = self.predicted.get(resource, 0.0)
        base = max(abs(actual), abs(predicted), 1e-12)
        return (actual - predicted) / base

    @property
    def predicted_total(self) -> float:
        return sum(self.predicted.values())

    @property
    def actual_total(self) -> float:
        return sum(self.actual.values())


@dataclass
class ValidationReport:
    """One plan's predicted-vs-actual comparison."""

    policy: str
    predicted: PlanCost
    result: ExecutionResult
    operators: list[OperatorValidation] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def response_time_delta(self) -> float:
        base = max(self.result.response_time, 1e-12)
        return (self.result.response_time - self.predicted.response_time) / base


def validate_plan_costs(
    scenario: "Scenario",
    plan: "DisplayOp | BoundPlan",
    policy: str = "",
    seed: int = 0,
) -> ValidationReport:
    """Execute ``plan`` with tracing and compare against its predicted costs."""
    cost_model = CostModel(scenario.query, scenario.environment())
    predicted_cost, predicted_ops = cost_model.evaluate_with_breakdown(plan)
    tracer = Tracer()
    result = scenario.execute(plan, seed=seed, tracer=tracer)
    actual_ops = tracer.operator_resource_seconds()
    report = ValidationReport(
        policy=policy, predicted=predicted_cost, result=result, tracer=tracer
    )
    for label in sorted(set(predicted_ops) | set(actual_ops)):
        report.operators.append(
            OperatorValidation(
                label=label,
                predicted=predicted_ops.get(
                    label, dict.fromkeys(RESOURCE_CATEGORIES, 0.0)
                ),
                actual=actual_ops.get(label, dict.fromkeys(RESOURCE_CATEGORIES, 0.0)),
            )
        )
    return report


def figure2_validation(
    cached_fraction: float = 0.5,
    seed: int = 3,
    optimizer: OptimizerConfig | None = None,
) -> list[ValidationReport]:
    """Validate the cost model on the Figure-2 workload, all three policies.

    The Figure-2 setting is the paper's 2-way join with a fraction of every
    relation cached at the client -- the experiment where DS, QS, and HY
    differ most sharply in *where* their time goes.
    """
    from repro.workloads.scenarios import chain_scenario

    scenario = chain_scenario(
        num_relations=2, num_servers=1, cached_fraction=cached_fraction,
        placement_seed=seed,
    )
    optimizer_config = optimizer or OptimizerConfig.fast()
    reports: list[ValidationReport] = []
    for policy in (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING):
        optimization = optimize(
            scenario.query,
            scenario.environment(),
            policy=policy,
            objective=Objective.RESPONSE_TIME,
            config=optimizer_config,
            seed=seed,
        )
        reports.append(
            validate_plan_costs(scenario, optimization.plan, policy=policy.value, seed=seed)
        )
    return reports


def render_validation(report: ValidationReport) -> str:
    """Text table of one report: one row per (operator, resource)."""
    lines = []
    if report.policy:
        lines.append(f"policy: {report.policy}")
    lines.append(
        f"response time: predicted {report.predicted.response_time:.3f}s, "
        f"actual {report.result.response_time:.3f}s "
        f"({report.response_time_delta:+.1%})"
    )
    header = f"{'operator':34s}{'resource':>9s}{'predicted':>12s}{'actual':>12s}{'delta':>9s}"
    lines.append(header)
    lines.append("-" * len(header))
    for op in report.operators:
        for resource in RESOURCE_CATEGORIES:
            predicted = op.predicted.get(resource, 0.0)
            actual = op.actual.get(resource, 0.0)
            if predicted == 0.0 and actual == 0.0:
                continue
            lines.append(
                f"{op.label:34s}{resource:>9s}{predicted:>11.4f}s{actual:>11.4f}s"
                f"{op.delta(resource):>+9.1%}"
            )
    return "\n".join(lines)
