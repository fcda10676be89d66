"""EXPLAIN-ANALYZE-style per-query profile reports.

``repro profile`` optimizes one chain-join query, executes it with tracing
on, and renders the **bound operator tree** (the paper's Figure-1 shape)
with each node's predicted vs actual resource seconds side by side --
predictions from the analytical cost model
(:meth:`~repro.costmodel.model.CostModel.evaluate_with_breakdown`), actuals
from the traced execution
(:meth:`~repro.obs.trace.Tracer.operator_resource_seconds`).  It is the
single-query, tree-shaped view of the same data
:mod:`repro.obs.validate` tabulates flat: the tree makes it obvious
*which subtree* a misprediction lives in, not just which label.

Network transfers materialized by the executor (``xfer:*`` receivers) are
not plan-tree nodes; they are listed separately below the tree so the
report still accounts for every traced label.
"""

from __future__ import annotations

import typing

from repro.obs.trace import RESOURCE_CATEGORIES
from repro.obs.validate import OperatorValidation, ValidationReport, validate_plan_costs

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.config import OptimizerConfig
    from repro.plans.binding import BoundPlan

__all__ = ["profile_query", "render_profile"]


def profile_query(
    policy: str = "hybrid",
    num_relations: int = 2,
    num_servers: int = 1,
    cached_fraction: float = 0.5,
    seed: int = 0,
    optimizer: "OptimizerConfig | None" = None,
) -> "tuple[ValidationReport, BoundPlan]":
    """Optimize, execute with tracing, and validate one chain-join query.

    Returns the validation report plus the bound plan whose tree
    :func:`render_profile` draws.  Accepts the same policy spellings as
    :func:`repro.api.run_query`.
    """
    from repro.api import _parse_policy
    from repro.config import OptimizerConfig as _OptimizerConfig
    from repro.costmodel.model import Objective
    from repro.optimizer.two_phase import optimize
    from repro.plans.binding import bind_plan
    from repro.workloads.scenarios import chain_scenario

    parsed = _parse_policy(policy)
    scenario = chain_scenario(
        num_relations=num_relations,
        num_servers=num_servers,
        cached_fraction=cached_fraction,
        placement_seed=seed,
    )
    optimization = optimize(
        scenario.query,
        scenario.environment(),
        policy=parsed,
        objective=Objective.RESPONSE_TIME,
        config=optimizer or _OptimizerConfig.fast(),
        seed=seed,
    )
    report = validate_plan_costs(
        scenario, optimization.plan, policy=parsed.value, seed=seed
    )
    return report, bind_plan(optimization.plan, scenario.catalog)


def _columns(validation: "OperatorValidation | None") -> str:
    if validation is None:
        return "(no cost attributed)"
    base = max(abs(validation.actual_total), abs(validation.predicted_total), 1e-12)
    delta = (validation.actual_total - validation.predicted_total) / base
    cells = [
        f"{validation.predicted_total:>8.4f}s",
        f"{validation.actual_total:>8.4f}s",
        f"{delta:>+7.1%}",
    ]
    parts = [
        f"{resource} {validation.predicted.get(resource, 0.0):.4f}/"
        f"{validation.actual.get(resource, 0.0):.4f}"
        for resource in RESOURCE_CATEGORIES
        if validation.predicted.get(resource, 0.0)
        or validation.actual.get(resource, 0.0)
    ]
    return " ".join(cells) + ("  [" + ", ".join(parts) + "]" if parts else "")


def render_profile(report: ValidationReport, bound: "BoundPlan") -> str:
    """Render the bound plan tree with predicted-vs-actual costs per node."""
    labels = bound.operator_labels()
    by_label = {op.label: op for op in report.operators}

    rows: list[tuple[str, str]] = []

    def visit(op, prefix: str, is_last: bool, is_root: bool) -> None:
        label = labels[id(op)]
        if is_root:
            rows.append((label, label))
            child_prefix = ""
        else:
            connector = "'-- " if is_last else "|-- "
            rows.append((prefix + connector + label, label))
            child_prefix = prefix + ("    " if is_last else "|   ")
        for index, child in enumerate(op.children):
            visit(child, child_prefix, index == len(op.children) - 1, False)

    visit(bound.root, "", True, True)

    width = max(len(tree) for tree, _ in rows)
    header = (
        f"{'operator':{width}s} {'predicted':>9s} {'actual':>9s} {'delta':>8s}"
        "  [per-resource predicted/actual seconds]"
    )
    lines = []
    if report.policy:
        lines.append(f"policy: {report.policy}")
    lines.append(
        f"response time: predicted {report.predicted.response_time:.3f}s, "
        f"actual {report.result.response_time:.3f}s "
        f"({report.response_time_delta:+.1%})"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for tree, label in rows:
        lines.append(f"{tree:{width}s} {_columns(by_label.get(label))}")
    extras = sorted(set(by_label) - {label for _, label in rows})
    if extras:
        lines.append("")
        lines.append("network transfers (not plan-tree nodes):")
        for label in extras:
            lines.append(f"{label:{width}s} {_columns(by_label[label])}")
    return "\n".join(lines)
