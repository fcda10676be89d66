"""Query plans: logical queries, annotated operator trees, and policies.

An execution plan is a binary tree of operators (scan, select, join,
display).  Site selection is expressed by *logical annotations* (section
2.1): ``client``, ``primary copy``, ``consumer``, ``producer``, ``inner
relation``, ``outer relation``.  The data-shipping, query-shipping and
hybrid-shipping policies are defined purely by which annotations they allow
for each operator (Table 1); :mod:`repro.plans.policies` encodes that table.

Annotations are bound to physical sites only at execution time
(:mod:`repro.plans.binding`), so the same plan adapts when data migrates or
queries are submitted elsewhere -- the property the 2-step optimization study
(section 5) relies on.  :func:`render_plan` loads on first access.
"""

from repro import lazy_getattr
from repro.plans.logical import (
    Aggregation,
    JoinPredicate,
    Query,
    SemiJoinReduction,
    UdfPredicate,
)
from repro.plans.annotations import Annotation
from repro.plans.operators import (
    AggregateOp,
    DisplayOp,
    JoinOp,
    PlanOp,
    ScanOp,
    SelectOp,
    SemiJoinOp,
    UdfFilterOp,
)
from repro.plans.policies import Policy, allowed_annotations, check_policy
from repro.plans.validate import is_well_formed, validate_plan
from repro.plans.binding import BoundPlan, bind_plan

#: Names imported from their defining module on first access.
_EXPORTS = {"render_plan": "repro.plans.render"}

__all__ = [
    "AggregateOp",
    "Aggregation",
    "Annotation",
    "BoundPlan",
    "DisplayOp",
    "JoinOp",
    "JoinPredicate",
    "PlanOp",
    "Policy",
    "Query",
    "ScanOp",
    "SelectOp",
    "SemiJoinOp",
    "SemiJoinReduction",
    "UdfFilterOp",
    "UdfPredicate",
    "allowed_annotations",
    "bind_plan",
    "check_policy",
    "is_well_formed",
    "render_plan",
    "validate_plan",
]

__getattr__ = lazy_getattr(globals(), _EXPORTS)
