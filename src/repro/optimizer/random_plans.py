"""Random plan generation: the starting points of iterative improvement.

A random plan is a random join tree over the query's relations (avoiding
Cartesian products whenever the join graph allows) with random policy-legal
annotations, repaired to well-formedness.  Selections are always planned
directly above their relation's scan, as in the paper's workloads.
"""

from __future__ import annotations

import enum
import random
import typing

from repro.errors import OptimizationError
from repro.plans.annotations import Annotation
from repro.plans.logical import Query, UdfPredicate
from repro.plans.operators import (
    UNARY_STREAM_OPS,
    AggregateOp,
    DisplayOp,
    JoinOp,
    PlanOp,
    ScanOp,
    SelectOp,
    SemiJoinOp,
    UdfFilterOp,
)
from repro.plans.policies import Policy, allowed_annotations
from repro.plans.validate import find_annotation_cycles

__all__ = [
    "PlanShape",
    "force_client_scans",
    "random_plan",
    "random_join_tree",
    "rehome_scans",
    "repair_annotations",
    "replace_node",
]


class PlanShape(enum.Enum):
    """Optional structural constraint on generated join trees.

    ``DEEP`` restricts plans to linear trees (every join has at most one
    join child), the left-deep shape of the section-5 experiments; ``ANY``
    permits bushy trees.
    """

    ANY = "any"
    DEEP = "deep"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def is_deep(plan: PlanOp) -> bool:
    """True if no join in the subtree has two join children."""
    for op in plan.walk():
        if isinstance(op, JoinOp):
            join_children = sum(
                1 for child in op.children if _strip_selects(child) and
                isinstance(_strip_selects(child), JoinOp)
            )
            if join_children > 1:
                return False
    return True


def _strip_selects(op: PlanOp) -> PlanOp:
    while isinstance(op, (SelectOp, SemiJoinOp, UdfFilterOp)):
        op = op.child
    return op


def udf_annotation(udf: UdfPredicate, policy: Policy, rng: random.Random) -> Annotation:
    """A policy-legal annotation for a UDF filter, honouring its pin.

    Pinned UDFs (``site`` of ``"client"`` or ``"server"``) consume no
    randomness, so a query whose UDF placements are all forced draws the
    same RNG stream regardless of the pins chosen.
    """
    if udf.site == "client":
        return Annotation.CLIENT
    if udf.site == "server":
        return Annotation.PRODUCER
    return _random_annotation(policy, "udf-filter", rng)


def _leaf(query: Query, relation: str, policy: Policy, rng: random.Random) -> PlanOp:
    op: PlanOp = ScanOp(_random_annotation(policy, "scan", rng), relation)
    # UDFs pinned to the server evaluate during the scan, directly above it:
    # a scan is never annotated consumer, so the pinned producer annotation
    # can never form a cycle even when the policy leaves the operators above
    # (select / semi-join under data shipping) no choice but consumer.
    for udf in query.udfs_on(relation):
        if udf.site == "server":
            op = UdfFilterOp(Annotation.PRODUCER, child=op, udf=udf)
    selectivity = query.selection_on(relation)
    if selectivity is not None:
        op = SelectOp(_random_annotation(policy, "select", rng), child=op,
                      selectivity=selectivity)
    reduction = query.semi_join_on(relation)
    if reduction is not None:
        op = SemiJoinOp(
            _random_annotation(policy, "semijoin", rng), child=op, reduction=reduction
        )
    for udf in query.udfs_on(relation):
        if udf.site != "server":
            op = UdfFilterOp(udf_annotation(udf, policy, rng), child=op, udf=udf)
    return op


def _random_annotation(policy: Policy, kind: str, rng: random.Random) -> Annotation:
    choices = sorted(allowed_annotations(policy, kind), key=lambda a: a.value)
    return rng.choice(choices)


def random_join_tree(
    query: Query,
    policy: Policy,
    rng: random.Random,
    shape: PlanShape = PlanShape.ANY,
) -> PlanOp:
    """A random join tree over the query's relations.

    Pairs of subtrees connected by a join predicate are preferred, so
    Cartesian products only appear when the join graph is disconnected.
    ``DEEP`` grows a single linear chain instead of merging random pairs.
    """
    forest: list[PlanOp] = [_leaf(query, r, policy, rng) for r in query.relations]
    if shape is PlanShape.DEEP and len(forest) > 1:
        rng.shuffle(forest)
        current = forest.pop()
        while forest:
            connected = [
                t for t in forest
                if query.predicates_between(current.relations(), t.relations())
            ]
            pool = connected or forest
            pick = rng.choice(pool)
            forest.remove(pick)
            annotation = _random_annotation(policy, "join", rng)
            if rng.random() < 0.5:
                current = JoinOp(annotation, inner=current, outer=pick)
            else:
                current = JoinOp(annotation, inner=pick, outer=current)
        return current
    while len(forest) > 1:
        connected_pairs = [
            (i, j)
            for i in range(len(forest))
            for j in range(i + 1, len(forest))
            if query.predicates_between(forest[i].relations(), forest[j].relations())
        ]
        if connected_pairs:
            i, j = rng.choice(connected_pairs)
        else:
            i, j = rng.sample(range(len(forest)), 2)
            i, j = min(i, j), max(i, j)
        right = forest.pop(j)
        left = forest.pop(i)
        if rng.random() < 0.5:
            left, right = right, left
        forest.append(JoinOp(_random_annotation(policy, "join", rng), inner=left, outer=right))
    return forest[0]


def repair_annotations(root: DisplayOp, policy: Policy, rng: random.Random) -> DisplayOp:
    """Re-sample annotations until the plan is well-formed.

    A two-node cycle is a parent pointing down at a ``consumer`` child.  The
    repair re-draws the child's annotation away from ``consumer`` when the
    policy permits; when it does not (data shipping pins selects, semi-joins,
    and aggregates to ``consumer``), the cycle is broken on the parent side
    instead -- the only downward-pointing parent data shipping allows is a
    ``producer`` UDF filter, which always has ``client`` as an alternative.
    """
    for _attempt in range(64):
        cycles = find_annotation_cycles(root)
        if not cycles:
            return root
        parent, child = cycles[rng.randrange(len(cycles))]
        options = [
            a for a in allowed_annotations(policy, child) if a is not Annotation.CONSUMER
        ]
        if options:
            replacement = child.with_annotation(
                rng.choice(sorted(options, key=lambda a: a.value))
            )
            root = replace_node(root, child, replacement)
            continue
        pinned = isinstance(parent, UdfFilterOp) and parent.udf.site != "auto"
        if isinstance(parent, UNARY_STREAM_OPS) and not pinned:
            parent_options = [
                a
                for a in allowed_annotations(policy, parent)
                if a is not Annotation.PRODUCER
            ]
            if parent_options:
                replacement = parent.with_annotation(
                    rng.choice(sorted(parent_options, key=lambda a: a.value))
                )
                root = replace_node(root, parent, replacement)
                continue
        raise OptimizationError(f"cannot repair cycle at {child.kind}")
    raise OptimizationError("annotation repair did not converge")


def replace_node(root: DisplayOp, target: PlanOp, replacement: PlanOp) -> DisplayOp:
    """Copy of the tree with ``target`` (matched by identity) replaced.

    Only the operators on the path from the root down to ``target`` are
    copied; every other subtree is shared with ``root``.  Plan operators
    are immutable, so sharing is safe, and the result is structurally
    identical to a full copy.  A tree without ``target`` comes back as is.
    """
    path: list[PlanOp] = []
    stack: list[tuple[PlanOp, int]] = [(root, 0)]
    while stack:
        op, depth = stack.pop()
        del path[depth:]
        path.append(op)
        if op is target:
            break
        stack.extend((child, depth + 1) for child in reversed(op.children))
    else:
        return root
    node = replacement
    for depth in range(len(path) - 2, -1, -1):
        parent = path[depth]
        if isinstance(parent, JoinOp):
            if parent.inner is path[depth + 1]:
                node = parent.with_children(node, parent.outer)
            else:
                node = parent.with_children(parent.inner, node)
        else:
            assert isinstance(parent, UNARY_STREAM_OPS)
            node = parent.with_child(node)
    assert isinstance(node, DisplayOp)
    return node


def _rewrite_scans(
    root: DisplayOp, rewrite: typing.Callable[[ScanOp], ScanOp]
) -> DisplayOp:
    """The tree with every scan replaced by ``rewrite(scan)``."""
    for scan in [op for op in root.walk() if isinstance(op, ScanOp)]:
        new = rewrite(scan)
        if new is not scan:
            root = replace_node(root, scan, new)
    return root


def force_client_scans(root: DisplayOp, relations: frozenset[str]) -> DisplayOp:
    """Pin the scans of ``relations`` to the client (crash exclusion).

    Used when re-optimizing around crashed servers: a relation whose
    primary copy is unreachable can only be read from the client's cached
    prefix, so its scan annotation is forced to ``client``.
    """
    return _rewrite_scans(
        root,
        lambda op: (
            op.with_annotation(Annotation.CLIENT)
            if op.relation in relations and op.annotation is not Annotation.CLIENT
            else op
        ),
    )


def rehome_scans(root: DisplayOp, homes: "dict[str, int | None]") -> DisplayOp:
    """Re-pin the scans of the given relations onto specific copies.

    ``homes`` maps relation name to a server id holding a copy (or None for
    the primary).  Used by fault recovery to fail a mid-query scan over onto
    a surviving replica without changing the rest of the plan.
    """
    return _rewrite_scans(
        root,
        lambda op: (
            op.with_home(homes[op.relation])
            if op.relation in homes and op.home != homes[op.relation]
            else op
        ),
    )


def random_plan(
    query: Query,
    policy: Policy,
    rng: random.Random,
    shape: PlanShape = PlanShape.ANY,
    forced_client_relations: frozenset[str] = frozenset(),
) -> DisplayOp:
    """A complete random, policy-legal, well-formed plan for ``query``."""
    if forced_client_relations and Annotation.CLIENT not in allowed_annotations(
        policy, "scan"
    ):
        raise OptimizationError(
            f"{policy} cannot scan at the client, so it cannot exclude the "
            f"primary sites of {sorted(forced_client_relations)}"
        )
    tree = random_join_tree(query, policy, rng, shape)
    if query.aggregation is not None:
        agg = query.aggregation
        tree = AggregateOp(
            _random_annotation(policy, "aggregate", rng),
            child=tree,
            group_by=agg.group_by,
            aggregates=agg.aggregates,
            groups=agg.groups,
        )
    root = DisplayOp(Annotation.CLIENT, child=tree)
    root = force_client_scans(root, forced_client_relations)
    return repair_annotations(root, policy, rng)
