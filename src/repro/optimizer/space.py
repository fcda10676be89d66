"""The search space: the seven plan transformations of section 3.1.1.

Join-order moves (A, B, C are base or temporary relations)::

    1. (A join B) join C  ->  A join (B join C)
    2. (A join B) join C  ->  B join (A join C)
    3. A join (B join C)  ->  (A join B) join C
    4. A join (B join C)  ->  (A join C) join B

Annotation moves::

    5. change a join's annotation to consumer / outer / inner relation
    6. flip a select between consumer and producer
    7. flip a scan between client and primary copy

Policies restrict the move set exactly as in the paper: data-shipping
enables only moves 1-4 (all operators stay at the client); query-shipping
disables moves 6 and 7 and restricts move 5 to inner/outer relation
(a join is never moved to its consumer's site).
"""

from __future__ import annotations

import functools
import random
import typing

from repro.optimizer.random_plans import (
    PlanShape,
    is_deep,
    repair_annotations,
    replace_node,
)
from repro.plans.annotations import Annotation
from repro.plans.logical import Query
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
from repro.plans.policies import Policy, allowed_annotations

__all__ = ["random_neighbor", "enumerate_candidates", "has_cartesian_join"]


def has_cartesian_join(root: PlanOp, query: Query) -> bool:
    """True if any join in the plan is a Cartesian product.

    The paper's optimizer never introduces Cartesian products ("the
    optimizer will not join them locally as the result would be a Cartesian
    product", section 4.3.1); reorder moves that would create one are
    rejected, unless the query's join graph is disconnected and products
    are unavoidable.
    """
    for op in root.walk():
        if isinstance(op, JoinOp) and not query.predicates_between(
            op.inner.relations(), op.outer.relations()
        ):
            return True
    return False


def _apply_reorder(move: int, join: JoinOp) -> JoinOp:
    """Apply a join-order move at ``join``, reusing existing annotations."""
    if move in (1, 2):
        lower = join.inner
        assert isinstance(lower, JoinOp)
        a, b, c = lower.inner, lower.outer, join.outer
        if move == 1:  # (A  B)  C -> A  (B  C)
            return join.with_children(a, lower.with_children(b, c))
        return join.with_children(b, lower.with_children(a, c))  # move 2
    lower = join.outer
    assert isinstance(lower, JoinOp)
    a, b, c = join.inner, lower.inner, lower.outer
    if move == 3:  # A  (B  C) -> (A  B)  C
        return join.with_children(lower.with_children(a, b), c)
    return join.with_children(lower.with_children(a, c), b)  # move 4


@functools.lru_cache(maxsize=None)
def _sorted_annotations(policy: Policy, kind: str) -> tuple[Annotation, ...]:
    """Table-1 annotations for ``kind`` in deterministic order (hot path)."""
    return tuple(sorted(allowed_annotations(policy, kind), key=lambda a: a.value))


def enumerate_candidates(
    root: DisplayOp,
    policy: Policy,
    annotation_moves_only: bool = False,
    forced_client_relations: frozenset[str] = frozenset(),
    replica_options: "typing.Mapping[str, tuple[int, ...]] | None" = None,
) -> list[tuple[str, object]]:
    """All applicable concrete moves, tagged 'reorder', 'annotate',
    'rehome', or 'udf-site'.

    Data-shipping has no annotation freedom (every set in Table 1 is a
    singleton), so only reorder moves remain; query-shipping's annotation
    candidates are automatically restricted to inner/outer relation.

    ``replica_options`` maps each replicated relation to every server id
    holding a copy (primary first); move 8 ("rehome") repoints a scan at a
    different copy.  An empty/None mapping contributes no candidates, so
    unreplicated optimizations see exactly the pre-replica move set.

    Move 9 ("udf-site") re-sites a function-shipping operator -- a UDF
    filter, semi-join reducer, or aggregate -- by re-annotating it.  Plans
    without those operators contribute no such candidates, keeping the
    candidate list (and hence the optimizer's RNG stream) byte-identical
    to the pre-SQL move set; UDFs pinned by :attr:`UdfPredicate.site`
    generate none either.
    """
    # One walk collects every move kind; reorders stay ahead of annotation
    # moves (and rehomes / udf-sites come last) so candidate indexing is
    # unchanged from the two-walk version whenever no relation is
    # replicated and no function-shipping operator is present.
    reorders: list[tuple[str, object]] = []
    annotates: list[tuple[str, object]] = []
    rehomes: list[tuple[str, object]] = []
    funcsites: list[tuple[str, object]] = []
    structural = not annotation_moves_only
    for op in root.walk():
        if isinstance(op, ScanOp):
            if op.relation in forced_client_relations:
                continue
            if replica_options:
                options = replica_options.get(op.relation, ())
                if len(options) > 1:
                    current = op.home if op.home is not None else options[0]
                    for server in options:
                        if server != current:
                            # None canonicalizes "the primary copy" so such
                            # plans compare equal to unreplicated ones.
                            home = None if server == options[0] else server
                            rehomes.append(("rehome", (op, home)))
        elif structural and isinstance(op, JoinOp):
            if isinstance(op.inner, JoinOp):
                reorders.append(("reorder", (1, op)))
                reorders.append(("reorder", (2, op)))
            if isinstance(op.outer, JoinOp):
                reorders.append(("reorder", (3, op)))
                reorders.append(("reorder", (4, op)))
        if isinstance(op, (JoinOp, SelectOp, ScanOp)):
            current_annotation = op.annotation
            for annotation in _sorted_annotations(policy, op.kind):
                if annotation is not current_annotation:
                    annotates.append(("annotate", (op, annotation)))
        elif isinstance(op, (UdfFilterOp, SemiJoinOp, AggregateOp)):
            if isinstance(op, UdfFilterOp) and op.udf.site != "auto":
                continue
            current_annotation = op.annotation
            for annotation in _sorted_annotations(policy, op.kind):
                if annotation is not current_annotation:
                    funcsites.append(("udf-site", (op, annotation)))
    return reorders + annotates + rehomes + funcsites


def random_neighbor(
    root: DisplayOp,
    query: Query,
    policy: Policy,
    rng: random.Random,
    shape: PlanShape = PlanShape.ANY,
    annotation_moves_only: bool = False,
    forced_client_relations: frozenset[str] = frozenset(),
    replica_options: "typing.Mapping[str, tuple[int, ...]] | None" = None,
) -> DisplayOp | None:
    """One random move applied to ``root``; None if no move applies.

    The result is repaired to well-formedness (only hybrid plans can become
    ill-formed) and, under a ``DEEP`` shape constraint, structural moves
    that would create a bushy tree are rejected.
    """
    candidates = enumerate_candidates(
        root, policy, annotation_moves_only, forced_client_relations,
        replica_options,
    )
    if not candidates:
        return None
    # Computed lazily: annotation moves never create Cartesian products, so
    # plans without reorder candidates skip the check entirely.
    root_has_cartesian: bool | None = None
    for _attempt in range(8):
        kind, payload = candidates[rng.randrange(len(candidates))]
        if kind == "reorder":
            move, join = payload  # type: ignore[misc]
            new_root = replace_node(root, join, _apply_reorder(move, join))
            if root_has_cartesian is None:
                root_has_cartesian = has_cartesian_join(root, query)
            if shape is PlanShape.DEEP and not is_deep(new_root.child):
                continue
            if not root_has_cartesian and has_cartesian_join(new_root, query):
                continue
        elif kind == "rehome":
            op, home = payload  # type: ignore[misc]
            assert isinstance(op, ScanOp)
            new_root = replace_node(root, op, op.with_home(home))
        else:
            op, annotation = payload  # type: ignore[misc]
            new_root = replace_node(root, op, op.with_annotation(annotation))
        return repair_annotations(new_root, policy, rng)
    return None
