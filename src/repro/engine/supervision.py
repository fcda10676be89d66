"""The recovery loop of fault-tolerant sessions.

A :class:`~repro.engine.executor.Session` runs its work through this loop
only when its executor has a fault injector or a recovery policy; a
fault-free session runs one inline attempt and never loads this module.

Each attempt is spawned under supervision and raced against its fault
event and the timeout.  A failed attempt gives back its tickets, grants
and temp extents, is counted and traced, and is followed -- within the
attempt budget -- by a jittered backoff and, for annotated plans, a
replan around crashed sites.  The timeout is measured from *submission*,
so time spent in admission queues uses up budget: queueing delay is part
of the response time the client experiences.
"""

from __future__ import annotations

import random
import typing

from repro.errors import (
    OptimizationError,
    PolicyViolationError,
    QueryShedError,
    QueryTimeoutError,
    TransientFaultError,
)
from repro.faults.recovery import RecoveryPolicy
from repro.hardware.site import CLIENT_SITE_ID
from repro.optimizer.random_plans import rehome_scans
from repro.plans.annotations import Annotation
from repro.plans.operators import DisplayOp, ScanOp
from repro.plans.policies import Policy, allowed_annotations, check_policy
from repro.sim import AnyOf

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import QueryExecutor, Session
    from repro.sim import Event

__all__ = ["replan", "supervised_attempts"]


def supervised_attempts(session: Session) -> typing.Generator:
    """Run ``session``'s work to completion under supervision; returns
    ``(result tuples, target)`` or raises the last failure."""
    executor = session.executor
    work = session.work
    env = executor.env
    recovery = session.recovery or RecoveryPolicy()
    stats = session.stats
    rng = random.Random(session.jitter_stream)
    deadline = (
        None
        if recovery.query_timeout is None
        else session.submitted + recovery.query_timeout
    )
    attempt = 0
    while True:
        attempt += 1
        target = session._target(work)
        tickets = yield from session._acquire(target)
        context = executor.new_context(supervised=True)
        root = session._build(target, context)
        consumer = context.spawn(
            executor._drive(root), name=f"{session.session_id}#{attempt}"
        )
        assert context.fault_event is not None
        watchers: list[Event] = [consumer, context.fault_event]
        if deadline is not None:
            watchers.append(env.timeout(max(0.0, deadline - env.now)))
        failure: TransientFaultError | None = None
        try:
            yield AnyOf(env, watchers)
        except QueryShedError:
            # Shedding (say, a static buffer pool exhausted deep in an
            # exchange subtree) is a load-control verdict, not a fault:
            # give everything back and let the caller see it.
            session._release(tickets)
            context.abort()
            raise
        except TransientFaultError as exc:
            failure = exc
        session._release(tickets)
        if failure is None:
            if consumer.triggered and consumer.ok:
                stats.record_success(env.now)
                context.finish()
                session.root = root
                return root.tuples_produced, target
            failure = QueryTimeoutError(
                f"{session.session_id} timed out after {recovery.query_timeout}s "
                f"(attempt {attempt})"
            )
        stats.record_fault(env.now)
        stats.wasted_work_pages.add(context.pages_produced())
        context.abort()
        tracer = env.tracer
        if tracer is not None:
            tracer.instant(
                "attempt-failed",
                cat="fault",
                args={"attempt": attempt, "error": str(failure)},
            )
        if deadline is not None and env.now >= deadline:
            if not isinstance(failure, QueryTimeoutError):
                failure = QueryTimeoutError(
                    f"{session.session_id} timed out after {recovery.query_timeout}s "
                    f"while recovering from: {failure}"
                )
            raise failure
        if attempt >= recovery.max_attempts:
            raise failure
        stats.retries.add()
        if tracer is not None:
            tracer.instant("retry", cat="fault", args={"attempt": attempt + 1})
        yield env.timeout(recovery.backoff(attempt, rng))
        if recovery.replan and isinstance(work, DisplayOp):
            replanned = replan(executor, work, client_site=session.client_site)
            if replanned is not None:
                work = replanned
                stats.replans.add()


def replan(
    executor: QueryExecutor, annotated: DisplayOp, client_site: int = CLIENT_SITE_ID
) -> DisplayOp | None:
    """Re-route or re-optimize around crashed sites; None if nothing
    useful to do.

    Each scan whose serving copy is down is first offered a *surviving
    replica*: if every affected relation has one, the plan is simply
    rehomed onto the survivors -- no re-optimization, and every policy
    (including query-shipping) can fail over this way.  Relations with
    no reachable copy at all are constrained to be scanned at the
    client (from its cached prefix) -- the data-shipping fallback,
    which policies without ``client`` scans cannot express, so they
    keep their plan and simply wait out the restart window.
    """
    down = {site.site_id for site in executor.topology.servers if not site.up}
    if not down:
        return None
    rehomed: dict[str, int | None] = {}
    stranded: set[str] = set()
    for op in annotated.walk():
        if not isinstance(op, ScanOp) or op.relation in rehomed or op.relation in stranded:
            continue
        primary = executor.catalog.server_of(op.relation)
        home = op.home if op.home is not None else primary
        if home not in down:
            continue
        survivors = [s for s in executor.catalog.servers_of(op.relation) if s not in down]
        if survivors:
            rehomed[op.relation] = None if survivors[0] == primary else survivors[0]
        else:
            stranded.add(op.relation)
    if not rehomed and not stranded:
        return None
    if not stranded:
        # Pure replica failover: keep the plan, repoint the scans.
        return rehome_scans(annotated, rehomed)
    policy = executor.policy or _infer_policy(annotated)
    if Annotation.CLIENT not in allowed_annotations(policy, "scan"):
        return None
    try:
        plan = executor.optimize_for(client_site, policy, frozenset(stranded))
    except OptimizationError:
        return None
    # Freshly optimized scans default to the primary copy; repoint the
    # relations whose serving copy is down onto their survivors.
    return rehome_scans(plan, rehomed)


def _infer_policy(plan: DisplayOp) -> Policy:
    """Strictest policy the plan's annotations conform to."""
    for policy in (
        Policy.DATA_SHIPPING,
        Policy.QUERY_SHIPPING,
        Policy.HYBRID_SHIPPING,
    ):
        try:
            check_policy(plan, policy)
            return policy
        except PolicyViolationError:
            continue
    return Policy.HYBRID_SHIPPING
