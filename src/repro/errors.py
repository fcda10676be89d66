"""Exception hierarchy for the repro package."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CatalogError",
    "PlanError",
    "IllFormedPlanError",
    "PolicyViolationError",
    "BindingError",
    "ExecutionError",
    "OptimizationError",
    "SimulationError",
    "SqlError",
    "QueryShedError",
    "MemoryExhaustedError",
    "TransientFaultError",
    "SiteUnavailableError",
    "NetworkPartitionError",
    "QueryTimeoutError",
    "NoReachableReplicaError",
]


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReproError):
    """Invalid system, workload, or optimizer configuration."""


class CatalogError(ReproError):
    """Unknown relation, bad placement, or inconsistent statistics."""


class PlanError(ReproError):
    """Structurally invalid query plan."""


class IllFormedPlanError(PlanError):
    """Plan whose site annotations contain a cycle (section 2.2.3)."""


class PolicyViolationError(PlanError):
    """Annotation outside the policy's allowed set (Table 1)."""


class BindingError(PlanError):
    """Logical annotations could not be resolved to physical sites."""


class SqlError(ReproError):
    """Invalid SQL text: lexing, parsing, or name-resolution failure.

    ``line`` and ``column`` (both 1-based) locate the offending token in
    the original statement text; they are ``None`` only for errors that
    have no single source position (e.g. a whole-query semantic check).
    """

    def __init__(
        self, message: str, line: int | None = None, column: int | None = None
    ) -> None:
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ExecutionError(ReproError):
    """Failure inside the simulated execution engine."""


class OptimizationError(ReproError):
    """Optimizer failed to produce a plan."""


class SimulationError(ReproError, RuntimeError):
    """Invalid use of the simulation kernel (double trigger, deadlock, ...).

    Subclasses :class:`RuntimeError` for backwards compatibility with code
    written against the kernel before it joined the :class:`ReproError`
    hierarchy.
    """


class QueryShedError(ExecutionError):
    """A server's admission controller rejected the query (queue full).

    Deliberately *not* a :class:`TransientFaultError`: shedding is an
    explicit load-control decision, not a fault, so the recovery loop does
    not retry it -- the workload layer records the query as shed instead.
    """

    def __init__(self, message: str, server_id: int | None = None) -> None:
        super().__init__(message)
        self.server_id = server_id


class MemoryExhaustedError(QueryShedError):
    """A join's buffer request cannot be satisfied by its site's memory pool.

    Raised by the *static* allocation path, whose plan-time grant sizes
    never queue: under concurrency the query is shed -- an explicit
    load-control outcome, exactly like an admission-queue rejection -- and
    never retried.  The dynamic memory broker raises this only for requests
    whose minimum exceeds the pool's total capacity (which no amount of
    waiting could fix); every other request queues instead.
    """

    def __init__(self, message: str, site_id: int | None = None) -> None:
        super().__init__(message, server_id=site_id)
        self.site_id = site_id


class TransientFaultError(ExecutionError):
    """A potentially recoverable runtime fault (crash, partition, timeout).

    The recovery loop in :mod:`repro.engine.supervision` catches this
    branch of the hierarchy, aborts the running attempt, and retries
    (possibly after re-optimization); any other error still aborts the
    whole simulation.
    """


class SiteUnavailableError(TransientFaultError):
    """An operation touched a site that is currently crashed."""

    def __init__(self, message: str, site_id: int | None = None) -> None:
        super().__init__(message)
        self.site_id = site_id


class NetworkPartitionError(TransientFaultError):
    """A message could not be delivered: the network is down or too lossy."""


class QueryTimeoutError(TransientFaultError):
    """A query exceeded its per-query timeout (including all retries)."""


class NoReachableReplicaError(TransientFaultError):
    """A write found no reachable copy: primary and every replica are down.

    Transient because a restart schedule may bring a copy back; the
    recovery loop's bounded retries decide whether to wait it out.
    """

    def __init__(
        self,
        message: str,
        relation: str | None = None,
        servers: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.relation = relation
        self.servers = servers
