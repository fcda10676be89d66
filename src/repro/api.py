"""High-level convenience API.

Wraps the full pipeline -- workload construction, randomized optimization,
and simulated execution -- behind a couple of calls, for users who want to
experiment with the policies without assembling the pieces by hand::

    from repro import api

    outcome = api.run_query(policy="hybrid", num_servers=2, num_relations=4)
    print(outcome.result.response_time, outcome.result.pages_sent)
    print(api.explain(outcome.plan, outcome.scenario))

    table = api.compare_policies(num_servers=2, cached_fraction=0.5)
    print(table)
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

from repro.caching.config import CacheConfig
from repro.config import BufferAllocation, MemoryConfig, OptimizerConfig, SystemConfig
from repro.costmodel.model import Objective, PlanCost
from repro.engine.executor import ExecutionResult
from repro.errors import ConfigurationError
from repro.faults.recovery import RecoveryPolicy
from repro.faults.schedule import FaultSchedule
from repro.obs import Tracer, write_chrome_trace
from repro.obs.telemetry import TelemetryConfig
from repro.optimizer.two_phase import optimize
from repro.plans.binding import bind_plan
from repro.plans.logical import UDF_SITES
from repro.plans.operators import DisplayOp
from repro.plans.policies import Policy
from repro.plans.render import render_plan
from repro.sql.scenario import sql_scenario
from repro.workload import (
    AdmissionConfig,
    AdmissionPolicy,
    StreamConfig,
    WorkloadResult,
    WorkloadRunner,
)
from repro.workloads.scenarios import Scenario, chain_scenario

__all__ = [
    "QueryOutcome",
    "run_query",
    "run_sql",
    "run_workload",
    "compare_policies",
    "explain",
]

_POLICY_NAMES = {
    "data": Policy.DATA_SHIPPING,
    "data-shipping": Policy.DATA_SHIPPING,
    "ds": Policy.DATA_SHIPPING,
    "query": Policy.QUERY_SHIPPING,
    "query-shipping": Policy.QUERY_SHIPPING,
    "qs": Policy.QUERY_SHIPPING,
    "hybrid": Policy.HYBRID_SHIPPING,
    "hybrid-shipping": Policy.HYBRID_SHIPPING,
    "hy": Policy.HYBRID_SHIPPING,
}

_OBJECTIVE_NAMES = {
    "response-time": Objective.RESPONSE_TIME,
    "response_time": Objective.RESPONSE_TIME,
    "total-cost": Objective.TOTAL_COST,
    "total_cost": Objective.TOTAL_COST,
    "pages-sent": Objective.PAGES_SENT,
    "pages_sent": Objective.PAGES_SENT,
    "communication": Objective.PAGES_SENT,
}


def _parse_policy(policy: "str | Policy") -> Policy:
    if isinstance(policy, Policy):
        return policy
    try:
        return _POLICY_NAMES[policy.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {policy!r}; choose from {sorted(_POLICY_NAMES)}"
        ) from None


def _parse_objective(objective: "str | Objective") -> Objective:
    if isinstance(objective, Objective):
        return objective
    try:
        return _OBJECTIVE_NAMES[objective.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {objective!r}; choose from {sorted(_OBJECTIVE_NAMES)}"
        ) from None


def _parse_memory(
    memory: "MemoryConfig | str | None", server_memory_pages: int | None = None
) -> SystemConfig | None:
    """A base config carrying the requested join-memory model, or None."""
    if memory is None and server_memory_pages is None:
        return None
    if isinstance(memory, str):
        memory = MemoryConfig(mode=memory)
    kwargs: dict = {}
    if memory is not None:
        kwargs["memory"] = memory
    if server_memory_pages is not None:
        kwargs["server_memory_pages"] = server_memory_pages
    return SystemConfig(**kwargs)


def _resolve_trace(trace: "bool | str | Tracer") -> tuple[Tracer | None, str | None]:
    """Normalize a ``trace=`` argument to (tracer, output path).

    ``True`` records a trace (returned on the outcome); a string records and
    additionally writes Chrome-trace JSON to that path; an existing
    :class:`~repro.obs.Tracer` is used as-is; falsy disables tracing.
    """
    if isinstance(trace, Tracer):
        return trace, None
    if isinstance(trace, str):
        return Tracer(), trace
    return (Tracer(), None) if trace else (None, None)


def _resolve_telemetry(
    telemetry: "bool | float | TelemetryConfig",
) -> TelemetryConfig | None:
    """Normalize a ``telemetry=`` argument to a config (or None = off).

    ``True`` samples at the default interval; a number samples at that
    interval (simulated seconds); a :class:`~repro.obs.TelemetryConfig`
    is used as-is; falsy disables sampling entirely (the default -- no
    sampler process is created, so untelemetered runs pay nothing).
    """
    if isinstance(telemetry, TelemetryConfig):
        return telemetry
    if telemetry is True:
        return TelemetryConfig()
    if telemetry:
        return TelemetryConfig(interval=float(telemetry))
    return None


def _finish_trace(
    tracer: Tracer | None,
    path: str | None,
    result: "ExecutionResult | WorkloadResult | None",
    **metadata: object,
) -> None:
    """Close ``tracer`` and write it to ``path``, also after a failed run.

    A successful run finishes its trace inside the executor; this covers
    aborted runs, so the spans recorded so far are still closed and
    exported.  ``metadata`` fills keys the run did not set itself.
    """
    if tracer is None:
        return
    tracer.finish()
    for key, value in metadata.items():
        tracer.metadata.setdefault(key, value)
    if path is not None:
        write_chrome_trace(
            tracer, path, telemetry=result.telemetry if result is not None else None
        )


@dataclass
class QueryOutcome:
    """Everything produced by one optimize-and-execute round trip."""

    scenario: Scenario
    policy: Policy
    plan: DisplayOp
    predicted: PlanCost
    result: ExecutionResult
    #: The span trace of the run, when ``run_query(..., trace=...)`` asked
    #: for one (export with :func:`repro.obs.chrome_trace_json` or
    #: :func:`repro.obs.render_timeline`).
    trace: Tracer | None = None


def _optimize_and_run(
    scenario: Scenario,
    policy: Policy,
    objective: Objective,
    optimizer: OptimizerConfig | None,
    seed: int,
    trace: "bool | str | Tracer",
    telemetry: "bool | float | TelemetryConfig",
    faults: FaultSchedule | None = None,
    recovery: RecoveryPolicy | None = None,
) -> QueryOutcome:
    """Optimize ``scenario``'s query under ``policy``; simulate the plan once."""
    optimizer_config = optimizer or OptimizerConfig.fast()
    optimization = optimize(
        scenario.query,
        scenario.environment(),
        policy=policy,
        objective=objective,
        config=optimizer_config,
        seed=seed,
    )
    tracer, trace_path = _resolve_trace(trace)
    result = None
    try:
        result = scenario.execute(
            optimization.plan,
            seed=seed,
            faults=faults,
            recovery=recovery,
            policy=policy,
            objective=objective,
            optimizer_config=optimizer_config,
            tracer=tracer,
            telemetry=_resolve_telemetry(telemetry),
        )
    finally:
        _finish_trace(tracer, trace_path, result, policy=policy.value, seed=seed)
    return QueryOutcome(
        scenario, policy, optimization.plan, optimization.cost, result, trace=tracer
    )


def run_query(
    policy: "str | Policy" = "hybrid",
    objective: "str | Objective" = "response-time",
    num_relations: int = 2,
    num_servers: int = 1,
    cached_fraction: float = 0.0,
    allocation: "str | BufferAllocation" = BufferAllocation.MINIMUM,
    selectivity: "str | float" = "moderate",
    server_load: float = 0.0,
    seed: int = 0,
    optimizer: OptimizerConfig | None = None,
    faults: FaultSchedule | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: "bool | str | Tracer" = False,
    telemetry: "bool | float | TelemetryConfig" = False,
    memory: "MemoryConfig | str | None" = None,
    server_memory_pages: int | None = None,
) -> QueryOutcome:
    """Optimize and simulate one chain-join query end to end.

    ``faults`` injects a :class:`~repro.faults.FaultSchedule` (server
    crashes, network outages, slow disks, message drops) into the run;
    ``recovery`` tunes the client's retry/replan behaviour.  With faults the
    executor may re-optimize mid-run and the returned result carries the
    recovery metrics (``retries``, ``replans``, ``wasted_work_pages``,
    ``time_to_recover``); an unrecoverable run raises
    :class:`~repro.errors.SiteUnavailableError` (or another
    :class:`~repro.errors.TransientFaultError`).

    ``trace=True`` records per-operator spans of the run on the returned
    outcome's ``trace``; ``trace="path.json"`` additionally writes
    Perfetto-loadable Chrome-trace JSON to that path.  Traces are finished
    and written even when the run fails, so a fault that exhausts recovery
    still leaves an inspectable trace behind.

    ``telemetry=True`` attaches a gauge sampler that records per-site
    utilization/occupancy time series over the run on
    ``outcome.result.telemetry`` (a number samples at that interval in
    simulated seconds; a :class:`~repro.obs.TelemetryConfig` gives full
    control).  Sampling only reads gauges, so the simulated execution is
    bit-identical with or without it.  When both ``trace`` and
    ``telemetry`` are on, the exported Chrome trace carries the series as
    counter tracks.

    ``memory`` selects the join-memory model (see
    :class:`~repro.config.MemoryConfig`): ``None`` or ``"static"`` is the
    paper's plan-time allocation (a join that cannot get its full
    allocation is shed); ``"dynamic"`` runs joins against the per-site
    memory broker, which grants between each join's minimum and maximum,
    queues or reclaims under pressure, and degrades to spilling instead
    of shedding.  ``server_memory_pages`` overrides each server's pool
    size (the :class:`~repro.config.SystemConfig` default is 2048).
    """
    if isinstance(allocation, str):
        allocation = BufferAllocation(allocation)
    parsed_policy = _parse_policy(policy)
    parsed_objective = _parse_objective(objective)
    scenario = chain_scenario(
        num_relations=num_relations,
        num_servers=num_servers,
        allocation=allocation,
        cached_fraction=cached_fraction,
        placement_seed=seed,
        selectivity=selectivity,
        server_load=server_load,
        config=_parse_memory(memory, server_memory_pages),
    )
    return _optimize_and_run(
        scenario,
        parsed_policy,
        parsed_objective,
        optimizer,
        seed,
        trace,
        telemetry,
        faults=faults,
        recovery=recovery,
    )


def run_sql(
    sql: str,
    policy: "str | Policy" = "hybrid",
    objective: "str | Objective" = "response-time",
    num_servers: int = 1,
    cached_fraction: float = 0.0,
    server_load: float = 0.0,
    seed: int = 0,
    tables: "dict[str, int] | None" = None,
    udf_site: "str | None" = None,
    optimizer: OptimizerConfig | None = None,
    trace: "bool | str | Tracer" = False,
    telemetry: "bool | float | TelemetryConfig" = False,
) -> QueryOutcome:
    """Parse, plan, optimize, and simulate one SQL statement end to end.

    The statement goes through the SQL frontend (:mod:`repro.sql`): tables
    it references are synthesized into a catalog (10,000 tuples of 100
    bytes each unless ``tables`` overrides a cardinality), placed randomly
    over ``num_servers`` servers, and the lowered query is optimized under
    ``policy`` and simulated -- the same pipeline as :func:`run_query`,
    with a SQL statement instead of a generated chain join::

        outcome = api.run_sql(
            "SELECT R0.k, COUNT(*) FROM R0, R1 "
            "WHERE R0.k = R1.k AND slow(R0) COST 20000 GROUP BY R0.k",
            policy="query", num_servers=2,
        )

    ``udf_site`` overrides the evaluation-site declaration of *every* UDF
    in the statement (``"client"``, ``"server"``, or ``"auto"``) -- the
    knob the function-shipping experiment sweeps to compare forced
    placements against the optimizer's choice.  ``trace`` and
    ``telemetry`` work as in :func:`run_query`.

    Raises :class:`~repro.errors.SqlError` (with the offending line and
    column) for text the frontend rejects.
    """
    parsed_policy = _parse_policy(policy)
    parsed_objective = _parse_objective(objective)
    scenario = sql_scenario(
        sql,
        num_servers=num_servers,
        cached_fraction=cached_fraction,
        placement_seed=seed,
        server_load=server_load,
        tables=tables,
    )
    if udf_site is not None:
        if udf_site not in UDF_SITES:
            raise ConfigurationError(
                f"unknown udf_site {udf_site!r}; choose from {list(UDF_SITES)}"
            )
        scenario.query = _dc_replace(
            scenario.query,
            udfs=tuple(
                _dc_replace(udf, site=udf_site) for udf in scenario.query.udfs
            ),
        )
    return _optimize_and_run(
        scenario,
        parsed_policy,
        parsed_objective,
        optimizer,
        seed,
        trace,
        telemetry,
    )


def run_workload(
    policy: "str | Policy" = "hybrid",
    objective: "str | Objective" = "response-time",
    num_clients: int = 4,
    arrival: str = "closed",
    rate: float = 1.0,
    think_time: float = 0.0,
    queries_per_client: int = 4,
    num_relations: int = 2,
    num_servers: int = 1,
    cached_fraction: float = 0.0,
    allocation: "str | BufferAllocation" = BufferAllocation.MINIMUM,
    selectivity: "str | float" = "moderate",
    server_load: float = 0.0,
    admission: "str | AdmissionConfig | None" = "wait",
    max_concurrent: int = 4,
    queue_limit: int = 16,
    client_caches: "dict[int, dict[str, float]] | None" = None,
    seed: int = 0,
    optimizer: OptimizerConfig | None = None,
    faults: FaultSchedule | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: "bool | str | Tracer" = False,
    telemetry: "bool | float | TelemetryConfig" = False,
    cache: "CacheConfig | str | None" = None,
    memory: "MemoryConfig | str | None" = None,
    server_memory_pages: int | None = None,
    write_fraction: float = 0.0,
    write_pages: int = 1,
    consistency: str = "invalidation",
    replication_factor: int = 1,
) -> WorkloadResult:
    """Run a multi-client concurrent workload; returns throughput metrics.

    ``num_clients`` client sites share one simulated system and submit the
    same chain-join query concurrently.  ``arrival`` selects the stream
    discipline: ``"open"`` (Poisson arrivals of ``rate`` queries/sec per
    client) or ``"closed"`` (one query in flight per client, exponential
    ``think_time`` between queries).  ``admission`` is ``"wait"`` (queue up
    to ``queue_limit`` queries per server, shed beyond), ``"shed"`` (reject
    immediately at ``max_concurrent``), ``"off"``/``None`` (no admission
    control), or a full :class:`~repro.workload.AdmissionConfig`.
    ``client_caches`` optionally gives individual clients their own cached
    fractions (``{ordinal: {relation: fraction}}``).

    The returned :class:`~repro.workload.WorkloadResult` has throughput
    (completed queries per second of simulated time), mean/p50/p95/p99
    response times, shed/failed counts, per-server admission statistics,
    per-resource utilizations, and a ``profile`` snapshot of every hardware
    metric.  ``trace`` works as in :func:`run_query` (pass a
    :class:`~repro.obs.Tracer` to keep a reference to the recorded spans).
    ``telemetry`` works as in :func:`run_query`; the sampled series (which
    under a workload additionally cover per-server admission queue depth
    and running-query occupancy) land on the result's ``telemetry`` field.
    Every session is planned when its client submits it, against that
    client's cache contents at that moment; a run's sessions that find
    the same view reuse one plan.

    ``cache`` selects the client caching model (see
    :class:`~repro.workload.WorkloadRunner`): ``None`` or ``"dynamic"``
    runs the demand-paging buffer cache, where ``cached_fraction`` seeds
    the initial resident set and client scans admit faulted-in pages so
    streams warm up; ``"static"`` is the paper's fixed-prefix model
    used by the figure reproductions.  A full
    :class:`~repro.caching.CacheConfig` picks the replacement policy and
    capacity.

    ``memory`` works as in :func:`run_query`: ``"dynamic"`` replaces the
    paper's plan-time join allocation with the per-site memory broker, so
    concurrent joins share each server's pool by queueing, partial grants,
    and reclaim-driven spilling instead of shedding.

    ``write_fraction`` turns that fraction of each client's submission
    slots into write statements (UPDATE/INSERT/DELETE of ``write_pages``
    pages against a random relation), applied with primary-copy
    write-through; ``consistency`` picks how client caches stay correct
    (``"invalidation"`` callbacks or ``"detection"`` on access).
    ``replication_factor`` stores every relation on that many servers;
    reads pick a copy at plan time and writes propagate to all of them.
    The defaults (0.0, ``"invalidation"``, 1) reproduce the read-only
    engine event for event.
    """
    if isinstance(allocation, str):
        allocation = BufferAllocation(allocation)
    parsed_policy = _parse_policy(policy)
    parsed_objective = _parse_objective(objective)
    if isinstance(admission, str):
        if admission.lower() in ("off", "none"):
            admission = None
        else:
            admission = AdmissionConfig(
                max_concurrent=max_concurrent,
                queue_limit=queue_limit,
                policy=AdmissionPolicy(admission.lower()),
            )
    scenario = chain_scenario(
        num_relations=num_relations,
        num_servers=num_servers,
        allocation=allocation,
        cached_fraction=cached_fraction,
        placement_seed=seed,
        selectivity=selectivity,
        server_load=server_load,
        config=_parse_memory(memory, server_memory_pages),
        replication_factor=replication_factor,
    )
    tracer, trace_path = _resolve_trace(trace)
    result = None
    try:
        result = WorkloadRunner(
            scenario,
            parsed_policy,
            num_clients=num_clients,
            stream=StreamConfig(
                arrival=arrival,
                rate=rate,
                think_time=think_time,
                queries_per_client=queries_per_client,
                write_fraction=write_fraction,
                write_pages=write_pages,
            ),
            admission=admission,
            seed=seed,
            objective=parsed_objective,
            optimizer_config=optimizer or OptimizerConfig.fast(),
            faults=faults,
            recovery=recovery,
            client_caches=client_caches,
            tracer=tracer,
            cache=cache,
            consistency=consistency,
            telemetry=_resolve_telemetry(telemetry),
        ).run()
    finally:
        _finish_trace(tracer, trace_path, result)
    return result


def compare_policies(
    objective: "str | Objective" = "response-time",
    seed: int = 0,
    **scenario_kwargs,
) -> str:
    """Run all three policies on the same scenario; return a text table."""
    lines = [
        f"{'policy':18s}{'response time [s]':>20s}{'pages sent':>14s}{'messages':>12s}"
    ]
    for policy in (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING):
        outcome = run_query(policy=policy, objective=objective, seed=seed, **scenario_kwargs)
        r = outcome.result
        lines.append(
            f"{policy.value:18s}{r.response_time:>20.3f}{r.pages_sent:>14d}"
            f"{r.control_messages:>12d}"
        )
    return "\n".join(lines)


def explain(plan: DisplayOp, scenario: Scenario) -> str:
    """Render a plan with its runtime site bindings (like Figure 1)."""
    return render_plan(bind_plan(plan, scenario.catalog))
