"""Every table and figure of the paper, as regenerable experiments.

Each ``figure*`` function returns a :class:`FigureResult` holding one
series per curve in the paper's figure, with means and 90 % confidence
intervals over the run seeds.  The expected *shapes* (who wins, where the
crossovers fall) are documented per function and asserted by the
integration tests; absolute values depend on the simulated hardware.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field

from repro.caching.config import CacheConfig
from repro.config import BufferAllocation, MemoryConfig, SystemConfig
from repro.costmodel.model import Objective
from repro.errors import TransientFaultError
from repro.experiments.parallel import parallel_map
from repro.experiments.runner import RunSettings
from repro.experiments.stats import PointEstimate, summarize
from repro.faults.recovery import RecoveryPolicy
from repro.faults.schedule import FaultSchedule
from repro.obs.telemetry import TelemetryConfig
from repro.optimizer.cache import PlanCache
from repro.optimizer.random_plans import PlanShape
from repro.optimizer.two_phase import optimize
from repro.optimizer.two_step import TwoStepOptimizer
from repro.plans.operators import DisplayOp
from repro.plans.policies import Policy, allowed_annotations
from repro.sql.scenario import sql_scenario
from repro.workload import AdmissionConfig, StreamConfig, WorkloadRunner
from repro.workloads.scenarios import Scenario, chain_scenario
from repro.catalog.catalog import Catalog
from repro.catalog.placement import Placement
from repro.workloads.relations import benchmark_relations

__all__ = [
    "FigureResult",
    "SeriesPoint",
    "availability_sweep",
    "cache_warmup",
    "table1",
    "table2",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure10",
    "figure11",
    "function_shipping",
    "memory_contention",
    "qs_under_load_text",
    "throughput_sweep",
    "two_step_caching",
    "utilization_timeline",
    "write_mix",
]

POLICIES = (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING)
CACHE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
SERVER_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
FIGURE4_LOADS = (0.0, 40.0, 60.0, 70.0)
MTBF_VALUES = (5.0, 10.0, 20.0, 40.0)
CLIENT_COUNTS = (1, 2, 4, 8)
MEMORY_CLIENT_COUNTS = (2, 4, 8, 16)
WRITE_FRACTIONS = (0.0, 0.1, 0.25, 0.5)
CONSISTENCY_PROTOCOLS = ("invalidation", "detection")
UDF_COSTS = (0.0, 2000.0, 8000.0, 32000.0, 128000.0)


@dataclass(frozen=True)
class SeriesPoint:
    """One x position of one curve."""

    x: float
    estimate: PointEstimate

    @property
    def y(self) -> float:
        return self.estimate.mean


@dataclass
class FigureResult:
    """A regenerated table or figure: labelled series over an x axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: dict[str, list[SeriesPoint]] = field(default_factory=dict)
    notes: str = ""

    def add(self, label: str, x: float, estimate: PointEstimate) -> None:
        self.series.setdefault(label, []).append(SeriesPoint(x, estimate))

    def values(self, label: str) -> list[tuple[float, float]]:
        """(x, mean) pairs of one series -- convenient for assertions."""
        return [(p.x, p.y) for p in self.series[label]]

    def series_means(self, label: str) -> dict[float, float]:
        return {p.x: p.y for p in self.series[label]}


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1() -> str:
    """Table 1: site annotations each policy allows per operator."""
    operators = ("display", "join", "select", "scan")
    width = 44
    header = f"{'operator':10s}" + "".join(f"{p.value:>{width}s}" for p in POLICIES)
    lines = [header, "-" * len(header)]
    for op in operators:
        row = f"{op:10s}"
        for policy in POLICIES:
            allowed = sorted(a.value for a in allowed_annotations(policy, op))
            row += f"{', '.join(allowed):>{width}s}"
        lines.append(row)
    return "\n".join(lines)


def table2(config: SystemConfig | None = None) -> str:
    """Table 2: simulator parameters and default settings."""
    config = config or SystemConfig()
    rows = [
        ("Mips", f"{config.mips:g}", "CPU speed (10^6 instr/sec)"),
        ("NumDisks", str(config.num_disks), "number of disks on a site"),
        ("DiskInst", str(config.disk_inst), "instr. to read a page from disk"),
        ("PageSize", str(config.page_size), "size of one data page (bytes)"),
        ("NetBw", f"{config.net_bandwidth_mbit:g}", "network bandwidth (Mbit/sec)"),
        ("MsgInst", str(config.msg_inst), "instr. to send/receive a message"),
        ("PerSizeMI", str(config.per_size_mi), "instr. to send/receive 4096 bytes"),
        ("Display", str(config.display_inst), "instr. to display a tuple"),
        ("Compare", str(config.compare_inst), "instr. to apply a predicate"),
        ("HashInst", str(config.hash_inst), "instr. to hash a tuple"),
        ("MoveInst", str(config.move_inst_per_4_bytes), "instr. to copy 4 bytes"),
        ("BufAlloc", "min or max", "buffer allocated to a join"),
    ]
    header = f"{'Parameter':12s}{'Value':>12s}  Description"
    lines = [header, "-" * 62]
    lines.extend(f"{name:12s}{value:>12s}  {text}" for name, value, text in rows)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
# An experiment is a list of sweep points.  A point is a
# ``functools.partial`` of a module-level function ``f(seed, **params)``
# that runs one seed and returns that run's ``(series label, x, value)``
# samples.  Partials of module-level functions pickle, so points fan out
# to worker processes (``jobs > 1``) as they are; each point derives all
# of its randomness from its own parameters and seed, which is what makes
# parallel output byte-identical to serial.
Sample = tuple[str, float, float]
Point = typing.Callable[[int], list[Sample]]


def _run_point(point: Point, seeds: tuple[int, ...]) -> list[Sample]:
    return [sample for seed in seeds for sample in point(seed)]


def _sweep(
    result: FigureResult,
    points: list[Point],
    seeds: tuple[int, ...],
    jobs: int = 1,
) -> FigureResult:
    """Run every point over ``seeds`` and add one estimate per (label, x).

    Points run in list order and each point's seeds in ``seeds`` order.
    Samples are grouped by (label, x) in first-seen order, which fixes
    both the series order and the x order within each series.
    """
    grouped: dict[tuple[str, float], list[float]] = {}
    for samples in parallel_map(functools.partial(_run_point, seeds=seeds), points, jobs):
        for label, x, value in samples:
            grouped.setdefault((label, x), []).append(value)
    for (label, x), values in grouped.items():
        result.add(label, x, summarize(values))
    return result


def _best_plan(
    scenario: Scenario,
    policy: Policy,
    objective: Objective,
    settings: RunSettings,
    seed: int,
) -> DisplayOp:
    """The plan 2PO picks for ``scenario`` under its true state."""
    return optimize(
        scenario.query,
        scenario.environment(),
        policy,
        objective,
        settings.optimizer,
        seed,
        PlanShape.ANY,
    ).plan


def _measure_point(
    seed: int,
    *,
    scenario: typing.Callable[..., Scenario],
    runs: tuple[tuple[Policy, tuple[tuple[str, str], ...]], ...],
    objective: Objective,
    settings: RunSettings,
    x: float,
) -> list[Sample]:
    """Optimize each policy under the scenario's true state; simulate one seed.

    ``runs`` pairs each policy with its series: each output label with
    the ``ExecutionResult`` attribute it reports (``"response_time"`` or
    ``"pages_sent"``).  All policies of the point plan against one
    environment and share one plan cache, so hybrid's pure data- and
    query-shipping passes reuse the standalone optimizations of the same
    seed when those come first.
    """
    built = scenario(placement_seed=seed)
    environment = built.environment()
    cache = PlanCache()
    samples = []
    for policy, series in runs:
        plan = optimize(
            built.query, environment, policy, objective, settings.optimizer, seed,
            PlanShape.ANY, cache,
        ).plan
        run = built.execute(plan, seed=seed)
        samples.extend((label, x, float(getattr(run, metric))) for label, metric in series)
    return samples


def _policy_sweep(
    result: FigureResult,
    grid: list[tuple[float, typing.Callable[..., Scenario]]],
    objective: Objective,
    metric: str,
    settings: RunSettings,
    jobs: int,
) -> FigureResult:
    """One ``metric`` series per policy over ``(x, scenario factory)`` points."""
    runs = tuple((policy, ((policy.short_name, metric),)) for policy in POLICIES)
    points = [
        functools.partial(
            _measure_point,
            scenario=scenario,
            runs=runs,
            objective=objective,
            settings=settings,
            x=x,
        )
        for x, scenario in grid
    ]
    return _sweep(result, points, settings.seeds, jobs)


# ----------------------------------------------------------------------
# 2-way join experiments (Figures 2-5)
# ----------------------------------------------------------------------
def _two_way(
    cache_fraction: float,
    allocation: BufferAllocation = BufferAllocation.MINIMUM,
    server_load: float = 0.0,
) -> typing.Callable[..., Scenario]:
    """Scenario factory for the 1-server 2-way join (Figures 2-5 and most sweeps)."""
    return functools.partial(
        chain_scenario,
        num_relations=2,
        num_servers=1,
        allocation=allocation,
        cached_fraction=cache_fraction,
        server_load=server_load,
    )


def figure2(
    settings: RunSettings | None = None,
    cache_fractions: tuple[float, ...] = CACHE_FRACTIONS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 2: pages sent, 2-way join, 1 server, vary client caching.

    Expected shape: QS flat at 250 pages (it ships only the result); DS
    linear from 500 down to 0; HY equal to the lower envelope, crossing at
    50 % cached.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "figure2",
        "Pages Sent, 2-Way Join, 1 Server, Vary Caching",
        "cached portion of relations [%]",
        "pages sent",
    )
    grid = [(fraction * 100.0, _two_way(fraction)) for fraction in cache_fractions]
    return _policy_sweep(result, grid, Objective.PAGES_SENT, "pages_sent", settings, jobs)


def figure3(
    settings: RunSettings | None = None,
    cache_fractions: tuple[float, ...] = CACHE_FRACTIONS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 3: response time, 2-way join, minimum allocation, no load.

    Expected shape: QS worst and flat (scan and join I/O contend on the
    server disk); DS best at 0 % cached and degrading as caching grows
    (client-disk contention), ending just below QS; HY flat and best
    everywhere (scans at the server, join at the client).
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "figure3",
        "Response Time, 2-Way Join, 1 Server, Vary Caching, No Load, Min. Alloc.",
        "cached portion of relations [%]",
        "response time [s]",
    )
    grid = [(fraction * 100.0, _two_way(fraction)) for fraction in cache_fractions]
    return _policy_sweep(result, grid, Objective.RESPONSE_TIME, "response_time", settings, jobs)


def figure4(
    settings: RunSettings | None = None,
    cache_fractions: tuple[float, ...] = CACHE_FRACTIONS,
    loads: tuple[float, ...] = FIGURE4_LOADS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 4: response time of DS under external server-disk load.

    Expected shape: with no load, caching *hurts* DS; around 50 %
    utilization (40 req/s) the curve flattens; at high utilization
    (70 req/s, about 90 %) caching clearly helps, because off-loading the
    hot server disk outweighs client-disk contention.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "figure4",
        "Response Time, DS, 2-Way Join, 1 Server, Vary Load & Caching, Min. Alloc.",
        "cached portion of relations [%]",
        "response time [s]",
    )
    points = [
        functools.partial(
            _measure_point,
            scenario=_two_way(fraction, server_load=load),
            runs=((Policy.DATA_SHIPPING, ((f"{load:.0f} req/sec", "response_time"),)),),
            objective=Objective.RESPONSE_TIME,
            settings=settings,
            x=fraction * 100.0,
        )
        for load in loads
        for fraction in cache_fractions
    ]
    return _sweep(result, points, settings.seeds, jobs)


def qs_under_load_text(
    settings: RunSettings | None = None,
    loads: tuple[float, ...] = (40.0, 60.0),
    jobs: int = 1,
) -> FigureResult:
    """Section 4.2.2 text: QS response times under server load.

    The paper reports 19 s at 40 req/s and 36 s at 60 req/s for the 2-way
    join under minimum allocation.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "text-4.2.2",
        "QS Response Time Under Server Disk Load (2-Way Join, Min. Alloc.)",
        "external load [req/sec]",
        "response time [s]",
    )
    points = [
        functools.partial(
            _measure_point,
            scenario=_two_way(0.0, server_load=load),
            runs=((Policy.QUERY_SHIPPING, (("QS", "response_time"),)),),
            objective=Objective.RESPONSE_TIME,
            settings=settings,
            x=load,
        )
        for load in loads
    ]
    return _sweep(result, points, settings.seeds, jobs)


def figure5(
    settings: RunSettings | None = None,
    cache_fractions: tuple[float, ...] = CACHE_FRACTIONS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 5: response time, 2-way join, maximum allocation.

    Expected shape: QS flat (in-memory join, result pipelined to the
    client); DS improving linearly with caching; crossover slightly
    *beyond* 50 % because DS faults pages in synchronously while QS
    overlaps communication with join processing; HY tracks the lower
    envelope (and, as the paper itself reports, may pick the slightly
    inferior plan near 75 % due to overlap misprediction).
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "figure5",
        "Response Time, 2-Way Join, 1 Server, Vary Caching, No Load, Max. Alloc.",
        "cached portion of relations [%]",
        "response time [s]",
    )
    grid = [
        (fraction * 100.0, _two_way(fraction, BufferAllocation.MAXIMUM))
        for fraction in cache_fractions
    ]
    return _policy_sweep(result, grid, Objective.RESPONSE_TIME, "response_time", settings, jobs)


# ----------------------------------------------------------------------
# 10-way join experiments (Figures 6-8)
# ----------------------------------------------------------------------
def _ten_way(
    num_servers: int,
    cached_relations: int | None = None,
    selectivity: "str | float" = "moderate",
) -> typing.Callable[..., Scenario]:
    """Scenario factory for the 10-way-join experiments (Figures 6-11)."""
    return functools.partial(
        chain_scenario,
        num_relations=10,
        num_servers=num_servers,
        allocation=BufferAllocation.MINIMUM,
        cached_relations=cached_relations,
        selectivity=selectivity,
    )


def figure6(
    settings: RunSettings | None = None,
    server_counts: tuple[int, ...] = SERVER_COUNTS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 6: pages sent, 10-way join, vary servers, no caching.

    Expected shape: DS flat at 2500 (ten relations); QS growing from 250
    at one server towards 2500 at ten (relations must move between servers
    to be joined); HY equal to the lower envelope.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "figure6",
        "Pages Sent, 10-Way Join, Vary Servers, No Caching",
        "number of servers",
        "pages sent",
    )
    grid = [(count, _ten_way(count)) for count in server_counts]
    return _policy_sweep(result, grid, Objective.PAGES_SENT, "pages_sent", settings, jobs)


def figure7(
    settings: RunSettings | None = None,
    server_counts: tuple[int, ...] = SERVER_COUNTS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 7: pages sent, 10-way join, 5 of 10 relations cached.

    Expected shape: DS halves to 1250; QS unchanged from Figure 6 (it
    ignores the cache), crossing above DS beyond three servers; HY sends
    *less than either* for mid-range server counts by mixing cached copies
    with co-located server joins -- the paper's headline hybrid result.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "figure7",
        "Pages Sent, 10-Way Join, Vary Servers, 5 Relations Cached",
        "number of servers",
        "pages sent",
    )
    grid = [(count, _ten_way(count, cached_relations=5)) for count in server_counts]
    return _policy_sweep(result, grid, Objective.PAGES_SENT, "pages_sent", settings, jobs)


def figure8(
    settings: RunSettings | None = None,
    server_counts: tuple[int, ...] = SERVER_COUNTS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 8: response time, 10-way join, min. allocation, no caching.

    Expected shape: DS flat (the client is the join bottleneck); QS
    improving steeply as servers are added (parallel disks); HY at or
    below both for small server populations (it splits joins between
    client and servers) and converging to QS as servers multiply.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "figure8",
        "Response Time, 10-Way Join, Vary Servers, No Caching, Min. Alloc.",
        "number of servers",
        "response time [s]",
    )
    grid = [(count, _ten_way(count)) for count in server_counts]
    return _policy_sweep(result, grid, Objective.RESPONSE_TIME, "response_time", settings, jobs)


# ----------------------------------------------------------------------
# Multi-client throughput sweep (not in the paper)
# ----------------------------------------------------------------------
def _throughput_point(
    seed: int,
    *,
    policy: Policy,
    count: int,
    cached_fraction: float,
    stream: StreamConfig,
    admission: AdmissionConfig,
    settings: RunSettings,
) -> list[Sample]:
    scenario = _two_way(cached_fraction)(placement_seed=seed)
    run = WorkloadRunner(
        scenario,
        policy,
        num_clients=count,
        stream=stream,
        admission=admission,
        seed=seed,
        optimizer_config=settings.optimizer,
        # Pinned to the paper's static-prefix model: this sweep's
        # published shape assumes the cached fraction stays fixed.
        cache="static",
    ).run()
    label = policy.short_name
    return [
        (label, count, run.throughput),
        (f"{label} p95 [s]", count, run.p95_response_time),
    ]


def throughput_sweep(
    settings: RunSettings | None = None,
    client_counts: tuple[int, ...] = CLIENT_COUNTS,
    cached_fraction: float = 0.75,
    queries_per_client: int = 3,
    jobs: int = 1,
) -> FigureResult:
    """Throughput and p95 response time vs concurrent clients, per policy.

    Closed streams with zero think time: every client keeps one 2-way join
    in flight against a single server, with three quarters of each relation
    cached on the client disks.  Expected shape: data-shipping throughput
    grows nearly linearly with clients (each client joins on its *own*
    disk, only the uncached tail touches the server); query-shipping
    saturates the server disk almost immediately, so its throughput stays
    flat while its p95 response time grows with the client count;
    hybrid-shipping lands between the two.
    """
    settings = settings or RunSettings()
    admission = AdmissionConfig(max_concurrent=4, queue_limit=64)
    stream = StreamConfig(
        arrival="closed", think_time=0.0, queries_per_client=queries_per_client
    )
    result = FigureResult(
        "throughput-sweep",
        "Throughput vs Concurrent Clients, 2-Way Join, 1 Server, 75% Cached",
        "concurrent clients",
        "throughput [queries/s]",
        notes=(
            "closed streams, zero think time; '<policy> p95 [s]' series carry "
            "the response-time tail of the same runs"
        ),
    )
    points = [
        functools.partial(
            _throughput_point,
            policy=policy,
            count=count,
            cached_fraction=cached_fraction,
            stream=stream,
            admission=admission,
            settings=settings,
        )
        for count in client_counts
        for policy in POLICIES
    ]
    return _sweep(result, points, settings.seeds, jobs)


def _utilization_point(
    seed: int,
    *,
    policy: Policy,
    cached_fraction: float,
    telemetry: TelemetryConfig,
    settings: RunSettings,
) -> list[Sample]:
    scenario = _two_way(cached_fraction)(placement_seed=seed)
    plan = _best_plan(scenario, policy, Objective.RESPONSE_TIME, settings, seed)
    execution = scenario.execute(plan, seed=seed, telemetry=telemetry)
    assert execution.telemetry is not None
    return [
        (f"{policy.short_name} {curve}", time, value)
        for channel, curve in (
            ("site.client.disk0.utilization", "client disk"),
            ("site.server1.disk0.utilization", "server disk"),
        )
        for time, value in execution.telemetry[channel]
    ]


def utilization_timeline(
    settings: RunSettings | None = None,
    cached_fraction: float = 0.5,
    interval: float = 0.5,
    jobs: int = 1,
) -> FigureResult:
    """Per-interval disk utilization over simulated time, per policy.

    The Figure-2/3 experiment point (2-way join, one server, half of every
    relation cached at the client) viewed through the telemetry sampler
    instead of end-of-run aggregates: where each policy's time *goes* while
    the query runs.  Expected shape (paper section 5's resource argument):
    data-shipping saturates the **client** disk for nearly the whole run
    (it joins locally and reads the cached halves from its own disk);
    query-shipping saturates the **server** disk instead and leaves the
    client disk idle; hybrid-shipping shows the server disk busy during the
    scan phase and the client disk during the join tail.  One seed -- the
    series are time-indexed, so cross-seed averaging would smear phases
    that start at different times.
    """
    settings = settings or RunSettings()
    seed = settings.seeds[0]
    result = FigureResult(
        "utilization-timeline",
        "Disk Utilization Over Time, 2-Way Join, 1 Server, "
        f"{cached_fraction * 100:.0f}% Cached",
        "simulated time [s]",
        "per-interval disk utilization (0..1)",
        notes=(
            f"sampled every {interval:g}s of simulated time, seed "
            f"{seed}; a '-' cell means that policy's query had already "
            "finished"
        ),
    )
    telemetry = TelemetryConfig(interval=interval)
    points = [
        functools.partial(
            _utilization_point,
            policy=policy,
            cached_fraction=cached_fraction,
            telemetry=telemetry,
            settings=settings,
        )
        for policy in POLICIES
    ]
    return _sweep(result, points, (seed,), jobs)


# ----------------------------------------------------------------------
# Read/write mix and cache consistency (not in the paper)
# ----------------------------------------------------------------------
def _write_mix_point(
    seed: int,
    *,
    protocol: str,
    write_fraction: float,
    num_clients: int,
    queries_per_client: int,
    replication_factor: int,
    cached_fraction: float,
    settings: RunSettings,
) -> list[Sample]:
    scenario = chain_scenario(
        num_relations=2,
        num_servers=2,
        cached_fraction=cached_fraction,
        placement_seed=seed,
        replication_factor=replication_factor,
    )
    run = WorkloadRunner(
        scenario,
        # Data shipping: client scans actually consult the client
        # caches, which is the path the consistency protocols guard.
        Policy.DATA_SHIPPING,
        num_clients=num_clients,
        stream=StreamConfig(
            arrival="closed",
            think_time=0.0,
            queries_per_client=queries_per_client,
            write_fraction=write_fraction,
        ),
        seed=seed,
        optimizer_config=settings.optimizer,
        # Dynamic client caches: the part of the system the consistency
        # protocol exists to keep correct.
        cache="dynamic",
        consistency=protocol,
    ).run()
    profile = run.profile
    stale_hits = sum(v for k, v in profile.items() if k.endswith("consistency.stale_hits"))
    # Protocol overhead: callbacks broadcast (invalidation) plus server
    # round trips on cache hits (detection).
    protocol_work = sum(
        v
        for k, v in profile.items()
        if k.endswith(("consistency.invalidations", "consistency.validations"))
    )
    return [
        (protocol, write_fraction, run.throughput),
        (f"{protocol} p95 [s]", write_fraction, run.p95_response_time),
        (f"{protocol} stale hits", write_fraction, stale_hits),
        (f"{protocol} msgs", write_fraction, protocol_work),
    ]


def write_mix(
    settings: RunSettings | None = None,
    write_fractions: tuple[float, ...] = WRITE_FRACTIONS,
    protocols: tuple[str, ...] = CONSISTENCY_PROTOCOLS,
    num_clients: int = 4,
    queries_per_client: int = 4,
    replication_factor: int = 2,
    cached_fraction: float = 0.5,
    jobs: int = 1,
) -> FigureResult:
    """Throughput vs write fraction under both cache-consistency protocols.

    Data-shipping clients with dynamic caches run closed streams in which
    ``write_fraction`` of the submission slots are page writes, applied with
    primary-copy write-through to 2-way-replicated relations.  Expected
    shape: statement throughput *rises* with the write fraction (a
    few-page write-through is far cheaper than a chain join), but the two
    protocols split on overhead -- detection pays a validation round trip
    on *every* cache hit (thousands of control messages) while
    invalidation only pays per callback to a caching client; stale hits
    stay fully detected -- the engine never serves a stale page -- and are
    counted per protocol.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "write-mix",
        "Throughput vs Write Fraction, Invalidation vs Detection (beyond the paper)",
        "write fraction",
        "throughput [statements/s]",
        notes=(
            f"data shipping, {num_clients} clients, dynamic caches, "
            f"{replication_factor}-way replication; '<protocol> p95 [s]' / "
            "'<protocol> stale hits' / '<protocol> msgs' series carry the "
            "response-time tail, detected-stale counts, and protocol "
            "messages (callbacks + validations) of the same runs"
        ),
    )
    points = [
        functools.partial(
            _write_mix_point,
            protocol=protocol,
            write_fraction=fraction,
            num_clients=num_clients,
            queries_per_client=queries_per_client,
            replication_factor=replication_factor,
            cached_fraction=cached_fraction,
            settings=settings,
        )
        for fraction in write_fractions
        for protocol in protocols
    ]
    return _sweep(result, points, settings.seeds, jobs)


# ----------------------------------------------------------------------
# Function shipping: where should a user-defined predicate run?
# ----------------------------------------------------------------------
_FUNCTION_SHIPPING_SQL = "SELECT * FROM R0 WHERE f(R0) COST {cost:g}{at}"
_FUNCTION_SHIPPING_ARMS = (
    ("client-eval", " AT CLIENT"),
    ("server-eval", " AT SERVER"),
    ("optimizer-chosen", ""),
)


def function_shipping(
    settings: RunSettings | None = None,
    udf_costs: tuple[float, ...] = UDF_COSTS,
    jobs: int = 1,
) -> FigureResult:
    """Response time vs UDF cost for the three UDF placement strategies.

    A query-shipping client filters one benchmark table through a named
    UDF of 50 % selectivity whose per-tuple cost sweeps the x axis.  The
    ``AT CLIENT`` / ``AT SERVER`` arms pin the predicate; the third arm
    lets the optimizer's udf-site move choose.  Expected shape: server
    evaluation wins at cost ~0 (it halves the shipped pages), but the
    UDF's cpu serializes with the server's disk reads, so the client arm
    -- which overlaps UDF cpu with the network transfer -- takes over as
    the cost grows.  The optimizer-chosen curve should track the lower
    envelope of the two pinned arms.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "function-shipping",
        "Function Shipping: UDF Placement vs Predicate Cost (beyond the paper)",
        "UDF cost [instructions/tuple]",
        "response time [s]",
        notes=(
            "query shipping, 1 server, 10,000-tuple table, UDF selectivity "
            "0.5, maximum buffer allocation; 'pages <arm>' series carry the "
            "shipped-page counts of the same runs"
        ),
    )
    points = [
        functools.partial(
            _measure_point,
            scenario=functools.partial(
                sql_scenario, _FUNCTION_SHIPPING_SQL.format(cost=cost, at=at)
            ),
            runs=(
                (
                    Policy.QUERY_SHIPPING,
                    ((label, "response_time"), (f"pages {label}", "pages_sent")),
                ),
            ),
            objective=Objective.RESPONSE_TIME,
            settings=settings,
            x=cost,
        )
        for label, at in _FUNCTION_SHIPPING_ARMS
        for cost in udf_costs
    ]
    return _sweep(result, points, settings.seeds, jobs)


# ----------------------------------------------------------------------
# Memory contention: static vs dynamic join memory (not in the paper)
# ----------------------------------------------------------------------
def _memory_contention_point(
    seed: int,
    *,
    mode: str,
    count: int,
    server_memory_pages: int,
    stream: StreamConfig,
    settings: RunSettings,
) -> list[Sample]:
    base = SystemConfig(
        server_memory_pages=server_memory_pages,
        memory=MemoryConfig(mode=mode),
    )
    scenario = chain_scenario(
        num_relations=2,
        num_servers=1,
        allocation=BufferAllocation.MAXIMUM,
        placement_seed=seed,
        config=base,
    )
    run = WorkloadRunner(
        scenario,
        Policy.QUERY_SHIPPING,
        num_clients=count,
        stream=stream,
        seed=seed,
        optimizer_config=settings.optimizer,
        # Single attempts: a memory-shed query fails fast and is
        # reported as shed, rather than retrying against the same
        # exhausted pool -- exactly the static-allocation failure the
        # dynamic broker is meant to remove.
        recovery=RecoveryPolicy.none(),
        cache="static",
    ).run()
    return [
        (mode, count, run.throughput),
        (f"{mode} p95 [s]", count, run.p95_response_time),
        (f"{mode} shed", count, float(run.shed + run.failed)),
        (
            f"{mode} spill pages",
            count,
            run.profile.get("site.server1.memory.spill_pages", 0.0),
        ),
    ]


def memory_contention(
    settings: RunSettings | None = None,
    client_counts: tuple[int, ...] = MEMORY_CLIENT_COUNTS,
    server_memory_pages: int = 400,
    queries_per_client: int = 2,
    jobs: int = 1,
) -> FigureResult:
    """Throughput and p95 vs clients at fixed server memory, static vs dynamic.

    Query-shipping 2-way joins under maximum allocation all want the
    server's join memory at once, but the 400-page pool only fits one
    maximal hybrid-hash build at a time.  Static plan-time allocation sheds
    every join that cannot get its full grant; the dynamic broker instead
    queues requests, grants what is available above each join's minimum,
    and reclaims pages (triggering incremental spilling) when later
    arrivals would otherwise starve.  Expected shape: the static curve
    sheds more queries as clients grow and its completed throughput stays
    flat, while the dynamic curve completes *every* query -- trading sheds
    for bounded spill I/O and memory-wait time visible in its p95.
    """
    settings = settings or RunSettings()
    stream = StreamConfig(
        arrival="closed", think_time=0.25, queries_per_client=queries_per_client
    )
    result = FigureResult(
        "memory-contention",
        "Throughput vs Clients at Fixed Server Memory, Static vs Dynamic Allocation",
        "concurrent clients",
        "throughput [queries/s]",
        notes=(
            f"QS 2-way joins, max. allocation, {server_memory_pages}-page server "
            "pool; '<mode> p95 [s]' / '<mode> shed' / '<mode> spill pages' "
            "series carry the tail latency, shed+failed queries, and broker "
            "spill I/O of the same runs"
        ),
    )
    points = [
        functools.partial(
            _memory_contention_point,
            mode=mode,
            count=count,
            server_memory_pages=server_memory_pages,
            stream=stream,
            settings=settings,
        )
        for count in client_counts
        for mode in ("static", "dynamic")
    ]
    return _sweep(result, points, settings.seeds, jobs)


# ----------------------------------------------------------------------
# Dynamic cache warm-up (not in the paper)
# ----------------------------------------------------------------------
def _cache_warmup_point(
    seed: int,
    *,
    policy: Policy,
    queries_per_client: int,
    cached_fraction: float,
    replacement: str,
    settings: RunSettings,
) -> list[Sample]:
    scenario = _two_way(cached_fraction)(placement_seed=seed)
    run = WorkloadRunner(
        scenario,
        policy,
        num_clients=1,
        stream=StreamConfig(
            arrival="closed",
            think_time=0.0,
            queries_per_client=queries_per_client,
        ),
        seed=seed,
        optimizer_config=settings.optimizer,
        cache=CacheConfig(mode="dynamic", policy=replacement),
    ).run()
    # One closed zero-think client: sessions complete in submission
    # order and pages_sent is exact (no overlapping sessions).
    label = policy.short_name
    positions = list(enumerate(run.sessions, start=1))
    return [
        (label, position, float(session.pages_sent)) for position, session in positions
    ] + [
        (f"{label} [s]", position, session.response_time) for position, session in positions
    ]


def cache_warmup(
    settings: RunSettings | None = None,
    queries_per_client: int = 5,
    cached_fraction: float = 0.0,
    replacement: str = "lru",
    jobs: int = 1,
) -> FigureResult:
    """Pages shipped and response time vs position in a warming stream.

    One client runs a closed, zero-think stream of identical 2-way joins
    against a cold (``cached_fraction=0``) dynamic buffer cache, so every
    page a client scan faults in stays resident for the rest of the
    stream.  Expected shape: data-shipping pays the full fault storm on
    query 1 and then runs entirely off the client disk (pages shipped
    drops to zero -- monotone non-increasing); query-shipping never warms
    (it ships the same join result every time, a flat line); hybrid under
    the response-time objective prefers streaming server scans into a
    client join -- pipelined shipping beats page-at-a-time faulting
    (section 4.2.3) -- so it ships the full relations every query and
    stays flat too.  Only client scans fault through the buffer cache, so
    only they warm it; the ``pages-sent`` objective (see
    ``examples/cache_warmup.py``) is what drives hybrid to client scans.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "cache-warmup",
        "Warm-Up of the Dynamic Client Cache, 2-Way Join, 1 Server, Cold Start",
        "query position in stream",
        "data pages shipped",
        notes=(
            f"closed single-client stream, {replacement} replacement; "
            "'<policy> [s]' series carry the response times of the same runs"
        ),
    )
    points = [
        functools.partial(
            _cache_warmup_point,
            policy=policy,
            queries_per_client=queries_per_client,
            cached_fraction=cached_fraction,
            replacement=replacement,
            settings=settings,
        )
        for policy in POLICIES
    ]
    return _sweep(result, points, settings.seeds, jobs)


# ----------------------------------------------------------------------
# Fault tolerance: availability sweep (not in the paper)
# ----------------------------------------------------------------------
def _availability_point(
    seed: int,
    *,
    policy: Policy,
    mtbf: float,
    mttr: float,
    horizon: float,
    cached_fraction: float,
    recovery: RecoveryPolicy,
    settings: RunSettings,
) -> list[Sample]:
    scenario = _two_way(cached_fraction)(placement_seed=seed)
    plan = _best_plan(scenario, policy, Objective.RESPONSE_TIME, settings, seed)
    faults = FaultSchedule.periodic_crashes(
        1, mtbf=mtbf, mttr=mttr, horizon=horizon, seed=seed
    )
    try:
        run = scenario.execute(
            plan,
            seed=seed,
            faults=faults,
            recovery=recovery,
            policy=policy,
            optimizer_config=settings.optimizer,
        )
    except TransientFaultError:
        time, replans, completed = horizon, 0.0, 0.0
    else:
        time, replans, completed = run.response_time, float(run.replans), 100.0
    label = policy.short_name
    return [
        (label, mtbf, time),
        (f"{label} replans", mtbf, replans),
        (f"{label} completed [%]", mtbf, completed),
    ]


def availability_sweep(
    settings: RunSettings | None = None,
    mtbf_values: tuple[float, ...] = MTBF_VALUES,
    mttr: float = 2.0,
    horizon: float = 120.0,
    cached_fraction: float = 1.0,
    jobs: int = 1,
) -> FigureResult:
    """Response time of the three policies under periodic server crashes.

    The server of a fully-cached 2-way join crashes with exponential
    times-to-failure (mean ``mtbf``) and restarts after ``mttr`` seconds.
    Expected shape: data-shipping is immune (its plan never touches the
    server when the relations are cached); hybrid-shipping degrades
    gracefully -- each crash costs one replan and a client-cache fallback;
    query-shipping suffers most, since it can only wait out each restart
    window, and at low MTBF it may exhaust its retry budget entirely
    (failed runs are censored at the query timeout).
    """
    settings = settings or RunSettings()
    recovery = RecoveryPolicy(max_attempts=6, base_backoff=0.5, query_timeout=horizon)
    result = FigureResult(
        "availability-sweep",
        "Response Time Under Periodic Server Crashes, 2-Way Join, Fully Cached",
        "server MTBF [s]",
        "response time [s]",
        notes=(
            f"mttr={mttr:g}s; runs that exhaust recovery are censored at the "
            f"{horizon:g}s query timeout and excluded from 'completed [%]'"
        ),
    )
    points = [
        functools.partial(
            _availability_point,
            policy=policy,
            mtbf=mtbf,
            mttr=mttr,
            horizon=horizon,
            cached_fraction=cached_fraction,
            recovery=recovery,
            settings=settings,
        )
        for mtbf in mtbf_values
        for policy in POLICIES
    ]
    return _sweep(result, points, settings.seeds, jobs)


# ----------------------------------------------------------------------
# Static vs 2-step optimization (Figures 10 and 11)
# ----------------------------------------------------------------------
def _centralized_catalog(scenario: Scenario) -> Catalog:
    """Compile-time belief: the whole database on a single server."""
    relations = benchmark_relations(len(scenario.query.relations))
    return Catalog(relations, Placement({r.name: 1 for r in relations}))


def _distributed_catalog(scenario: Scenario) -> Catalog:
    """Compile-time belief: every relation on its own server."""
    relations = benchmark_relations(len(scenario.query.relations))
    return Catalog(relations, Placement({r.name: i + 1 for i, r in enumerate(relations)}))


def _two_step_point(
    seed: int,
    *,
    count: int,
    selectivity: "str | float",
    settings: RunSettings,
) -> list[Sample]:
    scenario = _ten_way(count, selectivity=selectivity)(placement_seed=seed)
    true_env = scenario.environment()
    two_step = TwoStepOptimizer(Objective.RESPONSE_TIME, settings.optimizer)
    ideal = _best_plan(scenario, Policy.HYBRID_SHIPPING, Objective.RESPONSE_TIME, settings, seed)
    ideal_time = scenario.execute(ideal, seed=seed).response_time

    deep = two_step.compile(
        scenario.query,
        scenario.assumed_environment(_centralized_catalog(scenario)),
        shape=PlanShape.DEEP,
        seed=seed,
    )
    bushy = two_step.compile(
        scenario.query,
        scenario.assumed_environment(
            _distributed_catalog(scenario),
            num_servers=len(scenario.query.relations),
        ),
        shape=PlanShape.ANY,
        seed=seed,
    )
    plans = {
        "Deep Static": two_step.static_plan(deep),
        "Deep 2-Step": two_step.runtime_plan(deep, true_env, seed=seed),
        "Bushy Static": two_step.static_plan(bushy),
        "Bushy 2-Step": two_step.runtime_plan(bushy, true_env, seed=seed),
    }
    elapsed = {
        label: scenario.execute(plan, seed=seed).response_time
        for label, plan in plans.items()
    }
    # The randomized "ideal" is only as good as its search budget;
    # normalize by the best plan actually measured so ratios are a
    # true "times slower than the best known plan" (>= 1).
    baseline = min(ideal_time, *elapsed.values())
    return [(label, count, value / baseline) for label, value in elapsed.items()]


def _two_step_figure(
    figure_id: str,
    title: str,
    selectivity: "str | float",
    settings: RunSettings,
    server_counts: tuple[int, ...],
    jobs: int = 1,
) -> FigureResult:
    result = FigureResult(
        figure_id,
        title,
        "number of servers",
        "response time relative to ideal plan",
        notes=(
            "deep plans compiled under a centralized assumption, bushy plans "
            "under a fully-distributed assumption; the ideal plan is optimized "
            "with full knowledge of the runtime state (section 5.2)"
        ),
    )
    points = [
        functools.partial(
            _two_step_point, count=count, selectivity=selectivity, settings=settings
        )
        for count in server_counts
    ]
    return _sweep(result, points, settings.seeds, jobs)


def figure10(
    settings: RunSettings | None = None,
    server_counts: tuple[int, ...] = SERVER_COUNTS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 10: relative response time of static and 2-step plans.

    Expected shape: deep static plans pay the largest penalty (the
    centralized assumption concentrates all joins); 2-step site selection
    recovers much of it; bushy 2-step plans run close to the ideal across
    all server populations.
    """
    settings = settings or RunSettings()
    return _two_step_figure(
        "figure10",
        "Relative Response Time, 10-Way Join, Deep and Bushy Plans",
        "moderate",
        settings,
        server_counts,
        jobs=jobs,
    )


def figure11(
    settings: RunSettings | None = None,
    server_counts: tuple[int, ...] = SERVER_COUNTS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 11: the Figure-10 experiment for the HiSel query.

    Expected shape: bushy plans suffer at small server counts (high join
    selectivity makes bushy intermediates large), but bushy 2-step recovers
    as servers are added and the extra work parallelizes.
    """
    settings = settings or RunSettings()
    return _two_step_figure(
        "figure11",
        "Relative Response Time, HiSel 10-Way Join, Deep and Bushy Plans",
        "hisel",
        settings,
        server_counts,
        jobs=jobs,
    )


# ----------------------------------------------------------------------
# Section 5 text: 2-step optimization exploits run-time caching
# ----------------------------------------------------------------------
def _two_step_caching_point(
    seed: int, *, fraction: float, settings: RunSettings
) -> list[Sample]:
    runtime_scenario = chain_scenario(
        num_relations=4,
        num_servers=2,
        cached_fraction=fraction,
        placement_seed=seed,
    )
    compile_catalog = runtime_scenario.catalog.with_cache({})
    compile_env = runtime_scenario.assumed_environment(compile_catalog)
    true_env = runtime_scenario.environment()
    two_step = TwoStepOptimizer(Objective.PAGES_SENT, settings.optimizer)
    compiled = two_step.compile(runtime_scenario.query, compile_env, seed=seed)
    plans = {
        "Static": two_step.static_plan(compiled),
        "2-Step": two_step.runtime_plan(compiled, true_env, seed=seed),
        "Ideal": _best_plan(
            runtime_scenario, Policy.HYBRID_SHIPPING, Objective.PAGES_SENT, settings, seed
        ),
    }
    return [
        (label, fraction * 100.0, float(runtime_scenario.execute(plan, seed=seed).pages_sent))
        for label, plan in plans.items()
    ]


def two_step_caching(
    settings: RunSettings | None = None,
    cache_fractions: tuple[float, ...] = (0.0, 0.5, 1.0),
    jobs: int = 1,
) -> FigureResult:
    """Section 5 text: 2-step site selection exploits client caching.

    "If at runtime copies of data are cached at the client that submits a
    query, 2-step optimization has the flexibility to exploit the cached
    data to reduce communication."  Queries are compiled assuming an empty
    client cache; at run time the cache holds a prefix of every relation.
    The static plan's communication is stuck at the compile-time level,
    while the 2-step plan's falls with the cache like a fresh optimization.
    """
    settings = settings or RunSettings()
    result = FigureResult(
        "two-step-caching",
        "Pages Sent vs Run-Time Caching: Static, 2-Step, and Ideal Plans",
        "cached portion of relations [%]",
        "pages sent",
        notes="4-way join, 2 servers; compile time assumed an empty cache",
    )
    points = [
        functools.partial(_two_step_caching_point, fraction=fraction, settings=settings)
        for fraction in cache_fractions
    ]
    return _sweep(result, points, settings.seeds, jobs)
