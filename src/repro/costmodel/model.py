"""The optimizer's cost model: pages sent, total cost, response time.

The model mirrors the execution engine analytically:

- scans cost sequential page reads at their bound site; client scans add the
  synchronous page-at-a-time fault path (request message, server read, page
  message) whose latency does **not** overlap -- the reason data-shipping
  loses to query-shipping's pipelined result stream at equal communication
  volume (section 4.2.3);
- hybrid-hash joins follow Shapiro's min/max allocation: spilled fractions
  are written to and re-read from the join site's disk;
- disk I/O by a scan that shares its site's disk with a spilling join's
  temporary I/O is charged at the *random* rate rather than the sequential
  rate -- the seek interference the paper identifies as query-shipping's
  weakness under minimum allocation (section 4.2.2);
- external server load inflates disk service times by an M/M/1-style
  ``1 / (1 - utilization)`` factor;
- response time comes from the stage DAG of :mod:`repro.costmodel.tasks`;
  total cost is the [ML86]-style sum of all resource-seconds.
"""

from __future__ import annotations

import enum
import math
import types
import typing
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.config import SystemConfig
from repro.costmodel.estimates import Estimator
from repro.costmodel.tasks import ResourceVector, StageGraph, StreamContribution
from repro.errors import PlanError
from repro.hardware.site import CLIENT_SITE_ID
from repro.plans.binding import BoundPlan, bind_plan
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
from repro.storage.memory import (
    MemoryPressureState,
    grant_range,
    minimum_join_allocation,
    plan_hybrid_hash,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.caching.buffer import CacheState

__all__ = [
    "CostCalibration",
    "CostModel",
    "EnvironmentState",
    "Objective",
    "PlanCost",
]


class Objective(enum.Enum):
    """What the optimizer minimizes (section 3.1: cost or response time;
    the communication experiments minimize pages sent)."""

    PAGES_SENT = "pages-sent"
    TOTAL_COST = "total-cost"
    RESPONSE_TIME = "response-time"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CostCalibration:
    """Per-page I/O costs, calibrated against the simulated disk.

    The paper calibrated its optimizer's cost model with separate simulation
    runs (section 4.1: about 3.5 ms sequential / 11.8 ms random per page);
    these values come from the same procedure run against our disk model
    (see ``tests/costmodel/test_calibration.py``).
    """

    sequential_page_cost: float = 0.0035
    random_page_cost: float = 0.0118
    # Hybrid-hash temp I/O: writes hop between partition files (short seeks);
    # reads stream within a partition file but alternate between files.
    # Values fitted to the engine for an isolated spilling join; when scan
    # I/O shares the disk, seek interference inflates them further.
    spill_write_cost: float = 0.0075
    spill_read_cost: float = 0.0038
    spill_scan_interference_factor: float = 1.25
    # Ablation switch: when False, scans co-located with spilling joins are
    # (wrongly) still priced at the sequential rate and spill I/O is never
    # inflated -- used to quantify how much the interference model matters
    # (see benchmarks/bench_ablation.py).
    model_interference: bool = True
    # Dynamic memory governance: expected seconds a join waits in a site's
    # broker queue per request already queued there (and once more when the
    # free pool is below the join's minimum allocation).
    memory_wait_cost: float = 0.05


@dataclass(frozen=True)
class EnvironmentState:
    """Everything the optimizer believes about the system state.

    For 2-step optimization experiments this may deliberately differ from
    the true runtime state (stale placement, unknown caching, ignored
    loads) -- the cost model prices plans under *this* belief.
    """

    catalog: Catalog
    config: SystemConfig
    # A read-only view of a private copy (see ``__post_init__``): an
    # environment keys plan-cache entries by identity, so it must not
    # change under them.
    server_loads: typing.Mapping[int, float] = field(default_factory=dict)
    calibration: CostCalibration = field(default_factory=CostCalibration)
    # Client-cache snapshot: when set, the cost model estimates
    # client-resident fractions from it instead of the catalog cache
    # fractions (cache-aware optimization, one client's view).
    cache_state: "CacheState | None" = None
    # Broker occupancy snapshot (dynamic memory governance): when set, the
    # model sizes join buffers from each site's free pool and prices
    # expected memory-wait time, so replans steer away from saturation.
    memory_pressure: MemoryPressureState | None = None

    def __post_init__(self) -> None:
        loads = types.MappingProxyType(dict(self.server_loads))
        object.__setattr__(self, "server_loads", loads)

    def load_factor(self, site_id: int) -> float:
        """Disk service inflation from external load at ``site_id``."""
        rate = self.server_loads.get(site_id, 0.0)
        if rate <= 0.0:
            return 1.0
        utilization = min(0.95, rate * self.calibration.random_page_cost)
        return 1.0 / (1.0 - utilization)


@dataclass(frozen=True)
class PlanCost:
    """The three cost metrics of one plan."""

    pages_sent: float
    total_cost: float
    response_time: float

    def metric(self, objective: Objective) -> tuple[float, float]:
        """Primary metric plus a total-cost tie-breaker for comparisons."""
        if objective is Objective.PAGES_SENT:
            return (self.pages_sent, self.total_cost)
        if objective is Objective.TOTAL_COST:
            return (self.total_cost, self.response_time)
        return (self.response_time, self.total_cost)


class _AttributedUsage:
    """Proxy that mirrors ``usage.add`` calls into a per-operator breakdown.

    The breakdown aggregates resource *kinds* (cpu/disk/net) per operator
    label -- the same keys the tracer reports actuals under, so the
    validation harness can line the two up row by row.
    """

    __slots__ = ("vector", "breakdown", "label")

    def __init__(
        self,
        vector: ResourceVector,
        breakdown: dict[str, dict[str, float]],
        label: str,
    ) -> None:
        self.vector = vector
        self.breakdown = breakdown
        self.label = label

    def add(self, key: tuple[str, int], seconds: float) -> None:
        self.vector.add(key, seconds)
        per_op = self.breakdown.setdefault(
            self.label, {"cpu": 0.0, "disk": 0.0, "net": 0.0}
        )
        per_op[key[0]] += seconds


class CostModel:
    """Prices annotated plans for one query under one environment belief."""

    def __init__(
        self,
        query: Query,
        environment: EnvironmentState,
        incremental: bool = True,
    ) -> None:
        self.query = query
        self.environment = environment
        self.config = environment.config
        self.calibration = environment.calibration
        self.estimator = Estimator(
            query,
            environment.catalog,
            environment.config,
            cache_state=environment.cache_state,
        )
        self.evaluations = 0
        #: Operators actually walked (memoized evaluations skip the walk).
        self.node_visits = 0
        # Per-operator attribution, active only inside
        # evaluate_with_breakdown (the optimizer's hot path skips it).
        self._breakdown: dict[str, dict[str, float]] | None = None
        self._labels: dict[int, str] = {}
        # Incremental re-evaluation: 2PO probes hundreds of neighbours that
        # revisit the same plans and share most subtrees, so whole plans are
        # memoized by structural equality and scan-leaf contributions by
        # their (relation, site, interference) inputs.  Both replays are
        # bit-for-bit identical to the naive walk (asserted in tests);
        # ``incremental=False`` disables both.
        self._incremental = incremental
        self._plan_memo: dict[DisplayOp, PlanCost] = {}
        self._scan_memo: dict[
            tuple[str, int, int, bool, bool, bool],
            tuple[tuple[tuple[tuple[str, int], float], ...], float, float],
        ] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def evaluate(self, plan: "DisplayOp | BoundPlan") -> PlanCost:
        """Estimate all three metrics for a plan."""
        self.evaluations += 1
        # Memoization applies only to annotated plans under the default
        # catalog binding; explicit BoundPlans (custom client sites, the
        # breakdown path) always take the full walk.
        memoize = (
            self._incremental
            and self._breakdown is None
            and not isinstance(plan, BoundPlan)
        )
        if memoize:
            cached = self._plan_memo.get(plan)  # type: ignore[arg-type]
            if cached is not None:
                return cached
        bound = plan if isinstance(plan, BoundPlan) else bind_plan(plan, self.environment.catalog)
        graph = StageGraph()
        pages_sent = [0.0]
        spill_sites, scan_sites = self._disk_traffic_sites(bound)
        contribution = self._visit(
            bound.root, bound, graph, spill_sites, scan_sites, pages_sent
        )
        contribution.into_stage(graph, "final", final=True)
        cost = PlanCost(
            pages_sent=pages_sent[0],
            total_cost=graph.total_cost(),
            response_time=graph.response_time(),
        )
        if memoize:
            self._plan_memo[plan] = cost  # type: ignore[index]
        return cost

    def evaluate_with_breakdown(
        self, plan: "DisplayOp | BoundPlan"
    ) -> tuple[PlanCost, dict[str, dict[str, float]]]:
        """Like :meth:`evaluate`, also returning predicted resource seconds
        per operator label (``{"scan[R0]@server1": {"cpu": ..., "disk": ...,
        "net": ...}, ...}``) -- the prediction side of the cost-model
        validation harness."""
        bound = plan if isinstance(plan, BoundPlan) else bind_plan(plan, self.environment.catalog)
        self._breakdown = {}
        self._labels = bound.operator_labels()
        try:
            cost = self.evaluate(bound)
            return cost, self._breakdown
        finally:
            self._breakdown = None
            self._labels = {}

    def _usage(self, vector: ResourceVector, op: PlanOp) -> "ResourceVector | _AttributedUsage":
        """Wrap a usage vector so adds are attributed to ``op``'s label."""
        if self._breakdown is None:
            return vector
        return _AttributedUsage(vector, self._breakdown, self._labels[id(op)])

    # ------------------------------------------------------------------
    # Disk traffic pre-pass
    # ------------------------------------------------------------------
    def _join_buffers(self, site: int, inner_pages: int) -> int:
        """Buffer frames the model expects a join at ``site`` to run with.

        The broker grants greedily within the join's :func:`grant_range`
        (a single size under the static discipline), so with no pressure
        snapshot (or an unknown site) the maximum is the belief; under a
        snapshot the expectation is the site's free pool clamped to the
        range -- what a grant issued right now would actually get.
        """
        min_pages, max_pages, _waits = grant_range(self.config, inner_pages)
        pressure = self.environment.memory_pressure
        free = None if pressure is None else pressure.free_pages(site)
        if free is None:
            return max_pages
        return max(min_pages, min(max_pages, free))

    def _join_spills(self, op: JoinOp, site: int) -> bool:
        """Whether this join runs out of memory (spills partitions)."""
        est = self.estimator
        inner_pages = max(1, est.pages(op.inner))
        buffers = self._join_buffers(site, inner_pages)
        return not plan_hybrid_hash(
            inner_pages, max(1, est.pages(op.outer)), buffers
        ).in_memory

    def _scan_home(self, op: ScanOp) -> int:
        """The server a scan reads (client scans: faults) its pages from:
        the copy pinned by ``ScanOp.home``, or the primary."""
        if op.home is not None:
            return op.home
        return self.environment.catalog.server_of(op.relation)

    def _disk_traffic_sites(self, bound: BoundPlan) -> tuple[frozenset[int], frozenset[int]]:
        """Sites with hybrid-hash temp I/O and sites with scan read I/O.

        A scan whose disk is shared with a spilling join loses its
        sequential pattern (priced at the random rate), and spill I/O on a
        disk that also serves scans suffers extra seek interference.
        """
        spill_sites: set[int] = set()
        scan_sites: set[int] = set()
        est = self.estimator
        for op in bound.operators():
            if isinstance(op, JoinOp) and self._join_spills(op, bound.site_of(op)):
                spill_sites.add(bound.site_of(op))
            elif isinstance(op, ScanOp):
                site = bound.site_of(op)
                if site != CLIENT_SITE_ID:
                    scan_sites.add(site)
                else:
                    if est.cached_pages(op.relation) > 0:
                        scan_sites.add(CLIENT_SITE_ID)
                    if est.missing_pages(op.relation) > 0:
                        scan_sites.add(self._scan_home(op))
        return frozenset(spill_sites), frozenset(scan_sites)

    # ------------------------------------------------------------------
    # Plan walk
    # ------------------------------------------------------------------
    def _visit(
        self,
        op: PlanOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        self.node_visits += 1
        if isinstance(op, ScanOp):
            return self._scan(op, bound, spill_sites, pages_sent)
        if isinstance(op, SelectOp):
            return self._select(op, bound, graph, spill_sites, scan_sites, pages_sent)
        if isinstance(op, UdfFilterOp):
            return self._udf_filter(op, bound, graph, spill_sites, scan_sites, pages_sent)
        if isinstance(op, SemiJoinOp):
            return self._semijoin(op, bound, graph, spill_sites, scan_sites, pages_sent)
        if isinstance(op, AggregateOp):
            return self._aggregate(op, bound, graph, spill_sites, scan_sites, pages_sent)
        if isinstance(op, JoinOp):
            return self._join(op, bound, graph, spill_sites, scan_sites, pages_sent)
        if isinstance(op, DisplayOp):
            return self._display(op, bound, graph, spill_sites, scan_sites, pages_sent)
        raise PlanError(f"cannot cost operator {op.kind}")

    def _child_stream(
        self,
        parent: PlanOp,
        child: PlanOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        """Visit a child and add exchange costs if the edge crosses sites."""
        contribution = self._visit(child, bound, graph, spill_sites, scan_sites, pages_sent)
        parent_site = bound.site_of(parent)
        child_site = bound.site_of(child)
        if parent_site != child_site:
            pages = self.estimator.pages(child)
            pages_sent[0] += pages
            usage: ResourceVector | _AttributedUsage = contribution.usage
            if self._breakdown is not None:
                # Same label the executor stamps on the exchange receiver.
                usage = _AttributedUsage(
                    contribution.usage,
                    self._breakdown,
                    f"xfer:{self._labels[id(child)]}",
                )
            self._add_page_messages(usage, child_site, parent_site, pages)
        return contribution

    def _add_page_messages(
        self,
        usage: "ResourceVector | _AttributedUsage",
        source: int,
        destination: int,
        pages: float,
    ) -> None:
        config = self.config
        cpu_seconds = config.instructions_time(
            config.message_cpu_instructions(config.page_size)
        )
        usage.add(("cpu", source), pages * cpu_seconds)
        usage.add(("cpu", destination), pages * cpu_seconds)
        usage.add(("net", 0), pages * config.wire_time(config.page_size))

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _scan(
        self,
        op: ScanOp,
        bound: BoundPlan,
        spill_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        if not self._incremental or self._breakdown is not None:
            return self._scan_compute(op, bound, spill_sites, pages_sent)
        # A scan leaf's contribution is fully determined by its relation,
        # its bound site, the copy it reads, and which disks carry
        # interfering spill traffic; replaying the recorded usage items
        # reproduces the naive walk's vector (same keys, same final values,
        # same insertion order).
        site = bound.site_of(op)
        home = self._scan_home(op)
        key = (
            op.relation,
            site,
            home,
            site in spill_sites,
            CLIENT_SITE_ID in spill_sites,
            home in spill_sites,
        )
        cached = self._scan_memo.get(key)
        if cached is None:
            probe = [0.0]
            contribution = self._scan_compute(op, bound, spill_sites, probe)
            pages_sent[0] += probe[0]
            self._scan_memo[key] = (
                tuple(contribution.usage.items()),
                contribution.latency,
                probe[0],
            )
            return contribution
        items, latency, pages = cached
        contribution = StreamContribution()
        for usage_key, seconds in items:
            contribution.usage.add(usage_key, seconds)
        contribution.latency = latency
        pages_sent[0] += pages
        return contribution

    def _scan_compute(
        self,
        op: ScanOp,
        bound: BoundPlan,
        spill_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        est = self.estimator
        config = self.config
        cal = self.calibration
        env = self.environment
        site = bound.site_of(op)
        home = self._scan_home(op)
        contribution = StreamContribution()
        usage = self._usage(contribution.usage, op)
        disk_cpu = config.instructions_time(config.disk_inst)

        if site != CLIENT_SITE_ID:
            # Primary-copy scan: sequential unless a co-located spilling
            # join's temp I/O destroys the sequential pattern.
            pages = est.base_pages(op.relation)
            contended = cal.model_interference and site in spill_sites
            rate = cal.random_page_cost if contended else cal.sequential_page_cost
            rate *= env.load_factor(site)
            usage.add(("disk", site), pages * rate)
            usage.add(("cpu", site), pages * disk_cpu)
            return contribution

        # Client scan: cached prefix from the client disk, the rest faulted
        # in page-at-a-time (synchronous; latency does not overlap).
        cached = est.cached_pages(op.relation)
        missing = est.missing_pages(op.relation)
        client_rate = (
            cal.random_page_cost
            if cal.model_interference and CLIENT_SITE_ID in spill_sites
            else cal.sequential_page_cost
        )
        usage.add(("disk", CLIENT_SITE_ID), cached * client_rate)
        usage.add(("cpu", CLIENT_SITE_ID), cached * disk_cpu)
        contribution.latency += cached * client_rate

        if missing:
            pages_sent[0] += missing
            server_rate = (
                cal.random_page_cost
                if cal.model_interference and home in spill_sites
                else cal.sequential_page_cost
            )
            server_rate *= env.load_factor(home)
            request_cpu = config.instructions_time(
                config.message_cpu_instructions(config.request_message_bytes)
            )
            page_cpu = config.instructions_time(
                config.message_cpu_instructions(config.page_size)
            )
            request_wire = config.wire_time(config.request_message_bytes)
            page_wire = config.wire_time(config.page_size)
            usage.add(("disk", home), missing * server_rate)
            usage.add(("cpu", home), missing * (disk_cpu + request_cpu + page_cpu))
            usage.add(("cpu", CLIENT_SITE_ID), missing * (request_cpu + page_cpu))
            usage.add(("net", 0), missing * (request_wire + page_wire))
            round_trip = (
                2 * request_cpu + 2 * page_cpu + request_wire + page_wire + server_rate
            )
            contribution.latency += missing * round_trip
        return contribution

    def _select(
        self,
        op: SelectOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        est = self.estimator
        config = self.config
        site = bound.site_of(op)
        contribution = self._child_stream(
            op, op.child, bound, graph, spill_sites, scan_sites, pages_sent
        )
        input_tuples = est.cardinality(op.child)
        output_bytes = est.cardinality(op) * est.tuple_bytes(op)
        cpu = config.compare_inst * input_tuples + config.move_instructions(output_bytes)
        self._usage(contribution.usage, op).add(("cpu", site), config.instructions_time(cpu))
        return contribution

    def _udf_filter(
        self,
        op: UdfFilterOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        """Expensive predicate: the declared per-tuple cost, at the chosen
        site.  The placement tradeoff falls out of the resource vectors:
        evaluating at the producer burns server CPU but ships only the
        survivors; evaluating at the client ships the whole stream (the
        exchange is priced by ``_child_stream``) but burns otherwise-idle
        client CPU."""
        est = self.estimator
        config = self.config
        site = bound.site_of(op)
        contribution = self._child_stream(
            op, op.child, bound, graph, spill_sites, scan_sites, pages_sent
        )
        input_tuples = est.cardinality(op.child)
        output_bytes = est.cardinality(op) * est.tuple_bytes(op)
        udf_cpu = op.udf.per_tuple_instructions * input_tuples
        cpu = udf_cpu + config.move_instructions(output_bytes)
        self._usage(contribution.usage, op).add(("cpu", site), config.instructions_time(cpu))
        # The engine evaluates a UDF synchronously inside its input pipeline
        # (one pull-based coroutine), so when the UDF is bound to a site
        # whose disk also feeds that pipeline, its CPU time serializes with
        # the disk reads instead of overlapping them.  The serial-latency
        # floor prices that: it is what makes an expensive UDF migrate off
        # the data's site even though both sites would burn the same CPU.
        disk_here = contribution.usage.get(("disk", site), 0.0)
        if disk_here:
            contribution.latency = max(
                contribution.latency, disk_here + config.instructions_time(udf_cpu)
            )
        return contribution

    def _semijoin(
        self,
        op: SemiJoinOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        """Semi-join reducer: ship a join-column digest to this site, build
        a hash table over it, probe every input tuple.  Pays digest pages
        and hashing CPU to drop the non-participating tuples before they
        are shipped upstream."""
        est = self.estimator
        config = self.config
        site = bound.site_of(op)
        contribution = self._child_stream(
            op, op.child, bound, graph, spill_sites, scan_sites, pages_sent
        )
        usage = self._usage(contribution.usage, op)
        reduction = op.reduction
        digest_tuples = float(self.environment.catalog.relation(reduction.digest_of).tuples)
        digest_source = self.environment.catalog.server_of(reduction.digest_of)
        digest_pages = math.ceil(
            digest_tuples * reduction.key_bytes / config.page_size
        )
        # Build the digest where its relation lives, ship it if needed.
        usage.add(
            ("cpu", digest_source),
            config.instructions_time(config.hash_inst * digest_tuples),
        )
        if digest_source != site:
            pages_sent[0] += digest_pages
            self._add_page_messages(usage, digest_source, site, digest_pages)
            # The probe cannot start before the digest has arrived.
            contribution.latency += digest_pages * config.wire_time(config.page_size)
        # Local hash build over the digest, then one probe per input tuple.
        input_tuples = est.cardinality(op.child)
        output_bytes = est.cardinality(op) * est.tuple_bytes(op)
        cpu = config.hash_inst * (digest_tuples + input_tuples)
        cpu += config.move_instructions(output_bytes)
        usage.add(("cpu", site), config.instructions_time(cpu))
        return contribution

    def _aggregate(
        self,
        op: AggregateOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        """Hash group-by: blocking -- the input stream is fully consumed
        (one hash probe/update per tuple) before the groups are emitted,
        so the input becomes its own stage like a join's build phase."""
        est = self.estimator
        config = self.config
        site = bound.site_of(op)
        build = self._child_stream(
            op, op.child, bound, graph, spill_sites, scan_sites, pages_sent
        )
        # Spill passes feeding the input produce its tail: the hash table
        # is not complete until they are, exactly as for a join build.
        build.preds.extend(build.spill_preds)
        input_tuples = est.cardinality(op.child)
        build_cpu = config.hash_inst * input_tuples
        self._usage(build.usage, op).add(("cpu", site), config.instructions_time(build_cpu))
        build_stage = build.into_stage(graph, f"agg@{site}")
        # Emission of the (much smaller) group stream.
        emit = StreamContribution()
        output_bytes = est.cardinality(op) * est.tuple_bytes(op)
        self._usage(emit.usage, op).add(
            ("cpu", site),
            config.instructions_time(config.move_instructions(output_bytes)),
        )
        emit.preds.append(build_stage)
        return emit

    def _join(
        self,
        op: JoinOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        est = self.estimator
        config = self.config
        cal = self.calibration
        site = bound.site_of(op)
        load = self.environment.load_factor(site)
        inner_pages = est.pages(op.inner)
        outer_pages = est.pages(op.outer)
        buffers = self._join_buffers(site, max(1, inner_pages))
        hh = plan_hybrid_hash(max(1, inner_pages), max(1, outer_pages), buffers)
        spills = not hh.in_memory
        disk_cpu = config.instructions_time(config.disk_inst)
        interference = (
            cal.spill_scan_interference_factor
            if cal.model_interference and site in scan_sites
            else 1.0
        )
        write_cost = cal.spill_write_cost * interference * load
        read_cost = cal.spill_read_cost * interference * load

        # ---- Build stage: inner stream + hash build + inner spill writes.
        # The build cannot finish before spill passes of joins feeding the
        # inner stream, because they produce the tail of that stream.
        inner_contribution = self._child_stream(
            op, op.inner, bound, graph, spill_sites, scan_sites, pages_sent
        )
        inner_contribution.preds.extend(inner_contribution.spill_preds)
        inner_tuples = est.cardinality(op.inner)
        inner_bytes = inner_tuples * est.tuple_bytes(op.inner)
        build_cpu = config.hash_inst * inner_tuples + config.move_instructions(inner_bytes)
        build_usage = self._usage(inner_contribution.usage, op)
        build_usage.add(("cpu", site), config.instructions_time(build_cpu))
        if spills:
            writes = hh.spilled_inner_pages
            build_usage.add(("disk", site), writes * write_cost)
            build_usage.add(("cpu", site), writes * disk_cpu)
        pressure = self.environment.memory_pressure
        if pressure is not None:
            # Expected broker-queue time before the build can even start:
            # one unit per request already queued at this site, plus one
            # more when the free pool cannot cover this join's minimum.
            penalty = pressure.waiters(site) * cal.memory_wait_cost
            free = pressure.free_pages(site)
            if free is not None and free < minimum_join_allocation(max(1, inner_pages)):
                penalty += cal.memory_wait_cost
            if penalty > 0.0:
                inner_contribution.latency += penalty
        build_stage = inner_contribution.into_stage(graph, f"build@{site}")

        # ---- Probe: outer stream, probe CPU, outer spill writes, the
        # resident share of the output.  Runs concurrently with the spill
        # passes of joins feeding the outer stream (pipelined), so those
        # stay in spill_preds rather than preds.
        result = self._child_stream(
            op, op.outer, bound, graph, spill_sites, scan_sites, pages_sent
        )
        outer_tuples = est.cardinality(op.outer)
        outer_bytes = outer_tuples * est.tuple_bytes(op.outer)
        output_bytes = est.cardinality(op) * est.tuple_bytes(op)
        probe_cpu = config.hash_inst * outer_tuples + config.move_instructions(outer_bytes)
        probe_cpu += config.move_instructions(output_bytes)
        probe_usage = self._usage(result.usage, op)
        probe_usage.add(("cpu", site), config.instructions_time(probe_cpu))
        result.preds.append(build_stage)
        if spills:
            writes = hh.spilled_outer_pages
            probe_usage.add(("disk", site), writes * write_cost)
            probe_usage.add(("cpu", site), writes * disk_cpu)

            # ---- Spill pass: re-read and re-join the spilled partitions.
            # Starts only after the outer stream is exhausted -- hence after
            # the spill passes of joins feeding the outer stream.
            spill = StreamContribution()
            spill_usage = self._usage(spill.usage, op)
            reads = hh.spilled_inner_pages + hh.spilled_outer_pages
            spill_usage.add(("disk", site), reads * read_cost)
            spill_usage.add(("cpu", site), reads * disk_cpu)
            spilled_fraction = 1.0 - hh.resident_fraction
            rebuild_cpu = config.hash_inst * spilled_fraction * (inner_tuples + outer_tuples)
            rebuild_cpu += config.move_instructions(
                spilled_fraction * (inner_bytes + outer_bytes)
            )
            spill_usage.add(("cpu", site), config.instructions_time(rebuild_cpu))
            spill.preds = [build_stage] + result.spill_preds
            spill_stage = spill.into_stage(graph, f"spill@{site}")
            result.spill_preds = [spill_stage]
        return result

    def _display(
        self,
        op: DisplayOp,
        bound: BoundPlan,
        graph: StageGraph,
        spill_sites: frozenset[int],
        scan_sites: frozenset[int],
        pages_sent: list[float],
    ) -> StreamContribution:
        contribution = self._child_stream(
            op, op.child, bound, graph, spill_sites, scan_sites, pages_sent
        )
        tuples = self.estimator.cardinality(op)
        self._usage(contribution.usage, op).add(
            ("cpu", bound.site_of(op)),
            self.config.instructions_time(self.config.display_inst * tuples),
        )
        return contribution
