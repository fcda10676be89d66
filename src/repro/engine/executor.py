"""Query executor: builds physical operator trees and drives them.

One :class:`QueryExecutor` owns one simulated system, and it is the only
place one is built: it creates the environment and topology, installs the
catalog (with any per-client cache contents), binds the tracer, starts any
external load generators and the telemetry sampler, converts a bound plan
into physical iterators (inserting exchange pairs on cross-site edges),
and runs the root display to completion.  The result carries the study's
two metrics -- response time and pages sent -- plus detailed resource
statistics.

Every run goes through a :class:`Session`: one query or write statement
driven as a simulated process.  :meth:`QueryExecutor.execute` runs a
single query as a one-client session; a multi-client workload (see
:mod:`repro.workload`) instead runs many sessions concurrently on the
executor's system, contending on the server CPUs, disks, and the network,
with optional server-side admission control.

With a :class:`~repro.faults.FaultSchedule` attached, the executor becomes
fault tolerant: a :class:`~repro.faults.FaultInjector` crashes servers,
partitions the network, and slows disks mid-run, and the session's
*recovery loop* (:mod:`repro.engine.supervision`) -- one loop for single
queries, concurrent queries, and writes alike -- reacts to the resulting
:class:`~repro.errors.TransientFaultError`\\ s with bounded retries
(exponential backoff + jitter, all in sim time), re-optimizing around
crashed sites -- falling back to the client's cached copies exactly where
the paper predicts data- and hybrid-shipping shine.
"""

from __future__ import annotations

import random
import typing
import weakref
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.config import OptimizerConfig, SystemConfig
from repro.costmodel.estimates import Estimator
from repro.costmodel.model import EnvironmentState, Objective
from repro.engine.base import PhysicalOp
from repro.engine.exchange import ExchangeReceiver
from repro.engine.joins import HashJoinIterator
from repro.engine.scans import ScanIterator
from repro.engine.selects import SelectIterator
from repro.engine.sinks import DisplayIterator
from repro.errors import (
    ExecutionError,
    QueryShedError,
    TransientFaultError,
)
from repro.faults.recovery import RecoveryPolicy, RecoveryStats
from repro.hardware.site import CLIENT_SITE_ID, Site
from repro.hardware.topology import Topology
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
from repro.plans.policies import Policy
from repro.plans.validate import validate_plan
from repro.sim import Environment, Event, Process
from repro.storage.memory import MemoryPressureState

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.caching.buffer import CacheState
    from repro.engine.loadgen import DiskLoadGenerator
    from repro.engine.writes import WriteSpec
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.obs.telemetry import Telemetry, TelemetryConfig
    from repro.obs.trace import Tracer
    from repro.optimizer.cache import PlanCache

__all__ = [
    "ExecutionContext",
    "ExecutionResult",
    "QueryExecutor",
    "Session",
    "SessionResult",
]


class ExecutionContext:
    """Shared state all physical operators of one run (or attempt) see.

    Under fault-tolerant execution each attempt gets its own supervised
    context: processes it spawns catch :class:`TransientFaultError` and
    report it to :attr:`fault_event` instead of letting it escape, so the
    recovery loop can abort the attempt and retry.
    """

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        catalog: Catalog,
        query: Query,
        estimator: Estimator,
        supervised: bool = False,
    ) -> None:
        self.env = env
        self.topology = topology
        self.catalog = catalog
        self.query = query
        self.estimator = estimator
        self.config = topology.config
        self.network = topology.network
        self.processes: list[Process] = []
        self.operators: list[PhysicalOp] = []
        self.fault_event: Event | None = Event(env) if supervised else None

    def register_op(self, op: PhysicalOp) -> None:
        self.operators.append(op)

    def pages_produced(self) -> int:
        """Pages produced so far by every operator of this context."""
        return sum(op.pages_produced for op in self.operators)

    def report_fault(self, exc: Exception) -> None:
        """Signal the recovery loop (first fault wins; later ones no-op)."""
        if self.fault_event is not None and not self.fault_event.triggered:
            self.fault_event.fail(exc)

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        if self.fault_event is not None:
            generator = self._supervise(generator)
        process = self.env.process(generator, name=name)
        self.processes.append(process)
        return process

    def abort(self) -> None:
        """Release resources held by this attempt's operators (idempotent).

        Called when an attempt is abandoned mid-run: operators whose
        ``close`` will never run give their buffer memory and temp extents
        back, so later attempts (and concurrent sessions) are not starved
        by leaked allocations.  The attempt is over, so this also drops
        the operator list (see :meth:`finish`).
        """
        for op in self.operators:
            op.abort()
        self.finish()

    def finish(self) -> None:
        """Forget this run's operators once the run is over.

        Every operator points at its context and the context lists every
        operator: a reference cycle that would keep the finished operator
        tree -- its exchange processes, channels, and temp files -- alive
        until a cyclic GC pass, and the workload runner pauses those for the
        whole simulation.  Dropping the list lets refcounting free the tree
        as soon as its session lets go of the root.  The fault event goes
        too, and with it the last link of another cycle: a reported fault's
        traceback holds the frames of this attempt's operators.  A finished
        attempt takes no more fault reports.
        """
        self.operators = []
        self.fault_event = None

    def _supervise(self, generator: typing.Generator) -> typing.Generator:
        """Convert an escaping transient fault (or shed) into a fault-event
        report.  Sheds are included because a static-allocation join deep in
        a spawned exchange subtree can hit an exhausted buffer pool; the
        supervising loop must see that as this attempt's outcome, not as an
        exception crashing the strict environment."""
        try:
            result = yield from generator
        except (QueryShedError, TransientFaultError) as exc:
            self.report_fault(exc)
            return None
        return result


@dataclass
class ExecutionResult:
    """Metrics of one simulated query execution."""

    response_time: float
    pages_sent: int
    control_messages: int
    bytes_sent: int
    result_tuples: int
    result_pages: int
    disk_utilizations: dict[str, float] = field(default_factory=dict)
    cpu_utilizations: dict[str, float] = field(default_factory=dict)
    network_utilization: float = 0.0
    disk_reads: int = 0
    disk_writes: int = 0
    # Recovery observability (all zero on a fault-free run).
    retries: int = 0
    replans: int = 0
    wasted_work_pages: int = 0
    time_to_recover: float = 0.0
    faults_seen: int = 0
    messages_dropped: int = 0
    # Snapshot of the topology's metrics registry at completion
    # (site.server1.disk0.pages_read, network.bytes_sent, ...).
    profile: dict[str, float] = field(default_factory=dict)
    # Buffer-cache snapshot of the driving client at completion.
    cache_state: "CacheState | None" = None
    # Sampled time series of the run (per-interval utilizations, queue
    # depths, cache occupancy); None unless a telemetry config was passed.
    telemetry: "Telemetry | None" = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        text = (
            f"response_time={self.response_time:.3f}s pages_sent={self.pages_sent} "
            f"result_tuples={self.result_tuples}"
        )
        if self.retries or self.replans:
            text += (
                f" retries={self.retries} replans={self.replans} "
                f"time_to_recover={self.time_to_recover:.3f}s"
            )
        return text


class QueryExecutor:
    """Builds one simulated system and runs bound plans on it.

    The executor creates the environment and topology and installs the
    catalog; ``client_caches`` overrides the cached fractions of
    individual clients (keyed by client site id, see
    :meth:`Catalog.install`).  :meth:`execute` runs one plan to completion
    as a one-client session.  A multi-client workload instead creates
    concurrently running :class:`Session`\\ s on :attr:`topology`, each
    planned by :meth:`optimize_for` at submission, and drives :attr:`env`
    itself.  :meth:`close` frees the system.
    """

    def __init__(
        self,
        config: SystemConfig,
        catalog: Catalog,
        query: Query,
        seed: int = 0,
        server_loads: dict[int, float] | None = None,
        faults: FaultSchedule | None = None,
        recovery: RecoveryPolicy | None = None,
        policy: Policy | None = None,
        objective: Objective = Objective.RESPONSE_TIME,
        optimizer_config: OptimizerConfig | None = None,
        client_caches: "dict[int, dict[str, float]] | None" = None,
        tracer: "Tracer | None" = None,
        plan_cache: "PlanCache | None" = None,
        telemetry: "TelemetryConfig | None" = None,
    ) -> None:
        self.config = config
        self.catalog = catalog
        self.query = query
        self.seed = seed
        self.server_loads = dict(server_loads or {})
        self.env = Environment()
        self.topology = Topology(self.env, config, seed=seed)
        catalog.install(self.topology, client_caches=client_caches)
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.env)
        self.estimator = Estimator(query, catalog, config)
        self.load_generators: list[DiskLoadGenerator] = []
        if self.server_loads:
            from repro.engine.loadgen import DiskLoadGenerator

        for site_id, rate in self.server_loads.items():
            self.load_generators.append(
                DiskLoadGenerator(
                    self.env,
                    self.topology.site(site_id),
                    rate,
                    # A per-purpose child stream: the old ``seed * 7919 +
                    # site_id`` arithmetic collided with other derived seeds
                    # (and with neighbouring sites under nearby seeds).
                    rng=random.Random(f"{seed}:loadgen:{site_id}"),
                )
            )
        # Fault tolerance: only engaged when there is something to survive,
        # so fault-free runs are event-for-event identical to the seed
        # behaviour (see tests/properties/test_fault_determinism.py).
        self.faults = faults
        self.recovery = recovery
        self.policy = policy
        self.objective = objective
        self.optimizer_config = optimizer_config
        self.plan_cache = plan_cache
        # optimize_for's planning environments, one per live pair of (cache
        # view digest, memory pressure digest); plan-cache entries keep
        # theirs alive.
        self._environments: "weakref.WeakValueDictionary[tuple, EnvironmentState]" = (
            weakref.WeakValueDictionary()
        )
        self.recovery_stats = RecoveryStats()
        self.injector: FaultInjector | None = None
        if faults is not None and not faults.is_empty:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(self.env, self.topology, faults, seed=seed)
        # Telemetry: a simulated-time gauge sampler, created only on
        # request -- the default (None) adds no process and no events, so
        # unsampled runs stay byte-identical to the seed behaviour.
        self.sampler = None
        if telemetry is not None:
            from repro.obs.telemetry import TelemetrySampler

            self.sampler = TelemetrySampler(self.env, self.topology.metrics, telemetry)
        self._begin_execute()

    @property
    def fault_tolerant(self) -> bool:
        """True when execution goes through the recovery loop."""
        return self.injector is not None or self.recovery is not None

    # ------------------------------------------------------------------
    # Physical plan construction
    # ------------------------------------------------------------------
    def build_physical(
        self, bound: BoundPlan, context: ExecutionContext | None = None
    ) -> DisplayIterator:
        """Translate a bound plan into physical iterators with exchanges.

        Every physical operator is stamped with its plan-derived label
        (``scan[RelA]@server1``, ``join#0@client``, exchanges as
        ``xfer:<producer label>``) -- the key the tracer and the cost-model
        validation harness join on.
        """
        context = context or self.new_context()
        root = bound.root
        if not isinstance(root, DisplayOp):
            raise ExecutionError("bound plan root must be a display operator")
        labels = bound.operator_labels()
        display_site = self.topology.site(bound.site_of(root))
        child = self._build_op(root.child, bound, context, labels)
        child = self._maybe_exchange(display_site, root.child, child, bound, context)
        display = DisplayIterator(context, display_site, child)
        display.label = labels[id(root)]
        return display

    def _build_op(
        self,
        op: PlanOp,
        bound: BoundPlan,
        context: ExecutionContext,
        labels: dict[int, str],
    ) -> PhysicalOp:
        site = self.topology.site(bound.site_of(op))
        phys: PhysicalOp
        if isinstance(op, ScanOp):
            phys = ScanIterator(context, site, op.relation, home_server_id=op.home)
        elif isinstance(op, SelectOp):
            child = self._build_op(op.child, bound, context, labels)
            child = self._maybe_exchange(site, op.child, child, bound, context)
            phys = SelectIterator(context, site, child, op.selectivity)
        elif isinstance(op, UdfFilterOp):
            child = self._build_op(op.child, bound, context, labels)
            child = self._maybe_exchange(site, op.child, child, bound, context)
            from repro.engine.filters import UdfFilterIterator

            phys = UdfFilterIterator(context, site, child, op.udf)
        elif isinstance(op, SemiJoinOp):
            child = self._build_op(op.child, bound, context, labels)
            child = self._maybe_exchange(site, op.child, child, bound, context)
            reduction = op.reduction
            from repro.engine.semijoins import SemiJoinIterator

            phys = SemiJoinIterator(
                context,
                site,
                child,
                reduction,
                digest_site_id=self.catalog.server_of(reduction.digest_of),
                digest_tuples=self.catalog.relation(reduction.digest_of).tuples,
            )
        elif isinstance(op, AggregateOp):
            child = self._build_op(op.child, bound, context, labels)
            child = self._maybe_exchange(site, op.child, child, bound, context)
            from repro.engine.aggregates import HashAggregateIterator

            est = self.estimator
            phys = HashAggregateIterator(
                context,
                site,
                child,
                est_groups=est.cardinality(op),
                output_tuple_bytes=est.tuple_bytes(op),
            )
        elif isinstance(op, JoinOp):
            inner = self._build_op(op.inner, bound, context, labels)
            inner = self._maybe_exchange(site, op.inner, inner, bound, context)
            outer = self._build_op(op.outer, bound, context, labels)
            outer = self._maybe_exchange(site, op.outer, outer, bound, context)
            est = self.estimator
            phys = HashJoinIterator(
                context,
                site,
                inner,
                outer,
                est_inner_pages=est.pages(op.inner),
                est_outer_pages=est.pages(op.outer),
                est_outer_tuples=est.cardinality(op.outer),
                est_output_tuples=est.cardinality(op),
                output_tuple_bytes=est.tuple_bytes(op),
            )
        else:
            raise ExecutionError(f"cannot build physical operator for {op.kind}")
        phys.label = labels[id(op)]
        return phys

    def _maybe_exchange(
        self,
        consumer_site: Site,
        child_op: PlanOp,
        child_phys: PhysicalOp,
        bound: BoundPlan,
        context: ExecutionContext,
    ) -> PhysicalOp:
        producer_site = self.topology.site(bound.site_of(child_op))
        if producer_site is consumer_site:
            return child_phys
        receiver = ExchangeReceiver(context, consumer_site, producer_site, child_phys)
        receiver.label = f"xfer:{child_phys.label}"
        return receiver

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, plan: "DisplayOp | BoundPlan") -> ExecutionResult:
        """Bind (if needed), build, and run a plan; return its metrics.

        The plan runs as a one-client :class:`Session`.  Without faults that
        is a single inline attempt.  With a fault schedule (or an explicit
        recovery policy) it goes through the session's recovery loop:
        transient faults abort the attempt, bounded retries follow, and the
        final failure -- if recovery is exhausted -- propagates as the fault
        that caused it.
        """
        self._begin_execute()
        if not isinstance(plan, BoundPlan):
            validate_plan(plan, self.query)
        session = Session(
            self, plan, session_id="query", jitter_stream=f"{self.seed}:recovery"
        )
        self.env.run(until=self.env.process(session.run(), name="query-driver"))
        self.recovery_stats = session.stats
        error = session.error
        if error is not None:
            # The traceback will hold this frame, so nothing here may keep
            # pointing at the error: that cycle would keep the run resident.
            session.error = None
            try:
                raise error
            finally:
                del error
        return self._collect(session.root)

    def close(self) -> None:
        """Free the simulated system this executor built (see
        :meth:`Environment.close`).

        Call it once the last result is collected; results and the
        topology's counters stay readable.
        """
        self.env.close()

    def new_context(self, supervised: bool = False) -> ExecutionContext:
        """A fresh context for one run (or recovery attempt) of this query."""
        return ExecutionContext(
            self.env, self.topology, self.catalog, self.query, self.estimator,
            supervised=supervised,
        )

    def _drive(self, root: PhysicalOp) -> typing.Generator:
        # The untraced loop is spelled out (not delegated to a helper
        # generator) because an extra `yield from` frame here would sit on
        # every resume of the query driver.
        tracer = self.env.tracer
        if tracer is None:
            yield from root.open()
            while True:
                page = yield from root.next()
                if page is None:
                    break
            yield from root.close()
            return
        span = tracer.begin("query", cat="query")
        try:
            yield from root.open()
            while True:
                page = yield from root.next()
                if page is None:
                    break
            yield from root.close()
        finally:
            tracer.end(span)

    # ------------------------------------------------------------------
    # Planning against the live system
    # ------------------------------------------------------------------
    def optimize_for(
        self,
        client_site: int,
        policy: Policy | None = None,
        forced_client_relations: frozenset[str] = frozenset(),
    ) -> DisplayOp:
        """Optimize the query for one client as the system stands *now*.

        The plan is priced against the client's live cache contents (a
        per-client override, pages faulted in or invalidated since the
        install) and, under dynamic memory governance, the brokers' current
        occupancy (steering joins away from saturated sites).  Those two
        snapshots are the only planning inputs that change inside one
        executor, so every call whose snapshots have the same digests plans
        against one environment object and so can reuse its cached plans.
        ``policy`` defaults to the executor's.
        """
        from repro.optimizer.two_phase import RandomizedOptimizer

        cache = self.topology.site(client_site).buffer_cache
        cache_state = None if cache is None else cache.snapshot()
        pressure = (
            MemoryPressureState.capture(self.topology.sites)
            if self.config.memory.is_dynamic
            else None
        )
        key = (
            None if cache_state is None else cache_state.digest(),
            None if pressure is None else pressure.digest(),
        )
        environment = self._environments.get(key)
        if environment is None:
            environment = EnvironmentState(
                self.catalog,
                self.config,
                self.server_loads,
                cache_state=cache_state,
                memory_pressure=pressure,
            )
            self._environments[key] = environment
        return RandomizedOptimizer(
            self.query,
            environment,
            policy=policy or self.policy,
            objective=self.objective,
            config=self.optimizer_config or OptimizerConfig.fast(),
            seed=self.seed,
            forced_client_relations=forced_client_relations,
            plan_cache=self.plan_cache,
        ).optimize().plan

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _begin_execute(self) -> None:
        """Baseline the cumulative counters for the run about to start.

        The topology's clock, network counters, disk counters, and metrics
        registry are all cumulative over the life of the system, so calling
        :meth:`execute` twice on one executor would otherwise report the
        first run's work again inside the second result.  (Recovery
        statistics need no baseline: each execute's session brings fresh
        ones.)
        """
        network = self.topology.network
        reads = writes = 0
        for site in self.topology.sites:
            for disk in site.disks:
                reads += disk.reads
                writes += disk.writes
        self._baseline = {
            "now": self.env.now,
            "pages_sent": network.data_pages_sent,
            "control_messages": network.control_messages_sent,
            "bytes_sent": network.bytes_sent,
            "messages_dropped": network.messages_dropped,
            "disk_reads": reads,
            "disk_writes": writes,
        }
        self._baseline_profile = self.topology.metrics.snapshot()

    def _collect(self, root: DisplayIterator) -> ExecutionResult:
        network = self.topology.network
        stats = self.recovery_stats
        base = self._baseline
        client = self.topology.site(CLIENT_SITE_ID)
        disk_util: dict[str, float] = {}
        cpu_util: dict[str, float] = {}
        reads = writes = 0
        for site in self.topology.sites:
            cpu_util[site.name] = site.cpu.utilization()
            for disk in site.disks:
                disk_util[disk.name] = disk.utilization()
                reads += disk.reads
                writes += disk.writes
        profile = self.topology.metrics.snapshot_delta(self._baseline_profile)
        profile["recovery.retries"] = stats.retries.value
        profile["recovery.replans"] = stats.replans.value
        profile["recovery.wasted_work_pages"] = stats.wasted_work_pages.value
        response_time = self.env.now - base["now"]
        pages_sent = network.data_pages_sent - base["pages_sent"]
        tracer = self.env.tracer
        if tracer is not None:
            tracer.finish()
            tracer.metadata.update(
                response_time=response_time,
                pages_sent=pages_sent,
                result_tuples=root.result_tuples,
            )
        return ExecutionResult(
            response_time=response_time,
            pages_sent=pages_sent,
            control_messages=network.control_messages_sent - base["control_messages"],
            bytes_sent=network.bytes_sent - base["bytes_sent"],
            result_tuples=root.result_tuples,
            result_pages=root.result_pages,
            disk_utilizations=disk_util,
            cpu_utilizations=cpu_util,
            network_utilization=network.utilization(),
            disk_reads=reads - base["disk_reads"],
            disk_writes=writes - base["disk_writes"],
            retries=stats.retries.value,
            replans=stats.replans.value,
            wasted_work_pages=stats.wasted_work_pages.value,
            time_to_recover=stats.time_to_recover,
            faults_seen=stats.faults_seen.value,
            messages_dropped=network.messages_dropped - base["messages_dropped"],
            profile=profile,
            cache_state=(
                None
                if client.buffer_cache is None
                else client.buffer_cache.snapshot()
            ),
            telemetry=None if self.sampler is None else self.sampler.snapshot(),
        )


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one session (a query or a write) in a multi-client workload.

    ``status`` is ``"completed"``, ``"shed"`` (rejected by a server's
    admission controller), or ``"failed"`` (a fault exhausted recovery).
    ``queue_delay`` is the total simulated time the session spent waiting
    in admission queues, already included in ``response_time``; a shed
    session counts the waits that preceded its rejection.
    """

    session_id: str
    client_site: int
    submitted: float
    completed: float
    response_time: float
    queue_delay: float
    status: str
    retries: int
    replans: int
    result_tuples: int
    error: str | None = None
    servers_used: tuple[int, ...] = ()
    #: Data pages on the wire while this session ran.  Exact for closed
    #: single-client streams; under concurrency, pages of overlapping
    #: sessions are counted at every session they overlap.
    pages_sent: int = 0
    #: Pages resident in this session's client cache at completion.
    cache_resident_pages: int = 0
    #: Pages produced by attempts that a fault aborted (next to ``retries``
    #: and ``replans``, as in :class:`ExecutionResult`).
    wasted_work_pages: int = 0


class Session:
    """One query or write statement in flight on a simulated system.

    The session passes the servers its work touches through the admission
    controllers, builds the physical root, and drives it as a simulated
    process -- so concurrent sessions contend for the server CPUs, disks,
    and the network exactly like a lone query, which is itself a
    one-client session (see :meth:`QueryExecutor.execute`).

    ``work`` is a plan (annotated or bound) for a query, or a
    :class:`WriteSpec` for a write.  ``admission`` maps server site ids to
    admission controllers (see :class:`repro.workload.AdmissionController`);
    ``client_site`` pins the session's client-side operators to one of the
    topology's client sites (0, -1, -2, ...); ``recovery`` defaults to the
    executor's policy.  The caller spawns :meth:`run` as a simulated
    process.  Queries and writes differ only in three hooks:

    * the servers that take admission tickets -- every server of the bound
      plan, or every holder of a copy of the written relation (writes
      occupy the primary *and* the replicas they propagate to);
    * how the root is built -- :meth:`QueryExecutor.build_physical`, or
      :func:`make_write_iterator`, which resolves the acting primary anew
      on every attempt, so a write fails over onto a surviving replica;
    * whether a fault may trigger a replan -- annotated plans only.

    Every attempt is counted in :attr:`stats`.  Failures stay contained in
    the :class:`SessionResult` instead of tearing down the whole workload.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        work: "DisplayOp | BoundPlan | WriteSpec",
        client_site: int = CLIENT_SITE_ID,
        admission: "typing.Mapping[int, typing.Any] | None" = None,
        session_id: str = "q0",
        recovery: RecoveryPolicy | None = None,
        jitter_stream: str | None = None,
    ) -> None:
        self.executor = executor
        self.work = work
        self.client_site = client_site
        self.admission = dict(admission or {})
        self.session_id = session_id
        self.recovery = recovery if recovery is not None else executor.recovery
        #: Seed of the backoff-jitter RNG; per session unless given.
        self.jitter_stream = jitter_stream or f"{executor.seed}:{session_id}:recovery"
        self.stats = RecoveryStats()
        self.submitted = 0.0
        self.queue_delay = 0.0
        #: Root of the attempt that completed (None until one does).
        self.root: PhysicalOp | None = None
        #: Why the session was shed or failed (None once it completed),
        #: without its traceback.
        self.error: QueryShedError | TransientFaultError | None = None
        self._pages_before = 0

    def run(self) -> typing.Generator:
        """Simulation process: run the work to a :class:`SessionResult`.

        Never raises into the environment -- shedding and exhausted
        recovery become terminal statuses (the exception is kept on
        :attr:`error`) so one session's fate cannot crash its neighbours'
        processes.
        """
        executor = self.executor
        self.submitted = executor.env.now
        self._pages_before = executor.topology.network.data_pages_sent
        try:
            tuples, target = yield from self._attempts()
        except (QueryShedError, TransientFaultError) as exc:
            # Kept without its traceback: the traceback's frames hold this
            # session, and the cycle would keep the whole run resident.
            self.error = exc.with_traceback(None)
            return self._result("shed" if isinstance(exc, QueryShedError) else "failed")
        return self._result("completed", tuples, self._servers(target))

    # ------------------------------------------------------------------
    # Hooks: where queries and writes differ
    # ------------------------------------------------------------------
    def _target(self, work: "DisplayOp | BoundPlan | WriteSpec") -> "BoundPlan | WriteSpec":
        """What one attempt runs: the plan bound to this client, or the write."""
        if isinstance(work, DisplayOp):
            return bind_plan(work, self.executor.catalog, client_site=self.client_site)
        return work

    def _servers(self, target: "BoundPlan | WriteSpec") -> tuple[int, ...]:
        """The servers an attempt occupies, in id order."""
        if isinstance(target, BoundPlan):
            return tuple(sorted(sid for sid in target.sites_used() if sid >= 1))
        return tuple(sorted(self.executor.catalog.servers_of(target.relation)))

    def _build(
        self, target: "BoundPlan | WriteSpec", context: ExecutionContext
    ) -> PhysicalOp:
        executor = self.executor
        if isinstance(target, BoundPlan):
            return executor.build_physical(target, context)
        from repro.engine.writes import make_write_iterator

        site = executor.topology.site(self.client_site)
        root = make_write_iterator(context, site, target)
        root.label = f"{target.kind}[{target.relation}]@{site.name}"
        return root

    # ------------------------------------------------------------------
    # Attempt plumbing
    # ------------------------------------------------------------------
    def _acquire(self, target: "BoundPlan | WriteSpec") -> typing.Generator:
        """Take one admission ticket per controlled server, in id order.

        Acquiring in sorted server-id order makes multi-server sessions
        deadlock-free (no two sessions ever hold tickets in opposite
        orders).  A shed releases every ticket already held and re-raises;
        the time queued before it still counts toward :attr:`queue_delay`.
        """
        env = self.executor.env
        waited_from = env.now
        tickets: list[typing.Any] = []
        try:
            for sid in self._servers(target):
                if sid in self.admission:
                    ticket = yield from self.admission[sid].admit(self.session_id)
                    tickets.append(ticket)
        except QueryShedError:
            self._release(tickets)
            raise
        finally:
            self.queue_delay += env.now - waited_from
        return tickets

    @staticmethod
    def _release(tickets: list) -> None:
        for ticket in tickets:
            ticket.release()

    def _attempts(self) -> typing.Generator:
        """Run the work to completion; returns ``(result tuples, target)``.

        Without a fault injector or a recovery policy there is exactly one
        *unsupervised* attempt, driven inline in this process (see
        :meth:`_run_inline`).  Otherwise the attempts run through the
        recovery loop, :func:`repro.engine.supervision.supervised_attempts`,
        which is loaded only then.
        """
        if self.recovery is None and not self.executor.fault_tolerant:
            target = self._target(self.work)
            return (yield from self._run_inline(target)), target
        from repro.engine.supervision import supervised_attempts

        return (yield from supervised_attempts(self))

    def _run_inline(self, target: "BoundPlan | WriteSpec") -> typing.Generator:
        """The fault-free attempt, in this process; returns the result tuples.

        A shed anywhere in the plan surfaces here: exchange pumps forward
        their subtree's failure down the stream to this consumer.
        """
        executor = self.executor
        tickets = yield from self._acquire(target)
        context = executor.new_context()
        root = self._build(target, context)
        try:
            yield from executor._drive(root)
        except (QueryShedError, TransientFaultError):
            context.abort()
            raise
        finally:
            self._release(tickets)
            context.finish()
        self.root = root
        return root.tuples_produced

    def _result(
        self, status: str, result_tuples: int = 0, servers: tuple[int, ...] = ()
    ) -> SessionResult:
        executor = self.executor
        env = executor.env
        client = executor.topology.site(self.client_site)
        cache = client.buffer_cache
        resident = 0 if cache is None else cache.resident_count
        stats = self.stats
        return SessionResult(
            session_id=self.session_id,
            client_site=self.client_site,
            submitted=self.submitted,
            completed=env.now,
            response_time=env.now - self.submitted,
            queue_delay=self.queue_delay,
            status=status,
            retries=stats.retries.value,
            replans=stats.replans.value,
            result_tuples=result_tuples,
            error=None if self.error is None else str(self.error),
            servers_used=servers,
            pages_sent=executor.topology.network.data_pages_sent - self._pages_before,
            cache_resident_pages=resident,
            wasted_work_pages=stats.wasted_work_pages.value,
        )
