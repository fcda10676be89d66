"""Query executor: builds physical operator trees and drives them.

One :class:`QueryExecutor` owns one simulated system: by default it creates
the environment and topology, installs the catalog, starts any external
load generators, converts a bound plan into physical iterators (inserting
exchange pairs on cross-site edges), and runs the root display to
completion.  The result carries the study's two metrics -- response time
and pages sent -- plus detailed resource statistics.

For multi-client workloads the executor can instead be built *around* an
existing environment and topology, and :class:`QuerySession` runs one
query as a simulated process on that shared system: many sessions execute
concurrently, contending on the server CPUs, disks, and the network, with
optional server-side admission control (see :mod:`repro.workload`).

With a :class:`~repro.faults.FaultSchedule` attached, the executor becomes
fault tolerant: a :class:`~repro.faults.FaultInjector` crashes servers,
partitions the network, and slows disks mid-run, and a client-side
*recovery loop* reacts to the resulting
:class:`~repro.errors.TransientFaultError`\\ s with bounded retries
(exponential backoff + jitter, all in sim time), re-optimizing around
crashed sites -- falling back to the client's cached copies exactly where
the paper predicts data- and hybrid-shipping shine.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.config import OptimizerConfig, SystemConfig
from repro.costmodel.estimates import Estimator
from repro.costmodel.model import EnvironmentState, Objective
from repro.engine.aggregates import HashAggregateIterator
from repro.engine.base import PhysicalOp
from repro.engine.exchange import ExchangeReceiver
from repro.engine.filters import UdfFilterIterator
from repro.engine.joins import HashJoinIterator
from repro.engine.loadgen import DiskLoadGenerator
from repro.engine.scans import ScanIterator
from repro.engine.selects import SelectIterator
from repro.engine.semijoins import SemiJoinIterator
from repro.engine.sinks import DisplayIterator
from repro.engine.writes import WriteSpec, make_write_iterator
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    OptimizationError,
    PolicyViolationError,
    QueryShedError,
    QueryTimeoutError,
    TransientFaultError,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryPolicy, RecoveryStats
from repro.faults.schedule import FaultSchedule
from repro.hardware.site import CLIENT_SITE_ID, Site
from repro.hardware.topology import Topology
from repro.plans.annotations import Annotation
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
from repro.plans.policies import Policy, allowed_annotations, check_policy
from repro.plans.validate import validate_plan
from repro.sim import AnyOf, Environment, Event, Process
from repro.storage.memory import MemoryPressureState

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.caching.buffer import CacheState
    from repro.obs.telemetry import Telemetry, TelemetryConfig
    from repro.obs.trace import Tracer
    from repro.optimizer.cache import PlanCache

__all__ = [
    "ExecutionContext",
    "ExecutionResult",
    "QueryExecutor",
    "QuerySession",
    "SessionResult",
    "WriteSession",
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
        recorder = self.env.recorder
        if recorder is not None:
            # Register the child with the session memoizer: its primitive
            # ops land on a new stream of the active recording, and the
            # parent stream gets a spawn op at this exact point.
            recorder.record_spawn(process, name)
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
        as soon as its session lets go of the root.
        """
        self.operators = []

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
    # Dynamic-cache snapshot of the driving client at completion; None
    # under the static prefix model.
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
    """Runs bound plans on a simulated system.

    By default the executor builds a fresh system (environment, topology,
    installed catalog) and :meth:`execute` runs one plan to completion on
    it.  Passing ``topology`` (and optionally ``env``) instead attaches the
    executor to an existing, already-installed system -- the multi-client
    workload mode, where :meth:`session` creates concurrently running
    :class:`QuerySession`\\ s and the caller drives the environment.
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
        env: Environment | None = None,
        topology: Topology | None = None,
        tracer: "Tracer | None" = None,
        plan_cache: "PlanCache | None" = None,
        telemetry: "TelemetryConfig | None" = None,
    ) -> None:
        self.config = config
        self.catalog = catalog
        self.query = query
        self.seed = seed
        self.server_loads = dict(server_loads or {})
        if topology is not None:
            if env is not None and env is not topology.env:
                raise ConfigurationError(
                    "explicit env does not match the provided topology's env"
                )
            # Shared system: the caller created the topology and installed
            # the catalog on it (possibly with per-client cache contents).
            self.env = topology.env
            self.topology = topology
        else:
            self.env = env if env is not None else Environment()
            self.topology = Topology(self.env, config, seed=seed)
            catalog.install(self.topology)
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.env)
        self.estimator = Estimator(query, catalog, config)
        self.context = ExecutionContext(
            self.env, self.topology, catalog, query, self.estimator
        )
        self.load_generators: list[DiskLoadGenerator] = []
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
        self.recovery_stats = RecoveryStats()
        self.injector: FaultInjector | None = None
        if faults is not None and not faults.is_empty:
            self.injector = FaultInjector(self.env, self.topology, faults, seed=seed)
        # Telemetry: a simulated-time gauge sampler, created only on
        # request -- the default (None) adds no process and no events, so
        # unsampled runs stay byte-identical to the seed behaviour.
        self.sampler = None
        if telemetry is not None:
            from repro.obs.telemetry import TelemetrySampler

            self.sampler = TelemetrySampler(self.env, self.topology.metrics, telemetry)
        # Session memoizer (workload runs only; see repro.workload.memo).
        # The runner sets this after checking the eligibility gates; None
        # keeps every session on the plain simulate-it path.
        self.session_memo: typing.Any = None
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
        context = context or self.context
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
            phys = UdfFilterIterator(context, site, child, op.udf)
        elif isinstance(op, SemiJoinOp):
            child = self._build_op(op.child, bound, context, labels)
            child = self._maybe_exchange(site, op.child, child, bound, context)
            reduction = op.reduction
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

        Without faults this is the classic single-attempt path.  With a
        fault schedule (or an explicit recovery policy) the run goes
        through the recovery loop: transient faults abort the attempt,
        bounded retries follow, and the final failure -- if recovery is
        exhausted -- propagates as the fault that caused it.
        """
        self._begin_execute()
        if self.fault_tolerant:
            return self._execute_with_recovery(plan)
        if isinstance(plan, BoundPlan):
            bound = plan
        else:
            validate_plan(plan, self.query)
            bound = bind_plan(plan, self.catalog)
        root = self.build_physical(bound)
        driver = self.env.process(self._drive(root), name="query-driver")
        self.env.run(until=driver)
        return self._collect(root)

    def _drive(self, root: DisplayIterator) -> typing.Generator:
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
    # Fault-tolerant execution
    # ------------------------------------------------------------------
    def _execute_with_recovery(self, plan: "DisplayOp | BoundPlan") -> ExecutionResult:
        recovery = self.recovery or RecoveryPolicy()
        if isinstance(plan, BoundPlan):
            annotated: DisplayOp | None = None
            bound: BoundPlan | None = plan
        else:
            validate_plan(plan, self.query)
            annotated = plan
            bound = None
        driver = self.env.process(
            self._recovery_loop(annotated, bound, recovery), name="recovery-driver"
        )
        return self.env.run(until=driver)

    def _recovery_loop(
        self,
        annotated: DisplayOp | None,
        prebound: BoundPlan | None,
        recovery: RecoveryPolicy,
    ) -> typing.Generator:
        env = self.env
        stats = self.recovery_stats
        rng = random.Random(f"{self.seed}:recovery")
        # Measured from the start of *this* execution, so a re-executed
        # topology (env.now > 0) gets the full timeout budget.
        deadline = None if recovery.query_timeout is None else env.now + recovery.query_timeout
        attempt = 0
        while True:
            attempt += 1
            context = ExecutionContext(
                env, self.topology, self.catalog, self.query, self.estimator,
                supervised=True,
            )
            bound = prebound if annotated is None else bind_plan(annotated, self.catalog)
            assert bound is not None
            root = self.build_physical(bound, context)
            consumer = context.spawn(self._drive(root), name=f"query-driver#{attempt}")
            assert context.fault_event is not None
            watchers: list[Event] = [consumer, context.fault_event]
            if deadline is not None:
                watchers.append(env.timeout(max(0.0, deadline - env.now)))
            failure: TransientFaultError | None = None
            try:
                yield AnyOf(env, watchers)
            except QueryShedError:
                # Shedding is a load-control verdict, not a fault: release
                # this attempt's resources and let the caller see it.
                context.abort()
                raise
            except TransientFaultError as exc:
                failure = exc
            if failure is None:
                if consumer.triggered and consumer.ok:
                    time_to_recover = stats.record_success(env.now)
                    return self._collect(root, context, time_to_recover)
                failure = QueryTimeoutError(
                    f"query timed out after {recovery.query_timeout}s (attempt {attempt})"
                )
            stats.record_fault(env.now)
            stats.wasted_work_pages.add(context.pages_produced())
            context.abort()
            if env.tracer is not None:
                env.tracer.instant(
                    "attempt-failed",
                    cat="fault",
                    args={"attempt": attempt, "error": str(failure)},
                )
            if deadline is not None and env.now >= deadline:
                if not isinstance(failure, QueryTimeoutError):
                    failure = QueryTimeoutError(
                        f"query timed out after {recovery.query_timeout}s while "
                        f"recovering from: {failure}"
                    )
                raise failure
            if attempt >= recovery.max_attempts:
                raise failure
            stats.retries.add()
            if env.tracer is not None:
                env.tracer.instant("retry", cat="fault", args={"attempt": attempt + 1})
            yield env.timeout(recovery.backoff(attempt, rng))
            if recovery.replan and annotated is not None:
                replanned = self._replan(annotated)
                if replanned is not None:
                    annotated = replanned
                    stats.replans.add()

    def _client_cache_view(self, client_site: int) -> "tuple[typing.Any, str]":
        """The (cache state, contents digest) of one client's live cache.

        Static caches contribute a digest only (the cost model already
        reads their fractions from the catalog -- unless a per-client
        override made the disk differ from the catalog, which is exactly
        what the digest keys); dynamic caches contribute their snapshot
        too, so replans price client scans against what is resident *now*.
        """
        site = self.topology.site(client_site)
        if site.buffer_cache is not None:
            state = site.buffer_cache.snapshot()
            return state, state.digest()
        if site.cache is not None:
            return None, site.cache.digest()
        return None, ""

    def _replan(
        self, annotated: DisplayOp, client_site: int = CLIENT_SITE_ID
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
        from repro.optimizer.random_plans import rehome_scans
        from repro.optimizer.two_phase import RandomizedOptimizer

        down = {site.site_id for site in self.topology.servers if not site.up}
        if not down:
            return None
        rehomed: dict[str, int | None] = {}
        stranded: set[str] = set()
        for op in annotated.walk():
            if not isinstance(op, ScanOp) or op.relation in rehomed or op.relation in stranded:
                continue
            primary = self.catalog.server_of(op.relation)
            home = op.home if op.home is not None else primary
            if home not in down:
                continue
            survivors = [s for s in self.catalog.servers_of(op.relation) if s not in down]
            if survivors:
                rehomed[op.relation] = None if survivors[0] == primary else survivors[0]
            else:
                stranded.add(op.relation)
        if not rehomed and not stranded:
            return None
        if not stranded:
            # Pure replica failover: keep the plan, repoint the scans.
            return rehome_scans(annotated, rehomed)
        excluded = frozenset(stranded)
        policy = self.policy or self._infer_policy(annotated)
        if Annotation.CLIENT not in allowed_annotations(policy, "scan"):
            return None
        cache_state, cache_digest = self._client_cache_view(client_site)
        environment = EnvironmentState(
            self.catalog,
            self.config,
            dict(self.server_loads),
            cache_state=cache_state,
            # Under dynamic governance a replan prices plans against the
            # brokers' *current* occupancy, steering joins away from
            # saturated sites; the pressure digest keys the plan cache.
            memory_pressure=(
                MemoryPressureState.capture(self.topology.sites)
                if self.config.memory.is_dynamic
                else None
            ),
        )
        try:
            result = RandomizedOptimizer(
                self.query,
                environment,
                policy=policy,
                objective=self.objective,
                config=self.optimizer_config or OptimizerConfig.fast(),
                seed=self.seed,
                forced_client_relations=excluded,
                plan_cache=self.plan_cache,
                cache_digest=cache_digest,
            ).optimize()
        except OptimizationError:
            return None
        # Freshly optimized scans default to the primary copy; repoint the
        # relations whose serving copy is down onto their survivors.
        return rehome_scans(result.plan, rehomed)

    @staticmethod
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

    # ------------------------------------------------------------------
    # Sessions (multi-client workload mode)
    # ------------------------------------------------------------------
    def session(
        self,
        plan: "DisplayOp | BoundPlan",
        client_site: int = CLIENT_SITE_ID,
        admission: "typing.Mapping[int, typing.Any] | None" = None,
        session_id: str = "q0",
        recovery: RecoveryPolicy | None = None,
    ) -> "QuerySession":
        """Create one in-flight query on this executor's (shared) system.

        ``admission`` maps server site ids to admission controllers (see
        :class:`repro.workload.AdmissionController`); ``client_site`` pins
        the plan's client-side operators to one of the topology's client
        sites (0, -1, -2, ...).  The returned session's :meth:`~QuerySession.run`
        generator is spawned as a simulated process by the caller.
        """
        return QuerySession(
            self,
            plan,
            client_site=client_site,
            admission=admission,
            session_id=session_id,
            recovery=recovery if recovery is not None else self.recovery,
        )

    def write_session(
        self,
        spec: WriteSpec,
        client_site: int = CLIENT_SITE_ID,
        admission: "typing.Mapping[int, typing.Any] | None" = None,
        session_id: str = "w0",
        recovery: RecoveryPolicy | None = None,
    ) -> "WriteSession":
        """Create one in-flight write statement on this executor's system.

        Writes flow through the same admission controllers and per-session
        recovery loop as queries; the acting primary is re-resolved on every
        attempt, so a write failed by a crashing server retries against a
        surviving replica.
        """
        return WriteSession(
            self,
            spec,
            client_site=client_site,
            admission=admission,
            session_id=session_id,
            recovery=recovery if recovery is not None else self.recovery,
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _begin_execute(self) -> None:
        """Baseline the cumulative counters for the run about to start.

        The topology's clock, network counters, disk counters, and metrics
        registry are all cumulative over the life of the system, so calling
        :meth:`execute` twice on one executor would otherwise report the
        first run's work again inside the second result.  Each execute also
        gets fresh recovery statistics.
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
        self.recovery_stats = RecoveryStats()

    def _collect(
        self,
        root: DisplayIterator,
        context: ExecutionContext | None = None,
        time_to_recover: float = 0.0,
    ) -> ExecutionResult:
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
            time_to_recover=time_to_recover,
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
    """Outcome of one query session in a multi-client workload.

    ``status`` is ``"completed"``, ``"shed"`` (rejected by a server's
    admission controller), or ``"failed"`` (a fault exhausted recovery).
    ``queue_delay`` is the total simulated time the session spent waiting
    in admission queues, already included in ``response_time``.
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
    #: Pages resident in this session's client cache at completion
    #: (dynamic buffer cache or static prefix total).
    cache_resident_pages: int = 0


class QuerySession:
    """One query in flight on a shared simulated system.

    The session binds its (shared, annotated) plan to its own client site,
    passes the resulting server set through the admission controllers, and
    drives the physical plan as a simulated process -- so concurrent
    sessions contend for the server CPUs, disks, and the network exactly
    like the single-query path does for one query.  With a recovery policy
    (or an active fault injector) each session runs its own bounded
    retry/replan loop; failures stay contained in the session's
    :class:`SessionResult` instead of tearing down the whole workload.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        plan: "DisplayOp | BoundPlan",
        client_site: int = CLIENT_SITE_ID,
        admission: "typing.Mapping[int, typing.Any] | None" = None,
        session_id: str = "q0",
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.executor = executor
        self.plan = plan
        self.client_site = client_site
        self.admission = dict(admission or {})
        self.session_id = session_id
        self.recovery = recovery
        self.submitted = 0.0
        self.queue_delay = 0.0
        self.retries = 0
        self.replans = 0
        self._pages_before = 0

    def run(self) -> typing.Generator:
        """Simulation process: run the query to a :class:`SessionResult`.

        Never raises into the environment -- shedding and exhausted
        recovery become terminal statuses so one query's fate cannot crash
        its neighbours' processes.
        """
        env = self.executor.env
        self.submitted = env.now
        self._pages_before = self.executor.topology.network.data_pages_sent
        try:
            if self.recovery is not None or self.executor.fault_tolerant:
                tuples, servers = yield from self._run_with_recovery()
            else:
                tuples, servers = yield from self._run_once()
        except QueryShedError as exc:
            return self._result("shed", 0, (), error=exc)
        except TransientFaultError as exc:
            return self._result("failed", 0, (), error=exc)
        return self._result("completed", tuples, servers)

    # ------------------------------------------------------------------
    # Attempt plumbing
    # ------------------------------------------------------------------
    def _bind(self, plan: "DisplayOp | BoundPlan") -> BoundPlan:
        if isinstance(plan, BoundPlan):
            return plan
        return bind_plan(plan, self.executor.catalog, client_site=self.client_site)

    @staticmethod
    def _servers_of(bound: BoundPlan) -> tuple[int, ...]:
        return tuple(sorted(sid for sid in bound.sites_used() if sid >= 1))

    def _acquire(self, bound: BoundPlan) -> typing.Generator:
        """Take one admission ticket per controlled server, in id order.

        Acquiring in sorted server-id order makes multi-server queries
        deadlock-free (no two sessions ever hold tickets in opposite
        orders).  A shed releases every ticket already held and re-raises.
        """
        env = self.executor.env
        waited_from = env.now
        tickets: list[typing.Any] = []
        for sid in sorted(sid for sid in bound.sites_used() if sid in self.admission):
            try:
                ticket = yield from self.admission[sid].admit(self.session_id)
            except QueryShedError:
                for held in tickets:
                    held.release()
                raise
            tickets.append(ticket)
        self.queue_delay += env.now - waited_from
        return tickets

    @staticmethod
    def _release(tickets: list) -> None:
        for ticket in tickets:
            ticket.release()

    def _run_once(self) -> typing.Generator:
        """Single-attempt path (no faults, no recovery policy).

        With a session memoizer attached (workload runs), a submission
        whose memo key -- plan identity, exact client cache state,
        consistency epoch -- matches an already-completed session *replays*
        that session's recorded primitive ops against the live hardware
        instead of re-interpreting the operator tree.  Admission, binding,
        and every resource interaction stay real, so timing under
        contention is identical; only the per-event Python work shrinks.
        """
        executor = self.executor
        bound = self._bind(self.plan)
        tickets = yield from self._acquire(bound)
        memo = executor.session_memo
        entry = None if memo is None else memo.begin(self.plan, self.client_site)
        if entry is not None and entry.tape is not None:
            try:
                tuples = yield from memo.replay(entry.tape, self.client_site)
            finally:
                self._release(tickets)
            return tuples, self._servers_of(bound)
        context = ExecutionContext(
            executor.env, executor.topology, executor.catalog,
            executor.query, executor.estimator,
        )
        recording = None if entry is None else memo.start_recording(entry)
        root = executor.build_physical(bound, context)
        try:
            yield from executor._drive(root)
        except (QueryShedError, TransientFaultError):
            if recording is not None:
                memo.discard(recording)
            context.abort()
            raise
        except BaseException:
            if recording is not None:
                memo.discard(recording)
            raise
        finally:
            self._release(tickets)
            context.finish()
        if recording is not None:
            memo.commit(recording, root.result_tuples)
        return root.result_tuples, self._servers_of(bound)

    def _run_with_recovery(self) -> typing.Generator:
        """Per-session recovery loop (mirrors the single-query loop).

        The query timeout is measured from *submission*, so a session that
        spent long in admission queues has less budget left -- queueing
        delay is part of the response time the client experiences.
        """
        executor = self.executor
        env = executor.env
        recovery = self.recovery or RecoveryPolicy()
        rng = random.Random(f"{executor.seed}:{self.session_id}:recovery")
        if isinstance(self.plan, BoundPlan):
            annotated: DisplayOp | None = None
            prebound: BoundPlan | None = self.plan
        else:
            annotated = self.plan
            prebound = None
        deadline = (
            None
            if recovery.query_timeout is None
            else self.submitted + recovery.query_timeout
        )
        attempt = 0
        while True:
            attempt += 1
            bound = prebound if annotated is None else self._bind(annotated)
            assert bound is not None
            tickets = yield from self._acquire(bound)
            context = ExecutionContext(
                env, executor.topology, executor.catalog,
                executor.query, executor.estimator, supervised=True,
            )
            root = executor.build_physical(bound, context)
            consumer = context.spawn(
                executor._drive(root), name=f"session-{self.session_id}#{attempt}"
            )
            assert context.fault_event is not None
            watchers: list[Event] = [consumer, context.fault_event]
            if deadline is not None:
                watchers.append(env.timeout(max(0.0, deadline - env.now)))
            failure: TransientFaultError | None = None
            try:
                yield AnyOf(env, watchers)
            except QueryShedError:
                # A mid-run shed (static buffer-pool exhaustion surfaced
                # through supervision) must give back tickets, grants, and
                # temp extents before the session records its fate --
                # admission tickets used to leak here.
                self._release(tickets)
                context.abort()
                raise
            except TransientFaultError as exc:
                failure = exc
            self._release(tickets)
            if failure is None:
                if consumer.triggered and consumer.ok:
                    context.finish()
                    return root.result_tuples, self._servers_of(bound)
                failure = QueryTimeoutError(
                    f"session {self.session_id} timed out after "
                    f"{recovery.query_timeout}s (attempt {attempt})"
                )
            context.abort()
            if deadline is not None and env.now >= deadline:
                if not isinstance(failure, QueryTimeoutError):
                    failure = QueryTimeoutError(
                        f"session {self.session_id} timed out after "
                        f"{recovery.query_timeout}s while recovering from: {failure}"
                    )
                raise failure
            if attempt >= recovery.max_attempts:
                raise failure
            self.retries += 1
            yield env.timeout(recovery.backoff(attempt, rng))
            if recovery.replan and annotated is not None:
                replanned = executor._replan(annotated, client_site=self.client_site)
                if replanned is not None:
                    annotated = replanned
                    self.replans += 1

    def _result(
        self,
        status: str,
        result_tuples: int,
        servers: tuple[int, ...],
        error: Exception | None = None,
    ) -> SessionResult:
        executor = self.executor
        env = executor.env
        client = executor.topology.site(self.client_site)
        if client.buffer_cache is not None:
            resident = client.buffer_cache.resident_count
        elif client.cache is not None:
            resident = client.cache.total_cached_pages
        else:
            resident = 0
        return SessionResult(
            session_id=self.session_id,
            client_site=self.client_site,
            submitted=self.submitted,
            completed=env.now,
            response_time=env.now - self.submitted,
            queue_delay=self.queue_delay,
            status=status,
            retries=self.retries,
            replans=self.replans,
            result_tuples=result_tuples,
            error=None if error is None else str(error),
            servers_used=tuple(servers),
            pages_sent=executor.topology.network.data_pages_sent - self._pages_before,
            cache_resident_pages=resident,
        )


class WriteSession:
    """One write statement in flight on a shared simulated system.

    Mirrors :class:`QuerySession` for the write path: admission tickets are
    taken for every server holding a copy of the target relation (writes
    occupy the primary *and* the replicas they propagate to), the physical
    write operator is driven as a simulated process, and -- under a
    recovery policy or an active fault injector -- a bounded retry loop
    re-resolves the acting primary each attempt, so a write survives its
    primary crashing by failing over to a reachable replica.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        spec: WriteSpec,
        client_site: int = CLIENT_SITE_ID,
        admission: "typing.Mapping[int, typing.Any] | None" = None,
        session_id: str = "w0",
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.executor = executor
        self.spec = spec
        self.client_site = client_site
        self.admission = dict(admission or {})
        self.session_id = session_id
        self.recovery = recovery
        self.submitted = 0.0
        self.queue_delay = 0.0
        self.retries = 0
        self._pages_before = 0

    def run(self) -> typing.Generator:
        """Simulation process: run the write to a :class:`SessionResult`."""
        env = self.executor.env
        self.submitted = env.now
        self._pages_before = self.executor.topology.network.data_pages_sent
        try:
            if self.recovery is not None or self.executor.fault_tolerant:
                tuples = yield from self._run_with_recovery()
            else:
                tuples = yield from self._run_once()
        except QueryShedError as exc:
            return self._result("shed", 0, error=exc)
        except TransientFaultError as exc:
            return self._result("failed", 0, error=exc)
        return self._result("completed", tuples)

    # ------------------------------------------------------------------
    # Attempt plumbing
    # ------------------------------------------------------------------
    def _holders(self) -> tuple[int, ...]:
        return tuple(sorted(self.executor.catalog.servers_of(self.spec.relation)))

    def _acquire(self) -> typing.Generator:
        """One admission ticket per controlled copy holder, in id order."""
        env = self.executor.env
        waited_from = env.now
        tickets: list[typing.Any] = []
        for sid in (s for s in self._holders() if s in self.admission):
            try:
                ticket = yield from self.admission[sid].admit(self.session_id)
            except QueryShedError:
                for held in tickets:
                    held.release()
                raise
            tickets.append(ticket)
        self.queue_delay += env.now - waited_from
        return tickets

    def _build(self, context: ExecutionContext):
        site = self.executor.topology.site(self.client_site)
        root = make_write_iterator(context, site, self.spec)
        root.label = f"{self.spec.kind}[{self.spec.relation}]@{site.name}"
        return root

    def _run_once(self) -> typing.Generator:
        executor = self.executor
        tickets = yield from self._acquire()
        context = ExecutionContext(
            executor.env, executor.topology, executor.catalog,
            executor.query, executor.estimator,
        )
        root = self._build(context)
        try:
            yield from executor._drive(root)
        except (QueryShedError, TransientFaultError):
            context.abort()
            raise
        finally:
            QuerySession._release(tickets)
            context.finish()
        return root.tuples_produced

    def _run_with_recovery(self) -> typing.Generator:
        executor = self.executor
        env = executor.env
        recovery = self.recovery or RecoveryPolicy()
        rng = random.Random(f"{executor.seed}:{self.session_id}:recovery")
        deadline = (
            None
            if recovery.query_timeout is None
            else self.submitted + recovery.query_timeout
        )
        attempt = 0
        while True:
            attempt += 1
            tickets = yield from self._acquire()
            context = ExecutionContext(
                env, executor.topology, executor.catalog,
                executor.query, executor.estimator, supervised=True,
            )
            # Built (and its acting primary resolved) fresh every attempt:
            # retrying after a crash lands on a surviving copy.
            root = self._build(context)
            consumer = context.spawn(
                executor._drive(root), name=f"write-{self.session_id}#{attempt}"
            )
            assert context.fault_event is not None
            watchers: list[Event] = [consumer, context.fault_event]
            if deadline is not None:
                watchers.append(env.timeout(max(0.0, deadline - env.now)))
            failure: TransientFaultError | None = None
            try:
                yield AnyOf(env, watchers)
            except QueryShedError:
                QuerySession._release(tickets)
                context.abort()
                raise
            except TransientFaultError as exc:
                failure = exc
            QuerySession._release(tickets)
            if failure is None:
                if consumer.triggered and consumer.ok:
                    context.finish()
                    return root.tuples_produced
                failure = QueryTimeoutError(
                    f"write {self.session_id} timed out after "
                    f"{recovery.query_timeout}s (attempt {attempt})"
                )
            context.abort()
            if deadline is not None and env.now >= deadline:
                if not isinstance(failure, QueryTimeoutError):
                    failure = QueryTimeoutError(
                        f"write {self.session_id} timed out after "
                        f"{recovery.query_timeout}s while recovering from: {failure}"
                    )
                raise failure
            if attempt >= recovery.max_attempts:
                raise failure
            self.retries += 1
            yield env.timeout(recovery.backoff(attempt, rng))

    def _result(
        self, status: str, result_tuples: int, error: Exception | None = None
    ) -> SessionResult:
        executor = self.executor
        env = executor.env
        client = executor.topology.site(self.client_site)
        if client.buffer_cache is not None:
            resident = client.buffer_cache.resident_count
        elif client.cache is not None:
            resident = client.cache.total_cached_pages
        else:
            resident = 0
        return SessionResult(
            session_id=self.session_id,
            client_site=self.client_site,
            submitted=self.submitted,
            completed=env.now,
            response_time=env.now - self.submitted,
            queue_delay=self.queue_delay,
            status=status,
            retries=self.retries,
            replans=0,
            result_tuples=result_tuples,
            error=None if error is None else str(error),
            servers_used=self._holders() if status == "completed" else (),
            pages_sent=executor.topology.network.data_pages_sent - self._pages_before,
            cache_resident_pages=resident,
        )
