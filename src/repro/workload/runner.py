"""The workload runner: one shared system, many concurrent query sessions.

This is the multi-client counterpart of ``Scenario.execute``: it builds
*one* :class:`~repro.engine.executor.QueryExecutor` with ``num_clients``
client sites (optionally with per-client cache contents), and then lets
every client's :class:`~repro.workload.streams.ClientStream` submit
sessions that contend for the server CPUs, disks, and the network --
throttled by per-server
:class:`~repro.workload.admission.AdmissionController`\\ s.  Every read
session is planned at submission, against the system as it stands then.

The experiment the paper's design points at: data-shipping clients that
cache their inputs keep scaling as clients are added (each brings its own
disk arm), while query-shipping funnels every query through the server
disks, which saturate -- the ``throughput-sweep`` figure plots exactly
that.
"""

from __future__ import annotations

import gc
import typing
from dataclasses import replace
from operator import attrgetter

import random

from repro.caching.config import CacheConfig
from repro.config import OptimizerConfig
from repro.consistency.config import ConsistencyConfig
from repro.costmodel.model import Objective
from repro.engine.executor import QueryExecutor, Session, SessionResult
from repro.errors import ConfigurationError
from repro.hardware.site import client_site_id
from repro.optimizer.cache import PlanCache
from repro.plans.policies import Policy
from repro.sim import AllOf
from repro.workload.admission import AdmissionConfig, AdmissionController
from repro.workload.results import WorkloadResult
from repro.workload.streams import ClientStream, StreamConfig

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.recovery import RecoveryPolicy
    from repro.faults.schedule import FaultSchedule
    from repro.obs.telemetry import TelemetryConfig
    from repro.obs.trace import Tracer
    from repro.workloads.scenarios import Scenario

__all__ = ["WorkloadRunner"]

#: Per-server admission occupancy gauges, ``admission.server<id>.<leaf>``.
ADMISSION_GAUGES = (
    ("queued", attrgetter("waiting")),
    ("running", attrgetter("running")),
)


class WorkloadRunner:
    """Runs one multi-client workload on a single shared simulated system."""

    def __init__(
        self,
        scenario: "Scenario",
        policy: Policy,
        num_clients: int = 1,
        stream: StreamConfig | None = None,
        admission: AdmissionConfig | None = None,
        seed: int = 0,
        objective: Objective = Objective.RESPONSE_TIME,
        optimizer_config: OptimizerConfig | None = None,
        faults: FaultSchedule | None = None,
        recovery: RecoveryPolicy | None = None,
        client_caches: "dict[int, dict[str, float]] | None" = None,
        tracer: "Tracer | None" = None,
        plan_cache: "PlanCache | None" = None,
        cache: "CacheConfig | str | None" = None,
        consistency: "ConsistencyConfig | str | None" = None,
        telemetry: "TelemetryConfig | None" = None,
    ) -> None:
        """``client_caches`` is keyed by client *ordinal* (0..num_clients-1)
        and overrides that client's cached fractions; clients without an
        entry use the scenario catalog's fractions.

        Every read session is planned when its client submits it, by
        :meth:`QueryExecutor.optimize_for`, against that client's live
        :class:`~repro.caching.CacheState` (and, under dynamic memory, the
        brokers' occupancy): what a client has on its local disk changes
        which plans are even sensible for it.  Plans are reused within one
        run: submission planning and mid-run replans share one plan cache,
        ``plan_cache`` if given (its ``stats`` then count the run's
        lookups), else a fresh one.  Reuse never changes a chosen plan.

        ``cache`` selects the client caching model: a
        :class:`~repro.caching.CacheConfig`, the shorthand strings
        ``"dynamic"``/``"static"``, or None for the workload default --
        **dynamic** (the cache fractions become seeded resident pages and
        client scans admit faulted-in pages, so streams warm up);
        ``"static"`` is the paper's fixed-prefix model used by the figure
        reproductions.
        """
        if num_clients < 1:
            raise ConfigurationError(f"num_clients must be >= 1, got {num_clients}")
        self.scenario = scenario
        self.policy = policy
        self.num_clients = num_clients
        self.stream = stream or StreamConfig()
        self.admission = admission
        self.seed = seed
        self.objective = objective
        self.optimizer_config = optimizer_config or OptimizerConfig.fast()
        self.faults = faults
        self.recovery = recovery
        self.tracer = tracer
        self.plan_cache = plan_cache
        self.telemetry = telemetry
        #: Always None: sessions are never memoized.  Kept for callers
        #: that still read it.
        self.last_memo = None
        if cache is None:
            cache = CacheConfig(mode="dynamic")
        elif isinstance(cache, str):
            cache = CacheConfig(mode=cache)
        self.cache = cache
        # Cache-consistency protocol for read/write mixes.  Resolved (and a
        # ConsistencyManager attached to the topology) only when the stream
        # actually carries writes, so pure-read workloads stay manager-free
        # and event-for-event identical to the read-only engine.
        if consistency is None:
            consistency = ConsistencyConfig()
        elif isinstance(consistency, str):
            consistency = ConsistencyConfig(protocol=consistency)
        self.consistency = consistency
        self.client_caches = dict(client_caches or {})
        for ordinal in self.client_caches:
            if not 0 <= ordinal < num_clients:
                raise ConfigurationError(
                    f"client_caches references client ordinal {ordinal}, but the "
                    f"workload has clients 0..{num_clients - 1}"
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> WorkloadResult:
        """Simulate the whole workload; returns aggregated metrics."""
        scenario = self.scenario
        config = replace(
            scenario.config.with_clients(self.num_clients), cache=self.cache
        )
        executor = QueryExecutor(
            config,
            scenario.catalog,
            scenario.query,
            seed=self.seed,
            server_loads=scenario.server_loads,
            faults=self.faults,
            recovery=self.recovery,
            policy=self.policy,
            objective=self.objective,
            optimizer_config=self.optimizer_config,
            client_caches={
                client_site_id(ordinal): fractions
                for ordinal, fractions in self.client_caches.items()
            },
            tracer=self.tracer,
            # One plan cache for the whole run: repeat cache views (the
            # common steady state of per-submission planning) and replans
            # around the same crashed sites plan once, without changing
            # any chosen plan.
            plan_cache=self.plan_cache if self.plan_cache is not None else PlanCache(),
            telemetry=self.telemetry,
        )
        env = executor.env
        topology = executor.topology
        # Exposed for tests and diagnostics (e.g. comparing per-site broker
        # histories across replayed workloads); overwritten by each run().
        self.last_topology = topology
        if self.stream.write_fraction > 0.0:
            from repro.consistency.protocol import make_protocol

            topology.consistency = make_protocol(self.consistency, topology)
        controllers: dict[int, AdmissionController] = {}
        if self.admission is not None:
            controllers = {
                server.site_id: AdmissionController(env, server.site_id, self.admission)
                for server in topology.servers
            }
            # Queue-depth gauges: zero-cost occupancy reads, so admission
            # pressure shows up in profiles and telemetry series.
            for sid in sorted(controllers):
                topology.metrics.gauges(
                    f"admission.server{sid}", controllers[sid], ADMISSION_GAUGES
                )

        def launch(ordinal: int, index: int) -> Session:
            site = client_site_id(ordinal)
            # Each session is planned at submission, against its client's
            # *current* cache contents: a stream's later queries see the
            # pages its earlier queries faulted in (the cache-aware
            # feedback loop) or lost to invalidations.
            return Session(
                executor,
                executor.optimize_for(site),
                client_site=site,
                admission=controllers,
                session_id=f"c{ordinal}q{index}",
            )

        def launch_write(ordinal: int, index: int, rng: random.Random) -> Session:
            from repro.engine.writes import WRITE_KINDS, WriteSpec

            relation = rng.choice(scenario.catalog.relation_names)
            kind = rng.choice(WRITE_KINDS)
            total = scenario.catalog.relation(relation).pages(config)
            count = min(self.stream.write_pages, total)
            if kind == "insert":
                # Appends land in the relation's tail pages.
                pages = tuple(range(total - count, total))
            else:
                pages = tuple(sorted(rng.sample(range(total), count)))
            return Session(
                executor,
                WriteSpec(kind, relation, pages),
                client_site=client_site_id(ordinal),
                admission=controllers,
                session_id=f"c{ordinal}w{index}",
            )

        streams = [
            ClientStream(env, ordinal, self.stream, self.seed, launch, launch_write)
            for ordinal in range(self.num_clients)
        ]
        processes = [
            env.process(stream.run(), name=f"client{stream.ordinal}-stream")
            for stream in streams
        ]

        def main() -> typing.Generator:
            yield AllOf(env, processes)

        # The event loop allocates millions of short-lived tuples, events,
        # and generator frames; cyclic-GC passes over that churn cost ~6% of
        # the run, so collection is paused for the simulation proper.  While
        # it is paused, anything that dies inside a reference cycle stays
        # resident until the end, so finished sessions must be freed by
        # refcounting alone: a finished Process drops its last event, a
        # finished ExecutionContext its operator list, and a fired AnyOf
        # its hooks on the children still pending, for this reason.  The
        # broker and buffer-cache histories are fixed-size digests, not
        # per-event lists.  The system itself is freed the same way:
        # ``env.close()`` below ends the processes that would otherwise keep
        # it in a cycle, so no collection is needed before a run.  One after
        # the run frees whatever the paused collector let pile up.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            env.run(until=env.process(main(), name="workload-driver"))
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()

        sessions: list[SessionResult] = []
        for stream in streams:
            sessions.extend(stream.results)
        if self.tracer is not None:
            self.tracer.finish()
            # No `response_time` key: the operator-coverage invariant of
            # repro.obs.check is a single-query property (workload traces
            # legitimately have idle think-time gaps between sessions).
            self.tracer.metadata.update(
                policy=self.policy.value,
                num_clients=self.num_clients,
                makespan=env.now,
            )
        cpu_util = {site.name: site.cpu.utilization() for site in topology.sites}
        disk_util = {
            disk.name: disk.utilization()
            for site in topology.sites
            for disk in site.disks
        }
        result = WorkloadResult.from_sessions(
            sessions,
            policy=self.policy.value,
            num_clients=self.num_clients,
            arrival=self.stream.arrival,
            makespan=env.now,
            admission=tuple(
                controllers[sid].snapshot() for sid in sorted(controllers)
            ),
            cpu_utilizations=cpu_util,
            disk_utilizations=disk_util,
            network_utilization=topology.network.utilization(),
            profile=topology.metrics.snapshot(),
            telemetry=None if executor.sampler is None else executor.sampler.snapshot(),
        )
        executor.close()
        return result
