"""The workload runner: one shared system, many concurrent query sessions.

This is the multi-client counterpart of ``Scenario.execute``: it builds
*one* environment and topology with ``num_clients`` client sites, installs
the catalog (optionally with per-client cache contents), optimizes the
chain query once per distinct client cache view, and then lets every
client's :class:`~repro.workload.streams.ClientStream` submit sessions that
contend for the server CPUs, disks, and the network -- throttled by
per-server :class:`~repro.workload.admission.AdmissionController`\\ s.

The experiment the paper's design points at: data-shipping clients that
cache their inputs keep scaling as clients are added (each brings its own
disk arm), while query-shipping funnels every query through the server
disks, which saturate -- the ``throughput-sweep`` figure plots exactly
that.
"""

from __future__ import annotations

import gc
import os
import typing
from dataclasses import replace

import random

from repro.caching.config import CacheConfig
from repro.config import OptimizerConfig
from repro.consistency import ConsistencyConfig, make_protocol
from repro.costmodel.model import EnvironmentState, Objective
from repro.engine.executor import (
    QueryExecutor,
    QuerySession,
    SessionResult,
    WriteSession,
)
from repro.engine.writes import WRITE_KINDS, WriteSpec
from repro.errors import ConfigurationError
from repro.faults.recovery import RecoveryPolicy
from repro.faults.schedule import FaultSchedule
from repro.hardware.site import client_site_id
from repro.hardware.topology import Topology
from repro.optimizer.cache import PlanCache
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.operators import DisplayOp
from repro.plans.policies import Policy
from repro.sim import AllOf, Environment
from repro.storage.memory import MemoryPressureState
from repro.workload.admission import AdmissionConfig, AdmissionController
from repro.workload.memo import SessionMemo
from repro.workload.results import WorkloadResult
from repro.workload.streams import ClientStream, StreamConfig

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import TelemetryConfig
    from repro.obs.trace import Tracer
    from repro.workloads.scenarios import Scenario

__all__ = ["WorkloadRunner"]


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
        memoize: bool = True,
    ) -> None:
        """``client_caches`` is keyed by client *ordinal* (0..num_clients-1)
        and overrides that client's cached fractions; clients without an
        entry use the scenario catalog's fractions.  Each distinct cache
        view gets its own optimized plan, because what a client has on its
        local disk changes which plans are even sensible for it.

        ``plan_cache`` memoizes those per-view optimizations (and any
        mid-run replans): a cache shared across runs means repeated query
        classes are planned once, without changing which plan is chosen.

        ``cache`` selects the client caching model: a
        :class:`~repro.caching.CacheConfig`, the shorthand strings
        ``"dynamic"``/``"static"``, or None for the workload default --
        **dynamic** (the cache fractions become seeded resident pages and
        client scans admit faulted-in pages, so streams warm up).  In
        dynamic mode each session is planned at submission time against its
        client's live :class:`~repro.caching.CacheState`; ``"static"`` is
        the paper's immutable-prefix model used by the figure
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
        # Session memoization (repro.workload.memo): replay op tapes for
        # repeat (plan, cache state, epoch) sessions.  ``memoize=False`` or
        # ``REPRO_SIM_MEMO=0`` forces every session through the operator
        # interpreter; further eligibility gates are applied in run().
        self.memoize = memoize
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
    # Per-client planning
    # ------------------------------------------------------------------
    def _optimize_plans(self) -> dict[int, DisplayOp]:
        """One optimized plan per client; shared across identical cache views."""
        scenario = self.scenario
        by_view: dict[typing.Any, DisplayOp] = {}
        plans: dict[int, DisplayOp] = {}
        for ordinal in range(self.num_clients):
            overrides = self.client_caches.get(ordinal)
            key = None if overrides is None else tuple(sorted(overrides.items()))
            if key not in by_view:
                if overrides is None:
                    environment = scenario.environment()
                else:
                    environment = EnvironmentState(
                        scenario.catalog.with_cache(dict(overrides)),
                        scenario.config,
                        dict(scenario.server_loads),
                    )
                by_view[key] = RandomizedOptimizer(
                    scenario.query,
                    environment,
                    policy=self.policy,
                    objective=self.objective,
                    config=self.optimizer_config,
                    seed=self.seed,
                    plan_cache=self.plan_cache,
                ).optimize().plan
            plans[ordinal] = by_view[key]
        return plans

    def _optimize_dynamic(
        self, topology: Topology, ordinal: int, plan_cache: "PlanCache"
    ) -> DisplayOp:
        """Plan one session against its client's *current* cache contents.

        Called at submission time, so a stream's later queries see the
        pages its earlier queries faulted in -- the cache-aware feedback
        loop.  The cache state's digest keys the plan cache: a stable
        resident set keeps hitting, a changed one re-plans.
        """
        site = topology.site(client_site_id(ordinal))
        assert site.buffer_cache is not None
        state = site.buffer_cache.snapshot()
        environment = EnvironmentState(
            self.scenario.catalog,
            topology.config,
            dict(self.scenario.server_loads),
            cache_state=state,
            memory_pressure=(
                MemoryPressureState.capture(topology.sites)
                if topology.config.memory.is_dynamic
                else None
            ),
        )
        return RandomizedOptimizer(
            self.scenario.query,
            environment,
            policy=self.policy,
            objective=self.objective,
            config=self.optimizer_config,
            seed=self.seed,
            plan_cache=plan_cache,
            cache_digest=state.digest(),
        ).optimize().plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> WorkloadResult:
        """Simulate the whole workload; returns aggregated metrics."""
        scenario = self.scenario
        config = replace(
            scenario.config.with_clients(self.num_clients), cache=self.cache
        )
        dynamic = self.cache.is_dynamic
        plans = {} if dynamic else self._optimize_plans()
        plan_cache = self.plan_cache
        if dynamic and plan_cache is None:
            # Per-launch planning re-optimizes at every submission; a
            # private plan cache makes repeat cache states (the common
            # steady state) plan-once without changing any chosen plan.
            plan_cache = PlanCache()

        env = Environment()
        if self.tracer is not None:
            self.tracer.bind(env)
        topology = Topology(env, config, seed=self.seed)
        # Exposed for tests and diagnostics (e.g. comparing per-site broker
        # histories across replayed workloads); overwritten by each run().
        self.last_topology = topology
        scenario.catalog.install(
            topology,
            client_caches={
                client_site_id(ordinal): fractions
                for ordinal, fractions in self.client_caches.items()
            },
        )
        if self.stream.write_fraction > 0.0:
            topology.consistency = make_protocol(self.consistency, topology)
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
            topology=topology,
            plan_cache=plan_cache,
        )
        # Session memoization is only sound when a session's op stream is a
        # pure function of (plan, exact cache state, consistency epoch):
        # closed read-only streams under the static memory discipline, with
        # no tracer (tapes carry no spans), no faults, and no recovery.
        # Telemetry and admission control are fine -- both observe the same
        # primitive ops a replay re-issues.
        memo = None
        if (
            self.memoize
            and env.fastpath
            and self.tracer is None
            and self.faults is None
            and self.recovery is None
            and self.stream.arrival == "closed"
            and self.stream.write_fraction == 0.0
            and not config.memory.is_dynamic
            and os.environ.get("REPRO_SIM_MEMO", "1") != "0"
        ):
            memo = SessionMemo(env, topology)
            executor.session_memo = memo
            # env.recorder is managed by the memo itself: it attaches only
            # while a recording is in flight, so the replay-heavy steady
            # state keeps every hardware hook on the recorder-is-None path.
        # Exposed for tests and diagnostics (None when ineligible/disabled).
        self.last_memo = memo
        controllers: dict[int, AdmissionController] = {}
        if self.admission is not None:
            controllers = {
                server.site_id: AdmissionController(env, server.site_id, self.admission)
                for server in topology.servers
            }
            # Queue-depth gauges: zero-cost occupancy reads, so admission
            # pressure shows up in profiles and telemetry series.
            for sid in sorted(controllers):
                controller = controllers[sid]
                topology.metrics.gauge(
                    f"admission.server{sid}.queued", lambda c=controller: c.waiting
                )
                topology.metrics.gauge(
                    f"admission.server{sid}.running", lambda c=controller: c.running
                )
        sampler = None
        if self.telemetry is not None:
            from repro.obs.telemetry import TelemetrySampler

            sampler = TelemetrySampler(env, topology.metrics, self.telemetry)

        def launch(ordinal: int, index: int) -> QuerySession:
            if dynamic:
                assert plan_cache is not None
                plan = self._optimize_dynamic(topology, ordinal, plan_cache)
            else:
                plan = plans[ordinal]
            return executor.session(
                plan,
                client_site=client_site_id(ordinal),
                admission=controllers,
                session_id=f"c{ordinal}q{index}",
            )

        def launch_write(ordinal: int, index: int, rng: random.Random) -> WriteSession:
            relation = rng.choice(scenario.catalog.relation_names)
            kind = rng.choice(WRITE_KINDS)
            total = scenario.catalog.relation(relation).pages(config)
            count = min(self.stream.write_pages, total)
            if kind == "insert":
                # Appends land in the relation's tail pages.
                pages = tuple(range(total - count, total))
            else:
                pages = tuple(sorted(rng.sample(range(total), count)))
            return executor.write_session(
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
        # per-event lists.  One collection before the pause frees the previous
        # run's topology, which is cyclic, before this run grows beside it;
        # one after frees this run's.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.collect()
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
        return WorkloadResult.from_sessions(
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
            telemetry=None if sampler is None else sampler.snapshot(),
        )
