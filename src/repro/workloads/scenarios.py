"""Scenarios: a complete experimental setup ready to optimize and simulate.

A :class:`Scenario` bundles the system configuration, the catalog (schemas,
placement, client-cache contents), the query, and any external server-disk
loads.  Experiment code builds scenarios through :func:`chain_scenario`,
which mirrors the knobs the paper varies: number of servers, relation
count, caching, buffer allocation, selectivity, placement seed, and load.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass, field, replace

from repro.catalog.catalog import Catalog
from repro.catalog.placement import Placement, random_placement, replicate_placement
from repro.config import BufferAllocation, OptimizerConfig, SystemConfig
from repro.costmodel.model import EnvironmentState, Objective
from repro.engine.executor import ExecutionResult, QueryExecutor
from repro.errors import ConfigurationError
from repro.plans.logical import Query
from repro.workloads.chains import chain_query
from repro.workloads.relations import benchmark_relations

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.recovery import RecoveryPolicy
    from repro.faults.schedule import FaultSchedule
    from repro.obs.telemetry import TelemetryConfig
    from repro.obs.trace import Tracer
    from repro.plans.binding import BoundPlan
    from repro.plans.operators import DisplayOp
    from repro.plans.policies import Policy

__all__ = ["Scenario", "chain_scenario"]


@dataclass
class Scenario:
    """Everything one simulated experiment point needs."""

    config: SystemConfig
    catalog: Catalog
    query: Query
    server_loads: dict[int, float] = field(default_factory=dict)
    description: str = ""

    def environment(self) -> EnvironmentState:
        """The true environment state (optimizer belief = reality)."""
        return EnvironmentState(self.catalog, self.config, self.server_loads)

    def assumed_environment(self, catalog: Catalog, num_servers: int | None = None) -> EnvironmentState:
        """A (possibly wrong) compile-time belief for 2-step experiments."""
        config = self.config
        if num_servers is not None:
            config = config.with_servers(num_servers)
        return EnvironmentState(catalog, config, {})

    def execute(
        self,
        plan: "DisplayOp | BoundPlan",
        seed: int = 0,
        faults: "FaultSchedule | None" = None,
        recovery: "RecoveryPolicy | None" = None,
        policy: "Policy | None" = None,
        objective: Objective = Objective.RESPONSE_TIME,
        optimizer_config: "OptimizerConfig | None" = None,
        tracer: "Tracer | None" = None,
        telemetry: "TelemetryConfig | None" = None,
    ) -> ExecutionResult:
        """Simulate one plan in a freshly built system.

        ``faults`` injects the schedule's crashes/outages/slowdowns into the
        run and routes execution through the recovery loop; ``recovery``
        tunes retries, backoff, timeout, and replanning (``policy`` /
        ``objective`` / ``optimizer_config`` parameterize the re-optimization
        performed after a fault).  ``tracer`` records per-operator spans of
        the run in simulated time (see :mod:`repro.obs`).  ``telemetry``
        attaches a gauge sampler; the result then carries the run's
        utilization time series (see :mod:`repro.obs.telemetry`).
        """
        executor = QueryExecutor(
            self.config,
            self.catalog,
            self.query,
            seed=seed,
            server_loads=self.server_loads,
            faults=faults,
            recovery=recovery,
            policy=policy,
            objective=objective,
            optimizer_config=optimizer_config,
            tracer=tracer,
            telemetry=telemetry,
        )
        try:
            return executor.execute(plan)
        finally:
            executor.close()


def chain_scenario(
    num_relations: int = 10,
    num_servers: int = 1,
    selectivity: "str | float" = "moderate",
    allocation: BufferAllocation = BufferAllocation.MINIMUM,
    cached_fraction: float = 0.0,
    cached_relations: int | None = None,
    placement_seed: int = 0,
    server_load: float = 0.0,
    config: SystemConfig | None = None,
    replication_factor: int = 1,
) -> Scenario:
    """Build one of the paper's chain-join experiment points.

    ``cached_fraction`` caches a contiguous prefix of *every* relation (the
    2-way-join experiments); ``cached_relations`` instead caches the first
    N relations entirely (the Figure 7 setting).  ``server_load`` adds the
    external random-read process at every server (Figure 4).
    ``replication_factor`` stores each relation on that many servers
    (1 = the paper's unreplicated placement; replicas are drawn from the
    placement seed's stream, so points stay reproducible).
    """
    if cached_fraction and cached_relations is not None:
        raise ConfigurationError("specify cached_fraction or cached_relations, not both")
    base = config or SystemConfig()
    system = replace(base, num_servers=num_servers, buffer_allocation=allocation)
    relations = benchmark_relations(num_relations)
    names = [r.name for r in relations]
    placement_rng = random.Random(placement_seed)
    placement: Placement = random_placement(names, num_servers, placement_rng)
    if replication_factor > 1:
        placement = replicate_placement(
            placement, replication_factor, num_servers, placement_rng
        )
    if cached_relations is not None:
        cache = {name: 1.0 for name in names[:cached_relations]}
    elif cached_fraction > 0.0:
        cache = {name: cached_fraction for name in names}
    else:
        cache = {}
    catalog = Catalog(relations, placement, cache)
    query = chain_query(relations, selectivity)
    loads = {s: server_load for s in range(1, num_servers + 1)} if server_load else {}
    description = (
        f"{num_relations}-way chain, {num_servers} server(s), "
        f"{allocation.value} alloc, selectivity={selectivity}"
    )
    return Scenario(system, catalog, query, loads, description)
