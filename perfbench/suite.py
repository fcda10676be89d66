"""The benchmark's four workloads: what each builds at set-up and runs per pass.

Every workload drives the same public calls a ``repro`` user makes:
``chain_scenario``, ``RandomizedOptimizer.optimize``, ``Scenario.execute``
and ``WorkloadRunner.run``.  A workload is built once (scenarios and
catalogs, the set-up the benchmark times as ``setup_s``) and then run pass
after pass.  Each pass starts from a fresh ``PlanCache``, as one
``repro-experiments`` invocation does, so a warm-up pass never turns later
optimizer work into cache hits.

A pass returns a :class:`PassOutcome`: the simulated results (exact, so
every pass of a run must produce the same digest), the per-layer counts
read from results and profiles, and every operation whose correctness
check failed.
"""

from __future__ import annotations

import hashlib
import random
import typing
from dataclasses import dataclass

from repro.config import BufferAllocation, OptimizerConfig
from repro.costmodel.model import Objective
from repro.errors import ReproError
from repro.optimizer import PlanCache, RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workload import AdmissionConfig, StreamConfig, WorkloadRunner
from repro.workload.results import percentile
from repro.workloads.scenarios import chain_scenario

__all__ = ["PassOutcome", "build", "derive_seeds"]

POLICIES = (Policy.DATA_SHIPPING, Policy.QUERY_SHIPPING, Policy.HYBRID_SHIPPING)


@dataclass
class PassOutcome:
    """What one pass over a workload produced."""

    #: Operations attempted: grid points (one optimized and simulated
    #: query each) or workload statements (sessions).
    operations: int
    #: One line per failed, shed or check-failing operation.
    failures: list[str]
    #: Simulated end-to-end results (exact).
    sim: dict[str, float]
    #: Per-layer counts read from results, profiles and caches (exact).
    counts: dict[str, float]
    #: Digest of every simulated value of the pass.
    digest: str = ""


def derive_seeds(seed: int, count: int) -> tuple[int, ...]:
    """``count`` placement/optimizer seeds derived from the workload seed."""
    rng = random.Random(f"perfbench:{seed}")
    return tuple(rng.randrange(1, 2**31) for _ in range(count))


def _digest(values: typing.Any) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _site_sum(profile: dict[str, float], suffix: str) -> float:
    return sum(v for k, v in profile.items() if k.startswith("site.") and k.endswith(suffix))


def _layer_counts(profiles: list[dict[str, float]]) -> dict[str, float]:
    """Hardware, storage, caching and consistency counts summed over runs."""

    def total(suffix: str) -> float:
        return sum(_site_sum(p, suffix) for p in profiles)

    def network(key: str) -> float:
        return sum(p.get(key, 0) for p in profiles)

    hits, misses = total(".cache.hits"), total(".cache.misses")
    return {
        "hardware.disk_pages_read": total(".pages_read"),
        "hardware.disk_pages_written": total(".pages_written"),
        "hardware.disk_random_ios": total(".random_ios"),
        "hardware.disk_busy_s": sum(
            v
            for p in profiles
            for k, v in p.items()
            if k.startswith("site.") and ".disk" in k and k.endswith(".busy_time")
        ),
        "hardware.net_data_pages": network("network.data_pages_sent"),
        "hardware.net_control_msgs": network("network.control_messages_sent"),
        "hardware.net_busy_s": network("network.busy_time"),
        "hardware.cpu_busy_s": total(".cpu.busy_time"),
        "storage.spill_pages": total(".memory.spill_pages"),
        "storage.memory_waits": total(".memory.wait_count"),
        "caching.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "caching.lookups": hits + misses,
        "caching.evictions": total(".cache.evictions"),
        "consistency.invalidations": total(".consistency.invalidations"),
        "consistency.validations": total(".consistency.validations"),
        "consistency.stale_hits": total(".consistency.stale_hits"),
    }


def _response_summary(times: list[float], simulated_seconds: float) -> dict[str, float]:
    """Mean and exact p95 simulated response time, and statements per
    simulated second."""
    if not times:
        return {"sim_resp_s": 0.0, "sim_p95_resp_s": 0.0, "sim_p95_samples": 0, "sim_qps": 0.0}
    return {
        "sim_resp_s": sum(times) / len(times),
        "sim_p95_resp_s": percentile(times, 95.0),
        "sim_p95_samples": len(times),
        "sim_qps": len(times) / simulated_seconds,
    }


def _plan_cache_counts(cache: PlanCache) -> dict[str, float]:
    stats = cache.stats
    return {
        "optimizer.plan_cache_hit_ratio": stats.hit_rate,
        "optimizer.plan_cache_lookups": stats.lookups,
    }


# ----------------------------------------------------------------------
# Grids: optimize and simulate every (x, seed, policy) point
# ----------------------------------------------------------------------
@dataclass
class _GridPoint:
    x: float
    seed: int
    scenario: typing.Any


@dataclass
class GridWorkload:
    """A figure grid: each point is optimized with 2PO, then simulated."""

    name: str
    points: list[_GridPoint]
    #: Extra per-point check (Figure-2 shape); returns an error or None.
    check: "typing.Callable[[float, Policy, int], str | None] | None" = None

    def run_pass(self) -> PassOutcome:
        cache = PlanCache()
        failures: list[str] = []
        rows = []
        profiles = []
        response: dict[tuple[float, int], dict[Policy, float]] = {}
        errors = []
        invalidations = 0
        for point in self.points:
            environment = point.scenario.environment()
            for policy in POLICIES:
                label = f"x={point.x:g} seed={point.seed} {policy.short_name}"
                try:
                    result = RandomizedOptimizer(
                        point.scenario.query,
                        environment,
                        policy=policy,
                        objective=Objective.RESPONSE_TIME,
                        config=OptimizerConfig.fast(),
                        seed=point.seed,
                        plan_cache=cache,
                    ).optimize()
                    execution = point.scenario.execute(result.plan, seed=point.seed)
                except ReproError as error:
                    failures.append(f"{label}: {error}")
                    continue
                simulated = execution.response_time
                rows.append((point.x, point.seed, policy.value, simulated, execution.pages_sent))
                profiles.append(execution.profile)
                if execution.cache_state is not None:
                    invalidations += execution.cache_state.invalidations
                response.setdefault((point.x, point.seed), {})[policy] = simulated
                errors.append(abs(result.cost.response_time - simulated) / simulated)
                if self.check is not None:
                    problem = self.check(point.x, policy, execution.pages_sent)
                    if problem is not None:
                        failures.append(f"{label}: {problem}")
        times = [row[3] for row in rows]
        ratios = [
            by[Policy.HYBRID_SHIPPING]
            / min(by[Policy.DATA_SHIPPING], by[Policy.QUERY_SHIPPING])
            for by in response.values()
            if len(by) == len(POLICIES)
        ]
        sim = {
            # Grid points run one after another: the simulated time of the
            # pass is the sum of their response times.
            **_response_summary(times, sum(times)),
            "pages_sent": sum(row[4] for row in rows),
            "hy_over_best_pure": max(ratios) if ratios else 0.0,
        }
        counts = {
            **_layer_counts(profiles),
            **_plan_cache_counts(cache),
            "caching.invalidations": invalidations,
            "costmodel.rel_err_mean": sum(errors) / len(errors) if errors else 0.0,
            "costmodel.rel_err_max": max(errors) if errors else 0.0,
            "workload.completed": len(rows),
            "workload.shed": 0,
            "workload.failed": len(self.points) * len(POLICIES) - len(rows),
            "workload.queue_delay_s": 0.0,
            "workload.memo_replays": 0,
            "workload.memo_recordings": 0,
            "workload.memo_replay_ratio": 0.0,
        }
        return PassOutcome(
            operations=len(self.points) * len(POLICIES),
            failures=failures,
            sim=sim,
            counts=counts,
            digest=_digest((rows, sim, counts)),
        )


def _figure2_shape(fraction: float, policy: Policy, pages: int) -> "str | None":
    """Figure 2: QS ships the 250-page result; DS ships the uncached 500x(1-f).

    DS is allowed one page of rounding per relation (each caches a whole
    number of pages).
    """
    if policy is Policy.QUERY_SHIPPING and pages != 250:
        return f"QS shipped {pages} pages, expected 250"
    if policy is Policy.DATA_SHIPPING and abs(pages - 500 * (1.0 - fraction)) > 2:
        return f"DS shipped {pages} pages, expected {500 * (1.0 - fraction):g}"
    return None


# ----------------------------------------------------------------------
# Closed multi-client workloads
# ----------------------------------------------------------------------
@dataclass
class ClosedWorkload:
    """One or more ``WorkloadRunner`` runs per pass on shared scenarios."""

    name: str
    #: Keyword arguments of each ``WorkloadRunner`` of a pass (the
    #: scenario included); ``plan_cache`` is added fresh per pass.
    runs: list[dict[str, typing.Any]]

    def run_pass(self) -> PassOutcome:
        cache = PlanCache()
        failures: list[str] = []
        sessions = []
        profiles = []
        makespan = 0.0
        memo_replays = memo_recordings = 0
        invalidations = 0
        read_sessions = 0
        for arguments in self.runs:
            runner = WorkloadRunner(plan_cache=cache, **arguments)
            result = runner.run()
            label = f"{result.policy} {arguments.get('consistency', '')}".strip()
            for session in result.sessions:
                sessions.append(
                    (
                        label,
                        session.session_id,
                        session.status,
                        session.submitted,
                        session.completed,
                        session.response_time,
                        session.queue_delay,
                    )
                )
                if "q" in session.session_id:
                    read_sessions += 1
                if session.status != "completed":
                    failures.append(f"{label} {session.session_id}: {session.status}")
            profiles.append(result.profile)
            makespan += result.makespan
            if runner.last_memo is not None:
                memo_replays += runner.last_memo.replays
                memo_recordings += runner.last_memo.recordings
            topology = runner.last_topology
            invalidations += sum(
                site.buffer_cache.invalidations
                for site in topology.sites
                if site.buffer_cache is not None
            )
            protocol = topology.consistency
            if protocol is not None and protocol.stale_served:
                failures.append(f"{label}: {protocol.stale_served} stale pages served")
        done = [s for s in sessions if s[2] == "completed"]
        times = [s[5] for s in done]
        sim = {
            **_response_summary(times, makespan),
            "pages_sent": sum(p.get("network.data_pages_sent", 0) for p in profiles),
        }
        counts = {
            **_layer_counts(profiles),
            **_plan_cache_counts(cache),
            "caching.invalidations": invalidations,
            "costmodel.rel_err_mean": 0.0,
            "costmodel.rel_err_max": 0.0,
            "workload.completed": len(done),
            "workload.shed": sum(1 for s in sessions if s[2] == "shed"),
            "workload.failed": sum(1 for s in sessions if s[2] not in ("completed", "shed")),
            "workload.queue_delay_s": sum(s[6] for s in done) / len(done) if done else 0.0,
            "workload.memo_replays": memo_replays,
            "workload.memo_recordings": memo_recordings,
            "workload.memo_replay_ratio": (
                memo_replays / read_sessions if read_sessions else 0.0
            ),
        }
        return PassOutcome(
            operations=len(sessions),
            failures=failures,
            sim=sim,
            counts=counts,
            digest=_digest((sessions, sim, counts)),
        )


# ----------------------------------------------------------------------
# Construction (the timed set-up)
# ----------------------------------------------------------------------
def build(name: str, seed: int, size: str = "full") -> "GridWorkload | ClosedWorkload":
    """Build workload ``name`` with every input derived from ``seed``.

    ``size="tiny"`` shrinks each workload to seconds for the benchmark's
    own tests; the benchmark itself always runs ``"full"``.
    """
    tiny = size == "tiny"
    if name == "fig2_grid":
        fractions = (0.0, 1.0) if tiny else (0.0, 0.25, 0.5, 0.75, 1.0)
        seeds = derive_seeds(seed, 1 if tiny else 3)
        points = [
            _GridPoint(
                fraction,
                grid_seed,
                chain_scenario(
                    num_relations=2,
                    num_servers=1,
                    allocation=BufferAllocation.MINIMUM,
                    cached_fraction=fraction,
                    placement_seed=grid_seed,
                ),
            )
            for fraction in fractions
            for grid_seed in seeds
        ]
        return GridWorkload(name, points, check=_figure2_shape)
    if name == "fig8_10way":
        servers = (1, 2) if tiny else (1, 2, 5, 10)
        relations = 4 if tiny else 10
        (grid_seed,) = derive_seeds(seed, 1)
        points = [
            _GridPoint(
                count,
                grid_seed,
                chain_scenario(
                    num_relations=relations,
                    num_servers=count,
                    allocation=BufferAllocation.MINIMUM,
                    placement_seed=grid_seed,
                ),
            )
            for count in servers
        ]
        return GridWorkload(name, points)
    if name == "closed_100":
        (run_seed,) = derive_seeds(seed, 1)
        clients = 10 if tiny else 100
        return ClosedWorkload(
            name,
            [
                dict(
                    scenario=chain_scenario(
                        num_relations=2,
                        num_servers=1,
                        cached_fraction=0.5,
                        placement_seed=run_seed,
                    ),
                    policy=Policy.HYBRID_SHIPPING,
                    num_clients=clients,
                    stream=StreamConfig(arrival="closed", think_time=0.0, queries_per_client=2),
                    admission=AdmissionConfig(max_concurrent=4, queue_limit=256),
                    seed=run_seed,
                    cache="dynamic",
                )
            ],
        )
    if name == "write_mix":
        (run_seed,) = derive_seeds(seed, 1)
        clients = 4 if tiny else 16
        return ClosedWorkload(
            name,
            [
                dict(
                    scenario=chain_scenario(
                        num_relations=2,
                        num_servers=2,
                        cached_fraction=0.5,
                        placement_seed=run_seed,
                        replication_factor=2,
                    ),
                    policy=Policy.DATA_SHIPPING,
                    num_clients=clients,
                    stream=StreamConfig(
                        arrival="closed",
                        think_time=0.0,
                        queries_per_client=4,
                        write_fraction=0.25,
                    ),
                    seed=run_seed,
                    cache="dynamic",
                    consistency=protocol,
                )
                for protocol in ("invalidation", "detection")
            ],
        )
    raise ValueError(f"unknown workload {name!r}")
