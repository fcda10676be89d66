"""Workload-level metrics: throughput, response-time percentiles, queues.

Single-query experiments report response time and pages sent; a workload
additionally has *throughput* (completed queries per second of simulated
time) and a response-time *distribution*, because under contention the tail
diverges from the mean long before the mean moves.  The p50/p95/p99 fields
come from a log-bucketed :class:`~repro.workload.histogram.StreamingHistogram`
(1% relative error, O(1) memory per aggregation) so percentile aggregation
stays flat-cost on the road to 1000-client sweeps; :func:`percentile` keeps
the exact sort-based computation for callers that need it.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.workload.admission import AdmissionSnapshot
from repro.workload.histogram import StreamingHistogram

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import SessionResult
    from repro.obs.telemetry import Telemetry

__all__ = ["WorkloadResult", "percentile"]


def percentile(values: "typing.Sequence[float]", q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ConfigurationError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class WorkloadResult:
    """Everything one multi-client workload run produced.

    Equality compares every field (sessions included), which is what the
    determinism tests rely on: two runs of the same seed must produce
    *identical* results, timestamps and all.
    """

    policy: str
    num_clients: int
    arrival: str
    makespan: float
    submitted: int
    completed: int
    shed: int
    failed: int
    throughput: float
    mean_response_time: float
    p50_response_time: float
    p95_response_time: float
    p99_response_time: float
    mean_queue_delay: float
    total_retries: int
    total_replans: int
    admission: tuple[AdmissionSnapshot, ...] = ()
    cpu_utilizations: dict[str, float] = field(default_factory=dict)
    disk_utilizations: dict[str, float] = field(default_factory=dict)
    network_utilization: float = 0.0
    sessions: "tuple[SessionResult, ...]" = ()
    #: End-of-run snapshot of the topology metrics registry
    #: (site.server1.disk0.pages_read, network.bytes_sent, ...).
    profile: dict[str, float] = field(default_factory=dict)
    #: Sampled time series of the whole workload (per-interval
    #: utilizations, admission queue depths, cache occupancy); None unless
    #: the runner was given a telemetry config.
    telemetry: "Telemetry | None" = None

    @classmethod
    def from_sessions(
        cls,
        sessions: "typing.Sequence[SessionResult]",
        policy: str,
        num_clients: int,
        arrival: str,
        makespan: float,
        admission: tuple[AdmissionSnapshot, ...] = (),
        cpu_utilizations: dict[str, float] | None = None,
        disk_utilizations: dict[str, float] | None = None,
        network_utilization: float = 0.0,
        profile: dict[str, float] | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> "WorkloadResult":
        done = [s for s in sessions if s.status == "completed"]
        times = [s.response_time for s in done]
        retries = sum(s.retries for s in sessions)
        replans = sum(s.replans for s in sessions)
        histogram = StreamingHistogram()
        histogram.record_all(times)
        return cls(
            policy=policy,
            num_clients=num_clients,
            arrival=arrival,
            makespan=makespan,
            submitted=len(sessions),
            completed=len(done),
            shed=sum(1 for s in sessions if s.status == "shed"),
            failed=sum(1 for s in sessions if s.status == "failed"),
            throughput=len(done) / makespan if makespan > 0.0 else 0.0,
            mean_response_time=sum(times) / len(times) if times else 0.0,
            p50_response_time=histogram.quantile(50.0) if times else 0.0,
            p95_response_time=histogram.quantile(95.0) if times else 0.0,
            p99_response_time=histogram.quantile(99.0) if times else 0.0,
            mean_queue_delay=(
                sum(s.queue_delay for s in done) / len(done) if done else 0.0
            ),
            total_retries=retries,
            total_replans=replans,
            admission=admission,
            cpu_utilizations=dict(cpu_utilizations or {}),
            disk_utilizations=dict(disk_utilizations or {}),
            network_utilization=network_utilization,
            sessions=tuple(sessions),
            profile={
                **(profile or {}),
                # The recovery keys ExecutionResult.profile carries too.
                "recovery.retries": retries,
                "recovery.replans": replans,
                "recovery.wasted_work_pages": sum(s.wasted_work_pages for s in sessions),
            },
            telemetry=telemetry,
        )

    @property
    def total_shed(self) -> int:
        """Queries rejected by admission control (alias for ``shed``)."""
        return self.shed

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"throughput={self.throughput:.4f} q/s "
            f"({self.completed}/{self.submitted} completed, {self.shed} shed, "
            f"{self.failed} failed) mean={self.mean_response_time:.3f}s "
            f"p95={self.p95_response_time:.3f}s p99={self.p99_response_time:.3f}s"
        )
