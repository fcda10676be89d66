"""Stage decomposition of bound plans for response-time estimation.

Following [GHK92], a plan decomposes into *pipeline stages* separated by
blocking operators.  With hybrid-hash joins the blocking boundary is the
build: a join's build stage consumes the whole inner stream; its probe
(merged here with the spilled-partition pass) consumes the outer stream and
produces output, pipelined into the consumer.

Each stage carries a resource-usage vector (seconds of CPU per site, disk
per site, network) plus a *serial latency* for work that cannot overlap --
most importantly the client scan's synchronous page-at-a-time faulting
(section 4.2.3 of the paper turns on exactly this distinction).  A stage's
duration is ``max(latency, max_r usage[r])``; the plan's response time is
the critical path through the stage DAG, floored by the busiest resource's
total usage over the whole plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Resource = tuple[str, int]

__all__ = ["Resource", "ResourceVector", "Stage", "StageGraph", "StreamContribution"]


class ResourceVector(dict):
    """``{(kind, site_id): seconds}`` with in-place accumulation."""

    def add(self, resource: Resource, seconds: float) -> None:
        if seconds:
            self[resource] = self.get(resource, 0.0) + seconds

    def merge(self, other: "ResourceVector") -> None:
        for resource, seconds in other.items():
            self.add(resource, seconds)

    @property
    def bottleneck(self) -> float:
        """Largest single-resource usage (seconds)."""
        return max(self.values(), default=0.0)

    @property
    def total(self) -> float:
        """Sum over all resources (the [ML86]-style total cost)."""
        return sum(self.values())


@dataclass
class Stage:
    """One pipeline stage: concurrent tasks between blocking boundaries."""

    name: str
    usage: ResourceVector = field(default_factory=ResourceVector)
    latency: float = 0.0
    preds: list["Stage"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed time of this stage running alone."""
        return max(self.latency, self.usage.bottleneck)


class StageGraph:
    """The stage DAG of one plan, with schedule-based response time."""

    def __init__(self) -> None:
        self.stages: list[Stage] = []

    def new_stage(self, name: str) -> Stage:
        stage = Stage(name)
        self.stages.append(stage)
        return stage

    def total_usage(self) -> ResourceVector:
        combined = ResourceVector()
        for stage in self.stages:
            combined.merge(stage.usage)
        return combined

    def critical_path(self) -> float:
        """Earliest-finish schedule length ignoring cross-stage contention.

        Stage construction order is a topological order (see
        :meth:`scheduled_makespan`), so one pass finishes every stage.
        """
        finish: dict[int, float] = {}
        for stage in self.stages:
            start = max((finish[id(pred)] for pred in stage.preds), default=0.0)
            finish[id(stage)] = start + stage.duration
        return max(finish.values(), default=0.0)

    def scheduled_makespan(self) -> float:
        """List schedule with per-resource reservation.

        Stages run as early as their predecessors allow, but a stage's claim
        on each physical resource is reserved exclusively for its usage on
        that resource: two concurrent stages hammering the same disk
        serialize (in the engine they time-share, which takes just as
        long), while stages on disjoint resources overlap freely.  Stage
        construction order is a topological order, so a single pass
        suffices.
        """
        finish: dict[int, float] = {}
        resource_free: dict = {}
        for stage in self.stages:
            start = max((finish[id(pred)] for pred in stage.preds), default=0.0)
            start = max(
                [start]
                + [resource_free.get(resource, 0.0) for resource in stage.usage]
            )
            for resource, usage in stage.usage.items():
                resource_free[resource] = start + usage
            finish[id(stage)] = start + stage.duration
        return max(finish.values(), default=0.0)

    def response_time(self) -> float:
        """Response-time estimate [GHK92-style].

        The contention-aware schedule, floored by the plain critical path
        and by the busiest single resource's total usage.
        """
        return max(
            self.scheduled_makespan(),
            self.critical_path(),
            self.total_usage().bottleneck,
        )

    def total_cost(self) -> float:
        return self.total_usage().total

    def describe(self) -> str:
        """Debug rendering of stages, durations, and dependencies."""
        lines = []
        for stage in self.stages:
            preds = ", ".join(p.name for p in stage.preds) or "-"
            lines.append(
                f"{stage.name}: duration={stage.duration * 1000:.1f} ms "
                f"latency={stage.latency * 1000:.1f} ms preds=[{preds}]"
            )
        return "\n".join(lines)


@dataclass
class StreamContribution:
    """Pipelined work accumulated while producing one operator's stream.

    Contributions flow up the plan until a blocking operator (a join build)
    absorbs them into a :class:`Stage`.

    ``spill_preds`` carries the spilled-partition stages of joins feeding
    this stream.  A consumer *overlaps* those stages (it pipelines the
    spilled output as it is produced), but it cannot *finish* before them,
    and a downstream join's own partition pass cannot *start* before them
    -- mirroring the engine, where a hybrid-hash join processes its spilled
    partitions only after its outer input is exhausted.
    """

    usage: ResourceVector = field(default_factory=ResourceVector)
    latency: float = 0.0
    preds: list[Stage] = field(default_factory=list)
    spill_preds: list[Stage] = field(default_factory=list)

    def absorb(self, other: "StreamContribution") -> None:
        self.usage.merge(other.usage)
        self.latency += other.latency
        self.preds.extend(other.preds)
        self.spill_preds.extend(other.spill_preds)

    def into_stage(self, graph: StageGraph, name: str, final: bool = False) -> Stage:
        stage = graph.new_stage(name)
        stage.usage = self.usage
        stage.latency = self.latency
        stage.preds = list(self.preds)
        if final:
            # Completion (not start) waits for all outstanding spill passes.
            stage.preds.extend(self.spill_preds)
        return stage
