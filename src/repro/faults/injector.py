"""Drives a :class:`FaultSchedule` against a live topology.

The injector turns each declarative window into a small simulated process
that sleeps until the window opens, flips the resource down (or degraded),
sleeps until the window closes, and flips it back.  Because the processes
only use :meth:`Environment.timeout`, the whole fault timeline is
deterministic; the only randomness -- message-drop draws -- comes from a
``random.Random`` seeded by the caller.
"""

from __future__ import annotations

import math
import random
import typing

from repro.faults.schedule import FaultSchedule
from repro.sim import Environment
from repro.sim.monitor import Counter

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.topology import Topology

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules every fault of one run as sim-time processes."""

    def __init__(
        self,
        env: Environment,
        topology: "Topology",
        schedule: FaultSchedule,
        seed: int = 0,
    ) -> None:
        self.env = env
        self.topology = topology
        self.schedule = schedule
        self.faults_injected = Counter("faults_injected")
        if schedule.message_drop_probability:
            topology.network.configure_drops(
                schedule.message_drop_probability, random.Random(f"{seed}:drops")
            )
        for index, window in enumerate(schedule.server_crashes):
            site = topology.site(window.site_id)
            env.process(
                self._crash_window(site, window.start, window.end),
                name=f"fault:crash{index}@{site.name}",
            )
        for index, window in enumerate(schedule.network_outages):
            env.process(
                self._outage_window(window.start, window.end),
                name=f"fault:outage{index}",
            )
        for index, window in enumerate(schedule.network_degradations):
            env.process(
                self._degradation_window(window.factor, window.start, window.end),
                name=f"fault:degrade{index}",
            )
        for index, window in enumerate(schedule.disk_slowdowns):
            site = topology.site(window.site_id)
            env.process(
                self._slowdown_window(site, window.factor, window.start, window.end),
                name=f"fault:slowdisk{index}@{site.name}",
            )

    # ------------------------------------------------------------------
    # Window processes
    # ------------------------------------------------------------------
    def _mark(self, name: str, **args: typing.Any) -> None:
        """Drop a fault instant on the trace, when one is being recorded."""
        tracer = self.env.tracer
        if tracer is not None:
            tracer.instant(name, cat="fault", args=args)

    def _crash_window(self, site, start: float, end: float) -> typing.Generator:
        yield self.env.timeout(start - self.env.now)
        site.crash()
        self.faults_injected.add()
        self._mark("crash", site=site.name)
        if math.isfinite(end):
            yield self.env.timeout(end - self.env.now)
            site.restart()
            self._mark("restart", site=site.name)

    def _outage_window(self, start: float, end: float) -> typing.Generator:
        network = self.topology.network
        yield self.env.timeout(start - self.env.now)
        network.set_down()
        self.faults_injected.add()
        self._mark("network-down")
        if math.isfinite(end):
            yield self.env.timeout(end - self.env.now)
            network.set_up()
            self._mark("network-up")

    def _degradation_window(
        self, factor: float, start: float, end: float
    ) -> typing.Generator:
        network = self.topology.network
        yield self.env.timeout(start - self.env.now)
        network.degrade(factor)
        self.faults_injected.add()
        self._mark("network-degraded", factor=factor)
        if math.isfinite(end):
            yield self.env.timeout(end - self.env.now)
            network.degrade(1.0)
            self._mark("network-restored")

    def _slowdown_window(
        self, site, factor: float, start: float, end: float
    ) -> typing.Generator:
        yield self.env.timeout(start - self.env.now)
        for disk in site.disks:
            disk.slow_factor = factor
        self.faults_injected.add()
        self._mark("disk-slowdown", site=site.name, factor=factor)
        if math.isfinite(end):
            yield self.env.timeout(end - self.env.now)
            for disk in site.disks:
                disk.slow_factor = 1.0
            self._mark("disk-restored", site=site.name)

    def down_servers(self) -> set[int]:
        """Ids of servers currently crashed (for replanning exclusions)."""
        return {s.site_id for s in self.topology.servers if not s.up}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultInjector injected={self.faults_injected.value}>"
