"""Hierarchical metrics registry for simulation runs.

One :class:`MetricsRegistry` collects every statistic of a simulated
system under dotted hierarchical names (``site.server1.disk0.pages_read``,
``network.bytes_sent``, ``recovery.retries``).  It replaces the former
ad-hoc pattern of reaching into hardware objects for loose attributes:
the topology registers its devices once, and :meth:`MetricsRegistry.snapshot`
turns the whole tree into a flat, JSON-friendly ``{name: value}`` dict
that execution and workload results embed as their ``profile``.

Three instrument kinds:

- :class:`~repro.sim.monitor.Counter` -- monotonically increasing counts;
- :class:`~repro.sim.monitor.Tally` -- streaming mean/variance/extrema,
  snapshotted as ``name.count`` / ``name.mean`` / ``name.min`` / ``name.max``;
- :class:`Gauge` -- a zero-cost callable sampled only at snapshot time
  (how existing hardware statistics are pulled in without touching their
  hot paths).
"""

from __future__ import annotations

import typing

from repro.sim.monitor import Counter, Tally

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.topology import Topology

__all__ = ["Gauge", "MetricsRegistry", "register_topology_metrics"]


class Gauge:
    """A named metric sampled on demand from a callable."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: typing.Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    @property
    def value(self) -> float:
        return self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name!r}={self.value}>"


class MetricsRegistry:
    """A flat namespace of instruments with hierarchical dotted names."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Tally | Gauge] = {}

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Fetch (or create) the counter called ``name``."""
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Counter):
            raise TypeError(f"metric {name!r} is a {type(instrument).__name__}, not a Counter")
        return instrument

    def tally(self, name: str) -> Tally:
        """Fetch (or create) the tally called ``name``."""
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Tally(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Tally):
            raise TypeError(f"metric {name!r} is a {type(instrument).__name__}, not a Tally")
        return instrument

    def gauge(self, name: str, fn: typing.Callable[[], float]) -> Gauge:
        """Register (or replace) a sampled gauge called ``name``."""
        instrument = Gauge(name, fn)
        self._instruments[name] = instrument
        return instrument

    def register(self, instrument: "Counter | Tally") -> None:
        """Adopt an existing (named) counter or tally into the registry."""
        if not instrument.name:
            raise ValueError("only named instruments can be registered")
        self._instruments[instrument.name] = instrument

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def value(self, name: str) -> float:
        """Current value of one counter or gauge (tallies have no scalar)."""
        instrument = self._instruments[name]
        if isinstance(instrument, Tally):
            raise TypeError(f"metric {name!r} is a Tally; read its snapshot leaves")
        return float(instrument.value)

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self, prefix: str = "") -> list[str]:
        """Sorted instrument names, optionally below one dotted prefix."""
        if not prefix:
            return sorted(self._instruments)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in self._instruments if n == prefix or n.startswith(dotted))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """Flatten every instrument into ``{dotted_name: value}``.

        Tallies expand into ``.count`` / ``.mean`` / ``.min`` / ``.max``
        leaves; empty tallies contribute only their count.
        """
        out: dict[str, float] = {}
        for name in self.names(prefix):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Tally):
                out[f"{name}.count"] = instrument.count
                if instrument.count:
                    out[f"{name}.mean"] = instrument.mean
                    out[f"{name}.min"] = instrument.minimum
                    out[f"{name}.max"] = instrument.maximum
            else:
                out[name] = instrument.value
        return out

    #: Snapshot leaves that describe a *state* rather than a cumulative
    #: count; a delta against a baseline keeps these absolute.
    _ABSOLUTE_SUFFIXES = (
        "utilization",
        ".mean",
        ".min",
        ".max",
        ".high_water_pages",
        ".resident_pages",
        ".granted",
        ".waiting",
        # Admission-controller occupancy gauges (admission.serverN.*).
        ".queued",
        ".running",
    )

    def snapshot_delta(
        self, baseline: typing.Mapping[str, float], prefix: str = ""
    ) -> dict[str, float]:
        """A snapshot with cumulative values rebased against ``baseline``.

        Counters (and counter-like gauges) are reported as the increase
        since the baseline snapshot, so two back-to-back runs on one
        topology each see only their own activity; utilizations and other
        statistical leaves stay absolute.  Names absent from the baseline
        are treated as starting from zero.
        """
        out = self.snapshot(prefix)
        for name, value in out.items():
            if name.endswith(self._ABSOLUTE_SUFFIXES):
                continue
            out[name] = value - baseline.get(name, 0.0)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetricsRegistry instruments={len(self._instruments)}>"


def register_topology_metrics(registry: MetricsRegistry, topology: "Topology") -> None:
    """Register every hardware statistic of a topology under ``site.*``.

    Called once from :class:`~repro.hardware.topology.Topology`; gauges
    read the live hardware attributes, so snapshots always reflect the
    current simulated state at zero per-event cost.
    """
    for site in topology.sites:
        base = f"site.{site.name}"
        cpu = site.cpu
        registry.gauge(f"{base}.cpu.instructions", lambda c=cpu: c.instructions_executed)
        registry.gauge(f"{base}.cpu.busy_time", lambda c=cpu: c.busy_time)
        registry.gauge(f"{base}.cpu.utilization", lambda c=cpu: c.utilization())
        registry.gauge(
            f"{base}.memory.high_water_pages", lambda m=site.memory: m.high_water_mark
        )
        # Memory-broker occupancy and activity (granted/waiting are state,
        # kept absolute in deltas; the rest are cumulative counters).
        registry.gauge(f"{base}.memory.granted", lambda m=site.memory: m.allocated_pages)
        registry.gauge(f"{base}.memory.waiting", lambda m=site.memory: m.waiting)
        registry.gauge(f"{base}.memory.reclaims", lambda m=site.memory: m.reclaims)
        registry.gauge(
            f"{base}.memory.reclaimed_pages", lambda m=site.memory: m.reclaimed_pages
        )
        registry.gauge(f"{base}.memory.spill_pages", lambda m=site.memory: m.spill_pages)
        registry.gauge(f"{base}.memory.grants_issued", lambda m=site.memory: m.grants_issued)
        registry.gauge(f"{base}.memory.wait_count", lambda m=site.memory: m.wait_count)
        registry.gauge(
            f"{base}.memory.total_wait_time", lambda m=site.memory: m.total_wait_time
        )
        for index, disk in enumerate(site.disks):
            prefix = f"{base}.disk{index}"
            registry.gauge(f"{prefix}.pages_read", lambda d=disk: d.reads)
            registry.gauge(f"{prefix}.pages_written", lambda d=disk: d.writes)
            registry.gauge(f"{prefix}.cache_hits", lambda d=disk: d.cache_hits)
            registry.gauge(f"{prefix}.sequential_ios", lambda d=disk: d.sequential_ios)
            registry.gauge(f"{prefix}.random_ios", lambda d=disk: d.random_ios)
            registry.gauge(f"{prefix}.faulted_requests", lambda d=disk: d.faulted_requests)
            registry.gauge(f"{prefix}.busy_time", lambda d=disk: d.monitor.elapsed_busy_time())
            registry.gauge(f"{prefix}.utilization", lambda d=disk: d.utilization())
            registry.gauge(f"{prefix}.queue_utilization", lambda d=disk: d.queue_utilization())
        registry.gauge(f"{base}.crashes", lambda s=site: s.crash_count)
        registry.gauge(f"{base}.downtime", lambda s=site: s.total_downtime)
        # Cache-consistency activity: always registered (all zero on
        # read-only runs) so profiles have a stable shape either way.
        # Servers accumulate write_pages; clients the other three.
        consistency = f"{base}.consistency"
        registry.gauge(
            f"{consistency}.invalidations", lambda s=site: s.consistency.invalidations
        )
        registry.gauge(
            f"{consistency}.validations", lambda s=site: s.consistency.validations
        )
        registry.gauge(
            f"{consistency}.stale_hits", lambda s=site: s.consistency.stale_hits
        )
        registry.gauge(
            f"{consistency}.write_pages", lambda s=site: s.consistency.write_pages
        )
        if site.is_client:
            # Buffer-cache counters; all zero until a catalog install
            # creates the client's buffer cache.
            cache = f"{base}.cache"
            registry.gauge(
                f"{cache}.hits",
                lambda s=site: s.buffer_cache.hits if s.buffer_cache else 0,
            )
            registry.gauge(
                f"{cache}.misses",
                lambda s=site: s.buffer_cache.misses if s.buffer_cache else 0,
            )
            registry.gauge(
                f"{cache}.evictions",
                lambda s=site: s.buffer_cache.evictions if s.buffer_cache else 0,
            )
            registry.gauge(
                f"{cache}.admissions",
                lambda s=site: s.buffer_cache.admissions if s.buffer_cache else 0,
            )
            registry.gauge(
                f"{cache}.resident_pages",
                lambda s=site: s.buffer_cache.resident_count if s.buffer_cache else 0,
            )
    network = topology.network
    registry.gauge("network.data_pages_sent", lambda: network.data_pages_sent)
    registry.gauge("network.control_messages_sent", lambda: network.control_messages_sent)
    registry.gauge("network.bytes_sent", lambda: network.bytes_sent)
    registry.gauge("network.messages_dropped", lambda: network.messages_dropped)
    registry.gauge("network.outages", lambda: network.outage_count)
    registry.gauge("network.busy_time", lambda: network.busy_time)
    registry.gauge("network.utilization", network.utilization)
