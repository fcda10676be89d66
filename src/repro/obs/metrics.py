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
  hot paths).  Topology gauges come from module-level ``(leaf, getter)``
  tables applied to each site, disk and client (:meth:`MetricsRegistry.gauges`):
  a device is one registry entry holding its owner and a
  ``{name: getter}`` map that is built once per (prefix, table) and shared
  by every topology, so runs of one shape share their metric names --
  and the profiles they snapshot share their keys.
"""

from __future__ import annotations

import functools
import typing
from operator import attrgetter, methodcaller

from repro.sim.monitor import Counter, Tally

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.disk import Disk
    from repro.hardware.network import Network
    from repro.hardware.site import Site
    from repro.hardware.topology import Topology

__all__ = ["Gauge", "MetricsRegistry", "register_topology_metrics"]


class Gauge:
    """A named metric sampled on demand: ``fn()``."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: typing.Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    @property
    def value(self) -> float:
        return self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name!r}={self.value}>"


class _DeviceGauges:
    """Every gauge of one device: ``getters[name](owner)`` per name."""

    __slots__ = ("getters", "owner")

    def __init__(
        self, getters: dict[str, typing.Callable[[typing.Any], float]], owner: typing.Any
    ) -> None:
        self.getters = getters
        self.owner = owner

    def read(self, name: str) -> float:
        return self.getters[name](self.owner)


class MetricsRegistry:
    """A flat namespace of instruments with hierarchical dotted names."""

    def __init__(self) -> None:
        # One entry per name; a device's gauges all map to its one
        # _DeviceGauges entry.
        self._instruments: dict[str, Counter | Tally | Gauge | _DeviceGauges] = {}

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

    def gauges(
        self,
        prefix: str,
        owner: typing.Any,
        table: typing.Iterable[tuple[str, typing.Callable[[typing.Any], float]]],
    ) -> None:
        """Register (or replace) ``prefix.<leaf>`` as ``getter(owner)`` for
        every ``(leaf, getter)`` of ``table``, as one entry for ``owner``."""
        getters = _table_getters(prefix, tuple(table))
        entry = _DeviceGauges(getters, owner)
        for name in getters:
            self._instruments[name] = entry

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
        if type(instrument) is _DeviceGauges:
            return float(instrument.read(name))
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
            if type(instrument) is _DeviceGauges:
                out[name] = instrument.read(name)
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


def _cache_reader(attribute: str) -> typing.Callable[["Site"], int]:
    """Getter for one buffer-cache statistic; 0 until a cache exists."""
    read = attrgetter(attribute)

    def getter(site: "Site") -> int:
        cache = site.buffer_cache
        return read(cache) if cache else 0

    return getter


#: ``(leaf, getter)`` pairs registered as ``site.<name>.<leaf>``, read from
#: the site.  Memory-broker ``granted``/``waiting`` are state (kept absolute
#: in deltas); the rest are cumulative counters.  The consistency leaves
#: are always registered (all zero on read-only runs) so profiles have a
#: stable shape: servers accumulate ``write_pages``, clients the others.
SITE_GAUGES: tuple[tuple[str, typing.Callable[["Site"], float]], ...] = (
    ("cpu.instructions", attrgetter("cpu.instructions_executed")),
    ("cpu.busy_time", attrgetter("cpu.busy_time")),
    ("cpu.utilization", lambda site: site.cpu.utilization()),
    ("memory.high_water_pages", attrgetter("memory.high_water_mark")),
    ("memory.granted", attrgetter("memory.allocated_pages")),
    ("memory.waiting", attrgetter("memory.waiting")),
    ("memory.reclaims", attrgetter("memory.reclaims")),
    ("memory.reclaimed_pages", attrgetter("memory.reclaimed_pages")),
    ("memory.spill_pages", attrgetter("memory.spill_pages")),
    ("memory.grants_issued", attrgetter("memory.grants_issued")),
    ("memory.wait_count", attrgetter("memory.wait_count")),
    ("memory.total_wait_time", attrgetter("memory.total_wait_time")),
    ("crashes", attrgetter("crash_count")),
    ("downtime", attrgetter("total_downtime")),
    ("consistency.invalidations", attrgetter("consistency.invalidations")),
    ("consistency.validations", attrgetter("consistency.validations")),
    ("consistency.stale_hits", attrgetter("consistency.stale_hits")),
    ("consistency.write_pages", attrgetter("consistency.write_pages")),
)

#: Registered as ``site.<name>.disk<i>.<leaf>``, read from the disk.
DISK_GAUGES: tuple[tuple[str, typing.Callable[["Disk"], float]], ...] = (
    ("pages_read", attrgetter("reads")),
    ("pages_written", attrgetter("writes")),
    ("cache_hits", attrgetter("cache_hits")),
    ("sequential_ios", attrgetter("sequential_ios")),
    ("random_ios", attrgetter("random_ios")),
    ("faulted_requests", attrgetter("faulted_requests")),
    ("busy_time", lambda disk: disk.monitor.elapsed_busy_time()),
    ("utilization", methodcaller("utilization")),
    ("queue_utilization", methodcaller("queue_utilization")),
)

#: Client sites only: buffer-cache counters, all zero until a catalog
#: install creates the client's buffer cache.
CLIENT_GAUGES: tuple[tuple[str, typing.Callable[["Site"], float]], ...] = (
    ("cache.hits", _cache_reader("hits")),
    ("cache.misses", _cache_reader("misses")),
    ("cache.evictions", _cache_reader("evictions")),
    ("cache.admissions", _cache_reader("admissions")),
    ("cache.resident_pages", _cache_reader("resident_count")),
)

#: Registered as ``network.<leaf>``, read from the network.
NETWORK_GAUGES: tuple[tuple[str, typing.Callable[["Network"], float]], ...] = (
    ("data_pages_sent", attrgetter("data_pages_sent")),
    ("control_messages_sent", attrgetter("control_messages_sent")),
    ("bytes_sent", attrgetter("bytes_sent")),
    ("messages_dropped", attrgetter("messages_dropped")),
    ("outages", attrgetter("outage_count")),
    ("busy_time", attrgetter("busy_time")),
    ("utilization", methodcaller("utilization")),
)


@functools.lru_cache(maxsize=None)
def _table_getters(
    prefix: str, table: tuple[tuple[str, typing.Callable[[typing.Any], float]], ...]
) -> dict[str, typing.Callable[[typing.Any], float]]:
    """``{prefix.<leaf>: getter}`` for one table, built once per (prefix,
    table): every registry registering it shares these name strings.

    Read-only for callers.  The cache grows with the distinct device names
    seen (a few per site), not with the number of runs.
    """
    return {f"{prefix}.{leaf}": getter for leaf, getter in table}


def register_topology_metrics(registry: MetricsRegistry, topology: "Topology") -> None:
    """Register every hardware statistic of a topology under ``site.*``.

    Called once from :class:`~repro.hardware.topology.Topology`; gauges
    read the live hardware attributes, so snapshots always reflect the
    current simulated state at zero per-event cost.
    """
    for site in topology.sites:
        base = f"site.{site.name}"
        registry.gauges(base, site, SITE_GAUGES)
        for index, disk in enumerate(site.disks):
            registry.gauges(f"{base}.disk{index}", disk, DISK_GAUGES)
        if site.is_client:
            registry.gauges(base, site, CLIENT_GAUGES)
    registry.gauges("network", topology.network, NETWORK_GAUGES)
