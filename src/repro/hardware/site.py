"""Sites: client and server machines.

Clients and servers "are similar in that they both have memory, CPU, disk
resources, a buffer manager, and a query execution engine" (section 3.2.1),
but differ in role: queries are submitted and displayed at the client, whose
disk holds only cached copies and temporary join storage; servers manage the
primary copies of relations (each on exactly one server -- no declustering,
no replication) and also use their disks for join temp space.
"""

from __future__ import annotations

import enum
import functools
import random
import typing

from repro.config import SystemConfig
from repro.consistency.stats import ConsistencyStats
from repro.errors import CatalogError, SiteUnavailableError
from repro.hardware.cpu import CPU
from repro.hardware.disk import Disk
from repro.sim import Environment
from repro.storage.layout import Extent, ExtentAllocator
from repro.storage.memory import MemoryBroker

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.caching.buffer import BufferCache

__all__ = [
    "Site",
    "SiteKind",
    "TempFile",
    "CLIENT_SITE_ID",
    "client_site_id",
    "is_client_site_id",
    "site_name",
]

#: Site id of the first (and, in single-client runs, only) client.
CLIENT_SITE_ID = 0


def client_site_id(ordinal: int) -> int:
    """Site id of client number ``ordinal`` (0-based).

    Clients occupy the non-positive ids (0, -1, -2, ...) so that server ids
    stay 1..num_servers regardless of how many clients are simulated.
    """
    if ordinal < 0:
        raise CatalogError(f"client ordinal must be >= 0, got {ordinal}")
    return -ordinal


def is_client_site_id(site_id: int) -> bool:
    """True for ids in the client range (servers are strictly positive)."""
    return site_id <= 0


def site_name(site_id: int) -> str:
    """Canonical display name of a site id (shared with :class:`Site`).

    Used wherever a site must be named without a live topology -- e.g.
    operator labels generated while planning (``scan[RelA]@server1``).
    """
    if site_id > 0:
        return f"server{site_id}"
    return "client" if site_id == CLIENT_SITE_ID else f"client{-site_id}"


class SiteKind(enum.Enum):
    CLIENT = "client"
    SERVER = "server"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TempFile:
    """A temporary disk extent (e.g. one hybrid-hash partition file)."""

    __slots__ = ("site", "disk_index", "extent", "_released", "pages_written")

    def __init__(self, site: "Site", disk_index: int, extent: Extent) -> None:
        self.site = site
        self.disk_index = disk_index
        self.extent = extent
        self._released = False
        self.pages_written = 0

    @property
    def disk(self) -> Disk:
        return self.site.disks[self.disk_index]

    def page(self, index: int) -> int:
        return self.extent.page(index)

    def release(self) -> None:
        """Free the extent (idempotent)."""
        if not self._released:
            self.site.allocators[self.disk_index].free(self.extent)
            self._released = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TempFile site={self.site.site_id} pages={self.extent.pages}>"


class Site:
    """One machine: CPU, disk(s), buffer memory, and stored relations."""

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        site_id: int,
        kind: SiteKind,
        rng: random.Random,
    ) -> None:
        self.env = env
        self.config = config
        self.site_id = site_id
        self.kind = kind
        # Client ordinal i has id -i; the first client keeps the
        # historical bare name "client".
        self.name = site_name(site_id)
        self.cpu = CPU(env, config.mips, name=f"{self.name}.cpu")
        self.disks = [
            Disk(
                env,
                config.disk,
                name=f"{self.name}.disk{d}",
                rng=random.Random(rng.randrange(2**62)),
            )
            for d in range(config.num_disks)
        ]
        self.allocators = [ExtentAllocator(config.disk.capacity_pages) for _ in self.disks]
        memory_pages = (
            config.client_memory_pages if kind is SiteKind.CLIENT else config.server_memory_pages
        )
        # Every join and write holds a grant from this broker; the static
        # discipline asks for fixed grants that shed instead of queueing.
        self.memory = MemoryBroker(env, memory_pages, name=f"{self.name}.memory")
        env.debug_dumpers.append(self.memory.describe_pressure)
        env.stall_handlers.append(self.memory.shed_stalled_waiter)
        # Primary copies stored at this site: relation -> (disk index, extent).
        self._relations: dict[str, tuple[int, Extent]] = {}
        self._next_disk = 0
        # Client disk cache (servers do no inter-query caching, 3.2.1);
        # created by Catalog.install, static or dynamic per the config.
        self.buffer_cache: "BufferCache | None" = None
        # Consistency-protocol counters (all zero in read-only runs):
        # clients count invalidations/validations/stale hits, servers
        # count pages written to their copy.
        self.consistency = ConsistencyStats()
        # Availability (driven by the fault injector; always up by default).
        self.up = True
        self.crash_count = 0
        self.total_downtime = 0.0
        self._down_since: float | None = None

    @property
    def is_client(self) -> bool:
        return self.kind is SiteKind.CLIENT

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the site down; every in-flight disk request fails.

        Volatile state (CPU queue, controller caches) is conceptually lost;
        at the page granularity the engine models, failing outstanding I/O
        and refusing new work until :meth:`restart` captures that.
        """
        if self.is_client:
            raise SiteUnavailableError("the client site cannot crash", self.site_id)
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        self._down_since = self.env.now
        # The disks keep the factory while the site is down, so it must not
        # hold the site: a bound method would close a cycle through it.
        make_error = functools.partial(
            SiteUnavailableError, self._down_message(), self.site_id
        )
        for disk in self.disks:
            disk.power_off(make_error)

    def restart(self) -> None:
        """Bring a crashed site back up (primary copies survive on disk)."""
        if self.up:
            return
        self.up = True
        if self._down_since is not None:
            self.total_downtime += self.env.now - self._down_since
            self._down_since = None
        for disk in self.disks:
            disk.power_on()

    def unavailable_error(self) -> SiteUnavailableError:
        return SiteUnavailableError(self._down_message(), self.site_id)

    def _down_message(self) -> str:
        return f"site {self.name!r} is down (crashed at t={self._down_since})"

    def check_available(self) -> None:
        """Raise :class:`SiteUnavailableError` if this site is crashed."""
        if not self.up:
            raise self.unavailable_error()

    @property
    def disk(self) -> Disk:
        """The site's first (usually only) disk."""
        return self.disks[0]

    # ------------------------------------------------------------------
    # Primary copies
    # ------------------------------------------------------------------
    def store_relation(self, relation: str, pages: int) -> Extent:
        """Allocate disk space for a copy (primary or replica) of ``relation``."""
        if self.is_client:
            raise CatalogError("no primary copies are stored at the client (section 3.2.1)")
        if relation in self._relations:
            raise CatalogError(f"relation {relation!r} already stored at {self.name}")
        disk_index = self._next_disk
        self._next_disk = (self._next_disk + 1) % len(self.disks)
        extent = self.allocators[disk_index].allocate(pages)
        self._relations[relation] = (disk_index, extent)
        return extent

    def relation_location(self, relation: str) -> tuple[int, Extent]:
        """Disk index and extent of a relation's primary copy at this site."""
        try:
            return self._relations[relation]
        except KeyError:
            raise CatalogError(f"relation {relation!r} is not stored at {self.name}") from None

    def stores(self, relation: str) -> bool:
        return relation in self._relations

    @property
    def stored_relations(self) -> list[str]:
        return sorted(self._relations)

    # ------------------------------------------------------------------
    # Temporary storage
    # ------------------------------------------------------------------
    def allocate_temp(self, pages: int, disk_index: int = 0) -> TempFile:
        """Carve a temp file (join partition, spooled stream) on a disk."""
        extent = self.allocators[disk_index].allocate(pages)
        return TempFile(self, disk_index, extent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Site {self.name!r}>"
