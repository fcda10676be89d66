"""System configuration: the paper's Table 2 parameters plus disk geometry.

The defaults reproduce Table 2 of the paper exactly:

=============  =========  ==================================================
Parameter      Value      Description
=============  =========  ==================================================
Mips           50         CPU speed (10^6 instructions / second)
NumDisks       1          number of disks on a site
DiskInst       5000       instructions to read a page from disk
PageSize       4096       size of one data page (bytes)
NetBw          100        network bandwidth (Mbit / second)
MsgInst        20000      instructions to send / receive a message
PerSizeMI      12000      instructions to send / receive 4096 bytes
Display        0          instructions to display a tuple
Compare        2          instructions to apply a predicate
HashInst       9          instructions to hash a tuple
MoveInst       1          instructions to copy 4 bytes
BufAlloc       min | max  buffer allocated to a join (Shapiro [Sha86])
=============  =========  ==================================================

The disk parameters are not given explicitly in the paper; the authors used
the ZetaSim model with Fujitsu M2266 settings from [PCV94] and report the
calibrated averages: roughly 3.5 ms per page for sequential I/O and 11.8 ms
per page for random I/O.  :class:`DiskParams` defaults are calibrated (see
``tests/hardware/test_disk_calibration.py``) to land on those averages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.caching.config import CacheConfig
from repro.errors import ConfigurationError

__all__ = [
    "BufferAllocation",
    "DiskParams",
    "MemoryConfig",
    "SystemConfig",
    "OptimizerConfig",
    "HYBRID_HASH_FUDGE_FACTOR",
]

# Shapiro's hybrid-hash fudge factor F: minimum allocation is sqrt(F * M)
# buffer frames for an inner relation of M pages (section 3.2.2).
HYBRID_HASH_FUDGE_FACTOR = 1.2


class BufferAllocation(enum.Enum):
    """Join buffer allocation discipline (the paper's ``BufAlloc``)."""

    MINIMUM = "min"
    MAXIMUM = "max"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class MemoryConfig:
    """Join memory governance at each site.

    Every join (and write) holds a grant from its site's
    :class:`~repro.storage.MemoryBroker`.  ``"static"`` is the paper's
    model: a join asks for a fixed grant of its plan-time min/max
    allocation, and a pool too small for it sheds the query.
    ``"dynamic"`` asks for a range ``[minimum, maximum]``, queues
    deterministically when the pool is saturated, and gives pages back
    mid-join (incremental spilling) when the broker reclaims on behalf of
    a waiter.
    """

    mode: str = "static"

    def __post_init__(self) -> None:
        if self.mode not in ("static", "dynamic"):
            raise ConfigurationError(
                f"memory mode must be 'static' or 'dynamic', got {self.mode!r}"
            )

    @property
    def is_dynamic(self) -> bool:
        return self.mode == "dynamic"


@dataclass(frozen=True)
class DiskParams:
    """Geometry and timing of the simulated disk.

    The model distinguishes sequential and random I/O through head position:
    a request for the page immediately following the last physical read skips
    both seek and rotational latency.  A controller cache with track
    read-ahead makes established sequential streams robust to interleaving.
    """

    cylinders: int = 1000
    tracks_per_cylinder: int = 4
    pages_per_track: int = 4
    revolution_time: float = 0.0111  # seconds (about 5400 rpm)
    min_seek_time: float = 0.0015  # seconds; includes settle
    seek_factor: float = 5.9e-6  # seconds per cylinder of travel
    head_switch_time: float = 0.0023  # track-to-track switch in a stream
    controller_cache_pages: int = 64
    read_ahead_pages: int = 3  # prefetched after a sequential read
    cache_hit_time: float = 0.0002  # controller-cache transfer, seconds
    sample_rotation: bool = True  # False: always expected latency (rev/2)

    def __post_init__(self) -> None:
        if min(self.cylinders, self.tracks_per_cylinder, self.pages_per_track) < 1:
            raise ConfigurationError("disk geometry values must be positive")
        if self.revolution_time <= 0:
            raise ConfigurationError("revolution_time must be positive")

    @property
    def pages_per_cylinder(self) -> int:
        return self.tracks_per_cylinder * self.pages_per_track

    @property
    def capacity_pages(self) -> int:
        return self.cylinders * self.pages_per_cylinder

    @property
    def transfer_time(self) -> float:
        """Media transfer time for one page, seconds."""
        return self.revolution_time / self.pages_per_track

    def seek_time(self, distance: int) -> float:
        """Seek duration for a head move of ``distance`` cylinders."""
        if distance <= 0:
            return 0.0
        return self.min_seek_time + self.seek_factor * distance

    @property
    def average_rotational_latency(self) -> float:
        return self.revolution_time / 2.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulator configuration (Table 2 plus topology)."""

    mips: float = 50.0  # 10^6 instructions per second per CPU
    num_disks: int = 1  # disks per site
    disk_inst: int = 5000  # CPU instructions per disk I/O request
    page_size: int = 4096  # bytes
    net_bandwidth_mbit: float = 100.0  # megabits per second
    msg_inst: int = 20000  # fixed CPU instructions per message endpoint
    per_size_mi: int = 12000  # CPU instructions per page_size bytes moved
    display_inst: int = 0  # CPU instructions to display one tuple
    compare_inst: int = 2  # CPU instructions to apply a predicate to a tuple
    hash_inst: int = 9  # CPU instructions to hash one tuple
    move_inst_per_4_bytes: int = 1  # CPU instructions to copy 4 bytes
    buffer_allocation: BufferAllocation = BufferAllocation.MINIMUM
    num_servers: int = 1
    num_clients: int = 1
    disk: DiskParams = field(default_factory=DiskParams)
    # Memory available for join processing at a site, in pages.  Large enough
    # by default that MAXIMUM allocation always fits the benchmark relations.
    client_memory_pages: int = 2048
    server_memory_pages: int = 2048
    # Size of the small control message used to request a faulted page.
    request_message_bytes: int = 128
    # Client caching layer: the paper's static prefix model by default;
    # "dynamic" switches to the demand-paging buffer cache (repro.caching).
    cache: CacheConfig = field(default_factory=CacheConfig)
    # Join memory governance: the paper's static plan-time grants by
    # default; "dynamic" arbitrates through the per-site memory broker.
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    def __post_init__(self) -> None:
        if self.mips <= 0:
            raise ConfigurationError("mips must be positive")
        if self.page_size <= 0:
            raise ConfigurationError("page_size must be positive")
        if self.net_bandwidth_mbit <= 0:
            raise ConfigurationError("net_bandwidth_mbit must be positive")
        if self.num_servers < 1:
            raise ConfigurationError("need at least one server")
        if self.num_clients < 1:
            raise ConfigurationError("need at least one client")
        if self.num_disks < 1:
            raise ConfigurationError("need at least one disk per site")

    # ------------------------------------------------------------------
    # Derived time costs (seconds)
    # ------------------------------------------------------------------
    def instructions_time(self, instructions: float) -> float:
        """CPU seconds to execute ``instructions`` instructions."""
        return instructions / (self.mips * 1e6)

    def move_instructions(self, num_bytes: int) -> float:
        """Instructions to copy ``num_bytes`` bytes in memory."""
        return self.move_inst_per_4_bytes * (num_bytes / 4.0)

    def message_cpu_instructions(self, num_bytes: int) -> float:
        """Fixed plus size-dependent instructions at one message endpoint."""
        return self.msg_inst + self.per_size_mi * (num_bytes / self.page_size)

    def wire_time(self, num_bytes: int) -> float:
        """Time on the wire for a message of ``num_bytes`` bytes."""
        return (num_bytes * 8.0) / (self.net_bandwidth_mbit * 1e6)

    def tuples_per_page(self, tuple_bytes: int) -> int:
        """Whole tuples that fit on a page (no spanning)."""
        if tuple_bytes <= 0:
            raise ConfigurationError("tuple size must be positive")
        per_page = self.page_size // tuple_bytes
        if per_page < 1:
            raise ConfigurationError(
                f"tuple of {tuple_bytes} bytes does not fit in a {self.page_size}-byte page"
            )
        return per_page

    def with_servers(self, num_servers: int) -> "SystemConfig":
        """Copy of this configuration with a different server count."""
        return replace(self, num_servers=num_servers)

    def with_clients(self, num_clients: int) -> "SystemConfig":
        """Copy of this configuration with a different client count."""
        return replace(self, num_clients=num_clients)

    def with_allocation(self, allocation: BufferAllocation) -> "SystemConfig":
        """Copy of this configuration with a different join buffer policy."""
        return replace(self, buffer_allocation=allocation)

    def with_memory(self, memory: "MemoryConfig | str") -> "SystemConfig":
        """Copy of this configuration with a different memory governance."""
        if isinstance(memory, str):
            memory = MemoryConfig(mode=memory)
        return replace(self, memory=memory)


@dataclass(frozen=True)
class OptimizerConfig:
    """Parameters of the randomized two-phase optimizer (2PO, [IK90]).

    Phase one is iterative improvement (II) from ``ii_starts`` random plans;
    phase two runs simulated annealing (SA) from the best II plan.
    """

    ii_starts: int = 8
    # A plan is declared a local minimum after this many consecutive
    # non-improving random moves.
    ii_local_minimum_patience: int = 24
    # SA initial temperature as a fraction of the II-optimum cost ([IK90]
    # start 2PO's SA phase at a low temperature near the optimum).
    sa_initial_temperature_ratio: float = 0.1
    sa_temperature_decay: float = 0.95
    # Moves attempted per temperature stage, multiplied by the join count.
    sa_stage_moves_per_join: int = 12
    # SA is frozen after this many stages without improving the best plan.
    sa_frozen_patience: int = 4
    sa_minimum_temperature_ratio: float = 1e-4
    # Hybrid-shipping optimization also runs 2PO confined to the pure
    # data-/query-shipping subspaces (which Table 1 makes subsets of the
    # hybrid space) and keeps the overall best plan.  This preserves the
    # paper's "hybrid at least matches the better pure policy" property
    # even under small search budgets.
    seed_pure_subspaces: bool = True

    def __post_init__(self) -> None:
        if self.ii_starts < 1:
            raise ConfigurationError("ii_starts must be >= 1")
        if not 0.0 < self.sa_temperature_decay < 1.0:
            raise ConfigurationError("sa_temperature_decay must be in (0, 1)")

    @classmethod
    def paper(cls) -> "OptimizerConfig":
        """Settings close to [IK90] (slow in pure Python; highest quality)."""
        return cls(
            ii_starts=10,
            ii_local_minimum_patience=48,
            sa_initial_temperature_ratio=0.1,
            sa_temperature_decay=0.95,
            sa_stage_moves_per_join=16,
            sa_frozen_patience=4,
        )

    @classmethod
    def fast(cls) -> "OptimizerConfig":
        """Cheaper preset for benchmarks and tests; near-identical plans on
        the paper's workloads (validated in tests against :meth:`paper`)."""
        return cls(
            ii_starts=4,
            ii_local_minimum_patience=16,
            sa_initial_temperature_ratio=0.05,
            sa_temperature_decay=0.9,
            sa_stage_moves_per_join=8,
            sa_frozen_patience=3,
        )
