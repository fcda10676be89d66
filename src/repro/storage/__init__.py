"""Storage management: disk extents and buffer memory."""

from repro.storage.layout import Extent, ExtentAllocator
from repro.storage.memory import (
    HybridHashPlan,
    MemoryBroker,
    MemoryGrant,
    MemoryPressureState,
    plan_hybrid_hash,
)

__all__ = [
    "Extent",
    "ExtentAllocator",
    "HybridHashPlan",
    "MemoryBroker",
    "MemoryGrant",
    "MemoryPressureState",
    "plan_hybrid_hash",
]
