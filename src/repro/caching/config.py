"""Configuration of the client caching layer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.caching.policies import POLICY_NAMES
from repro.errors import ConfigurationError

__all__ = ["CacheConfig"]


@dataclass(frozen=True)
class CacheConfig:
    """How client sites cache server data.

    Every client caches in a page-grained
    :class:`~repro.caching.buffer.BufferCache` on its disk, seeded with the
    catalog's cache fractions (a contiguous prefix of each relation)
    before any query runs.

    ``mode="static"`` is the paper's footnote-8 model: the cache holds
    exactly the seeded prefixes and never admits a faulted-in page, so
    its contents change only when a write invalidates a page.  The figure
    reproductions all use it.

    ``mode="dynamic"`` adds demand paging: client scans admit every
    faulted-in page, and a replacement policy evicts once
    ``capacity_pages`` is exceeded.  ``capacity_pages=None`` sizes the
    cache to hold the whole database (nothing ever evicts -- pure warm-up
    behaviour).
    """

    mode: str = "static"
    capacity_pages: int | None = None
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.mode not in ("static", "dynamic"):
            raise ConfigurationError(
                f"cache mode must be 'static' or 'dynamic', got {self.mode!r}"
            )
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown replacement policy {self.policy!r}; choose from {POLICY_NAMES}"
            )
        if self.capacity_pages is not None and self.capacity_pages < 0:
            raise ConfigurationError(
                f"capacity_pages must be >= 0, got {self.capacity_pages}"
            )

    @property
    def is_dynamic(self) -> bool:
        return self.mode == "dynamic"
