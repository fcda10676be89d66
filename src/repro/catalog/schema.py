"""Relation schemas and size arithmetic.

The benchmark relations have 10,000 tuples of 100 bytes (section 3.3); with
4096-byte pages and no tuple spanning that is 40 tuples per page and 250
pages per relation, matching the page counts the paper reports (e.g. a
250-page join result in Figure 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.errors import CatalogError

__all__ = ["Relation"]


@dataclass(frozen=True)
class Relation:
    """A base relation: name, cardinality, and tuple width in bytes."""

    name: str
    tuples: int
    tuple_bytes: int = 100

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("relation name must be non-empty")
        if self.tuples < 0:
            raise CatalogError(f"negative cardinality for {self.name!r}")
        if self.tuple_bytes <= 0:
            raise CatalogError(f"non-positive tuple size for {self.name!r}")

    def tuples_per_page(self, config: SystemConfig) -> int:
        return config.tuples_per_page(self.tuple_bytes)

    def pages(self, config: SystemConfig) -> int:
        """Number of pages occupied (whole tuples only, no spanning)."""
        if self.tuples == 0:
            return 0
        return math.ceil(self.tuples / self.tuples_per_page(config))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
