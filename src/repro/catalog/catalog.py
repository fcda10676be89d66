"""The catalog ties schemas, placement, and client caching together."""

from __future__ import annotations

import typing

from repro.caching.buffer import BufferCache
from repro.catalog.placement import Placement
from repro.catalog.schema import Relation
from repro.config import SystemConfig
from repro.errors import CatalogError
from repro.hardware.topology import Topology

__all__ = ["Catalog"]


class Catalog:
    """All metadata an optimizer or executor needs about the database.

    A catalog is *logical* until :meth:`install` materialises it on a
    :class:`~repro.hardware.topology.Topology`: primary copies get disk
    extents on their servers and cached prefixes are seeded into each
    client's buffer cache.  The optimizer reads the same catalog, so an
    optimizer can be handed a *different* (wrong) catalog to model stale
    compile-time knowledge, as in the paper's 2-step experiments
    (section 5).
    """

    def __init__(
        self,
        relations: list[Relation],
        placement: Placement,
        cache_fractions: dict[str, float] | None = None,
    ) -> None:
        self._relations: dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self._relations:
                raise CatalogError(f"duplicate relation {relation.name!r}")
            self._relations[relation.name] = relation
        for name in placement.assignments:
            if name not in self._relations:
                raise CatalogError(f"placement references unknown relation {name!r}")
        for name in self._relations:
            if name not in placement:
                raise CatalogError(f"relation {name!r} has no placement")
        self.placement = placement
        self.cache_fractions = dict(cache_fractions or {})
        for name, fraction in self.cache_fractions.items():
            if name not in self._relations:
                raise CatalogError(f"cache entry references unknown relation {name!r}")
            if not 0.0 <= fraction <= 1.0:
                raise CatalogError(f"cache fraction for {name!r} must be in [0, 1]")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"unknown relation {name!r}") from None

    @property
    def relation_names(self) -> list[str]:
        return sorted(self._relations)

    def server_of(self, name: str) -> int:
        """Id of the server holding the primary copy of ``name``."""
        self.relation(name)
        return self.placement.server_of(name)

    def servers_of(self, name: str) -> tuple[int, ...]:
        """All servers holding a copy of ``name`` (primary first)."""
        self.relation(name)
        return self.placement.servers_of(name)

    def pages_of(self, name: str, config: SystemConfig) -> int:
        return self.relation(name).pages(config)

    def cached_fraction(self, name: str) -> float:
        self.relation(name)
        return self.cache_fractions.get(name, 0.0)

    def cached_pages_of(self, name: str, config: SystemConfig) -> int:
        """Pages of ``name`` in the client disk cache (contiguous prefix)."""
        return round(self.pages_of(name, config) * self.cached_fraction(name))

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def install(
        self,
        topology: Topology,
        client_caches: "dict[int, dict[str, float]] | None" = None,
    ) -> None:
        """Create primary copies on servers and cached prefixes at the clients.

        Every client site receives this catalog's ``cache_fractions`` by
        default; ``client_caches`` overrides the per-relation fractions for
        individual clients (keyed by client *site id*: 0, -1, -2, ...), so
        multi-client workloads can give each client its own cache contents.
        """
        config = topology.config
        for name in self.relation_names:
            for server_id in self.placement.servers_of(name):
                if server_id > len(topology.servers):
                    raise CatalogError(
                        f"relation {name!r} placed on server {server_id} but the "
                        f"topology has only {len(topology.servers)} servers"
                    )
                topology.site(server_id).store_relation(
                    name, self.pages_of(name, config)
                )
        overrides = client_caches or {}
        for unknown in set(overrides) - {site.site_id for site in topology.clients}:
            raise CatalogError(f"cache override for unknown client site {unknown}")
        for client in topology.clients:
            self._install_cache(client, config, overrides.get(client.site_id))

    def _install_cache(
        self,
        client: "typing.Any",
        config: SystemConfig,
        fractions: dict[str, float] | None,
    ) -> None:
        """Create (or keep) a client's buffer cache, seeding prefixes.

        The catalog's cache fractions (or the per-client override) become
        *seeded* resident pages, relation by relation -- seeded data is
        assumed resident before any query runs, so no I/O is simulated for
        it.  A static cache holds exactly those pages and never admits; a
        dynamic one has ``config.cache.capacity_pages`` (default: the whole
        database) and admits faulted-in pages.  An existing buffer cache is
        kept as-is: its contents are the whole point of persisting across
        installs.
        """
        if client.buffer_cache is not None:
            return
        prefixes = []
        for name in self.relation_names:
            fraction = self.cached_fraction(name) if fractions is None else fractions.get(name, 0.0)
            if not 0.0 <= fraction <= 1.0:
                raise CatalogError(f"cache fraction must be in [0, 1], got {fraction}")
            prefixes.append((name, round(self.pages_of(name, config) * fraction)))
        if config.cache.is_dynamic:
            capacity = config.cache.capacity_pages
            if capacity is None:
                capacity = sum(self.pages_of(name, config) for name in self.relation_names)
        else:
            capacity = sum(pages for _, pages in prefixes)
        client.buffer_cache = BufferCache(
            client.allocators[0],
            capacity,
            policy=config.cache.policy,
            admits=config.cache.is_dynamic,
        )
        for name, pages in prefixes:
            if pages > 0:
                client.buffer_cache.seed(name, pages)

    def with_placement(self, placement: Placement) -> "Catalog":
        """Copy of this catalog under a different placement (for 2-step)."""
        return Catalog(list(self._relations.values()), placement, self.cache_fractions)

    def with_cache(self, cache_fractions: dict[str, float]) -> "Catalog":
        """Copy of this catalog with different client-cache contents."""
        return Catalog(list(self._relations.values()), self.placement, cache_fractions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Catalog relations={len(self._relations)}>"
