"""Cache-consistency protocols: invalidation callbacks vs detection on access.

A :class:`ConsistencyManager` sits on the topology (``topology.consistency``,
None in read-only runs) and owns the global :class:`VersionTable`.  Writes
call :meth:`ConsistencyManager.commit_write`; client scans call
:meth:`ConsistencyManager.validate_hit` before serving a cached page.

The invariant both protocols uphold -- asserted by the consistency tests --
is that a stale page is **never served**: ``validate_hit`` compares the
cached version stamp against the version table on every hit, so even a
page that a callback has not reached yet (the callback messages are real
simulated traffic and take wire time) is detected locally, counted as a
``stale_hit``, dropped from the cache, and re-faulted from the server.
``stale_served`` exists only to prove the negative: nothing ever
increments it on a correct protocol.
"""

from __future__ import annotations

import typing

from repro.consistency.config import ConsistencyConfig
from repro.consistency.versions import VersionTable
from repro.errors import ConfigurationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.site import Site
    from repro.hardware.topology import Topology

__all__ = [
    "ConsistencyManager",
    "InvalidationProtocol",
    "DetectionProtocol",
    "make_protocol",
]


class ConsistencyManager:
    """Base protocol: version bookkeeping plus the two hook points."""

    name = "?"

    def __init__(self, topology: "Topology") -> None:
        # The parts of the topology the protocols use, not the topology
        # itself: the topology holds this manager, and a reference back
        # would put the whole system in a cycle.
        self.env = topology.env
        self.network = topology.network
        self.clients = topology.clients
        self.versions = VersionTable()
        #: Stale pages returned to a query.  Must stay 0; the read/write
        #: tests assert it (the protocols detect staleness instead).
        self.stale_served = 0

    def current_version(self, relation: str, page_index: int) -> int:
        return self.versions.version(relation, page_index)

    # ------------------------------------------------------------------
    # Hook points
    # ------------------------------------------------------------------
    def commit_write(
        self, primary: "Site", relation: str, page_indexes: typing.Sequence[int]
    ) -> typing.Generator:
        """Commit written pages at the acting primary (simulation process)."""
        raise NotImplementedError

    def validate_hit(
        self, client: "Site", home: "Site", relation: str, page_index: int
    ) -> typing.Generator:
        """Decide whether a cache hit may be served (returns bool).

        A False return means the cached copy was stale: the page has been
        invalidated and counted, and the caller must fall through to the
        demand-paging fault path.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_freshness(
        self, client: "Site", relation: str, page_index: int
    ) -> bool:
        """Local version compare; drops and counts a stale copy."""
        cache = client.buffer_cache
        assert cache is not None
        cached = cache.version_of(relation, page_index)
        if cached == self.versions.version(relation, page_index):
            return True
        client.consistency.stale_hits += 1
        cache.invalidate(relation, page_index)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} versions={len(self.versions)}>"


class InvalidationProtocol(ConsistencyManager):
    """Server-initiated callbacks: commit broadcasts invalidations.

    Commit order matters: versions are bumped *first*, then the callbacks
    go out.  A client that faults the page mid-broadcast therefore admits
    it at the new version (fresh); a client the callback has not reached
    yet fails the local version compare on its next hit and re-faults.
    Either way no stale page is served.
    """

    name = "invalidation"

    def commit_write(
        self, primary: "Site", relation: str, page_indexes: typing.Sequence[int]
    ) -> typing.Generator:
        network = self.network
        tracer = self.env.tracer
        for index in page_indexes:
            self.versions.bump(relation, index)
        span = None
        if tracer is not None:
            span = tracer.begin(
                f"invalidate[{relation}]",
                cat="consistency",
                args={"relation": relation, "pages": len(page_indexes)},
            )
        try:
            for index in page_indexes:
                for client in self.clients:
                    cache = client.buffer_cache
                    if cache is None or not cache.contains(relation, index):
                        continue
                    yield from network.send_request(primary, client)
                    if cache.invalidate(relation, index):
                        client.consistency.invalidations += 1
        finally:
            if tracer is not None:
                tracer.end(span)

    def validate_hit(
        self, client: "Site", home: "Site", relation: str, page_index: int
    ) -> typing.Generator:
        # Callbacks keep caches clean, so hits are free; the local compare
        # only catches the callback-in-flight window.
        return self._check_freshness(client, relation, page_index)
        yield  # pragma: no cover - generator protocol


class DetectionProtocol(ConsistencyManager):
    """Client-initiated validation: every cache hit checks with the server.

    Commit is cheap (version bumps only); the read path pays one control
    round trip per hit to ask the owning server whether its cached version
    is still current.
    """

    name = "detection"

    def commit_write(
        self, primary: "Site", relation: str, page_indexes: typing.Sequence[int]
    ) -> typing.Generator:
        for index in page_indexes:
            self.versions.bump(relation, index)
        return
        yield  # pragma: no cover - generator protocol

    def validate_hit(
        self, client: "Site", home: "Site", relation: str, page_index: int
    ) -> typing.Generator:
        network = self.network
        tracer = self.env.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                f"validate[{relation}#{page_index}]",
                cat="consistency",
                args={"relation": relation, "page": page_index},
            )
        try:
            yield from network.send_request(client, home)
            yield from network.send_request(home, client)
        finally:
            if tracer is not None:
                tracer.end(span)
        client.consistency.validations += 1
        return self._check_freshness(client, relation, page_index)


def make_protocol(
    config: "ConsistencyConfig | str", topology: "Topology"
) -> ConsistencyManager:
    """Instantiate the configured protocol for one topology."""
    if isinstance(config, str):
        config = ConsistencyConfig(protocol=config)
    if config.protocol == "invalidation":
        return InvalidationProtocol(topology)
    if config.protocol == "detection":
        return DetectionProtocol(topology)
    raise ConfigurationError(
        f"unknown consistency protocol {config.protocol!r}"
    )  # pragma: no cover - ConsistencyConfig already validates
