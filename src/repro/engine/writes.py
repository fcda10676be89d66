"""Write operators: UPDATE, INSERT, and DELETE with primary-copy write-through.

The paper's engine is read-only; these operators open the write axis.  A
write is driven from the client like a query, but its work happens at the
servers: each dirtied page travels to the *acting primary* (the first
reachable server holding a copy of the relation), is applied to the
primary's disk, propagated synchronously to every other reachable replica
(primary-copy write-through), committed through the topology's
:class:`~repro.consistency.protocol.ConsistencyManager` (which bumps page
versions and, under the invalidation protocol, broadcasts callbacks to
caching clients), and acknowledged back to the writer.

Granularity matches the engine: page-level dirtying, one page per
``next()`` call.  Relation sizes are fixed by the catalog, so INSERT
models appends into the relation's tail pages and DELETE leaves
tombstones -- neither grows nor shrinks the extent, which keeps the
read-side cost model untouched.

Writers participate in memory governance like joins do: each write holds
a broker grant for its page buffer at the acting primary -- one fixed page
under static memory, up to one page per dirtied page under dynamic memory
-- so a write-heavy mix contends for server memory alongside query
operators.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.engine.base import Page, PhysicalOp
from repro.errors import ExecutionError, NoReachableReplicaError
from repro.storage.memory import grant_range

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import ExecutionContext
    from repro.hardware.site import Site
    from repro.storage.memory import MemoryGrant

__all__ = [
    "WriteSpec",
    "WriteIterator",
    "UpdateIterator",
    "InsertIterator",
    "DeleteIterator",
    "make_write_iterator",
    "WRITE_KINDS",
]

WRITE_KINDS = ("delete", "insert", "update")


@dataclass(frozen=True)
class WriteSpec:
    """One write statement: which pages of which relation get dirtied."""

    kind: str
    relation: str
    page_indexes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in WRITE_KINDS:
            raise ExecutionError(
                f"unknown write kind {self.kind!r}; choose from {WRITE_KINDS}"
            )
        if not self.page_indexes:
            raise ExecutionError(f"{self.kind} of {self.relation!r} dirties no pages")
        for index in self.page_indexes:
            if index < 0:
                raise ExecutionError(f"negative page index {index}")


class WriteIterator(PhysicalOp):
    """Base write operator: one dirtied page per ``next()`` call.

    Subclasses differ only in what the page application costs: UPDATE and
    DELETE read-modify-write the target page, INSERT appends (write only),
    and UPDATE/INSERT ship the new page contents to the server while
    DELETE ships just the command.
    """

    kind = "?"
    #: Whether applying a page requires reading it first (read-modify-write).
    reads_page = True
    #: Whether the client ships a full data page (vs a control message).
    ships_page = True

    def __init__(
        self,
        context: "ExecutionContext",
        site: "Site",
        spec: WriteSpec,
    ) -> None:
        super().__init__(context, site)
        if not site.is_client:
            raise ExecutionError("writes are driven from a client site")
        self.spec = spec
        self.relation = spec.relation
        schema = context.catalog.relation(spec.relation)
        self.tuple_bytes = schema.tuple_bytes
        self.tuples_per_page = context.config.tuples_per_page(schema.tuple_bytes)
        total_pages = schema.pages(context.config)
        for index in spec.page_indexes:
            if index >= total_pages:
                raise ExecutionError(
                    f"{self.kind} of {spec.relation!r} page {index}, but the "
                    f"relation has only {total_pages} pages"
                )
        self._cursor = 0
        # Resolved in _open:
        self._primary: "Site | None" = None
        self._replicas: "list[Site]" = []
        self._grant: "MemoryGrant | None" = None

    # ------------------------------------------------------------------
    # Copy resolution
    # ------------------------------------------------------------------
    def _resolve_copies(self) -> None:
        """Pick the acting primary: the first *up* server holding a copy.

        Raises :class:`NoReachableReplicaError` (transient -- a restart
        schedule may bring a copy back) when the primary and every replica
        are down.
        """
        topology = self.context.topology
        holders = self.context.catalog.servers_of(self.relation)
        reachable = [topology.site(sid) for sid in holders if topology.site(sid).up]
        if not reachable:
            raise NoReachableReplicaError(
                f"no reachable copy of {self.relation!r}: primary and all "
                f"replicas (servers {', '.join(map(str, holders))}) are down",
                relation=self.relation,
                servers=holders,
            )
        self._primary = reachable[0]
        self._replicas = reachable[1:]

    def _open(self) -> typing.Generator:
        self._resolve_copies()
        primary = self._primary
        assert primary is not None
        min_pages, max_pages, waits = grant_range(
            self.config, write_pages=len(self.spec.page_indexes)
        )
        self._grant = yield from primary.memory.request(
            min_pages, max_pages, self.label, wait=waits
        )

    # ------------------------------------------------------------------
    # Page application
    # ------------------------------------------------------------------
    def _next(self) -> typing.Generator:
        if self._cursor >= len(self.spec.page_indexes):
            return None
        index = self.spec.page_indexes[self._cursor]
        self._cursor += 1
        primary = self._primary
        assert primary is not None
        network = self.context.network
        config = self.config
        # Ship the statement (and, for INSERT/UPDATE, the new contents).
        if self.ships_page:
            yield from network.send_page(self.site, primary)
        else:
            yield from network.send_request(self.site, primary)
        # Apply at the acting primary.
        yield from self._apply_at(primary, index)
        primary.consistency.write_pages += 1
        # Synchronous write-through to every other reachable replica.
        for replica in self._replicas:
            yield from network.send_page(primary, replica)
            yield from self._write_at(replica, index)
            replica.consistency.write_pages += 1
        # Commit: bump page versions; the invalidation protocol also
        # broadcasts callbacks to clients caching this page.
        manager = self.context.topology.consistency
        if manager is not None:
            yield from manager.commit_write(primary, self.relation, (index,))
        # Acknowledge back to the writer.
        yield from network.send_request(primary, self.site)
        return Page(self.tuples_per_page, self.tuple_bytes)

    def _apply_at(self, server: "Site", index: int) -> typing.Generator:
        if self.reads_page:
            yield from self._read_at(server, index)
        yield from self._write_at(server, index)

    def _read_at(self, server: "Site", index: int) -> typing.Generator:
        disk_index, extent = server.relation_location(self.relation)
        yield from server.cpu.execute(self.config.disk_inst)
        yield server.disks[disk_index].read(extent.page(index))

    def _write_at(self, server: "Site", index: int) -> typing.Generator:
        disk_index, extent = server.relation_location(self.relation)
        yield from server.cpu.execute(self.config.disk_inst)
        yield server.disks[disk_index].write(extent.page(index))

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def _release_memory(self) -> None:
        if self._grant is not None:
            self._grant.release()
            self._grant = None

    def _close(self) -> typing.Generator:
        self._release_memory()
        return
        yield  # pragma: no cover - generator protocol

    def abort(self) -> None:
        self._release_memory()


class UpdateIterator(WriteIterator):
    """UPDATE: read-modify-write; new contents travel to the server."""

    kind = "update"
    reads_page = True
    ships_page = True


class InsertIterator(WriteIterator):
    """INSERT: append into the relation's tail pages (write only)."""

    kind = "insert"
    reads_page = False
    ships_page = True


class DeleteIterator(WriteIterator):
    """DELETE: tombstone tuples in place; only the command travels."""

    kind = "delete"
    reads_page = True
    ships_page = False


_ITERATORS = {
    "update": UpdateIterator,
    "insert": InsertIterator,
    "delete": DeleteIterator,
}


def make_write_iterator(
    context: "ExecutionContext", site: "Site", spec: WriteSpec
) -> WriteIterator:
    """Instantiate the physical operator for one write statement."""
    return _ITERATORS[spec.kind](context, site, spec)
