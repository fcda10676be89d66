"""Scan operators: sequential server scans and client scans with faulting.

A scan annotated ``primary copy`` reads the relation's extent sequentially
from the server disk.  A scan annotated ``client`` reads the pages resident
in the client's buffer cache from the client disk and *faults in* every
missing page from the relation's server, one page at a time via a
synchronous request/response exchange -- the paper notes this
page-at-a-time behaviour denies data-shipping the communication/processing
overlap query-shipping gets (section 4.2.3).
"""

from __future__ import annotations

import typing

from repro.engine.base import Page, PhysicalOp
from repro.errors import ExecutionError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import ExecutionContext
    from repro.hardware.site import Site

__all__ = ["ScanIterator"]


class ScanIterator(PhysicalOp):
    """Produces all pages of one base relation at its bound site."""

    def __init__(
        self,
        context: "ExecutionContext",
        site: "Site",
        relation: str,
        home_server_id: int | None = None,
    ) -> None:
        super().__init__(context, site)
        self.relation = relation
        # Which copy serves this scan: an explicit replica choice from the
        # plan (``ScanOp.home``), or None for the primary copy.
        self.home_server_id = home_server_id
        schema = context.catalog.relation(relation)
        self.tuple_bytes = schema.tuple_bytes
        self.tuples_per_page = context.config.tuples_per_page(schema.tuple_bytes)
        self.total_tuples = schema.tuples
        self.total_pages = schema.pages(context.config)
        self._page_index = 0
        # Resolved in _open:
        self._home_server: "Site | None" = None
        self._home_disk_index = 0
        self._home_extent = None
        self._buffer = None  # the client's BufferCache (installed by the catalog)

    def _open(self) -> typing.Generator:
        topology = self.context.topology
        home_id = self.home_server_id
        if home_id is None:
            home_id = self.context.catalog.server_of(self.relation)
        home = topology.site(home_id)
        self._home_server = home
        self._home_disk_index, self._home_extent = home.relation_location(self.relation)
        if self.site.is_client:
            self._buffer = self.site.buffer_cache
        elif self.site is not home:
            raise ExecutionError(
                f"copy scan of {self.relation!r} bound to {self.site.name}, "
                f"but the chosen copy lives on {home.name}"
            )
        return
        yield  # pragma: no cover

    def _tuples_on_page(self, index: int) -> int:
        if index < self.total_pages - 1:
            return self.tuples_per_page
        return self.total_tuples - self.tuples_per_page * (self.total_pages - 1)

    def _next(self) -> typing.Generator:
        if self._page_index >= self.total_pages:
            return None
        index = self._page_index
        self._page_index += 1
        if self.site.is_client:
            yield from self._read_at_client(index)
        else:
            yield from self._read_local_primary(index)
        return Page(self._tuples_on_page(index), self.tuple_bytes)

    def _read_local_primary(self, index: int) -> typing.Generator:
        """Sequential read from this server's own disk."""
        yield from self.site.cpu.execute(self.config.disk_inst)
        disk = self.site.disks[self._home_disk_index]
        yield disk.read(self._home_extent.page(index))

    def _read_at_client(self, index: int) -> typing.Generator:
        """Serve a resident page from the client disk, fault the rest.

        A miss faults the page from the server; a cache that admits
        (demand paging) then makes it resident and writes it to the client
        disk, so later queries in the stream read it locally.
        """
        buffer = self._buffer
        assert buffer is not None
        manager = self.context.topology.consistency
        page = buffer.lookup(self.relation, index)
        if page is not None:
            if manager is not None:
                assert self._home_server is not None
                fresh = yield from manager.validate_hit(
                    self.site, self._home_server, self.relation, index
                )
                if not fresh:
                    # Stale copy: detected, invalidated, never served --
                    # fall through to the demand-paging fault path.
                    page = None
            if page is not None:
                yield from self.site.cpu.execute(self.config.disk_inst)
                yield self.site.disk.read(page)
                return
        # Capture the version stamp *before* issuing the fault.  The bytes
        # the server returns are those on its disk when the read is served;
        # a write committing while the fault's reply is still on the wire
        # must not get its newer version stamped onto the older contents
        # (the old post-fault capture did exactly that, marking a stale
        # page fresh and defeating the validate-on-hit check).  Stamping
        # the pre-fault version is conservative: if a write raced in, the
        # next hit fails the version compare and re-faults.
        version = 0 if manager is None else manager.current_version(self.relation, index)
        yield from self._fault_from_server(index)
        slot = buffer.admit(self.relation, index, version=version)
        if slot is not None:
            yield from self.site.cpu.execute(self.config.disk_inst)
            yield self.site.disk.write(slot)

    def _fault_from_server(self, index: int) -> typing.Generator:
        """Synchronous page-at-a-time fault from the relation's server."""
        server = self._home_server
        assert server is not None
        network = self.context.network
        tracer = self.context.env.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                f"fault[{self.relation}#{index}]",
                cat="cache",
                args={"relation": self.relation, "page": index},
            )
        try:
            # Direct sends (rather than the send_request/send_page
            # wrappers): page faults dominate data-shipping runs, and the
            # wrapper frame is pure overhead on this path.
            config = self.config
            yield from network.send(self.site, server, config.request_message_bytes)
            yield from server.cpu.execute(config.disk_inst)
            disk = server.disks[self._home_disk_index]
            yield disk.read(self._home_extent.page(index))
            yield from network.send(server, self.site, config.page_size, 1)
        finally:
            if tracer is not None:
                tracer.end(span)

    def _close(self) -> typing.Generator:
        return
        yield  # pragma: no cover
