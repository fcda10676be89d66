"""Semi-join reducer: drop non-joining tuples before they are shipped.

At open, a digest of the join column of the reducing relation (one
``key_bytes`` entry per tuple) is built at that relation's server, shipped
to the reducer's site page by page, and hashed into a lookup table.  Each
input page is then probed against the table and only the surviving fraction
travels upstream -- paying digest pages and hashing CPU to save data pages,
a win exactly when join participation is low (the paper's HiSel workloads).
"""

from __future__ import annotations

import math
import typing

from repro.engine.base import Page, PageAssembler, PhysicalOp
from repro.plans.logical import SemiJoinReduction

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import ExecutionContext
    from repro.hardware.site import Site

__all__ = ["SemiJoinIterator"]


class SemiJoinIterator(PhysicalOp):
    """Filters its input against a shipped join-column digest."""

    def __init__(
        self,
        context: "ExecutionContext",
        site: "Site",
        child: PhysicalOp,
        reduction: SemiJoinReduction,
        digest_site_id: int,
        digest_tuples: int,
    ) -> None:
        super().__init__(context, site)
        self.child = child
        self.reduction = reduction
        self.digest_site_id = digest_site_id
        self.digest_tuples = digest_tuples
        self.digest_pages = math.ceil(
            digest_tuples * reduction.key_bytes / context.config.page_size
        )
        self._assembler: PageAssembler | None = None
        self._ready: list[Page] = []
        self._input_done = False

    def _open(self) -> typing.Generator:
        config = self.config
        source = self.context.topology.site(self.digest_site_id)
        # Build the digest where the reducing relation's partner lives...
        yield from source.cpu.execute(config.hash_inst * self.digest_tuples)
        # ...ship it over (a no-op when the reducer runs at that server)...
        if source is not self.site:
            network = self.context.network
            for _ in range(self.digest_pages):
                yield from network.send(source, self.site, config.page_size, 1)
        # ...and hash it into the local lookup table.
        yield from self.site.cpu.execute(config.hash_inst * self.digest_tuples)
        yield from self.child.open()

    def _next(self) -> typing.Generator:
        while not self._ready and not self._input_done:
            page = yield from self.child.next()
            if page is None:
                self._input_done = True
                if self._assembler is not None:
                    self._ready.extend(self._assembler.flush())
                break
            if self._assembler is None:
                self._assembler = PageAssembler(
                    self.config.tuples_per_page(page.tuple_bytes), page.tuple_bytes
                )
            surviving = page.tuples * self.reduction.survivor_fraction
            cpu = self.config.hash_inst * page.tuples
            cpu += self.config.move_instructions(round(surviving) * page.tuple_bytes)
            yield from self.site.cpu.execute(cpu)
            self._ready.extend(self._assembler.add(surviving))
        if self._ready:
            return self._ready.pop(0)
        return None

    def _close(self) -> typing.Generator:
        yield from self.child.close()
