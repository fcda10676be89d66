"""Network operator pair: the producer-side pump and the receiver iterator.

"When two connected operators are located on different sites, a pair of
specialized network operators is inserted between them.  These operators
hide the details of shipping data across the network.  Tuples are shipped
across the network a page-at-a-time ... each producer has a process that
tries to stay one page ahead of its consumer" (section 3.2.1).

The pump is its own simulated process, so fragments on different sites run
concurrently: this is where both pipelined parallelism (producer/consumer
overlap) and independent parallelism (sibling subtrees) come from.
"""

from __future__ import annotations

import typing

from repro.engine.base import Page, PhysicalOp
from repro.errors import QueryShedError, TransientFaultError
from repro.sim import Channel, ChannelClosed

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import ExecutionContext
    from repro.hardware.site import Site

__all__ = ["ExchangeReceiver"]


class ExchangeReceiver(PhysicalOp):
    """Consumer-side network operator; owns the producer-side processes.

    Two producer-side processes implement the double buffering the paper
    describes: the *pump* drives the producer subtree (open/next/close) and
    stages each page, while the *shipper* moves staged pages over the wire.
    Production of page ``i+1`` therefore overlaps the transmission of page
    ``i``, and the whole pipeline stays one page ahead of the consumer.
    The receiver's ``next`` simply takes the next page off the channel.
    """

    def __init__(
        self,
        context: "ExecutionContext",
        consumer_site: "Site",
        producer_site: "Site",
        child: PhysicalOp,
    ) -> None:
        super().__init__(context, consumer_site)
        self.producer_site = producer_site
        self.child = child
        label = f"{producer_site.name}->{consumer_site.name}"
        self.channel = Channel(context.env, capacity=1, name=f"xfer@{label}")
        self._staged = Channel(context.env, capacity=1, name=f"stage@{label}")
        self.pump_process = context.spawn(self._pump(), name=f"pump:{label}")
        self.ship_process = context.spawn(self._ship(), name=f"ship:{label}")

    def _pump(self) -> typing.Generator:
        """Drive the producer subtree, staging pages for transmission.

        In a supervised attempt a shed or transient fault escapes to the
        supervisor, which reports it to the recovery loop.  An inline
        attempt has no supervisor, so the failure travels down the stream
        instead and the consumer raises it where it reads the next page.
        """
        try:
            yield from self.child.open()
            while True:
                page = yield from self.child.next()
                if page is None:
                    break
                yield self._staged.put(page)
            yield from self.child.close()
        except (QueryShedError, TransientFaultError) as exc:
            if self.context.fault_event is not None:
                raise
            self._staged.close(exc)
            return
        self._staged.close()

    def _ship(self) -> typing.Generator:
        """Move staged pages across the network, one page ahead."""
        network = self.context.network
        page_size = self.config.page_size
        while True:
            try:
                page = yield self._staged.get()
            except ChannelClosed:
                break
            except (QueryShedError, TransientFaultError) as exc:
                self.channel.close(exc)
                return
            tracer = self.context.env.tracer
            if tracer is None:
                yield from network.send(self.producer_site, self.site, page_size, 1)
            else:
                # Attribute the endpoint CPU and wire time of the transfer
                # to this exchange's own label (xfer:<producer label>).
                span = tracer.begin(f"{self.label}.ship", cat="op", op=self.label)
                try:
                    yield from network.send(self.producer_site, self.site, page_size, 1)
                finally:
                    tracer.end(span)
            yield self.channel.put(page)
        self.channel.close()

    def _open(self) -> typing.Generator:
        # The pump was started when the executor launched; nothing to do.
        return
        yield  # pragma: no cover

    def _next(self) -> typing.Generator:
        try:
            page: Page = yield self.channel.get()
        except ChannelClosed:
            return None
        return page

    def _close(self) -> typing.Generator:
        # The pump closes the producer subtree when its stream ends.  If the
        # consumer abandons the stream early, just let the channel drain.
        return
        yield  # pragma: no cover
