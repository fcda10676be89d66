"""Network model: a single FIFO queue with a configured bandwidth.

As in the paper (section 3.2.2), "the network is modeled simply as a FIFO
queue with a specified bandwidth; the details of a particular technology
(i.e., Ethernet, ATM, etc.) are not modeled."  The cost of a message is the
time-on-the-wire (size / bandwidth) plus fixed and size-dependent CPU costs
at both endpoints (``MsgInst`` and ``PerSizeMI``).

The network also keeps the study's first metric: the number of *data pages*
sent during a query (control messages are counted separately).
"""

from __future__ import annotations

import random
import typing

from repro.config import SystemConfig
from repro.errors import NetworkPartitionError
from repro.sim import Environment, Resource

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.site import Site

__all__ = ["Network"]

#: Consecutive retransmissions of one message before the link is declared
#: partitioned (the sender gives up, as a transport layer eventually would).
MAX_RETRANSMITS = 8


class Network:
    """The shared interconnect between the client and all servers."""

    def __init__(self, env: Environment, config: SystemConfig) -> None:
        self.env = env
        self.config = config
        self._wire = Resource(env, capacity=1, name="network")
        self._wire.trace_cat = "net"
        self.data_pages_sent = 0
        self.control_messages_sent = 0
        self.bytes_sent = 0
        # Per-message-size (cpu instructions, raw wire seconds) pairs; the
        # config is immutable, degradation multiplies on top per send.
        self._cost_cache: dict[int, tuple[float, float]] = {}
        # Fault state (driven by the fault injector; healthy by default).
        self.up = True
        self.degradation_factor = 1.0
        self.drop_probability = 0.0
        self.drop_rng: random.Random | None = None
        self.outage_count = 0
        self.messages_dropped = 0

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def set_down(self) -> None:
        """Begin a network outage: new and in-flight messages fail."""
        if self.up:
            self.up = False
            self.outage_count += 1

    def set_up(self) -> None:
        self.up = True

    def degrade(self, factor: float) -> None:
        """Divide effective bandwidth by ``factor`` (1.0 restores it)."""
        self.degradation_factor = factor

    def configure_drops(self, probability: float, rng: random.Random) -> None:
        """Drop each page-sized transmission with ``probability`` (seeded)."""
        self.drop_probability = probability
        self.drop_rng = rng

    def check_available(self) -> None:
        """Raise :class:`NetworkPartitionError` during an outage."""
        if not self.up:
            raise NetworkPartitionError(
                f"network outage at t={self.env.now:.6f}: message undeliverable"
            )

    def send(
        self,
        source: "Site",
        destination: "Site",
        num_bytes: int,
        data_pages: int = 0,
    ) -> typing.Generator:
        """Ship one message from ``source`` to ``destination``.

        Charges the sender CPU, holds the wire for the time-on-the-wire, then
        charges the receiver CPU; each hop books a service window on its
        resource (see :meth:`Resource.serve`).  ``data_pages`` is the number
        of full data pages carried (for the pages-sent metric); pass 0 for
        control messages.

        Faults: an outage (or a crash of either endpoint) before or during
        the transfer raises the matching :class:`TransientFaultError`; a
        lossy link retransmits (re-charging the wire) up to
        :data:`MAX_RETRANSMITS` times before giving up.
        """
        if source is destination:
            # Local hand-off: no message costs at all.
            return
        if not (self.up and source.up and destination.up):
            self._raise_unavailable(source, destination)
        costs = self._cost_cache.get(num_bytes)
        if costs is None:
            costs = (
                self.config.message_cpu_instructions(num_bytes),
                self.config.wire_time(num_bytes),
            )
            self._cost_cache[num_bytes] = costs
        cpu_instr, wire_time = costs
        yield from source.cpu.execute(cpu_instr)
        transmissions = 0
        while True:
            transmissions += 1
            yield from self._wire.serve(wire_time * self.degradation_factor)
            # The wire time has been spent even if the message is lost, and
            # an outage or crash that began mid-flight kills the message.
            if not (self.up and source.up and destination.up):
                self._raise_unavailable(source, destination)
            if not self._dropped():
                break
            self.messages_dropped += 1
            if transmissions > MAX_RETRANSMITS:
                raise NetworkPartitionError(
                    f"message dropped {transmissions} times in a row "
                    f"(drop probability {self.drop_probability:g}); giving up"
                )
        yield from destination.cpu.execute(cpu_instr)
        self.bytes_sent += num_bytes
        if data_pages:
            self.data_pages_sent += data_pages
        else:
            self.control_messages_sent += 1

    def _raise_unavailable(self, source: "Site", destination: "Site") -> None:
        """Raise the error of the first unavailable party on a path."""
        self.check_available()
        source.check_available()
        destination.check_available()

    def _dropped(self) -> bool:
        return (
            self.drop_probability > 0.0
            and self.drop_rng is not None
            and self.drop_rng.random() < self.drop_probability
        )

    def send_page(self, source: "Site", destination: "Site") -> typing.Generator:
        """Ship one full data page."""
        yield from self.send(source, destination, self.config.page_size, data_pages=1)

    def send_request(self, source: "Site", destination: "Site") -> typing.Generator:
        """Ship one small control message (e.g. a page-fault request)."""
        yield from self.send(source, destination, self.config.request_message_bytes)

    def utilization(self) -> float:
        """Busy fraction of the wire since time zero."""
        return self._wire.utilization()

    @property
    def busy_time(self) -> float:
        """Accumulated busy time of the wire (for interval utilization)."""
        return self._wire.busy_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network pages_sent={self.data_pages_sent}>"
