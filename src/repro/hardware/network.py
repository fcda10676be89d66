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
        charges the receiver CPU.  ``data_pages`` is the number of full data
        pages carried (for the pages-sent metric); pass 0 for control
        messages.

        Faults: an outage (or a crash of either endpoint) before or during
        the transfer raises the matching :class:`TransientFaultError`; a
        lossy link retransmits (re-charging the wire) up to
        :data:`MAX_RETRANSMITS` times before giving up.
        """
        if source is destination:
            # Local hand-off: no message costs at all.
            return
        self.check_available()
        source.check_available()
        destination.check_available()
        cpu_instr = self.config.message_cpu_instructions(num_bytes)
        yield from source.cpu.execute(cpu_instr)
        transmissions = 0
        while True:
            transmissions += 1
            yield from self._wire.serve(
                self.config.wire_time(num_bytes) * self.degradation_factor
            )
            # The wire time has been spent even if the message is lost.
            self.check_available()
            source.check_available()
            destination.check_available()
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

    def _dropped(self) -> bool:
        return (
            self.drop_probability > 0.0
            and self.drop_rng is not None
            and self.drop_rng.random() < self.drop_probability
        )

    def send_flat(
        self,
        source: "Site",
        destination: "Site",
        num_bytes: int,
        data_pages: int = 0,
    ) -> typing.Generator:
        """One-frame equivalent of :meth:`send` -- the batched-transfer path.

        The hot shipping paths (page faults, exchange pipelines,
        write-through replication) run page streams through here: the
        sender-CPU / wire / receiver-CPU hops of a message are flattened
        into a single generator frame, each uncontended hop booked on its
        resource's virtual clock.  The event sequence, grant instants,
        counters, and monitor float arithmetic are identical to
        :meth:`send` (the equivalence tests diff whole figure runs);
        anything the flat frame cannot reproduce exactly -- fastpath off,
        tracing, an outage in progress, a lossy link -- delegates.
        """
        env = self.env
        if (
            not env.fastpath
            or env.tracer is not None
            or not self.up
            or self.drop_probability > 0.0
        ):
            yield from self.send(source, destination, num_bytes, data_pages)
            return
        if source is destination:
            return
        # Availability can only be False once the fault injector has
        # acted, and the first fault sets env.fault_aware for good --
        # so the healthy steady state skips all six checks per message.
        # (Re-read at the post-wire checkpoint: an outage can begin
        # while this message is mid-flight.)
        if env.fault_aware:
            self.check_available()
            source.check_available()
            destination.check_available()
        costs = self._cost_cache.get(num_bytes)
        if costs is None:
            costs = (
                self.config.message_cpu_instructions(num_bytes),
                self.config.wire_time(num_bytes),
            )
            self._cost_cache[num_bytes] = costs
        cpu_instr, wire_raw = costs
        if cpu_instr:
            cpu = source.cpu
            cpu.instructions_executed += cpu_instr
            res = cpu._resource
            if res.capacity == 1 and not res._in_service and not res._queue:
                # seconds_for() inlined: two endpoint hops per message.
                end = res._book(cpu_instr / (cpu.mips * 1e6))
                try:
                    yield end - env._now
                finally:
                    res._settle()
            else:
                yield from res.serve(cpu.seconds_for(cpu_instr))
        wire = self._wire
        duration = wire_raw * self.degradation_factor
        if wire.capacity == 1 and not wire._in_service and not wire._queue:
            end = wire._book(duration)
            try:
                yield end - env._now
            finally:
                wire._settle()
        else:
            yield from wire.serve(duration)
        if env.fault_aware:
            self.check_available()
            source.check_available()
            destination.check_available()
        if cpu_instr:
            cpu = destination.cpu
            cpu.instructions_executed += cpu_instr
            res = cpu._resource
            if res.capacity == 1 and not res._in_service and not res._queue:
                # seconds_for() inlined: two endpoint hops per message.
                end = res._book(cpu_instr / (cpu.mips * 1e6))
                try:
                    yield end - env._now
                finally:
                    res._settle()
            else:
                yield from res.serve(cpu.seconds_for(cpu_instr))
        self.bytes_sent += num_bytes
        if data_pages:
            self.data_pages_sent += data_pages
        else:
            self.control_messages_sent += 1

    def send_page(self, source: "Site", destination: "Site") -> typing.Generator:
        """Ship one full data page."""
        yield from self.send_flat(source, destination, self.config.page_size, data_pages=1)

    def send_request(self, source: "Site", destination: "Site") -> typing.Generator:
        """Ship one small control message (e.g. a page-fault request)."""
        yield from self.send_flat(source, destination, self.config.request_message_bytes)

    def utilization(self) -> float:
        """Busy fraction of the wire since time zero."""
        return self._wire.utilization()

    @property
    def busy_time(self) -> float:
        """Accumulated busy time of the wire (for interval utilization)."""
        return self._wire.busy_time

    def reset_counters(self) -> None:
        """Zero the traffic counters (used between benchmark repetitions)."""
        self.data_pages_sent = 0
        self.control_messages_sent = 0
        self.bytes_sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network pages_sent={self.data_pages_sent}>"
