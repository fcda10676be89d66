"""CPU model: a FIFO queue serving instruction bursts at a MIPS rating."""

from __future__ import annotations

import typing

from repro.sim import Environment, Resource

__all__ = ["CPU"]


class CPU:
    """A site CPU, modelled (as in the paper) as a FIFO queue.

    Work is expressed in instructions; the MIPS rating converts instructions
    to simulated seconds.  ``yield from cpu.execute(n)`` runs ``n``
    instructions, queueing FIFO behind other bursts.
    """

    def __init__(self, env: Environment, mips: float, name: str = "cpu") -> None:
        if mips <= 0:
            raise ValueError(f"mips must be positive, got {mips}")
        self.env = env
        self.mips = mips
        self.name = name
        self._resource = Resource(env, capacity=1, name=name)
        self._resource.trace_cat = "cpu"
        self.instructions_executed = 0.0

    def seconds_for(self, instructions: float) -> float:
        """Convert an instruction count to CPU-seconds."""
        return instructions / (self.mips * 1e6)

    def execute(self, instructions: float) -> typing.Generator:
        """Run ``instructions`` instructions on this CPU (FIFO queueing)."""
        if instructions < 0:
            raise ValueError(f"negative instruction count: {instructions}")
        if instructions == 0:
            return
        self.instructions_executed += instructions
        yield from self._resource.serve(self.seconds_for(instructions))

    def utilization(self) -> float:
        """Fraction of simulated time this CPU has been busy."""
        return self._resource.utilization()

    @property
    def busy_time(self) -> float:
        """Accumulated busy CPU-seconds (including an open busy interval)."""
        return self._resource.busy_time

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CPU {self.name!r} {self.mips} MIPS>"
