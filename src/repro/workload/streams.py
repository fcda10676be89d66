"""Query streams: how each client submits work to the shared system.

Two classic arrival disciplines:

* **open** -- queries arrive by a Poisson process of rate ``rate`` per
  client, independent of completions; arrivals overlap whenever a query
  runs longer than the next interarrival gap.  Open streams measure how
  the system degrades as offered load approaches saturation.
* **closed** -- each client keeps exactly one query in flight: submit,
  wait for the result, *think* for an exponentially distributed pause,
  repeat.  Closed streams measure self-regulated throughput; with zero
  think time one client reproduces back-to-back single-query execution.

Every stream that draws arrival or think times owns a
:class:`random.Random` seeded from the workload seed and its client
ordinal, so per-client arrival sequences are deterministic and independent
of how many other clients run beside them.  A closed stream with zero
think time never draws, so it creates none.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.site import client_site_id
from repro.sim import AllOf

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import Session, SessionResult
    from repro.sim import Environment, Process

__all__ = ["ClientStream", "StreamConfig"]

ARRIVALS = ("open", "closed")


@dataclass(frozen=True)
class StreamConfig:
    """Arrival discipline of every client in a workload."""

    arrival: str = "closed"
    rate: float = 1.0
    think_time: float = 0.0
    queries_per_client: int = 4
    #: Fraction of each client's submission slots that carry a write
    #: statement instead of the query (0.0 = the pure-read seed workload).
    write_fraction: float = 0.0
    #: Pages dirtied by each write statement.
    write_pages: int = 1

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ConfigurationError(
                f"unknown arrival discipline {self.arrival!r}; choose from {ARRIVALS}"
            )
        if self.arrival == "open" and self.rate <= 0.0:
            raise ConfigurationError(f"open arrival rate must be > 0, got {self.rate}")
        if self.think_time < 0.0:
            raise ConfigurationError(f"think_time must be >= 0, got {self.think_time}")
        if self.queries_per_client < 1:
            raise ConfigurationError(
                f"queries_per_client must be >= 1, got {self.queries_per_client}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(
                f"write_fraction must be in [0, 1], got {self.write_fraction}"
            )
        if self.write_pages < 1:
            raise ConfigurationError(
                f"write_pages must be >= 1, got {self.write_pages}"
            )


class ClientStream:
    """One client's query-issuing process on the shared environment.

    ``launch(ordinal, index)`` must return a fresh query
    :class:`~repro.engine.executor.Session` for that client's
    ``index``-th submission; the stream decides *when* to start it and collects
    the :class:`~repro.engine.executor.SessionResult`\\ s in submission
    order.

    With ``config.write_fraction > 0``, each submission slot flips a coin
    from a dedicated *writer* RNG stream (``f"{seed}:writer:{site}"`` --
    never the arrival stream, so arrival times are unchanged by the mix)
    and, on writes, calls ``launch_write(ordinal, index, rng)`` instead,
    passing the writer RNG so the callback's statement choices stay on the
    same per-client stream.
    """

    def __init__(
        self,
        env: "Environment",
        ordinal: int,
        config: StreamConfig,
        seed: int,
        launch: typing.Callable[[int, int], "Session"],
        launch_write: "typing.Callable[[int, int, random.Random], Session] | None" = None,
    ) -> None:
        self.env = env
        self.ordinal = ordinal
        self.config = config
        self.launch = launch
        self.launch_write = launch_write
        # Like the writer RNG below, created only for a stream that draws
        # from it: Poisson arrivals or exponential think pauses.
        self.rng: random.Random | None = None
        if config.arrival == "open" or config.think_time > 0.0:
            self.rng = random.Random(f"{seed}:client{ordinal}:stream")
        # Created only for a genuine read/write mix, so pure-read streams
        # never consume entropy that did not exist before the write axis.
        self._writer_rng: random.Random | None = None
        if config.write_fraction > 0.0:
            if launch_write is None:
                raise ConfigurationError(
                    "write_fraction > 0 needs a launch_write callback"
                )
            self._writer_rng = random.Random(
                f"{seed}:writer:{client_site_id(ordinal)}"
            )
        self.results: list[SessionResult] = []

    def run(self) -> typing.Generator:
        if self.config.arrival == "open":
            yield from self._run_open()
        else:
            yield from self._run_closed()

    def _session(self, index: int) -> "Session":
        """The session filling submission slot ``index``: query or write."""
        rng = self._writer_rng
        if rng is not None and rng.random() < self.config.write_fraction:
            assert self.launch_write is not None
            return self.launch_write(self.ordinal, index, rng)
        return self.launch(self.ordinal, index)

    def _run_open(self) -> typing.Generator:
        """Poisson arrivals; sessions overlap and finish in any order."""
        env = self.env
        in_flight: list[Process] = []
        for index in range(self.config.queries_per_client):
            yield env.timeout(self.rng.expovariate(self.config.rate))
            session = self._session(index)
            in_flight.append(
                env.process(session.run(), name=f"client{self.ordinal}-q{index}")
            )
        yield AllOf(env, in_flight)
        self.results = [process.value for process in in_flight]

    def _run_closed(self) -> typing.Generator:
        """One query in flight at a time, with exponential think pauses."""
        env = self.env
        for index in range(self.config.queries_per_client):
            session = self._session(index)
            result = yield from session.run()
            self.results.append(result)
            if self.config.think_time > 0.0 and index + 1 < self.config.queries_per_client:
                yield env.timeout(
                    self.rng.expovariate(1.0 / self.config.think_time)
                )
