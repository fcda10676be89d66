"""Discrete-event simulation kernel.

This package is the reproduction's stand-in for the CSIM toolkit used by the
paper's C++ simulator.  It provides a small, deterministic, generator-based
process model:

- :class:`~repro.sim.engine.Environment` -- the event loop and clock.
- :class:`~repro.sim.engine.Process` -- a simulated process wrapping a Python
  generator that yields events.
- :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timeout` --
  one-shot occurrences a process can wait for.
- :class:`~repro.sim.resources.Resource` -- a FIFO server (used for CPUs and
  the network).
- :class:`~repro.sim.resources.RequestPool` -- an unordered request pool whose
  consumer picks which request to serve next (used by the elevator disk
  scheduler).
- :class:`~repro.sim.channels.Channel` -- a bounded FIFO buffer connecting a
  producer process to a consumer process (used for page-at-a-time shipping
  with one-page-ahead pipelining).

All randomness is injected by callers; the kernel itself is deterministic, so
repeated runs with the same seeds reproduce identical traces.
"""

from repro.sim.engine import Environment, Process
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.channels import Channel, ChannelClosed
from repro.sim.resources import Request, RequestPool, Resource
from repro.sim.monitor import Counter, EventHistory, Tally, UtilizationMonitor

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "Counter",
    "Environment",
    "Event",
    "EventHistory",
    "Process",
    "Request",
    "RequestPool",
    "Resource",
    "Tally",
    "Timeout",
    "UtilizationMonitor",
]
