"""Reference service paths: page-at-a-time grants and an evented disk loop.

The simulator books every CPU, wire and disk hold as a service window on
a virtual clock (:meth:`repro.sim.Resource.serve`, ``Disk._serve_loop``).
This module keeps the straightforward formulation those windows must
agree with, as a test oracle (not imported by ``src/``):

- :func:`page_at_a_time_serve` grants the server with ``request()``,
  sleeps the service time, and ``release()``\\ s it -- one grant event per
  hold, FIFO waiters woken by the release;
- :func:`evented_serve_loop` serves each disk request by marking the disk
  busy, sleeping the service time, and completing the request at the end
  of the sleep.

:func:`install` monkeypatches both into the classes for one test.
"""

from __future__ import annotations

import typing

from repro.hardware.disk import Disk
from repro.sim import Resource


def page_at_a_time_serve(resource: Resource, duration: float) -> typing.Generator:
    """Acquire the server, hold it for ``duration``, release it."""
    req = resource.request()
    yield req
    try:
        yield float(duration)
    finally:
        resource.release(req)


def evented_serve_loop(disk: Disk) -> typing.Generator:
    """Elevator service with one grant, sleep and completion per request."""
    pool = disk._pool
    while True:
        yield pool.wait_for_item()
        request = pool.take(disk._elevator_choose)
        disk.monitor.busy()
        duration = disk._service(request) * disk.slow_factor
        if duration > 0:
            yield float(duration)
        if not len(pool):
            disk.monitor.idle()
        if not request.done.triggered:
            request.done.succeed(duration)


def install(monkeypatch) -> None:
    """Route every resource hold and disk request through the oracle."""
    monkeypatch.setattr(Resource, "serve", page_at_a_time_serve)
    monkeypatch.setattr(Disk, "_serve_loop", evented_serve_loop)
