"""External server-disk load generator.

"To simulate additional server load and multiple clients, an extra process
issuing random disk read requests is run at servers in some experiments.
The request rate of this process can be varied to achieve different disk
utilizations" (section 3.2.2).  Figure 4 uses 40, 60 and 70 requests/second
(roughly 50 %, 76 % and 90 % utilization with the calibrated disk).

This is only a *stand-in* for other clients' traffic: a featureless Poisson
stream of random reads at the server disk.  Actual multiple clients -- each
with its own site, disk cache, query stream, and admission-control
interaction -- are modelled by :mod:`repro.workload`, which runs concurrent
:class:`~repro.engine.executor.Session`\\ s on one shared system.

Arrivals are Poisson and open (the generator does not wait for completions),
so query I/O and load I/O genuinely contend in the disk queue.
"""

from __future__ import annotations

import random
import typing

from repro.hardware.site import Site
from repro.sim import Environment

__all__ = ["DiskLoadGenerator"]


class DiskLoadGenerator:
    """Poisson stream of random single-page reads against a site's disk."""

    def __init__(
        self,
        env: Environment,
        site: Site,
        requests_per_second: float,
        rng: random.Random | None = None,
        disk_index: int = 0,
    ) -> None:
        if requests_per_second < 0:
            raise ValueError(f"negative load rate: {requests_per_second}")
        self.env = env
        self.site = site
        self.rate = requests_per_second
        self.rng = rng or random.Random(0)
        self.disk_index = disk_index
        self.requests_issued = 0
        if self.rate > 0:
            self.process = env.process(
                self._generate(), name=f"load@{site.name}:{requests_per_second}/s"
            )
        else:
            self.process = None

    def _generate(self) -> typing.Generator:
        disk = self.site.disks[self.disk_index]
        capacity = disk.params.capacity_pages
        while True:
            yield self.env.timeout(self.rng.expovariate(self.rate))
            disk.submit("read", self.rng.randrange(capacity))
            self.requests_issued += 1
