"""Multi-client concurrent workloads: streams, admission control, metrics.

The single-query experiments answer "how fast is one query under policy X";
this subsystem answers the capacity question: what *throughput* does each
execution policy sustain as concurrent clients are added, and what happens
to the response-time tail on the way?  It reuses the whole single-query
stack -- one shared :class:`~repro.sim.Environment` and
:class:`~repro.hardware.topology.Topology` now host many
:class:`~repro.engine.executor.Session`\\ s at once, throttled by
per-server admission controllers.

Entry points: :func:`repro.api.run_workload` for one workload point, the
``throughput-sweep`` experiment for the policy-vs-client-count figure, and
:class:`WorkloadRunner` for assembling custom workloads by hand.
"""

from repro.workload.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionPolicy,
    AdmissionSnapshot,
    AdmissionTicket,
)
from repro.workload.results import WorkloadResult, percentile
from repro.workload.runner import WorkloadRunner
from repro.workload.streams import ClientStream, StreamConfig

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionSnapshot",
    "AdmissionTicket",
    "ClientStream",
    "StreamConfig",
    "WorkloadResult",
    "WorkloadRunner",
    "percentile",
]
