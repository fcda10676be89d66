"""Fault injection and mid-query recovery.

The paper's argument for client-side execution is ultimately about
*robustness*: data-shipping and hybrid-shipping keep working from cached
copies when a primary-copy server is unavailable or degraded.  This package
lets experiments exercise that claim:

- :class:`~repro.faults.schedule.FaultSchedule` -- a declarative, sim-time
  description of server crash/restart windows, network outages, bandwidth
  degradation, disk slowdowns, and per-page message drops;
- :class:`~repro.faults.injector.FaultInjector` -- drives the schedule
  against a live :class:`~repro.hardware.topology.Topology`, flipping
  resources down, degraded, and back up at the scheduled times;
- :class:`~repro.faults.recovery.RecoveryPolicy` -- how the client-side
  executor reacts: per-query timeout, bounded retries with exponential
  backoff + jitter (all in sim time, deterministic per seed), and
  re-optimization with crashed sites excluded.

All state transitions happen in simulated time, so a given seed and
schedule always reproduce the identical trace, retries included.

Every executor counts its attempts in a
:class:`~repro.faults.recovery.RecoveryStats`; the schedule and injector
load only when a run is given a fault schedule.  Each name below is
imported from its defining module on first access.
"""

from repro import lazy_getattr

#: The module defining each public name.
_EXPORTS = {
    "CrashWindow": "repro.faults.schedule",
    "DegradationWindow": "repro.faults.schedule",
    "DiskSlowdownWindow": "repro.faults.schedule",
    "FaultSchedule": "repro.faults.schedule",
    "OutageWindow": "repro.faults.schedule",
    "FaultInjector": "repro.faults.injector",
    "RecoveryPolicy": "repro.faults.recovery",
    "RecoveryStats": "repro.faults.recovery",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(globals(), _EXPORTS)
