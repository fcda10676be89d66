"""Observability: span tracing, metrics registry, and trace exporters.

- :class:`Tracer` records per-operator, per-site spans in simulated time;
  attach one via ``QueryExecutor(..., tracer=...)`` or
  ``api.run_query(..., trace=True)``.  When no tracer is attached
  (``env.tracer is None``) every hook short-circuits, so untraced runs pay
  nothing.
- :class:`MetricsRegistry` exposes every hardware statistic under
  hierarchical dotted names (``site.server1.disk0.pages_read``) and is
  snapshotted into ``ExecutionResult.profile``.
- :class:`TelemetrySampler` is a simulated-time process that samples the
  registry's gauges at a fixed interval into bounded ring buffers; the
  frozen :class:`Telemetry` snapshot lands on
  ``ExecutionResult.telemetry`` / ``WorkloadResult.telemetry`` (enable via
  ``api.run_query(..., telemetry=True)``).
- :func:`chrome_trace_json` / :func:`write_chrome_trace` export
  Perfetto-loadable Chrome ``trace_event`` JSON (telemetry series become
  counter tracks); :func:`render_timeline` draws an ASCII per-operator
  timeline and :func:`render_dashboard` ASCII sparklines per telemetry
  channel; :func:`telemetry_csv` / :func:`telemetry_json` export the raw
  series.

Every topology registers its devices with :mod:`repro.obs.metrics`; the
other modules load only when a run traces, samples or exports.  Each name
below is imported from its defining module on first access.

The cost-model validation harness lives in :mod:`repro.obs.validate` and is
*not* re-exported here: it imports the engine and optimizer layers, which in
turn import this package's metrics module.
"""

from repro import lazy_getattr

#: The module defining each public name.
_EXPORTS = {
    "Tracer": "repro.obs.trace",
    "Span": "repro.obs.trace",
    "Instant": "repro.obs.trace",
    "RESOURCE_CATEGORIES": "repro.obs.trace",
    "MetricsRegistry": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "register_topology_metrics": "repro.obs.metrics",
    "Series": "repro.obs.telemetry",
    "Telemetry": "repro.obs.telemetry",
    "TelemetryConfig": "repro.obs.telemetry",
    "TelemetrySampler": "repro.obs.telemetry",
    "chrome_counter_events": "repro.obs.export",
    "chrome_trace_events": "repro.obs.export",
    "chrome_trace_json": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "render_timeline": "repro.obs.export",
    "render_dashboard": "repro.obs.export",
    "telemetry_csv": "repro.obs.export",
    "telemetry_json": "repro.obs.export",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(globals(), _EXPORTS)
