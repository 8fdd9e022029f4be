"""Request-path telemetry (``GPUSystem.enable_telemetry`` / ``repro trace``).

Three pillars, all zero-cost when disabled (the system and controllers
carry a ``telemetry`` attribute that stays ``None`` unless
:meth:`~repro.sim.system.GPUSystem.enable_telemetry` is called, and every
hot-path hook is guarded by an ``is not None`` check — the same pattern as
``enable_perf_counters``):

* **Per-hop latency accounting** (:mod:`repro.obs.histogram`,
  :class:`~repro.obs.telemetry.Telemetry`): every completed request is
  folded into streaming log-bucketed histograms keyed by
  ``(mode, channel, stage)``, exposing p50/p95/p99 and means without
  retaining per-request lists.
* **Structured event tracing** (:mod:`repro.obs.events`): a bounded ring
  buffer of typed events — mode switches, CAP bypasses, refreshes, BLISS
  blacklisting, Dyn-F3FS cap adaptations, kernel launches/drains, NoC
  rejects.
* **Export** (:mod:`repro.obs.trace`): a Chrome trace-event JSON writer
  (Perfetto / ``chrome://tracing`` loadable) plus the JSON stats summary
  attached to :class:`~repro.sim.results.SimResult`.

On top of the simulated-machine pillars, the package carries the
*campaign* observability surface: a process-wide metrics registry
(:mod:`repro.obs.metrics` — counters, gauges, streaming histograms, JSON
snapshot and Prometheus exposition), the sweep heartbeat
(:mod:`repro.obs.status` — atomically-replaced ``status.json`` in the
store dir), and the stdlib HTTP endpoint serving both plus recent store
journal events (:mod:`repro.obs.server`, wired to
``repro sweep --serve-status`` / ``repro status``).

See ``docs/observability.md`` for the architecture and a walkthrough.
"""

from repro._exports import lazy_exports

#: Export name -> defining submodule.  Resolved on first access (PEP 562),
#: so importing one submodule — the engine imports ``repro.obs.events`` —
#: does not load the others (``server`` pulls in the stdlib HTTP stack).
_EXPORTS = {
    "EventRing": "events",
    "TraceEvent": "events",
    "LogHistogram": "histogram",
    "Counter": "metrics",
    "Gauge": "metrics",
    "MetricsRegistry": "metrics",
    "get_registry": "metrics",
    "StatusServer": "server",
    "STATUS_FILENAME": "status",
    "StatusPublisher": "status",
    "read_status": "status",
    "status_path": "status",
    "validate_status": "status",
    "HOP_STAGES": "telemetry",
    "STAGE_ORDER": "telemetry",
    "Telemetry": "telemetry",
    "build_trace": "trace",
    "validate_trace": "trace",
    "write_stats": "trace",
    "write_trace": "trace",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
