"""`repro.obs` — observability for the Copernicus overlay.

Three pieces, one hub:

* :mod:`repro.obs.metrics` — a process-local registry of labelled
  counters, gauges and fixed-bucket histograms, exportable as
  Prometheus text format or JSON lines;
* :mod:`repro.obs.trace` — lightweight spans whose context propagates
  through :class:`~repro.net.protocol.Message` headers, so one trace
  follows a command from controller issue to controller update, with a
  Chrome trace-event (Perfetto-loadable) exporter;
* :mod:`repro.obs.timeline` — per-command lifecycle reconstruction
  from the event log plus spans: queue/compute/transfer/controller
  breakdowns, utilization and the critical path.

Every :class:`~repro.net.transport.Network` owns an
:class:`Observability` hub (``network.obs``); endpoints share it, so a
whole simulated deployment lands in one registry and one tracer —
exactly what a single-process reproduction wants, and the same shape a
multi-process deployment would get from per-process hubs plus a
collector.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    parse_prometheus_text,
    to_json_lines,
    to_prometheus_text,
)
from repro.obs.trace import (
    Span,
    SpanContext,
    Tracer,
    to_chrome_trace,
    trace_id_for,
    validate_chrome_trace,
)

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "SpanContext",
    "DEFAULT_BUCKETS",
    "to_prometheus_text",
    "to_json_lines",
    "parse_prometheus_text",
    "to_chrome_trace",
    "validate_chrome_trace",
    "trace_id_for",
]


class Observability:
    """One deployment's metrics registry + tracer, shared by reference."""

    def __init__(self, prefix: str = "repro") -> None:
        self.metrics = MetricsRegistry(prefix)
        self.tracer = Tracer()

    def export_prometheus(self) -> str:
        """The registry in Prometheus text format."""
        return to_prometheus_text(self.metrics)

    def export_json_lines(self) -> str:
        """The registry as JSON lines."""
        return to_json_lines(self.metrics)
