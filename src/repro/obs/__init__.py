"""Observability substrate: structured logging, span tracing, metrics.

Every timing number the reproduction reports (extraction, synthesis, ATPG
CPU time) is derived from this package so the whole pipeline shares one
clock source and one run record format:

- :mod:`repro.obs.log`     — structured ``event key=value`` logging,
- :mod:`repro.obs.trace`   — hierarchical spans (wall + CPU time), timers
  and deadlines; exportable as a span tree, JSON lines or Chrome trace,
- :mod:`repro.obs.metrics` — process-wide counters, gauges and histograms,
- :mod:`repro.obs.progress` — live progress hook for long-running loops
  (throttled reporters, worker→server queue forwarding, heartbeats),
- :mod:`repro.obs.record`  — ``RunRecord``: spans + metrics snapshot
  attached to analysis/ATPG results,
- :mod:`repro.obs.atomic`  — atomic tmp+``os.replace`` file publication
  shared by every writer of persisted artifacts.
"""

from repro.obs.atomic import atomic_write_bytes, atomic_write_text
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
)
from repro.obs.progress import (
    CallbackProgressReporter,
    ProgressReporter,
    QueueProgressReporter,
    get_reporter,
    progress,
    reporting,
    set_reporter,
)
from repro.obs.record import RunRecord
from repro.obs.trace import (
    CpuTimer,
    Deadline,
    Span,
    TraceContext,
    Tracer,
    cpu_clock,
    epoch_seconds,
    get_tracer,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    span,
    wall_clock,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "configure_logging",
    "get_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "CallbackProgressReporter",
    "ProgressReporter",
    "QueueProgressReporter",
    "get_reporter",
    "progress",
    "reporting",
    "set_reporter",
    "RunRecord",
    "CpuTimer",
    "Deadline",
    "Span",
    "TraceContext",
    "Tracer",
    "cpu_clock",
    "epoch_seconds",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "span",
    "wall_clock",
]
