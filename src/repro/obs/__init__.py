"""``repro.obs`` — the unified observability layer.

The paper's operational evidence (Figure 5's latency histogram, the admin
profiling one datastore across four simultaneous roles) requires one
coherent instrumentation substrate.  This package provides it:

* :mod:`.metrics` — a thread-safe registry of counters, gauges, and
  histograms (p50/p95/p99) with a text exposition format for ``/metrics``;
* :mod:`.tracing` — hierarchical spans with a context-local current-span
  stack, so one trace covers firework launch → SCF iterations → docstore
  writes → builder runs → API queries; spans carry globally-unique
  trace/span ids and a ``"$trace"`` wire context, so one trace also
  stitches client → proxy → server → per-shard fan-out across processes;
* :mod:`.logging` — structured logging through a shared redacting
  formatter that scrubs credentials;
* :mod:`.provenance` — the workflow provenance ledger: walks the
  ``provenance`` subdocuments stamped by the launcher and the builders
  into an exportable DAG (``provenance_graph``).

The docstore feeds all three automatically (opcounters, the MongoDB-style
profiler's ``system.profile`` collection, and per-op child spans); the wire
protocol, workflow engine, MapReduce executors, builders, and HTTP front
end layer their own signals on top.

Fleet-health tooling builds on that substrate:

* :mod:`.health` — mongostat/mongotop-style delta samplers and their
  tables;
* :mod:`.advisor` — the slow-query index advisor mining ``system.profile``
  COLLSCAN shapes into verified ``create_index`` recommendations;
* :mod:`.warehouse` — the self-hosted telemetry warehouse: the access-log
  warehouse and tail-sampled traces, stored in a ``telemetry`` database
  with TTL retention — the datastore dogfooding itself;
* :mod:`.profiler` — the continuous wall-clock sampling profiler: a
  daemon sampling every thread's stack via ``sys._current_frames`` into
  bounded flamegraph-ready folded stacks, shared process-wide so the wire
  server, ``/debug`` endpoints and CLI see one profile (it is not
  persisted: flamegraphs do not survive a restart);
* :mod:`.flight` — the out-of-band flight recorder, the only metrics
  history and the only incident log: FTDC-style snapshots
  (``server_status``, counter deltas, gauges, histogram quantiles,
  process stats) into a size-capped on-disk ring of delta-compressed
  CRC-checked chunks, a stall watchdog probing lock/journal/op
  liveness, and crash forensics that turn an unclean shutdown into a
  ``crash_report.json``;
* :mod:`.procstats` — ``/proc``-derived process stats (RSS, CPU seconds,
  fds, threads) feeding ``server_status()["process"]`` and the recorder.
"""

from .logging import RedactingFormatter, get_logger, log_event, redact
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    labels_key,
    percentile,
    set_registry,
)
from .tracing import (
    Span,
    active_span,
    add_tail_sampler,
    clear_traces,
    current_span,
    export_traces,
    format_trace,
    recent_traces,
    remote_span,
    remove_tail_sampler,
    span,
    stitch_spans,
    trace_context,
)
from .provenance import format_provenance, provenance_graph
from .health import (
    ServerStatusSampler,
    TopSampler,
    format_stat_table,
    format_top_table,
)
from .advisor import IndexAdvisor, IndexRecommendation
from .profiler import (
    SamplingProfiler,
    get_profiler,
    start_profiler,
    stop_profiler,
)
from .procstats import process_status
from .flight import (
    FlightRecorder,
    StallWatchdog,
    build_crash_report,
    decode_ring,
    detect_unclean_shutdown,
    enable_fault_handler,
    generate_crash_report,
    get_flight_recorder,
    read_crash_report,
    scan_anomalies,
    set_flight_recorder,
    start_flight_recorder,
    stop_flight_recorder,
)
from .warehouse import TailSampler, TelemetryWarehouse

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "labels_key",
    "percentile",
    "Span",
    "span",
    "remote_span",
    "active_span",
    "current_span",
    "trace_context",
    "recent_traces",
    "clear_traces",
    "export_traces",
    "stitch_spans",
    "format_trace",
    "provenance_graph",
    "format_provenance",
    "RedactingFormatter",
    "get_logger",
    "log_event",
    "redact",
    "ServerStatusSampler",
    "TopSampler",
    "format_stat_table",
    "format_top_table",
    "IndexAdvisor",
    "IndexRecommendation",
    "add_tail_sampler",
    "remove_tail_sampler",
    "TelemetryWarehouse",
    "TailSampler",
    "SamplingProfiler",
    "get_profiler",
    "start_profiler",
    "stop_profiler",
    "process_status",
    "FlightRecorder",
    "StallWatchdog",
    "get_flight_recorder",
    "set_flight_recorder",
    "start_flight_recorder",
    "stop_flight_recorder",
    "decode_ring",
    "scan_anomalies",
    "enable_fault_handler",
    "detect_unclean_shutdown",
    "build_crash_report",
    "generate_crash_report",
    "read_crash_report",
]
