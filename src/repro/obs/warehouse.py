"""Telemetry warehouse: the observability stack persisted in the datastore.

The paper's operational stance is that a datastore's own telemetry is best
served *by* the datastore — Materials Project runs query logs and usage
analytics through the same MongoDB that serves science.  Everything the
in-memory observability stack (metrics registry, profiler, tracing, SLO
engine) knows evaporates on restart; this module dogfoods the engine by
landing it in real collections in a ``telemetry`` database:

* ``telemetry.metrics`` — :class:`MetricsHistoryRecorder` snapshots the
  registry on an interval: counters as *deltas* since the previous pass,
  gauges and histogram summaries as-is.
* ``telemetry.metrics_rollup`` — :class:`MetricsRollupBuilder` tails the
  raw-points change stream (the :mod:`repro.builders.incremental` pattern)
  and maintains 1-minute and 1-hour min/max/mean/p95 buckets, falling back
  to a full rebuild when the stream overflows.
* ``telemetry.access`` — the :class:`~repro.api.querylog.QueryLog`
  access-log warehouse, written by the QueryEngine, the Materials API
  httpd, and the wire server.
* ``telemetry.traces`` — :class:`TailSampler` keeps only traces whose root
  span breached a latency threshold or whose tree carries an error.
* ``telemetry.profile`` — a persistent mirror of slow ``system.profile``
  entries, so the index advisor can mine evidence across restarts
  (:meth:`~repro.obs.advisor.IndexAdvisor.from_warehouse`).
* ``telemetry.profiles`` — periodic snapshots of the continuous sampling
  profiler (:mod:`repro.obs.profiler`): folded stacks and top functions
  land on every tick while the profiler runs, so flamegraphs survive
  restarts and can be diffed across deploys.
* ``telemetry.alerts`` — the SLO engine's alert history
  (:meth:`TelemetryWarehouse.slo_engine`); open alerts persist and are
  re-adopted after a restart.
* ``telemetry.events`` — operational incidents from the flight recorder's
  stall watchdog and crash forensics (:mod:`repro.obs.flight`): stall
  detections with their thread-stack dumps and post-crash reports, queryable
  long after the on-disk flight ring has rotated past them.

Every collection carries compound query indexes (``(name, ts)``,
``(endpoint, ts)``) so warehouse analytics ride the cost-based planner's
IXSCAN path, and TTL indexes (``create_index(...,
expire_after_seconds=N)``) so the warehouse bounds its own disk use via
the engine's reaper — retention is a datastore feature here, not a cron
job.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..background import PeriodicTask, TaskDaemon
from .metrics import MetricsRegistry, get_registry, percentile
from .tracing import Span, add_tail_sampler, remove_tail_sampler

__all__ = [
    "TelemetryWarehouse",
    "MetricsHistoryRecorder",
    "MetricsRollupBuilder",
    "TailSampler",
    "labels_key",
]

#: Default retention windows (seconds) per telemetry collection.
METRICS_TTL_S = 7 * 86400.0
ROLLUP_TTL_S = 30 * 86400.0
ACCESS_TTL_S = 14 * 86400.0
TRACES_TTL_S = 86400.0
PROFILE_TTL_S = 86400.0
PROFILES_TTL_S = 86400.0
EVENTS_TTL_S = 30 * 86400.0

#: Folded stacks persisted per profiler snapshot (hottest first).
PROFILE_SNAPSHOT_STACKS = 50

#: Root spans slower than this are tail-sampled by default.
TRACE_LATENCY_THRESHOLD_MS = 250.0

#: Sampled trace documents kept before FIFO eviction (TTL reaps earlier
#: in a long-running deployment).
TRACE_CAP = 2048

#: Rollup resolutions: label -> bucket width in seconds.
ROLLUP_RESOLUTIONS: Dict[str, float] = {"1m": 60.0, "1h": 3600.0}


def labels_key(labels: Dict[str, Any]) -> str:
    """Canonical string form of a label set (stable grouping key)."""
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


class MetricsHistoryRecorder:
    """Periodically lands the metrics registry in ``telemetry.metrics``.

    Counters are recorded as *deltas* since the previous pass (the first
    pass records the accumulated total, i.e. activity since process
    start), so rollups can sum them; gauges record their current value and
    histograms their summary stats with the mean as ``value``.
    """

    def __init__(self, collection: Any,
                 registry: Optional[MetricsRegistry] = None):
        self.collection = collection
        self._registry = registry
        self._prev_counters: Dict[Tuple[str, str], float] = {}
        self._lock = threading.Lock()
        self.collection.create_index([("name", 1), ("ts", 1)])

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def record_once(self, now: Optional[float] = None) -> int:
        """One snapshot pass; returns the number of points written."""
        now = time.time() if now is None else now
        points: List[dict] = []
        with self._lock:
            for metric in self.registry.collect():
                name, kind = metric["name"], metric["kind"]
                if name == "repro_warehouse_metric_points_total":
                    # recording it would change it: every pass would see a
                    # delta from the previous pass and never go idle
                    continue
                for series in metric["series"]:
                    labels = series["labels"]
                    lkey = labels_key(labels)
                    point = {
                        "ts": now,
                        "name": name,
                        "kind": kind,
                        "labels": labels,
                        "labels_key": lkey,
                        "value": series["value"],
                    }
                    if kind == "counter":
                        prev = self._prev_counters.get((name, lkey), 0.0)
                        self._prev_counters[(name, lkey)] = series["value"]
                        delta = series["value"] - prev
                        if delta == 0.0:
                            continue  # idle series: no point, bounded growth
                        point["value"] = delta
                        point["total"] = series["value"]
                    elif kind == "histogram":
                        for stat in ("count", "sum", "p50", "p95", "p99",
                                     "max"):
                            point[stat] = series[stat]
                    points.append(point)
        if points:
            self.collection.insert_many(points)
            get_registry().counter(
                "repro_warehouse_metric_points_total",
                "raw metric points recorded into telemetry.metrics",
            ).inc(len(points))
        return len(points)

    def series(self, name: str, labels: Optional[Dict[str, Any]] = None,
               since: Optional[float] = None, until: Optional[float] = None,
               limit: int = 0) -> List[dict]:
        """Raw points for one metric, time-ascending, via ``(name, ts)``."""
        query: Dict[str, Any] = {"name": name}
        ts_bounds: Dict[str, float] = {}
        if since is not None:
            ts_bounds["$gte"] = float(since)
        if until is not None:
            ts_bounds["$lt"] = float(until)
        if ts_bounds:
            query["ts"] = ts_bounds
        if labels is not None:
            query["labels_key"] = labels_key(labels)
        cursor = self.collection.find(query, {"_id": 0}).sort([("ts", 1)])
        if limit:
            cursor = cursor.limit(int(limit))
        return list(cursor)


class MetricsRollupBuilder:
    """Incrementally downsamples raw metric points into summary buckets.

    Follows the :class:`~repro.builders.incremental.
    IncrementalMaterialsBuilder` pattern: tail the source change stream,
    refresh only the touched ``(name, labels_key, resolution, bucket)``
    groups, and resync from scratch when the stream overflows.  Buckets
    carry ``count/min/max/mean/p95/sum`` over the raw ``value`` field.
    """

    def __init__(self, db: Any, source: str = "metrics",
                 dest: str = "metrics_rollup"):
        self.db = db
        self.source = db[source]
        self.dest = db[dest]
        self.stream = self.source.watch()
        self.full_rebuilds = 0
        self.dest.create_index(
            [("name", 1), ("resolution", 1), ("ts", 1)]
        )

    def process_pending(self) -> dict:
        """Drain buffered point events and refresh the affected buckets."""
        from ..errors import DocstoreError

        try:
            events = self.stream.drain()
        except DocstoreError:
            # Overflow: the stream lost history, resync from scratch.
            self.full_rebuilds += 1
            get_registry().counter(
                "repro_warehouse_rollup_rebuilds_total",
                "rollup-builder resyncs after stream overflow",
            ).inc(1)
            result = self.rebuild()
            return {"mode": "full-rebuild", **result}

        touched: set = set()
        for event in events:
            doc = event.document or {}
            name = doc.get("name")
            ts = doc.get("ts")
            if name is None or ts is None:
                continue
            lkey = doc.get("labels_key", "")
            for res, width in ROLLUP_RESOLUTIONS.items():
                touched.add((name, lkey, res, (ts // width) * width))
        for name, lkey, res, bucket in sorted(touched):
            self._refresh_bucket(name, lkey, res, bucket)
        return {"mode": "incremental", "buckets_refreshed": len(touched)}

    def rebuild(self) -> dict:
        """Full resync: recompute every bucket from the raw points."""
        self.dest.delete_many({})
        touched: set = set()
        for doc in self.source.find({}, {"name": 1, "labels_key": 1, "ts": 1}):
            for res, width in ROLLUP_RESOLUTIONS.items():
                touched.add((
                    doc["name"], doc.get("labels_key", ""), res,
                    (doc["ts"] // width) * width,
                ))
        for name, lkey, res, bucket in sorted(touched):
            self._refresh_bucket(name, lkey, res, bucket)
        return {"buckets_built": len(touched)}

    def _refresh_bucket(self, name: str, lkey: str, res: str,
                        bucket: float) -> None:
        width = ROLLUP_RESOLUTIONS[res]
        raw = list(self.source.find(
            {
                "name": name,
                "labels_key": lkey,
                "ts": {"$gte": bucket, "$lt": bucket + width},
            },
            {"value": 1, "labels": 1},
        ))
        key = {"name": name, "labels_key": lkey,
               "resolution": res, "ts": bucket}
        if not raw:
            self.dest.delete_many(key)
            return
        values = [doc.get("value", 0.0) for doc in raw]
        summary = dict(key)
        summary.update({
            "labels": raw[-1].get("labels", {}),
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "p95": percentile(values, 95),
            "sum": sum(values),
        })
        self.dest.replace_one(key, summary, upsert=True)

    def query(self, name: str, resolution: str = "1m",
              labels: Optional[Dict[str, Any]] = None,
              since: Optional[float] = None,
              until: Optional[float] = None) -> List[dict]:
        """Buckets for one metric, time-ascending, via the compound index."""
        if resolution not in ROLLUP_RESOLUTIONS:
            raise ValueError(f"unknown rollup resolution {resolution!r}")
        query: Dict[str, Any] = {"name": name, "resolution": resolution}
        ts_bounds: Dict[str, float] = {}
        if since is not None:
            ts_bounds["$gte"] = float(since)
        if until is not None:
            ts_bounds["$lt"] = float(until)
        if ts_bounds:
            query["ts"] = ts_bounds
        if labels is not None:
            query["labels_key"] = labels_key(labels)
        return list(self.dest.find(query, {"_id": 0}).sort([("ts", 1)]))


class TailSampler:
    """Persists only the traces worth keeping (tail-based sampling).

    Registered via :func:`~repro.obs.tracing.add_tail_sampler`, the
    sampler sees every finished *root* span and stores the full trace tree
    when the root breached ``latency_threshold_ms`` or any span in the
    tree carries an error — keeping the interesting 1% affordable instead
    of sampling head-first and hoping.
    """

    def __init__(self, collection: Any,
                 latency_threshold_ms: float = TRACE_LATENCY_THRESHOLD_MS,
                 sample_errors: bool = True, cap: int = TRACE_CAP):
        self.collection = collection
        self.latency_threshold_ms = float(latency_threshold_ms)
        self.sample_errors = sample_errors
        self.cap = int(cap)
        self.collection.create_index([("trace_id", 1)])
        self.collection.create_index("ts")

    def _decision(self, root: Span) -> Optional[str]:
        if root.duration_ms >= self.latency_threshold_ms:
            return "slow"
        if self.sample_errors and any(
            s.status == "error" for s in root.walk()
        ):
            return "error"
        return None

    def __call__(self, root: Span) -> Optional[dict]:
        reason = self._decision(root)
        counter = get_registry().counter(
            "repro_obs_traces_sampled_total",
            "tail-sampling decisions on finished root spans",
        )
        if reason is None:
            counter.inc(1, decision="dropped")
            return None
        counter.inc(1, decision="kept")
        doc = {
            "ts": time.time(),
            "trace_id": root.trace_id,
            "name": root.name,
            "duration_ms": root.duration_ms,
            "status": root.status,
            "reason": reason,
            "spans": sum(1 for _ in root.walk()),
            "trace": root.to_dict(),
        }
        self.collection.insert_one(doc)
        while self.collection.count_documents() > self.cap:
            if self.collection.find_one_and_delete(
                {}, sort=[("ts", 1)]
            ) is None:
                break
        return doc

    def install(self) -> "TailSampler":
        add_tail_sampler(self)
        return self

    def uninstall(self) -> None:
        remove_tail_sampler(self)

    def get(self, trace_id: str) -> Optional[dict]:
        """Every sampled root for one trace id (``GET /traces/<id>``)."""
        roots = list(self.collection.find(
            {"trace_id": trace_id}, {"_id": 0}
        ).sort([("ts", 1)]))
        if not roots:
            return None
        return {"trace_id": trace_id, "roots": roots}

    def query(self, min_duration_ms: Optional[float] = None,
              status: Optional[str] = None, limit: int = 50) -> List[dict]:
        """Sampled traces (without the full trees), most recent first."""
        q: Dict[str, Any] = {}
        if min_duration_ms is not None:
            q["duration_ms"] = {"$gte": float(min_duration_ms)}
        if status is not None:
            q["status"] = status
        cursor = self.collection.find(q, {"_id": 0, "trace": 0}).sort(
            [("ts", -1)]
        )
        if limit:
            cursor = cursor.limit(int(limit))
        return list(cursor)


class TelemetryWarehouse(TaskDaemon):
    """The telemetry database and its recorders, built over a live store.

    ``TelemetryWarehouse(store)`` creates the ``telemetry`` collections
    with their query and TTL indexes and wires up the access log, metrics
    recorder, rollup builder, and tail sampler.  :meth:`tick` runs one
    synchronous recording pass; :meth:`start` runs it on a background
    interval and starts the store's TTL reaper so retention is enforced.
    """

    def __init__(self, store: Any, db_name: str = "telemetry",
                 registry: Optional[MetricsRegistry] = None,
                 metrics_ttl_s: float = METRICS_TTL_S,
                 rollup_ttl_s: float = ROLLUP_TTL_S,
                 access_ttl_s: float = ACCESS_TTL_S,
                 traces_ttl_s: float = TRACES_TTL_S,
                 profile_ttl_s: float = PROFILE_TTL_S,
                 profiles_ttl_s: float = PROFILES_TTL_S,
                 events_ttl_s: float = EVENTS_TTL_S,
                 trace_latency_threshold_ms: float =
                 TRACE_LATENCY_THRESHOLD_MS, clock: Any = None):
        # Imported lazily: repro.api pulls repro.obs in at import time, so
        # the reverse edge must not exist at module scope.
        from ..api.querylog import QueryLog

        self.store = store
        self.db = store.get_database(db_name)
        self.db["metrics"].create_index(
            "ts", expire_after_seconds=metrics_ttl_s
        )
        self.db["metrics_rollup"].create_index(
            "ts", expire_after_seconds=rollup_ttl_s
        )
        self.db["traces"].create_index(
            "ts", name="ts_ttl", expire_after_seconds=traces_ttl_s
        )
        self.db["profile"].create_index(
            [("db", 1), ("ts", 1)]
        )
        self.db["profile"].create_index(
            "ts", name="ts_ttl", expire_after_seconds=profile_ttl_s
        )
        self.db["profiles"].create_index(
            "ts", name="ts_ttl", expire_after_seconds=profiles_ttl_s
        )
        self.db["events"].create_index([("type", 1), ("ts", 1)])
        self.db["events"].create_index(
            "ts", name="ts_ttl", expire_after_seconds=events_ttl_s
        )
        self.access = QueryLog(
            collection=self.db["access"], ttl_s=access_ttl_s
        )
        self.recorder = MetricsHistoryRecorder(
            self.db["metrics"], registry=registry
        )
        self.rollups = MetricsRollupBuilder(self.db)
        self.tail_sampler = TailSampler(
            self.db["traces"],
            latency_threshold_ms=trace_latency_threshold_ms,
        )
        self._profile_dbs: Dict[str, Any] = {}
        self._profile_cursor: Dict[str, float] = {}
        self._task = PeriodicTask("repro-telemetry-warehouse", 5.0, self.tick,
                                  clock)

    # -- profile mirroring ------------------------------------------------

    def watch_profile(self, db: Any) -> "TelemetryWarehouse":
        """Mirror ``db``'s new ``system.profile`` entries on every tick."""
        self._profile_dbs[db.name] = db
        return self

    def sync_profile(self, db: Optional[Any] = None) -> int:
        """Copy new profile entries into ``telemetry.profile``; returns
        the number mirrored.  The cursor is the last seen ``ts`` per
        database (strictly-greater matching: same-instant entries arriving
        across two syncs can be skipped, which retention tolerates)."""
        dbs = [db] if db is not None else list(self._profile_dbs.values())
        mirrored = 0
        for source in dbs:
            cursor = self._profile_cursor.get(source.name, float("-inf"))
            fresh = [
                e for e in source.profile_log if e.get("ts", 0.0) > cursor
            ]
            if not fresh:
                continue
            docs = [
                {
                    "db": source.name,
                    "ns": e.get("ns"),
                    "op": e.get("op"),
                    "millis": e.get("millis", 0.0),
                    "ts": e.get("ts", 0.0),
                    "planSummary": e.get("planSummary"),
                    "query": e.get("query"),
                    "docsExamined": e.get("docsExamined", 0),
                    "nreturned": e.get("nreturned", 0),
                }
                for e in fresh
            ]
            self.db["profile"].insert_many(docs)
            self._profile_cursor[source.name] = max(
                e.get("ts", 0.0) for e in fresh
            )
            mirrored += len(docs)
        return mirrored

    def profile_entries(self, db_name: Optional[str] = None) -> List[dict]:
        """Mirrored profile documents (the advisor's warehouse evidence)."""
        query = {"db": db_name} if db_name is not None else {}
        return list(self.db["profile"].find(query, {"_id": 0}).sort(
            [("ts", 1)]
        ))

    # -- profiler snapshots -----------------------------------------------

    def record_profiler_snapshot(self, profiler: Optional[Any] = None,
                                 stacks: int = PROFILE_SNAPSHOT_STACKS,
                                 now: Optional[float] = None) -> int:
        """Persist one sampling-profiler snapshot into
        ``telemetry.profiles``; returns the number of documents written
        (0 when no profiler is running or it has no samples yet).

        Only the hottest ``stacks`` folded stacks are stored — the
        profiler itself already bounds distinct stacks, this bounds the
        per-snapshot document size.
        """
        from .profiler import get_profiler

        if profiler is None:
            profiler = get_profiler()
        if profiler is None or not profiler.running:
            return 0
        snap = profiler.snapshot(limit=stacks)
        if not snap.get("samples"):
            return 0
        doc = {
            "ts": time.time() if now is None else now,
            "hz": snap["hz"],
            "samples": snap["samples"],
            "threads": snap["threads"],
            "distinct_stacks": snap["distinct_stacks"],
            "truncated": snap["truncated"],
            "duration_s": snap["duration_s"],
            "overhead_ms": snap["overhead_ms"],
            "stacks": snap["stacks"],
            "top": snap["top"],
        }
        self.db["profiles"].insert_one(doc)
        get_registry().counter(
            "repro_warehouse_profiler_snapshots_total",
            "sampling-profiler snapshots recorded into telemetry.profiles",
        ).inc(1)
        return 1

    # -- flight-recorder events --------------------------------------------

    def record_flight_event(self, event: dict) -> dict:
        """Land one flight-recorder incident in ``telemetry.events``.

        Usable directly as a :class:`~repro.obs.flight.StallWatchdog`
        ``event_sink``.  Stack dumps are capped so a many-threaded stall
        can't write an unbounded document.
        """
        doc = dict(event)
        doc.setdefault("ts", time.time())
        doc.setdefault("type", "unknown")
        stacks = doc.get("stacks")
        if isinstance(stacks, list) and len(stacks) > 32:
            doc["stacks"] = stacks[:32]
            doc["stacks_truncated"] = len(stacks) - 32
        self.db["events"].insert_one(doc)
        get_registry().counter(
            "repro_warehouse_flight_events_total",
            "flight-recorder incidents recorded into telemetry.events",
        ).inc(1, type=str(doc["type"]))
        return doc

    def flight_events(self, event_type: Optional[str] = None,
                      since: Optional[float] = None,
                      limit: int = 0) -> List[dict]:
        """Recorded flight incidents, time-ascending, via ``(type, ts)``."""
        query: Dict[str, Any] = {}
        if event_type is not None:
            query["type"] = event_type
        if since is not None:
            query["ts"] = {"$gte": float(since)}
        cursor = self.db["events"].find(query, {"_id": 0}).sort([("ts", 1)])
        if limit:
            cursor = cursor.limit(int(limit))
        return list(cursor)

    def profiler_snapshots(self, since: Optional[float] = None,
                           limit: int = 0) -> List[dict]:
        """Persisted profiler snapshots, time-ascending."""
        query: Dict[str, Any] = {}
        if since is not None:
            query["ts"] = {"$gte": float(since)}
        cursor = self.db["profiles"].find(query, {"_id": 0}).sort(
            [("ts", 1)]
        )
        if limit:
            cursor = cursor.limit(int(limit))
        return list(cursor)

    # -- SLO / advisor integration ---------------------------------------

    def latency_source(self, threshold_ms: float,
                       endpoint: Any = None) -> Any:
        """A warehouse-backed SLO latency source (survives restarts)."""
        from .slo import LatencyWindowSource

        return LatencyWindowSource.from_warehouse(
            self.access, threshold_ms, endpoint=endpoint
        )

    def slo_engine(self, rules: Optional[List[Any]] = None) -> Any:
        """An SLO engine whose alert history lives in ``telemetry.alerts``
        — open alerts persist through the journal and are re-adopted on
        construction after a restart."""
        from .slo import SLOEngine

        return SLOEngine(self.db, rules or [], collection="alerts")

    def advisor(self, db: Any, min_millis: float = 0.0,
                min_occurrences: int = 1) -> Any:
        """An index advisor mining the persisted profile mirror for ``db``."""
        from .advisor import IndexAdvisor

        return IndexAdvisor.from_warehouse(
            self, db, min_millis=min_millis,
            min_occurrences=min_occurrences,
        )

    # -- recording loop ----------------------------------------------------

    def tick(self, now: Optional[float] = None) -> dict:
        """One synchronous pass: record metrics, roll up, mirror profiles."""
        points = self.recorder.record_once(now)
        rollup = self.rollups.process_pending()
        mirrored = self.sync_profile()
        profiler_snaps = self.record_profiler_snapshot(now=now)
        return {
            "metric_points": points,
            "rollup": rollup,
            "profile_mirrored": mirrored,
            "profiler_snapshots": profiler_snaps,
        }

    def start(self, interval_s: float = 5.0,
              reap_interval_s: Optional[float] = None
              ) -> "TelemetryWarehouse":
        """Run :meth:`tick` on a background interval; also starts the
        store's TTL reaper (stopped by ``store.close()``)."""
        self.store.start_ttl_reaper(reap_interval_s)
        self._task.start(interval_s)
        return self

    def stop(self) -> None:
        """Stop the recording loop (the TTL reaper belongs to the store)."""
        self._task.stop()

    def __enter__(self) -> "TelemetryWarehouse":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- read surface ------------------------------------------------------

    def metrics_series(self, name: str, resolution: str = "raw",
                       labels: Optional[Dict[str, Any]] = None,
                       since: Optional[float] = None,
                       until: Optional[float] = None,
                       limit: int = 0) -> List[dict]:
        """Raw points (``resolution="raw"``) or rollup buckets (``"1m"`` /
        ``"1h"``) for one metric — the ``GET /telemetry/metrics`` data."""
        if resolution == "raw":
            return self.recorder.series(
                name, labels=labels, since=since, until=until, limit=limit
            )
        rows = self.rollups.query(
            name, resolution=resolution, labels=labels,
            since=since, until=until,
        )
        return rows[-limit:] if limit else rows

    def metric_names(self) -> List[str]:
        """Distinct metric names with recorded history."""
        return sorted(self.db["metrics"].distinct("name"))

    def stats(self) -> dict:
        """Row counts per telemetry collection (the warehouse's own size)."""
        return {
            name: self.db[name].count_documents()
            for name in ("metrics", "metrics_rollup", "access",
                         "traces", "profile", "profiles", "alerts",
                         "events")
        }
