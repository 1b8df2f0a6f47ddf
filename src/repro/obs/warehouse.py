"""Telemetry warehouse: per-request and per-incident telemetry in the datastore.

The paper's operational stance is that a datastore's own telemetry is best
served *by* the datastore — Materials Project runs query logs and usage
analytics through the same MongoDB that serves science.  Access records,
sampled traces, profiler evidence, and alerts evaporate on restart when
they live only in memory; this module dogfoods the engine by landing them
in real collections in a ``telemetry`` database:

* ``telemetry.access`` — the :class:`~repro.api.querylog.QueryLog`
  access-log warehouse: one record per Materials API HTTP request (its
  QueryEngine calls folded in) and per wire exchange, queued by the
  request and written in batches by the log's own writer task.
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

Metrics history is not here: the registry's time series (counter deltas,
gauges, histogram quantiles) live only in the out-of-band flight ring
(:mod:`repro.obs.flight`), the way MongoDB keeps FTDC out of its own
collections.

Every collection carries compound query indexes (``(endpoint, ts)``,
``(db, ts)``, ``(type, ts)``) so warehouse analytics ride the cost-based
planner's IXSCAN path, and TTL indexes (``create_index(...,
expire_after_seconds=N)``) so the warehouse bounds its own disk use via
the engine's reaper — retention is a datastore feature here, not a cron
job.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..background import PeriodicTask, TaskDaemon
from .metrics import get_registry
from .tracing import Span, add_tail_sampler, remove_tail_sampler

__all__ = [
    "TelemetryWarehouse",
    "TailSampler",
]

#: Default retention windows (seconds) per telemetry collection.
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
    with their query and TTL indexes and wires up the access log and tail
    sampler.  :meth:`tick` runs one synchronous pass (profile mirroring
    and a profiler snapshot); :meth:`start` runs it on a background
    interval, starts the access log's batch writer, and starts the store's
    TTL reaper so retention is enforced.
    """

    def __init__(self, store: Any, db_name: str = "telemetry",
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
            collection=self.db["access"], ttl_s=access_ttl_s, clock=clock
        )
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
        """One synchronous pass: mirror profiles, snapshot the profiler."""
        return {
            "profile_mirrored": self.sync_profile(),
            "profiler_snapshots": self.record_profiler_snapshot(now=now),
        }

    def start(self, interval_s: float = 5.0,
              reap_interval_s: Optional[float] = None
              ) -> "TelemetryWarehouse":
        """Run :meth:`tick` on a background interval and the access log's
        batch writer on its own; also starts the store's TTL reaper
        (stopped by ``store.close()``)."""
        self.store.start_ttl_reaper(reap_interval_s)
        self.access.start()
        self._task.start(interval_s)
        return self

    def stop(self) -> None:
        """Stop the recording loop and the access writer, writing what it
        still holds (the TTL reaper belongs to the store)."""
        self._task.stop()
        self.access.stop()

    def __enter__(self) -> "TelemetryWarehouse":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- read surface ------------------------------------------------------

    def stats(self) -> dict:
        """Row counts per telemetry collection (the warehouse's own size)."""
        return {
            name: self.db[name].count_documents()
            for name in ("access", "traces", "profile", "profiles",
                         "alerts", "events")
        }
