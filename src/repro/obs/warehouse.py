"""Telemetry warehouse: the query log and its companions in the datastore.

The paper's operational stance is that a datastore's own telemetry is best
served *by* the datastore — Materials Project runs query logs and usage
analytics through the same MongoDB that serves science.  Access records
and sampled traces evaporate on restart when they live only in memory;
this module dogfoods the engine by landing them in real collections in a
``telemetry`` database:

* ``telemetry.access`` — the :class:`~repro.api.querylog.QueryLog`
  access-log warehouse: one record per Materials API HTTP request (its
  QueryEngine calls folded in) and per wire exchange, queued by the
  request and written in batches by the log's own writer task.
* ``telemetry.traces`` — :class:`TailSampler` keeps only traces whose root
  span breached a latency threshold or whose tree carries an error.

Nothing here is a second copy of state the process already holds.
Metrics history (counter deltas, gauges, histogram quantiles) and
incidents (stalls, shutdowns) live only in the out-of-band flight ring
(:mod:`repro.obs.flight`), the way MongoDB keeps FTDC out of its own
collections: the ring is written with plain file appends, so it keeps
recording when the store's journal wedges, and an incident lasts as long
as the ring holds it (plus the last ``crash_report.json``).  Index advice
mines the live ``system.profile`` and flamegraphs come from the running
sampling profiler (``repro advise``, ``repro profile``,
``/debug/profile``); neither survives a restart.

The collections carry query indexes (``(endpoint, ts)``, ``trace_id``)
so warehouse analytics ride the cost-based planner's IXSCAN path, and
TTL indexes (``create_index(..., expire_after_seconds=N)``) so the
warehouse bounds its own disk use via the engine's reaper — retention is
a datastore feature here, not a cron job.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from .metrics import get_registry
from .tracing import Span, add_tail_sampler, remove_tail_sampler

__all__ = [
    "TelemetryWarehouse",
    "TailSampler",
]

#: The database the warehouse lives in.
DB_NAME = "telemetry"

#: Retention windows (seconds) per telemetry collection.
ACCESS_TTL_S = 14 * 86400.0
TRACES_TTL_S = 86400.0

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
                 cap: int = TRACE_CAP):
        self.collection = collection
        self.latency_threshold_ms = float(latency_threshold_ms)
        self.cap = int(cap)
        self.collection.create_index([("trace_id", 1)])
        self.collection.create_index("ts")

    def _decision(self, root: Span) -> Optional[str]:
        if root.duration_ms >= self.latency_threshold_ms:
            return "slow"
        if any(s.status == "error" for s in root.walk()):
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


class TelemetryWarehouse:
    """The telemetry database and its recorders, built over a live store.

    ``TelemetryWarehouse(store)`` creates the ``telemetry`` collections
    with their query and TTL indexes and wires up the access log and tail
    sampler.  :meth:`start` starts the access log's batch writer and the
    store's TTL reaper, so retention is enforced.
    """

    def __init__(self, store: Any, trace_latency_threshold_ms: float =
                 TRACE_LATENCY_THRESHOLD_MS, clock: Any = None):
        # Imported lazily: repro.api pulls repro.obs in at import time, so
        # the reverse edge must not exist at module scope.
        from ..api.querylog import QueryLog

        self.store = store
        self.db = store.get_database(DB_NAME)
        self.db["traces"].create_index(
            "ts", name="ts_ttl", expire_after_seconds=TRACES_TTL_S
        )
        self.access = QueryLog(
            collection=self.db["access"], ttl_s=ACCESS_TTL_S, clock=clock
        )
        self.tail_sampler = TailSampler(
            self.db["traces"],
            latency_threshold_ms=trace_latency_threshold_ms,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self, reap_interval_s: Optional[float] = None, *,
              interval_s: Optional[float] = None) -> "TelemetryWarehouse":
        """Start the access log's batch writer and the store's TTL reaper
        (stopped by ``store.close()``).  ``interval_s`` is ignored: the
        warehouse has no recording loop, and the keyword is accepted only
        so callers written against the old signature keep working."""
        self.store.start_ttl_reaper(reap_interval_s)
        self.access.start()
        return self

    def stop(self) -> None:
        """Stop the access writer, writing what it still holds (the TTL
        reaper belongs to the store)."""
        self.access.stop()

    @property
    def running(self) -> bool:
        return self.access.running

    # -- read surface ------------------------------------------------------

    def stats(self) -> dict:
        """Row counts per telemetry collection (the warehouse's own size)."""
        return {
            name: self.db[name].count_documents()
            for name in ("access", "traces")
        }
