"""Access-log warehouse — structured request records in a real collection.

The paper's operational premise is that a datastore's own usage data is
best served *by* the datastore: Materials Project runs its query logs and
usage analytics through the same MongoDB that serves science.  This module
is that loop closed.  Every served request — QueryEngine queries (the
Figure 5 measurement), Materials API HTTP hits, and wire-protocol
exchanges — lands as a structured record in a queryable collection
(``telemetry.access`` in a warehouse deployment, a detached in-memory
collection otherwise)::

    {"ts": ..., "seq": 17, "endpoint": "rest/v1/materials", "method":
     "GET", "user": "alice", "status": 200, "duration_ms": 1.8,
     "nreturned": 10, "request_bytes": 91, "response_bytes": 2048,
     "collection": "materials", "query": "...", "error": None}

One request is one record.  An HTTP request opens :meth:`QueryLog.request`
around its routing, and the QueryEngine calls it makes fold their
collection, result count and query into that request's record instead of
writing records of their own.

Recording is off the request path while the log's writer runs
(:meth:`QueryLog.start`, done by the telemetry warehouse): a request only
queues its record, and one :class:`~repro.background.PeriodicTask` writes
the queue with one ``insert_many`` per tick.  A full queue drops new
records and counts them in ``repro_api_access_dropped_total``.  With the
writer stopped every record is written at once, as before.  Every read
below flushes the queue first, so the log always reads its own writes;
a reader of the bare collection sees a record within one tick.

The QCFractal-style :meth:`QueryLog.query_access_log` filter surface
answers "who hit what, when, how slowly" straight from the collection, and
the legacy Figure 5 views (:meth:`histogram`, :meth:`time_series`,
:meth:`summary`, :meth:`by_collection`) are reimplemented as warehouse
queries over the same records.  Compound ``(endpoint, ts)`` and ``ts``
indexes keep those reads on the planner's IXSCAN path.

The log also feeds the shared metrics registry (:mod:`repro.obs`), so
``GET /metrics`` exposes the same latency distribution as
``repro_api_query_millis`` quantiles without a second measurement path.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..background import PeriodicTask, TaskDaemon
from ..docstore.collection import Collection
from ..obs import get_registry, percentile

__all__ = ["QueryLog", "ACCESS_CAP", "access_top"]

#: Records kept before the oldest are evicted (capped-collection analog;
#: a TTL index on ``ts`` usually reaps much earlier in a warehouse).
ACCESS_CAP = 100_000

#: How often the running writer writes the queue (one ``insert_many``).
FLUSH_INTERVAL_S = 0.05

#: Records queued before new ones are dropped: seconds of traffic at any
#: request rate the server reaches, so only a wedged writer drops.
MAX_PENDING = 10_000

_Filter = Union[str, int, Sequence[Any], None]


def _filter_clause(value: _Filter) -> Any:
    """One filter argument → a query condition (scalar or ``$in``)."""
    if isinstance(value, (list, tuple, set, frozenset)):
        return {"$in": list(value)}
    return value


def access_top(collection: Any, by: str = "duration",
               limit: int = 10) -> List[dict]:
    """Endpoints ranked by total time / hits / errors over any collection
    holding access records — a local ``telemetry.access`` or a
    :class:`~repro.docstore.server.RemoteCollection` over the wire (the
    CLI's remote path), since only ``aggregate`` is required."""
    rows = collection.aggregate([
        {"$group": {
            "_id": "$endpoint",
            "count": {"$sum": 1},
            "total_ms": {"$sum": "$duration_ms"},
            "mean_ms": {"$avg": "$duration_ms"},
            "max_ms": {"$max": "$duration_ms"},
            "nreturned": {"$sum": "$nreturned"},
            "response_bytes": {"$sum": "$response_bytes"},
        }},
    ])
    errors: Dict[str, int] = {}
    for rec in collection.aggregate([
        {"$match": {"status": {"$gte": 400}}},
        {"$group": {"_id": "$endpoint", "errors": {"$sum": 1}}},
    ]):
        errors[rec["_id"]] = rec["errors"]
    out = []
    for row in rows:
        out.append({
            "endpoint": row["_id"],
            "count": row["count"],
            "total_ms": row["total_ms"] or 0.0,
            "mean_ms": row["mean_ms"] or 0.0,
            "max_ms": row["max_ms"] or 0.0,
            "nreturned": row["nreturned"] or 0,
            "response_bytes": row["response_bytes"] or 0,
            "errors": errors.get(row["_id"], 0),
        })
    sort_key = {
        "duration": lambda r: r["total_ms"],
        "count": lambda r: r["count"],
        "errors": lambda r: r["errors"],
    }.get(by)
    if sort_key is None:
        raise ValueError(f"unknown top ordering {by!r}")
    out.sort(key=sort_key, reverse=True)
    return out[:limit] if limit else out


class QueryLog(TaskDaemon):
    """Thread-safe access log backed by a docstore collection.

    ``QueryLog()`` uses a detached in-memory collection (seed-era
    behaviour, exercised heavily by the Figure 5 tests); the telemetry
    warehouse passes ``collection=store["telemetry"]["access"]`` so
    records persist, survive restarts, and are queryable over the wire.
    ``start()`` runs the batch writer (steppable by a ``SimClock`` passed
    as ``clock``); ``stop()`` stops it and writes what is still queued.
    """

    def __init__(self, collection: Optional[Collection] = None,
                 cap: int = ACCESS_CAP, ttl_s: Optional[float] = None,
                 clock: Any = None):
        self.collection = (
            collection if collection is not None else Collection("access")
        )
        self.cap = int(cap)
        self.ttl_s = ttl_s
        self._lock = threading.Lock()
        # Held across a whole flush so batches land in ``seq`` order.
        self._flush_lock = threading.Lock()
        self._pending: List[dict] = []
        # ``.fold`` is set while this thread serves a request (:meth:`request`).
        self._serving = threading.local()
        self._ensure_indexes()
        self._seq = self._resume_seq()
        self._task = PeriodicTask("repro-access-log", FLUSH_INTERVAL_S,
                                  self.flush, clock)

    def _ensure_indexes(self) -> None:
        # (endpoint, ts) serves the per-endpoint analytics; ts alone serves
        # time-range scans, sort push-down, and doubles as the TTL key when
        # the warehouse sets retention (``ttl_s``); seq gives stable FIFO
        # eviction.
        self.collection.create_index([("endpoint", 1), ("ts", 1)])
        self.collection.create_index("ts", expire_after_seconds=self.ttl_s)
        self.collection.create_index("seq")

    def _resume_seq(self) -> int:
        last = list(
            self.collection.find({}, {"seq": 1}).sort([("seq", -1)]).limit(1)
        )
        return int(last[0].get("seq", -1)) + 1 if last else 0

    # -- recording -----------------------------------------------------------

    def record_access(
        self,
        endpoint: str,
        method: str = "GET",
        user: Optional[str] = None,
        status: int = 200,
        duration_ms: float = 0.0,
        nreturned: int = 0,
        request_bytes: int = 0,
        response_bytes: int = 0,
        ts: Optional[float] = None,
        collection: Optional[str] = None,
        query_repr: Optional[str] = None,
        error: Optional[str] = None,
    ) -> dict:
        """Queue one structured access record and return it; written at
        once when the writer is not running."""
        record = {
            "ts": time.time() if ts is None else float(ts),
            "seq": None,
            "endpoint": endpoint,
            "method": method,
            "user": user,
            "status": int(status),
            "error": error,
            "duration_ms": float(duration_ms),
            "nreturned": int(nreturned),
            "request_bytes": int(request_bytes),
            "response_bytes": int(response_bytes),
            "collection": collection,
            "query": query_repr,
        }
        with self._lock:
            full = len(self._pending) >= MAX_PENDING
            if not full:
                record["seq"] = self._seq
                self._seq += 1
                self._pending.append(record)
        if full:
            get_registry().counter(
                "repro_api_access_dropped_total",
                "access records dropped because the write queue was full",
            ).inc(1)
        elif not self._task.running:
            self.flush()
        return record

    def flush(self) -> int:
        """Write every queued record with one ``insert_many``, evict over
        the cap, and return how many were written."""
        with self._flush_lock:
            with self._lock:
                batch, self._pending = self._pending, []
            if not batch:
                return 0
            self.collection.insert_many(batch)
            self._evict()
        written = get_registry().counter(
            "repro_api_access_total", "access records written")
        for record in batch:
            written.inc(1, method=record["method"])
        return len(batch)

    def stop(self) -> None:
        """Stop the writer, then write what is still queued."""
        self._task.stop()
        self.flush()

    @contextmanager
    def request(self) -> Iterator[dict]:
        """Serve one request inside this block to give it one record.

        :meth:`record` calls made here on this log fold into the yielded
        dict — ``collection`` and ``query_repr`` of the first query and
        ``nreturned`` summed — which the caller passes to its own
        :meth:`record_access`."""
        fold: Dict[str, Any] = {"collection": None, "query_repr": None,
                                "nreturned": 0}
        self._serving.fold = fold
        try:
            yield fold
        finally:
            self._serving.fold = None

    def record(
        self,
        collection: str,
        millis: float,
        nreturned: int,
        user: Optional[str] = None,
        ts: Optional[float] = None,
        query_repr: Optional[str] = None,
    ) -> None:
        """Legacy QueryEngine entry point (Figure 5 measurement path): a
        ``query/<collection>`` record, or a fold into the request this
        log is serving (:meth:`request`)."""
        fold = getattr(self._serving, "fold", None)
        if fold is not None:
            if fold["collection"] is None:
                fold["collection"] = collection
                fold["query_repr"] = query_repr
            fold["nreturned"] += int(nreturned)
        else:
            self.record_access(
                endpoint=f"query/{collection}",
                method="QUERY",
                user=user,
                duration_ms=millis,
                nreturned=nreturned,
                ts=ts,
                collection=collection,
                query_repr=query_repr,
            )
        registry = get_registry()
        registry.counter(
            "repro_api_queries_total", "queries served by the QueryEngine"
        ).inc(1, collection=collection)
        registry.histogram(
            "repro_api_query_millis", "QueryEngine latency"
        ).observe(float(millis), collection=collection)

    def _evict(self) -> None:
        excess = self.collection.count_documents() - self.cap
        if excess > 0:
            oldest = self.collection.find({}, {"seq": 1}).sort(
                [("seq", 1)]).skip(excess - 1).limit(1).to_list()
            self.collection.delete_many({"seq": {"$lte": oldest[0]["seq"]}})

    def clear(self) -> None:
        """Drop every record (test/benchmark isolation)."""
        self._flushed().delete_many({})

    def __len__(self) -> int:
        return self._flushed().count_documents()

    def _flushed(self) -> Collection:
        """The collection, with the queue written first: every read of
        the log sees every record recorded before it."""
        self.flush()
        return self.collection

    # -- the analytics query surface ----------------------------------------

    def query_access_log(
        self,
        endpoint: _Filter = None,
        method: _Filter = None,
        user: _Filter = None,
        status: _Filter = None,
        collection: _Filter = None,
        before: Optional[float] = None,
        after: Optional[float] = None,
        min_duration_ms: Optional[float] = None,
        errors_only: bool = False,
        limit: int = 0,
        skip: int = 0,
    ) -> List[dict]:
        """Filtered access records, most recent first (QCFractal style).

        Scalar filters match exactly; list filters become ``$in``.  Time
        bounds are epoch seconds; ``errors_only`` keeps records whose
        status is >= 400 or that carry an ``error`` type.
        """
        query: Dict[str, Any] = {}
        for fname, value in (
            ("endpoint", endpoint), ("method", method), ("user", user),
            ("status", status), ("collection", collection),
        ):
            if value is not None:
                query[fname] = _filter_clause(value)
        ts_bounds: Dict[str, float] = {}
        if after is not None:
            ts_bounds["$gte"] = float(after)
        if before is not None:
            ts_bounds["$lt"] = float(before)
        if ts_bounds:
            query["ts"] = ts_bounds
        if min_duration_ms is not None:
            query["duration_ms"] = {"$gte": float(min_duration_ms)}
        if errors_only:
            query["$or"] = [
                {"status": {"$gte": 400}},
                {"error": {"$ne": None}},
            ]
        cursor = self._flushed().find(query, {"_id": 0}).sort(
            [("ts", -1), ("seq", -1)]
        )
        if skip:
            cursor = cursor.skip(int(skip))
        if limit:
            cursor = cursor.limit(int(limit))
        return list(cursor)

    def top(self, by: str = "duration", limit: int = 10) -> List[dict]:
        """Endpoints ranked by total time (``by="duration"``), hit count
        (``"count"``), or error count (``"errors"``) — the data behind
        ``repro telemetry top``."""
        return access_top(self._flushed(), by=by, limit=limit)

    # -- legacy Fig. 5 views (now warehouse queries) -------------------------

    @property
    def entries(self) -> List[dict]:
        """Records in arrival order, shaped like the seed-era log entries."""
        return [
            {
                "ts": doc["ts"],
                "collection": doc.get("collection") or doc.get("endpoint"),
                "millis": doc.get("duration_ms", 0.0),
                "nreturned": doc.get("nreturned", 0),
                "user": doc.get("user"),
                "query": doc.get("query"),
            }
            for doc in self._flushed().find({}).sort([("seq", 1)])
        ]

    def _durations(self) -> List[float]:
        return [
            doc.get("duration_ms", 0.0)
            for doc in self._flushed().find({}, {"duration_ms": 1})
        ]

    def histogram(
        self, bin_edges_ms: Optional[Sequence[float]] = None
    ) -> List[Tuple[str, int]]:
        """Latency histogram as (label, count) rows.

        Default bins are logarithmic, matching the paper's figure which
        spans sub-ms to multi-second outliers.
        """
        edges = list(
            bin_edges_ms
            if bin_edges_ms is not None
            else [0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000]
        )
        counts = [0] * (len(edges) + 1)
        for ms in self._durations():
            placed = False
            for i, edge in enumerate(edges):
                if ms < edge:
                    counts[i] += 1
                    placed = True
                    break
            if not placed:
                counts[-1] += 1
        rows = []
        lo = 0.0
        for i, edge in enumerate(edges):
            rows.append((f"[{lo:g}, {edge:g}) ms", counts[i]))
            lo = edge
        rows.append((f">= {edges[-1]:g} ms", counts[-1]))
        return rows

    def time_series(self) -> List[Tuple[float, float]]:
        """(timestamp, millis) pairs in time order — the inset scatter.

        Served by an index-ordered scan on ``ts`` (sort push-down)."""
        return [
            (doc["ts"], doc.get("duration_ms", 0.0))
            for doc in self._flushed().find(
                {}, {"ts": 1, "duration_ms": 1}
            ).sort([("ts", 1)])
        ]

    def percentile(self, p: float) -> float:
        return percentile(self._durations(), p)

    def summary(self) -> dict:
        coll = self._flushed()
        n = coll.count_documents()
        if not n:
            return {"queries": 0, "records_returned": 0}
        grouped = coll.aggregate([
            {"$group": {
                "_id": None,
                "records_returned": {"$sum": "$nreturned"},
            }},
        ])
        users = {
            doc["user"]
            for doc in coll.find(
                {"user": {"$ne": None}}, {"user": 1}
            )
        }
        lat = self._durations()
        ordered = sorted(lat)
        return {
            "queries": n,
            "records_returned": grouped[0]["records_returned"] if grouped else 0,
            "distinct_users": len(users),
            "median_ms": percentile(ordered, 50),
            "p95_ms": percentile(ordered, 95),
            "p99_ms": percentile(ordered, 99),
            "max_ms": ordered[-1],
            "mean_ms": sum(lat) / len(lat),
        }

    def by_collection(self) -> Dict[str, dict]:
        rows = self._flushed().aggregate([
            {"$match": {"collection": {"$ne": None}}},
            {"$group": {
                "_id": "$collection",
                "queries": {"$sum": 1},
                "mean_ms": {"$avg": "$duration_ms"},
                "max_ms": {"$max": "$duration_ms"},
            }},
        ])
        return {
            row["_id"]: {
                "queries": row["queries"],
                "mean_ms": row["mean_ms"] or 0.0,
                "max_ms": row["max_ms"] or 0.0,
            }
            for row in rows
        }
