"""Databases and the client entry point.

A :class:`Database` is a namespace of collections; :class:`DocumentStore`
plays the role of ``MongoClient`` — it owns databases and the optional
persistence layer.

Every collection operation is described by one record, its
:class:`~repro.docstore.ops.ActiveOp`: the ``current_op()`` row while it
runs (for a database of a :class:`DocumentStore`), and, when it finishes
cleanly, the one argument of :meth:`Database._observe_op`, the single
instrumentation funnel behind five consumers:

* **opcounters** — MongoDB ``serverStatus``-style totals per op category
  (insert/query/update/delete/getmore/command), see :meth:`server_status`;
* **top accounting** — ``mongotop``-style cumulative read/write time per
  collection, see :meth:`top`;
* **the profiler** — MongoDB semantics: level 0 off, level 1 records read
  ops plus anything slower than ``slowms``, level 2 records every op, all
  into a queryable ``system.profile`` collection (the data behind the
  paper's Figure 5);
* **the metrics registry** — ``repro_docstore_ops_total`` and
  ``repro_docstore_op_millis`` in :mod:`repro.obs.metrics`;
* **tracing** — when a span was current as the op started (e.g. inside a
  firework launch), the op attaches itself to it as a timed
  ``docstore.<op>`` child span.

Reporting runs after the op has released its collection lock.  An op that
raises is not reported.  ``system.*`` collections are exempt from
observation, so the profiler can write its own records without recursing.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..background import task_table
from ..errors import CollectionNotFound, DocstoreError
from ..obs import get_registry
from ..obs.procstats import process_status
from .collection import Collection
from .ops import ActiveOp, OperationRegistry

__all__ = ["Database", "DocumentStore"]

#: Op categories reported by ``serverStatus``-style opcounters.
OPCOUNTER_KEYS = ("insert", "query", "update", "delete", "getmore", "command")

#: Default slow-op threshold (ms) for profiling level 1, as in MongoDB.
DEFAULT_SLOWMS = 100.0

#: Profile records kept before the oldest are evicted (capped collection).
PROFILE_CAP = 4096

#: Op names treated as reads: recorded at profiling level 1 regardless of
#: latency (our level 1 is "reads + slow ops" so the Fig. 5 query log can
#: be collected without drowning in write records).
_READ_OPS = frozenset({"find", "findOne", "aggregate", "getmore"})

#: Opcounter categories classified as writes by per-collection ``top()``
#: accounting; everything else (query/getmore/command) counts as a read.
_WRITE_KINDS = frozenset({"insert", "update", "delete"})

#: ``locks`` totals, in report order (the ``*_ms`` ones are floats).
LOCK_TOTAL_KEYS = ("read_acquires", "write_acquires", "read_wait_ms",
                   "write_wait_ms", "read_contended", "write_contended",
                   "active_readers", "writers_held", "waiting_writers")

#: ``planCache`` totals, in report order.
PLAN_CACHE_KEYS = ("size", "hits", "misses", "evictions", "invalidations",
                   "replans")


def _rollup(keys: Tuple[str, ...], rows: Iterable[Mapping[str, Any]]) -> dict:
    """Sum ``keys`` over ``rows`` (a missing key counts 0), in ``keys``
    order."""
    out = {key: 0.0 if key.endswith("_ms") else 0 for key in keys}
    for row in rows:
        for key in keys:
            out[key] += row.get(key, 0)
    return out


def _merge_lock_status(named: List[Tuple[str, dict]],
                       limit: int) -> Tuple[dict, List[dict]]:
    """Store-wide lock totals and the ``limit`` worst contended rows, each
    tagged with its ``db``, from ``(db name, Database.lock_status())``
    pairs."""
    top = [{"db": name, **row}
           for name, status in named for row in status["top_contended"]]
    top.sort(key=lambda r: (-r["wait_ms"], r["db"]))
    return _rollup(LOCK_TOTAL_KEYS, (s for _, s in named)), top[:limit]


class Database:
    """A named namespace of collections, created lazily on access."""

    def __init__(self, name: str, client: Optional["DocumentStore"] = None):
        if not name or any(c in name for c in " $/\\."):
            raise DocstoreError(f"invalid database name {name!r}")
        self.name = name
        self.client = client
        self._collections: Dict[str, Collection] = {}
        # Database-level lock guarding the collection map (create/drop).
        self._lock = threading.RLock()
        # Opcounter/top accounting has its own mutex: it is updated from
        # inside collection operations (which may hold a collection lock),
        # and must never nest with the map lock above — a drop waiting on
        # a collection lock while holding the map lock would deadlock
        # against an op reporting its timing.
        self._stats_lock = threading.Lock()
        self._profile_level = 0
        self._slowms = DEFAULT_SLOWMS
        self._opcounters: Dict[str, int] = {k: 0 for k in OPCOUNTER_KEYS}
        self._top: Dict[str, Dict[str, float]] = {}
        self._started_at = time.time()

    def __getitem__(self, name: str) -> Collection:
        return self.get_collection(name)

    def __getattr__(self, name: str) -> Collection:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.get_collection(name)

    def get_collection(self, name: str, create: bool = True) -> Collection:
        with self._lock:
            coll = self._collections.get(name)
            if coll is None:
                if not create:
                    raise CollectionNotFound(
                        f"collection {name!r} not found in db {self.name!r}"
                    )
                coll = Collection(name, database=self)
                self._collections[name] = coll
            return coll

    def list_collection_names(self) -> List[str]:
        """User collection names (``system.*`` namespaces excluded)."""
        with self._lock:
            return sorted(n for n in self._collections
                          if not n.startswith("system."))

    def drop_collection(self, name: str) -> None:
        # Pop under the map lock, drop outside it: taking the collection's
        # exclusive lock while holding the map lock inverts the ordering
        # used by in-flight operations and can deadlock under load.
        with self._lock:
            coll = self._collections.pop(name, None)
        if coll is not None:
            coll.drop()

    # -- the instrumentation funnel ---------------------------------------

    def _observe_op(self, active: ActiveOp) -> None:
        """Report a finished operation; its record calls this as its
        block exits cleanly.

        ``active.op`` is the precise operation name (``find``, ``insert``,
        ``findAndModify``...), ``active.kind`` its opcounter category,
        ``active.n_ops`` how many operations it counts for.
        """
        millis, kind, n_ops = active.millis, active.kind, active.n_ops
        side = "write" if kind in _WRITE_KINDS else "read"
        with self._stats_lock:
            self._opcounters[kind] = self._opcounters.get(kind, 0) + n_ops
            bucket = self._top.setdefault(active.ns, {
                "total_ms": 0.0, "read_ms": 0.0, "write_ms": 0.0,
                "read_count": 0, "write_count": 0,
            })
            bucket["total_ms"] += millis
            bucket[f"{side}_ms"] += millis
            bucket[f"{side}_count"] += n_ops

        registry = get_registry()
        registry.counter(
            "repro_docstore_ops_total", "datastore operations by category"
        ).inc(n_ops, db=self.name, op=kind)
        registry.histogram(
            "repro_docstore_op_millis", "datastore op latency"
        ).observe(millis, db=self.name, op=kind)

        if active.span is not None:
            active.span.record(
                f"docstore.{active.op}", duration_ms=millis, ns=active.ns,
                nreturned=active.nreturned,
            )

        level = self._profile_level
        if level >= 2 or (level == 1 and (active.op in _READ_OPS
                                          or millis >= self._slowms)):
            # Per-stage executionStats are bulky; attach them only for
            # pipelines worth dissecting — slow ones, or full profiling.
            self._record_profile(active, with_stages=level >= 2
                                 or millis >= self._slowms)

    # -- profiling (per-query timing, powers Fig. 5 reproduction) ---------

    def set_profiling_level(self, level: int,
                            slowms: Optional[float] = None) -> None:
        """0 = off; 1 = reads and slow ops; 2 = every operation.

        Mirrors ``db.setProfilingLevel(level, slowms)``: records land in
        the queryable ``system.profile`` collection.
        """
        if level not in (0, 1, 2):
            raise DocstoreError(f"profiling level must be 0, 1, or 2: {level}")
        with self._lock:
            self._profile_level = level
            if slowms is not None:
                self._slowms = float(slowms)

    def get_profiling_level(self) -> int:
        return self._profile_level

    @property
    def slowms(self) -> float:
        return self._slowms

    def _record_profile(self, active: ActiveOp, with_stages: bool) -> None:
        entry = {
            "ns": active.ns,
            "op": active.op,
            "query": active.query,
            "millis": active.millis,
            "nreturned": active.nreturned,
            "ts": time.time(),
        }
        if active.opid is not None:
            # The currentOp opid: joins this entry to lock-contention rows
            # (``holder_opid``/``waiter_opid``) naming the same op.
            entry["opid"] = active.opid
        if active.span is not None:
            # Distributed tracing: the profile entry names the trace that
            # caused it, so a slow server-side op links back to the client.
            entry["trace_id"] = active.span.trace_id
        if active.docs_examined is not None:
            entry["docsExamined"] = active.docs_examined
            entry["keysExamined"] = active.keys_examined
        if active.plan_summary is not None:
            entry["planSummary"] = active.plan_summary
        if with_stages and active.stages is not None:
            # Per-stage aggregation executionStats (docs in/out, elapsed,
            # $group/$sort state size) — the advisor's $match-first signal.
            entry["stages"] = active.stages
        profile = self.get_collection("system.profile")
        with profile._lock:
            try:
                profile._insert(entry, _notify=False)
            except DocstoreError:
                # Query held a value the store cannot hold; keep its repr.
                entry["query"] = repr(active.query)
                profile._insert(entry, _notify=False)
            # Capped-collection behavior: evict the oldest records.  Docs
            # are keyed by ever-growing positions in insertion order, so
            # the first key is the oldest.
            while len(profile) > PROFILE_CAP:
                oldest = next(iter(profile._docs.values()))
                profile._delete_by_id(oldest["_id"])

    @property
    def profile_log(self) -> List[dict]:
        """Recorded op timings (the ``system.profile`` contents)."""
        with self._lock:
            profile = self._collections.get("system.profile")
        return profile.all_documents() if profile is not None else []

    # -- serverStatus / dbStats -------------------------------------------

    def lock_status(self, limit: int = 10) -> dict:
        """Aggregate reader-writer lock accounting across collections.

        Sums the per-collection :meth:`Collection.lock_stats` acquire
        counts and cumulative wait time — the ``server_status()["locks"]``
        payload, and the number an operator watches to see whether the
        engine is read-starved or write-starved.  ``top_contended`` ranks
        the worst (waiter site, holder site) pairings across collections
        by cumulative wait, each row tagged with its collection — the
        attribution layer of the same story: not just *that* the engine
        waited, but *which call path waited on which*.
        """
        with self._lock:
            colls = [c for n, c in self._collections.items()
                     if not n.startswith("system.")]
        stats = [coll.lock_stats() for coll in colls]
        out = _rollup(LOCK_TOTAL_KEYS, [
            {**s, "writers_held": int(s["writer_held"])} for s in stats])
        top = [{"coll": coll.name, **row}
               for coll in colls for row in coll.lock_contention(limit=limit)]
        top.sort(key=lambda r: (-r["wait_ms"], r["coll"]))
        out["top_contended"] = top[:limit]
        return out

    def plan_cache_status(self) -> dict:
        """Aggregate plan-cache counters across collections.

        Returns ``{"totals": {...}, "collections": {name: stats}}`` with
        hit/miss/eviction/invalidation/replan counts — the data behind
        ``server_status()["planCache"]`` and the ``plan_cache`` wire op.
        """
        with self._lock:
            colls = [c for n, c in self._collections.items()
                     if not n.startswith("system.")]
        per_collection = {coll.name: coll.plan_cache_stats() for coll in colls}
        return {"totals": _rollup(PLAN_CACHE_KEYS, per_collection.values()),
                "collections": per_collection}

    def server_status(self) -> dict:
        """MongoDB ``serverStatus``-style snapshot of this database."""
        with self._stats_lock:
            opcounters = dict(self._opcounters)
        with self._lock:
            level = self._profile_level
            slowms = self._slowms
        return {
            "db": self.name,
            "uptime_s": time.time() - self._started_at,
            "opcounters": opcounters,
            "profiling": {"level": level, "slowms": slowms},
            "collections": len(self.list_collection_names()),
            "objects": sum(
                len(c) for n, c in self._collections.items()
                if not n.startswith("system.")
            ),
            "locks": self.lock_status(),
            "planCache": self.plan_cache_status()["totals"],
        }

    def top(self) -> Dict[str, dict]:
        """Per-collection cumulative read/write time (``mongotop`` source).

        Keys are full namespaces (``db.collection``); values carry
        cumulative ``total_ms``/``read_ms``/``write_ms`` and op counts.
        The :class:`repro.obs.health.TopSampler` diffs two calls to render
        per-interval activity.
        """
        with self._stats_lock:
            return {ns: dict(bucket) for ns, bucket in self._top.items()}

    def command_stats(self) -> dict:
        """dbStats-like summary across collections."""
        stats = [c.stats() for n, c in self._collections.items()
                 if not n.startswith("system.")]
        return {
            "db": self.name,
            "collections": len(stats),
            "objects": sum(s["count"] for s in stats),
            "dataSize": sum(s["size"] for s in stats),
            "indexes": sum(s["nindexes"] for s in stats),
        }


class DocumentStore:
    """Top-level client owning databases (MongoClient analog).

    Optionally bound to a persistence directory — see
    :mod:`repro.docstore.persistence` — so snapshots and the write-ahead
    journal have a home.  A bare ``DocumentStore()`` is purely in-memory.

    ``fsync`` selects the journal's durability policy (``"always"``,
    ``"interval"``, or ``"never"``) and ``fsync_interval_s`` the cadence
    of the ``"interval"`` policy; both are ignored for in-memory stores.
    ``clock`` paces the store's TTL reaper (see :mod:`repro.background`).
    """

    def __init__(self, persistence_dir: Optional[str] = None,
                 fsync: str = "interval", fsync_interval_s: float = 0.05,
                 clock: Any = None):
        self._clock = clock
        self._databases: Dict[str, Database] = {}
        self._lock = threading.RLock()
        self._ops = OperationRegistry()
        self._ttl_reaper: Optional[Any] = None
        self._cluster: Optional[Any] = None
        self.persistence_dir = persistence_dir
        self._persistence = None
        if persistence_dir is not None:
            from .persistence import PersistenceManager

            self._persistence = PersistenceManager(
                self, persistence_dir, fsync=fsync,
                fsync_interval_s=fsync_interval_s,
            )
            self._persistence.recover()

    def __getitem__(self, name: str) -> Database:
        return self.get_database(name)

    def __getattr__(self, name: str) -> Database:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.get_database(name)

    def get_database(self, name: str) -> Database:
        with self._lock:
            db = self._databases.get(name)
            if db is None:
                db = Database(name, client=self)
                self._databases[name] = db
                if self._persistence is not None:
                    self._persistence.watch_database(db)
            return db

    def list_database_names(self) -> List[str]:
        with self._lock:
            return sorted(self._databases)

    def drop_database(self, name: str) -> None:
        with self._lock:
            db = self._databases.pop(name, None)
        if db is not None:
            for coll_name in db.list_collection_names():
                db.drop_collection(coll_name)

    def server_status(self) -> dict:
        """Aggregate serverStatus across every database."""
        with self._lock:
            databases = list(self._databases.values())
        statuses = [db.server_status() for db in databases]
        opcounters = {k: 0 for k in OPCOUNTER_KEYS}
        for status in statuses:
            for key, value in status["opcounters"].items():
                opcounters[key] = opcounters.get(key, 0) + value
        locks, top_contended = _merge_lock_status(
            [(s["db"], s["locks"]) for s in statuses], 10)
        locks["top_contended"] = top_contended
        out = {
            "databases": sorted(db.name for db in databases),
            "opcounters": opcounters,
            "objects": sum(s["objects"] for s in statuses),
            "collections": sum(s["collections"] for s in statuses),
            "locks": locks,
            "planCache": _rollup(PLAN_CACHE_KEYS,
                                 (s["planCache"] for s in statuses)),
            "process": process_status(),
            "tasks": task_table(),
        }
        if self._persistence is not None:
            out["journal"] = self._persistence.journal_stats()
        if self._ttl_reaper is not None:
            out["ttl"] = self._ttl_reaper.stats()
        if self._cluster is not None:
            out["sharding"] = self._cluster.sharding_stats()
        return out

    def attach_cluster(self, cluster: Any) -> Any:
        """Bind a :class:`~repro.docstore.cluster.ShardedCluster` to this
        store so ``server_status()["sharding"]`` (and therefore mongostat,
        the health monitor, and the telemetry sampler) reports its
        chunk-distribution and migration/election counters."""
        self._cluster = cluster
        return cluster

    @property
    def cluster(self) -> Optional[Any]:
        return self._cluster

    @property
    def last_recovery(self) -> Optional[dict]:
        """Journal replay accounting from the most recent ``recover()``
        (``replayed``/``skipped``/``truncated_at``/``reason``), or ``None``
        for in-memory stores or when no journal existed at startup."""
        if self._persistence is None:
            return None
        return self._persistence.last_recovery

    def lock_report(self, limit: int = 10) -> dict:
        """Store-wide lock accounting plus top contended attribution.

        Lighter than :meth:`server_status` (no plan-cache or object
        counts) — the payload behind the ``lock_report`` wire op, the
        ``GET /debug/locks`` endpoint, and ``repro profile --locks``.
        """
        with self._lock:
            databases = list(self._databases.values())
        totals, top = _merge_lock_status(
            [(db.name, db.lock_status(limit=limit)) for db in databases],
            limit)
        return {"totals": totals, "top_contended": top}

    # -- live operation introspection -------------------------------------

    def current_op(self) -> List[dict]:
        """Every in-flight operation on this store (``db.currentOp()``)."""
        return self._ops.current_op()

    def kill_op(self, opid: int) -> bool:
        """Cooperatively terminate the operation ``opid`` (``db.killOp``)."""
        return self._ops.kill_op(opid)

    def snapshot(self) -> None:
        """Write a full snapshot to the persistence directory."""
        if self._persistence is None:
            raise DocstoreError("store has no persistence directory")
        self._persistence.snapshot()

    # -- TTL retention -----------------------------------------------------

    def start_ttl_reaper(self, interval_s: Optional[float] = None) -> Any:
        """Start (or return) the store's background TTL reaper.

        Collections with ``create_index(..., expire_after_seconds=N)``
        indexes get swept every ``interval_s`` seconds; see
        :mod:`repro.docstore.ttl`.
        """
        from .ttl import TTLReaper

        with self._lock:
            if self._ttl_reaper is None:
                self._ttl_reaper = TTLReaper(self, clock=self._clock)
            reaper = self._ttl_reaper
        return reaper.start(interval_s)

    def stop_ttl_reaper(self) -> None:
        with self._lock:
            reaper = self._ttl_reaper
        if reaper is not None:
            reaper.stop()

    @property
    def ttl_reaper(self) -> Any:
        return self._ttl_reaper

    def close(self) -> None:
        self.stop_ttl_reaper()
        if self._persistence is not None:
            self._persistence.close()
