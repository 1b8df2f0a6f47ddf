"""The mongos analog: shard wrappers, routed collections, the cluster facade.

:class:`ShardedCluster` ties the subsystem together — a
:class:`~repro.docstore.cluster.config.ClusterConfig` chunk map, one
:class:`Shard` (replica set + chunk-ownership ledger) per registered shard,
and :class:`ClusterCollection` routers that cache ``(epoch, chunks)``
snapshots and retry through the two cluster-native failures:

* :class:`~repro.errors.StaleEpoch` — the cached chunk map no longer matches
  the shard's ownership ledger (a split or migration committed underneath
  the router).  Recovery: refresh the snapshot from config and re-route.
* :class:`~repro.errors.NotPrimary` — the targeted shard lost its primary.
  Recovery: ``await_primary`` (which elects if no heartbeat monitor is
  running) and re-issue.

Shard targeting reuses the query planner's predicate decomposition
(:func:`~repro.docstore.planner.shard_key_predicate`): equality, ``$in``,
and (for ranged keys) interval constraints on the shard key select only the
owning chunks' shards — ``explain()`` reports ``SINGLE_SHARD`` — while
anything else scatter-gathers.  Sorted scatter reads push ``sort`` +
``limit`` down to each shard and k-way merge the pre-sorted streams.
"""

from __future__ import annotations

import bisect
import heapq
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set

from ...errors import ClusterError, NotPrimary, ShardingError, StaleEpoch
from ...obs import active_span, get_registry
from ..database import DocumentStore
from ..documents import MISSING, deep_copy_doc, get_path
from ..matching import descending_key, ordering_key
from ..objectid import ObjectId
from ..planner import shard_key_predicate
from .config import Chunk, ClusterConfig, bound_sort_key
from .replica import HeartbeatMonitor, ShardReplicaSet

__all__ = ["Shard", "ClusterCollection", "ShardedCluster"]

#: Bounded router retries: enough to absorb one election plus one refresh
#: race per hop without masking a genuinely wedged cluster.
MAX_ROUTE_RETRIES = 8

#: Auto-split a chunk once its document-count estimate crosses this.
DEFAULT_SPLIT_THRESHOLD = 1_000


class Shard:
    """One cluster shard: a replica set plus its chunk-ownership ledger.

    Ownership (``ns -> {chunk ids}``) is the shard-side half of the stale-
    epoch protocol: routed operations name the chunk they think they target
    and the shard rejects the ones it no longer owns.  Writes verify
    ownership *inside* the replica-set lock (so a migration commit cannot
    interleave); reads verify *after* executing, closing the window where a
    read passes the check, blocks on the collection lock behind a migration
    commit, and then observes post-cleanup data.
    """

    def __init__(self, shard_id: str, n_members: int = 3,
                 store_factory: Optional[Callable[[], DocumentStore]] = None,
                 event_sink: Optional[Callable[[dict], None]] = None):
        self.shard_id = shard_id
        self.rs = ShardReplicaSet(shard_id, n_members=n_members,
                                  store_factory=store_factory,
                                  event_sink=event_sink)
        self._owned: Dict[str, Set[str]] = {}
        self._owned_lock = threading.Lock()

    # -- ownership ledger ---------------------------------------------------

    def grant(self, ns: str, chunk_id: str) -> None:
        with self._owned_lock:
            self._owned.setdefault(ns, set()).add(chunk_id)

    def revoke(self, ns: str, chunk_id: str) -> None:
        with self._owned_lock:
            self._owned.get(ns, set()).discard(chunk_id)

    def owns(self, ns: str, chunk_id: str) -> bool:
        with self._owned_lock:
            return chunk_id in self._owned.get(ns, set())

    # -- routed execution ---------------------------------------------------

    @staticmethod
    def _split_ns(ns: str) -> tuple:
        if "." not in ns:
            raise ShardingError(f"namespace {ns!r} must be '<db>.<collection>'")
        return tuple(ns.split(".", 1))

    def write(self, ns: str, chunk_id: str, fn: Callable[[Any], Any]) -> Any:
        db_name, coll_name = self._split_ns(ns)
        with self.rs._lock:
            if not self.owns(ns, chunk_id):
                raise StaleEpoch(
                    f"shard {self.shard_id!r} does not own chunk "
                    f"{chunk_id!r} of {ns!r}"
                )
            return self.rs.write(db_name, coll_name, fn)

    def read(self, ns: str, chunk_ids: Iterable[str],
             fn: Callable[[Any], Any]) -> Any:
        db_name, coll_name = self._split_ns(ns)
        result = self.rs.read(db_name, coll_name, fn)
        for chunk_id in chunk_ids:
            if not self.owns(ns, chunk_id):
                raise StaleEpoch(
                    f"shard {self.shard_id!r} lost chunk {chunk_id!r} of "
                    f"{ns!r} during a read"
                )
        return result


class ClusterCollection:
    """A routed view of one sharded namespace (the mongos collection handle).

    Caches an ``(epoch, chunks)`` snapshot; every operation routes against
    the cache and retries through :class:`StaleEpoch` (refresh) and
    :class:`NotPrimary` (await/elect) — the client never sees either when
    the cluster can recover within the retry budget.
    """

    def __init__(self, cluster: "ShardedCluster", ns: str):
        self.cluster = cluster
        self.ns = ns
        meta = cluster.config.collection_meta(ns)
        if meta is None:
            raise ClusterError(f"{ns!r} is not a sharded namespace")
        self.shard_key: str = meta["key"]
        self.strategy: str = meta["strategy"]
        #: ``(epoch, chunks, lo_keys, hi_keys, raw_ints)`` — swapped as one
        #: tuple so concurrent routing never sees bound keys from a
        #: different epoch than the chunk list.
        self._snapshot: tuple = (0, [], [], [], False)
        self._refresh_lock = threading.Lock()
        self.refresh()

    # -- chunk-map cache ----------------------------------------------------

    def refresh(self) -> None:
        with self._refresh_lock:
            epoch, chunks = self.cluster.config.chunk_snapshot(self.ns)
            # Chunk lookup is the router's hottest path; precompute the
            # bound sort keys once per epoch so point routing is a bisect
            # over plain tuples instead of per-chunk key construction.
            # Hashed chunk maps only ever carry 64-bit integer bounds, so
            # they bisect over the raw ints directly.
            raw_ints = self.strategy == "hashed" and all(
                type(c.min) is int and type(c.max) is int for c in chunks
            )
            if raw_ints:
                lo_keys: list = [c.min for c in chunks]
                hi_keys: list = [c.max for c in chunks]
            else:
                lo_keys = [bound_sort_key(c.min) for c in chunks]
                hi_keys = [bound_sort_key(c.max) for c in chunks]
            self._snapshot = (epoch, chunks, lo_keys, hi_keys, raw_ints)

    @property
    def epoch(self) -> int:
        return self._snapshot[0]

    @property
    def _chunks(self) -> List[Chunk]:
        return self._snapshot[1]

    def _chunk_for(self, routing_value: Any) -> Chunk:
        epoch, chunks, lo_keys, hi_keys, raw_ints = self._snapshot
        key = routing_value if raw_ints else bound_sort_key(routing_value)
        # Rightmost chunk whose lower bound is <= the key; chunks tile the
        # key space [min, max) in sorted order.
        idx = bisect.bisect_right(lo_keys, key) - 1
        if 0 <= idx < len(chunks) and key < hi_keys[idx]:
            return chunks[idx]
        raise ClusterError(
            f"{self.ns!r}: no chunk covers routing value {routing_value!r} "
            f"(epoch {epoch})"
        )

    def _route(self, query: Mapping[str, Any]) -> Dict[str, List[Chunk]]:
        """Target chunks grouped by owning shard for ``query``."""
        chunks = self._route_chunks(query)
        by_shard: Dict[str, List[Chunk]] = {}
        for chunk in chunks:
            by_shard.setdefault(chunk.shard, []).append(chunk)
        return by_shard

    def _route_chunks(self, query: Mapping[str, Any]) -> List[Chunk]:
        # Point-lookup fast path: a bare scalar equality on the shard key
        # routes to exactly one chunk without the full predicate
        # decomposition (extra non-key filters don't widen the target set).
        value = query.get(self.shard_key)
        if type(value) in (str, int, float):
            rv = ClusterConfig.routing_value(self.strategy, value)
            return [self._chunk_for(rv)]
        predicate = shard_key_predicate(query, self.shard_key)
        if predicate is None:
            return list(self._chunks)
        if predicate.kind == "eq":
            rv = ClusterConfig.routing_value(self.strategy, predicate.value)
            return [self._chunk_for(rv)]
        if predicate.kind == "in":
            seen: Dict[str, Chunk] = {}
            for value in predicate.values:
                rv = ClusterConfig.routing_value(self.strategy, value)
                chunk = self._chunk_for(rv)
                seen[chunk.chunk_id] = chunk
            return list(seen.values())
        if predicate.kind == "range" and self.strategy == "range":
            # Hashed keys scramble intervals, so ranges only prune for
            # ranged collections.
            lo_key = bound_sort_key(self._range_bound(predicate.bounds,
                                                      "gt", "gte", "min"))
            hi_key = bound_sort_key(self._range_bound(predicate.bounds,
                                                      "lt", "lte", "max"))
            _, chunks, lo_keys, hi_keys, _raw = self._snapshot
            return [c for i, c in enumerate(chunks)
                    if lo_keys[i] < hi_key and lo_key < hi_keys[i]]
        return list(self._chunks)

    @staticmethod
    def _range_bound(bounds: Mapping[str, Any], strict: str, weak: str,
                     side: str) -> Any:
        if strict in bounds:
            return bounds[strict]
        if weak in bounds:
            return bounds[weak]
        from .config import MAX_KEY, MIN_KEY

        return MIN_KEY if side == "min" else MAX_KEY

    # -- retry loop ---------------------------------------------------------

    def _with_retries(self, op: Callable[[], Any]) -> Any:
        last: Optional[Exception] = None
        for _ in range(MAX_ROUTE_RETRIES):
            try:
                return op()
            except StaleEpoch as exc:
                last = exc
                self.cluster.stale_retries += 1
                get_registry().counter(
                    "repro_cluster_stale_epoch_retries_total",
                    "router retries after a stale chunk-map epoch",
                ).inc(1, ns=self.ns)
                self.refresh()
            except NotPrimary as exc:
                last = exc
                self.cluster.not_primary_retries += 1
                self.cluster.await_primaries()
        raise ClusterError(
            f"{self.ns!r}: routed operation failed after "
            f"{MAX_ROUTE_RETRIES} retries"
        ) from last

    # -- writes -------------------------------------------------------------

    def insert_one(self, document: Mapping[str, Any]) -> Any:
        doc = deep_copy_doc(dict(document))
        if "_id" not in doc:
            # Pre-assign so the write replays identically on every replica.
            doc["_id"] = ObjectId()
        routing_value = ClusterConfig.doc_routing_value(
            self.strategy, self.shard_key, doc)

        def attempt():
            chunk = self._chunk_for(routing_value)
            shard = self.cluster.shard(chunk.shard)
            result = shard.write(self.ns, chunk.chunk_id,
                                 lambda c: c.insert_one(doc))
            self.cluster.note_insert(self, chunk)
            return result

        return self._with_retries(attempt)

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> int:
        count = 0
        for document in documents:
            self.insert_one(document)
            count += 1
        return count

    def update_many(self, query: Mapping[str, Any],
                    update: Mapping[str, Any]) -> int:
        self._reject_shard_key_mutation(update)

        def attempt():
            modified = 0
            for shard_id, chunks in self._route(query).items():
                shard = self.cluster.shard(shard_id)
                for chunk in chunks:
                    result = shard.write(
                        self.ns, chunk.chunk_id,
                        lambda c: c.update_many(query, update))
                    modified += getattr(result, "modified_count", result or 0)
            return modified

        return self._with_retries(attempt)

    def delete_many(self, query: Mapping[str, Any]) -> int:
        def attempt():
            deleted = 0
            for shard_id, chunks in self._route(query).items():
                shard = self.cluster.shard(shard_id)
                for chunk in chunks:
                    result = shard.write(
                        self.ns, chunk.chunk_id,
                        lambda c: c.delete_many(query))
                    deleted += getattr(result, "deleted_count", result or 0)
            return deleted

        return self._with_retries(attempt)

    def _reject_shard_key_mutation(self, update: Mapping[str, Any]) -> None:
        """Refuse updates that would change a document's shard key.

        A document rewritten in place under a new key would stay in the
        chunk that owned the old one, where routed reads never look.
        Rejected: a replacement-style update, and any operator on the key,
        a subpath of it, or a prefix of it.
        """
        key = self.shard_key
        for op, spec in update.items():
            if not str(op).startswith("$"):
                raise ShardingError(
                    f"replacement update would modify the immutable shard "
                    f"key {key!r}"
                )
            if not isinstance(spec, Mapping):
                continue
            for field in spec:
                if field == key or field.startswith(key + ".") or (
                        key.startswith(field + ".")):
                    raise ShardingError(
                        f"update would modify the immutable shard key "
                        f"{key!r} (operator {op!r})"
                    )

    # -- reads --------------------------------------------------------------

    def _fan_out(self, verb: str, query: Mapping[str, Any],
                 fn: Callable[[Any], Any]) -> List[Any]:
        """``fn(collection)`` on every shard ``query`` targets, retried.

        Inside an active trace this records a ``sharded.<verb>`` span with
        one ``shard.<verb>`` child per shard consulted, so the trace shows
        which shards a routed read touched.
        """
        def attempt():
            results = []
            for shard_id, chunks in self._route(query).items():
                with active_span(f"shard.{verb}", shard=shard_id):
                    results.append(self.cluster.shard(shard_id).read(
                        self.ns, [c.chunk_id for c in chunks], fn))
            return results

        with active_span(f"sharded.{verb}", ns=self.ns):
            return self._with_retries(attempt)

    def find(self, query: Optional[Mapping[str, Any]] = None,
             sort: Optional[List[tuple]] = None,
             limit: Optional[int] = None) -> List[dict]:
        """Routed find with per-shard sort+limit pushdown and k-way merge."""
        query = query or {}

        def run(c):
            cursor = c.find(query)
            if sort:
                cursor = cursor.sort(sort)
            if limit is not None:
                cursor = cursor.limit(limit)
            return list(cursor)

        return self._merge(self._fan_out("find", query, run), sort, limit)

    @staticmethod
    def _merge(per_shard: List[List[dict]], sort: Optional[List[tuple]],
               limit: Optional[int]) -> List[dict]:
        if not sort:
            merged: List[dict] = []
            for batch in per_shard:
                merged.extend(batch)
            return merged[:limit] if limit is not None else merged

        def merge_key(doc: dict) -> tuple:
            return tuple(
                (ordering_key if direction >= 0 else descending_key)(
                    get_path(doc, field))
                for field, direction in sort
            )

        stream = heapq.merge(*per_shard, key=merge_key)
        if limit is None:
            return list(stream)
        out: List[dict] = []
        for doc in stream:
            out.append(doc)
            if len(out) >= limit:
                break
        return out

    def find_one(self, query: Optional[Mapping[str, Any]] = None
                 ) -> Optional[dict]:
        results = self.find(query, limit=1)
        return results[0] if results else None

    def count_documents(self, query: Optional[Mapping[str, Any]] = None) -> int:
        query = query or {}
        return sum(self._fan_out("count", query,
                                 lambda c: c.count_documents(query)))

    def create_index(self, keys: Any, unique: bool = False) -> str:
        """Create an index on every member of every shard."""
        name = ""
        for shard in self.cluster.shards.values():
            db_name, coll_name = Shard._split_ns(self.ns)
            for member in shard.rs.members:
                name = member.store[db_name][coll_name].create_index(
                    keys, unique=unique)
        return name

    # -- explain ------------------------------------------------------------

    def explain(self, query: Optional[Mapping[str, Any]] = None,
                sort: Optional[List[tuple]] = None) -> dict:
        """Cluster-level explain: targeting mode + per-shard planner output."""
        query = query or {}

        def attempt():
            routed = self._route(query)
            mode = "SINGLE_SHARD" if len(routed) == 1 else "SCATTER_GATHER"
            shard_plans = {}
            for shard_id, chunks in routed.items():
                shard = self.cluster.shard(shard_id)
                chunk_ids = [c.chunk_id for c in chunks]
                plan = shard.read(self.ns, chunk_ids,
                                  lambda c: c.explain(query, sort=sort))
                shard_plans[shard_id] = {
                    "chunks": len(chunks),
                    "stage": plan.get("stage"),
                    "index": plan.get("index"),
                    "nReturned": plan.get("nReturned"),
                }
            return {
                "ns": self.ns,
                "mode": mode,
                "epoch": self.epoch,
                "shardKey": self.shard_key,
                "strategy": self.strategy,
                "shards": shard_plans,
                "mergeSort": "STREAMING_K_WAY" if sort else None,
            }

        return self._with_retries(attempt)


class ShardedCluster:
    """The cluster facade: topology management, migrations, status.

    ``config_store`` may be a journal-backed :class:`DocumentStore` so the
    chunk map survives restarts; by default it is in-memory.  ``event_sink``
    receives balancer/election/migration event dicts — e.g.
    ``lambda e: recorder.record_event(e["type"], e)`` lands them in a
    :class:`~repro.obs.flight.FlightRecorder` ring.  ``clock`` is handed to the heartbeat and balancer
    tasks (see :mod:`repro.background`): ``None`` runs them on threads, a
    ``SimClock`` makes every beat and round a step of ``clock.run_until``.
    """

    def __init__(self, config_store: Optional[DocumentStore] = None,
                 n_replicas: int = 3,
                 split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
                 store_factory: Optional[Callable[[], DocumentStore]] = None,
                 event_sink: Optional[Callable[[dict], None]] = None,
                 clock: Any = None):
        store = config_store if config_store is not None else DocumentStore()
        self.config = ClusterConfig(store["config"])
        self.n_replicas = n_replicas
        self.split_threshold = split_threshold
        self.store_factory = store_factory
        self.event_sink = event_sink
        self._clock = clock
        self.shards: Dict[str, Shard] = {}
        self.migrations = 0
        self.migrated_docs = 0
        self.splits = 0
        self.stale_retries = 0
        self.not_primary_retries = 0
        self._migration_lock = threading.Lock()
        self._collections: Dict[str, ClusterCollection] = {}
        self.heartbeat: Optional[HeartbeatMonitor] = None
        self.balancer: Optional[Any] = None
        # Rebuild shard handles for topology recovered from a journal.
        for shard_id in self.config.shard_ids():
            self._make_shard(shard_id)
        for ns in self.config.sharded_namespaces():
            for chunk in self.config.chunks(ns):
                if chunk.shard in self.shards:
                    self.shards[chunk.shard].grant(ns, chunk.chunk_id)

    # -- topology -----------------------------------------------------------

    def _make_shard(self, shard_id: str) -> Shard:
        shard = Shard(shard_id, n_members=self.n_replicas,
                      store_factory=self.store_factory,
                      event_sink=self._emit)
        self.shards[shard_id] = shard
        if self.heartbeat is not None:
            self.heartbeat.add(shard.rs)
        return shard

    def add_shard(self, shard_id: str) -> Shard:
        if shard_id in self.shards:
            return self.shards[shard_id]
        self.config.register_shard(shard_id)
        shard = self._make_shard(shard_id)
        self._emit({"type": "add_shard", "shard": shard_id})
        return shard

    def shard(self, shard_id: str) -> Shard:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ClusterError(f"unknown shard {shard_id!r}") from None

    def shard_collection(self, ns: str, shard_key: str,
                         strategy: str = "hashed") -> "ClusterCollection":
        if not self.shards:
            raise ClusterError("add at least one shard before sharding")
        self.config.shard_collection(ns, shard_key, strategy,
                                     sorted(self.shards))
        for chunk in self.config.chunks(ns):
            self.shards[chunk.shard].grant(ns, chunk.chunk_id)
        return self.collection(ns)

    def collection(self, ns: str) -> "ClusterCollection":
        coll = self._collections.get(ns)
        if coll is None:
            coll = ClusterCollection(self, ns)
            self._collections[ns] = coll
        return coll

    # -- daemons ------------------------------------------------------------

    def start_heartbeat(self, interval_s: float = 0.05) -> HeartbeatMonitor:
        if self.heartbeat is None:
            self.heartbeat = HeartbeatMonitor(
                [s.rs for s in self.shards.values()], interval_s=interval_s,
                clock=self._clock)
            self.heartbeat.start()
        return self.heartbeat

    def start_balancer(self, interval_s: float = 0.2) -> Any:
        from .balancer import Balancer

        if self.balancer is None:
            self.balancer = Balancer(self, interval_s=interval_s,
                                     clock=self._clock)
            self.balancer.start()
        return self.balancer

    def stop(self) -> None:
        if self.heartbeat is not None:
            self.heartbeat.stop()
            self.heartbeat = None
        if self.balancer is not None:
            self.balancer.stop()
            self.balancer = None

    # -- splits -------------------------------------------------------------

    def note_insert(self, coll: ClusterCollection, chunk: Chunk) -> None:
        """Account one insert into ``chunk``; auto-split past the threshold."""
        ndocs = self.config.add_ndocs(chunk.chunk_id, 1)
        if ndocs > self.split_threshold:
            try:
                self.split_chunk(coll.ns, chunk.chunk_id)
            except ClusterError:
                pass  # unsplittable (single point / unit range): keep going

    def split_chunk(self, ns: str, chunk_id: str) -> tuple:
        """Split one chunk at its data median (ranged) or midpoint (hashed)."""
        chunk = self.config.get_chunk(ns, chunk_id)
        shard = self.shard(chunk.shard)
        meta = self.config.collection_meta(ns)
        with shard.rs._lock:
            split_point, left_n, right_n = self._split_point(
                ns, chunk, shard, meta)
            left, right = self.config.split_chunk(ns, chunk_id, split_point,
                                                  left_n, right_n)
            shard.grant(ns, left.chunk_id)
            shard.grant(ns, right.chunk_id)
            shard.revoke(ns, chunk_id)
        self.splits += 1
        self._invalidate_routers(ns)
        self._emit({"type": "split", "ns": ns, "chunk": chunk_id,
                    "at": split_point, "shard": chunk.shard})
        return left, right

    def _split_point(self, ns: str, chunk: Chunk, shard: Shard,
                     meta: Mapping[str, Any]) -> tuple:
        strategy, key = meta["strategy"], meta["key"]
        db_name, coll_name = Shard._split_ns(ns)
        primary = shard.rs._primary_or_raise()
        docs = primary.store[db_name][coll_name].all_documents()
        values = []
        for doc in docs:
            value = get_path(doc, key)
            if value is MISSING:
                continue
            rv = ClusterConfig.routing_value(strategy, value)
            if chunk.contains(rv):
                values.append(rv)
        if strategy == "hashed":
            if chunk.max - chunk.min < 2:
                raise ClusterError(f"chunk {chunk.chunk_id!r} is unsplittable")
            split_point = chunk.min + (chunk.max - chunk.min) // 2
        else:
            distinct = sorted(set(values), key=ordering_key)
            if len(distinct) < 2:
                raise ClusterError(
                    f"chunk {chunk.chunk_id!r} holds a single key value; "
                    "cannot split"
                )
            split_point = distinct[len(distinct) // 2]
            if bound_sort_key(split_point) == bound_sort_key(chunk.min):
                split_point = distinct[len(distinct) // 2 + 1]
        split_key = bound_sort_key(split_point)
        left_n = sum(1 for v in values if bound_sort_key(v) < split_key)
        return split_point, left_n, len(values) - left_n

    # -- migrations ---------------------------------------------------------

    def move_chunk(self, ns: str, chunk_id: str, dest_id: str) -> int:
        """Migrate one chunk: copy → delta drain → locked commit → cleanup.

        Returns the number of documents moved.  The commit holds the source
        replica-set lock (writers acquire the same lock, so the final drain
        sees a quiesced chunk), swaps config ownership with an epoch bump,
        and deletes the source copies before releasing — any routed
        operation racing the commit fails with :class:`StaleEpoch` and
        re-routes to the destination.
        """
        from ..changestream import ChangeStream

        with self._migration_lock:
            chunk = self.config.get_chunk(ns, chunk_id)
            if chunk.shard == dest_id:
                return 0
            src, dst = self.shard(chunk.shard), self.shard(dest_id)
            meta = self.config.collection_meta(ns)
            strategy, key = meta["strategy"], meta["key"]
            db_name, coll_name = Shard._split_ns(ns)

            def in_chunk(doc: Mapping[str, Any]) -> bool:
                value = get_path(doc, key)
                if value is MISSING:
                    return False
                return chunk.contains(
                    ClusterConfig.routing_value(strategy, value))

            def delta_filter(event: Any) -> bool:
                if event.document is None:
                    return True  # deletes are idempotent on the destination
                return in_chunk(event.document)

            src_primary = src.rs._primary_or_raise()
            source_coll = src_primary.store[db_name][coll_name]
            stream = ChangeStream(source_coll, filter_fn=delta_filter)
            try:
                moved = self._copy_phase(src, dst, db_name, coll_name,
                                         in_chunk)
                self._drain_phase(dst, db_name, coll_name, stream)
                with src.rs._lock:
                    if src.rs.primary is not src_primary:
                        raise ClusterError(
                            f"source primary of {src.shard_id!r} changed "
                            "mid-migration; aborting"
                        )
                    # Writers are excluded now — drain the last deltas.
                    self._apply_delta(dst, db_name, coll_name,
                                      stream.drain())
                    new_epoch = self.config.move_chunk_commit(ns, chunk_id,
                                                              dest_id)
                    dst.grant(ns, chunk_id)
                    src.revoke(ns, chunk_id)
                    stream.close()
                    src.rs.write(db_name, coll_name,
                                 lambda c: _delete_where(c, in_chunk))
            finally:
                stream.close()
        self.migrations += 1
        self.migrated_docs += moved
        self._invalidate_routers(ns)
        get_registry().counter(
            "repro_cluster_migrations_total",
            "chunk migrations committed",
        ).inc(1, ns=ns)
        self._emit({"type": "migration", "ns": ns, "chunk": chunk_id,
                    "from": src.shard_id, "to": dest_id, "docs": moved,
                    "epoch": new_epoch})
        return moved

    def _copy_phase(self, src: Shard, dst: Shard, db_name: str,
                    coll_name: str, in_chunk: Callable) -> int:
        src_coll = src.rs._primary_or_raise().store[db_name][coll_name]
        moved = 0
        for doc in src_coll.all_documents():
            if not in_chunk(doc):
                continue
            snapshot = deep_copy_doc(doc)
            dst.rs.write(db_name, coll_name,
                         lambda c: _upsert(c, snapshot))
            moved += 1
        return moved

    def _drain_phase(self, dst: Shard, db_name: str, coll_name: str,
                     stream: Any, rounds: int = 10) -> None:
        for _ in range(rounds):
            events = stream.drain()
            self._apply_delta(dst, db_name, coll_name, events)
            if len(events) < 16:
                return

    @staticmethod
    def _apply_delta(dst: Shard, db_name: str, coll_name: str,
                     events: List[Any]) -> None:
        for event in events:
            if event.operation == "delete" or event.document is None:
                dst.rs.write(db_name, coll_name, lambda c, e=event:
                             c.delete_one({"_id": e.document_id}))
            else:
                snapshot = deep_copy_doc(event.document)
                dst.rs.write(db_name, coll_name,
                             lambda c, d=snapshot: _upsert(c, d))

    def _invalidate_routers(self, ns: str) -> None:
        coll = self._collections.get(ns)
        if coll is not None:
            coll.refresh()

    # -- wire-op entry points ----------------------------------------------

    def step_down(self, shard_id: str) -> str:
        new_primary = self.shard(shard_id).rs.step_down()
        self._emit({"type": "step_down", "shard": shard_id,
                    "new_primary": new_primary})
        return new_primary

    def await_primaries(self, timeout_s: float = 5.0) -> None:
        for shard in self.shards.values():
            if shard.rs.primary is None:
                shard.rs.await_primary(timeout_s=timeout_s)

    # -- balance (read by the balancer) -------------------------------------

    def shard_distribution(self, ns: Optional[str] = None) -> Dict[str, int]:
        """Estimated docs per shard (first/namespace-summed chunk counters)."""
        namespaces = ([ns] if ns is not None
                      else self.config.sharded_namespaces())
        totals: Dict[str, int] = {sid: 0 for sid in self.shards}
        for namespace in namespaces:
            for shard_id, count in self.config.doc_counts(namespace).items():
                totals[shard_id] = totals.get(shard_id, 0) + count
        return totals

    def balance_factor(self, ns: Optional[str] = None) -> float:
        """max/mean document skew across shards (1.0 = perfectly even)."""
        distribution = self.shard_distribution(ns)
        counts = list(distribution.values())
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    # -- introspection ------------------------------------------------------

    def status(self) -> dict:
        namespaces = {}
        for ns in self.config.sharded_namespaces():
            meta = self.config.collection_meta(ns)
            namespaces[ns] = {
                "shardKey": meta["key"],
                "strategy": meta["strategy"],
                "epoch": meta["epoch"],
                "chunks": self.config.chunk_counts(ns),
                "docs": self.config.doc_counts(ns),
            }
        return {
            "shards": {sid: shard.rs.status()
                       for sid, shard in sorted(self.shards.items())},
            "namespaces": namespaces,
            "migrations": self.migrations,
            "migratedDocs": self.migrated_docs,
            "splits": self.splits,
            "staleEpochRetries": self.stale_retries,
            "notPrimaryRetries": self.not_primary_retries,
            "balancerRunning": self.balancer is not None,
            "heartbeatRunning": self.heartbeat is not None,
        }

    def sharding_stats(self) -> dict:
        """The compact ``server_status()["sharding"]`` section."""
        chunk_totals: Dict[str, int] = {sid: 0 for sid in self.shards}
        for ns in self.config.sharded_namespaces():
            for shard_id, count in self.config.chunk_counts(ns).items():
                chunk_totals[shard_id] = chunk_totals.get(shard_id, 0) + count
        return {
            "shards": len(self.shards),
            "chunksPerShard": dict(sorted(chunk_totals.items())),
            "migrations": self.migrations,
            "splits": self.splits,
            "staleEpochRetries": self.stale_retries,
            "elections": sum(s.rs.elections for s in self.shards.values()),
        }

    def _emit(self, event: dict) -> None:
        if self.event_sink is not None:
            try:
                self.event_sink(event)
            except Exception:
                pass


def _upsert(collection: Any, doc: Mapping[str, Any]) -> None:
    collection.delete_one({"_id": doc["_id"]})
    collection.insert_one(doc)


def _delete_where(collection: Any, pred: Callable[[Mapping[str, Any]], bool]
                  ) -> int:
    doomed = [d["_id"] for d in collection.all_documents() if pred(d)]
    for _id in doomed:
        collection.delete_one({"_id": _id})
    return len(doomed)
