"""Cluster config metadata: the chunk map, shard registry, and epochs.

§IV-D2's scale-out story hinges on MongoDB's config servers: a small,
authoritative metadata collection mapping contiguous ranges of the shard-key
space ("chunks") onto shards, versioned by an *epoch* that lets every router
detect a stale cached map.  This module is that metadata layer for the
reproduction:

* ``config.shards``  — one document per registered shard;
* ``config.chunks``  — one document per chunk: ``{ns, min, max, shard,
  ndocs}`` with half-open ``[min, max)`` bounds over the raw key space
  (ranged collections) or the 64-bit hash space (hashed collections);
* ``config.collections`` — per-namespace sharding metadata: shard key,
  strategy, and the current **epoch**, bumped on every split and every
  migration commit;
* ``config.settings`` — monotonic id counters.

The config store is an ordinary :class:`~repro.docstore.database.Database`,
so pointing it at a journal-backed :class:`DocumentStore` makes the whole
chunk map durable through the same group-commit journal as user data —
a restarted cluster recovers its topology from the journal replay.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...errors import ClusterError, ShardingError
from ..documents import MISSING, document_to_json, get_path
from ..matching import ordering_key

__all__ = [
    "MIN_KEY",
    "MAX_KEY",
    "Chunk",
    "ClusterConfig",
    "bound_sort_key",
    "hash_shard_key",
    "value_in_bounds",
]

#: Sentinels bounding the key space.  They serialize as plain strings so
#: chunk documents round-trip the journal; a *data* shard-key value equal to
#: these literals is rejected at insert time to keep the encoding unambiguous.
MIN_KEY = "$minKey"
MAX_KEY = "$maxKey"

#: The hashed strategy's key space: ``hash_shard_key`` yields 64-bit ints.
HASH_SPACE_MAX = 2 ** 64


def hash_shard_key(value: Any) -> int:
    """Stable hash of a shard-key value (md5 of its canonical JSON)."""
    if type(value) is str:
        # json.dumps on a bare string is byte-identical to the canonical
        # encoding below; skipping the custom encoder halves routing cost
        # for the dominant string-key case.
        payload = json.dumps(value)
    else:
        payload = document_to_json(value, sort_keys=True, default=str)
    return int.from_bytes(hashlib.md5(payload.encode()).digest()[:8], "big")


def bound_sort_key(value: Any) -> tuple:
    """Total order over chunk bounds: ``MIN_KEY < any value < MAX_KEY``."""
    if isinstance(value, str):
        if value == MIN_KEY:
            return (0,)
        if value == MAX_KEY:
            return (2,)
    return (1, ordering_key(value))


def value_in_bounds(value: Any, lo: Any, hi: Any) -> bool:
    """Whether a (routing-space) key value falls in ``[lo, hi)``."""
    key = (1, ordering_key(value))
    # ordering_key only defines ``<``; express ``lo <= key < hi`` with it.
    return not (key < bound_sort_key(lo)) and key < bound_sort_key(hi)


class Chunk:
    """One contiguous slice of the shard-key space, owned by one shard."""

    __slots__ = ("chunk_id", "ns", "min", "max", "shard", "ndocs")

    def __init__(self, chunk_id: str, ns: str, lo: Any, hi: Any,
                 shard: str, ndocs: int = 0):
        self.chunk_id = chunk_id
        self.ns = ns
        self.min = lo
        self.max = hi
        self.shard = shard
        self.ndocs = int(ndocs)

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Chunk":
        return cls(doc["_id"], doc["ns"], doc["min"], doc["max"],
                   doc["shard"], doc.get("ndocs", 0))

    def to_doc(self) -> dict:
        return {"_id": self.chunk_id, "ns": self.ns, "min": self.min,
                "max": self.max, "shard": self.shard, "ndocs": self.ndocs}

    def contains(self, routing_value: Any) -> bool:
        return value_in_bounds(routing_value, self.min, self.max)

    def __repr__(self) -> str:
        return (f"Chunk({self.chunk_id}: [{self.min!r}, {self.max!r}) "
                f"on {self.shard}, ~{self.ndocs} docs)")


class ClusterConfig:
    """CRUD over the config metadata collections, with epoch versioning.

    All multi-document transitions (split, migration commit) run under one
    process-level mutex *and* bump the namespace epoch last, so a reader
    that saw the old epoch can detect it raced a topology change.  The
    underlying collection writes ride the ordinary per-collection RW locks
    and (for journal-backed stores) the group-commit journal.
    """

    def __init__(self, db: Any):
        self.db = db
        self._mutex = threading.RLock()

    # -- shards ------------------------------------------------------------

    def register_shard(self, shard_id: str) -> dict:
        with self._mutex:
            existing = self.db["shards"].find_one({"_id": shard_id})
            if existing is not None:
                return existing
            doc = {"_id": shard_id, "state": "ACTIVE"}
            self.db["shards"].insert_one(doc)
            return doc

    def shard_ids(self) -> List[str]:
        return sorted(d["_id"] for d in self.db["shards"].find({}))

    # -- namespaces --------------------------------------------------------

    def shard_collection(self, ns: str, shard_key: str, strategy: str,
                         shard_ids: List[str],
                         pre_split_per_shard: int = 2) -> dict:
        """Register ``ns`` as sharded and create its initial chunk map.

        Hashed collections pre-split the 64-bit hash space into
        ``pre_split_per_shard`` chunks per shard, round-robin assigned (the
        mongos hashed-presplit behaviour, so fresh ingest spreads out
        immediately).  Ranged collections start as one
        ``[MIN_KEY, MAX_KEY)`` chunk on the first shard and rely on
        auto-split + the balancer.
        """
        if strategy not in ("hashed", "range"):
            raise ShardingError(f"unknown sharding strategy {strategy!r}")
        if not shard_ids:
            raise ShardingError("cannot shard a collection with no shards")
        with self._mutex:
            if self.db["collections"].find_one({"_id": ns}) is not None:
                raise ShardingError(f"{ns!r} is already sharded")
            meta = {"_id": ns, "key": shard_key, "strategy": strategy,
                    "epoch": 1}
            self.db["collections"].insert_one(meta)
            if strategy == "hashed":
                n_chunks = max(1, pre_split_per_shard) * len(shard_ids)
                step = HASH_SPACE_MAX // n_chunks
                bounds = [i * step for i in range(n_chunks)]
                bounds.append(HASH_SPACE_MAX)
                for i in range(n_chunks):
                    self._insert_chunk(ns, bounds[i], bounds[i + 1],
                                       shard_ids[i % len(shard_ids)])
            else:
                self._insert_chunk(ns, MIN_KEY, MAX_KEY, shard_ids[0])
            return meta

    def collection_meta(self, ns: str) -> Optional[dict]:
        return self.db["collections"].find_one({"_id": ns})

    def sharded_namespaces(self) -> List[str]:
        return sorted(d["_id"] for d in self.db["collections"].find({}))

    def epoch(self, ns: str) -> int:
        meta = self.collection_meta(ns)
        if meta is None:
            raise ClusterError(f"{ns!r} is not a sharded namespace")
        return meta["epoch"]

    def _bump_epoch(self, ns: str) -> int:
        doc = self.db["collections"].find_one_and_update(
            {"_id": ns}, {"$inc": {"epoch": 1}}, return_document="after",
        )
        if doc is None:
            raise ClusterError(f"{ns!r} is not a sharded namespace")
        return doc["epoch"]

    # -- chunks ------------------------------------------------------------

    def _next_chunk_id(self, ns: str) -> str:
        counter = self.db["settings"].find_one_and_update(
            {"_id": "chunk_seq"}, {"$inc": {"value": 1}},
            return_document="after", upsert=True,
        )
        return f"{ns}|{counter['value']}"

    def _insert_chunk(self, ns: str, lo: Any, hi: Any, shard: str,
                      ndocs: int = 0) -> Chunk:
        chunk = Chunk(self._next_chunk_id(ns), ns, lo, hi, shard, ndocs)
        self.db["chunks"].insert_one(chunk.to_doc())
        return chunk

    def chunks(self, ns: str) -> List[Chunk]:
        """The namespace's chunks, ordered by their lower bound."""
        out = [Chunk.from_doc(d) for d in self.db["chunks"].find({"ns": ns})]
        out.sort(key=lambda c: bound_sort_key(c.min))
        return out

    def chunk_snapshot(self, ns: str) -> Tuple[int, List[Chunk]]:
        """``(epoch, ordered chunks)`` read atomically for router caches."""
        with self._mutex:
            return self.epoch(ns), self.chunks(ns)

    def get_chunk(self, ns: str, chunk_id: str) -> Chunk:
        doc = self.db["chunks"].find_one({"_id": chunk_id})
        if doc is None or doc["ns"] != ns:
            raise ClusterError(f"unknown chunk {chunk_id!r} in {ns!r}")
        return Chunk.from_doc(doc)

    def add_ndocs(self, chunk_id: str, delta: int) -> int:
        """Adjust a chunk's document-count estimate; returns the new count."""
        doc = self.db["chunks"].find_one_and_update(
            {"_id": chunk_id}, {"$inc": {"ndocs": delta}},
            return_document="after",
        )
        return doc["ndocs"] if doc else 0

    def chunk_counts(self, ns: str) -> Dict[str, int]:
        """Chunks per shard (all registered shards, zeros included)."""
        counts = {sid: 0 for sid in self.shard_ids()}
        for chunk in self.chunks(ns):
            counts[chunk.shard] = counts.get(chunk.shard, 0) + 1
        return counts

    def doc_counts(self, ns: str) -> Dict[str, int]:
        """Estimated documents per shard from chunk counters."""
        counts = {sid: 0 for sid in self.shard_ids()}
        for chunk in self.chunks(ns):
            counts[chunk.shard] = counts.get(chunk.shard, 0) + chunk.ndocs
        return counts

    # -- topology transitions ---------------------------------------------

    def split_chunk(self, ns: str, chunk_id: str, split_point: Any,
                    left_ndocs: int, right_ndocs: int) -> Tuple[Chunk, Chunk]:
        """Replace one chunk with two at ``split_point``; bumps the epoch."""
        with self._mutex:
            chunk = self.get_chunk(ns, chunk_id)
            if not value_in_bounds(split_point, chunk.min, chunk.max) or (
                bound_sort_key(split_point) == bound_sort_key(chunk.min)
            ):
                raise ClusterError(
                    f"split point {split_point!r} not strictly inside "
                    f"[{chunk.min!r}, {chunk.max!r})"
                )
            self.db["chunks"].delete_one({"_id": chunk_id})
            left = self._insert_chunk(ns, chunk.min, split_point,
                                      chunk.shard, left_ndocs)
            right = self._insert_chunk(ns, split_point, chunk.max,
                                       chunk.shard, right_ndocs)
            self._bump_epoch(ns)
            return left, right

    def move_chunk_commit(self, ns: str, chunk_id: str, dest: str) -> int:
        """Commit a migration: re-home the chunk, bump the epoch."""
        with self._mutex:
            chunk = self.get_chunk(ns, chunk_id)
            if dest not in self.shard_ids():
                raise ClusterError(f"unknown destination shard {dest!r}")
            if chunk.shard == dest:
                raise ClusterError(f"chunk {chunk_id!r} already on {dest!r}")
            self.db["chunks"].update_one({"_id": chunk_id},
                                         {"$set": {"shard": dest}})
            return self._bump_epoch(ns)

    # -- routing helpers ---------------------------------------------------

    @staticmethod
    def routing_value(strategy: str, key_value: Any) -> Any:
        """Map a raw shard-key value into the chunk-bounds space."""
        if isinstance(key_value, str) and key_value in (MIN_KEY, MAX_KEY):
            raise ShardingError(
                f"shard-key value {key_value!r} collides with a key-space "
                "sentinel"
            )
        if strategy == "hashed":
            return hash_shard_key(key_value)
        return key_value

    @staticmethod
    def doc_routing_value(strategy: str, shard_key: str,
                          document: Mapping[str, Any]) -> Any:
        value = get_path(document, shard_key)
        if value is MISSING:
            raise ShardingError(
                f"document missing shard key {shard_key!r}"
            )
        return ClusterConfig.routing_value(strategy, value)
