"""Sharding: a router distributing one logical collection over N stores.

§IV-D2: "Future scalability can leverage the sharding and replication
capabilities built in to MongoDB ... as well as isolate the various roles of
the database to separate servers."  We implement the mongos-style router:
documents are placed on a shard by hashed or range partitioning of a shard
key; queries that constrain the shard key are routed to the owning shard(s),
everything else is scatter-gathered.

The sharding ablation bench uses this to show read throughput scaling as
shards are added (each shard is an independent :class:`Collection` which, in
a real deployment, would live on its own server).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..errors import ShardingError
from ..obs import active_span
from .collection import Collection, DeleteResult, InsertResult, UpdateResult
from .documents import MISSING, document_to_json, get_path
from .matching import descending_key, ordering_key

__all__ = ["ShardedCollection", "hash_shard_key"]


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


def _merge_key(sort: Sequence[tuple]):
    """Comparison key over a sort spec, usable with ``heapq.merge``."""

    def key(doc: Mapping[str, Any]) -> tuple:
        parts = []
        for field, direction in sort:
            value = get_path(doc, field)
            if value is MISSING:
                value = None
            parts.append(ordering_key(value) if direction >= 0
                         else descending_key(value))
        return tuple(parts)

    return key


class ShardedCollection:
    """One logical collection spread over multiple shard collections.

    Parameters
    ----------
    name:
        Logical collection name.
    shard_key:
        Dotted field path used for placement.  Documents missing the key are
        rejected (as mongos does once a collection is sharded).
    shards:
        The backing collections; in tests these are plain in-memory
        collections, in a deployment each would sit behind its own server.
    strategy:
        ``"hashed"`` (default) or ``"range"``.  Range mode splits the key
        space by the provided ``boundaries`` (len == len(shards) - 1).
    """

    def __init__(
        self,
        name: str,
        shard_key: str,
        shards: Sequence[Collection],
        strategy: str = "hashed",
        boundaries: Optional[Sequence[Any]] = None,
    ):
        if not shards:
            raise ShardingError("at least one shard required")
        if strategy not in ("hashed", "range"):
            raise ShardingError(f"unknown sharding strategy {strategy!r}")
        if strategy == "range":
            if boundaries is None or len(boundaries) != len(shards) - 1:
                raise ShardingError(
                    "range sharding requires len(shards)-1 boundaries"
                )
            self.boundaries = list(boundaries)
        else:
            self.boundaries = []
        self.name = name
        self.shard_key = shard_key
        self.shards: List[Collection] = list(shards)
        self.strategy = strategy

    # -- routing -----------------------------------------------------------

    def shard_for_value(self, value: Any) -> int:
        """Index of the shard owning ``value`` of the shard key."""
        if self.strategy == "hashed":
            return hash_shard_key(value) % len(self.shards)
        for i, bound in enumerate(self.boundaries):
            if ordering_key(value) < ordering_key(bound):
                return i
        return len(self.shards) - 1

    def _route_query(self, query: Mapping[str, Any]) -> List[int]:
        """Shards that must be consulted for ``query``."""
        condition = query.get(self.shard_key, MISSING)
        if condition is MISSING:
            return list(range(len(self.shards)))
        if isinstance(condition, Mapping) and any(
            str(k).startswith("$") for k in condition
        ):
            if "$eq" in condition:
                return [self.shard_for_value(condition["$eq"])]
            if "$in" in condition and isinstance(condition["$in"], list):
                return sorted({self.shard_for_value(v) for v in condition["$in"]})
            if self.strategy == "range":
                targets = self._route_range(condition)
                if targets is not None:
                    return targets
            return list(range(len(self.shards)))
        return [self.shard_for_value(condition)]

    def _route_range(self, condition: Mapping[str, Any]) -> Optional[List[int]]:
        lo_val = condition.get("$gte", condition.get("$gt", MISSING))
        hi_val = condition.get("$lte", condition.get("$lt", MISSING))
        if lo_val is MISSING and hi_val is MISSING:
            return None
        lo = self.shard_for_value(lo_val) if lo_val is not MISSING else 0
        hi = (
            self.shard_for_value(hi_val)
            if hi_val is not MISSING
            else len(self.shards) - 1
        )
        return list(range(lo, hi + 1))

    # -- CRUD ----------------------------------------------------------------

    def insert_one(self, document: Mapping[str, Any]) -> InsertResult:
        value = get_path(document, self.shard_key)
        if value is MISSING:
            raise ShardingError(
                f"document missing shard key {self.shard_key!r}"
            )
        shard = self.shards[self.shard_for_value(value)]
        return shard.insert_one(document)

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> InsertResult:
        ids = []
        for d in documents:
            r = self.insert_one(d)
            # Remote shards answer with a plain wire dict, local shards
            # with an InsertResult.
            ids.append(r["inserted_id"] if isinstance(r, dict)
                       else r.inserted_id)
        return InsertResult(ids)

    def _shard_stream(
        self,
        index: int,
        query: Mapping[str, Any],
        projection: Optional[Mapping[str, Any]],
        sort: Optional[Sequence[tuple]],
        limit: int,
    ) -> Iterator[dict]:
        """Lazy per-shard result stream with sort+limit pushed down.

        Local :class:`Collection` shards yield through their cursor, so
        nothing materializes until the merge consumes it; remote shards
        (each behind its own server) apply sort+limit server-side and
        ship back at most ``limit`` documents instead of the full shard.
        """
        shard = self.shards[index]
        if isinstance(shard, Collection):
            cursor = shard.find(query, projection)
            if sort:
                cursor = cursor.sort(list(sort))
            if limit:
                cursor = cursor.limit(limit)
            return iter(cursor)
        result = shard.find(query, projection,
                            sort=list(sort) if sort else None,
                            limit=limit or 0)
        return iter(result.to_list() if hasattr(result, "to_list")
                    else result)

    def find(
        self,
        query: Optional[Mapping[str, Any]] = None,
        projection: Optional[Mapping[str, Any]] = None,
        sort: Optional[Sequence[tuple]] = None,
        limit: int = 0,
    ) -> List[dict]:
        """Routed find with per-shard sort+limit pushdown and k-way merge.

        Each targeted shard is asked for *its* top-``limit`` documents in
        sort order; the router then streams a ``heapq.merge`` over the
        shard cursors and stops after the global limit — it never
        materializes a shard's full result set the way the old
        gather-then-concatenate path did.

        Inside an active trace the fan-out is recorded as a
        ``sharded.find`` span with one ``shard.find`` child per shard
        consulted, so the stitched trace shows which shards a routed
        query actually touched.
        """
        query = query or {}
        targets = self._route_query(query)
        self.last_targets = targets
        with active_span("sharded.find", coll=self.name,
                         targets=len(targets)) as fan:
            streams = []
            for i in targets:
                with active_span("shard.find", shard=i):
                    streams.append(self._shard_stream(
                        i, query, projection, sort, limit))
            if sort:
                merged: Iterator[dict] = heapq.merge(
                    *streams, key=_merge_key(sort))
            else:
                merged = itertools.chain.from_iterable(streams)
            if limit:
                merged = itertools.islice(merged, limit)
            out = list(merged)
            if fan is not None:
                fan.set_attribute("nreturned", len(out))
        return out

    def find_one(
        self,
        query: Optional[Mapping[str, Any]] = None,
        projection: Optional[Mapping[str, Any]] = None,
    ) -> Optional[dict]:
        query = query or {}
        with active_span("sharded.find_one", coll=self.name):
            for i in self._route_query(query):
                doc = self.shards[i].find_one(query, projection)
                if doc is not None:
                    return doc
        return None

    def count_documents(self, query: Optional[Mapping[str, Any]] = None) -> int:
        query = query or {}
        with active_span("sharded.count", coll=self.name):
            return sum(
                self.shards[i].count_documents(query)
                for i in self._route_query(query)
            )

    def _reject_shard_key_mutation(self, update: Mapping[str, Any]) -> None:
        """Refuse updates that would change a document's shard key.

        Once placed, a document's routing value is immutable (as in
        mongos): mutating it in place would leave the document on a shard
        that no longer owns it.  Rejected paths are the key itself, any
        subpath of it, and any prefix of it (rewriting the enclosing
        subdocument also rewrites the key).
        """
        key = self.shard_key
        for op, spec in update.items():
            if not str(op).startswith("$"):
                # Replacement-style update: the whole document is
                # rewritten, shard key included.
                raise ShardingError(
                    f"replacement update would modify the immutable "
                    f"shard key {key!r}"
                )
            if not isinstance(spec, Mapping):
                continue
            for field in spec:
                if field == key or field.startswith(key + ".") or (
                        key.startswith(field + ".")):
                    raise ShardingError(
                        f"update would modify the immutable shard key "
                        f"{key!r} (operator {op!r} on {field!r})"
                    )

    def update_many(
        self, query: Mapping[str, Any], update: Mapping[str, Any]
    ) -> UpdateResult:
        self._reject_shard_key_mutation(update)
        matched = modified = 0
        for i in self._route_query(query):
            r = self.shards[i].update_many(query, update)
            matched += r.matched_count
            modified += r.modified_count
        return UpdateResult(matched, modified)

    def delete_many(self, query: Optional[Mapping[str, Any]] = None) -> DeleteResult:
        query = query or {}
        deleted = 0
        for i in self._route_query(query):
            deleted += self.shards[i].delete_many(query).deleted_count
        return DeleteResult(deleted)

    def aggregate(self, pipeline: List[Mapping[str, Any]]) -> List[dict]:
        """Merge-then-aggregate (correct, if not shard-pushdown-optimized)."""
        from .aggregation import run_pipeline

        docs: List[dict] = []
        with active_span("sharded.aggregate", coll=self.name,
                         shards=len(self.shards)):
            for shard in self.shards:
                if hasattr(shard, "all_documents"):
                    docs.extend(shard.all_documents())
                else:
                    docs.extend(shard.find({}))
            return run_pipeline(docs, pipeline)

    # -- admin -----------------------------------------------------------------

    def shard_distribution(self) -> Dict[str, int]:
        """Document count per shard (balance diagnostics)."""
        return {f"shard{i}": len(s) for i, s in enumerate(self.shards)}

    def balance_factor(self) -> float:
        """max/mean shard size; 1.0 is perfectly balanced."""
        sizes = [len(s) for s in self.shards]
        mean = sum(sizes) / len(sizes)
        return (max(sizes) / mean) if mean else 1.0

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)
