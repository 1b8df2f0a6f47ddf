"""Slow-query index advisor: mine ``system.profile`` into create_index advice.

The Materials Project operators' answer to a slow dashboard was almost
always an index: turn on the profiler, look for COLLSCAN query shapes
burning time, add the matching index, verify with ``explain()``.  This
module automates that loop:

1. Mine the database's ``system.profile`` for full-scan read ops and
   group them by *query shape* (values elided to ``?type`` — the same
   shape function the profiler itself uses), so a thousand
   ``{"material_id": "mp-NNN"}`` lookups collapse into one candidate.
2. For each shape, pick the most selective indexable field by probing
   ``count_documents`` on the example query's values (profiling is
   suspended during the probes so the advisor never pollutes the
   evidence it is mining).
3. Emit :class:`IndexRecommendation` rows ranked by estimated saved
   work — occurrences x (docs examined now - docs examined with the
   index).
4. :meth:`IndexAdvisor.verify` replays the example query through
   ``explain()`` before and after actually creating the index, so every
   recommendation is checkable, not just plausible.

The flip side of "add an index" is "drop the dead ones":
:meth:`IndexAdvisor.unused_indexes` walks ``$indexStats``-style usage
counters (:meth:`~repro.docstore.collection.Collection.index_stats`) for
indexes no query has touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["IndexRecommendation", "IndexAdvisor"]

#: Profile ops the advisor treats as index-improvable reads.
_READ_OPS = frozenset({"find", "findOne", "count", "distinct", "findAndModify"})

#: Operator conditions an index range scan can serve as a trailing key.
_RANGE_OPS = frozenset({"$gt", "$gte", "$lt", "$lte"})


@dataclass
class IndexRecommendation:
    """One concrete ``create_index`` suggestion with its evidence.

    ``keys`` is the full (possibly compound) key pattern; ``field`` stays
    as its first component for pre-compound consumers.
    """

    ns: str
    collection: str
    field: str
    command: str
    occurrences: int
    avg_millis: float
    docs_examined_before: int
    estimated_docs_examined_after: int
    estimated_reduction: float
    example_query: dict = field(default_factory=dict)
    keys: List[Tuple[str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.keys:
            self.keys = [(self.field, 1)]

    def to_dict(self) -> dict:
        return {
            "ns": self.ns,
            "collection": self.collection,
            "field": self.field,
            "keys": [list(k) for k in self.keys],
            "command": self.command,
            "occurrences": self.occurrences,
            "avg_millis": self.avg_millis,
            "docs_examined_before": self.docs_examined_before,
            "estimated_docs_examined_after":
                self.estimated_docs_examined_after,
            "estimated_reduction": self.estimated_reduction,
            "example_query": self.example_query,
        }


class IndexAdvisor:
    """Mines a database's profiler output for missing-index evidence.

    Parameters
    ----------
    db:
        A local :class:`~repro.docstore.database.Database` with profiling
        enabled (``db.set_profiling_level(2)`` captures everything;
        level 1 captures reads and slow ops).
    min_millis:
        Ignore profile entries faster than this — sub-threshold queries
        are not worth an index's write overhead.
    min_occurrences:
        Require a query shape to appear at least this many times before
        recommending; one-off scans don't justify an index either.

    The evidence is the live ``db.profile_log``; it is not persisted, so
    advice after a restart starts from an empty profile.
    """

    def __init__(self, db: Any, min_millis: float = 0.0,
                 min_occurrences: int = 1):
        self.db = db
        self.min_millis = min_millis
        self.min_occurrences = min_occurrences

    # -- mining ----------------------------------------------------------

    def analyze(self) -> List[IndexRecommendation]:
        """Group COLLSCAN profile entries by query shape and recommend the
        most selective missing index for each, ranked by estimated saved
        docsExamined across the observed workload."""
        groups = self._collscan_groups()
        recs: List[IndexRecommendation] = []
        for (ns, _shape_key), entries in groups.items():
            if len(entries) < self.min_occurrences:
                continue
            coll_name = ns.split(".", 1)[1] if "." in ns else ns
            coll = self.db.get_collection(coll_name)
            example = entries[-1].get("query") or {}
            eq_fields, range_fields = self._candidate_fields(coll, example)
            if not eq_fields and not range_fields:
                continue
            keys, docs_after = self._compound_keys(
                coll, example, eq_fields, range_fields
            )
            if not keys:
                continue
            docs_before = max(
                e.get("docsExamined", 0) for e in entries
            ) or coll.count_documents()
            if docs_after >= docs_before:
                continue  # the index would not narrow the scan
            avg_millis = sum(e["millis"] for e in entries) / len(entries)
            reduction = (
                (docs_before - docs_after) / docs_before
                if docs_before else 0.0
            )
            if len(keys) == 1 and keys[0][1] == 1:
                command = f'db["{coll_name}"].create_index("{keys[0][0]}")'
            else:
                spec = ", ".join(f'("{f}", {d})' for f, d in keys)
                command = f'db["{coll_name}"].create_index([{spec}])'
            recs.append(IndexRecommendation(
                ns=ns,
                collection=coll_name,
                field=keys[0][0],
                command=command,
                occurrences=len(entries),
                avg_millis=avg_millis,
                docs_examined_before=docs_before,
                estimated_docs_examined_after=docs_after,
                estimated_reduction=reduction,
                example_query=dict(example),
                keys=keys,
            ))
        recs.sort(
            key=lambda r: r.occurrences
            * (r.docs_examined_before - r.estimated_docs_examined_after),
            reverse=True,
        )
        return recs

    def _collscan_groups(self) -> Dict[tuple, List[dict]]:
        # imported lazily: repro.docstore pulls in repro.obs at import
        # time, so the reverse edge must not exist at module scope.
        from ..docstore.ops import query_shape

        groups: Dict[tuple, List[dict]] = {}
        for entry in self.db.profile_log:
            if entry.get("op") not in _READ_OPS:
                continue
            if entry.get("planSummary") != "COLLSCAN":
                continue
            if entry.get("millis", 0.0) < self.min_millis:
                continue
            query = entry.get("query") or {}
            if not isinstance(query, dict) or not query:
                continue
            key = (entry["ns"], repr(sorted(query_shape(query).items())))
            groups.setdefault(key, []).append(entry)
        return groups

    @staticmethod
    def _candidate_fields(
        coll: Any, example: dict
    ) -> Tuple[List[str], List[str]]:
        """``(equality_fields, range_fields)`` an index could serve.

        Skips shapes already satisfiable by an existing index prefix
        (first key field matches an equality candidate).
        """
        indexed = {
            info.get("field")
            for info in coll.index_information().values()
        }
        eq_fields, range_fields = [], []
        for fname, cond in example.items():
            if fname.startswith("$") or fname in indexed:
                continue
            if isinstance(cond, dict) and any(
                str(k).startswith("$") for k in cond
            ):
                if all(str(k) in _RANGE_OPS for k in cond):
                    range_fields.append(fname)
                continue  # other operator conditions: not indexable here
            eq_fields.append(fname)
        return eq_fields, range_fields

    def _compound_keys(
        self, coll: Any, example: dict,
        eq_fields: List[str], range_fields: List[str],
    ) -> Tuple[List[Tuple[str, int]], int]:
        """Order candidates into a compound key pattern with its estimate.

        MongoDB's equality-sort-range rule of thumb: equality fields first
        (most selective leading, probed via ``count_documents``), then at
        most one range field last.  The probes run with profiling
        suspended — the advisor must not write new COLLSCAN entries into
        the log it is analyzing.
        """
        saved_level = self.db.get_profiling_level()
        saved_slowms = self.db.slowms
        self.db.set_profiling_level(0)
        try:
            scored = sorted(
                (coll.count_documents({f: example[f]}), f)
                for f in eq_fields
            )
            if scored:
                docs_after = scored[0][0]
            elif range_fields:
                docs_after = coll.count_documents(
                    {range_fields[0]: example[range_fields[0]]}
                )
            else:
                return [], 0
        finally:
            self.db.set_profiling_level(saved_level, saved_slowms)
        keys = [(f, 1) for _count, f in scored]
        if range_fields:
            keys.append((range_fields[0], 1))
        return keys, docs_after

    # -- verification ----------------------------------------------------

    def verify(self, rec: IndexRecommendation,
               keep: bool = False) -> dict:
        """Create the recommended index and replay the example query
        through ``explain()`` before and after.

        Returns ``{"before", "after", "docs_examined_drop", "kept"}``;
        with ``keep=False`` (the default) the index is dropped again so
        verification is side-effect free.
        """
        coll = self.db.get_collection(rec.collection)
        before = coll.explain(rec.example_query)
        index_name = coll.create_index(rec.keys or rec.field)
        try:
            after = coll.explain(rec.example_query)
        except Exception:
            coll.drop_index(index_name)
            raise
        if not keep:
            coll.drop_index(index_name)
        return {
            "before": before,
            "after": after,
            "docs_examined_drop":
                before["docsExamined"] - after["docsExamined"],
            "kept": keep,
        }

    # -- the drop side ---------------------------------------------------

    def unused_indexes(self) -> List[dict]:
        """Indexes whose usage counters show zero accesses — drop
        candidates, ``$indexStats`` style."""
        out = []
        for coll_name in self.db.list_collection_names():
            if coll_name.startswith("system."):
                continue
            coll = self.db.get_collection(coll_name)
            stats = getattr(coll, "index_stats", None)
            if stats is None:
                continue
            for stat in stats():
                if stat["accesses"]["ops"] == 0:
                    out.append({
                        "ns": f"{self.db.name}.{coll_name}",
                        "collection": coll_name,
                        "name": stat["name"],
                        "field": stat["field"],
                        "key": stat.get("key"),
                        "since": stat["accesses"]["since"],
                    })
        return out
