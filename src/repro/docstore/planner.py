"""Cost-based query planning: candidate enumeration, ranking, plan cache.

The paper's interactive workloads — arbitrary property-range queries like
``{"nelements": 2, "e_above_hull": {"$lte": 0.05}}`` from the Materials API
and web UI — are only feasible because MongoDB picks good index plans and
reuses them.  This module reproduces that architecture:

1. **Enumeration** — for each index, the usable *prefix* of the query is
   computed from :func:`~repro.docstore.matching.index_predicates`:
   equality/``$in`` point probes extend the prefix, the first range
   predicate closes it with bounds, and indexes that merely provide the
   requested sort order are enumerated too.  A COLLSCAN candidate always
   competes.
2. **Ranking** — candidates race over a bounded trial (MongoDB's ``works``
   budget): each plan executes until it produces 101 results or exhausts
   the budget, and is scored by productivity (results per unit of work)
   plus bonuses for finishing outright, avoiding a blocking sort, and
   covering the query from index keys alone.  Ties break deterministically
   (index plans over COLLSCAN, more key components, then index name).
3. **Plan cache** — winners are cached under a canonical *query shape*
   (field names + operator types + sort + projection, values elided) in an
   LRU; create/drop index invalidates the cache, and a cached plan whose
   runtime productivity collapses relative to its trial is evicted and
   replanned.  ``hits``/``misses``/``evictions``/``replans`` surface via
   :meth:`PlanCache.stats` and ``repro_docstore_plan_cache_total`` metrics.
4. **Execution** — :func:`iter_plan` drives the winning plan: IDHACK for
   ``{"_id": value}`` point reads, bounded index scans (forward or reverse
   so ``sort`` consumes index order without a blocking sort), covered
   plans that rebuild result documents from index keys without touching
   the collection, and the COLLSCAN fallback.  Every candidate document is
   re-verified by the compiled matcher, so plans only ever narrow.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..errors import DocstoreError
from ..obs import get_registry
from .cursor import parse_projection
from .documents import MISSING, set_path
from .indexes import Index
from .matching import Matcher, index_predicates
from .objectid import ObjectId

__all__ = [
    "CandidatePlan",
    "PlanCache",
    "PlanResult",
    "QueryPlanner",
    "canonical_shape",
    "iter_plan",
    "shard_key_predicate",
]

#: A plan trial ends after this many results (MongoDB's numResults limit).
TRIAL_MAX_RESULTS = 101
#: Fan-out cap: a candidate may split into at most this many point scans.
MAX_SCANS = 64
#: Cached plans re-enter planning once runtime productivity falls below
#: trial productivity divided by this factor (with enough work observed).
REPLAN_DEGRADATION_FACTOR = 10.0
#: Minimum work observed before a cached plan may be declared degraded.
REPLAN_MIN_WORKS = 100


def _plan_cache_event(event: str) -> None:
    get_registry().counter(
        "repro_docstore_plan_cache_total",
        "plan cache lookups and lifecycle events by type",
    ).inc(1, event=event)


def canonical_shape(
    query: Mapping[str, Any],
    sort_spec: Optional[Sequence[Tuple[str, int]]] = None,
    projection: Optional[Mapping[str, Any]] = None,
) -> tuple:
    """Hashable canonical query shape: structure kept, constants elided.

    ``{"f": "Fe2O3", "e": {"$lte": 0.05}}`` and ``{"e": {"$lte": 1.0},
    "f": "NaCl"}`` share a shape; a different operator, sort, or projection
    does not.
    """

    def shape_value(value: Any) -> Any:
        if isinstance(value, Mapping) and any(
            str(k).startswith("$") for k in value
        ):
            return tuple(sorted(
                ((str(k), shape_value(v)) for k, v in value.items()),
                key=lambda kv: kv[0],
            ))
        return "?"

    query_part = tuple(sorted(
        ((str(f), shape_value(c)) for f, c in query.items()),
        key=lambda kv: kv[0],
    ))
    sort_part = tuple((f, d) for f, d in sort_spec) if sort_spec else ()
    proj_part = tuple(sorted(
        (str(f), 1 if v in (1, True) else 0)
        for f, v in (projection or {}).items()
    )) if projection else ()
    return (query_part, sort_part, proj_part)


def shard_key_predicate(query: Mapping[str, Any], shard_key: str):
    """The index-usable constraint ``query`` places on the shard key.

    This is the planner's candidate-enumeration machinery reused for shard
    *targeting*: the same per-field predicate decomposition that decides
    whether an index prefix can serve a query decides whether the chunk map
    can prune shards.  Returns the shard key's
    :class:`~repro.docstore.matching.FieldPredicate` when its ``kind`` is
    usable for routing (``eq``, ``in``, or ``range``), else ``None`` — the
    router scatter-gathers exactly when the planner would refuse the same
    predicate as an index prefix.
    """
    predicate = index_predicates(query).get(shard_key)
    if predicate is None or predicate.kind not in ("eq", "in", "range"):
        return None
    return predicate


class ScanSpec(NamedTuple):
    """Arguments for one contiguous :meth:`Index.scan` segment."""

    prefix: Tuple[Any, ...]
    bounds: Optional[Dict[str, Any]] = None


class CandidatePlan:
    """One way to answer a query, with trial statistics once raced."""

    __slots__ = (
        "kind", "index", "scans", "direction", "n_components",
        "provides_sort", "needs_blocking_sort", "covered", "id_value",
        "trial_works", "trial_advanced", "trial_finished", "score",
        "all_probe", "all_filters", "allowed",
    )

    def __init__(
        self,
        kind: str,
        index: Optional[Index] = None,
        scans: Optional[List[ScanSpec]] = None,
        direction: int = 1,
        n_components: int = 0,
        provides_sort: bool = False,
        needs_blocking_sort: bool = False,
        covered: bool = False,
        id_value: Any = None,
    ):
        self.kind = kind  # "COLLSCAN" | "IXSCAN" | "IDHACK"
        self.index = index
        self.scans = scans or []
        self.direction = direction
        self.n_components = n_components
        self.provides_sort = provides_sort
        self.needs_blocking_sort = needs_blocking_sort
        self.covered = covered
        self.id_value = id_value
        self.trial_works = 0
        self.trial_advanced = 0
        self.trial_finished = False
        self.score = 0.0
        # $all: the member probed, how many filter it, their common positions
        self.all_probe: Any = None
        self.all_filters = 0
        self.allowed: Optional[set] = None

    @property
    def index_name(self) -> Optional[str]:
        return self.index.name if self.index is not None else None

    @property
    def key_pattern(self) -> Optional[List[Tuple[str, int]]]:
        return list(self.index.keys) if self.index is not None else None

    @property
    def summary(self) -> str:
        if self.kind == "IXSCAN" and self.index is not None:
            pattern = ", ".join(f"{f}: {d}" for f, d in self.index.keys)
            return f"IXSCAN {{ {pattern} }}"
        return self.kind

    def describe(self) -> dict:
        """Explain-style record (used for ``rejectedPlans``)."""
        return {
            "stage": self.kind,
            "index": self.index_name,
            "planSummary": self.summary,
            "providesSort": self.provides_sort,
            "covered": self.covered,
            "score": self.score,
            "trial": {
                "works": self.trial_works,
                "advanced": self.trial_advanced,
                "finished": self.trial_finished,
            },
        }


class PlanResult:
    """Outcome of one planning pass."""

    __slots__ = ("winner", "rejected", "cache_status", "shape")

    def __init__(self, winner: CandidatePlan,
                 rejected: Optional[List[CandidatePlan]] = None,
                 cache_status: str = "none",
                 shape: Optional[tuple] = None):
        self.winner = winner
        self.rejected = rejected or []
        self.cache_status = cache_status  # "none" | "hit" | "miss"
        self.shape = shape


class _CacheEntry(NamedTuple):
    index_name: Optional[str]  # None → cached COLLSCAN decision
    trial_productivity: float
    trial_works: int


class PlanCache:
    """LRU of winning plans keyed by canonical query shape."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.replans = 0

    def lookup(self, shape: tuple) -> Optional[_CacheEntry]:
        with self._lock:
            entry = self._entries.get(shape)
            if entry is not None:
                self._entries.move_to_end(shape)
                self.hits += 1
            else:
                self.misses += 1
        _plan_cache_event("hit" if entry is not None else "miss")
        return entry

    def store(self, shape: tuple, entry: _CacheEntry) -> None:
        with self._lock:
            self._entries[shape] = entry
            self._entries.move_to_end(shape)
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        for _ in range(evicted):
            _plan_cache_event("evict")

    def remove(self, shape: tuple) -> None:
        with self._lock:
            self._entries.pop(shape, None)

    def peek(self, shape: tuple) -> Optional[_CacheEntry]:
        """Read an entry without touching LRU order or hit/miss counts."""
        with self._lock:
            return self._entries.get(shape)

    def invalidate_all(self) -> int:
        """Drop every cached plan (index catalog changed)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += 1
        _plan_cache_event("invalidate")
        return dropped

    def note_replan(self, shape: tuple) -> None:
        with self._lock:
            self._entries.pop(shape, None)
            self.replans += 1
        _plan_cache_event("replan")

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "replans": self.replans,
            }


def _pseudo_doc(index: Index, values: Tuple[Any, ...]) -> dict:
    """Rebuild a (partial) document from one index entry's key values."""
    out: dict = {}
    for field, value in zip(index.fields, values):
        if value is not MISSING:
            set_path(out, field, value)
    return out


def iter_plan(
    collection: Any,
    candidate: CandidatePlan,
    matcher: Matcher,
    stats: Dict[str, int],
    max_works: Optional[int] = None,
    skip: int = 0,
) -> Iterator[Tuple[dict, int]]:
    """Execute ``candidate`` against ``collection``, yielding matches.

    Yields ``(document, position)`` pairs; for covered plans the document
    is a pseudo-document rebuilt from index keys (the collection's
    document table is never consulted).  ``stats`` accumulates ``keys``
    (index entries visited) and ``docs`` (documents fetched); when the
    combined work exceeds ``max_works`` the generator stops and sets
    ``stats["capped"] = 1`` — the trial-run budget.  A one-scan plan's
    first ``skip`` entries, matches all, are counted as keys, not visited.

    The caller must hold the collection lock.
    """
    if candidate.kind == "IDHACK":
        stats["keys"] += 1
        pos = collection._id_to_pos.get(collection._id_key(candidate.id_value))
        doc = collection._docs.get(pos)
        if doc is not None:
            stats["docs"] += 1
            if matcher.matches(doc):
                yield doc, pos
        return
    if candidate.kind == "COLLSCAN":
        docs = collection._docs
        for pos in sorted(docs):
            if max_works is not None and stats["docs"] >= max_works:
                stats["capped"] = 1
                return
            doc = docs[pos]
            stats["docs"] += 1
            if matcher.matches(doc):
                yield doc, pos
        return
    index = candidate.index
    reverse = candidate.direction == -1
    # A document can surface from several scans ($in fan-out) or several
    # entries of one scan (multikey); deduplicate by position then.
    seen: Optional[set] = (
        set() if (index.multikey or len(candidate.scans) > 1) else None
    )
    allowed = candidate.allowed
    stats["keys"] += skip
    for spec in candidate.scans:
        for values, pos in index.scan(spec.prefix, spec.bounds, reverse, skip):
            if max_works is not None and stats["keys"] >= max_works:
                stats["capped"] = 1
                return
            stats["keys"] += 1
            if allowed is not None and pos not in allowed:
                continue
            if seen is not None:
                if pos in seen:
                    continue
                seen.add(pos)
            if candidate.covered:
                pseudo = _pseudo_doc(index, values)
                if matcher.matches(pseudo):
                    yield pseudo, pos
            else:
                doc = collection._docs.get(pos)
                if doc is None:
                    continue
                stats["docs"] += 1
                if matcher.matches(doc):
                    yield doc, pos


_IDHACK_TYPES = (str, int, float, bool, bytes, ObjectId, type(None))


class QueryPlanner:
    """Per-collection cost-based planner with a shape-keyed plan cache."""

    def __init__(self, collection: Any):
        self._coll = collection
        self.cache = PlanCache()

    # -- public API --------------------------------------------------------

    def invalidate(self) -> None:
        """Forget every cached plan (called on index create/drop)."""
        self.cache.invalidate_all()

    def plan(
        self,
        query: Mapping[str, Any],
        matcher: Matcher,
        sort_spec: Optional[Sequence[Tuple[str, int]]] = None,
        projection: Optional[Mapping[str, Any]] = None,
        hint: Optional[str] = None,
        use_cache: bool = True,
    ) -> PlanResult:
        """Choose an execution plan.  Caller holds the collection lock."""
        sort_spec = list(sort_spec) if sort_spec else None
        predicates = index_predicates(query)

        # IDHACK: the {"_id": value} point read skips planning and cache.
        if (
            hint is None
            and set(query) == {"_id"}
            and "_id" in predicates
            and predicates["_id"].kind == "eq"
            and isinstance(predicates["_id"].value, _IDHACK_TYPES)
        ):
            return PlanResult(CandidatePlan("IDHACK",
                                            id_value=predicates["_id"].value))

        if hint is not None:
            return PlanResult(self._hinted(hint, predicates, sort_spec,
                                           query, projection))

        shape = canonical_shape(query, sort_spec, projection)
        if use_cache:
            entry = self.cache.lookup(shape)
            if entry is not None:
                candidate = self._rebuild(entry, predicates, sort_spec,
                                          query, projection)
                if candidate is not None:
                    return PlanResult(candidate, cache_status="hit",
                                      shape=shape)
                self.cache.remove(shape)

        candidates = self._enumerate(predicates, sort_spec, query, projection)
        if len(candidates) == 1:
            winner, rejected = candidates[0], []
        else:
            winner, rejected = self._race(candidates, matcher)
        if use_cache:
            productivity = (
                winner.trial_advanced / winner.trial_works
                if winner.trial_works else 1.0
            )
            self.cache.store(shape, _CacheEntry(winner.index_name,
                                                productivity,
                                                winner.trial_works))
        return PlanResult(winner, rejected,
                          cache_status="miss" if use_cache else "none",
                          shape=shape)

    def note_execution(self, result: PlanResult, stats: Mapping[str, int],
                       n_returned: int) -> None:
        """Post-execution feedback: evict cached plans that degraded.

        A cached plan whose runtime cost blows past its trial — works
        grown by more than :data:`REPLAN_DEGRADATION_FACTOR`, or observed
        productivity collapsed by the same factor (data distribution
        shifted since the trial) — is removed, so the next query of this
        shape re-races candidates.  This is MongoDB's replanning trigger.
        """
        if result.cache_status != "hit" or result.shape is None:
            return
        works = max(stats.get("keys", 0), stats.get("docs", 0))
        if works < REPLAN_MIN_WORKS:
            return
        cached = self.cache.peek(result.shape)
        if cached is None:
            return
        degraded = works > max(cached.trial_works, 1) * \
            REPLAN_DEGRADATION_FACTOR
        if not degraded:
            runtime_productivity = n_returned / works
            threshold = (cached.trial_productivity
                         / REPLAN_DEGRADATION_FACTOR)
            degraded = runtime_productivity < threshold
        if degraded:
            self.cache.note_replan(result.shape)

    # -- enumeration -------------------------------------------------------

    def _eq_points(self, value: Any) -> List[Any]:
        # Equality with None also matches documents missing the field
        # entirely (stored as MISSING), so the probe fans out.
        if value is None:
            return [None, MISSING]
        return [value]

    def _build_candidate(
        self,
        index: Index,
        predicates: Mapping[str, Any],
        sort_spec: Optional[List[Tuple[str, int]]],
        query: Mapping[str, Any],
        projection: Optional[Mapping[str, Any]],
    ) -> Optional[CandidatePlan]:
        """The best use of ``index`` for this query, or None if unusable."""
        prefixes: List[Tuple[Any, ...]] = [()]
        n_points = 0
        bounds: Optional[Dict[str, Any]] = None
        members: List[Any] = []
        for field, _direction in index.keys:
            pred = predicates.get(field)
            if pred is None or pred.kind == "opaque":
                break
            if pred.kind == "range":
                bounds = dict(pred.bounds)
                break
            if pred.kind == "eq":
                points = self._eq_points(pred.value)
            elif pred.kind == "in":
                points = []
                for v in pred.values:
                    points.extend(self._eq_points(v))
            else:  # "all": each member's entries are a superset probe
                members = sorted(pred.values, key=lambda m: sum(
                    index.entry_count_in(p + (m,)) for p in prefixes))
                points = members[:1]
            if len(prefixes) * len(points) > MAX_SCANS:
                break
            prefixes = [p + (v,) for p in prefixes for v in points]
            n_points += 1
            if pred.kind == "all":
                break
        usable = n_points > 0 or bounds is not None
        scans = [ScanSpec(p, dict(bounds) if bounds else None)
                 for p in prefixes]
        sort_direction = self._provides_sort(index, n_points, len(scans),
                                             sort_spec)
        if not usable:
            if not sort_direction:
                return None
            # Sort-only plan: walk the whole index in order.
            scans = [ScanSpec(())]
        covered = self._is_covered(index, query, projection, sort_spec)
        provides = bool(sort_direction)
        candidate = CandidatePlan(
            "IXSCAN",
            index=index,
            scans=scans,
            direction=sort_direction if provides else 1,
            n_components=n_points + (1 if bounds is not None else 0),
            provides_sort=provides,
            needs_blocking_sort=bool(sort_spec) and not provides,
            covered=covered,
        )
        if members:
            # Probe the rarest member; on a single-field index a document
            # must also sit in every other member's bucket.
            candidate.all_probe = members[0]
            if len(index.fields) == 1 and len(members) > 1:
                candidate.allowed = set.intersection(*(
                    {pos for _, pos in index.scan((m,))} for m in members[1:]))
                candidate.all_filters = len(members) - 1
        return candidate

    @staticmethod
    def _provides_sort(
        index: Index,
        n_points: int,
        n_scans: int,
        sort_spec: Optional[List[Tuple[str, int]]],
    ):
        """Scan direction (1/-1) if the index yields ``sort_spec`` order."""
        if not sort_spec or index.multikey or n_scans > 1:
            return False
        keys = index.keys
        for start in range(n_points + 1):
            if start + len(sort_spec) > len(keys):
                continue
            factors = set()
            matched = True
            for (s_field, s_dir), (k_field, k_dir) in zip(
                sort_spec, keys[start:]
            ):
                if s_field != k_field:
                    matched = False
                    break
                factors.add(s_dir * k_dir)
            if matched and len(factors) == 1:
                return factors.pop()
        return False

    @staticmethod
    def _is_covered(
        index: Index,
        query: Mapping[str, Any],
        projection: Optional[Mapping[str, Any]],
        sort_spec: Optional[List[Tuple[str, int]]],
    ) -> bool:
        """True when the projection can be answered from index keys alone."""
        if not projection or index.multikey:
            return False
        include, exclude, keep_id = parse_projection(projection)
        fields = set(index.fields)
        # Exclusions are never covered; _id rides along unless suppressed.
        if exclude or not include or not set(include) <= fields or (
                keep_id and "_id" not in fields):
            return False
        # Every query clause must be verifiable against the pseudo-document
        # rebuilt from key values: only top-level clauses on indexed fields.
        for field in query:
            if str(field).startswith("$") or field not in fields:
                return False
        if sort_spec and any(f not in fields for f, _ in sort_spec):
            return False
        return True

    def _enumerate(
        self,
        predicates: Mapping[str, Any],
        sort_spec: Optional[List[Tuple[str, int]]],
        query: Mapping[str, Any],
        projection: Optional[Mapping[str, Any]],
    ) -> List[CandidatePlan]:
        candidates: List[CandidatePlan] = []
        for index in self._coll._indexes.all():
            candidate = self._build_candidate(index, predicates, sort_spec,
                                              query, projection)
            if candidate is not None:
                candidates.append(candidate)
        candidates.append(CandidatePlan(
            "COLLSCAN",
            needs_blocking_sort=bool(sort_spec),
        ))
        return candidates

    def _rebuild(
        self,
        entry: _CacheEntry,
        predicates: Mapping[str, Any],
        sort_spec: Optional[List[Tuple[str, int]]],
        query: Mapping[str, Any],
        projection: Optional[Mapping[str, Any]],
    ) -> Optional[CandidatePlan]:
        """Re-bind a cached plan skeleton to this query's constants."""
        if entry.index_name is None:
            return CandidatePlan("COLLSCAN",
                                 needs_blocking_sort=bool(sort_spec))
        index = self._coll._indexes.get(entry.index_name)
        if index is None:
            return None
        return self._build_candidate(index, predicates, sort_spec, query,
                                     projection)

    def _hinted(
        self,
        hint: str,
        predicates: Mapping[str, Any],
        sort_spec: Optional[List[Tuple[str, int]]],
        query: Mapping[str, Any],
        projection: Optional[Mapping[str, Any]],
    ) -> CandidatePlan:
        """Force the hinted index (or ``$natural`` for a COLLSCAN)."""
        if hint == "$natural":
            return CandidatePlan("COLLSCAN",
                                 needs_blocking_sort=bool(sort_spec))
        index = self._coll._indexes.get(hint)
        if index is None:
            raise DocstoreError(
                f"hint: no index named {hint!r} on "
                f"collection {self._coll.name!r}"
            )
        candidate = self._build_candidate(index, predicates, sort_spec,
                                          query, projection)
        if candidate is None:
            # Unusable for the predicates: hint still forces a full scan
            # of this index, exactly like MongoDB.
            direction = self._provides_sort(index, 0, 1, sort_spec)
            candidate = CandidatePlan(
                "IXSCAN", index=index, scans=[ScanSpec(())],
                direction=direction or 1, provides_sort=bool(direction),
                needs_blocking_sort=bool(sort_spec) and not direction,
                covered=self._is_covered(index, query, projection, sort_spec),
            )
        return candidate

    # -- ranking -----------------------------------------------------------

    def _works_budget(self) -> int:
        n_docs = len(self._coll._docs)
        return min(max(100, n_docs // 10), 2000)

    def _race(
        self,
        candidates: List[CandidatePlan],
        matcher: Matcher,
    ) -> Tuple[CandidatePlan, List[CandidatePlan]]:
        """Trial-run every candidate under the works budget; rank them."""
        budget = self._works_budget()
        registry = get_registry()
        for candidate in candidates:
            stats = {"keys": 0, "docs": 0, "capped": 0}
            advanced = 0
            for _ in iter_plan(self._coll, candidate, matcher, stats,
                               max_works=budget):
                advanced += 1
                if advanced >= TRIAL_MAX_RESULTS:
                    break
            # One unit of work = one storage advance: an index entry visited
            # (its doc fetch rides along) or one collection-scan step.
            candidate.trial_works = max(1, stats["keys"], stats["docs"])
            candidate.trial_advanced = advanced
            candidate.trial_finished = (
                not stats["capped"] and advanced < TRIAL_MAX_RESULTS
            )
            productivity = candidate.trial_advanced / candidate.trial_works
            score = productivity
            if candidate.trial_finished:
                score += 1.0
            if not candidate.needs_blocking_sort:
                score += 0.5
            if candidate.covered:
                score += 0.2
            candidate.score = score
        registry.counter(
            "repro_docstore_plans_trialed_total",
            "candidate plans raced during query planning",
        ).inc(len(candidates))
        ranked = sorted(
            candidates,
            key=lambda c: (
                -c.score,
                c.kind != "IXSCAN",
                -c.n_components,
                c.index_name or "~",
            ),
        )
        return ranked[0], ranked[1:]
