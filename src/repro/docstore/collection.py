"""Collections: the core CRUD surface of the document store.

A :class:`Collection` is a named set of documents with secondary indexes,
Mongo-style ``find``/``update``/``delete`` semantics, and — critically for
the paper — an atomic :meth:`find_one_and_update`.  That single primitive is
what lets one MongoDB deployment act as a *message queue*: the FireWorks
launcher claims a runnable job by atomically flipping its state from
``WAITING`` to ``RUNNING`` so that two launchers never grab the same job
(§III-B2).  All mutating operations hold the collection lock, giving the
same document-level atomicity MongoDB provides.

Stored documents are immutable.  A document enters ``_docs`` only as the
private ``stored_copy`` made by ``_insert``, and an update builds a new dict
and swaps it into its position (``_apply_to_position``); nothing writes into
a stored dict in place.  So a reference taken under the lock stays a
consistent snapshot of that document after the lock is released.  Who may
hold one: ``_select``'s callers while they hold the lock; the stages of an
``aggregate`` pipeline, which copy whatever they write; ``distinct``, which
copies only the values it returns; the wire server, which takes its
``find``/``find_one`` answers from :meth:`Collection._find_stored` and
encodes them after the lock is released, never mutating them; and the
fragment cache.  That cache keeps each stored document's JSON text as a
``(stored_dict, fragment)`` pair keyed by position: an unprojected
``_find_stored`` fills it under the read lock, and a fragment is served
(:meth:`Collection._json_of`) only when its pair holds the very dict the
read returned, so a stale fragment cannot be served.  Whatever swaps or
removes ``_docs[pos]`` drops ``_fragments[pos]`` under the write lock,
which keeps the cache at most one entry per stored document.  Who must
copy: anything that hands a document to an in-process caller — ``find``,
``find_one``, the ``find_one_and_*`` verbs, ``all_documents`` and the rows
``aggregate`` returns — so callers can never mutate stored state behind the
store's back.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

from ..errors import DocstoreError, DuplicateKeyError
from .cursor import Cursor, compile_projection, distinct_values
from .documents import (
    deep_copy_doc,
    document_to_json,
    set_path,
    stored_copy,
    validate_document,
)
from .indexes import (
    IndexManager,
    QueryPlan,
    default_index_name,
    normalize_index_spec,
)
from .locks import RWLock
from .matching import Matcher, compile_query, sort_documents
from .objectid import ObjectId
from .ops import ActiveOp
from .planner import QueryPlanner, iter_plan
from .updates import apply_update, is_operator_update

__all__ = ["Collection", "InsertResult", "UpdateResult", "DeleteResult", "BulkWriteResult"]


def _as_stored(doc: dict, _pos: int) -> dict:
    return doc


def _projected(projection: Any) -> Callable[[dict, int], dict]:
    """The ``each`` of a copying read: ``projection`` compiled once, then
    applied to every survivor."""
    project = compile_projection(projection)
    return lambda doc, _pos: project(doc)


def _plan_report(result: Any, stats: Mapping[str, int], n: int) -> QueryPlan:
    """The explain record of one executed :class:`PlanResult`."""
    winner = result.winner
    return QueryPlan(
        winner.kind, winner.index_name, stats["docs"], keys_examined=stats["keys"],
        n_returned=n, provides_sort=winner.provides_sort, covered=winner.covered,
        key_pattern=winner.key_pattern, rejected=[c.describe() for c in result.rejected],
        cache=result.cache_status, all_probe=winner.all_probe, all_filters=winner.all_filters)


def _encode(doc: dict) -> bytes:
    return document_to_json(doc).encode("utf-8")


class InsertResult:
    """Result of insert_one/insert_many."""

    __slots__ = ("inserted_ids",)

    def __init__(self, inserted_ids: List[Any]):
        self.inserted_ids = inserted_ids

    @property
    def inserted_id(self) -> Any:
        return self.inserted_ids[0] if self.inserted_ids else None


class UpdateResult:
    __slots__ = ("matched_count", "modified_count", "upserted_id")

    def __init__(self, matched: int, modified: int, upserted_id: Any = None):
        self.matched_count = matched
        self.modified_count = modified
        self.upserted_id = upserted_id


class DeleteResult:
    __slots__ = ("deleted_count",)

    def __init__(self, deleted: int):
        self.deleted_count = deleted


class BulkWriteResult:
    __slots__ = ("inserted_count", "matched_count", "modified_count", "deleted_count")

    def __init__(self, inserted: int, matched: int, modified: int, deleted: int):
        self.inserted_count = inserted
        self.matched_count = matched
        self.modified_count = modified
        self.deleted_count = deleted


class Collection:
    """A named document collection with CRUD, indexes, and atomic claims."""

    def __init__(self, name: str, database: Optional[Any] = None):
        if not name or "$" in name:
            raise DocstoreError(f"invalid collection name {name!r}")
        self.name = name
        self.database = database
        self._docs: Dict[int, dict] = {}
        self._id_to_pos: Dict[Any, int] = {}
        self._next_pos = 0
        self._indexes = IndexManager()
        # Cost-based planner with its shape-keyed plan cache.
        self._planner = QueryPlanner(self)
        # Reader-writer lock: many concurrent finds, one exclusive writer.
        # ``with self._lock:`` (no mode) still takes the exclusive side, so
        # external callers treating it as a mutex stay correct.
        self._lock = RWLock(name=name)
        # The planner's last decision is per-thread: concurrent readers
        # must not clobber each other's explain() output.
        self._plan_local = threading.local()
        # $indexStats-style usage accounting: name -> {"ops", "since"}.
        # Guarded by its own mutex because it is written under the *shared*
        # lock mode, where many reader threads run at once.
        self._index_usage: Dict[str, dict] = {}
        self._usage_lock = threading.Lock()
        # Optional observers (change streams, the journal).
        self._change_listeners: List[Callable[[str, dict], None]] = []
        # Fragment cache: position -> (stored dict, its JSON text).  Filled
        # under the read lock by unprojected wire reads; dropped under the
        # write lock wherever ``_docs[pos]`` is swapped or removed.
        self._fragments: Dict[int, Tuple[dict, bytes]] = {}
        # Where this collection's ops go: the owning store's current_op()
        # table and the database's report funnel.  Neither for a detached
        # collection, nor for ``system.*`` so the profiler's own writes
        # never show; a database without a store still gets reports.
        reported = database is not None and not name.startswith("system.")
        self._report = database._observe_op if reported else None
        client = database.client if reported else None
        self._registry = client._ops if client is not None else None

    # -- bookkeeping ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self) -> str:
        return f"Collection({self.name!r}, docs={len(self._docs)})"

    def add_change_listener(self, fn: Callable[[str, dict], None]) -> None:
        """Register ``fn(op, payload)`` called on insert/update/delete."""
        self._change_listeners.append(fn)

    def _notify(self, op: str, payload: dict) -> None:
        for fn in self._change_listeners:
            fn(op, payload)

    @staticmethod
    def _id_key(value: Any) -> Any:
        return value.binary if isinstance(value, ObjectId) else value

    @property
    def namespace(self) -> str:
        db = self.database
        return f"{db.name}.{self.name}" if db is not None else self.name

    def _op(self, op: str, kind: str, query: Any) -> ActiveOp:
        """The record of one ``op`` of opcounter category ``kind``, for
        ``with self._op(...) as active:``.  Listed in the store's
        ``current_op()`` while the block runs, reported to the database
        when it exits cleanly; see ``__init__`` for where neither holds."""
        if self._registry is not None:
            return self._registry.register(op, self.namespace, query, kind,
                                           self._report)
        return ActiveOp(op, self.namespace, query, kind, self._report)

    # -- inserts ----------------------------------------------------------

    def insert_one(self, document: Mapping[str, Any]) -> InsertResult:
        """Insert a single document, assigning an ObjectId if needed."""
        with self._op("insert", "insert", {}):
            return InsertResult([self._insert(document)])

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> InsertResult:
        with self._op("insert", "insert", {}) as active:
            ids = [self._insert(d) for d in documents]
            active.n_ops = len(ids)
        return InsertResult(ids)

    def _insert(self, document: Mapping[str, Any], _notify: bool = True) -> Any:
        if not isinstance(document, Mapping):
            raise DocstoreError("documents must be mappings")
        doc = stored_copy(dict(document))
        if "_id" not in doc:
            doc["_id"] = ObjectId()
        validate_document(doc)
        with self._lock.write():
            key = self._id_key(doc["_id"])
            if key in self._id_to_pos:
                raise DuplicateKeyError(
                    f"duplicate _id {doc['_id']!r} in collection {self.name!r}"
                )
            pos = self._next_pos
            self._next_pos += 1
            self._indexes.add_document(pos, doc)  # may raise DuplicateKeyError
            self._docs[pos] = doc
            self._id_to_pos[key] = pos
        if _notify:
            self._notify("insert", {"ns": self.name, "doc": deep_copy_doc(doc)})
        return doc["_id"]

    # -- query execution ---------------------------------------------------

    def _record_usage(self, index_name: str) -> None:
        """$indexStats accounting: the planner consulted ``index_name``
        (equality/range probe, sort-only scan, or covered read alike)."""
        with self._usage_lock:
            usage = self._index_usage.setdefault(
                index_name, {"ops": 0, "since": time.time()}
            )
            usage["ops"] += 1

    def _select(
        self,
        query: Mapping[str, Any],
        matcher: Matcher,
        active: ActiveOp,
        sort: Optional[List[tuple]] = None,
        skip: int = 0,
        limit: Optional[int] = None,
        hint: Optional[str] = None,
        projection: Optional[Mapping[str, Any]] = None,
    ) -> Iterator[Tuple[dict, int]]:
        """The one selector-resolution path: plan ``query`` once and yield
        ``(stored_document, position)`` per match, in final order, after
        ``skip`` and up to ``limit``.

        Every read and write verb resolves its selector here.  The caller
        holds the collection lock, copies or projects what it exposes (a
        covered plan yields pseudo-documents rebuilt from index keys), and
        drains the generator before mutating the collection.  ``active``
        is the op's record: checked for ``killOp`` per candidate, and given
        the plan summary and the documents and keys examined.
        """
        result = self._planner.plan(
            query, matcher, sort_spec=sort, projection=projection, hint=hint,
        )
        winner = result.winner
        stats = {"keys": 0, "docs": 0, "n": 0}
        try:
            yield from self._execute(winner, matcher, stats, sort, skip, limit,
                                     active.check_killed)
        finally:
            n = stats["n"]
            plan = self._plan_local.plan = _plan_report(result, stats, n)
            active.plan_summary = plan.summary
            active.docs_examined = stats["docs"]
            active.keys_examined = stats["keys"]
            if winner.index is not None:
                self._record_usage(winner.index.name)
            self._planner.note_execution(result, stats, n)

    def _execute(self, winner: Any, matcher: Matcher, stats: Dict[str, int],
                 sort: Optional[List[tuple]], skip: int, limit: Optional[int],
                 check: Callable[[], None] = lambda: None,
                 ) -> Iterator[Tuple[dict, int]]:
        """Drive ``winner`` through :func:`iter_plan`, yielding ``(stored_doc,
        position)`` in final order after ``skip`` and up to ``limit``;
        ``check()`` runs per candidate and ``stats["n"]`` counts matches,
        skipped ones included.

        skip+limit push down only when candidates arrive in final order
        (index-provided, or no sort requested at all); a blocking sort needs
        every match before its first result.  A page in final order over
        one scan of a non-multikey index with an empty filter, where every
        index entry is a distinct match, also skips on keys: ``iter_plan``
        passes over its first ``skip`` entries by offset and fetches none
        of them."""
        ordered = not sort or winner.provides_sort
        stop = skip + limit if limit is not None else None
        n = 0
        if (ordered and winner.kind == "IXSCAN" and not matcher.query
                and not winner.index.multikey and len(winner.scans) == 1
                and winner.allowed is None):
            spec = winner.scans[0]
            n = min(skip, winner.index.entry_count_in(spec.prefix, spec.bounds))
        unsorted: List[Tuple[dict, int]] = []
        try:
            for hit in iter_plan(self, winner, matcher, stats, skip=n):
                check()
                n += 1
                if not ordered:
                    unsorted.append(hit)
                elif n > skip:
                    yield hit
                    if n == stop:
                        break
        finally:
            stats["n"] = n
        if unsorted:
            yield from sort_documents(
                unsorted, sort, doc_of=itemgetter(0))[skip:stop]

    def _matched_positions(
        self, query: Mapping[str, Any], matcher: Matcher, multi: bool,
        active: ActiveOp,
    ) -> List[int]:
        """Positions a write to ``query`` targets, in insertion order.

        Materialised before the first change so a write to an indexed field
        cannot re-surface its own document mid-scan, and sorted so change
        streams and the journal see multi-writes oldest document first.  A
        single-target write takes the document ``find_one(query)`` returns.
        """
        return sorted(pos for _doc, pos in self._select(
            query, matcher, active, limit=None if multi else 1))

    def explain(
        self,
        query: Optional[Mapping[str, Any]] = None,
        sort: Optional[List[tuple]] = None,
        projection: Optional[Mapping[str, Any]] = None,
        hint: Optional[str] = None,
        verbosity: str = "executionStats",
        pipeline: Optional[List[Mapping[str, Any]]] = None,
        skip: int = 0,
        limit: Optional[int] = None,
    ) -> dict:
        """Plan and execute ``query``, reporting the chosen plan.

        Always runs the planner fresh on the given query (never a stale
        per-thread artifact, and never served from the plan cache).  The
        report carries MongoDB ``executionStats``-style fields — ``stage``,
        ``index`` (also as ``indexUsed``), ``docsExamined``/``keysExamined``,
        ``nReturned``, ``executionTimeMillis`` — plus ``planSummary``,
        ``providesSort``/``blockingSort``, ``covered``, ``keyPattern`` and
        the ``rejectedPlans`` the winner beat.  With
        ``verbosity="allPlansExecution"`` each rejected plan includes its
        trial-run statistics.  ``skip`` and ``limit`` execute as a cursor's
        do, so ``nReturned`` counts the page and ``keysExamined`` /
        ``docsExamined`` what reading it cost.

        With ``pipeline=[...]`` this explains an aggregation instead:
        equivalent to ``aggregate(pipeline, explain=True)`` — per-stage
        docs-in/docs-out/elapsed executionStats (``query``/``sort``/
        ``projection``/``hint`` are ignored in that mode).
        """
        if pipeline is not None:
            return self.aggregate(pipeline, explain=True)
        query = query or {}
        matcher = compile_query(query)
        sort_spec = list(sort) if sort else None
        t0 = time.perf_counter()
        stats = {"keys": 0, "docs": 0, "n": 0}
        with self._lock.read():
            result = self._planner.plan(
                query, matcher, sort_spec=sort_spec, projection=projection,
                hint=hint, use_cache=False,
            )
            winner = result.winner
            count = sum(1 for _ in self._execute(
                winner, matcher, stats, sort_spec, skip, limit))
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        out = dict(
            _plan_report(result, stats, count).to_dict(),
            indexUsed=winner.index_name, executionTimeMillis=elapsed_ms,
            blockingSort=bool(sort_spec) and not winner.provides_sort,
            rejectedPlans=[c.describe() for c in result.rejected],
        )
        if verbosity == "allPlansExecution":
            out["allPlansExecution"] = [
                dict(c.describe(), winner=(i == 0))
                for i, c in enumerate([winner] + list(result.rejected))
            ]
        return out

    def _read(self, op: str, query: Mapping[str, Any], matcher: Matcher,
              projection: Any, each: Callable[[dict, int], dict],
              default_hint: Optional[str] = None, sort: Any = None,
              skip: int = 0, limit: Optional[int] = None,
              hint: Optional[str] = None) -> List[dict]:
        """The one read helper behind ``find``, ``find_one``,
        ``count_documents`` and :meth:`_find_stored`: listed
        in ``current_op()`` as ``op``, planned and scanned through
        ``_select`` under the read lock, ``each(stored_doc, position)`` per
        survivor, reported to the instrumentation funnel.  The verbs differ
        only in ``each``; ``projection`` is passed to the planner, which
        may cover it from index keys."""
        with self._op(op, "command" if op == "count" else "query",
                      query) as active, self._lock.read():
            docs = [each(doc, pos) for doc, pos in self._select(
                query, matcher, active, sort, skip, limit,
                hint if hint is not None else default_hint, projection)]
            active.nreturned = len(docs)
        return docs

    def _cursor(self, op: str, query: Any, projection: Any, hint: Any,
                each: Optional[Callable[[dict, int], dict]] = None) -> Cursor:
        """A lazy :meth:`_read` whose sort, skip, limit and hint the cursor
        chains.  The query and the projection (when ``each`` is not given)
        compile now, so a malformed one fails here."""
        query = query or {}
        return Cursor(partial(self._read, op, query, compile_query(query),
                              projection, each or _projected(projection), hint))

    def find(
        self,
        query: Optional[Mapping[str, Any]] = None,
        projection: Optional[Mapping[str, Any]] = None,
        hint: Optional[str] = None,
    ) -> Cursor:
        """Return a lazy cursor over private copies of matching documents.

        Planning happens when the cursor executes, so a chained ``.sort``
        participates: the planner may pick an index that yields the sort
        order (no blocking sort) or answer a projection-only query from
        index keys alone (covered query).  ``hint`` forces an index by
        name (``"$natural"`` forces a collection scan).
        """
        return self._cursor("find", query, projection, hint)

    def _find_stored(self, query: Any = None, projection: Any = None,
                     hint: Optional[str] = None, op: str = "find") -> Cursor:
        """``find`` minus the copy: the stored documents themselves (a
        projection still builds new dicts), for a reader that never
        mutates them — the wire server, which encodes after the lock.
        Without a projection every document returned also has its JSON
        text in the fragment cache, for :meth:`_json_of`."""
        return self._cursor(op, query, projection, hint,
                            None if projection else self._with_fragment)

    def _with_fragment(self, doc: dict, pos: int) -> dict:
        """``each`` of an unprojected :meth:`_find_stored`: ``doc`` itself,
        its fragment encoded now unless the cache holds it already.  Runs
        under the read lock, so ``doc`` is what ``_docs[pos]`` holds;
        concurrent readers that both miss store equal pairs."""
        entry = self._fragments.get(pos)
        if entry is None or entry[0] is not doc:
            self._fragments[pos] = (doc, _encode(doc))
        return doc

    def _json_of(self, docs: Iterable[dict]) -> List[bytes]:
        """The JSON text of each stored document in ``docs``, taken from the
        fragment cache when the entry at its position holds that very dict,
        else encoded now.  Needs no lock: stored dicts are immutable and a
        pair is only ever replaced whole, so the identity test alone keeps
        an outdated fragment from being served."""
        fragments, id_to_pos, id_key = (
            self._fragments, self._id_to_pos, self._id_key)
        out = []
        for doc in docs:
            entry = fragments.get(id_to_pos.get(id_key(doc["_id"])))
            out.append(entry[1] if entry is not None and entry[0] is doc
                       else _encode(doc))
        return out

    def find_one(
        self,
        query: Optional[Mapping[str, Any]] = None,
        projection: Optional[Mapping[str, Any]] = None,
    ) -> Optional[dict]:
        """First matching document or None."""
        query = query or {}
        found = self._read("findOne", query, compile_query(query), projection,
                           _projected(projection), limit=1)
        return found[0] if found else None

    def count_documents(self, query: Optional[Mapping[str, Any]] = None) -> int:
        if query:
            return len(self._read("count", query, compile_query(query), None,
                                  _as_stored))
        with self._op("count", "command", {}) as active:
            n = active.nreturned = len(self._docs)
        return n

    def distinct(
        self, field: str, query: Optional[Mapping[str, Any]] = None
    ) -> List[Any]:
        """Distinct values of ``field`` over the documents matching
        ``query``: a ``distinct`` command of its own, whose ``nreturned``
        is the number of values."""
        query = query or {}
        matcher = compile_query(query)
        with self._op("distinct", "command", query) as active:
            with self._lock.read():
                docs = [doc for doc, _pos in self._select(query, matcher, active)]
            values = [deep_copy_doc(v) for v in distinct_values(docs, field)]
            active.nreturned = len(values)
        return values

    # -- updates ------------------------------------------------------------

    def update_one(
        self,
        query: Mapping[str, Any],
        update: Mapping[str, Any],
        upsert: bool = False,
    ) -> UpdateResult:
        return self._update(query, update, multi=False, upsert=upsert)

    def update_many(
        self,
        query: Mapping[str, Any],
        update: Mapping[str, Any],
        upsert: bool = False,
    ) -> UpdateResult:
        return self._update(query, update, multi=True, upsert=upsert)

    def replace_one(
        self,
        query: Mapping[str, Any],
        replacement: Mapping[str, Any],
        upsert: bool = False,
    ) -> UpdateResult:
        if is_operator_update(replacement):
            raise DocstoreError("replace_one requires a plain document")
        return self._update(query, replacement, multi=False, upsert=upsert)

    def _update(
        self,
        query: Mapping[str, Any],
        update: Mapping[str, Any],
        multi: bool,
        upsert: bool,
    ) -> UpdateResult:
        matcher = compile_query(query)
        is_operator_update(update)  # validates mixing eagerly
        matched = modified = 0
        upserted_id = None
        with self._op("update", "update", query) as active, self._lock.write():
            for pos in self._matched_positions(query, matcher, multi, active):
                matched += 1
                if self._apply_to_position(pos, update):
                    modified += 1
            if matched == 0 and upsert:
                upserted_id = self._insert(self._build_upsert_doc(query, update))
            active.nreturned = matched
        return UpdateResult(matched, modified, upserted_id)

    def _apply_to_position(self, pos: int, update: Mapping[str, Any]) -> bool:
        old = self._docs[pos]
        new = deep_copy_doc(old)
        apply_update(new, update)
        validate_document(new)
        if new.get("_id") != old.get("_id"):
            raise DocstoreError("update cannot change _id")
        if new == old:
            return False
        self._indexes.remove_document(pos, old)
        try:
            self._indexes.add_document(pos, new)
        except DuplicateKeyError:
            self._indexes.add_document(pos, old)  # restore
            raise
        self._docs[pos] = new
        self._fragments.pop(pos, None)
        self._notify(
            "update",
            {"ns": self.name, "_id": new.get("_id"), "doc": deep_copy_doc(new)},
        )
        return True

    @staticmethod
    def _build_upsert_doc(
        query: Mapping[str, Any], update: Mapping[str, Any]
    ) -> dict:
        base: dict = {}
        # Seed with equality conditions from the query, like Mongo upserts.
        for field, cond in query.items():
            if field.startswith("$"):
                continue
            if isinstance(cond, Mapping) and any(
                str(k).startswith("$") for k in cond
            ):
                if "$eq" in cond:
                    set_path(base, field, deep_copy_doc(cond["$eq"]))
                continue
            set_path(base, field, deep_copy_doc(cond))
        if is_operator_update(update):
            apply_update(base, update, is_insert=True)
        else:
            preserved_id = base.get("_id")
            base = deep_copy_doc(dict(update))
            if preserved_id is not None and "_id" not in base:
                base["_id"] = preserved_id
        return base

    def find_one_and_update(
        self,
        query: Mapping[str, Any],
        update: Mapping[str, Any],
        sort: Optional[List[tuple]] = None,
        return_document: str = "before",
        upsert: bool = False,
        projection: Optional[Mapping[str, Any]] = None,
    ) -> Optional[dict]:
        """Atomically find one document and update it.

        This is the task-queue primitive: the launcher calls it with a
        "runnable job" query and a ``{"$set": {"state": "RUNNING", ...}}``
        update; under the collection lock no other launcher can claim the
        same document.  ``return_document`` is ``"before"`` or ``"after"``.
        """
        if return_document not in ("before", "after"):
            raise DocstoreError("return_document must be 'before' or 'after'")
        matcher = compile_query(query)
        project = compile_projection(projection)
        with self._op("findAndModify", "update",
                      query) as active, self._lock.write():
            hits = list(self._select(query, matcher, active, sort=sort, limit=1))
            if not hits:
                if not upsert:
                    return None
                active.nreturned = 1
                new_id = self._insert(self._build_upsert_doc(query, update))
                if return_document == "after":
                    return self.find_one({"_id": new_id}, projection)
                return None
            active.nreturned = 1
            stored, pos = hits[0]
            # The update swaps a new dict in, so ``stored`` stays the before.
            self._apply_to_position(pos, update)
            return project(stored if return_document == "before"
                           else self._docs[pos])

    def find_one_and_delete(
        self,
        query: Mapping[str, Any],
        sort: Optional[List[tuple]] = None,
    ) -> Optional[dict]:
        """Atomically find one matching document and remove it."""
        matcher = compile_query(query)
        with self._op("findAndModify", "delete",
                      query) as active, self._lock.write():
            hits = list(self._select(query, matcher, active, sort=sort, limit=1))
            if not hits:
                return None
            target = hits[0][0]
            self._delete_by_id(target["_id"])
            active.nreturned = 1
            return deep_copy_doc(target)

    # -- deletes -------------------------------------------------------------

    def delete_one(self, query: Mapping[str, Any]) -> DeleteResult:
        return self._delete(query, multi=False)

    def delete_many(self, query: Optional[Mapping[str, Any]] = None) -> DeleteResult:
        return self._delete(query or {}, multi=True)

    def _delete(self, query: Mapping[str, Any], multi: bool) -> DeleteResult:
        matcher = compile_query(query)
        with self._op("delete", "delete", query) as active, self._lock.write():
            ids = [self._docs[pos]["_id"] for pos in
                   self._matched_positions(query, matcher, multi, active)]
            for _id in ids:
                self._delete_by_id(_id)
            active.nreturned = len(ids)
        return DeleteResult(len(ids))

    def _delete_by_id(self, _id: Any) -> None:
        key = self._id_key(_id)
        pos = self._id_to_pos.pop(key, None)
        if pos is None:
            return
        doc = self._docs.pop(pos)
        self._fragments.pop(pos, None)
        self._indexes.remove_document(pos, doc)
        self._notify("delete", {"ns": self.name, "_id": _id})

    def drop(self) -> None:
        """Remove all documents and indexes."""
        with self._lock.write():
            self._docs.clear()
            self._fragments.clear()
            self._id_to_pos.clear()
            for name in self._indexes.names():
                self._indexes.drop(name)
            self._next_pos = 0
        self._notify("drop", {"ns": self.name})

    # -- indexes ---------------------------------------------------------------

    def create_index(
        self, keys: Any, unique: bool = False, name: Optional[str] = None,
        expire_after_seconds: Optional[float] = None
    ) -> str:
        """Create (and bulk-backfill) an index; returns its name.

        ``keys`` accepts a bare field name or a compound spec like
        ``[("formula", 1), ("e_above_hull", -1)]``.  Re-creating an index
        with an identical spec is a no-op; reusing a name for a different
        spec is an error.  Creating or dropping an index invalidates the
        collection's plan cache.

        ``expire_after_seconds`` marks the index as a TTL index: documents
        whose *first* indexed field holds an epoch-seconds number older
        than ``now - expire_after_seconds`` are removed by
        :meth:`reap_expired` (usually driven by the store's background
        reaper).  Unlike MongoDB's date-typed TTL, expiry here follows the
        repo's ``ts``-as-epoch-float convention; non-numeric values never
        expire (type-bracketed ``$lt``).
        """
        spec = normalize_index_spec(keys)
        index_name = name or default_index_name(spec)
        ttl = (
            float(expire_after_seconds)
            if expire_after_seconds is not None else None
        )
        with self._lock.write():
            existing = self._indexes.get(index_name)
            if existing is not None:
                if (existing.keys == spec and existing.unique == unique
                        and existing.expire_after_seconds == ttl):
                    return index_name
                raise DocstoreError(
                    f"index {index_name!r} already exists with a "
                    "different spec"
                )
            index = self._indexes.create(spec, unique=unique, name=index_name,
                                         expire_after_seconds=ttl)
            try:
                index.build(sorted(self._docs.items()))
            except DocstoreError:
                self._indexes.drop(index.name)
                raise
            with self._usage_lock:
                self._index_usage.setdefault(
                    index.name, {"ops": 0, "since": time.time()}
                )
            self._planner.invalidate()
            return index.name

    def drop_index(self, name: str) -> None:
        with self._lock.write():
            self._indexes.drop(name)
            with self._usage_lock:
                self._index_usage.pop(name, None)
            self._planner.invalidate()

    def index_information(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for ix in self._indexes.all():
            info = {
                "field": ix.field,
                "key": [list(k) for k in ix.keys],
                "unique": ix.unique,
                "entries": len(ix),
            }
            if ix.expire_after_seconds is not None:
                info["expireAfterSeconds"] = ix.expire_after_seconds
            out[ix.name] = info
        return out

    # -- TTL retention ---------------------------------------------------------

    def ttl_info(self) -> List[dict]:
        """The collection's TTL indexes as ``{name, field,
        expire_after_seconds}`` rows (empty for most collections — the
        store's reaper uses this to skip them cheaply)."""
        with self._lock.read():
            return [
                {
                    "name": ix.name,
                    "field": ix.field,
                    "expire_after_seconds": ix.expire_after_seconds,
                }
                for ix in self._indexes.ttl_indexes()
            ]

    def reap_expired(self, now: Optional[float] = None) -> int:
        """Delete documents past every TTL index's retention window.

        Expiry goes through the normal :meth:`delete_many` path, so change
        streams, replication, and the journal all observe the deletes —
        TTL is a real engine feature, not a storage-side vacuum.  Returns
        the number of documents removed.
        """
        ttl = self.ttl_info()
        if not ttl:
            return 0
        if now is None:
            now = time.time()
        removed = 0
        for info in ttl:
            cutoff = now - info["expire_after_seconds"]
            # Type-bracketed $lt: only numeric (epoch-seconds) values can
            # expire; strings/dates-as-strings are left alone.
            result = self.delete_many({info["field"]: {"$lt": cutoff}})
            removed += result.deleted_count
        return removed

    def index_stats(self) -> List[dict]:
        """``$indexStats``-style usage accounting, one document per index.

        ``accesses.ops`` counts queries the planner answered with the
        index — equality/range probes, sort-only consultations, and
        covered reads alike; ``accesses.since`` is when counting began.
        An index with zero ops since creation is a drop candidate — the
        advisor's :meth:`~repro.obs.advisor.IndexAdvisor.unused_indexes`
        reads this.
        """
        with self._lock.read(), self._usage_lock:
            return [
                {
                    "name": ix.name,
                    "field": ix.field,
                    "key": [list(k) for k in ix.keys],
                    "unique": ix.unique,
                    "entries": len(ix),
                    "accesses": dict(self._index_usage.get(
                        ix.name, {"ops": 0, "since": None}
                    )),
                }
                for ix in self._indexes.all()
            ]

    def plan_cache_stats(self) -> dict:
        """Hit/miss/evict/invalidate/replan counters for the plan cache."""
        return self._planner.cache.stats()

    @property
    def last_plan(self) -> Optional[QueryPlan]:
        """Plan chosen by this thread's most recent query.

        Per-thread on purpose: under the shared lock mode several readers
        plan queries simultaneously, and each must see its own plan.
        """
        return getattr(self._plan_local, "plan", None)

    # -- bulk writes -------------------------------------------------------------

    def bulk_write(
        self,
        operations: List[Mapping[str, Any]],
        ordered: bool = True,
    ) -> BulkWriteResult:
        """Execute a batch of write operations (pymongo-style op docs).

        Each operation is a single-key document naming the op::

            {"insert_one": {"document": {...}}}
            {"update_one": {"filter": {...}, "update": {...}, "upsert": bool}}
            {"update_many": {...}}  {"replace_one": {...}}
            {"delete_one": {"filter": {...}}}  {"delete_many": {...}}

        With ``ordered=True`` (default) execution stops at the first error,
        matching MongoDB; the partial result is attached to the raised
        exception as ``partial_result``.
        """
        inserted = matched = modified = deleted = 0
        for i, op_doc in enumerate(operations):
            if not isinstance(op_doc, Mapping) or len(op_doc) != 1:
                raise DocstoreError(
                    f"bulk op {i} must be a single-key document"
                )
            name, spec = next(iter(op_doc.items()))
            try:
                if name == "insert_one":
                    self.insert_one(spec["document"])
                    inserted += 1
                elif name in ("update_one", "update_many"):
                    fn = self.update_one if name == "update_one" else self.update_many
                    r = fn(spec["filter"], spec["update"],
                           upsert=spec.get("upsert", False))
                    matched += r.matched_count
                    modified += r.modified_count
                    if r.upserted_id is not None:
                        inserted += 1
                elif name == "replace_one":
                    r = self.replace_one(spec["filter"], spec["replacement"],
                                         upsert=spec.get("upsert", False))
                    matched += r.matched_count
                    modified += r.modified_count
                    if r.upserted_id is not None:
                        inserted += 1
                elif name == "delete_one":
                    deleted += self.delete_one(spec["filter"]).deleted_count
                elif name == "delete_many":
                    deleted += self.delete_many(spec.get("filter", {})).deleted_count
                else:
                    raise DocstoreError(f"unknown bulk op {name!r}")
            except DocstoreError as exc:
                if ordered:
                    exc.partial_result = BulkWriteResult(  # type: ignore[attr-defined]
                        inserted, matched, modified, deleted
                    )
                    raise
                # unordered: skip the failing op, keep going
                continue
        return BulkWriteResult(inserted, matched, modified, deleted)

    def watch(self, max_buffer: int = 10_000):
        """Open a change stream over this collection."""
        from .changestream import ChangeStream

        return ChangeStream(self, max_buffer=max_buffer)

    # -- aggregation & misc -----------------------------------------------------

    def aggregate(self, pipeline: List[Mapping[str, Any]],
                  explain: bool = False) -> Any:
        """Run an aggregation pipeline (see :mod:`repro.docstore.aggregation`).

        A leading ``$match`` is planned and executed through ``_select``
        like a ``find`` (indexes, plan cache, ``killOp`` per candidate);
        without one every document is selected.  The selected stored
        documents go to the remaining stages in insertion order, outside
        the lock — stored documents are immutable and the stages copy what
        they write — and only the rows returned are deep-copied.  The op
        is listed in ``current_op()`` while it runs.

        With ``explain=True`` the pipeline still runs, but the return
        value is an ``executionStats``-style report instead of the result
        documents: one record per stage (``docs_in``/``docs_out``/
        ``elapsed_ms``, plus ``state_size`` for ``$group``/``$sort``),
        with ``nReturned`` and ``executionTimeMillis`` totals.  It is led
        by a synthetic ``$cursor`` stage reporting the plan
        (``planSummary``, ``docsExamined``, ``keysExamined``; ``docs_in``
        examined, ``docs_out`` matched).  An absorbed leading ``$match``
        keeps its own record with the same counts and no elapsed time of
        its own.  The per-stage records also ride into ``system.profile``
        for slow pipelines, where the advisor mines them.
        """
        from .aggregation import pipeline_stage_names, run_pipeline

        head = pipeline[0] if isinstance(pipeline, list) and pipeline else None
        absorbed = isinstance(head, Mapping) and list(head) == ["$match"]
        query = head["$match"] if absorbed else {}
        matcher = compile_query(query)
        with self._op("aggregate", "command",
                      {"pipeline": pipeline}) as active:
            with self._lock.read():
                hits = sorted(self._select(query, matcher, active),
                              key=itemgetter(1))
            examined = active.docs_examined
            stage_stats: List[dict] = [{
                "stage": "$cursor", "docs_in": examined,
                "docs_out": len(hits),
                "elapsed_ms": (time.perf_counter() - active.started_s) * 1e3,
                "planSummary": active.plan_summary, "docsExamined": examined,
                "keysExamined": active.keys_examined,
            }]
            if absorbed:
                stage_stats.append({
                    "stage": "$match", "docs_in": examined,
                    "docs_out": len(hits), "elapsed_ms": 0.0,
                })
            out = run_pipeline([doc for doc, _pos in hits],
                               pipeline[1:] if absorbed else pipeline,
                               database=self.database,
                               stage_stats=stage_stats)
            if explain:
                active.report = None  # an explain is listed, never reported
                return {
                    "ns": self.namespace,
                    "pipeline": pipeline_stage_names(pipeline),
                    "stages": stage_stats,
                    "nReturned": len(out),
                    "executionTimeMillis":
                        (time.perf_counter() - active.started_s) * 1e3,
                }
            out = [deep_copy_doc(row) for row in out]
            active.nreturned = len(out)
            active.stages = stage_stats
            # The profile keeps the stage-name shape the advisor mines.
            active.query = {"pipeline": pipeline_stage_names(pipeline)}
        return out

    def map_reduce(
        self,
        mapper: Callable[[dict], Iterable[tuple]],
        reducer: Callable[[Any, List[Any]], Any],
        query: Optional[Mapping[str, Any]] = None,
        finalize: Optional[Callable[[Any, Any], Any]] = None,
    ) -> List[dict]:
        """Built-in single-threaded MapReduce (see :mod:`.mapreduce`) over
        the documents matching ``query``, selected inside the op under the
        read lock; the mapper, user code, gets copies.  Listed in
        ``current_op()``, killable while it selects and between documents,
        and reported once, as a ``command`` like ``aggregate``."""
        from .mapreduce import map_reduce

        query = query or {}
        matcher = compile_query(query)
        with self._op("mapreduce", "command", query) as active:
            with self._lock.read():
                docs = [deep_copy_doc(doc)
                        for doc, _pos in self._select(query, matcher, active)]
            rows = map_reduce(docs, mapper, reducer, finalize,
                              kill_check=active.check_killed).rows
            active.nreturned = len(rows)
        return rows

    def stats(self) -> dict:
        """Collection statistics (counts, sizes, index info).  Sizes are
        taken after the lock: the references stay valid snapshots."""
        with self._lock.read():
            docs = list(self._docs.values())
        sizes = [len(text) for text in self._json_of(docs)]
        total = sum(sizes)
        return {
            "ns": self.name,
            "count": len(sizes),
            "size": total,
            "avgObjSize": (total / len(sizes)) if sizes else 0.0,
            "nindexes": len(self._indexes.names()),
            "indexes": self.index_information(),
        }

    def all_documents(self) -> List[dict]:
        """Snapshot of every document (deep-copied)."""
        with self._lock.read():
            return [deep_copy_doc(self._docs[p]) for p in sorted(self._docs)]

    def lock_stats(self) -> dict:
        """Reader-writer lock accounting (acquires, cumulative wait time)."""
        return self._lock.stats()

    def lock_contention(self, limit: int = 10) -> List[dict]:
        """Top contended (waiter site, holder site) pairings on this
        collection's lock — see :meth:`RWLock.contention_report`."""
        return self._lock.contention_report(limit=limit)
