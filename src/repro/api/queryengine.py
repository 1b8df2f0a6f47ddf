"""The QueryEngine abstraction layer (§III-B4, §IV-D1).

"We have implemented an abstraction layer for queries and updates to our
main collections, implemented as a Python QueryEngine class.  This layer
allows us to install convenient aliases for deeply nested fields or change
the names of collections in a single central place ... Because all queries
go through the QueryEngine abstraction layer, all queries are sanitized and
cannot access the database directly."

Features reproduced:

* **field aliases** — ``"e_hull"`` can stand for ``"e_above_hull"``, or a
  deep path like ``"provenance.parameters.ENCUT"``; aliases apply inside
  criteria (including logical operators), projections, and sort specs;
* **collection aliases** — rename collections centrally;
* **sanitization** — ``$where`` and any non-allowlisted operator are
  rejected; result sizes are capped; callers never touch Collection objects;
* **query timing** — every call lands in a :class:`~repro.api.querylog.
  QueryLog` (Fig. 5's data source): as its own record, or folded into the
  record of the HTTP request that made it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..docstore.database import Database
from ..errors import APIError, QuerySyntaxError
from .querylog import QueryLog

__all__ = ["QueryEngine", "SAFE_OPERATORS"]

#: Query operators a web user may issue ($where notably absent).
SAFE_OPERATORS = frozenset(
    {
        "$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin",
        "$exists", "$all", "$size", "$elemMatch", "$not",
        "$and", "$or", "$nor", "$regex", "$options", "$type", "$mod",
    }
)


class QueryEngine:
    """Central, sanitizing gateway to the main collections."""

    def __init__(
        self,
        database: Database,
        aliases: Optional[Mapping[str, str]] = None,
        collection_aliases: Optional[Mapping[str, str]] = None,
        max_results: int = 1000,
        query_log: Optional[QueryLog] = None,
    ):
        self.db = database
        self.aliases: Dict[str, str] = dict(aliases or {})
        self.collection_aliases: Dict[str, str] = dict(collection_aliases or {})
        self.max_results = int(max_results)
        self.query_log = query_log if query_log is not None else QueryLog()

    # -- alias machinery -----------------------------------------------------

    def add_alias(self, alias: str, real_field: str) -> None:
        self.aliases[alias] = real_field

    def resolve_field(self, field: str) -> str:
        """Alias → real dotted path; alias may also prefix a deeper path."""
        if field in self.aliases:
            return self.aliases[field]
        # "alias.sub.path" resolves through the alias table too.
        head, _, rest = field.partition(".")
        if rest and head in self.aliases:
            return f"{self.aliases[head]}.{rest}"
        return field

    def resolve_collection(self, name: str) -> str:
        return self.collection_aliases.get(name, name)

    # -- sanitization -------------------------------------------------------------

    def _sanitize_and_translate(self, criteria: Any, _depth: int = 0) -> Any:
        if _depth > 16:
            raise APIError("query nesting too deep")
        if isinstance(criteria, Mapping):
            out: Dict[str, Any] = {}
            for key, value in criteria.items():
                if not isinstance(key, str):
                    raise APIError("query keys must be strings")
                if key.startswith("$"):
                    if key not in SAFE_OPERATORS:
                        raise APIError(f"operator {key!r} is not permitted")
                    if key in ("$and", "$or", "$nor"):
                        if not isinstance(value, list):
                            raise APIError(f"{key} requires a list")
                        out[key] = [
                            self._sanitize_and_translate(v, _depth + 1)
                            for v in value
                        ]
                    else:
                        out[key] = self._sanitize_and_translate(value, _depth + 1)
                else:
                    out[self.resolve_field(key)] = self._sanitize_and_translate(
                        value, _depth + 1
                    )
            return out
        if isinstance(criteria, list):
            return [self._sanitize_and_translate(v, _depth + 1) for v in criteria]
        if callable(criteria):
            raise APIError("callable values are not permitted in queries")
        return criteria

    # -- the read path -------------------------------------------------------------

    def query(
        self,
        criteria: Optional[Mapping[str, Any]] = None,
        properties: Optional[Sequence[str]] = None,
        collection: str = "materials",
        sort: Optional[Sequence[Tuple[str, int]]] = None,
        skip: int = 0,
        limit: int = 0,
        user: Optional[str] = None,
    ) -> List[dict]:
        """Sanitized, alias-translated, size-capped find."""
        real_name = self.resolve_collection(collection)
        coll = self.db.get_collection(real_name)
        translated = self._sanitize_and_translate(criteria or {})
        projection = None
        if properties:
            projection = {self.resolve_field(p): 1 for p in properties}
        effective_limit = min(limit or self.max_results, self.max_results)

        t0 = time.perf_counter()
        try:
            cursor = coll.find(translated, projection)
        except QuerySyntaxError as exc:
            raise APIError(f"bad query: {exc}") from exc
        if sort:
            cursor = cursor.sort(
                [(self.resolve_field(f), d) for f, d in sort]
            )
        if skip:
            cursor = cursor.skip(skip)
        docs = cursor.limit(effective_limit).to_list()
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self.query_log.record(
            real_name, elapsed_ms, len(docs), user=user,
            query_repr=repr(translated)[:200],
        )
        return docs

    def query_one(
        self,
        criteria: Optional[Mapping[str, Any]] = None,
        properties: Optional[Sequence[str]] = None,
        collection: str = "materials",
        user: Optional[str] = None,
    ) -> Optional[dict]:
        docs = self.query(criteria, properties, collection, limit=1, user=user)
        return docs[0] if docs else None

    def count(self, criteria: Optional[Mapping[str, Any]] = None,
              collection: str = "materials", user: Optional[str] = None) -> int:
        real_name = self.resolve_collection(collection)
        coll = self.db.get_collection(real_name)
        translated = self._sanitize_and_translate(criteria or {})
        t0 = time.perf_counter()
        n = coll.count_documents(translated)
        self.query_log.record(real_name, (time.perf_counter() - t0) * 1e3, 0,
                              user=user)
        return n

    def distinct(self, field: str, criteria: Optional[Mapping[str, Any]] = None,
                 collection: str = "materials", user: Optional[str] = None) -> List[Any]:
        real_name = self.resolve_collection(collection)
        coll = self.db.get_collection(real_name)
        translated = self._sanitize_and_translate(criteria or {})
        t0 = time.perf_counter()
        values = coll.distinct(self.resolve_field(field), translated)
        self.query_log.record(real_name, (time.perf_counter() - t0) * 1e3,
                              len(values), user=user)
        return values

    # -- the (restricted) write path --------------------------------------------------

    def update(
        self,
        criteria: Mapping[str, Any],
        update: Mapping[str, Any],
        collection: str = "materials",
    ) -> int:
        """Alias-translated update for internal builders (not web users)."""
        real_name = self.resolve_collection(collection)
        coll = self.db.get_collection(real_name)
        translated = self._sanitize_and_translate(criteria)
        translated_update: Dict[str, Any] = {}
        for op, clause in update.items():
            if not op.startswith("$"):
                raise APIError("QueryEngine.update requires operator updates")
            if not isinstance(clause, Mapping):
                raise APIError(f"{op} clause must be a mapping")
            translated_update[op] = {
                self.resolve_field(f): v for f, v in clause.items()
            }
        return coll.update_many(translated, translated_update).modified_count
