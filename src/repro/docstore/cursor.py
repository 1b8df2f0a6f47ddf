"""Cursors: lazy result sets with sort / skip / limit / projection.

The web back-end (§III-D) pages through result sets and projects deeply
nested fields out of large task documents; projections are also how the
QueryEngine keeps API payloads small.  Cursors are lazy — the underlying
find() does no work until iteration starts — so a query that is immediately
``.limit(1)``-ed after an index probe touches very few documents.

A projection compiles once per query (:func:`compile_projection`), as the
matcher does, so no document re-parses it.  A page with an empty filter,
planned as one scan of a non-multikey index in final order, skips on
index keys: its first ``skip`` entries are passed over by offset, never
fetched (``Collection._execute``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..errors import DocstoreError
from .aggregation import _group_key
from .documents import MISSING, deep_copy_doc, get_path, set_path, split_path, unset_path
from .matching import _values_equal

__all__ = ["Cursor", "compile_projection", "distinct_values", "parse_projection"]

_CONTAINERS = (dict, list, tuple)  # what deep_copy_doc copies


def distinct_values(docs: Iterable[Mapping[str, Any]], field: str) -> List[Any]:
    """Distinct values of ``field`` across ``docs`` (an array contributes
    its elements), first-seen order.  Values are bucketed by a hashable key
    (bools apart from numbers, as BSON has them) and confirmed by Mongo
    equality inside the bucket, so the cost is linear in the number of
    values."""
    distinct: List[Any] = []
    buckets: Dict[Any, List[Any]] = {}
    for doc in docs:
        value = get_path(doc, field)
        if value is MISSING:
            continue
        for v in value if isinstance(value, list) else [value]:
            bucket = buckets.setdefault((isinstance(v, bool), _group_key(v)), [])
            if not any(_values_equal(v, s) for s in bucket):
                bucket.append(v)
                distinct.append(v)
    return distinct


def parse_projection(projection: Mapping[str, Any]) -> Tuple[List[str], List[str], bool]:
    """``(included paths, excluded paths, keep _id)``, ``_id`` in neither
    list.  A flag other than 0/1, an empty path or component, or a mix of
    inclusion and exclusion raises :class:`DocstoreError`."""
    include: List[str] = []
    exclude: List[str] = []
    for field, flag in projection.items():
        if flag not in (0, 1):  # True and False are 1 and 0
            raise DocstoreError(f"projection value for {field!r} must be 0/1")
        split_path(field)
        if field != "_id":
            (include if flag else exclude).append(field)
    if include and exclude:
        raise DocstoreError("cannot mix inclusion and exclusion in a projection")
    return include, exclude, bool(projection.get("_id", 1))


def compile_projection(
    projection: Optional[Mapping[str, Any]],
) -> Callable[[Mapping[str, Any]], dict]:
    """The function applying ``projection`` to one document, as a new dict
    that shares nothing with it; a malformed projection raises here.

    Mongo rules: an inclusion whitelists dotted paths (keeping ``_id``
    unless ``_id: 0``), an exclusion removes paths, no projection copies
    the document.  A flat top-level inclusion, the paging shape, is one
    ``dict.get`` per pre-bound key; dotted paths and exclusions walk."""
    if not projection:
        return deep_copy_doc
    include, exclude, keep_id = parse_projection(projection)
    if not include:
        drop = exclude if keep_id else exclude + ["_id"]

        def project(doc: Mapping[str, Any]) -> dict:
            out = deep_copy_doc(doc)
            for path in drop:
                unset_path(out, path)
            return out
    elif any("." in f for f in include):
        def project(doc: Mapping[str, Any]) -> dict:
            out = {"_id": deep_copy_doc(doc["_id"])} if keep_id and "_id" in doc else {}
            for path in include:
                value = get_path(doc, path)
                if value is not MISSING:
                    set_path(out, path, deep_copy_doc(value))
            return out
    else:
        keys = tuple(include)

        def project(doc: Mapping[str, Any]) -> dict:
            out = {"_id": deep_copy_doc(doc["_id"])} if keep_id and "_id" in doc else {}
            for key in keys:
                value = doc.get(key, MISSING)
                if value is not MISSING:
                    out[key] = deep_copy_doc(value) if isinstance(value, _CONTAINERS) else value
            return out
    return project


class Cursor:
    """Lazy, chainable sort / skip / limit / hint builder over one ``find``.

    ``source`` is the collection's plan-and-execute callable, called as
    ``source(sort_spec, skip, limit, hint)`` and returning the final
    documents — ordered, cut and projected by the collection's one
    selection path, so the cursor itself touches no document.  Chaining
    and re-iterating re-executes the query, like re-running a cursor in
    the mongo shell.
    """

    def __init__(self, source: Callable[..., List[dict]]):
        self._source = source
        self._hint: Optional[str] = None
        self._sort_spec: List[tuple] = []
        self._skip = 0
        self._limit: Optional[int] = None

    # -- chainable modifiers ------------------------------------------------

    def sort(self, key_or_list: Any, direction: int = 1) -> "Cursor":
        """Sort by a field name or list of ``(field, direction)`` pairs."""
        if isinstance(key_or_list, str):
            spec = [(key_or_list, direction)]
        else:
            spec = [(f, d) for f, d in key_or_list]
        for field, d in spec:
            if d not in (1, -1):
                raise DocstoreError("sort direction must be 1 or -1")
            if not isinstance(field, str):
                raise DocstoreError("sort field must be a string")
        self._sort_spec = spec
        return self

    def skip(self, n: int) -> "Cursor":
        if n < 0:
            raise DocstoreError("skip must be non-negative")
        self._skip = n
        return self

    def limit(self, n: int) -> "Cursor":
        if n < 0:
            raise DocstoreError("limit must be non-negative")
        self._limit = n or None
        return self

    def batch_size(self, n: int) -> "Cursor":
        return self  # cosmetic parity with Mongo: one batch per execution

    def hint(self, index_name: str) -> "Cursor":
        """Bypass the query planner and force ``index_name``.

        ``"$natural"`` forces a collection scan.  Unknown index names raise
        :class:`~repro.errors.DocstoreError` when the cursor executes.
        """
        if not isinstance(index_name, str) or not index_name:
            raise DocstoreError("hint must be an index name string")
        self._hint = index_name
        return self

    # -- execution ----------------------------------------------------------

    def _execute(self) -> List[dict]:
        return self._source(
            self._sort_spec or None, self._skip, self._limit, self._hint
        )

    def __iter__(self) -> Iterator[dict]:
        return iter(self._execute())

    def __getitem__(self, index: int) -> dict:
        docs = self._execute()
        return docs[index]

    def count(self) -> int:
        """Number of documents the cursor would return (honors skip/limit)."""
        return len(self._execute())

    def to_list(self) -> List[dict]:
        """Materialize the full result list."""
        return self._execute()

    def first(self) -> Optional[dict]:
        """First document or None."""
        docs = self.limit(1)._execute() if self._limit is None else self._execute()
        return docs[0] if docs else None

    def distinct(self, field: str) -> List[Any]:
        """Distinct values of ``field`` across the result set, first-seen
        order (see :func:`distinct_values`)."""
        return distinct_values(self._execute(), field)
