"""Secondary indexes: compound, ordered, direction-aware B-tree analogs.

MongoDB's good read performance "where most of the data fits into memory"
(§III-B) comes from B-tree indexes.  We implement an in-memory analog: each
index keeps a sorted list of ``(key_tuple, doc_position)`` entries maintained
with ``bisect``, giving O(log n) equality and range probes over any *prefix*
of the key — exactly the prefix-matching contract MongoDB compound indexes
offer.  Keys are ordered per-component: ``[("formula", 1),
("e_above_hull", -1)]`` stores entries ascending by formula and, within one
formula, descending by energy, so an index scan yields documents already in
that sort order (forward or reversed).

Plan *selection* lives in :mod:`repro.docstore.planner` — this module only
stores entries and answers bounded scans.  :class:`QueryPlan` (the
explain-style execution record) is defined here because both the planner
and the collection's read path share it.

Unique indexes enforce :class:`~repro.errors.DuplicateKeyError`, which the
workflow engine relies on for Binder-based duplicate job detection.
"""

from __future__ import annotations

import bisect
import itertools
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import DocstoreError, DuplicateKeyError
from .documents import MISSING, get_path_multi
from .matching import compare_values, type_rank
from .objectid import ObjectId

__all__ = [
    "Index",
    "IndexManager",
    "QueryPlan",
    "normalize_index_spec",
    "default_index_name",
]


def normalize_index_spec(spec: Any) -> List[Tuple[str, int]]:
    """Canonicalize an index key spec to ``[(field, direction), ...]``.

    Accepts everything ``create_index`` does in pymongo: a bare field name,
    a ``(field, direction)`` pair, a list mixing both forms, or a mapping
    ``{field: direction}``.  Directions must be ``1`` or ``-1``.
    """
    if isinstance(spec, str):
        items: List[Any] = [(spec, 1)]
    elif isinstance(spec, Mapping):
        items = list(spec.items())
    elif isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str) \
            and spec[1] in (1, -1):
        items = [spec]
    elif isinstance(spec, Iterable):
        items = list(spec)
    else:
        raise DocstoreError(f"invalid index spec {spec!r}")
    keys: List[Tuple[str, int]] = []
    for item in items:
        if isinstance(item, str):
            field, direction = item, 1
        else:
            try:
                field, direction = item
            except (TypeError, ValueError):
                raise DocstoreError(f"invalid index key {item!r}") from None
        if not isinstance(field, str) or not field:
            raise DocstoreError(f"index field must be a non-empty string: {field!r}")
        if direction not in (1, -1):
            raise DocstoreError(f"index direction must be 1 or -1: {direction!r}")
        keys.append((field, int(direction)))
    if not keys:
        raise DocstoreError("index spec must name at least one field")
    if len({f for f, _ in keys}) != len(keys):
        raise DocstoreError(f"duplicate field in index spec {spec!r}")
    return keys


def default_index_name(keys: Sequence[Tuple[str, int]]) -> str:
    """MongoDB-style default name: ``formula_1_e_above_hull_-1``."""
    return "_".join(f"{field}_{direction}" for field, direction in keys)


def _hashable(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool, bytes, ObjectId, type(None)))


#: Type ranks whose values compare correctly with native operators — the
#: scalar fast path that keeps bisect comparisons off ``compare_values``.
_NATIVE_RANKS = frozenset({10, 20, 50, 70})
#: NaN is neither above nor below any number, so its keys get a block of their
#: own just below the numbers; that keeps the index order total.
_NAN_RANK = 5


class _AscKey:
    """One ascending key component, ordered by BSON ``compare_values``.

    The type rank is computed once at construction; same-rank scalar
    comparisons then run natively, which is what makes bisect probes over
    large indexes cheap (``compare_values`` re-ranks both sides per call).
    """

    __slots__ = ("value", "rank", "fast")

    def __init__(self, value: Any):
        self.value = value
        self.rank = (_NAN_RANK if isinstance(value, float) and value != value
                     else type_rank(value))
        self.fast = self.rank in _NATIVE_RANKS

    def __lt__(self, other: Any) -> bool:
        if other is _MAX_KEY:
            return True
        if self.rank != other.rank:
            return self.rank < other.rank
        if self.fast:
            return self.value < other.value
        return compare_values(self.value, other.value) < 0

    def __eq__(self, other: Any) -> bool:
        if other is _MAX_KEY:
            return False
        if self.rank != other.rank:
            return False
        if self.fast:
            return self.value == other.value
        return compare_values(self.value, other.value) == 0


class _DescKey(_AscKey):
    """One descending key component: inverts the component order."""

    # Not matching.descending_key: the bisect hot loop needs the precomputed
    # type rank and the _MAX_KEY probe sentinel, which sort keys never see.

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        if other is _MAX_KEY:
            return True
        if self.rank != other.rank:
            return self.rank > other.rank
        if self.fast:
            return self.value > other.value
        return compare_values(self.value, other.value) > 0


class _MaxKey:
    """Probe sentinel greater than every stored component.

    Appending it to a probe tuple turns ``bisect_left`` into "first entry
    *after* everything sharing this prefix" — the closed upper end of a
    prefix block or inclusive range.
    """

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __eq__(self, other: Any) -> bool:
        return other is self


_MAX_KEY = _MaxKey()
#: "No bound supplied" marker distinct from MISSING (a legal bound value).
_ABSENT = object()


class Index:
    """A compound secondary index over a collection's documents.

    Positions are opaque integer slots assigned by the collection; the
    index maps ordered key tuples to positions.  A document whose indexed
    field is an array gets one entry per element ("multikey", matching
    Mongo); compound indexes reject documents with arrays on two or more
    components (MongoDB's parallel-array restriction).
    """

    def __init__(self, keys: Any, unique: bool = False,
                 name: Optional[str] = None,
                 expire_after_seconds: Optional[float] = None):
        self.keys: List[Tuple[str, int]] = normalize_index_spec(keys)
        self.fields: List[str] = [f for f, _ in self.keys]
        self.directions: List[int] = [d for _, d in self.keys]
        self.unique = unique
        if expire_after_seconds is not None:
            expire_after_seconds = float(expire_after_seconds)
            if expire_after_seconds < 0:
                raise DocstoreError(
                    "expire_after_seconds must be non-negative"
                )
        #: TTL retention: documents whose first indexed field holds an
        #: epoch-seconds number older than ``now - expire_after_seconds``
        #: are eligible for the reaper (None = no expiry).
        self.expire_after_seconds = expire_after_seconds
        self.name = name or default_index_name(self.keys)
        #: Sticky flag: True once any document contributed an array value.
        self.multikey = False
        # Sorted parallel arrays: wrapped sort keys, raw value tuples,
        # document positions.  Equal keys keep insertion order (bisect_right)
        # so unsorted index scans preserve FIFO claim semantics.
        self._entry_keys: List[Tuple[Any, ...]] = []
        self._entry_vals: List[Tuple[Any, ...]] = []
        self._positions: List[int] = []
        # Full-key-tuple hash buckets, insertion-ordered ``(values,
        # position)`` pairs: unique enforcement plus O(1) equality probes
        # (exact-key scans skip the bisect entirely).
        self._hash: Dict[Any, List[Tuple[Tuple[Any, ...], int]]] = {}
        self._entry_count = 0

    # -- compat -----------------------------------------------------------

    @property
    def field(self) -> str:
        """First key field (legacy single-field accessor)."""
        return self.fields[0]

    def __len__(self) -> int:
        return self._entry_count

    def __repr__(self) -> str:
        pattern = ", ".join(f"{f}: {d}" for f, d in self.keys)
        return f"Index({self.name!r}, {{ {pattern} }}, entries={len(self)})"

    # -- key extraction ----------------------------------------------------

    def _component_values(self, doc: Mapping[str, Any], field: str) -> Tuple[List[Any], bool]:
        raw = get_path_multi(doc, field)
        out: List[Any] = []
        saw_list = False
        for v in raw:
            if isinstance(v, list):
                saw_list = True
                out.extend(v)
            else:
                out.append(v)
        if not out:
            if saw_list:
                # An empty array still marks the index multikey but indexes
                # as "no value" — MongoDB stores undefined; MISSING is ours.
                out.append(MISSING)
            else:
                out.append(MISSING)
        return out, saw_list or len(raw) > 1

    def _index_tuples(self, doc: Mapping[str, Any]) -> List[Tuple[Any, ...]]:
        per_component: List[List[Any]] = []
        n_multi = 0
        for f in self.fields:
            values, is_multi = self._component_values(doc, f)
            if is_multi:
                self.multikey = True
            if len(values) > 1:
                n_multi += 1
            per_component.append(values)
        if n_multi > 1 and len(self.fields) > 1:
            raise DocstoreError(
                f"cannot index parallel arrays in compound index {self.name!r}"
            )
        return list(itertools.product(*per_component))

    def _make_key(self, values: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(
            _AscKey(v) if d == 1 else _DescKey(v)
            for v, d in zip(values, self.directions)
        )

    @staticmethod
    def _hash_key(value: Any) -> Any:
        if _hashable(value):
            return (type_rank(value), value)
        if value is MISSING:
            return ("__missing__",)
        # Unhashable (dict/list) keys hash by their repr bucket; equality
        # still verified by the matcher afterwards.
        return ("__repr__", repr(value))

    def _hash_key_tuple(self, values: Tuple[Any, ...]) -> Any:
        return tuple(self._hash_key(v) for v in values)

    # -- maintenance -------------------------------------------------------

    def add(self, position: int, doc: Mapping[str, Any]) -> None:
        tuples = self._index_tuples(doc)
        if self.unique:
            for t in tuples:
                if all(v is MISSING for v in t):
                    continue
                existing = self._hash.get(self._hash_key_tuple(t))
                if existing:
                    raise DuplicateKeyError(
                        f"duplicate key {t!r} for unique index {self.name!r}"
                    )
        for t in tuples:
            key = self._make_key(t)
            idx = bisect.bisect_right(self._entry_keys, key)
            self._entry_keys.insert(idx, key)
            self._entry_vals.insert(idx, t)
            self._positions.insert(idx, position)
            self._hash.setdefault(self._hash_key_tuple(t), []).append(
                (t, position)
            )
            self._entry_count += 1

    def remove(self, position: int, doc: Mapping[str, Any]) -> None:
        for t in self._index_tuples(doc):
            hk = self._hash_key_tuple(t)
            bucket = self._hash.get(hk)
            if bucket is not None:
                for i, (_vals, pos) in enumerate(bucket):
                    if pos == position:
                        del bucket[i]
                        break
                if not bucket:
                    del self._hash[hk]
            key = self._make_key(t)
            lo = bisect.bisect_left(self._entry_keys, key)
            hi = bisect.bisect_right(self._entry_keys, key, lo=lo)
            for i in range(lo, hi):
                if self._positions[i] == position:
                    del self._entry_keys[i]
                    del self._entry_vals[i]
                    del self._positions[i]
                    self._entry_count -= 1
                    break

    def build(self, items: Iterable[Tuple[int, Mapping[str, Any]]]) -> None:
        """Bulk-load an *empty* index: extract, uniqueness-check, sort once.

        O(n log n) instead of the O(n²) of repeated sorted inserts — this is
        what makes ``create_index`` on a 50k-document collection tractable.
        """
        staged: List[Tuple[Tuple[Any, ...], Tuple[Any, ...], int]] = []
        seen: Dict[Any, int] = {}
        for position, doc in items:
            tuples = self._index_tuples(doc)
            if self.unique:
                for t in tuples:
                    if all(v is MISSING for v in t):
                        continue
                    hk = self._hash_key_tuple(t)
                    prev = seen.get(hk)
                    if prev is not None and prev != position:
                        raise DuplicateKeyError(
                            f"duplicate key {t!r} for unique index {self.name!r}"
                        )
                    seen[hk] = position
            for t in tuples:
                staged.append((self._make_key(t), t, position))
        staged.sort(key=lambda entry: entry[0])
        self._entry_keys = [e[0] for e in staged]
        self._entry_vals = [e[1] for e in staged]
        self._positions = [e[2] for e in staged]
        self._hash = {}
        for _, t, position in staged:
            self._hash.setdefault(self._hash_key_tuple(t), []).append(
                (t, position)
            )
        self._entry_count = len(staged)

    # -- scans -------------------------------------------------------------

    def _point_bucket(
        self, prefix: Sequence[Any]
    ) -> Optional[List[Tuple[Tuple[Any, ...], int]]]:
        """The hash bucket for a full-key exact probe, or None when the
        probe must go through the bisect path.

        Only trustworthy for hashable scalar probes: unhashable values
        bucket by ``repr`` (which can split ``compare_values``-equal keys)
        and NaN never equals itself as a dict key.
        """
        if len(prefix) != len(self.fields):
            return None
        for v in prefix:
            if v is MISSING:
                continue
            if not _hashable(v):
                return None
            if isinstance(v, float) and v != v:  # NaN
                return None
        return self._hash.get(self._hash_key_tuple(tuple(prefix)), [])

    def _probe_range(
        self,
        prefix: Sequence[Any],
        bounds: Optional[Mapping[str, Any]],
    ) -> Tuple[int, int, int, Optional[int]]:
        """Resolve probes to entry offsets ``(lo, hi, n_prefix, want_rank)``."""
        n = len(prefix)
        lo_probe: List[Any] = [
            _AscKey(v) if self.directions[i] == 1 else _DescKey(v)
            for i, v in enumerate(prefix)
        ]
        hi_probe: List[Any] = list(lo_probe)
        want_rank: Optional[int] = None
        if bounds:
            direction = self.directions[n]
            low = bounds.get("gte", bounds.get("gt", _ABSENT))
            low_incl = "gte" in bounds
            high = bounds.get("lte", bounds.get("lt", _ABSENT))
            high_incl = "lte" in bounds
            for b in (low, high):
                if b is not _ABSENT:
                    want_rank = type_rank(b)
                    break
            # Map the value-space interval into stored space: a descending
            # component stores keys inverted, so the interval's ends swap.
            if direction == 1:
                start, start_incl, end, end_incl = low, low_incl, high, high_incl
            else:
                start, start_incl, end, end_incl = high, high_incl, low, low_incl
            wrap = _AscKey if direction == 1 else _DescKey
            if start is not _ABSENT:
                lo_probe.append(wrap(start))
                if not start_incl:
                    lo_probe.append(_MAX_KEY)
            if end is not _ABSENT:
                hi_probe.append(wrap(end))
                if end_incl:
                    hi_probe.append(_MAX_KEY)
            else:
                hi_probe.append(_MAX_KEY)
        else:
            hi_probe.append(_MAX_KEY)
        keys = self._entry_keys
        lo = bisect.bisect_left(keys, tuple(lo_probe))
        hi = bisect.bisect_left(keys, tuple(hi_probe), lo=lo)
        return lo, hi, n, want_rank

    def scan(
        self,
        prefix: Sequence[Any] = (),
        bounds: Optional[Mapping[str, Any]] = None,
        reverse: bool = False,
        skip: int = 0,
    ) -> Iterator[Tuple[Tuple[Any, ...], int]]:
        """Bounded scan yielding ``(raw_values, position)`` in key order.

        ``prefix`` pins leading components to exact values (``MISSING`` is a
        legal probe — the planner fans ``None`` out into ``None``/``MISSING``
        probes).  ``bounds`` optionally constrains the *next* component with
        ``gt/gte/lt/lte`` value-space limits; bounds are type-bracketed like
        MongoDB, so a numeric range never yields strings even when one side
        is open.  ``reverse=True`` walks the same entries backwards.
        ``skip`` passes over the first ``skip`` entries of the range (those
        :meth:`entry_count_in` counts) by offset, without visiting them.

        A full-key exact probe short-circuits to the hash bucket — O(1)
        instead of two bisects — which is the hot path for point lookups
        like ``{"material_id": "mp-1234"}`` on its index.
        """
        if not bounds:
            bucket = self._point_bucket(prefix)
            if bucket is not None:
                yield from itertools.islice(
                    reversed(bucket) if reverse else bucket, skip, None)
                return
        lo, hi, n, want_rank = self._probe_range(prefix, bounds)
        indices = (range(hi - 1 - skip, lo - 1, -1) if reverse
                   else range(lo + skip, hi))
        if bounds and "gte" in bounds and want_rank == 10:
            # NaN is $gte every number (compare_values calls them equal), and
            # its block lies outside the interval: scan it too.
            nan_lo, nan_hi, _, _ = self._probe_range(tuple(prefix) + (float("nan"),), None)
            indices = itertools.chain(indices, range(nan_lo, nan_hi))
        vals = self._entry_vals
        positions = self._positions
        for i in indices:
            row = vals[i]
            if want_rank is not None and type_rank(row[n]) != want_rank:
                continue
            yield row, positions[i]

    def entry_count_in(
        self,
        prefix: Sequence[Any] = (),
        bounds: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Entries a :meth:`scan` with these probes would visit (before
        type-bracket filtering) — an O(log n) selectivity estimate."""
        if not bounds:
            bucket = self._point_bucket(prefix)
            if bucket is not None:
                return len(bucket)
        lo, hi, _, _ = self._probe_range(prefix, bounds)
        return hi - lo


class QueryPlan:
    """Explain-style record of how a query was (or would be) executed."""

    __slots__ = (
        "kind",
        "index_name",
        "candidates_examined",
        "keys_examined",
        "n_returned",
        "provides_sort",
        "covered",
        "key_pattern",
        "rejected",
        "cache",
        "all_probe",
        "all_filters",
    )

    def __init__(
        self,
        kind: str,
        index_name: Optional[str],
        candidates: int,
        keys_examined: int = 0,
        n_returned: int = 0,
        provides_sort: bool = False,
        covered: bool = False,
        key_pattern: Optional[List[Tuple[str, int]]] = None,
        rejected: Optional[List[dict]] = None,
        cache: str = "none",
        all_probe: Any = None,
        all_filters: int = 0,
    ):
        self.kind = kind  # "COLLSCAN" | "IXSCAN" | "IDHACK"
        self.index_name = index_name
        self.candidates_examined = candidates  # documents fetched & tested
        self.keys_examined = keys_examined
        self.n_returned = n_returned
        self.provides_sort = provides_sort
        self.covered = covered
        self.key_pattern = key_pattern
        self.rejected = rejected or []
        self.cache = cache  # "none" | "hit" | "miss"
        self.all_probe = all_probe  # the $all member an IXSCAN probed
        self.all_filters = all_filters  # $all members filtering its entries

    @property
    def summary(self) -> str:
        """MongoDB-style planSummary string (``IXSCAN { a: 1, b: -1 }``)."""
        if self.kind == "IXSCAN" and self.key_pattern:
            pattern = ", ".join(f"{f}: {d}" for f, d in self.key_pattern)
            return f"IXSCAN {{ {pattern} }}"
        return self.kind

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.kind,
            "index": self.index_name,
            "docsExamined": self.candidates_examined,
            "keysExamined": self.keys_examined,
            "nReturned": self.n_returned,
            "planSummary": self.summary,
            "providesSort": self.provides_sort,
            "covered": self.covered,
            "keyPattern": [list(k) for k in self.key_pattern] if self.key_pattern else None,
            "allProbe": self.all_probe,
            "allFilters": self.all_filters,
        }

    def __repr__(self) -> str:
        return (
            f"QueryPlan({self.kind}, index={self.index_name}, "
            f"examined={self.candidates_examined})"
        )


class IndexManager:
    """Owns a collection's indexes; plan selection lives in the planner."""

    def __init__(self) -> None:
        self._indexes: Dict[str, Index] = {}

    def create(self, keys: Any, unique: bool = False,
               name: Optional[str] = None,
               expire_after_seconds: Optional[float] = None) -> Index:
        index = Index(keys, unique=unique, name=name,
                      expire_after_seconds=expire_after_seconds)
        self._indexes[index.name] = index
        return index

    def ttl_indexes(self) -> List[Index]:
        """Indexes carrying an ``expire_after_seconds`` retention policy."""
        return [
            ix for ix in self._indexes.values()
            if ix.expire_after_seconds is not None
        ]

    def drop(self, name: str) -> None:
        self._indexes.pop(name, None)

    def get(self, name: str) -> Optional[Index]:
        return self._indexes.get(name)

    def names(self) -> List[str]:
        return sorted(self._indexes)

    def all(self) -> List[Index]:
        return list(self._indexes.values())

    def add_document(self, position: int, doc: Mapping[str, Any]) -> None:
        added: List[Index] = []
        try:
            for index in self._indexes.values():
                index.add(position, doc)
                added.append(index)
        except DocstoreError:
            # DuplicateKeyError or the compound parallel-array restriction:
            # undo the partial adds so no index holds a phantom entry.
            for index in added:
                index.remove(position, doc)
            raise

    def remove_document(self, position: int, doc: Mapping[str, Any]) -> None:
        for index in self._indexes.values():
            index.remove(position, doc)
