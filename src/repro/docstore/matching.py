"""Query predicate compiler implementing the MongoDB query language.

The paper leans on this language everywhere: the workflow engine selects
runnable jobs with queries like::

    {"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}

(§III-B2), the web back-end answers ad-hoc user queries over deeply nested
task documents, and the QueryEngine abstraction layer rewrites queries before
they reach the store.  A query document compiles to a :class:`Matcher`, a
callable predicate over documents, so a query parsed once can be evaluated
against many documents (the collection scan and the index subsystem both use
this).

Supported operators
-------------------
Comparison: ``$eq $ne $gt $gte $lt $lte $in $nin``
Logical:    ``$and $or $nor $not``
Element:    ``$exists $type``
Evaluation: ``$mod $regex $options $where``
Array:      ``$all $elemMatch $size``

Semantics follow MongoDB: a bare path/value pair matches either the value
itself or any element of an array at that path ("implicit $elemMatch" for
scalars); range operators use type bracketing (numbers only compare with
numbers, strings with strings); ``$ne``/``$nin`` match missing fields.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping, Sequence
from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..errors import QuerySyntaxError
from .documents import MISSING, get_path, get_path_multi
from .objectid import ObjectId

__all__ = [
    "Matcher", "compile_query", "type_rank", "ordering_key", "descending_key",
    "sort_documents", "compare_values",
]


# --------------------------------------------------------------------------
# BSON-like type ordering used for sorts and type bracketing.
# --------------------------------------------------------------------------

def type_rank(value: Any) -> int:
    """Rank of a value in the (simplified) BSON sort order.

    Null < numbers < strings < objects < arrays < bytes < ObjectId < bool.
    ``bool`` is checked before ``int`` because ``bool`` subclasses ``int``
    in Python but sorts separately in BSON.
    """
    if value is MISSING or value is None:
        return 0
    if isinstance(value, bool):
        return 70
    if isinstance(value, (int, float)):
        return 10
    if isinstance(value, str):
        return 20
    if isinstance(value, Mapping):
        return 30
    if isinstance(value, list):
        return 40
    if isinstance(value, bytes):
        return 50
    if isinstance(value, ObjectId):
        return 60
    return 90


def compare_values(a: Any, b: Any) -> int:
    """Three-way comparison in BSON sort order. Returns -1, 0 or 1."""
    ra, rb = type_rank(a), type_rank(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 0:
        # MISSING sorts before explicit null.
        ka = 0 if a is MISSING else 1
        kb = 0 if b is MISSING else 1
        return (ka > kb) - (ka < kb)
    if ra == 30:  # dicts: key/value pairs in field order (BSON's rule)
        items_a = list(a.items())
        items_b = list(b.items())
        for (ka, va), (kb, vb) in zip(items_a, items_b):
            if ka != kb:
                return -1 if ka < kb else 1
            c = compare_values(va, vb)
            if c:
                return c
        return (len(items_a) > len(items_b)) - (len(items_a) < len(items_b))
    if ra == 40:  # arrays element-wise
        for va, vb in zip(a, b):
            c = compare_values(va, vb)
            if c:
                return c
        return (len(a) > len(b)) - (len(a) < len(b))
    if ra == 60:
        a, b = a.binary, b.binary
    try:
        return (a > b) - (a < b)
    except TypeError:
        return 0


class ordering_key:
    """Adapter making any document value usable as a Python sort key."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "ordering_key") -> bool:
        return compare_values(self.value, other.value) < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ordering_key):
            return NotImplemented
        return compare_values(self.value, other.value) == 0

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return 0


class descending_key(ordering_key):
    """:class:`ordering_key` with the comparison inverted — the descending
    components of a tuple merge key (``heapq.merge`` takes no ``reverse``)."""

    __slots__ = ()

    def __lt__(self, other: "ordering_key") -> bool:
        return compare_values(other.value, self.value) < 0


def sort_documents(
    items: Iterable[Any],
    spec: Sequence[Tuple[str, int]],
    doc_of: Callable[[Any], Mapping[str, Any]] = lambda item: item,
) -> List[Any]:
    """The blocking sort: ``items`` ordered by ``[(field, direction), ...]``.

    One stable pass per sort field, least significant first, so ties keep
    their input order under either direction.  ``doc_of`` extracts the
    document when the items carry more than it (``(doc, pos)`` pairs).
    """
    out = list(items)
    for field, direction in reversed(list(spec)):
        out.sort(
            key=lambda item, _f=field: ordering_key(get_path(doc_of(item), _f)),
            reverse=direction == -1,
        )
    return out


# Names accepted by the $type operator, mapped to rank buckets.
_TYPE_NAMES: Dict[str, Callable[[Any], bool]] = {
    "null": lambda v: v is None,
    "double": lambda v: isinstance(v, float) and not isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "long": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, list),
    "binData": lambda v: isinstance(v, bytes),
    "objectId": lambda v: isinstance(v, ObjectId),
    "bool": lambda v: isinstance(v, bool),
}


def _values_equal(a: Any, b: Any) -> bool:
    """Mongo equality: the generic fallback and the tests' reference."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if type_rank(a) != type_rank(b):
        return False
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if len(a) != len(b):
            return False
        return all(k in b and _values_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    return a == b


Predicate = Callable[[Any], bool]

_OPERATORS = frozenset(
    {
        "$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin",
        "$exists", "$type", "$mod", "$regex", "$options", "$where",
        "$all", "$elemMatch", "$size", "$not",
    }
)

_LOGICAL = frozenset({"$and", "$or", "$nor"})


def _is_operator_doc(value: Any) -> bool:
    return (
        isinstance(value, Mapping)
        and len(value) > 0
        and all(isinstance(k, str) and k.startswith("$") for k in value)
    )


#: Range tests; ``$gte`` is ``not <`` and ``$lte`` ``not >``, so NaN answers
#: as under :func:`compare_values`.
_RANGE_CMP: Dict[str, Callable[[Any, Any], bool]] = {
    "$gt": operator.gt, "$gte": lambda v, x: not v < x,
    "$lt": operator.lt, "$lte": lambda v, x: not v > x,
}


def _bracketed_cmp(op: str, operand: Any) -> Predicate:
    """Range comparison with type bracketing (Mongo semantics); a number
    compares natively, anything else through :func:`compare_values`."""
    rank, cmp = type_rank(operand), _RANGE_CMP[op]
    if rank == 10:
        return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and cmp(v, operand)
    return lambda v: type_rank(v) == rank and cmp(compare_values(v, operand), 0)


def _compile_value_test(operand: Any) -> Predicate:
    """Equality test for bare values, $eq, $ne and non-scalar members: by
    operand type for strings, bools and numbers (bools apart from numbers,
    as in BSON), :func:`_values_equal` for the rest."""
    if isinstance(operand, re.Pattern):
        return lambda v: isinstance(v, str) and bool(operand.search(v))
    if isinstance(operand, str):
        return lambda v: isinstance(v, str) and v == operand
    if isinstance(operand, bool):
        return lambda v: v is operand
    if isinstance(operand, (int, float)):
        return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v == operand
    return lambda v: _values_equal(v, operand)


#: Types whose ``(is_bool, value)`` keys (``Cursor.distinct``'s buckets) are
#: equal exactly when :func:`_values_equal` says so, NaN aside.
_SET_SCALARS = (str, int, float, type(None))


def _member_keys(members: Iterable[Any]) -> Tuple[set, List[Any]]:
    """Split ``$in``/``$nin``/``$all`` members into the set-lookup keys of
    the scalar ones and the rest (documents, arrays, regexes, NaN, ...)."""
    keys: set = set()
    rest: List[Any] = []
    for m in members:
        if isinstance(m, _SET_SCALARS) and m == m:
            keys.add((isinstance(m, bool), m))
        else:
            rest.append(m)
    return keys, rest


def _any_member(op: str, members: Any) -> Predicate:
    """"Equals some member" of an ``$in``/``$nin`` array: one set lookup,
    then the generic tests."""
    if not isinstance(members, Sequence) or isinstance(members, (str, bytes)):
        raise QuerySyntaxError(f"{op} requires an array")
    keys, rest = _member_keys(members)
    tests = [_compile_value_test(m) for m in rest]
    return lambda v: ((isinstance(v, _SET_SCALARS) and (isinstance(v, bool), v) in keys)
                      or any(t(v) for t in tests))


def _compile_operator(field_ops: Mapping[str, Any]) -> Callable[[List[Any]], bool]:
    """Compile an operator document like ``{"$gte": 3, "$lt": 7}`` into a
    predicate over a field's candidate values (``[]`` when it is missing;
    only negative operators — $ne, $nin, $exists:false, $not — match that).
    """
    preds: List[Predicate] = []
    neg_preds: List[Predicate] = []
    negated: List[Callable[[List[Any]], bool]] = []  # $not {...}: all values
    all_keys: set = set()  # scalar $all members, one set lookup per document
    null_negative = False  # $ne null / $nin [... null]: missing must NOT match

    keys = set(field_ops)
    unknown = {k for k in keys if k not in _OPERATORS}
    if unknown:
        raise QuerySyntaxError(f"unknown query operator(s): {sorted(unknown)}")
    if "$options" in keys and "$regex" not in keys:
        raise QuerySyntaxError("$options requires $regex")

    positive = False
    for op, operand in field_ops.items():
        if op == "$eq":
            preds.append(_compile_value_test(operand))
            positive = True
        elif op in ("$gt", "$gte", "$lt", "$lte"):
            preds.append(_bracketed_cmp(op, operand))
            positive = True
        elif op == "$in":
            preds.append(_any_member(op, operand))
            positive = True
        elif op == "$ne":
            neg_preds.append(_compile_value_test(operand))
            if operand is None:
                # Mongo treats a missing field as null: {$ne: null} must
                # NOT match documents lacking the field.
                null_negative = True
        elif op == "$nin":
            neg_preds.append(_any_member(op, operand))
            if any(v is None for v in operand):
                null_negative = True
        elif op == "$exists":
            want = bool(operand)
            if want:
                preds.append(lambda v: True)
                positive = True
            else:
                neg_preds.append(lambda v: True)
        elif op == "$type":
            if isinstance(operand, str):
                names = [operand]
            elif isinstance(operand, list):
                names = operand
            else:
                raise QuerySyntaxError("$type requires a type name or list of names")
            tests = []
            for name in names:
                if name not in _TYPE_NAMES:
                    raise QuerySyntaxError(f"unknown $type name {name!r}")
                tests.append(_TYPE_NAMES[name])
            preds.append(lambda v, _t=tests: any(t(v) for t in _t))
            positive = True
        elif op == "$mod":
            if (
                not isinstance(operand, (list, tuple))
                or len(operand) != 2
                or isinstance(operand[0], bool)
                or not all(isinstance(x, (int, float)) for x in operand)
            ):
                raise QuerySyntaxError("$mod requires [divisor, remainder]")
            divisor, remainder = int(operand[0]), int(operand[1])
            if divisor == 0:
                raise QuerySyntaxError("$mod divisor cannot be 0")
            preds.append(
                lambda v: isinstance(v, (int, float))
                and not isinstance(v, bool)
                and int(v) % divisor == remainder
            )
            positive = True
        elif op == "$regex":
            flags = 0
            opts = field_ops.get("$options", "")
            if "i" in opts:
                flags |= re.IGNORECASE
            if "m" in opts:
                flags |= re.MULTILINE
            if "s" in opts:
                flags |= re.DOTALL
            if "x" in opts:
                flags |= re.VERBOSE
            if isinstance(operand, re.Pattern):
                pattern = operand
            elif isinstance(operand, str):
                try:
                    pattern = re.compile(operand, flags)
                except re.error as exc:
                    raise QuerySyntaxError(f"invalid $regex: {exc}") from exc
            else:
                raise QuerySyntaxError("$regex requires a string or pattern")
            preds.append(
                lambda v, _p=pattern: isinstance(v, str) and bool(_p.search(v))
            )
            positive = True
        elif op == "$options":
            continue
        elif op == "$where":
            if not callable(operand):
                raise QuerySyntaxError("$where requires a callable")
            # $where sees the whole document, handled at the field level by
            # the caller; here it would be ambiguous.
            raise QuerySyntaxError("$where is only valid at the top level")
        elif op == "$size":
            if isinstance(operand, bool) or not isinstance(operand, int):
                raise QuerySyntaxError("$size requires an integer")
            preds.append(lambda v, _n=operand: isinstance(v, list) and len(v) == _n)
            positive = True
        elif op == "$all":
            if not isinstance(operand, list):
                raise QuerySyntaxError("$all requires an array")
            # Each member must hold of some candidate value on its own: the
            # member test is bare equality ({f: {$all: [x]}} is {f: x}).
            keys, rest = _member_keys(operand)
            all_keys |= keys
            for member in rest:
                if _is_operator_doc(member) and "$elemMatch" in member:
                    inner = compile_query(member["$elemMatch"])
                    preds.append(
                        lambda v, _m=inner: isinstance(v, list)
                        and any(_m.matches(e) for e in v)
                    )
                else:
                    preds.append(_compile_value_test(member))
            positive = True
        elif op == "$elemMatch":
            if not isinstance(operand, Mapping):
                raise QuerySyntaxError("$elemMatch requires a document")
            if _is_operator_doc(operand):
                inner_pred = _compile_operator(operand)
                preds.append(
                    lambda v, _p=inner_pred: isinstance(v, list)
                    and any(_p([e]) for e in v)
                )
            else:
                inner = compile_query(operand)
                preds.append(
                    lambda v, _m=inner: isinstance(v, list)
                    and any(_m.matches(e) for e in v)
                )
            positive = True
        elif op == "$not":
            if isinstance(operand, re.Pattern):
                neg_preds.append(_compile_value_test(operand))
            elif _is_operator_doc(operand):
                negated.append(_compile_operator(operand))
            else:
                raise QuerySyntaxError("$not requires an operator document or regex")
        else:  # pragma: no cover - exhaustive
            raise QuerySyntaxError(f"unhandled operator {op}")

    def matches(values: List[Any]) -> bool:
        if any(sub(values) for sub in negated):
            return False
        if not values:
            return not positive and not null_negative
        # Each positive predicate must hold of at least one candidate value
        # (Mongo array fan-out); negatives must hold of none.
        for p in preds:
            if not any(p(v) for v in values):
                return False
        if all_keys and not all_keys <= {
                (isinstance(v, bool), v) for v in values
                if isinstance(v, _SET_SCALARS)}:
            return False
        return not any(np(v) for np in neg_preds for v in values)

    return matches


class Matcher:
    """A compiled query: call :meth:`matches` on candidate documents."""

    __slots__ = ("query", "_clauses", "_where")

    def __init__(self, query: Mapping[str, Any]):
        if not isinstance(query, Mapping):
            raise QuerySyntaxError("query must be a document")
        self.query = query
        self._clauses: List[Callable[[Any], bool]] = []
        self._where: List[Callable[[Any], bool]] = []
        for key, value in query.items():
            if key == "$where":
                if not callable(value):
                    raise QuerySyntaxError("$where requires a callable")
                self._where.append(value)
            elif key in _LOGICAL:
                self._clauses.append(self._compile_logical(key, value))
            elif key == "$not":
                raise QuerySyntaxError("$not is not valid at the top level")
            elif key.startswith("$"):
                raise QuerySyntaxError(f"unknown top-level operator {key!r}")
            else:
                self._clauses.append(self._compile_field(key, value))

    @staticmethod
    def _compile_logical(op: str, operand: Any) -> Callable[[Any], bool]:
        if not isinstance(operand, list) or not operand:
            raise QuerySyntaxError(f"{op} requires a non-empty array of queries")
        subs = [compile_query(q) for q in operand]
        if op == "$and":
            return lambda doc: all(m.matches(doc) for m in subs)
        if op == "$or":
            return lambda doc: any(m.matches(doc) for m in subs)
        return lambda doc: not any(m.matches(doc) for m in subs)

    @staticmethod
    def _compile_field(path: str, condition: Any) -> Callable[[Any], bool]:
        if _is_operator_doc(condition):
            value_pred = _compile_operator(condition)

            def field_op(doc: Any) -> bool:
                values = get_path_multi(doc, path)
                # Mongo array fan-out: operators may match the array value
                # itself ($size, whole-array compare) or any of its elements.
                expanded = list(values)
                for v in values:
                    if isinstance(v, list):
                        expanded.extend(v)
                return value_pred(expanded)

            return field_op
        # Bare value: equality against value or any array element.
        test = _compile_value_test(condition)

        def field_eq(doc: Any) -> bool:
            values = get_path_multi(doc, path)
            for v in values:
                if test(v):
                    return True
                if isinstance(v, list) and any(test(e) for e in v):
                    return True
            # {"a": null} also matches documents where a is missing.
            if condition is None and not values:
                return True
            return False

        return field_eq

    def matches(self, doc: Any) -> bool:
        """Return True if ``doc`` satisfies the query."""
        for clause in self._clauses:
            if not clause(doc):
                return False
        for fn in self._where:
            if not fn(doc):
                return False
        return True

    def __call__(self, doc: Any) -> bool:
        return self.matches(doc)

    def __repr__(self) -> str:
        return f"Matcher({self.query!r})"


def compile_query(query: Mapping[str, Any]) -> Matcher:
    """Compile a Mongo-style query document into a reusable :class:`Matcher`."""
    return Matcher(query)


# --------------------------------------------------------------------------
# Index predicate extraction (consumed by repro.docstore.planner).
# --------------------------------------------------------------------------

_INDEX_RANGE_OPS = frozenset({"$gt", "$gte", "$lt", "$lte"})
#: Operators that may ride alongside range bounds without invalidating the
#: index interval — the residual matcher enforces them on every candidate.
_RANGE_COMPANIONS = frozenset({"$ne", "$exists"})


class FieldPredicate:
    """The index-usable part of one field's query condition.

    ``kind`` classifies how an index component can serve the condition:

    * ``"eq"``     — a single point probe (``value``);
    * ``"in"``     — a union of point probes (``values``);
    * ``"range"``  — an interval (``bounds`` maps ``gt/gte/lt/lte``);
    * ``"all"``    — ``$all`` members (``values``; any one member is a
      valid superset probe, the matcher enforces the conjunction);
    * ``"opaque"`` — not index-usable (``$regex``, ``$ne`` alone, ...).

    Every candidate document is still verified by the full matcher, so a
    predicate only needs to describe a *superset* of the matching keys.
    """

    __slots__ = ("field", "kind", "value", "values", "bounds")

    def __init__(self, field: str, kind: str, value: Any = None,
                 values: Any = None, bounds: Any = None):
        self.field = field
        self.kind = kind
        self.value = value
        self.values = values
        self.bounds = bounds

    def __repr__(self) -> str:
        return f"FieldPredicate({self.field!r}, {self.kind})"


def _point_value(value: Any) -> bool:
    """Whether an index point probe for ``value`` finds all the matcher's
    equality accepts: not for a document (the matcher ignores field order),
    an array (a multikey index keys its elements) or a regex."""
    return not isinstance(value, (Mapping, list, re.Pattern))


def _classify_condition(field: str, condition: Any) -> FieldPredicate:
    if isinstance(condition, Mapping) and any(
        str(k).startswith("$") for k in condition
    ):
        ops = set(condition)
        if "$eq" in ops:
            kind = "eq" if _point_value(condition["$eq"]) else "opaque"
            return FieldPredicate(field, kind, value=condition["$eq"])
        if "$in" in ops and isinstance(condition["$in"], list):
            members = condition["$in"]
            if all(_point_value(m) for m in members):
                return FieldPredicate(field, "in", values=list(members))
            return FieldPredicate(field, "opaque")
        if ops & _INDEX_RANGE_OPS and not (
            ops - _INDEX_RANGE_OPS - _RANGE_COMPANIONS
        ):
            bounds = {op.lstrip("$"): condition[op]
                      for op in ops & _INDEX_RANGE_OPS}
            if all(b == b for b in bounds.values()):  # NaN bounds no interval
                return FieldPredicate(field, "range", bounds=bounds)
        if "$all" in ops and isinstance(condition["$all"], list):
            # Probe and filter by non-null, non-NaN point members only; the
            # matcher checks the rest.
            members = [m for m in condition["$all"]
                       if _point_value(m) and m is not None and m == m]
            if members:
                return FieldPredicate(field, "all", values=members)
        return FieldPredicate(field, "opaque")
    return FieldPredicate(field, "eq" if _point_value(condition) else "opaque",
                          value=condition)


def index_predicates(query: Mapping[str, Any]) -> Dict[str, FieldPredicate]:
    """Decompose ``query`` into per-field predicates for the planner.

    Only top-level field clauses participate; logical operators
    (``$and``/``$or``/...) and ``$where`` contribute nothing — documents
    selected through an index are always re-verified by the compiled
    matcher, so narrowing by any *conjunctive* top-level field clause is
    sound even when logical operators are present alongside it.
    """
    out: Dict[str, FieldPredicate] = {}
    for field, condition in query.items():
        if str(field).startswith("$"):
            continue
        out[field] = _classify_condition(field, condition)
    return out
