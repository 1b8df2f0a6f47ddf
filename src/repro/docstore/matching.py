"""Query predicate compiler implementing the MongoDB query language.

The paper leans on this language everywhere: the workflow engine selects
runnable jobs with queries like::

    {"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}

(§III-B2), the web back-end answers ad-hoc user queries over deeply nested
task documents, and the QueryEngine abstraction layer rewrites queries before
they reach the store.  A query document compiles once to a :class:`Matcher`
that the collection scan and the index subsystem evaluate against many
documents.  Each field clause becomes an accessor, the path split once and
read with one ``dict.get`` per component, and an operand-typed test of one
value; only arrays fan out (:func:`_compile_field`).  The generic rules,
:func:`_values_equal` and :func:`compare_values`, are what the specialised
tests must agree with.

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

import re
from collections.abc import Mapping, Sequence
from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..errors import QuerySyntaxError
from .documents import MISSING, get_path, get_path_multi, split_path
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

#: A compiled field condition ``(one, many, if_missing)``: the tests of one value and of a
#: fanned-out candidate list (``many([v])`` is ``one(v)``), and the answer for a missing field.
_FieldTest = Tuple[Predicate, Callable[[List[Any]], bool], bool]

_OPERATORS = frozenset({
    "$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin", "$exists", "$type",
    "$mod", "$regex", "$options", "$where", "$all", "$elemMatch", "$size", "$not",
})

_LOGICAL = frozenset({"$and", "$or", "$nor"})


def _is_operator_doc(value: Any) -> bool:
    return isinstance(value, Mapping) and len(value) > 0 and all(
        isinstance(k, str) and k.startswith("$") for k in value)


_NUMBER = (int, float)  # and not bool: ``v.__class__ is not bool``

#: Number range tests by operator and bound; ``$gte`` is ``not <`` and
#: ``$lte`` ``not >``, so NaN answers as under :func:`compare_values`.
_NUMBER_RANGE: Dict[str, Callable[[Any], Predicate]] = {
    "$gt": lambda x: lambda v: isinstance(v, _NUMBER) and v.__class__ is not bool and v > x,
    "$gte": lambda x: lambda v: isinstance(v, _NUMBER) and v.__class__ is not bool and not v < x,
    "$lt": lambda x: lambda v: isinstance(v, _NUMBER) and v.__class__ is not bool and v < x,
    "$lte": lambda x: lambda v: isinstance(v, _NUMBER) and v.__class__ is not bool and not v > x,
}

_REGEX_FLAGS = {"i": re.IGNORECASE, "m": re.MULTILINE, "s": re.DOTALL, "x": re.VERBOSE}


def _bracketed_cmp(op: str, operand: Any) -> Predicate:
    """Range comparison with type bracketing (Mongo semantics); a number
    compares natively, anything else through :func:`compare_values`."""
    rank, test = type_rank(operand), _NUMBER_RANGE[op]
    if rank == 10:
        return test(operand)
    sign = test(0)  # the range test applied to compare_values' answer
    return lambda v: type_rank(v) == rank and sign(compare_values(v, operand))


def _compile_value_test(operand: Any) -> Predicate:
    """Equality test for bare values, $eq, $ne and non-scalar members: by
    operand type for strings, bools and numbers (bools apart from numbers,
    as in BSON), :func:`_values_equal` for the rest.  Regexes search."""
    if isinstance(operand, re.Pattern):
        return lambda v: isinstance(v, str) and bool(operand.search(v))
    if isinstance(operand, str):
        return lambda v: v == operand and isinstance(v, str)
    if isinstance(operand, bool):
        return lambda v: v is operand
    if isinstance(operand, _NUMBER):
        return lambda v: v == operand and isinstance(v, _NUMBER) and v.__class__ is not bool
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
            keys.add((m.__class__ is bool, m))
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
    return lambda v: ((isinstance(v, _SET_SCALARS) and (v.__class__ is bool, v) in keys)
                      or any(t(v) for t in tests))


def _compile_operator(field_ops: Mapping[str, Any]) -> _FieldTest:
    """Compile an operator document like ``{"$gte": 3, "$lt": 7}`` into a
    :data:`_FieldTest`.  Only negative operators — $ne, $nin, $exists:false,
    $not — match a missing field."""
    preds: List[Predicate] = []
    neg_preds: List[Predicate] = []
    negated: List[_FieldTest] = []  # $not {...}: negates the whole test
    all_keys: set = set()  # scalar $all members, one set lookup per document
    null_negative = False  # $ne null / $nin [... null]: missing must NOT match

    unknown = set(field_ops) - _OPERATORS
    if unknown:
        raise QuerySyntaxError(f"unknown query operator(s): {sorted(unknown)}")
    if "$options" in field_ops and "$regex" not in field_ops:
        raise QuerySyntaxError("$options requires $regex")

    for op, operand in field_ops.items():
        if op == "$eq":
            preds.append(_compile_value_test(operand))
        elif op in _NUMBER_RANGE:
            preds.append(_bracketed_cmp(op, operand))
        elif op == "$in":
            preds.append(_any_member(op, operand))
        elif op == "$ne":
            neg_preds.append(_compile_value_test(operand))
            # Mongo treats a missing field as null: {$ne: null} must NOT
            # match documents lacking the field.
            null_negative |= operand is None
        elif op == "$nin":
            neg_preds.append(_any_member(op, operand))
            null_negative |= any(v is None for v in operand)
        elif op == "$exists":
            (preds if operand else neg_preds).append(lambda v: True)
        elif op == "$type":
            names = [operand] if isinstance(operand, str) else operand
            if not isinstance(names, list):
                raise QuerySyntaxError("$type requires a type name or list of names")
            for name in names:
                if name not in _TYPE_NAMES:
                    raise QuerySyntaxError(f"unknown $type name {name!r}")
            tests = [_TYPE_NAMES[name] for name in names]
            preds.append(lambda v, _t=tests: any(t(v) for t in _t))
        elif op == "$mod":
            if not (isinstance(operand, (list, tuple)) and len(operand) == 2
                    and not isinstance(operand[0], bool)
                    and all(isinstance(x, _NUMBER) for x in operand)):
                raise QuerySyntaxError("$mod requires [divisor, remainder]")
            divisor, remainder = int(operand[0]), int(operand[1])
            if divisor == 0:
                raise QuerySyntaxError("$mod divisor cannot be 0")
            preds.append(lambda v: isinstance(v, _NUMBER) and v.__class__ is not bool
                         and int(v) % divisor == remainder)
        elif op == "$regex":
            if isinstance(operand, str):
                flags = 0
                for opt in field_ops.get("$options", ""):
                    flags |= _REGEX_FLAGS.get(opt, 0)
                try:
                    operand = re.compile(operand, flags)
                except re.error as exc:
                    raise QuerySyntaxError(f"invalid $regex: {exc}") from exc
            elif not isinstance(operand, re.Pattern):
                raise QuerySyntaxError("$regex requires a string or pattern")
            preds.append(_compile_value_test(operand))
        elif op == "$where":  # it sees the whole document: top level only
            raise QuerySyntaxError("$where is only valid at the top level" if callable(
                operand) else "$where requires a callable")
        elif op == "$size":
            if isinstance(operand, bool) or not isinstance(operand, int):
                raise QuerySyntaxError("$size requires an integer")
            preds.append(lambda v, _n=operand: isinstance(v, list) and len(v) == _n)
        elif op == "$all":
            if not isinstance(operand, list):
                raise QuerySyntaxError("$all requires an array")
            # Each member must hold of some candidate value on its own: the
            # member test is bare equality ({f: {$all: [x]}} is {f: x}).
            keys, rest = _member_keys(operand)
            all_keys |= keys
            for member in rest:
                if _is_operator_doc(member) and "$elemMatch" in member:
                    preds.append(_elem_match(member["$elemMatch"]))
                else:
                    preds.append(_compile_value_test(member))
        elif op == "$elemMatch":
            if not isinstance(operand, Mapping):
                raise QuerySyntaxError("$elemMatch requires a document")
            preds.append(_elem_match(operand))
        elif op == "$not":
            if isinstance(operand, re.Pattern):
                neg_preds.append(_compile_value_test(operand))
            elif _is_operator_doc(operand):
                negated.append(_compile_operator(operand))
            else:
                raise QuerySyntaxError("$not requires an operator document or regex")

    positive = bool(preds or all_keys) or "$all" in field_ops  # $all: [] too
    if_missing = not (positive or null_negative or any(sub[2] for sub in negated))
    # One value: every positive test holds of it, no negative one does.
    tests = preds + [lambda v, _t=t: not _t(v)
                     for t in neg_preds + [sub[0] for sub in negated]]
    if all_keys:
        tests.append(lambda v: isinstance(v, _SET_SCALARS)
                     and all_keys <= {(v.__class__ is bool, v)})

    # Many values: a string member is found by ``in`` (only a string
    # equals a string), the other scalar members through their keys.
    all_strs = [m for _, m in all_keys if m.__class__ is str]
    other_keys = {key for key in all_keys if key[1].__class__ is not str}

    def many(values: List[Any]) -> bool:
        # Each positive test must hold of some candidate value (Mongo array
        # fan-out), each negative one of none.
        for sub in negated:
            if sub[1](values):
                return False
        for test in preds:
            if not any(map(test, values)):
                return False
        for member in all_strs:
            if member not in values:
                return False
        if other_keys and not other_keys <= {
                (v.__class__ is bool, v) for v in values if isinstance(v, _SET_SCALARS)}:
            return False
        for test in neg_preds:
            if any(map(test, values)):
                return False
        return True

    return _all_of(tests), many, if_missing


def _elem_match(operand: Mapping[str, Any]) -> Predicate:
    """``$elemMatch``: some element of an array value satisfies ``operand``,
    an operator document over the element itself or a query over it."""
    if _is_operator_doc(operand):
        test = _compile_operator(operand)[0]
    else:
        test = compile_query(operand).matches
    return lambda v: isinstance(v, list) and any(map(test, v))


def _all_of(tests: List[Predicate]) -> Predicate:
    """``tests`` (none: always true) in order as one call; one test is itself."""
    if len(tests) == 1:
        return tests[0]

    def every(value: Any) -> bool:
        for test in tests:
            if not test(value):
                return False
        return True

    return every


def _compile_field(path: str, condition: Any) -> Predicate:
    """One ``path: condition`` clause over whole documents.

    The path is split once.  Through dicts the accessor is a chain of
    ``.get`` calls, and a value that is not an array goes straight to the
    compiled test; an array at the end is tested with its elements.  A
    numeric component, an array or a document that is not a dict on the
    way takes the generic :func:`~.documents.get_path_multi` fan-out, whose
    candidates are each value reached and, one level down, each array's
    elements.
    """
    parts = split_path(path)
    if _is_operator_doc(condition):
        one, many, if_missing = _compile_operator(condition)
    else:  # bare value: equality against the value or any array element
        one = _compile_value_test(condition)
        many = lambda values: any(map(one, values))  # noqa: E731
        if_missing = condition is None  # {"a": null} matches a missing a

    def fan_out(doc: Any) -> bool:
        values = get_path_multi(doc, path)
        values.extend([e for v in values if isinstance(v, list) for e in v])
        return many(values) if values else if_missing

    if any(map(str.isdigit, parts)):
        return fan_out
    if len(parts) == 1:
        key = parts[0]

        def field(doc: Any) -> bool:
            if type(doc) is not dict:
                return fan_out(doc)
            value = doc.get(key, MISSING)
            if value is MISSING:
                return if_missing
            return many([value, *value]) if isinstance(value, list) else one(value)

        return field

    def dotted(doc: Any) -> bool:
        value = doc
        for key in parts:
            if type(value) is not dict:
                return fan_out(doc)
            value = value.get(key, MISSING)
            if value is MISSING:
                return if_missing
        return many([value, *value]) if isinstance(value, list) else one(value)

    return dotted


def _compile_logical(op: str, operand: Any) -> Predicate:
    if not isinstance(operand, list) or not operand:
        raise QuerySyntaxError(f"{op} requires a non-empty array of queries")
    subs = [compile_query(q).matches for q in operand]
    if op == "$and":
        return _all_of(subs)
    if op == "$or":
        return lambda doc: any(m(doc) for m in subs)
    return lambda doc: not any(m(doc) for m in subs)


class Matcher:
    """A compiled query: call :attr:`matches` on candidate documents.  It is
    bound once to the conjunction of the clauses (in query order, ``$where``
    functions last); a one-clause query's ``matches`` is that clause."""

    __slots__ = ("query", "matches")

    def __init__(self, query: Mapping[str, Any]):
        if not isinstance(query, Mapping):
            raise QuerySyntaxError("query must be a document")
        self.query = query
        clauses: List[Predicate] = []
        where: List[Predicate] = []
        for key, value in query.items():
            if not key.startswith("$"):
                clauses.append(_compile_field(key, value))
            elif key == "$where":
                if not callable(value):
                    raise QuerySyntaxError("$where requires a callable")
                where.append(value)
            elif key in _LOGICAL:
                clauses.append(_compile_logical(key, value))
            elif key == "$not":
                raise QuerySyntaxError("$not is not valid at the top level")
            else:
                raise QuerySyntaxError(f"unknown top-level operator {key!r}")
        self.matches: Predicate = _all_of(clauses + where)

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

_INDEX_RANGE_OPS = frozenset(_NUMBER_RANGE)
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
