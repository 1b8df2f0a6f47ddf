"""Differential property test: compiled matcher vs. a reference evaluator.

The reference is deliberately naive: per-field candidate values, then the
generic BSON equality and ordering, frozen below as copies of
``matching._values_equal``, ``type_rank`` and ``compare_values``.  The
compiled matcher specialises its predicates by operand type and answers
``$in``/``$nin``/``$all`` with set lookups; this test is what keeps those
fast paths equal to the generic rules.  The grammar covers bare equality,
``$eq $ne $gt $gte $lt $lte $in $nin $exists $all`` (with ``$elemMatch``
members) and one level of ``$and``/``$or``, over values that include ``1``
vs ``1.0`` vs ``True``, ``-0.0``, NaN, ``None`` vs missing, nested documents
and arrays of arrays.  Divergence means one side misreads Mongo semantics;
historically this class of test is what caught the ``$ne: null``
missing-field bug.

The collection-level checks run the same queries through ``find`` on an
index-free collection, and on a twin with one index per field against its
own ``hint="$natural"`` scan, so a plan can only ever narrow.

``TestAccessorBoundary`` aims at the compiled accessor: one path, plain or
dotted, holds the int its conditions expect in some documents and an array,
a subdocument, nothing, ``None``, NaN, a bool or (under the dotted path) a
list of subdocuments in others, so each document lands on one side of the
``dict.get`` fast path or the fan-out.
"""

from typing import Any, Dict, Mapping

from hypothesis import given, settings, strategies as st

from repro.docstore import Collection, compile_query
from repro.docstore.objectid import ObjectId

FIELDS = ["a", "b", "c"]
SUBFIELDS = ["x", "y"]
NAN = float("nan")

MISSING = object()


# -- the reference: frozen generic rules ------------------------------------

def ref_type_rank(value: Any) -> int:
    """``matching.type_rank`` as the generic path has it."""
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


def ref_compare(a: Any, b: Any) -> int:
    """``matching.compare_values``: BSON order, dicts in field order."""
    ra, rb = ref_type_rank(a), ref_type_rank(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 0:
        ka = 0 if a is MISSING else 1
        kb = 0 if b is MISSING else 1
        return (ka > kb) - (ka < kb)
    if ra == 30:
        items_a, items_b = list(a.items()), list(b.items())
        for (ka, va), (kb, vb) in zip(items_a, items_b):
            if ka != kb:
                return -1 if ka < kb else 1
            c = ref_compare(va, vb)
            if c:
                return c
        return (len(items_a) > len(items_b)) - (len(items_a) < len(items_b))
    if ra == 40:
        for va, vb in zip(a, b):
            c = ref_compare(va, vb)
            if c:
                return c
        return (len(a) > len(b)) - (len(a) < len(b))
    if ra == 60:
        a, b = a.binary, b.binary
    try:
        return (a > b) - (a < b)
    except TypeError:
        return 0


def ref_equal(a: Any, b: Any) -> bool:
    """``matching._values_equal``: the one generic equality."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if ref_type_rank(a) != ref_type_rank(b):
        return False
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if len(a) != len(b):
            return False
        return all(k in b and ref_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(ref_equal(x, y) for x, y in zip(a, b))
    return a == b


_RANGE = {
    "$gt": lambda c: c > 0, "$gte": lambda c: c >= 0,
    "$lt": lambda c: c < 0, "$lte": lambda c: c <= 0,
}


def _reached(value: Any, parts) -> list:
    """Every value a (dotted) path reaches: a document descends by key, an
    array on the way applies the rest of the path to each of its documents
    and arrays; anything else has no fields."""
    if not parts:
        return [value]
    if isinstance(value, dict):
        return _reached(value[parts[0]], parts[1:]) if parts[0] in value else []
    if isinstance(value, list):
        return [v for e in value if isinstance(e, (dict, list))
                for v in _reached(e, parts)]
    return []


def _candidates(doc: Any, field: str):
    """The values ``field`` reaches plus, one level down, each array's
    elements; [] when the field is missing."""
    reached = _reached(doc, field.split("."))
    return reached + [e for v in reached if isinstance(v, list) for e in v]


def _ref_member(cands, member) -> bool:
    """One ``$all`` member: an ``$elemMatch`` document, else bare equality."""
    if isinstance(member, dict) and "$elemMatch" in member:
        return any(isinstance(v, list)
                   and any(_ref_match(e, member["$elemMatch"]) for e in v)
                   for v in cands)
    return any(ref_equal(v, member) for v in cands)


def _ref_field(doc: Any, field: str, cond: Any) -> bool:
    cands = _candidates(doc, field)
    present = bool(cands)
    if not (isinstance(cond, dict) and cond and
            all(isinstance(k, str) and k.startswith("$") for k in cond)):
        # Bare equality; null also matches a missing field.
        if cond is None and not present:
            return True
        return any(ref_equal(v, cond) for v in cands)

    for op, operand in cond.items():
        if op == "$eq":
            ok = any(ref_equal(v, operand) for v in cands)
        elif op == "$ne":
            ok = not any(ref_equal(v, operand) for v in cands)
            if operand is None and not present:
                ok = False
        elif op in _RANGE:
            ok = any(ref_type_rank(v) == ref_type_rank(operand)
                     and _RANGE[op](ref_compare(v, operand)) for v in cands)
        elif op == "$in":
            ok = any(ref_equal(v, m) for v in cands for m in operand)
        elif op == "$nin":
            ok = not any(ref_equal(v, m) for v in cands for m in operand)
            if any(m is None for m in operand) and not present:
                ok = False
        elif op == "$exists":
            ok = present is bool(operand)
        elif op == "$all":
            ok = bool(cands) and all(_ref_member(cands, m) for m in operand)
        else:  # pragma: no cover
            raise AssertionError(f"grammar violation {op}")
        if not ok:
            return False
    return True


def _ref_match(doc: Any, query: Dict[str, Any]) -> bool:
    for key, cond in query.items():
        if key == "$and":
            if not all(_ref_match(doc, sub) for sub in cond):
                return False
        elif key == "$or":
            if not any(_ref_match(doc, sub) for sub in cond):
                return False
        else:
            if not _ref_field(doc, key, cond):
                return False
    return True


# -- documents ---------------------------------------------------------------

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([1.0, -0.0, 0.5, NAN]),
    st.sampled_from(["x", "y", "z"]),
)
subdocs = st.dictionaries(st.sampled_from(SUBFIELDS), leaves, max_size=2)
scalars = st.one_of(leaves, subdocs)
values = st.one_of(
    scalars,
    st.lists(st.one_of(scalars, st.lists(leaves, max_size=2)), max_size=3),
)
documents = st.dictionaries(st.sampled_from(FIELDS), values, max_size=3)


# -- query grammar -------------------------------------------------------------

comparable = st.one_of(st.integers(-2, 2), st.sampled_from([0.5, -0.0, NAN]),
                       st.sampled_from(["x", "y", "z"]))
operands = st.one_of(scalars, st.lists(leaves, max_size=2))

sub_queries = st.dictionaries(
    st.sampled_from(SUBFIELDS),
    st.one_of(leaves, st.fixed_dictionaries({"$gt": comparable}),
              st.fixed_dictionaries({"$in": st.lists(leaves, max_size=2)})),
    min_size=1, max_size=2,
)
all_members = st.one_of(
    operands,
    st.fixed_dictionaries({"$elemMatch": sub_queries}),
)


def _range_ops(names):
    return st.dictionaries(st.sampled_from(names), comparable,
                           min_size=1, max_size=2)


field_conditions = st.one_of(
    operands,  # bare equality
    st.fixed_dictionaries({"$eq": operands}),
    st.fixed_dictionaries({"$ne": operands}),
    _range_ops(["$gt", "$gte", "$lt", "$lte"]),
    st.fixed_dictionaries({"$in": st.lists(operands, min_size=1, max_size=4)}),
    st.fixed_dictionaries({"$nin": st.lists(operands, min_size=1, max_size=4)}),
    st.fixed_dictionaries({"$exists": st.booleans()}),
    st.fixed_dictionaries({"$all": st.lists(all_members, min_size=1,
                                            max_size=3)}),
)

flat_queries = st.dictionaries(
    st.sampled_from(FIELDS), field_conditions, max_size=3
)

queries = st.one_of(
    flat_queries,
    st.fixed_dictionaries(
        {"$and": st.lists(flat_queries, min_size=1, max_size=2)}
    ),
    st.fixed_dictionaries(
        {"$or": st.lists(flat_queries, min_size=1, max_size=2)}
    ),
)


# -- the accessor's fast-path/fan-out boundary ------------------------------

#: One path read by ``dict.get`` alone, one dotted.
PATHS = ["p", "q.r"]

ints = st.integers(-2, 2)
#: What sits at the path: the int the queries expect, or an array, a
#: subdocument, missing, None, NaN or a bool in its place.
path_values = st.one_of(
    ints,
    st.lists(st.one_of(ints, st.booleans(), subdocs), max_size=3),
    subdocs,
    st.just(MISSING),
    st.none(),
    st.just(NAN),
    st.booleans(),
)


@st.composite
def path_documents(draw, path: str) -> dict:
    """A document holding a :data:`path_values` draw at ``path``; under a
    dotted path its head may instead be missing, a scalar, or a list of
    subdocuments each holding a draw (or not) at the leaf."""

    def holding(key: str) -> dict:
        value = draw(path_values)
        return {} if value is MISSING else {key: value}

    doc = {"a": draw(values)} if draw(st.booleans()) else {}
    head, _, leaf = path.partition(".")
    if not leaf:
        doc.update(holding(head))
        return doc
    shape = draw(st.sampled_from(["document", "list", "scalar", "missing"]))
    if shape == "document":
        doc[head] = holding(leaf)
    elif shape == "list":
        doc[head] = [holding(leaf) for _ in range(draw(st.integers(0, 3)))]
    elif shape == "scalar":
        doc[head] = draw(leaves)
    return doc


#: Conditions that expect an int, so the bools, NaN and None in its place
#: meet int operands, plus the general grammar.
path_conditions = st.one_of(
    ints,
    st.fixed_dictionaries({"$eq": ints}),
    st.fixed_dictionaries({"$ne": ints}),
    st.dictionaries(st.sampled_from(["$gt", "$gte", "$lt", "$lte"]), ints,
                    min_size=1, max_size=2),
    st.fixed_dictionaries({"$in": st.lists(ints, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"$nin": st.lists(ints, min_size=1, max_size=3)}),
    field_conditions,
)


@st.composite
def boundary_cases(draw, max_docs: int):
    """``(path, documents, query)``: a condition on the path, sometimes
    alongside one on ``a`` (a conjunction of two clauses)."""
    path = draw(st.sampled_from(PATHS))
    docs = draw(st.lists(path_documents(path), min_size=1, max_size=max_docs))
    query = {path: draw(path_conditions)}
    if draw(st.booleans()):
        query["a"] = draw(field_conditions)
    return path, docs, query


def _ids(cursor):
    return sorted(d["_id"] for d in cursor)


class TestMatcherAgainstReference:
    @given(doc=documents, query=queries)
    @settings(max_examples=600, deadline=None)
    def test_agreement(self, doc, query):
        expected = _ref_match(doc, query)
        actual = compile_query(query).matches(doc)
        assert actual == expected, (
            f"divergence on doc={doc!r} query={query!r}: "
            f"matcher={actual} reference={expected}"
        )

    @given(docs=st.lists(documents, max_size=12), query=queries)
    @settings(max_examples=200, deadline=None)
    def test_collection_find_agreement(self, docs, query):
        """The same agreement through the full Collection.find path."""
        coll = Collection("ref")
        for i, doc in enumerate(docs):
            coll.insert_one({**doc, "_id": i})
        want = [i for i, doc in enumerate(docs) if _ref_match(doc, query)]
        assert _ids(coll.find(query)) == want

    @given(docs=st.lists(documents, max_size=12), query=queries)
    @settings(max_examples=200, deadline=None)
    def test_indexed_find_agrees_with_natural_scan(self, docs, query):
        """One index per field: whatever plan wins returns exactly what the
        collection scan and the reference return."""
        coll = Collection("ref_indexed")
        for field in FIELDS:
            coll.create_index(field)
        for i, doc in enumerate(docs):
            coll.insert_one({**doc, "_id": i})
        want = [i for i, doc in enumerate(docs) if _ref_match(doc, query)]
        assert _ids(coll.find(query, hint="$natural")) == want
        assert _ids(coll.find(query)) == want, coll.last_plan
        for field in FIELDS:
            assert _ids(coll.find(query, hint=f"{field}_1")) == want, field


class TestAccessorBoundary:
    """The compiled accessor reads a path with ``dict.get`` and hands a
    value that is not an array straight to the test; arrays, lists of
    subdocuments on the way and non-dict heads fan out.  Both must agree
    with the reference and with every plan of an indexed twin."""

    @given(case=boundary_cases(max_docs=1))
    @settings(max_examples=600, deadline=None)
    def test_agreement(self, case):
        _path, (doc,), query = case
        expected = _ref_match(doc, query)
        actual = compile_query(query).matches(doc)
        assert actual == expected, (
            f"divergence on doc={doc!r} query={query!r}: "
            f"matcher={actual} reference={expected}"
        )

    @given(case=boundary_cases(max_docs=10))
    @settings(max_examples=200, deadline=None)
    def test_indexed_find_agrees_with_natural_scan(self, case):
        path, docs, query = case
        coll = Collection("ref_boundary")
        for field in (path, "a"):
            coll.create_index(field)
        for i, doc in enumerate(docs):
            coll.insert_one({**doc, "_id": i})
        want = [i for i, doc in enumerate(docs) if _ref_match(doc, query)]
        assert _ids(coll.find(query, hint="$natural")) == want
        assert _ids(coll.find(query)) == want, coll.last_plan
        for field in (path, "a"):
            assert _ids(coll.find(query, hint=f"{field}_1")) == want, field
