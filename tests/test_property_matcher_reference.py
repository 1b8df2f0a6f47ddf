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


def _candidates(doc: Any, field: str):
    """Value + array elements (one level), or [] when the field is missing;
    a value that is not a document has no fields."""
    if not isinstance(doc, dict) or field not in doc:
        return []
    value = doc[field]
    out = [value]
    if isinstance(value, list):
        out.extend(value)
    return out


def _ref_member(cands, member) -> bool:
    """One ``$all`` member: an ``$elemMatch`` document, else bare equality."""
    if isinstance(member, dict) and "$elemMatch" in member:
        return any(isinstance(v, list)
                   and any(_ref_match(e, member["$elemMatch"]) for e in v)
                   for v in cands)
    return any(ref_equal(v, member) for v in cands)


def _ref_field(doc: Any, field: str, cond: Any) -> bool:
    present = isinstance(doc, dict) and field in doc
    cands = _candidates(doc, field)
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
