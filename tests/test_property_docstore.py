"""Property-based tests (hypothesis) for the document-store core.

Invariants checked:
* extended JSON round-trips arbitrary documents
* set_path/get_path are inverse on fresh paths
* index-assisted queries return exactly what a collection scan returns
* every verb, aggregate included, leaves each stored dict as it found it
* update operators preserve document validity
* sort order is a total order consistent with compare_values
"""

import json
import string

from hypothesis import given, settings, strategies as st

from repro.docstore import (
    Collection, compile_query, document_from_json, document_to_json,
    run_pipeline,
)
from repro.docstore.documents import get_path, set_path, validate_document, walk
from repro.docstore.matching import compare_values, ordering_key

# JSON-like scalars (text limited to printable to keep failure output sane).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.ascii_letters + string.digits + "_- ", max_size=12),
)

field_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(field_names, children, max_size=4),
    ),
    max_leaves=20,
)

flat_docs = st.dictionaries(field_names, scalars, min_size=1, max_size=5)


class TestJSONRoundtrip:
    @given(doc=st.dictionaries(field_names, documents, max_size=5))
    @settings(max_examples=150)
    def test_roundtrip(self, doc):
        assert document_from_json(document_to_json(doc)) == doc


class TestPathAccess:
    @given(doc=st.dictionaries(field_names, documents, max_size=4),
           path=st.lists(field_names, min_size=1, max_size=3),
           value=scalars)
    @settings(max_examples=100)
    def test_set_then_get(self, doc, path, value):
        from repro.errors import DocstoreError

        dotted = ".".join(path)
        try:
            set_path(doc, dotted, value)
        except DocstoreError:
            return  # scalar in the way; correctly rejected
        assert get_path(doc, dotted) == value
        validate_document(doc)

    @given(doc=st.dictionaries(field_names, documents, max_size=4))
    @settings(max_examples=100)
    def test_every_walked_leaf_is_gettable(self, doc):
        for path, leaf in walk(doc):
            assert get_path(doc, path) == leaf


class TestOrderingTotality:
    @given(a=documents, b=documents, c=documents)
    @settings(max_examples=150)
    def test_antisymmetry_and_transitivity(self, a, b, c):
        ab, ba = compare_values(a, b), compare_values(b, a)
        assert ab == -ba
        if compare_values(a, b) <= 0 and compare_values(b, c) <= 0:
            assert compare_values(a, c) <= 0

    @given(values=st.lists(documents, min_size=2, max_size=8))
    @settings(max_examples=100)
    def test_sorting_is_stable_total(self, values):
        ordered = sorted(values, key=ordering_key)
        for x, y in zip(ordered, ordered[1:]):
            assert compare_values(x, y) <= 0


class TestIndexEquivalence:
    @given(docs=st.lists(flat_docs, min_size=1, max_size=20),
           probe=scalars)
    @settings(max_examples=80, deadline=None)
    def test_index_matches_collscan(self, docs, probe):
        scan_coll = Collection("scan")
        ix_coll = Collection("ix")
        ix_coll.create_index("k")
        for d in docs:
            scan_coll.insert_one(d)
            ix_coll.insert_one(d)
        query = {"k": probe}
        scanned = sorted(str(d["_id"]) for d in scan_coll.find(query))
        indexed = sorted(str(d["_id"]) for d in ix_coll.find(query))
        # ids differ between collections; compare by matched payload count
        assert len(scanned) == len(indexed)
        assert ix_coll.last_plan.kind == "IXSCAN"

    @given(docs=st.lists(st.fixed_dictionaries({"k": st.integers(-50, 50)}),
                         min_size=1, max_size=25),
           lo=st.integers(-50, 50), hi=st.integers(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_range_index_matches_collscan(self, docs, lo, hi):
        coll = Collection("c")
        coll.insert_many(docs)
        query = {"k": {"$gte": lo, "$lt": hi}}
        scan = {str(d["_id"]) for d in coll.find(query)}
        coll.create_index("k")
        indexed = {str(d["_id"]) for d in coll.find(query)}
        assert scan == indexed


class TestMatcherConsistency:
    @given(doc=flat_docs)
    @settings(max_examples=100)
    def test_equality_query_built_from_doc_matches_it(self, doc):
        query = {k: v for k, v in doc.items()}
        assert compile_query(query).matches(doc)

    @given(doc=flat_docs, key=field_names)
    @settings(max_examples=100)
    def test_exists_consistency(self, doc, key):
        m_yes = compile_query({key: {"$exists": True}})
        m_no = compile_query({key: {"$exists": False}})
        assert m_yes.matches(doc) == (key in doc)
        assert m_no.matches(doc) == (key not in doc)


class TestUpdatePreservesValidity:
    @given(doc=flat_docs, key=field_names, value=scalars)
    @settings(max_examples=100)
    def test_set_always_valid(self, doc, key, value):
        coll = Collection("c")
        coll.insert_one(doc)
        coll.update_one({}, {"$set": {key: value}})
        stored = coll.find_one({})
        validate_document(stored)
        assert stored[key] == value

    @given(doc=flat_docs, key=field_names, n=st.integers(-100, 100))
    @settings(max_examples=100)
    def test_inc_on_missing_or_numeric(self, doc, key, n):
        from repro.errors import UpdateSyntaxError

        coll = Collection("c")
        coll.insert_one(doc)
        old = doc.get(key)
        try:
            coll.update_one({}, {"$inc": {key: n}})
        except UpdateSyntaxError:
            assert old is not None and (isinstance(old, bool) or not isinstance(old, (int, float)))
            return
        new = coll.find_one({})[key]
        if old is None or key not in doc:
            assert new == n
        else:
            assert new == old + n


# -- every verb, planned vs. COLLSCAN ---------------------------------------
#
# One random op stream runs against a collection with single and compound
# indexes and against an index-free twin whose every plan is a COLLSCAN.
# Documents carry explicit ``_id``s and a unique ``k``, so single-target ops
# name their target by a unique selector or a total sort.

small = st.integers(0, 5)
doc_ids = st.integers(0, 24)
selectors = st.one_of(
    st.builds(lambda v: {"a": v}, small),
    st.builds(lambda v: {"a": {"$gte": v}}, small),
    st.builds(lambda v: {"b": {"$lt": v}}, small),
    st.builds(lambda a, b: {"a": a, "b": {"$lte": b}}, small, small),
    st.builds(lambda v: {"k": {"$gt": v}}, doc_ids),
    st.just({}),
)
unique_selectors = st.one_of(
    st.builds(lambda i: {"_id": i}, doc_ids),
    st.builds(lambda i: {"k": i}, doc_ids),
    st.builds(lambda i, a: {"a": a, "k": i}, doc_ids, small),
)
mutations = st.one_of(
    st.builds(lambda v: {"$set": {"a": v}}, small),
    st.builds(lambda v: {"$inc": {"a": v}}, small),  # moves along a_1
    st.builds(lambda v: {"$inc": {"b": v - 2}}, small),
    st.builds(lambda v: {"$set": {"note": v}}, small),
)
total_sorts = st.sampled_from([
    [("k", 1)], [("k", -1)],
    [("b", 1), ("k", 1)], [("b", -1), ("k", -1)],  # b_1_k_1, either way
    [("a", -1), ("k", 1)], [("b", 1), ("k", -1)],  # blocking
])
group_sorts = st.sampled_from([None, {"first": 1}, {"last": -1, "_id": 1}])
operations = st.one_of(
    st.tuples(st.just("insert"), small, small),
    st.tuples(st.just("update_one"), unique_selectors, mutations),
    st.tuples(st.just("update_many"), selectors, mutations),
    st.tuples(st.just("replace_one"), doc_ids, small, small, st.booleans()),
    st.tuples(st.just("delete_one"), unique_selectors),
    st.tuples(st.just("delete_many"), selectors),
    st.tuples(st.just("find_one_and_update"), selectors, mutations,
              total_sorts, st.sampled_from(["before", "after"])),
    st.tuples(st.just("find_one_and_delete"), selectors, total_sorts),
    st.tuples(st.just("find"), selectors, total_sorts,
              st.integers(0, 4), st.integers(0, 6)),
    st.tuples(st.just("aggregate"), selectors, group_sorts),
    st.tuples(st.just("find_stored"), selectors, total_sorts,
              st.integers(0, 4), st.integers(0, 6),
              st.sampled_from([None, {"a": 1}, {"b": 0},
                               {"k": 1, "_id": 0}])),  # k_1 covers the last
)


def _group_pipeline(query, sort):
    """A leading ``$match`` then a ``$group`` whose accumulators see the
    order its input arrives in."""
    pipeline = [
        {"$match": query},
        {"$group": {"_id": "$a", "first": {"$first": "$k"},
                    "last": {"$last": "$k"}, "ks": {"$push": "$k"},
                    "n": {"$sum": 1}}},
    ]
    return pipeline + ([{"$sort": sort}] if sort else [])


def _apply(coll, op, next_id):
    """Run one op; return a comparable result."""
    kind, args = op[0], op[1:]
    if kind == "insert":
        a, b = args
        return coll.insert_one(
            {"_id": next_id, "k": next_id, "a": a, "b": b}).inserted_id
    if kind in ("update_one", "update_many"):
        r = getattr(coll, kind)(*args)
        return r.matched_count, r.modified_count
    if kind == "replace_one":
        i, a, b, upsert = args
        r = coll.replace_one({"_id": i}, {"k": i, "a": a, "b": b},
                             upsert=upsert)
        return r.matched_count, r.modified_count, r.upserted_id
    if kind in ("delete_one", "delete_many"):
        return getattr(coll, kind)(*args).deleted_count
    if kind == "find_one_and_update":
        query, update, sort, which = args
        return coll.find_one_and_update(query, update, sort=sort,
                                        return_document=which)
    if kind == "find_one_and_delete":
        query, sort = args
        return coll.find_one_and_delete(query, sort=sort)
    if kind == "aggregate":
        pipeline = _group_pipeline(*args)
        rows = coll.aggregate(pipeline)
        # The reference: every stage over a snapshot of the collection.
        assert rows == run_pipeline(coll.all_documents(), pipeline)
        return rows
    if kind == "find_stored":
        # The wire server's read: stored references, same answer as find.
        query, sort, skip, limit, projection = args
        stored = (coll._find_stored(query, projection)
                  .sort(sort).skip(skip).limit(limit).to_list())
        assert stored == (coll.find(query, projection)
                          .sort(sort).skip(skip).limit(limit).to_list())
        first = coll._find_stored(query, projection, op="findOne").first()
        assert first == coll.find_one(query, projection)
        if projection is None:
            # What the wire splices: each answer's own encoding.
            assert coll._json_of(stored) == [
                document_to_json(d).encode("utf-8") for d in stored]
        return stored
    query, sort, skip, limit = args
    return (coll.find(query).sort(sort).skip(skip).limit(limit).to_list(),
            sorted(d["_id"] for d in coll.find(query)),
            coll.count_documents(query), coll.find_one(query) is not None)


class TestEveryVerbMatchesCollscan:
    @given(ops=st.lists(operations, min_size=1, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_indexed_collection_tracks_index_free_twin(self, ops):
        indexed, twin = Collection("indexed"), Collection("twin")
        for keys in ("a", "k", [("a", 1), ("b", -1)], [("b", 1), ("k", 1)]):
            indexed.create_index(keys)
        seed = [{"_id": i, "k": i, "a": i % 4, "b": (i * 3) % 5}
                for i in range(8)]
        indexed.insert_many(seed)
        twin.insert_many(seed)
        next_id = 100
        for op in ops:
            held = [_hold_stored(indexed), _hold_stored(twin)]
            # Every document of ``indexed`` enters each op with a cached
            # fragment; ``twin`` fills its cache only through find_stored.
            indexed._find_stored().to_list()
            assert _apply(indexed, op, next_id) == _apply(twin, op, next_id), op
            assert indexed.all_documents() == twin.all_documents(), op
            # Copy-on-write: no verb wrote into a dict it had stored.
            for refs in held:
                for doc, dumped in refs:
                    assert json.dumps(doc, sort_keys=True) == dumped, op
            _assert_fragments_current(indexed, op)
            _assert_fragments_current(twin, op)
            next_id += 1


def _assert_fragments_current(coll, op):
    """The fragment cache holds only dicts stored right now, each beside
    its own encoding, and no more entries than stored documents."""
    assert len(coll._fragments) <= len(coll._docs), op
    for pos, (doc, fragment) in coll._fragments.items():
        assert coll._docs.get(pos) is doc, op
        assert fragment == document_to_json(doc).encode("utf-8"), op


def _hold_stored(coll):
    """Every stored document by reference, beside its serialization now."""
    return [(doc, json.dumps(doc, sort_keys=True))
            for doc in coll._docs.values()]
