"""Differential property test: compiled projection vs. a frozen reference.

``compile_projection`` parses a projection once per query and binds a flat
top-level inclusion to one ``dict.get`` per key, copying only containers.
The reference below is the per-document ``apply_projection`` the store
used before projections were compiled, frozen here (its path helpers are
the documents module's ``get_path``/``set_path``/``unset_path``).  The
grammar mixes flat, dotted and array-index paths over documents whose
fields are missing, scalar, ``None``, subdocuments, arrays of scalars,
arrays of subdocuments and arrays of arrays; projections include, exclude,
keep or drop ``_id``, and sometimes carry an invalid flag, an empty path
component or a mix of inclusion and exclusion.  The compiled form must
give the same document, field order included, share no container with
its input, and reject exactly the projections the reference rejects
(at compile time, where the reference failed at the first document).
"""

from typing import Any, List, Mapping, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.docstore import Collection
from repro.docstore.cursor import compile_projection
from repro.docstore.documents import (
    MISSING, deep_copy_doc, get_path, set_path, unset_path,
)
from repro.errors import DocstoreError


# -- the reference: the per-document projection, frozen ---------------------

def _split_projection(projection: Mapping[str, Any]) -> tuple:
    include: List[str] = []
    exclude: List[str] = []
    for field, flag in projection.items():
        if flag in (1, True):
            include.append(field)
        elif flag in (0, False):
            exclude.append(field)
        else:
            raise DocstoreError(f"projection value for {field!r} must be 0/1")
    inc_set = [f for f in include if f != "_id"]
    exc_set = [f for f in exclude if f != "_id"]
    if inc_set and exc_set:
        raise DocstoreError("cannot mix inclusion and exclusion in a projection")
    id_flag = projection.get("_id", None)
    return inc_set, exc_set, id_flag


def apply_projection(doc: Mapping[str, Any],
                     projection: Optional[Mapping[str, Any]]) -> dict:
    """Return a new document with the projection applied.

    Follows Mongo rules: inclusion projections whitelist dotted paths (always
    keeping ``_id`` unless ``_id: 0``); exclusion projections remove paths.
    """
    if not projection:
        return deep_copy_doc(doc)
    include, exclude, id_flag = _split_projection(projection)
    if include:
        out: dict = {}
        if id_flag in (None, 1, True) and "_id" in doc:
            out["_id"] = doc["_id"]
        for path in include:
            value = get_path(doc, path)
            if value is not MISSING:
                set_path(out, path, deep_copy_doc(value))
        return out
    out = deep_copy_doc(doc)
    for path in exclude:
        unset_path(out, path)
    if id_flag in (0, False):
        out.pop("_id", None)
    return out


# -- the grammar -------------------------------------------------------------

scalars = st.one_of(st.integers(-3, 3), st.sampled_from([None, "s", 1.5, True]))
subdocs = st.dictionaries(st.sampled_from(["x", "y"]), scalars, max_size=2)
values = st.one_of(
    scalars, subdocs,
    st.lists(scalars, max_size=3),
    st.lists(subdocs, max_size=2),
    st.lists(st.lists(scalars, max_size=2), max_size=2),
    st.builds(lambda d: {"x": d}, subdocs),
)
documents = st.builds(
    lambda _id, rest: dict({"_id": _id} if _id is not None else {}, **rest),
    st.one_of(st.none(), st.integers(0, 9), subdocs),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), values, max_size=3),
)
paths = st.sampled_from([
    "_id", "a", "b", "c", "a.x", "b.y", "a.x.y", "c.x", "a.0", "b.1.x",
    "_id.x", "d",
])
flags = st.sampled_from([0, 1, True, False, 1.0, 0.0])


def _one_way(flag):
    """Projections of ``flag`` on their fields, ``_id`` kept or dropped."""
    return st.builds(
        lambda fields, id_flag: dict(
            {f: flag for f in fields},
            **({} if id_flag is None else {"_id": id_flag})),
        st.lists(st.one_of(st.sampled_from(["a", "b", "c", "d"]), paths),
                 max_size=3),
        st.sampled_from([None, 0, 1]))


projections = st.one_of(
    st.none(), st.just({}),
    st.dictionaries(paths, flags, max_size=4),
    _one_way(1),  # flat inclusions (the paging shape) and dotted ones
    _one_way(0),
    # Malformed: a bad flag or an empty path component.
    st.builds(lambda ok, bad, flag: dict(ok, **{bad: flag}),
              st.dictionaries(paths, flags, max_size=2),
              st.sampled_from(["a", "", "a..x", "a.", ".a"]),
              st.sampled_from([2, -1, "1", None, 0, 1])),
)


def _containers(value: Any, out: set) -> set:
    if isinstance(value, dict):
        out.add(id(value))
        for v in value.values():
            _containers(v, out)
    elif isinstance(value, list):
        out.add(id(value))
        for v in value:
            _containers(v, out)
    return out


def _reference(doc, projection):
    try:
        return apply_projection(doc, projection), None
    except DocstoreError as exc:
        return None, exc


class TestCompiledProjectionMatchesReference:
    @given(docs=st.lists(documents, min_size=1, max_size=4),
           projection=projections)
    @settings(max_examples=600, deadline=None)
    def test_same_document_same_order_no_sharing(self, docs, projection):
        try:
            project = compile_projection(projection)
        except DocstoreError:
            # Rejected when compiled: the reference rejects every document.
            for doc in docs:
                assert _reference(doc, projection)[1] is not None, projection
            return
        for doc in docs:
            before = repr(doc)
            expected, error = _reference(doc, projection)
            if error is not None:
                # A path collision the generic walk meets in this document.
                with pytest.raises(DocstoreError):
                    project(doc)
                continue
            got = project(doc)
            assert repr(got) == repr(expected), (doc, projection)
            assert repr(doc) == before
            shared = _containers(got, set()) & _containers(doc, set())
            assert not shared, (doc, projection)


class TestMalformedProjectionFailsAtCompile:
    """A malformed projection is rejected before any document is read."""

    BAD = [{"a": 1, "b": 0}, {"a": 2}, {"a..x": 1}, {"": 0}]

    @pytest.mark.parametrize("projection", BAD)
    def test_find_raises_before_iteration(self, projection):
        coll = Collection("empty")
        with pytest.raises(DocstoreError):
            coll.find({}, projection)
        with pytest.raises(DocstoreError):
            coll._find_stored({}, projection)
        with pytest.raises(DocstoreError):
            coll.find_one({}, projection)

    @pytest.mark.parametrize("projection", BAD)
    def test_find_one_and_update_leaves_the_document(self, projection):
        coll = Collection("queue")
        coll.insert_one({"_id": 1, "state": "READY"})
        with pytest.raises(DocstoreError):
            coll.find_one_and_update({"state": "READY"},
                                     {"$set": {"state": "RUNNING"}},
                                     projection=projection)
        assert coll.find_one({"_id": 1})["state"] == "READY"

    def test_find_one_and_update_projects_before_and_after(self):
        coll = Collection("queue")
        coll.insert_one({"_id": 1, "state": "READY", "spec": {"n": 1}})
        before = coll.find_one_and_update(
            {"_id": 1}, {"$set": {"state": "RUNNING"}},
            projection={"state": 1, "_id": 0})
        after = coll.find_one_and_update(
            {"_id": 1}, {"$set": {"spec.n": 2}}, return_document="after",
            projection={"spec": 1})
        assert before == {"state": "READY"}
        assert after == {"_id": 1, "spec": {"n": 2}}
        after["spec"]["n"] = 99  # a private copy
        assert coll.find_one({"_id": 1})["spec"] == {"n": 2}
