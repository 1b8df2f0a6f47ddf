"""Tests for cursors: sort/skip/limit/projection and laziness."""

import time

import pytest

from repro.docstore import Collection
from repro.errors import DocstoreError


@pytest.fixture
def coll():
    c = Collection("materials")
    c.insert_many(
        [
            {"formula": "LiFePO4", "energy": -6.2, "nsites": 28, "meta": {"src": "icsd"}},
            {"formula": "LiCoO2", "energy": -5.9, "nsites": 4, "meta": {"src": "user"}},
            {"formula": "Fe2O3", "energy": -7.1, "nsites": 10, "meta": {"src": "icsd"}},
            {"formula": "NaCl", "energy": -3.2, "nsites": 2, "meta": {"src": "icsd"}},
            {"formula": "Si", "energy": -5.4, "nsites": 2, "meta": {"src": "user"}},
        ]
    )
    return c


class TestSort:
    def test_ascending(self, coll):
        names = [d["formula"] for d in coll.find().sort("energy", 1)]
        assert names[0] == "Fe2O3"
        assert names[-1] == "NaCl"

    def test_descending(self, coll):
        names = [d["formula"] for d in coll.find().sort("energy", -1)]
        assert names[0] == "NaCl"

    def test_compound_sort(self, coll):
        docs = coll.find().sort([("nsites", 1), ("energy", 1)]).to_list()
        assert [d["formula"] for d in docs[:2]] == ["Si", "NaCl"]

    def test_sort_on_nested_field(self, coll):
        docs = coll.find().sort("meta.src", 1).to_list()
        assert docs[0]["meta"]["src"] == "icsd"

    def test_sort_missing_fields_first(self, coll):
        coll.insert_one({"formula": "X"})
        docs = coll.find().sort("energy", 1).to_list()
        assert docs[0]["formula"] == "X"

    def test_invalid_direction(self, coll):
        with pytest.raises(DocstoreError):
            coll.find().sort("energy", 2)


class TestSkipLimit:
    def test_skip(self, coll):
        assert len(coll.find().skip(2).to_list()) == 3

    def test_limit(self, coll):
        assert len(coll.find().limit(2).to_list()) == 2

    def test_skip_limit_paging(self, coll):
        all_names = [d["formula"] for d in coll.find().sort("formula", 1)]
        page1 = [d["formula"] for d in coll.find().sort("formula", 1).limit(2)]
        page2 = [d["formula"] for d in coll.find().sort("formula", 1).skip(2).limit(2)]
        assert page1 + page2 == all_names[:4]

    def test_negative_skip_rejected(self, coll):
        with pytest.raises(DocstoreError):
            coll.find().skip(-1)

    def test_zero_limit_means_unlimited(self, coll):
        assert len(coll.find().limit(0).to_list()) == 5


class TestProjection:
    def test_include(self, coll):
        doc = coll.find({"formula": "Si"}, {"energy": 1}).to_list()[0]
        assert set(doc) == {"_id", "energy"}

    def test_nested_include(self, coll):
        doc = coll.find({"formula": "Si"}, {"meta.src": 1, "_id": 0}).to_list()[0]
        assert doc == {"meta": {"src": "user"}}

    def test_exclude(self, coll):
        doc = coll.find({"formula": "Si"}, {"meta": 0, "_id": 0}).to_list()[0]
        assert "meta" not in doc and "energy" in doc

    def test_mixing_rejected(self, coll):
        with pytest.raises(DocstoreError):
            coll.find({}, {"a": 1, "b": 0}).to_list()


class TestCursorBehaviour:
    def test_lazy_reexecution_sees_new_docs(self, coll):
        cursor = coll.find({"meta.src": "icsd"})
        assert cursor.count() == 3
        coll.insert_one({"formula": "MgO", "meta": {"src": "icsd"}})
        assert cursor.count() == 4

    def test_first(self, coll):
        assert coll.find().sort("energy", 1).first()["formula"] == "Fe2O3"
        assert coll.find({"formula": "Zz"}).first() is None

    def test_getitem(self, coll):
        cursor = coll.find().sort("formula", 1)
        assert cursor[0]["formula"] == "Fe2O3"

    def test_distinct_via_cursor(self, coll):
        assert sorted(coll.find().distinct("meta.src")) == ["icsd", "user"]

    def test_iteration(self, coll):
        count = sum(1 for _ in coll.find())
        assert count == 5


class TestDistinct:
    def test_mongo_equality_and_first_seen_order(self):
        c = Collection("values")
        c.insert_many([{"v": v} for v in [
            1, 1.0, True, "1", {"a": 1, "b": [1, 2]}, {"b": [1, 2], "a": 1.0},
            [[1, 2]], None, {"a": True, "b": [1, 2]}, 2, False, 0,
        ]] + [{"v": [3, 3.0, [1, 2], "x"]}, {"other": 1}])
        assert c.distinct("v") == [
            1, True, "1", {"a": 1, "b": [1, 2]}, [1, 2], None,
            {"a": True, "b": [1, 2]}, 2, False, 0, 3, "x",
        ]

    def test_linear_in_distinct_values(self):
        c = Collection("wide")
        c.insert_many([{"v": i} for i in range(20_000)])
        cursor = c.find()
        t0 = time.perf_counter()
        values = cursor.distinct("v")
        assert time.perf_counter() - t0 < 1.0
        assert values == list(range(20_000))
