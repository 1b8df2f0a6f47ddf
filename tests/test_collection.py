"""Tests for Collection CRUD, indexes, plans, and the atomic queue primitive."""

import threading

import pytest

from repro.docstore import Collection, DocumentStore, ObjectId
from repro.errors import DocstoreError, DuplicateKeyError


@pytest.fixture
def coll():
    return Collection("tasks")


@pytest.fixture
def populated():
    c = Collection("engines")
    c.insert_many(
        [
            {"job": i, "state": "WAITING", "priority": i % 3,
             "elements": ["Li", "O"] if i % 2 == 0 else ["Na", "S"],
             "nelectrons": 50 * i}
            for i in range(10)
        ]
    )
    return c


class TestInsert:
    def test_assigns_objectid(self, coll):
        result = coll.insert_one({"x": 1})
        assert isinstance(result.inserted_id, ObjectId)
        assert len(coll) == 1

    def test_respects_custom_id(self, coll):
        coll.insert_one({"_id": "task-1", "x": 1})
        assert coll.find_one({"_id": "task-1"})["x"] == 1

    def test_duplicate_id_rejected(self, coll):
        coll.insert_one({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            coll.insert_one({"_id": 1})

    def test_insert_many(self, coll):
        result = coll.insert_many([{"i": i} for i in range(5)])
        assert len(result.inserted_ids) == 5
        assert len(coll) == 5

    def test_caller_mutation_isolated(self, coll):
        doc = {"nested": {"v": 1}}
        coll.insert_one(doc)
        doc["nested"]["v"] = 999
        assert coll.find_one({})["nested"]["v"] == 1

    def test_returned_doc_mutation_isolated(self, coll):
        coll.insert_one({"nested": {"v": 1}})
        out = coll.find_one({})
        out["nested"]["v"] = 999
        assert coll.find_one({})["nested"]["v"] == 1

    def test_invalid_document_rejected(self, coll):
        with pytest.raises(DocstoreError):
            coll.insert_one({"bad": object()})

    def test_non_mapping_rejected(self, coll):
        with pytest.raises(DocstoreError):
            coll.insert_one([1, 2])

    def test_stored_documents_share_field_names(self, coll):
        # Two wire requests decode to two copies of every key string; the
        # stored documents keep one (and a bad key is still a DocstoreError).
        from repro.docstore import document_from_json

        text = '{"spec": {"formula_pretty": "Fe2O3"}, "sites": [{"abc_frac": 1}]}'
        coll.insert_many([document_from_json(text), document_from_json(text)])
        a, b = coll._docs.values()
        for x, y in ((a, b), (a["spec"], b["spec"]),
                     (a["sites"][0], b["sites"][0])):
            assert all(k1 is k2 for k1, k2 in zip(x, y))
        with pytest.raises(DocstoreError):
            coll.insert_one({"nested": {1: "non-string key"}})


class TestFind:
    def test_find_all(self, populated):
        assert len(populated.find().to_list()) == 10

    def test_find_with_query(self, populated):
        docs = populated.find({"elements": "Li"}).to_list()
        assert len(docs) == 5

    def test_paper_query(self, populated):
        docs = populated.find(
            {"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}
        ).to_list()
        assert sorted(d["job"] for d in docs) == [0, 2, 4]

    def test_find_one_none_when_empty(self, coll):
        assert coll.find_one({"x": 1}) is None

    def test_projection_include(self, populated):
        doc = populated.find_one({"job": 3}, {"state": 1})
        assert set(doc) == {"_id", "state"}

    def test_projection_exclude_id(self, populated):
        doc = populated.find_one({"job": 3}, {"state": 1, "_id": 0})
        assert set(doc) == {"state"}

    def test_count(self, populated):
        assert populated.count_documents() == 10
        assert populated.count_documents({"priority": 0}) == 4

    def test_distinct(self, populated):
        assert sorted(populated.distinct("priority")) == [0, 1, 2]
        assert sorted(populated.distinct("elements")) == ["Li", "Na", "O", "S"]

    def test_distinct_value_mutation_isolated(self, coll):
        coll.insert_many([{"spec": {"ecut": 520, "kpts": [4, 4, 4]}},
                          {"spec": {"ecut": 520, "kpts": [4, 4, 4]}}])
        (spec,) = coll.distinct("spec")
        spec["ecut"] = 0
        spec["kpts"].append(9)
        assert coll.distinct("spec") == [{"ecut": 520, "kpts": [4, 4, 4]}]
        assert all(d["spec"]["kpts"] == [4, 4, 4] for d in coll._docs.values())


class TestUpdate:
    def test_update_one(self, populated):
        r = populated.update_one({"job": 3}, {"$set": {"state": "RUNNING"}})
        assert (r.matched_count, r.modified_count) == (1, 1)
        assert populated.find_one({"job": 3})["state"] == "RUNNING"

    def test_update_many(self, populated):
        r = populated.update_many({"priority": 0}, {"$inc": {"nelectrons": 1}})
        assert r.matched_count == 4

    def test_update_no_match(self, populated):
        r = populated.update_one({"job": 99}, {"$set": {"state": "X"}})
        assert r.matched_count == 0

    def test_noop_update_not_counted_modified(self, populated):
        r = populated.update_one({"job": 3}, {"$set": {"state": "WAITING"}})
        assert (r.matched_count, r.modified_count) == (1, 0)

    def test_upsert_inserts(self, coll):
        r = coll.update_one({"name": "Fe2O3"}, {"$set": {"energy": -5.0}}, upsert=True)
        assert r.upserted_id is not None
        doc = coll.find_one({"name": "Fe2O3"})
        assert doc["energy"] == -5.0

    def test_upsert_set_on_insert(self, coll):
        coll.update_one(
            {"k": 1},
            {"$setOnInsert": {"created": True}, "$set": {"v": 1}},
            upsert=True,
        )
        coll.update_one(
            {"k": 1},
            {"$setOnInsert": {"created2": True}, "$set": {"v": 2}},
            upsert=True,
        )
        doc = coll.find_one({"k": 1})
        assert doc["created"] is True
        assert "created2" not in doc
        assert doc["v"] == 2

    def test_replace_one(self, populated):
        populated.replace_one({"job": 3}, {"fresh": True})
        doc = populated.find_one({"fresh": True})
        assert "state" not in doc

    def test_update_cannot_change_id(self, populated):
        with pytest.raises(DocstoreError):
            populated.replace_one({"job": 3}, {"_id": "changed"})


class TestDelete:
    def test_delete_one(self, populated):
        assert populated.delete_one({"priority": 0}).deleted_count == 1
        assert populated.count_documents() == 9

    def test_delete_many(self, populated):
        assert populated.delete_many({"priority": 0}).deleted_count == 4

    def test_delete_all(self, populated):
        assert populated.delete_many().deleted_count == 10
        assert len(populated) == 0

    def test_find_one_and_delete(self, populated):
        doc = populated.find_one_and_delete({"job": 5})
        assert doc["job"] == 5
        assert populated.count_documents({"job": 5}) == 0


class TestAtomicClaim:
    """find_one_and_update is the task-queue primitive (§III-B2)."""

    def test_claim_flips_state(self, populated):
        claimed = populated.find_one_and_update(
            {"state": "WAITING"},
            {"$set": {"state": "RUNNING"}},
            sort=[("priority", -1)],
            return_document="after",
        )
        assert claimed["state"] == "RUNNING"
        assert claimed["priority"] == 2  # highest priority first

    def test_returns_none_when_no_match(self, coll):
        assert coll.find_one_and_update({"state": "WAITING"}, {"$set": {"a": 1}}) is None

    def test_return_before(self, populated):
        before = populated.find_one_and_update(
            {"job": 1}, {"$set": {"state": "RUNNING"}}, return_document="before"
        )
        assert before["state"] == "WAITING"

    def test_concurrent_claims_never_double_claim(self):
        coll = Collection("queue")
        coll.insert_many([{"job": i, "state": "WAITING"} for i in range(50)])
        claimed = []
        lock = threading.Lock()

        def worker(wid):
            while True:
                doc = coll.find_one_and_update(
                    {"state": "WAITING"},
                    {"$set": {"state": "RUNNING"}},
                    return_document="after",
                )
                if doc is None:
                    return
                with lock:
                    claimed.append((wid, doc["job"]))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        jobs = [j for _, j in claimed]
        assert sorted(jobs) == list(range(50))  # every job claimed exactly once

    def test_upsert_claim(self, coll):
        doc = coll.find_one_and_update(
            {"singleton": "lock"},
            {"$set": {"holder": "w1"}},
            upsert=True,
            return_document="after",
        )
        assert doc["holder"] == "w1"
        assert doc["singleton"] == "lock"


class TestIndexes:
    def test_index_used_for_equality(self, populated):
        populated.create_index("state")
        populated.find({"state": "WAITING"}).to_list()
        assert populated.last_plan.kind == "IXSCAN"

    def test_collscan_without_index(self, populated):
        populated.find({"state": "WAITING"}).to_list()
        assert populated.last_plan.kind == "COLLSCAN"

    def test_index_results_match_scan(self, populated):
        before = {d["_id"].hex() for d in populated.find({"nelectrons": {"$gte": 200}})}
        populated.create_index("nelectrons")
        after = {d["_id"].hex() for d in populated.find({"nelectrons": {"$gte": 200}})}
        assert before == after
        assert populated.last_plan.kind == "IXSCAN"

    def test_multikey_index_on_array(self, populated):
        populated.create_index("elements")
        docs = populated.find({"elements": "Li"}).to_list()
        assert len(docs) == 5
        assert populated.last_plan.kind == "IXSCAN"

    def test_index_maintained_on_update(self, populated):
        populated.create_index("state")
        populated.update_many({"priority": 1}, {"$set": {"state": "DONE"}})
        docs = populated.find({"state": "DONE"}).to_list()
        assert len(docs) == 3

    def test_index_maintained_on_delete(self, populated):
        populated.create_index("job")
        populated.delete_one({"job": 4})
        assert populated.find({"job": 4}).to_list() == []
        assert populated.find({"job": 5}).to_list() != []

    def test_unique_index_blocks_duplicates(self, coll):
        coll.create_index("task_id", unique=True)
        coll.insert_one({"task_id": "t1"})
        with pytest.raises(DuplicateKeyError):
            coll.insert_one({"task_id": "t1"})
        assert len(coll) == 1

    def test_unique_index_backfill_failure_rolls_back(self, coll):
        coll.insert_many([{"k": 1}, {"k": 1}])
        with pytest.raises(DuplicateKeyError):
            coll.create_index("k", unique=True)
        assert "k_1" not in coll.index_information()

    def test_unique_allows_missing_fields(self, coll):
        coll.create_index("opt", unique=True)
        coll.insert_many([{"a": 1}, {"a": 2}])  # both missing "opt"
        assert len(coll) == 2

    def test_in_query_uses_index(self, populated):
        populated.create_index("priority")
        docs = populated.find({"priority": {"$in": [0, 2]}}).to_list()
        assert populated.last_plan.kind == "IXSCAN"
        assert len(docs) == 7

    def test_explain(self, populated):
        populated.create_index("job")
        info = populated.explain({"job": 3})
        assert info["stage"] == "IXSCAN"
        assert info["nReturned"] == 1

    def test_drop_index(self, populated):
        name = populated.create_index("state")
        populated.drop_index(name)
        populated.find({"state": "WAITING"}).to_list()
        assert populated.last_plan.kind == "COLLSCAN"


class TestStatsAndAggregates:
    def test_stats(self, populated):
        s = populated.stats()
        assert s["count"] == 10
        assert s["avgObjSize"] > 0

    def test_aggregate_smoke(self, populated):
        rows = populated.aggregate(
            [
                {"$match": {"elements": "Li"}},
                {"$group": {"_id": "$priority", "n": {"$sum": 1}}},
                {"$sort": {"_id": 1}},
            ]
        )
        assert sum(r["n"] for r in rows) == 5

    def test_map_reduce_smoke(self, populated):
        rows = populated.map_reduce(
            mapper=lambda d: [(d["state"], 1)],
            reducer=lambda k, vs: sum(vs),
        )
        assert rows[0] == {"_id": "WAITING", "value": 10}


class TestDatabaseNamespace:
    def test_lazy_collection_creation(self):
        store = DocumentStore()
        db = store["mp"]
        db["tasks"].insert_one({"x": 1})
        assert db.list_collection_names() == ["tasks"]
        assert store.list_database_names() == ["mp"]

    def test_attribute_access(self):
        store = DocumentStore()
        store.mp.materials.insert_one({"formula": "Fe2O3"})
        assert store["mp"]["materials"].count_documents() == 1

    def test_drop_collection(self):
        store = DocumentStore()
        store.mp.tasks.insert_one({"x": 1})
        store.mp.drop_collection("tasks")
        assert store.mp.tasks.count_documents() == 0

    def test_profiling_records_queries(self):
        store = DocumentStore()
        db = store["mp"]
        db.set_profiling_level(1)
        db.tasks.insert_one({"x": 1})
        db.tasks.find({"x": 1}).to_list()
        log = db.profile_log
        assert len(log) == 1
        assert log[0]["op"] == "find"
        assert log[0]["millis"] >= 0
        assert log[0]["nreturned"] == 1

    def test_dbstats(self):
        store = DocumentStore()
        store.mp.a.insert_one({})
        store.mp.b.insert_many([{}, {}])
        stats = store.mp.command_stats()
        assert stats["objects"] == 3
        assert stats["collections"] == 2
