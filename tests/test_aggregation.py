"""Tests for the aggregation pipeline (the builder's selection/grouping/projection)."""

import threading
import time

import pytest

from repro.docstore import Collection, DocumentStore, run_pipeline
from repro.errors import OperationKilled, QuerySyntaxError


@pytest.fixture
def tasks():
    c = Collection("tasks")
    c.insert_many(
        [
            {"mps_id": "mps-1", "energy": -5.0, "converged": True, "code": "vasp",
             "elements": ["Li", "O"]},
            {"mps_id": "mps-1", "energy": -5.2, "converged": True, "code": "vasp",
             "elements": ["Li", "O"]},
            {"mps_id": "mps-2", "energy": -3.1, "converged": False, "code": "vasp",
             "elements": ["Na", "Cl"]},
            {"mps_id": "mps-2", "energy": -3.3, "converged": True, "code": "aflow",
             "elements": ["Na", "Cl"]},
            {"mps_id": "mps-3", "energy": -7.7, "converged": True, "code": "vasp",
             "elements": ["Fe", "O"]},
        ]
    )
    return c


class TestMatchGroup:
    def test_group_best_energy_per_mps(self, tasks):
        """The materials-builder shape: group tasks by MPS id, pick best."""
        rows = tasks.aggregate(
            [
                {"$match": {"converged": True}},
                {"$group": {"_id": "$mps_id", "best": {"$min": "$energy"},
                            "n_tasks": {"$sum": 1}}},
                {"$sort": {"_id": 1}},
            ]
        )
        assert rows == [
            {"_id": "mps-1", "best": -5.2, "n_tasks": 2},
            {"_id": "mps-2", "best": -3.3, "n_tasks": 1},
            {"_id": "mps-3", "best": -7.7, "n_tasks": 1},
        ]

    def test_group_avg(self, tasks):
        rows = tasks.aggregate(
            [{"$group": {"_id": None, "avg": {"$avg": "$energy"}}}]
        )
        assert rows[0]["avg"] == pytest.approx(-4.86)

    def test_group_push_and_add_to_set(self, tasks):
        rows = tasks.aggregate(
            [
                {"$group": {"_id": "$mps_id", "codes": {"$addToSet": "$code"},
                            "energies": {"$push": "$energy"}}},
                {"$sort": {"_id": 1}},
            ]
        )
        assert sorted(rows[1]["codes"]) == ["aflow", "vasp"]
        assert rows[0]["energies"] == [-5.0, -5.2]

    def test_group_first_last(self, tasks):
        rows = tasks.aggregate(
            [
                {"$sort": {"energy": 1}},
                {"$group": {"_id": None, "lowest": {"$first": "$energy"},
                            "highest": {"$last": "$energy"}}},
            ]
        )
        assert rows[0] == {"_id": None, "lowest": -7.7, "highest": -3.1}

    def test_group_requires_id(self, tasks):
        with pytest.raises(QuerySyntaxError):
            tasks.aggregate([{"$group": {"n": {"$sum": 1}}}])


class TestProjectUnwind:
    def test_project_computed(self, tasks):
        rows = tasks.aggregate(
            [
                {"$match": {"mps_id": "mps-1"}},
                {"$project": {"_id": 0, "e_mev": {"$multiply": ["$energy", 1000]}}},
            ]
        )
        assert rows[0]["e_mev"] == -5000.0

    def test_project_include(self, tasks):
        rows = tasks.aggregate([{"$project": {"mps_id": 1, "_id": 0}}])
        assert all(set(r) == {"mps_id"} for r in rows)

    def test_unwind(self, tasks):
        rows = tasks.aggregate(
            [
                {"$unwind": "$elements"},
                {"$group": {"_id": "$elements", "n": {"$sum": 1}}},
                {"$sort": {"n": -1, "_id": 1}},
            ]
        )
        assert rows[0] == {"_id": "O", "n": 3}

    def test_unwind_preserve_empty(self):
        docs = [{"a": []}, {"a": [1]}]
        out = run_pipeline(docs, [{"$unwind": {"path": "$a", "preserveNullAndEmptyArrays": True}}])
        assert len(out) == 2

    def test_add_fields(self, tasks):
        rows = tasks.aggregate(
            [{"$addFields": {"abs_e": {"$abs": "$energy"}}},
             {"$match": {"mps_id": "mps-3"}}]
        )
        assert rows[0]["abs_e"] == 7.7
        assert rows[0]["energy"] == -7.7  # original retained

    def test_cond_and_ifnull(self):
        docs = [{"gap": 0.0}, {"gap": 2.1}, {}]
        out = run_pipeline(
            docs,
            [{"$project": {
                "kind": {"$cond": {"if": {"$gt": [{"$ifNull": ["$gap", 0]}, 0.5]},
                                    "then": "insulator", "else": "metal"}}}}],
        )
        assert [r["kind"] for r in out] == ["metal", "insulator", "metal"]


class TestPipelineShape:
    def test_sort_skip_limit_count(self, tasks):
        rows = tasks.aggregate(
            [{"$sort": {"energy": 1}}, {"$skip": 1}, {"$limit": 2}, {"$count": "n"}]
        )
        assert rows == [{"n": 2}]

    def test_lookup(self):
        store = DocumentStore()
        db = store["mp"]
        db.mps.insert_many([{"mps_id": "m1", "formula": "LiFePO4"}])
        db.tasks.insert_many([{"mps_id": "m1", "energy": -5.0}])
        rows = db.tasks.aggregate(
            [{"$lookup": {"from": "mps", "localField": "mps_id",
                          "foreignField": "mps_id", "as": "source"}}]
        )
        assert rows[0]["source"][0]["formula"] == "LiFePO4"

    def test_sample(self, tasks):
        rows = tasks.aggregate([{"$sample": {"size": 2, "seed": 42}}])
        assert len(rows) == 2

    def test_unknown_stage(self, tasks):
        with pytest.raises(QuerySyntaxError):
            tasks.aggregate([{"$explode": {}}])

    def test_stage_must_be_single_key(self, tasks):
        with pytest.raises(QuerySyntaxError):
            tasks.aggregate([{"$match": {}, "$sort": {}}])

    def test_concat_tolower(self):
        docs = [{"a": "Fe", "b": "O"}]
        out = run_pipeline(
            docs,
            [{"$project": {"s": {"$toLower": {"$concat": ["$a", "-", "$b"]}}}}],
        )
        assert out[0]["s"] == "fe-o"

    def test_divide_by_zero_raises(self):
        with pytest.raises(QuerySyntaxError):
            run_pipeline([{"a": 1}], [{"$project": {"x": {"$divide": ["$a", 0]}}}])


class TestAggregationProperties:
    """$group must agree with a plain-Python groupby reference."""

    def test_group_sum_matches_reference(self):
        import itertools
        import random

        rng = random.Random(7)
        docs = [
            {"g": rng.choice("abcd"), "v": rng.randint(-10, 10)}
            for _ in range(200)
        ]
        rows = run_pipeline(
            docs,
            [{"$group": {"_id": "$g", "total": {"$sum": "$v"},
                         "n": {"$sum": 1}}}],
        )
        got = {r["_id"]: (r["total"], r["n"]) for r in rows}
        want = {}
        for key, group in itertools.groupby(
            sorted(docs, key=lambda d: d["g"]), key=lambda d: d["g"]
        ):
            values = [d["v"] for d in group]
            want[key] = (sum(values), len(values))
        assert got == want

    def test_match_then_group_equals_filter_then_group(self):
        docs = [{"g": i % 3, "v": i} for i in range(60)]
        via_pipeline = run_pipeline(
            docs,
            [{"$match": {"v": {"$gte": 30}}},
             {"$group": {"_id": "$g", "n": {"$sum": 1}}},
             {"$sort": {"_id": 1}}],
        )
        manual = run_pipeline(
            [d for d in docs if d["v"] >= 30],
            [{"$group": {"_id": "$g", "n": {"$sum": 1}}},
             {"$sort": {"_id": 1}}],
        )
        assert via_pipeline == manual

    def test_unwind_group_roundtrip_counts(self):
        docs = [{"tags": ["a", "b"]}, {"tags": ["a"]}, {"tags": []}]
        rows = run_pipeline(
            docs,
            [{"$unwind": "$tags"},
             {"$group": {"_id": "$tags", "n": {"$sum": 1}}},
             {"$sort": {"_id": 1}}],
        )
        assert rows == [{"_id": "a", "n": 2}, {"_id": "b", "n": 1}]


# -- stored documents feed the stages by reference --------------------------


def _vandalize(value):
    """Mutate every dict and list reachable from ``value``."""
    if isinstance(value, dict):
        for v in list(value.values()):
            _vandalize(v)
        value["vandal"] = True
    elif isinstance(value, list):
        for v in list(value):
            _vandalize(v)
        value.append("vandal")


@pytest.fixture
def nested():
    store = DocumentStore()
    db = store["mp"]
    db.nested.create_index("k")
    db.nested.insert_many([
        {"_id": i, "k": i, "sub": {"x": [i, i + 1], "y": {"z": i}}}
        for i in range(4)
    ])
    db.side.insert_many([{"k": i, "extra": {"w": [i]}} for i in range(4)])
    return db


ISOLATION_PIPELINES = {
    "match": [{"$match": {"k": {"$gte": 1}}}],
    "limit": [{"$limit": 2}],
    "skip": [{"$skip": 1}],
    "sort": [{"$sort": {"k": -1}}],
    "sample": [{"$sample": {"size": 2, "seed": 3}}],
    "group_push_first_max": [{"$group": {
        "_id": None, "pushed": {"$push": "$sub"},
        "first": {"$first": "$sub"}, "max": {"$max": "$sub"}}}],
    "group_id_subdoc": [{"$group": {"_id": "$sub.y"}}],
    "project_computed": [{"$project": {"s": "$sub", "y": "$sub.y"}}],
    "add_fields_computed": [{"$addFields": {"s": "$sub"}}],
    "lookup": [{"$lookup": {"from": "side", "localField": "k",
                            "foreignField": "k", "as": "joined"}}],
}


class TestResultIsolation:
    """A caller mutating what ``aggregate`` returned never reaches the
    store, whatever stage passed a stored reference through."""

    @pytest.mark.parametrize("name", sorted(ISOLATION_PIPELINES))
    def test_mutating_result_leaves_store_unchanged(self, nested, name):
        before = {c: nested[c].all_documents() for c in ("nested", "side")}
        rows = nested.nested.aggregate(ISOLATION_PIPELINES[name])
        assert rows
        _vandalize(rows)
        for c, docs in before.items():
            assert nested[c].all_documents() == docs, c
        # A second run sees the stored documents, not the vandalized rows.
        assert "vandal" not in repr(
            nested.nested.aggregate(ISOLATION_PIPELINES[name]))

    def test_stages_write_only_into_their_own_documents(self, nested):
        before = nested.nested.all_documents()
        rows = nested.nested.aggregate([
            {"$group": {"_id": "$sub.y"}},
            {"$project": {"_id.extra": {"$literal": 1}}},
        ])
        assert all(row["_id"]["extra"] == 1 for row in rows)
        assert nested.nested.all_documents() == before

    @pytest.mark.parametrize("stage", ["$project", "$addFields"])
    def test_path_collision_rejected(self, nested, stage):
        before = nested.nested.all_documents()
        with pytest.raises(QuerySyntaxError, match="path collision"):
            nested.nested.aggregate(
                [{stage: {"s": "$sub", "s.w": {"$literal": 1}}}])
        assert nested.nested.all_documents() == before

    def test_leading_match_keeps_insertion_order(self, nested):
        # The k_1 scan yields _id 1, 2, 3, 0; $first/$push must still see
        # insertion order, as they did over a collection snapshot.
        coll = nested.nested
        coll.update_one({"_id": 0}, {"$set": {"k": 9}})
        pipeline = [{"$match": {"k": {"$gte": 1}}},
                    {"$group": {"_id": None, "ids": {"$push": "$_id"},
                                "first": {"$first": "$_id"}}}]
        assert coll.aggregate(pipeline) == run_pipeline(
            coll.all_documents(), pipeline)
        assert coll.aggregate(pipeline)[0]["ids"] == [0, 1, 2, 3]


class TestAggregateIntrospection:
    def test_listed_in_current_op_and_killable(self):
        store = DocumentStore()
        coll = store["mp"]["m"]
        coll.insert_many([{"i": i} for i in range(10)])
        errors = []

        def run():
            try:
                coll.aggregate([{"$match": {"i": {"$gte": 0}}},
                                {"$count": "n"}])
            except Exception as exc:
                errors.append(exc)

        worker = threading.Thread(target=run)
        with coll._lock.write():
            worker.start()
            deadline = time.monotonic() + 5
            ops = []
            while not ops and time.monotonic() < deadline:
                ops = [o for o in store.current_op() if o["op"] == "aggregate"]
                time.sleep(0.001)
            assert ops, "aggregate never appeared in current_op()"
            assert ops[0]["ns"] == "mp.m"
            assert store.kill_op(ops[0]["opid"])
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], OperationKilled)
        assert store.current_op() == []

    def test_explain_and_profile_report_the_plan(self):
        store = DocumentStore()
        db = store["mp"]
        coll = db["materials"]
        coll.create_index("chemical_system")
        coll.insert_many([{"chemical_system": cs, "n": i}
                          for i, cs in enumerate(["Li-O", "Fe-O"] * 10)])
        pipeline = [{"$match": {"chemical_system": "Li-O"}},
                    {"$group": {"_id": None, "n": {"$sum": 1}}}]
        cursor, match, group = coll.aggregate(pipeline, explain=True)["stages"]
        assert cursor["stage"] == "$cursor"
        assert cursor["planSummary"] == "IXSCAN { chemical_system: 1 }"
        assert cursor["docsExamined"] == cursor["docs_in"] == 10
        assert cursor["keysExamined"] == 10 and cursor["docs_out"] == 10
        assert (match["stage"], match["docs_in"], match["docs_out"]) == (
            "$match", 10, 10)
        assert group["docs_in"] == 10 and group["docs_out"] == 1
        db.set_profiling_level(2)
        coll.aggregate(pipeline)
        entry = [e for e in db.profile_log if e["op"] == "aggregate"][-1]
        assert entry["planSummary"] == "IXSCAN { chemical_system: 1 }"
        assert entry["docsExamined"] == 10
