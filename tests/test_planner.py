"""Tests for the cost-based query planner: compound indexes, plan racing,
the shape-keyed plan cache, covered queries, hint(), and sort push-down."""

import pytest

from repro.docstore import (
    Collection,
    DocumentStore,
    canonical_shape,
    normalize_index_spec,
)
from repro.errors import DocstoreError


@pytest.fixture
def materials():
    c = Collection("materials")
    c.insert_many([
        {
            "formula": f"F{i % 20}",
            "e_above_hull": (i * 7 % 100) / 100.0,
            "band_gap": (i * 13 % 80) / 10.0,
            "nsites": i % 11,
        }
        for i in range(500)
    ])
    return c


class TestNormalizeIndexSpec:
    def test_string_is_single_ascending(self):
        assert normalize_index_spec("formula") == [("formula", 1)]

    def test_pairs_keep_order_and_direction(self):
        spec = [("formula", 1), ("e_above_hull", -1)]
        assert normalize_index_spec(spec) == spec

    def test_bad_direction_rejected(self):
        with pytest.raises(DocstoreError):
            normalize_index_spec([("formula", 2)])

    def test_duplicate_field_rejected(self):
        with pytest.raises(DocstoreError):
            normalize_index_spec([("a", 1), ("a", -1)])


class TestCompoundSelection:
    def test_full_key_equality_uses_index(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        docs = materials.find(
            {"formula": "F3", "e_above_hull": 0.21}
        ).to_list()
        plan = materials.last_plan
        assert plan.kind == "IXSCAN"
        assert plan.index_name == "formula_1_e_above_hull_-1"
        for d in docs:
            assert d["formula"] == "F3" and d["e_above_hull"] == 0.21

    def test_prefix_only_query_uses_compound(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        docs = materials.find({"formula": "F3"}).to_list()
        plan = materials.last_plan
        assert plan.kind == "IXSCAN"
        assert docs and all(d["formula"] == "F3" for d in docs)
        # Prefix scan examines only the formula=F3 block, not the table.
        assert plan.keys_examined < 500

    def test_suffix_only_query_cannot_use_prefix(self, materials):
        """A predicate on the second key alone has no usable prefix."""
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        explain = materials.explain({"e_above_hull": 0.21})
        assert explain["stage"] == "COLLSCAN"

    def test_full_key_beats_prefix_when_both_exist(self, materials):
        materials.create_index("formula")
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        explain = materials.explain(
            {"formula": "F3", "e_above_hull": 0.21}
        )
        assert explain["index"] == "formula_1_e_above_hull_-1"
        assert any(r["planSummary"] == "IXSCAN { formula: 1 }"
                   for r in explain["rejectedPlans"])

    def test_equality_plus_range_on_trailing_key(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        docs = materials.find(
            {"formula": "F3", "e_above_hull": {"$lt": 0.5}}
        ).to_list()
        plan = materials.last_plan
        assert plan.kind == "IXSCAN"
        assert docs and all(
            d["formula"] == "F3" and d["e_above_hull"] < 0.5 for d in docs
        )

    def test_results_match_collscan(self, materials):
        query = {"formula": "F7", "e_above_hull": {"$gte": 0.2}}
        expected = sorted(
            d["nsites"] for d in materials.find(query).to_list()
        )
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        got = sorted(d["nsites"] for d in materials.find(query).to_list())
        assert got == expected


class TestSortPushDown:
    def test_index_provides_sort_order(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        explain = materials.explain(
            {"formula": "F3"}, sort=[("e_above_hull", -1)]
        )
        assert explain["stage"] == "IXSCAN"
        assert explain["providesSort"] is True
        assert explain["blockingSort"] is False

    def test_reverse_scan_serves_opposite_direction(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        docs = materials.find({"formula": "F3"}).sort(
            [("e_above_hull", 1)]
        ).to_list()
        hulls = [d["e_above_hull"] for d in docs]
        assert hulls == sorted(hulls)
        assert materials.last_plan.provides_sort

    def test_mixed_direction_mismatch_needs_blocking_sort(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        explain = materials.explain(
            {"formula": "F3"},
            sort=[("e_above_hull", -1), ("band_gap", 1)],
        )
        assert explain["blockingSort"] is True

    def test_sorted_results_match_blocking_sort(self, materials):
        spec = [("e_above_hull", -1)]
        expected = [d["nsites"] for d in
                    materials.find({"formula": "F3"}).sort(spec).to_list()]
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        got = [d["nsites"] for d in
               materials.find({"formula": "F3"}).sort(spec).to_list()]
        assert got == expected


class TestSkipOnKeys:
    """A sorted page over an index passes over its skip as index keys:
    ``keysExamined`` = skip + returned, ``docsExamined`` = returned."""

    PAGE = {"e_above_hull": 1, "nsites": 1, "_id": 0}

    @pytest.fixture
    def db(self, materials):
        store = DocumentStore()
        db = store["mp"]
        db["materials"].insert_many(materials.find({}, {"_id": 0}).to_list())
        db["materials"].create_index("e_above_hull")
        db.set_profiling_level(2)
        return db

    def _page(self, db, sort, skip, limit, query=None):
        coll = db["materials"]
        docs = coll.find(query or {}, self.PAGE).sort(sort).skip(skip) \
            .limit(limit).to_list()
        entry = [e for e in db.profile_log if e["op"] == "find"][-1]
        twin = coll.find(query or {}, self.PAGE, hint="$natural") \
            .sort(sort).to_list()[skip:skip + limit]
        assert [d["e_above_hull"] for d in docs] == \
            [d["e_above_hull"] for d in twin]
        explain = coll.explain(query or {}, sort=sort, projection=self.PAGE,
                               skip=skip, limit=limit)
        return docs, entry, explain

    @pytest.mark.parametrize("direction", [1, -1])
    def test_page_examines_only_what_it_returns(self, db, direction):
        docs, entry, explain = self._page(
            db, [("e_above_hull", direction)], 300, 50)
        assert len(docs) == 50
        for report in (entry, explain):
            assert report["keysExamined"] == 350, report
            assert report["docsExamined"] == 50, report
        assert explain["nReturned"] == 50
        assert explain["planSummary"] == "IXSCAN { e_above_hull: 1 }"

    def test_skip_past_the_end_fetches_nothing(self, db):
        docs, entry, explain = self._page(db, [("e_above_hull", 1)], 800, 50)
        assert docs == []
        for report in (entry, explain):
            assert report["keysExamined"] == 500, report
            assert report["docsExamined"] == 0, report

    def test_a_filter_fetches_the_skipped_documents(self, db):
        _docs, entry, explain = self._page(
            db, [("e_above_hull", 1)], 20, 10, query={"nsites": 3})
        for report in (entry, explain):
            assert report["docsExamined"] == report["keysExamined"] > 30

    def test_a_blocking_sort_fetches_everything(self, db):
        _docs, entry, explain = self._page(db, [("nsites", 1)], 300, 50)
        for report in (entry, explain):
            assert report["docsExamined"] == 500, report


class TestCoveredQueries:
    def test_covered_with_id_suppressed(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        docs = materials.find(
            {"formula": "F3"}, {"formula": 1, "e_above_hull": 1, "_id": 0}
        ).to_list()
        plan = materials.last_plan
        assert plan.covered is True
        assert plan.candidates_examined == 0  # no document fetches
        assert docs
        for d in docs:
            assert set(d) == {"formula", "e_above_hull"}
            assert d["formula"] == "F3"

    def test_not_covered_when_id_included(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        materials.find({"formula": "F3"},
                       {"formula": 1, "e_above_hull": 1}).to_list()
        assert materials.last_plan.covered is False

    def test_covered_results_match_fetched(self, materials):
        query = {"formula": "F9"}
        projection = {"formula": 1, "e_above_hull": 1, "_id": 0}
        expected = sorted(
            (d["e_above_hull"] for d in
             materials.find(query, projection).to_list())
        )
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        got = sorted(
            d["e_above_hull"] for d in
            materials.find(query, projection).to_list()
        )
        assert got == expected

    def test_multikey_index_never_covers(self):
        c = Collection("arrays")
        c.insert_many([{"tags": ["a", "b"], "n": i} for i in range(10)])
        c.create_index("tags")
        c.find({"tags": "a"}, {"tags": 1, "_id": 0}).to_list()
        assert c.last_plan.covered is False


class TestPlanCache:
    def test_second_identical_shape_hits(self, materials):
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        materials.find({"formula": "F1"}).to_list()
        materials.find({"formula": "F2"}).to_list()  # same shape, new value
        stats = materials.plan_cache_stats()
        assert stats["hits"] >= 1
        assert materials.last_plan.cache == "hit"

    def test_shape_distinguishes_operators(self, materials):
        materials.create_index("formula")
        assert canonical_shape({"formula": "F1"}, None, None) != \
            canonical_shape({"formula": {"$gt": "F1"}}, None, None)
        assert canonical_shape({"formula": "F1"}, None, None) == \
            canonical_shape({"formula": "F2"}, None, None)

    def test_create_index_invalidates(self, materials):
        materials.create_index("formula")
        materials.find({"formula": "F1"}).to_list()
        before = materials.plan_cache_stats()
        assert before["size"] == 1
        materials.create_index([("formula", 1), ("band_gap", 1)])
        after = materials.plan_cache_stats()
        assert after["size"] == 0
        assert after["invalidations"] > before["invalidations"]
        # Replanning after the invalidation picks the better new index.
        materials.find({"formula": "F1", "band_gap": 2.0}).to_list()
        assert materials.last_plan.index_name == "formula_1_band_gap_1"

    def test_drop_index_invalidates_and_replans(self, materials):
        materials.create_index("formula")
        materials.find({"formula": "F1"}).to_list()
        assert materials.last_plan.kind == "IXSCAN"
        materials.drop_index("formula_1")
        materials.find({"formula": "F1"}).to_list()
        assert materials.last_plan.kind == "COLLSCAN"

    def test_replan_after_distribution_shift(self):
        """A cached plan that turns unproductive is evicted and replanned."""
        c = Collection("shift")
        c.insert_many([{"grp": i % 5, "flag": 0} for i in range(200)])
        c.create_index("grp")
        c.create_index("flag")
        # Cache a winner for the {grp, flag} shape while 'flag' is
        # perfectly selective for flag=1 (zero entries).
        c.find({"grp": 1, "flag": 1}).to_list()
        cached_index = c.last_plan.index_name
        assert cached_index == "flag_1"
        # Distribution shift: flag=1 becomes universal, so the cached
        # flag index now examines every document for the same shape.
        c.update_many({}, {"$set": {"flag": 1}})
        for _ in range(4):
            c.find({"grp": 1, "flag": 1}).to_list()
        assert c.plan_cache_stats()["replans"] >= 1
        c.find({"grp": 1, "flag": 1}).to_list()
        assert c.last_plan.index_name == "grp_1"

    def test_stats_shape(self, materials):
        stats = materials.plan_cache_stats()
        assert set(stats) >= {"size", "capacity", "hits", "misses",
                              "evictions", "invalidations", "replans"}


class TestHint:
    def test_hint_forces_named_index(self, materials):
        materials.create_index("formula")
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        docs = materials.find(
            {"formula": "F3"}, hint="formula_1"
        ).to_list()
        assert materials.last_plan.index_name == "formula_1"
        assert all(d["formula"] == "F3" for d in docs)

    def test_natural_hint_forces_collscan(self, materials):
        materials.create_index("formula")
        materials.find({"formula": "F3"}, hint="$natural").to_list()
        assert materials.last_plan.kind == "COLLSCAN"

    def test_unknown_hint_raises(self, materials):
        with pytest.raises(DocstoreError):
            materials.find({}, hint="no_such_index").to_list()

    def test_cursor_hint_chains(self, materials):
        materials.create_index("formula")
        cur = materials.find({"formula": "F3"}).hint("formula_1")
        assert cur.to_list()
        assert materials.last_plan.index_name == "formula_1"

    def test_hinted_unusable_index_still_correct(self, materials):
        """Hinting an index the predicate can't seek falls back to a full
        index scan but must return the same rows."""
        materials.create_index("band_gap")
        expected = sorted(
            d["nsites"] for d in materials.find({"formula": "F3"}).to_list()
        )
        got = sorted(
            d["nsites"] for d in
            materials.find({"formula": "F3"}, hint="band_gap_1").to_list()
        )
        assert got == expected


class TestTieBreakDeterminism:
    def test_equal_candidates_break_by_name(self):
        """Two indistinguishable single-field plans: winner is stable
        across repeated planning, picked by specificity then name."""
        c = Collection("ties")
        c.insert_many([{"a": i % 10, "b": i % 10} for i in range(100)])
        c.create_index("a")
        c.create_index("b")
        winners = set()
        for _ in range(5):
            explain = c.explain({"a": 3, "b": 3})
            winners.add(explain["index"])
        assert winners == {"a_1"}


class TestExplain:
    def test_explain_always_runs_planner(self, materials):
        """explain() reports the given query, not a stale last_plan."""
        materials.create_index("formula")
        materials.find({"nsites": 3}).to_list()  # leaves a COLLSCAN plan
        explain = materials.explain({"formula": "F3"})
        assert explain["stage"] == "IXSCAN"
        assert explain["nReturned"] == 25

    def test_all_plans_execution_verbosity(self, materials):
        materials.create_index("formula")
        materials.create_index([("formula", 1), ("e_above_hull", -1)])
        explain = materials.explain({"formula": "F3"},
                                    verbosity="allPlansExecution")
        plans = explain["allPlansExecution"]
        assert len(plans) >= 2
        assert plans[0]["winner"] is True
        assert all("trial" in p for p in plans[1:])

    def test_rejected_plans_nonempty_with_alternatives(self, materials):
        materials.create_index("formula")
        explain = materials.explain({"formula": "F3"})
        assert explain["rejectedPlans"]

    def test_idhack_for_id_equality(self, materials):
        doc = materials.find_one({})
        explain = materials.explain({"_id": doc["_id"]})
        assert explain["stage"] == "IDHACK"
        assert explain["docsExamined"] == 1


class TestAllPlan:
    """``$all`` probes its rarest member's bucket and, on a single-field
    index, fetches only documents in every other member's bucket too."""

    @pytest.fixture
    def compounds(self):
        c = Collection("materials")
        c.create_index("elements")
        systems = [["Cl", "Na"], ["Cl", "Cr", "O"], ["Cr", "O"], ["Fe", "O"],
                   ["O"], ["Cl", "Cr"]]
        c.insert_many([{"_id": i, "elements": systems[i % len(systems)]}
                       for i in range(120)])
        return c

    def test_explain_names_the_probe_and_counts_filters(self, compounds):
        query = {"elements": {"$all": ["O", "Cl"]}}
        explain = compounds.explain(query)
        assert explain["planSummary"] == "IXSCAN { elements: 1 }"
        assert explain["allProbe"] == "Cl"  # 60 entries against O's 80
        assert explain["allFilters"] == 1
        assert explain["nReturned"] == 20
        assert explain["keysExamined"] >= explain["docsExamined"]
        assert explain["docsExamined"] == explain["nReturned"]
        compounds.find(query).to_list()
        plan = compounds.last_plan.to_dict()
        assert (plan["allProbe"], plan["allFilters"]) == ("Cl", 1)
        assert plan["docsExamined"] == plan["nReturned"] == 20

    def test_cached_plan_rebuilds_the_filter_per_query(self, compounds):
        first = {"elements": {"$all": ["O", "Cl"]}}
        second = {"elements": {"$all": ["Fe", "O"]}}
        compounds.find(first).to_list()
        got = sorted(d["_id"] for d in compounds.find(second))
        assert compounds.last_plan.cache == "hit"
        assert compounds.last_plan.all_probe == "Fe"
        assert got == sorted(d["_id"] for d in
                             compounds.find(second, hint="$natural"))
        compounds.insert_one({"_id": 999, "elements": ["Fe", "O"]})
        assert 999 in {d["_id"] for d in compounds.find(second)}

    def test_non_point_members_are_left_to_the_matcher(self, compounds):
        query = {"elements": {"$all": [None, "O", ["Cr", "O"]]}}
        explain = compounds.explain(query)
        assert explain["allProbe"] == "O"
        assert explain["allFilters"] == 0
        assert explain["nReturned"] == 0

    def test_other_plans_report_no_probe(self, compounds):
        plan = compounds.explain({"elements": "O"})
        assert (plan["allProbe"], plan["allFilters"]) == (None, 0)


class TestNaNKeys:
    def test_range_scans_match_collscan_with_nan_stored(self):
        # NaN is $gte and $lte every number under compare_values; its index
        # keys keep a block of their own so bisects stay sound.
        nan = float("nan")
        c = Collection("n")
        c.create_index("a")
        c.create_index([("a", -1)])
        c.insert_many([{"_id": i, "a": v}
                       for i, v in enumerate([3, 0.5, nan, 0, 1, 0.5, nan, 2])])
        for op in ("$gt", "$gte", "$lt", "$lte"):
            for bound in (0, 1, nan):
                query = {"a": {op: bound}}
                natural = sorted(d["_id"] for d in c.find(query, hint="$natural"))
                for hint in ("a_1", "a_-1"):
                    got = sorted(d["_id"] for d in c.find(query, hint=hint))
                    assert got == natural, (query, hint)
        # Removal finds NaN entries by bisect too: no phantom entries left.
        assert c.delete_many({"a": {"$type": "double"}}).deleted_count == 4
        for name in ("a_1", "a_-1"):
            assert len(c._indexes.get(name)) == 4


class TestIndexUsageAccounting:
    def test_sort_only_consultation_counts(self, materials):
        materials.create_index([("e_above_hull", -1)])
        materials.find({}).sort([("e_above_hull", -1)]).to_list()
        stats = {s["name"]: s for s in materials.index_stats()}
        assert stats["e_above_hull_-1"]["accesses"]["ops"] >= 1

    def test_covered_consultation_counts(self, materials):
        materials.create_index("formula")
        materials.find({"formula": "F1"},
                       {"formula": 1, "_id": 0}).to_list()
        stats = {s["name"]: s for s in materials.index_stats()}
        assert stats["formula_1"]["accesses"]["ops"] >= 1


class TestWireAndStatus:
    def test_plan_cache_status_rollup(self):
        store = DocumentStore()
        coll = store["mp"]["materials"]
        coll.insert_many([{"x": i} for i in range(50)])
        coll.create_index("x")
        coll.find({"x": 3}).to_list()
        coll.find({"x": 4}).to_list()
        status = store["mp"].plan_cache_status()
        assert status["totals"]["hits"] >= 1
        assert "materials" in status["collections"]
        assert store.server_status()["planCache"]["hits"] >= 1


class TestWritesResolveThroughThePlanner:
    """Writes take the same selection path as reads (Collection._select)."""

    @pytest.mark.parametrize("write", [
        lambda c, _id: c.replace_one({"_id": _id}, {"nsites": 99},
                                     upsert=True),
        lambda c, _id: c.update_one({"_id": _id}, {"$set": {"nsites": 99}}),
        lambda c, _id: c.delete_one({"_id": _id}),
    ], ids=["replace_one", "update_one", "delete_one"])
    def test_id_selector_is_idhack(self, materials, write):
        _id = materials.find_one({"formula": "F7"})["_id"]
        materials.find({"nsites": 3}).to_list()  # a COLLSCAN to overwrite
        result = write(materials, _id)
        assert (getattr(result, "matched_count", 0)
                or getattr(result, "deleted_count", 0)) == 1
        assert materials.last_plan.kind == "IDHACK"
        assert materials.last_plan.candidates_examined == 1

    def test_upsert_of_absent_id_is_idhack(self, materials):
        result = materials.replace_one({"_id": "new"}, {"nsites": 1},
                                       upsert=True)
        assert result.upserted_id == "new"
        assert materials.last_plan.kind == "IDHACK"
        assert materials.last_plan.candidates_examined == 0

    def test_update_on_indexed_field_is_ixscan(self, materials):
        materials.create_index("formula")
        result = materials.update_many({"formula": "F3"},
                                       {"$set": {"seen": True}})
        assert result.modified_count == 25
        assert materials.last_plan.kind == "IXSCAN"
        assert materials.last_plan.candidates_examined == 25
        materials.update_one({"formula": "F4"}, {"$set": {"seen": True}})
        assert materials.last_plan.kind == "IXSCAN"
        assert materials.last_plan.candidates_examined == 1

    def test_update_one_modifies_what_find_one_returns(self):
        c = Collection("c")
        c.insert_many([{"x": 3 - i, "tag": "t"} for i in range(3)])
        c.create_index("x")
        query = {"x": {"$gte": 1}}
        target = c.find_one(query)
        # Index order, not insertion order: the case the private scans
        # of update/delete used to answer differently.
        assert c.last_plan.kind == "IXSCAN" and target["x"] == 1
        c.update_one(query, {"$set": {"hit": "update"}})
        assert c.find_one({"hit": "update"})["_id"] == target["_id"]
        assert c.find_one_and_update(
            query, {"$set": {"hit": "claim"}})["_id"] == target["_id"]
        c.delete_one(query)
        assert c.find_one({"_id": target["_id"]}) is None
        assert c.count_documents({}) == 2

    def test_multi_update_along_its_own_index_touches_each_doc_once(self):
        c = Collection("c")
        c.insert_many([{"x": i} for i in range(10)])
        c.create_index("x")
        events = []
        c.add_change_listener(lambda op, payload: events.append(payload["_id"]))
        result = c.update_many({"x": {"$gte": 0}}, {"$inc": {"x": 100}})
        assert (result.matched_count, result.modified_count) == (10, 10)
        assert c.last_plan.kind == "IXSCAN"
        assert sorted(d["x"] for d in c.find()) == list(range(100, 110))
        # Change stream order is insertion order, not index order.
        assert events == [d["_id"] for d in c.all_documents()]
