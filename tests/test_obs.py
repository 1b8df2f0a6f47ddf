"""Tests for the unified observability layer (repro.obs + its consumers)."""

import json
import urllib.request

import pytest

from repro.docstore import DocumentStore
from repro.docstore import database as database_module
from repro.errors import DocstoreError, ReproError
from repro.obs import (
    MetricsRegistry,
    clear_traces,
    current_span,
    get_registry,
    percentile,
    recent_traces,
    redact,
    set_registry,
    span,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    """Isolate each test behind its own metrics registry."""
    previous = get_registry()
    registry = MetricsRegistry()
    set_registry(registry)
    clear_traces()
    yield registry
    set_registry(previous)


@pytest.fixture
def db():
    return DocumentStore()["mp"]


class TestMetrics:
    def test_percentile_empty_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_percentile_single_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_histogram_quantiles(self, fresh_registry):
        h = fresh_registry.histogram("lat", "latencies")
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        # Interpolated percentiles: rank p/100*(n-1) between neighbours.
        assert s["p50"] == pytest.approx(50.5)
        assert s["p95"] == pytest.approx(95.05)
        assert s["p99"] == pytest.approx(99.01)
        assert s["max"] == 100.0

    def test_percentile_interpolates_between_samples(self):
        assert percentile([10.0, 20.0], 50) == pytest.approx(15.0)
        # p99 of two samples must be near (not equal to) the max.
        assert percentile([10.0, 20.0], 99) == pytest.approx(19.9)
        assert percentile([10.0, 20.0], 99) < 20.0
        assert percentile([10.0, 20.0], 0) == 10.0
        assert percentile([10.0, 20.0], 100) == 20.0

    def test_counter_rejects_negative(self, fresh_registry):
        c = fresh_registry.counter("n", "things")
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_type_mismatch_rejected(self, fresh_registry):
        fresh_registry.counter("x", "a counter")
        with pytest.raises(ReproError):
            fresh_registry.histogram("x", "now a histogram?")

    def test_render_text_contains_series(self, fresh_registry):
        fresh_registry.counter("reqs", "requests").inc(3, route="/a")
        text = fresh_registry.render_text()
        assert "# TYPE reqs counter" in text
        assert 'reqs{route="/a"} 3' in text


class TestTracing:
    def test_nesting_and_current_span(self):
        assert current_span() is None
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
                assert inner.parent is outer
                assert inner.trace_id == outer.trace_id
            assert current_span() is outer
        assert current_span() is None
        assert outer.children == [inner]

    def test_exception_marks_error_and_pops(self):
        with pytest.raises(ValueError):
            with span("doomed") as s:
                raise ValueError("boom")
        assert s.status == "error"
        assert "ValueError" in s.error
        assert current_span() is None

    def test_finished_root_spans_buffered(self):
        with span("root-a"):
            with span("child"):
                pass
        traces = recent_traces()
        assert [t.name for t in traces] == ["root-a"]
        assert traces[0].find("child")


class TestOpcounters:
    def test_opcounters_match_op_sequence(self, db):
        coll = db["things"]
        coll.insert_one({"a": 1})
        coll.insert_many([{"a": 2}, {"a": 3}])
        coll.find({"a": {"$gte": 1}}).to_list()
        coll.find_one({"a": 2})
        coll.update_one({"a": 1}, {"$set": {"b": True}})
        coll.delete_one({"a": 3})
        counters = db.server_status()["opcounters"]
        assert counters["insert"] == 3
        assert counters["query"] == 2
        assert counters["update"] == 1
        assert counters["delete"] == 1

    # (verb, opcounter delta, top (read, write) count delta, profile
    # entries as sorted (op, nreturned)) on five docs {_id: i, a: i,
    # g: i % 2}.  repro_docstore_ops_total moves exactly as the opcounters.
    VERBS = [
        ("insert_one", lambda c: c.insert_one({"a": 9}),
         {"insert": 1}, (0, 1), [("insert", 0)]),
        ("insert_many", lambda c: c.insert_many([{"a": 9}, {"a": 10},
                                                  {"a": 11}]),
         {"insert": 3}, (0, 3), [("insert", 0)]),
        ("find", lambda c: c.find({"g": 0}).to_list(),
         {"query": 1}, (1, 0), [("find", 3)]),
        ("find_one", lambda c: c.find_one({"a": 2}),
         {"query": 1}, (1, 0), [("findOne", 1)]),
        ("count_query", lambda c: c.count_documents({"g": 1}),
         {"command": 1}, (1, 0), [("count", 2)]),
        ("count_all", lambda c: c.count_documents(),
         {"command": 1}, (1, 0), [("count", 5)]),
        ("distinct", lambda c: c.distinct("g"),
         {"command": 1}, (1, 0), [("distinct", 2)]),
        ("update_one", lambda c: c.update_one({"g": 0}, {"$set": {"b": 1}}),
         {"update": 1}, (0, 1), [("update", 1)]),
        ("update_many", lambda c: c.update_many({"g": 0},
                                                {"$set": {"b": 1}}),
         {"update": 1}, (0, 1), [("update", 3)]),
        ("replace_one", lambda c: c.replace_one({"a": 1}, {"a": 1, "r": 1}),
         {"update": 1}, (0, 1), [("update", 1)]),
        ("find_one_and_update_hit",
         lambda c: c.find_one_and_update({"a": 3}, {"$set": {"b": 1}}),
         {"update": 1}, (0, 1), [("findAndModify", 1)]),
        ("find_one_and_update_miss",
         lambda c: c.find_one_and_update({"a": 99}, {"$set": {"b": 1}}),
         {"update": 1}, (0, 1), [("findAndModify", 0)]),
        ("find_one_and_update_upsert",
         lambda c: c.find_one_and_update({"a": 99}, {"$set": {"b": 1}},
                                         upsert=True,
                                         return_document="after"),
         {"update": 1, "query": 1}, (1, 1),
         [("findAndModify", 1), ("findOne", 1)]),
        ("find_one_and_delete_hit", lambda c: c.find_one_and_delete({"a": 4}),
         {"delete": 1}, (0, 1), [("findAndModify", 1)]),
        ("find_one_and_delete_miss",
         lambda c: c.find_one_and_delete({"a": 99}),
         {"delete": 1}, (0, 1), [("findAndModify", 0)]),
        ("delete_one", lambda c: c.delete_one({"g": 1}),
         {"delete": 1}, (0, 1), [("delete", 1)]),
        ("delete_many", lambda c: c.delete_many({"g": 0}),
         {"delete": 1}, (0, 1), [("delete", 3)]),
        ("aggregate", lambda c: c.aggregate([
            {"$match": {"g": 0}},
            {"$group": {"_id": None, "n": {"$sum": 1}}}]),
         {"command": 1}, (1, 0), [("aggregate", 1)]),
        ("aggregate_explain", lambda c: c.aggregate(
            [{"$match": {"g": 0}}], explain=True),
         {}, (0, 0), []),
        ("map_reduce", lambda c: c.map_reduce(
            lambda d: [(d["g"], 1)], lambda k, vs: sum(vs)),
         {"command": 1}, (1, 0), [("mapreduce", 2)]),
    ]

    @pytest.mark.parametrize("verb,call,counts,top_counts,entries", VERBS,
                             ids=[row[0] for row in VERBS])
    def test_every_verb_reports_once(self, db, fresh_registry, verb, call,
                                     counts, top_counts, entries):
        coll = db["things"]
        coll.insert_many([{"_id": i, "a": i, "g": i % 2} for i in range(5)])
        db.set_profiling_level(2)
        ops_total = fresh_registry.counter("repro_docstore_ops_total")

        def snapshot():
            top = db.top().get("mp.things", {})
            return (db.server_status()["opcounters"],
                    {k: ops_total.value(db="mp", op=k)
                     for k in database_module.OPCOUNTER_KEYS},
                    (top.get("read_count", 0), top.get("write_count", 0)),
                    len(db.profile_log))

        before = snapshot()
        call(coll)
        after = snapshot()
        expected = {k: counts.get(k, 0) for k in database_module.OPCOUNTER_KEYS}
        assert {k: after[0][k] - before[0][k] for k in expected} == expected
        assert {k: after[1][k] - before[1][k] for k in expected} == expected
        assert tuple(a - b for a, b in zip(after[2], before[2])) == top_counts
        new = db.profile_log[before[3]:]
        assert sorted((e["op"], e["nreturned"]) for e in new) == entries

    def test_store_aggregates_across_databases(self):
        store = DocumentStore()
        store["a"]["c"].insert_one({})
        store["b"]["c"].insert_one({})
        status = store.server_status()
        assert status["opcounters"]["insert"] == 2
        assert status["databases"] == ["a", "b"]


class TestProfiler:
    def test_level_2_records_everything(self, db):
        db.set_profiling_level(2)
        db["t"].insert_one({"x": 1})
        db["t"].find({"x": 1}).to_list()
        ops = [e["op"] for e in db.profile_log]
        assert "insert" in ops and "find" in ops

    def test_profile_is_a_queryable_collection(self, db):
        db.set_profiling_level(2)
        db["t"].insert_one({"x": 1})
        db["t"].find({"x": 1}).to_list()
        slow = db["system.profile"].find({"op": "find"}).to_list()
        assert len(slow) == 1
        entry = slow[0]
        assert entry["ns"] == "mp.t"
        assert entry["nreturned"] == 1
        assert entry["millis"] >= 0.0

    def test_level_validation(self, db):
        with pytest.raises(DocstoreError):
            db.set_profiling_level(3)

    def test_slowms_threshold_at_level_1(self, db):
        db.set_profiling_level(1, slowms=10_000)
        db["t"].insert_one({"x": 1})      # fast write: not recorded
        db["t"].find({}).to_list()        # read: always recorded
        assert [e["op"] for e in db.profile_log] == ["find"]

    def test_map_reduce_reports_as_a_command(self, db):
        coll = db["t"]
        coll.insert_many([{"g": i % 3} for i in range(9)])
        db.set_profiling_level(2)
        rows = coll.map_reduce(lambda d: [(d["g"], 1)],
                               lambda k, vs: sum(vs), query={"g": {"$lt": 2}})
        assert len(rows) == 2
        (entry,) = [e for e in db.profile_log if e["op"] == "mapreduce"]
        assert entry["ns"] == "mp.t" and entry["nreturned"] == 2
        assert entry["query"] == {"g": {"$lt": 2}}
        assert entry["opid"] >= 1
        assert db.server_status()["opcounters"]["command"] == 1
        assert db.top()["mp.t"]["read_count"] == 1  # it reads inside its op

    def test_cap_evicts_exactly_the_oldest(self, db, monkeypatch):
        monkeypatch.setattr(database_module, "PROFILE_CAP", 5)
        db.set_profiling_level(2)
        for i in range(8):
            db["t"].count_documents({"i": i})
        assert [e["query"] for e in db.profile_log] == [
            {"i": i} for i in range(3, 8)]


class TestExplain:
    def test_collscan_explain(self, db):
        coll = db["t"]
        coll.insert_many([{"x": i} for i in range(5)])
        plan = coll.explain({"x": {"$gte": 3}})
        assert plan["nReturned"] == 2
        assert plan["executionTimeMillis"] >= 0.0
        assert plan["indexUsed"] is None

    def test_indexed_explain(self, db):
        coll = db["t"]
        coll.create_index("x")
        coll.insert_many([{"x": i} for i in range(10)])
        plan = coll.explain({"x": 7})
        assert plan["nReturned"] == 1
        assert plan["indexUsed"] is not None
        assert plan["docsExamined"] <= 1


class TestDocstoreSpans:
    def test_ops_attach_to_current_span(self, db):
        with span("unit.of.work") as s:
            db["t"].insert_one({"x": 1})
            db["t"].find({}).to_list()
        names = [c.name for c in s.children]
        assert "docstore.insert" in names
        assert "docstore.find" in names

    def test_firework_launch_trace_has_docstore_writes(self):
        from repro.fireworks import LaunchPad, Rocket, Workflow, vasp_firework
        from repro.matgen import make_prototype

        db = DocumentStore()["mp"]
        pad = LaunchPad(db)
        structure = make_prototype("rocksalt", ["Na", "Cl"])
        pad.add_workflow(Workflow([vasp_firework(structure, "mps-1")]))
        clear_traces()
        Rocket(pad, write_run_dirs=False).rapidfire()
        roots = [t for t in recent_traces() if t.name == "firework.launch"]
        assert roots, [t.name for t in recent_traces()]
        # At least one launch (possibly after an SCF detour) writes a task
        # document inside its own trace.
        assert any(t.find("docstore.insert") for t in roots)
        assert any(t.find("scf.run") for t in roots)


class TestHTTPEndpoints:
    @pytest.fixture
    def server(self, db):
        from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine

        db["materials"].insert_one({"material_id": "mp-1", "band_gap": 1.0})
        api = MaterialsAPI(QueryEngine(db))
        with MaterialsAPIServer(api) as srv:
            yield srv

    def test_metrics_endpoint(self, server):
        urllib.request.urlopen(
            f"{server.base_url}/rest/v1/materials/mp-1/vasp/band_gap"
        ).read()
        text = urllib.request.urlopen(
            f"{server.base_url}/metrics"
        ).read().decode()
        assert "# TYPE repro_api_query_millis histogram" in text
        assert "repro_api_queries_total" in text
        assert 'quantile="0.95"' in text

    def test_status_endpoint(self, server):
        body = urllib.request.urlopen(f"{server.base_url}/status").read()
        status = json.loads(body)
        assert status["server"]["db"] == "mp"
        assert "opcounters" in status["server"]
        assert "metrics" in status


class TestRedaction:
    def test_redacts_credentials(self):
        line = redact("user=alice api_key=SECRET123 token: abc.def")
        assert "SECRET123" not in line
        assert "abc.def" not in line
        assert "user=alice" in line
