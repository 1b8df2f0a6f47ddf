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
