"""Tests for the fleet health tooling: samplers, index advisor, the HTTP
liveness endpoint, CLI subcommands, and the benchmark regression gate."""

import json
import sys
import urllib.request

import pytest

from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.docstore import (
    DatastoreServer,
    DocumentStore,
    RemoteClient,
)
from repro.obs import (
    IndexAdvisor,
    MetricsRegistry,
    ServerStatusSampler,
    TopSampler,
    format_stat_table,
    format_top_table,
    get_registry,
    set_registry,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = get_registry()
    set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture
def db():
    return DocumentStore()["mp"]


class TestServerStatusSampler:
    def test_requires_server_status(self):
        with pytest.raises(TypeError):
            ServerStatusSampler(object())

    def test_deltas_match_known_op_counts(self, db):
        sampler = ServerStatusSampler(db)
        sampler.sample()
        coll = db["materials"]
        coll.insert_many([{"i": i} for i in range(5)])
        coll.find({"i": 2}).to_list()
        coll.find({"i": 3}).to_list()
        coll.update_one({"i": 2}, {"$set": {"seen": True}})
        s = sampler.sample()
        assert s["deltas"]["insert"] == 5  # opcounters count per document
        assert s["deltas"]["query"] == 2
        assert s["deltas"]["update"] == 1
        # third sample with no traffic: all deltas back to zero
        s3 = sampler.sample()
        assert all(v == 0 for v in s3["deltas"].values())

    def test_totals_are_cumulative(self, db):
        sampler = ServerStatusSampler(db)
        db["m"].insert_one({"a": 1})
        sampler.sample()
        db["m"].insert_one({"a": 2})
        s = sampler.sample()
        assert s["totals"]["insert"] == 2
        assert s["deltas"]["insert"] == 1

    def test_store_level_aggregate(self):
        store = DocumentStore()
        store["db1"]["c"].insert_one({"x": 1})
        store["db2"]["c"].insert_one({"x": 2})
        sampler = ServerStatusSampler(store)
        s = sampler.sample()
        assert s["totals"]["insert"] == 2
        assert s["objects"] == 2

    def test_active_ops_counts_inflight(self, db):
        # current_op lives on the store; reaches it via db.client
        sampler = ServerStatusSampler(db)
        s = sampler.sample()
        assert s["active_ops"] == 0


class TestTopSampler:
    def test_read_and_write_buckets(self, db):
        sampler = TopSampler(db)
        sampler.sample()
        db["tasks"].insert_many([{"i": i} for i in range(10)])
        db["tasks"].find({"i": 5}).to_list()
        db["materials"].insert_one({"m": 1})
        s = sampler.sample()
        tasks = s["deltas"]["mp.tasks"]
        assert tasks["write_count"] == 10  # per-document, like opcounters
        assert tasks["read_count"] == 1
        assert tasks["write_ms"] > 0
        assert tasks["read_ms"] > 0
        assert tasks["total_ms"] == pytest.approx(
            tasks["read_ms"] + tasks["write_ms"])
        assert s["deltas"]["mp.materials"]["write_count"] == 1

    def test_system_collections_not_tracked(self, db):
        db.set_profiling_level(2)
        db["m"].insert_one({"x": 1})
        db["m"].find({"x": 1}).to_list()
        assert all(not ns.split(".", 1)[1].startswith("system.")
                   for ns in db.top())

    def test_deltas_reset_between_intervals(self, db):
        sampler = TopSampler(db)
        db["m"].insert_one({"x": 1})
        sampler.sample()
        s = sampler.sample()
        assert s["deltas"]["mp.m"]["write_count"] == 0

    def test_table_rendering(self, db):
        sampler = TopSampler(db)
        db["m"].insert_one({"x": 1})
        text = format_top_table(sampler.sample())
        assert "ns" in text and "mp.m" in text and "ms" in text


class TestStatTableRendering:
    def test_columns_aligned_and_ordered(self, db):
        sampler = ServerStatusSampler(db)
        db["m"].insert_one({})
        text = format_stat_table([sampler.sample()])
        header, row = text.splitlines()
        assert header.index("insert") < header.index("query")
        assert header.index("query") < header.index("command")
        # the insert delta ("1") sits under the insert column
        assert row[:9].strip() == "1"

    def test_no_header_mode(self, db):
        sampler = ServerStatusSampler(db)
        text = format_stat_table([sampler.sample()], header=False)
        assert "insert" not in text


class TestIndexStatsWire:
    def test_index_stats_over_wire(self):
        store = DocumentStore()
        coll = store["mp"]["materials"]
        coll.create_index("band_gap")
        coll.insert_many([{"band_gap": i / 10} for i in range(5)])
        coll.find({"band_gap": 0.2}).to_list()
        server = DatastoreServer(store)
        server.start()
        try:
            with RemoteClient("127.0.0.1", server.port) as client:
                stats = client["mp"]["materials"].index_stats()
                by_name = {s["field"]: s for s in stats}
                assert by_name["band_gap"]["accesses"]["ops"] == 1
                status = client["mp"].server_status()
                assert status["opcounters"]["insert"] == 5
                top = client["mp"].top()
                assert "mp.materials" in top
        finally:
            server.stop()

    def test_remote_sampler_sees_server_side_traffic(self):
        store = DocumentStore()
        server = DatastoreServer(store)
        server.start()
        try:
            with RemoteClient("127.0.0.1", server.port) as client:
                sampler = ServerStatusSampler(client)
                sampler.sample()
                client["mp"]["m"].insert_one({"x": 1})
                s = sampler.sample()
                assert s["deltas"]["insert"] == 1
        finally:
            server.stop()


class TestIndexAdvisor:
    def _seed_workload(self, db, n_docs=500, n_queries=8):
        coll = db["materials"]
        coll.insert_many([
            {"state": i % 5, "group": i % 100} for i in range(n_docs)
        ])
        db.set_profiling_level(2)
        for q in range(n_queries):
            coll.find({"group": q}).to_list()
        return coll

    def test_seeded_workload_yields_exactly_the_missing_index(self, db):
        self._seed_workload(db)
        recs = IndexAdvisor(db).analyze()
        assert len(recs) == 1
        rec = recs[0]
        assert rec.ns == "mp.materials"
        assert rec.field == "group"
        assert rec.occurrences == 8
        assert rec.docs_examined_before == 500
        assert rec.estimated_docs_examined_after == 5  # 500 docs / 100 groups
        assert rec.estimated_reduction == pytest.approx(0.99)
        assert 'create_index("group")' in rec.command

    def test_explain_replay_shows_docs_examined_drop(self, db):
        self._seed_workload(db)
        advisor = IndexAdvisor(db)
        rec = advisor.analyze()[0]
        result = advisor.verify(rec)
        assert result["before"]["stage"] == "COLLSCAN"
        assert result["before"]["docsExamined"] == 500
        assert result["after"]["stage"] == "IXSCAN"
        assert result["after"]["docsExamined"] == 5
        assert result["docs_examined_drop"] == 495
        # verify(keep=False) leaves no index behind
        assert "group" not in {
            i["field"] for i in db["materials"].index_information().values()
        }

    def test_verify_keep_retains_index_and_silences_advisor(self, db):
        self._seed_workload(db)
        advisor = IndexAdvisor(db)
        rec = advisor.analyze()[0]
        advisor.verify(rec, keep=True)
        assert "group" in {
            i["field"] for i in db["materials"].index_information().values()
        }
        # the indexed field is no longer a candidate on fresh analysis of
        # the same entries (already-indexed fields are filtered out)
        assert all(r.field != "group" for r in advisor.analyze())

    def test_indexed_queries_produce_no_recommendation(self, db):
        coll = db["materials"]
        coll.create_index("group")
        coll.insert_many([{"group": i % 10} for i in range(100)])
        db.set_profiling_level(2)
        coll.find({"group": 3}).to_list()
        assert IndexAdvisor(db).analyze() == []

    def test_min_occurrences_filters_one_off_scans(self, db):
        coll = db["materials"]
        coll.insert_many([{"group": i} for i in range(50)])
        db.set_profiling_level(2)
        coll.find({"group": 7}).to_list()
        assert IndexAdvisor(db, min_occurrences=2).analyze() == []
        assert len(IndexAdvisor(db, min_occurrences=1).analyze()) == 1

    def test_probing_does_not_pollute_profile(self, db):
        self._seed_workload(db)
        before = len(db.profile_log)
        IndexAdvisor(db).analyze()
        assert len(db.profile_log) == before
        assert db.get_profiling_level() == 2  # restored

    def test_task_queue_claims_yield_a_state_index(self, db):
        """The claim path is mined too: findAndModify entries carry their
        plan, so COLLSCAN claims on ``state`` earn an index on it."""
        tasks = db["tasks"]
        tasks.insert_many([
            {"state": "READY" if i % 100 == 99 else "WAITING", "i": i}
            for i in range(500)])
        db.set_profiling_level(2)
        for _ in range(5):
            assert tasks.find_one_and_update(
                {"state": "READY"}, {"$set": {"state": "RUNNING"}})
        claims = [e for e in db.profile_log if e["op"] == "findAndModify"]
        assert [e["planSummary"] for e in claims] == ["COLLSCAN"] * 5
        assert all(e["docsExamined"] >= 100 for e in claims)
        recs = IndexAdvisor(db).analyze()
        assert [(r.collection, r.field, r.occurrences) for r in recs] == [
            ("tasks", "state", 5)]

    def test_unused_indexes_reported(self, db):
        coll = db["materials"]
        coll.create_index("dead_field")
        coll.create_index("group")
        coll.insert_many([{"group": i} for i in range(10)])
        coll.find({"group": 3}).to_list()
        unused = IndexAdvisor(db).unused_indexes()
        assert [u["field"] for u in unused] == ["dead_field"]


class TestHealthEndpoints:
    def test_health_green_on_fresh_store(self, db):
        """``/health`` is liveness: a bare server answers 200 green."""
        db["materials"].insert_one({"material_id": "mp-1"})
        api = MaterialsAPI(QueryEngine(db))
        with MaterialsAPIServer(api) as server:
            with urllib.request.urlopen(f"{server.base_url}/health") as r:
                assert r.status == 200
                assert json.load(r) == {"status": "green"}


class TestCLISubcommands:
    def test_mongostat_local(self, tmp_path, capsys):
        from repro.cli import main
        data_dir = str(tmp_path / "store")
        DocumentStore(persistence_dir=data_dir)["mp"]["m"].insert_one({})
        assert main(["--data-dir", data_dir, "mongostat",
                     "--n", "2", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "insert" in lines[0] and "command" in lines[0]
        assert len(lines) == 3  # header + 2 sample rows

    def test_mongostat_json(self, tmp_path, capsys):
        from repro.cli import main
        data_dir = str(tmp_path / "store")
        DocumentStore(persistence_dir=data_dir)
        assert main(["--data-dir", data_dir, "mongostat",
                     "--n", "2", "--interval", "0", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            assert "deltas" in doc and "totals" in doc

    def test_mongostat_against_live_server(self, capsys):
        from repro.cli import main
        store = DocumentStore()
        store["mp"]["m"].insert_many([{"i": i} for i in range(3)])
        server = DatastoreServer(store)
        server.start()
        try:
            assert main(["mongostat", "--host", "127.0.0.1",
                         "--port", str(server.port),
                         "--n", "1", "--interval", "0", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out.strip())
            assert doc["totals"]["insert"] == 3
            assert doc["objects"] == 3
        finally:
            server.stop()

    def test_mongostat_host_without_port_errors(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["mongostat", "--host", "127.0.0.1"])

    def test_mongotop_local(self, monkeypatch, capsys):
        # top accounting is runtime state, so point the CLI at a store
        # that has seen traffic in this process
        import repro.cli as cli
        store = DocumentStore()
        store["mp"]["tasks"].insert_one({"x": 1})
        store["mp"]["tasks"].find({"x": 1}).to_list()
        monkeypatch.setattr(cli, "_open_store", lambda args: store)
        assert cli.main(["mongotop", "--n", "1", "--interval", "0",
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert "mp.tasks" in doc["totals"]
        assert doc["totals"]["mp.tasks"]["read_count"] == 1

    def test_mongotop_table_against_live_server(self, capsys):
        from repro.cli import main
        store = DocumentStore()
        server = DatastoreServer(store)
        server.start()
        try:
            with RemoteClient("127.0.0.1", server.port) as client:
                client["mp"]["tasks"].insert_one({"x": 1})
            assert main(["mongotop", "--host", "127.0.0.1",
                         "--port", str(server.port),
                         "--n", "1", "--interval", "0"]) == 0
            out = capsys.readouterr().out
            assert "mp.tasks" in out
            assert "write" in out.splitlines()[0]
        finally:
            server.stop()

    def test_advise_end_to_end(self, monkeypatch, capsys):
        import repro.cli as cli
        store = DocumentStore()
        db = store["mp"]
        db["materials"].insert_many(
            [{"group": i % 20} for i in range(200)])
        db.set_profiling_level(2)
        for q in range(5):
            db["materials"].find({"group": q}).to_list()
        monkeypatch.setattr(cli, "_open_store", lambda args: store)
        assert cli.main(["advise", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        recs = doc["recommendations"]
        assert len(recs) == 1
        assert recs[0]["field"] == "group"


class TestBenchRegressionGate:
    def _doc(self, p95, calibration):
        return {
            "meta": {"calibration_ms": calibration},
            "benchmarks": {
                "find": {"p50_ms": p95 / 2, "p95_ms": p95,
                         "p99_ms": p95 * 1.2, "mean_ms": p95 / 2},
            },
        }

    def _gate(self):
        import importlib
        import os
        sys.path.insert(0, os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks"))
        try:
            return importlib.import_module("check_bench_regression")
        finally:
            sys.path.pop(0)

    def test_gate_passes_within_tolerance(self, tmp_path):
        gate = self._gate()
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(self._doc(10.0, 100.0)))
        cur.write_text(json.dumps(self._doc(11.5, 100.0)))
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0

    def test_gate_fails_past_tolerance(self, tmp_path):
        gate = self._gate()
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(self._doc(10.0, 100.0)))
        cur.write_text(json.dumps(self._doc(12.5, 100.0)))
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 1

    def test_calibration_scales_allowance_for_slow_runner(self, tmp_path):
        gate = self._gate()
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(self._doc(10.0, 100.0)))
        # 2x slower machine: 18ms would fail raw, passes calibrated
        cur.write_text(json.dumps(self._doc(18.0, 200.0)))
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0

    def test_calibration_unmasks_regression_on_fast_runner(self, tmp_path):
        gate = self._gate()
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(self._doc(10.0, 100.0)))
        # 2x faster machine: 9ms looks fine raw but is a 1.8x regression
        cur.write_text(json.dumps(self._doc(9.0, 50.0)))
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 1

    def test_missing_benchmark_fails(self, tmp_path):
        gate = self._gate()
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(self._doc(10.0, 100.0)))
        empty = {"meta": {"calibration_ms": 100.0}, "benchmarks": {}}
        cur.write_text(json.dumps(empty))
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 1

    def test_committed_baseline_has_required_shape(self):
        import os
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "baseline_obs.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["meta"]["calibration_ms"] > 0
        for name in ("find", "insert", "aggregate"):
            assert doc["benchmarks"][name]["p95_ms"] > 0
