"""Tests for the fleet health monitor: samplers, index advisor, SLO alerts,
HTTP health endpoints, CLI subcommands, and the benchmark regression gate."""

import json
import sys
import urllib.error
import urllib.request

import pytest

from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.docstore import (
    DatastoreProxy,
    DatastoreServer,
    DocumentStore,
    RemoteClient,
    ShardedCluster,
    ShardReplicaSet,
)
from repro.docstore.changestream import ChangeStream
from repro.obs import (
    BurnRateRule,
    HealthMonitor,
    IndexAdvisor,
    LatencyWindowSource,
    MetricsRegistry,
    SLOEngine,
    ServerStatusSampler,
    ThresholdRule,
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


def lagging_member(rs, n_writes):
    """Kill a secondary of ``rs``, then write ``n_writes`` documents it
    misses; returns its name (``rs.revive`` catches it up)."""
    down = next(m.name for m in rs.members if m is not rs.primary)
    rs.kill(down)
    for i in range(n_writes):
        rs.write("mp", "m", lambda c, i=i: c.insert_one({"_id": i}))
    return down


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


class TestSLOWindowMath:
    def test_burn_rate_exact_window_math(self):
        # 100 events in-window, 10 bad at threshold 250ms, objective 99%
        events = [(100.0 + i, 5.0 if i % 10 else 500.0) for i in range(100)]
        source = LatencyWindowSource(250.0, lambda: events)
        assert source.window_counts(100.0, 199.0) == (90, 100)
        rule = BurnRateRule("burn", source, objective=0.99, window_s=300.0)
        breach = rule.evaluate({}, now=199.0)
        # bad_fraction 0.10 / budget 0.01 = burn rate 10
        assert breach["value"] == pytest.approx(10.0)
        assert breach["detail"]["bad"] == 10
        assert breach["detail"]["total"] == 100
        assert breach["detail"]["bad_fraction"] == pytest.approx(0.10)
        assert breach["detail"]["budget"] == pytest.approx(0.01)

    def test_window_excludes_old_events(self):
        events = [(10.0, 999.0)] + [(100.0 + i, 1.0) for i in range(50)]
        source = LatencyWindowSource(250.0, lambda: events)
        rule = BurnRateRule("burn", source, objective=0.99, window_s=60.0)
        # the one bad event at t=10 is outside [90, 150]
        assert rule.evaluate({}, now=150.0) is None

    def test_no_traffic_means_no_breach(self):
        source = LatencyWindowSource(250.0, lambda: [])
        rule = BurnRateRule("burn", source, objective=0.99, window_s=60.0)
        assert rule.evaluate({}, now=100.0) is None

    def test_threshold_rule_skips_missing_gauge(self):
        rule = ThresholdRule("lag", gauge="replication_max_lag",
                             threshold=100.0)
        assert rule.evaluate({}, now=0.0) is None
        assert rule.evaluate({"replication_max_lag": 50.0}, now=0.0) is None
        breach = rule.evaluate({"replication_max_lag": 150.0}, now=0.0)
        assert breach["value"] == 150.0


class TestSLOEngineLifecycle:
    def test_alert_document_lands_with_correct_window_math(self, db):
        events = [(100.0 + i, 500.0) for i in range(20)]
        source = LatencyWindowSource(250.0, lambda: events)
        rule = BurnRateRule("latency", source, objective=0.99,
                            window_s=300.0, severity="critical")
        engine = SLOEngine(db, [rule])
        opened = engine.evaluate(now=150.0)
        assert len(opened) == 1
        stored = db["system.alerts"].find_one({"rule": "latency"})
        assert stored["state"] == "open"
        assert stored["severity"] == "critical"
        assert stored["opened_at"] == 150.0
        assert stored["value"] == pytest.approx(100.0)  # all-bad burn rate
        assert stored["detail"]["total"] == 20
        assert engine.status() == "critical"

    def test_persisting_breach_touches_not_duplicates(self, db):
        events = [(100.0, 500.0)]
        rule = BurnRateRule(
            "latency", LatencyWindowSource(250.0, lambda: events),
            objective=0.99, window_s=300.0)
        engine = SLOEngine(db, [rule])
        engine.evaluate(now=110.0)
        assert engine.evaluate(now=120.0) == []  # second pass: touch
        docs = db["system.alerts"].find({"rule": "latency"}).to_list()
        assert len(docs) == 1
        assert docs[0]["evaluations"] == 2
        assert docs[0]["last_seen"] == 120.0

    def test_recovery_resolves_alert(self, db):
        events = [(100.0, 500.0)]
        rule = BurnRateRule(
            "latency", LatencyWindowSource(250.0, lambda: events),
            objective=0.99, window_s=50.0)
        engine = SLOEngine(db, [rule])
        engine.evaluate(now=110.0)
        assert engine.status() == "critical"
        engine.evaluate(now=500.0)  # event aged out of the window
        assert engine.status() == "green"
        doc = db["system.alerts"].find_one({"rule": "latency"})
        assert doc["state"] == "resolved"
        assert doc["resolved_at"] == 500.0

    def test_injected_proxy_latency_lands_alert(self, db):
        """The existing failure-injection hook (proxy forward_latency_s)
        drives a burn-rate breach end to end over the wire."""
        store = DocumentStore()
        server = DatastoreServer(store)
        server.start()
        proxy = DatastoreProxy("127.0.0.1", server.port,
                               forward_latency_s=0.02)
        proxy.start()
        try:
            with proxy.client() as client:
                coll = client["mp"]["materials"]
                coll.insert_one({"material_id": "mp-1"})
                for _ in range(5):
                    coll.find_one({"material_id": "mp-1"})
            rule = BurnRateRule(
                "proxy-latency",
                LatencyWindowSource.from_proxy(proxy, threshold_ms=5.0),
                objective=0.99, window_s=300.0, severity="critical")
            engine = SLOEngine(db, [rule])
            opened = engine.evaluate()
            assert len(opened) == 1
            stored = db["system.alerts"].find_one({"rule": "proxy-latency"})
            assert stored["detail"]["total"] >= 6
            assert stored["detail"]["bad"] == stored["detail"]["total"]
            assert stored["value"] == pytest.approx(100.0)
        finally:
            proxy.stop()
            server.stop()

    def test_profile_source_windows_over_system_profile(self, db):
        db.set_profiling_level(2)
        db["m"].insert_one({"x": 1})
        db["m"].find({"x": 1}).to_list()
        source = LatencyWindowSource.from_profile(db, threshold_ms=1e6)
        good, total = source.window_counts(0.0, 1e12)
        assert total >= 2
        assert good == total  # nothing slower than 1e6 ms


class TestHealthMonitor:
    def test_green_on_fresh_store(self, db):
        report = HealthMonitor(db).report()
        assert report["status"] == "green"
        assert report["new_alerts"] == []

    def test_replication_lag_opens_then_resolves(self, db):
        rs = ShardReplicaSet("rs0")
        monitor = HealthMonitor(db).watch_replica_set(rs)
        down = lagging_member(rs, 150)
        report = report_open = monitor.report(now=1000.0)
        assert report_open["status"] == "warn"
        assert report_open["gauges"]["replication_max_lag"] == 150
        assert report_open["gauges"][f"replication_lag:{down}"] == 150
        assert [a["rule"] for a in report_open["new_alerts"]] == [
            "replication-lag"]
        stored = db["system.alerts"].find_one({"rule": "replication-lag"})
        assert stored["state"] == "open"
        assert stored["value"] == 150
        rs.revive(down)
        report = monitor.report(now=1010.0)
        assert report["status"] == "green"
        assert report["gauges"]["replication_max_lag"] == 0
        assert db["system.alerts"].find_one(
            {"rule": "replication-lag"})["state"] == "resolved"

    def test_shard_imbalance_gauge(self, db):
        cluster = ShardedCluster(n_replicas=1)
        for shard_id in ("s0", "s1", "s2"):
            cluster.add_shard(shard_id)
        coll = cluster.shard_collection("mp.m", "k", strategy="range")
        for i in range(42):
            coll.insert_one({"k": i})  # the single initial chunk is on s0
        monitor = HealthMonitor(db).watch_sharded("m", cluster)
        report = monitor.report(now=0.0)
        # 42/0/0 docs: max 42 over mean 14 is a 3x imbalance
        assert report["gauges"]["shard_max_balance_factor"] == 3.0
        assert report["gauges"]["shard_hottest_fraction:m"] == 1.0
        assert report["status"] == "warn"
        assert [a["rule"] for a in report["new_alerts"]] == [
            "shard-imbalance"]

    def test_changestream_backlog_gauge(self, db):
        coll = db["m"]
        stream = ChangeStream(coll, max_buffer=10)
        for i in range(8):
            coll.insert_one({"i": i})
        monitor = HealthMonitor(db).watch_changestream("m", stream)
        report = monitor.report(now=0.0)
        assert report["gauges"][
            "changestream_max_backlog_fraction"] == pytest.approx(0.8)
        assert [a["rule"] for a in report["new_alerts"]] == [
            "changestream-backlog"]
        stream.drain()
        assert monitor.report(now=1.0)["status"] == "green"

    def test_gauges_exported_to_metrics_registry(self, db):
        rs = ShardReplicaSet("rs0")
        down = lagging_member(rs, 1)
        monitor = HealthMonitor(db).watch_replica_set(rs)
        monitor.gauges()
        gauge = get_registry().gauge("repro_health_gauge")
        assert "repro_health_gauge" in get_registry().render_text()
        assert gauge.value(name="replication_max_lag") == 1
        rs.revive(down)
        monitor.gauges()
        assert gauge.value(name="replication_max_lag") == 0

    def test_custom_gauge_and_rule(self, db):
        monitor = HealthMonitor(
            db, rules=[ThresholdRule("queue-depth", gauge="queue_depth",
                                     threshold=10.0)])
        monitor.add_gauge("queue_depth", lambda: 25.0)
        report = monitor.report(now=0.0)
        assert report["status"] == "warn"
        assert report["new_alerts"][0]["rule"] == "queue-depth"


class TestHealthEndpoints:
    def _server(self, db, monitor=None):
        api = MaterialsAPI(QueryEngine(db))
        return MaterialsAPIServer(api, monitor=monitor).start()

    def test_health_green_on_fresh_store(self, db):
        db["materials"].insert_one({"material_id": "mp-1"})
        server = self._server(db)
        try:
            with urllib.request.urlopen(f"{server.base_url}/health") as r:
                assert r.status == 200
                doc = json.load(r)
            assert doc["status"] == "green"
            assert doc["alerts"]["open"] == []
        finally:
            server.stop()

    def test_health_degrades_with_recorded_alert_on_lag(self, db):
        rs = ShardReplicaSet("rs0")
        monitor = HealthMonitor(db).watch_replica_set(rs)
        server = self._server(db, monitor=monitor)
        try:
            down = lagging_member(rs, 200)
            with urllib.request.urlopen(f"{server.base_url}/health") as r:
                assert r.status == 200  # warn still serves 200
                doc = json.load(r)
            assert doc["status"] == "warn"
            assert doc["gauges"]["replication_max_lag"] == 200
            with urllib.request.urlopen(f"{server.base_url}/alerts") as r:
                alerts = json.load(r)
            assert [a["rule"] for a in alerts["open"]] == ["replication-lag"]
            assert {r_["name"] for r_ in alerts["rules"]} >= {
                "replication-lag", "query-latency-burn"}
            rs.revive(down)
            with urllib.request.urlopen(f"{server.base_url}/health") as r:
                assert json.load(r)["status"] == "green"
        finally:
            server.stop()

    def test_critical_alert_returns_503(self, db):
        monitor = HealthMonitor(
            db, rules=[ThresholdRule("doom", gauge="doom", threshold=1.0,
                                     severity="critical")])
        monitor.add_gauge("doom", lambda: 9.0)
        server = self._server(db, monitor=monitor)
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{server.base_url}/health")
            assert exc.value.code == 503
            doc = json.load(exc.value)
            assert doc["status"] == "critical"
        finally:
            server.stop()


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
