"""Tests for the self-hosted telemetry warehouse: TTL retention in the
engine, metrics history in the flight ring, the access-log warehouse,
tail-sampled traces, warehouse-backed SLO alerts, HTTP endpoints, and the
CLI."""

import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.api import querylog
from repro.api.querylog import QueryLog, access_top
from repro.docstore import (
    DatastoreServer,
    DocumentStore,
    RemoteClient,
)
from repro.errors import DocstoreError
from repro.hpc.simclock import SimClock
from repro.obs import (
    BurnRateRule,
    HealthMonitor,
    LatencyWindowSource,
    MetricsRegistry,
    TelemetryWarehouse,
    ThresholdRule,
    get_registry,
    labels_key,
    set_registry,
    span,
)
from repro.obs.flight import (
    FlightRecorder,
    decode_ring,
    dict_delta,
    metric_points,
    set_flight_recorder,
)
from repro.obs.metrics import MAX_LABEL_SETS, OVERFLOW_LABEL_VALUE
from repro.obs.warehouse import TRACES_TTL_S, TailSampler


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = get_registry()
    set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture
def store():
    s = DocumentStore()
    yield s
    s.close()


def _get(url):
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# -- TTL indexes and the reaper -------------------------------------------


class TestTTL:
    def test_create_index_stores_ttl(self, store):
        coll = store["mp"]["events"]
        coll.create_index("ts", expire_after_seconds=60)
        info = coll.index_information()["ts_1"]
        assert info["expireAfterSeconds"] == 60.0
        assert coll.ttl_info() == [
            {"name": "ts_1", "field": "ts", "expire_after_seconds": 60.0}
        ]

    def test_negative_ttl_rejected(self, store):
        with pytest.raises(DocstoreError):
            store["mp"]["events"].create_index(
                "ts", expire_after_seconds=-1
            )

    def test_reap_expired_deletes_only_old_numeric(self, store):
        coll = store["mp"]["events"]
        coll.create_index("ts", expire_after_seconds=100)
        now = 1000.0
        coll.insert_many([
            {"i": "old", "ts": 850.0},
            {"i": "fresh", "ts": 950.0},
            {"i": "stringy", "ts": "not-a-timestamp"},
            {"i": "missing"},
        ])
        assert coll.reap_expired(now=now) == 1
        kept = {d["i"] for d in coll.find({})}
        # type-bracketed $lt: non-numeric ts values never expire
        assert kept == {"fresh", "stringy", "missing"}

    def test_reap_notifies_changestream(self, store):
        coll = store["mp"]["events"]
        coll.create_index("ts", expire_after_seconds=10)
        coll.insert_one({"ts": 0.0})
        stream = coll.watch()
        coll.reap_expired(now=1000.0)
        ops = [e.operation for e in stream.drain()]
        assert "delete" in ops

    def test_reaper_thread_sweeps(self):
        """Expired documents are gone one simulated interval after start."""
        clock = SimClock()
        store = DocumentStore(clock=clock)
        coll = store["mp"]["events"]
        coll.create_index("ts", expire_after_seconds=0.01)
        coll.insert_many([{"ts": time.time() - 5} for _ in range(3)])
        before = threading.active_count()
        store.start_ttl_reaper(interval_s=30.0)
        assert store.ttl_reaper.running
        assert threading.active_count() == before
        clock.run_until(29.0)
        assert coll.count_documents() == 3
        clock.run_until(30.0)
        assert coll.count_documents() == 0
        assert store.server_status()["ttl"]["sweeps"] == 1
        store.stop_ttl_reaper()

    def test_ttl_survives_snapshot_roundtrip(self, tmp_path):
        s1 = DocumentStore(persistence_dir=tmp_path)
        s1["mp"]["events"].create_index("ts", expire_after_seconds=30)
        s1["mp"]["events"].insert_one({"ts": 1.0})
        s1.snapshot()
        s1.close()
        s2 = DocumentStore(persistence_dir=tmp_path)
        info = s2["mp"]["events"].index_information()["ts_1"]
        assert info["expireAfterSeconds"] == 30.0
        assert s2["mp"]["events"].reap_expired(now=1e9) == 1
        s2.close()

    def test_ttl_over_the_wire(self, store):
        with DatastoreServer(store) as server:
            with RemoteClient(*server.address) as client:
                client["mp"]["events"].create_index(
                    "ts", expire_after_seconds=45
                )
        info = store["mp"]["events"].index_information()["ts_1"]
        assert info["expireAfterSeconds"] == 45.0


# -- label-cardinality bounding -------------------------------------------


class TestLabelCardinality:
    def test_default_cap(self):
        counter = get_registry().counter("c_total", "x")
        assert counter.max_label_sets == MAX_LABEL_SETS

    def test_overflow_routes_to_other_bucket(self):
        registry = get_registry()
        counter = registry.counter("hits_total", "x")
        counter.max_label_sets = 3
        for i in range(10):
            counter.inc(1, user=f"u{i}")
        collected = {
            labels_key(s["labels"]): s["value"]
            for s in counter.collect()["series"]
        }
        assert collected[f"user={OVERFLOW_LABEL_VALUE}"] == 7
        assert len(collected) == 4  # 3 real series + __other__
        overflow = registry.counter("repro_obs_label_overflow_total", "")
        assert overflow.value(metric="hits_total") == 7

    def test_existing_series_keep_counting_after_cap(self):
        counter = get_registry().counter("again_total", "x")
        counter.max_label_sets = 2
        counter.inc(1, k="a")
        counter.inc(1, k="b")
        counter.inc(1, k="c")  # overflows
        counter.inc(5, k="a")  # pre-existing: unaffected by the cap
        assert counter.value(k="a") == 6


# -- metrics history: the flight ring -------------------------------------


class TestMetricsHistory:
    def test_counter_deltas(self, tmp_path):
        # a private registry: only this test's metrics, no docstore noise
        registry = MetricsRegistry()
        rec = FlightRecorder(None, str(tmp_path), registry=registry)
        c = registry.counter("jobs_total", "x")
        c.inc(5, queue="ready")
        assert rec.capture(now=100.0)["metrics"] == {
            "jobs_total{queue=ready}": 5.0}
        c.inc(2, queue="ready")
        assert rec.capture(now=160.0)["metrics"] == {
            "jobs_total{queue=ready}": 2.0}
        # idle pass records nothing for the unchanged counter
        assert rec.capture(now=220.0)["metrics"] == {}
        rec.stop()
        points = metric_points(decode_ring(str(tmp_path))["snapshots"],
                               "jobs_total")
        assert [(p["ts"], p["value"]) for p in points] == [
            (100.0, 5.0), (160.0, 2.0)
        ]

    def test_gauge_and_histogram_snapshots(self, tmp_path):
        registry = MetricsRegistry()
        rec = FlightRecorder(None, str(tmp_path), registry=registry)
        registry.gauge("depth", "x").set(42.0)
        h = registry.histogram("lat_ms", "x")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        first = rec.capture(now=50.0)
        assert first["metrics"]["depth{}"] == 42.0
        hist = first["metrics"]["lat_ms{}"]
        assert hist["p50"] == pytest.approx(2.5)
        assert hist["p99"] >= hist["p95"] >= hist["p50"]
        assert {p["series"] for p in metric_points([first], "lat_ms")} == {
            "lat_ms{}.p50", "lat_ms{}.p95", "lat_ms{}.p99"}
        # unchanged gauges and quantiles cost nothing in the next delta
        second = rec.capture(now=51.0)
        assert "metrics" not in dict_delta(first, second).get("s", {})
        rec.stop()


# -- the access-log warehouse ---------------------------------------------


class TestAccessWarehouse:
    def test_filters_and_in_lists(self, store):
        log = QueryLog(collection=store["telemetry"]["access"])
        log.record_access("a", user="alice", status=200, ts=1.0)
        log.record_access("b", user="bob", status=404,
                          error="NotFoundError", ts=2.0)
        log.record_access("a", user="bob", status=200, duration_ms=9.0,
                          ts=3.0)
        assert len(log.query_access_log(endpoint="a")) == 2
        assert len(log.query_access_log(user=["alice", "bob"])) == 3
        assert len(log.query_access_log(errors_only=True)) == 1
        assert len(log.query_access_log(min_duration_ms=5.0)) == 1
        assert len(log.query_access_log(after=1.5, before=2.5)) == 1
        # most recent first
        assert log.query_access_log()[0]["ts"] == 3.0

    def test_endpoint_query_rides_the_compound_index(self, store):
        log = QueryLog(collection=store["telemetry"]["access"])
        for i in range(20):
            log.record_access("hot" if i % 2 else "cold", ts=float(i))
        plan = store["telemetry"]["access"].explain(
            {"endpoint": "hot", "ts": {"$gte": 0.0}}
        )
        assert plan["planSummary"] == "IXSCAN { endpoint: 1, ts: 1 }"

    def test_eviction_fifo_over_cap(self, store):
        log = QueryLog(collection=store["telemetry"]["access"], cap=5)
        for i in range(8):
            log.record_access(f"e{i}", ts=float(i))
        assert len(log) == 5
        kept = {r["endpoint"] for r in log.query_access_log()}
        assert kept == {"e3", "e4", "e5", "e6", "e7"}

    def test_top_rankings(self, store):
        log = QueryLog(collection=store["telemetry"]["access"])
        log.record_access("slow", duration_ms=100.0)
        log.record_access("busy", duration_ms=1.0)
        log.record_access("busy", duration_ms=1.0)
        log.record_access("broken", status=500, duration_ms=1.0)
        assert log.top(by="duration")[0]["endpoint"] == "slow"
        assert log.top(by="count")[0]["endpoint"] == "busy"
        assert log.top(by="errors")[0]["endpoint"] == "broken"
        with pytest.raises(ValueError):
            log.top(by="vibes")
        # access_top works on the bare collection too (the CLI path)
        assert access_top(store["telemetry"]["access"],
                          by="count")[0]["endpoint"] == "busy"

    def test_seq_resumes_after_restart(self, tmp_path):
        s1 = DocumentStore(persistence_dir=tmp_path)
        log1 = QueryLog(collection=s1["telemetry"]["access"])
        log1.record_access("a")
        log1.record_access("b")
        s1.snapshot()
        s1.close()
        s2 = DocumentStore(persistence_dir=tmp_path)
        log2 = QueryLog(collection=s2["telemetry"]["access"])
        log2.record_access("c")
        seqs = [r["seq"] for r in log2.query_access_log()]
        assert sorted(seqs) == [0, 1, 2]
        s2.close()


class TestAccessWriter:
    """A running log only queues; its writer task stores the queue with
    one ``insert_many`` per tick."""

    @pytest.fixture
    def clock(self):
        return SimClock()

    @pytest.fixture
    def batches(self, store, monkeypatch):
        """Sizes of the ``insert_many`` calls on ``telemetry.access``."""
        coll = store["telemetry"]["access"]
        sizes = []
        real = coll.insert_many

        def counting(docs):
            docs = list(docs)
            sizes.append(len(docs))
            return real(docs)

        monkeypatch.setattr(coll, "insert_many", counting)
        return sizes

    def test_records_queue_until_one_batch_per_tick(self, store, clock,
                                                    batches):
        log = QueryLog(collection=store["telemetry"]["access"], clock=clock)
        log.start()
        for i in range(5):
            log.record_access(f"e{i}")
        assert store["telemetry"]["access"].count_documents() == 0
        clock.run_until(querylog.FLUSH_INTERVAL_S)
        assert batches == [5]
        stored = store["telemetry"]["access"].find({}).sort("seq", 1)
        assert [r["endpoint"] for r in stored] == [f"e{i}" for i in range(5)]
        assert store.server_status()["tasks"]["repro-access-log"]["runs"] == 1
        assert get_registry().counter("repro_api_access_total", "").value(
            method="GET") == 5
        clock.run_until(3 * querylog.FLUSH_INTERVAL_S)
        assert batches == [5]  # an empty queue writes nothing
        log.stop()

    def test_stopped_log_writes_each_record_at_once(self, store, batches):
        log = QueryLog(collection=store["telemetry"]["access"])
        log.record_access("a")
        log.record_access("b")
        assert batches == [1, 1]

    def test_reads_see_queued_records(self, store, clock):
        log = QueryLog(collection=store["telemetry"]["access"], clock=clock)
        log.start()
        log.record_access("queued", user="alice")
        assert [r["endpoint"] for r in log.query_access_log()] == ["queued"]
        assert len(log) == 1
        log.stop()

    def test_stop_writes_the_queue(self, store, clock, batches):
        log = QueryLog(collection=store["telemetry"]["access"], clock=clock)
        log.start()
        for i in range(3):
            log.record_access(f"e{i}")
        log.stop()
        assert batches == [3]
        assert "repro-access-log" not in store.server_status()["tasks"]

    def test_full_queue_drops_and_counts(self, store, clock, monkeypatch):
        monkeypatch.setattr(querylog, "MAX_PENDING", 3)
        log = QueryLog(collection=store["telemetry"]["access"], clock=clock)
        log.start()
        for i in range(5):
            log.record_access(f"e{i}")
        assert get_registry().counter(
            "repro_api_access_dropped_total", "").value() == 2
        clock.run_until(querylog.FLUSH_INTERVAL_S)
        # the dropped records took no sequence numbers
        assert sorted(r["seq"] for r in log.query_access_log()) == [0, 1, 2]
        log.record_access("after")  # the queue has room again
        assert len(log) == 4
        log.stop()

    def test_batch_evicts_exactly_the_excess(self, store, clock):
        log = QueryLog(collection=store["telemetry"]["access"], cap=5,
                       clock=clock)
        log.start()
        for i in range(8):
            log.record_access(f"e{i}", ts=float(i))
        clock.run_until(querylog.FLUSH_INTERVAL_S)
        assert store["telemetry"]["access"].count_documents() == 5
        kept = {r["endpoint"] for r in log.query_access_log()}
        assert kept == {"e3", "e4", "e5", "e6", "e7"}
        log.stop()

    def test_warehouse_runs_the_writer(self, clock):
        store = DocumentStore(clock=clock)
        wh = TelemetryWarehouse(store, clock=clock)
        wh.start()
        assert wh.access.running
        wh.access.record_access("api")
        clock.run_until(querylog.FLUSH_INTERVAL_S)
        assert store["telemetry"]["access"].count_documents() == 1
        wh.access.record_access("api")
        wh.stop()
        assert not wh.access.running
        assert store["telemetry"]["access"].count_documents() == 2
        store.close()

    def test_concurrent_recorders_lose_nothing_and_keep_seq_order(
            self, store):
        """Recorders, readers and the writer thread race on the queue:
        every record lands once, and insertion order is ``seq`` order."""
        log = QueryLog(collection=store["telemetry"]["access"]).start()
        n_threads, per_thread = 6, 200
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def work(t):
                for i in range(per_thread):
                    log.record_access(f"t{t}")
                    if i % 50 == 0:
                        len(log)  # a read flushes from this thread too

            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
            log.stop()
        # ObjectIds count up in insertion order within one process.
        stored = store["telemetry"]["access"].find({}).sort("_id", 1)
        seqs = [r["seq"] for r in stored]
        assert seqs == list(range(n_threads * per_thread))

    def test_wire_records_reach_the_collection_off_the_request_path(
            self, store):
        wh = TelemetryWarehouse(store).start()
        try:
            with DatastoreServer(store, access_log=wh.access) as server:
                with RemoteClient(*server.address) as client:
                    for i in range(3):
                        client["mp"]["m"].insert_one({"i": i})
            access = store["telemetry"]["access"]
            deadline = time.time() + 5
            while access.count_documents() < 3 and time.time() < deadline:
                time.sleep(0.01)
            records = access.find({}).sort("seq", 1).to_list()
            assert [r["endpoint"] for r in records] == ["wire/insert_one"] * 3
        finally:
            wh.stop()
            store.stop_ttl_reaper()


# -- tail-sampled traces --------------------------------------------------


class TestTailSampler:
    def test_keeps_slow_drops_fast(self, store):
        sampler = TailSampler(store["telemetry"]["traces"],
                              latency_threshold_ms=5.0)
        sampler.install()
        try:
            with span("slow") as slow:
                time.sleep(0.01)
            with span("fast") as fast:
                pass
        finally:
            sampler.uninstall()
        kept = sampler.get(slow.trace_id)
        assert kept is not None
        assert kept["roots"][0]["reason"] == "slow"
        assert kept["roots"][0]["trace"]["name"] == "slow"
        assert sampler.get(fast.trace_id) is None
        decisions = get_registry().counter(
            "repro_obs_traces_sampled_total", ""
        )
        assert decisions.value(decision="kept") == 1
        assert decisions.value(decision="dropped") == 1

    def test_keeps_errors_below_threshold(self, store):
        sampler = TailSampler(store["telemetry"]["traces"],
                              latency_threshold_ms=1e9)
        sampler.install()
        try:
            with pytest.raises(RuntimeError):
                with span("doomed") as doomed:
                    raise RuntimeError("boom")
        finally:
            sampler.uninstall()
        kept = sampler.get(doomed.trace_id)
        assert kept["roots"][0]["reason"] == "error"

    def test_cap_evicts_oldest(self, store):
        sampler = TailSampler(store["telemetry"]["traces"],
                              latency_threshold_ms=0.0, cap=3)
        sampler.install()
        try:
            ids = []
            for i in range(5):
                with span(f"s{i}") as s:
                    pass
                ids.append(s.trace_id)
        finally:
            sampler.uninstall()
        assert sampler.get(ids[0]) is None
        assert sampler.get(ids[-1]) is not None
        assert len(sampler.query(limit=0)) == 3

    def test_uninstalled_sampler_sees_nothing(self, store):
        sampler = TailSampler(store["telemetry"]["traces"],
                              latency_threshold_ms=0.0)
        with span("unsampled") as s:
            pass
        assert sampler.get(s.trace_id) is None


# -- wire-server access accounting ----------------------------------------


class TestWireAccess:
    def test_dispatch_success_and_failure_both_recorded(self, store):
        log = QueryLog(collection=store["telemetry"]["access"])
        with DatastoreServer(store, access_log=log) as server:
            with RemoteClient(*server.address) as client:
                client["mp"]["m"].insert_one({"x": 1})
                with pytest.raises(DocstoreError):
                    client.request({"op": "definitely_not_an_op"})
        records = log.query_access_log(method="WIRE")
        by_endpoint = {r["endpoint"]: r for r in records}
        ok = by_endpoint["wire/insert_one"]
        assert ok["status"] == 200 and ok["error"] is None
        assert ok["request_bytes"] > 0 and ok["response_bytes"] > 0
        failed = by_endpoint["wire/definitely_not_an_op"]
        assert failed["status"] == 500
        assert failed["error"]  # dispatch failures still produce a record

    def test_no_log_attached_is_fine(self, store):
        with DatastoreServer(store) as server:
            with RemoteClient(*server.address) as client:
                assert client.ping()


# -- warehouse-backed SLO alerts + health endpoint ------------------------


class TestWarehouseSLO:
    def test_burn_rate_from_warehouse_records(self, store):
        wh = TelemetryWarehouse(store)
        now = time.time()
        for i in range(10):
            wh.access.record_access("api", duration_ms=500.0,
                                    ts=now - i)
        rule = BurnRateRule(
            "api-latency",
            LatencyWindowSource.from_warehouse(wh, 100.0, endpoint="api"),
            objective=0.5, window_s=300.0, severity="critical",
        )
        engine = wh.slo_engine([rule])
        opened = engine.evaluate(now=now)
        assert len(opened) == 1
        assert engine.status() == "critical"
        # alert document lives in telemetry.alerts, not system.alerts
        assert store["telemetry"]["alerts"].count_documents(
            {"state": "open"}
        ) == 1

    def test_alert_lifecycle_survives_restart(self, tmp_path):
        now = time.time()
        s1 = DocumentStore(persistence_dir=tmp_path)
        wh1 = TelemetryWarehouse(s1)
        for i in range(4):
            wh1.access.record_access("api", duration_ms=500.0, ts=now - i)
        rule = BurnRateRule(
            "api-latency",
            LatencyWindowSource.from_warehouse(wh1, 100.0),
            objective=0.5, window_s=300.0,
        )
        wh1.slo_engine([rule]).evaluate(now=now)
        s1.snapshot()
        s1.close()

        s2 = DocumentStore(persistence_dir=tmp_path)
        wh2 = TelemetryWarehouse(s2)
        rule2 = BurnRateRule(
            "api-latency",
            LatencyWindowSource.from_warehouse(wh2, 100.0),
            objective=0.5, window_s=300.0,
        )
        engine2 = wh2.slo_engine([rule2])
        # the open alert was adopted from the journal round-trip
        assert [a["rule"] for a in engine2.open_alerts()] == ["api-latency"]
        assert engine2.status() == "critical"
        # healthy traffic resolves the *persisted* alert, not a duplicate
        later = now + 3600.0
        for i in range(20):
            wh2.access.record_access("api", duration_ms=1.0, ts=later - i)
        assert engine2.evaluate(now=later) == []
        assert engine2.open_alerts() == []
        assert s2["telemetry"]["alerts"].count_documents(
            {"state": "resolved"}
        ) == 1
        s2.close()

    def test_health_endpoint_503_on_critical(self, store):
        db = store["mp"]
        db["materials"].insert_one({"material_id": "mp-1"})
        wh = TelemetryWarehouse(store)
        rule = ThresholdRule("queue-depth", gauge="queue_depth",
                             threshold=10.0, severity="critical")
        monitor = HealthMonitor(engine=wh.slo_engine([rule]))
        depth = {"value": 0.0}
        monitor.add_gauge("queue_depth", lambda: depth["value"])
        api = MaterialsAPI(QueryEngine(db, query_log=wh.access))
        with MaterialsAPIServer(api, monitor=monitor,
                                warehouse=wh) as server:
            code, report = _get(server.base_url + "/health")
            assert code == 200 and report["status"] == "green"
            depth["value"] = 50.0
            code, report = _get(server.base_url + "/health")
            assert code == 503 and report["status"] == "critical"
            assert report["alerts"]["open"][0]["rule"] == "queue-depth"
            depth["value"] = 0.0
            code, report = _get(server.base_url + "/health")
            assert code == 200 and report["status"] == "green"


# -- HTTP surface ---------------------------------------------------------


@pytest.fixture
def served_warehouse(store):
    db = store["mp"]
    db["materials"].insert_many([
        {"material_id": f"mp-{i}", "pretty_formula": "NaCl",
         "band_gap": 1.0}
        for i in range(3)
    ])
    wh = TelemetryWarehouse(store, trace_latency_threshold_ms=0.0)
    wh.tail_sampler.install()
    api = MaterialsAPI(QueryEngine(db, query_log=wh.access))
    server = MaterialsAPIServer(api, warehouse=wh).start()
    yield server, wh
    server.stop()
    wh.tail_sampler.uninstall()


def _await_access(wh, n):
    """The access record is written after the response bytes go out, on
    the handler's thread: poll until ``n`` have landed."""
    deadline = time.time() + 5
    recs = wh.access.query_access_log(endpoint="rest/v1/materials")
    while len(recs) < n and time.time() < deadline:
        time.sleep(0.01)
        recs = wh.access.query_access_log(endpoint="rest/v1/materials")
    return recs


class TestTelemetryEndpoints:
    def test_requests_land_in_access_warehouse(self, served_warehouse):
        server, wh = served_warehouse
        _get(server.base_url + "/rest/v1/materials/mp-1")
        _get(server.base_url + "/rest/v1/materials/mp-2")
        _get(server.base_url + "/rest/v1/materials/mp-missing")
        recs = _await_access(wh, 3)
        # ids are templated away: one endpoint, bounded cardinality
        assert len(recs) == 3
        assert {r["status"] for r in recs} == {200, 404}
        assert all(r["response_bytes"] > 0 for r in recs)
        assert all(r["duration_ms"] > 0 for r in recs)

    def test_rest_request_is_one_record(self, served_warehouse, store):
        """The QueryEngine call a /rest request makes folds into the
        request's record instead of writing a ``query/...`` record."""
        server, wh = served_warehouse
        _get(server.base_url + "/rest/v1/materials/mp-1")
        (rec,) = _await_access(wh, 1)
        assert rec["collection"] == "materials"
        assert rec["nreturned"] == 1
        assert "mp-1" in rec["query"]
        assert store["telemetry"]["access"].count_documents() == 1
        assert get_registry().counter("repro_api_queries_total", "").value(
            collection="materials") == 1

    def test_engine_with_its_own_log_keeps_its_records(self, store):
        db = store["mp"]
        db["materials"].insert_one({"material_id": "mp-1"})
        wh = TelemetryWarehouse(store)
        qe = QueryEngine(db)
        with MaterialsAPIServer(MaterialsAPI(qe), warehouse=wh) as server:
            _get(server.base_url + "/rest/v1/materials/mp-1")
            _await_access(wh, 1)
        assert [e["collection"] for e in qe.query_log.entries] == [
            "materials"]
        assert store["telemetry"]["access"].count_documents() == 1

    def test_records_land_with_the_writer_running(self, served_warehouse,
                                                  store):
        server, wh = served_warehouse
        wh.access.start()
        try:
            for i in (1, 2):
                _get(server.base_url + f"/rest/v1/materials/mp-{i}")
            access = store["telemetry"]["access"]
            deadline = time.time() + 5
            while access.count_documents() < 2 and time.time() < deadline:
                time.sleep(0.01)
            assert access.count_documents({"endpoint": "rest/v1/materials",
                                           "nreturned": 1}) == 2
        finally:
            wh.access.stop()

    def test_telemetry_access_endpoint(self, served_warehouse):
        server, wh = served_warehouse
        _get(server.base_url + "/rest/v1/materials/mp-1")
        _await_access(wh, 1)
        code, doc = _get(
            server.base_url
            + "/telemetry/access?endpoint=rest/v1/materials"
        )
        assert code == 200 and len(doc["records"]) == 1
        code, doc = _get(server.base_url + "/telemetry/access?top=count")
        assert code == 200 and doc["top"]
        code, doc = _get(server.base_url + "/telemetry/access?summary=1")
        assert code == 200 and "queries" in doc
        code, doc = _get(server.base_url + "/telemetry/access?top=vibes")
        assert code == 400

    def test_telemetry_metrics_endpoint(self, served_warehouse, tmp_path):
        """Metrics history is the flight ring, served at /debug/flight."""
        server, _ = served_warehouse
        get_registry().gauge("demo_depth", "x").set(7.0)
        rec = FlightRecorder(None, str(tmp_path))
        set_flight_recorder(rec)
        try:
            rec.capture()
            assert _get(server.base_url + "/telemetry/metrics")[0] == 404
            code, doc = _get(server.base_url + "/debug/flight?window=1")
            assert code == 200
            assert doc["snapshots"][0]["metrics"]["demo_depth{}"] == 7.0
        finally:
            set_flight_recorder(None)
            rec.stop()

    def test_trace_endpoints(self, served_warehouse):
        server, _ = served_warehouse
        with span("traced-work"):
            pass
        code, doc = _get(server.base_url + "/telemetry/traces")
        assert code == 200 and doc["traces"]
        trace_id = doc["traces"][0]["trace_id"]
        code, doc = _get(server.base_url + f"/traces/{trace_id}")
        assert code == 200 and doc["trace_id"] == trace_id
        assert doc["roots"][0]["trace"]["name"] == "traced-work"
        code, _doc = _get(server.base_url + "/traces/not-a-trace")
        assert code == 404

    def test_telemetry_404_without_warehouse(self, store):
        api = MaterialsAPI(QueryEngine(store["mp"]))
        with MaterialsAPIServer(api) as server:
            assert _get(server.base_url + "/telemetry/access")[0] == 404
            assert _get(server.base_url + "/traces/x")[0] == 404


# -- warehouse lifecycle ---------------------------------------------------


class TestWarehouseLifecycle:
    def test_tick_and_stats(self, store):
        wh = TelemetryWarehouse(store)
        wh.access.record_access("api")
        assert wh.stats() == {"access": 1, "traces": 0, "alerts": 0}

    def test_no_events_collection(self, store):
        """Incidents live in the flight ring only: the warehouse creates
        no ``telemetry.events`` mirror."""
        TelemetryWarehouse(store)
        assert "events" not in store["telemetry"].list_collection_names()

    def test_tick_writes_no_metric_rows(self):
        clock = SimClock()
        store = DocumentStore(clock=clock)
        wh = TelemetryWarehouse(store, clock=clock)
        get_registry().counter("t_total", "x").inc(1)
        wh.start()
        assert wh.running
        clock.run_until(60.0)
        wh.stop()
        assert not wh.running
        names = store["telemetry"].list_collection_names()
        # neither raw metric points nor their rollups
        assert not [n for n in names if n.startswith("metrics")]
        store.close()

    def test_no_copy_of_profile_or_profiler(self):
        """The warehouse copies neither ``system.profile`` nor profiler
        snapshots: both live in the process and nowhere else."""
        from repro.obs import profiler as profiler_module

        clock = SimClock()
        store = DocumentStore(clock=clock)
        db = store["mp"]
        db["m"].insert_many([{"i": i} for i in range(3)])
        db.set_profiling_level(2)
        profiler = profiler_module.start_profiler(hz=10)
        try:
            profiler._ingest("main;serve;find")
            wh = TelemetryWarehouse(store, clock=clock).start()
            list(db["m"].find({"i": 1}))
            clock.run_until(60.0)
            wh.stop()
        finally:
            profiler_module.stop_profiler()
            profiler_module._global_profiler = None
        assert db.profile_log
        names = store["telemetry"].list_collection_names()
        assert "profile" not in names and "profiles" not in names
        store.close()

    def test_background_loop_and_reaper(self):
        """The access writer and the store's TTL reaper on one simulated
        clock: both run when due, in the test's own thread."""
        clock = SimClock()
        store = DocumentStore(clock=clock)
        wh = TelemetryWarehouse(store, clock=clock)
        store["telemetry"]["traces"].insert_one(
            {"trace_id": "stale", "ts": time.time() - TRACES_TTL_S - 60.0})
        before = threading.active_count()
        wh.start(reap_interval_s=8.0)
        assert wh.running
        assert store.ttl_reaper is not None and store.ttl_reaper.running
        assert threading.active_count() == before
        clock.run_until(5.0)  # writer passes, no sweep yet
        assert store["telemetry"]["traces"].count_documents(
            {"trace_id": "stale"}) == 1
        clock.run_until(8.0)  # the reaper's first sweep
        assert store["telemetry"]["traces"].count_documents(
            {"trace_id": "stale"}) == 0
        tasks = store.server_status()["tasks"]
        assert {"repro-access-log", "repro-ttl-reaper"} <= set(tasks)
        assert "repro-telemetry-warehouse" not in tasks
        assert tasks["repro-ttl-reaper"]["runs"] == 1
        wh.stop()
        assert not wh.running
        store.close()


# -- CLI ------------------------------------------------------------------


class TestTelemetryCLI:
    @pytest.fixture
    def data_dir(self, tmp_path):
        get_registry().counter("cli_total", "x").inc(4)
        get_registry().histogram("cli_ms", "x").observe(3.0)
        rec = FlightRecorder(None, str(tmp_path / "flight"))
        rec.capture(now=90.0)
        rec.stop()
        s = DocumentStore(persistence_dir=tmp_path)
        wh = TelemetryWarehouse(s)
        wh.access.record_access("rest/v1/materials", user="alice",
                                status=200, duration_ms=3.0, ts=90.0)
        wh.access.record_access("rest/v1/materials", user="bob",
                                status=500, error="APIError",
                                duration_ms=7.0, ts=91.0)
        s.snapshot()
        s.close()
        return str(tmp_path)

    def _run(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_top(self, capsys, data_dir):
        out = self._run(capsys, "--data-dir", data_dir,
                        "telemetry", "top")
        assert "rest/v1/materials" in out

    def test_access_errors_only(self, capsys, data_dir):
        out = self._run(capsys, "--data-dir", data_dir,
                        "telemetry", "access", "--errors-only", "--json")
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1 and records[0]["user"] == "bob"

    def test_trends(self, capsys, data_dir):
        out = self._run(capsys, "--data-dir", data_dir, "telemetry",
                        "trends", "--name", "cli_total", "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [{"ts": 90.0, "series": "cli_total{}", "value": 4.0}]
        out = self._run(capsys, "--data-dir", data_dir, "telemetry",
                        "trends", "--name", "cli_ms")
        assert "cli_ms{}.p95" in out
        # no --name lists available metrics
        out = self._run(capsys, "--data-dir", data_dir,
                        "telemetry", "trends")
        assert {"cli_total", "cli_ms"} <= set(out.splitlines())

    def test_telemetry_over_the_wire(self, capsys, data_dir):
        store = DocumentStore(persistence_dir=data_dir)
        with DatastoreServer(store) as server:
            out = self._run(capsys, "telemetry", "top",
                            "--host", server.address[0],
                            "--port", str(server.port))
            assert "rest/v1/materials" in out
            out = self._run(capsys, "telemetry", "access", "--json",
                            "--host", server.address[0],
                            "--port", str(server.port))
            assert len(out.splitlines()) == 2
            # trends asks the server's flight recorder, not its store
            rec = FlightRecorder(None, os.path.join(data_dir, "live"))
            set_flight_recorder(rec)
            try:
                rec.capture()
                out = self._run(capsys, "telemetry", "trends",
                                "--name", "cli_total", "--json",
                                "--host", server.address[0],
                                "--port", str(server.port))
            finally:
                set_flight_recorder(None)
                rec.stop()
            rows = [json.loads(line) for line in out.splitlines()]
            # a new recorder's first delta is the total since start
            assert [(r["series"], r["value"]) for r in rows] == [
                ("cli_total{}", 4.0)]
        store.close()

    def test_create_index_expire_after(self, capsys, tmp_path):
        out = self._run(capsys, "--data-dir", str(tmp_path),
                        "create-index", "--db", "mp", "--coll", "events",
                        "--keys", "ts", "--expire-after", "120")
        assert "TTL 120s" in out
        store = DocumentStore(persistence_dir=tmp_path)
        info = store["mp"]["events"].index_information()["ts_1"]
        assert info["expireAfterSeconds"] == 120.0
        store.close()
