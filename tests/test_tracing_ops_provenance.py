"""Tests for distributed tracing, currentOp/killOp, and the provenance DAG."""

import json
import threading
import time
import urllib.request

import pytest

from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.builders import MaterialsBuilder, XRDBuilder
from repro.docstore import (
    DatastoreProxy,
    DatastoreServer,
    DocumentStore,
    RemoteClient,
    ShardedCluster,
    query_shape,
)
from repro.docstore.ops import thread_op
from repro.errors import DeadlineExceeded, NotFoundError, OperationKilled
from repro.fireworks import LaunchPad, Rocket, Workflow
from repro.matgen import make_prototype
from repro.obs import (
    MetricsRegistry,
    clear_traces,
    export_traces,
    format_provenance,
    format_trace,
    get_registry,
    provenance_graph,
    remote_span,
    set_registry,
    span,
    stitch_spans,
    trace_context,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    """Isolate each test behind its own metrics registry and trace buffer."""
    previous = get_registry()
    registry = MetricsRegistry()
    set_registry(registry)
    clear_traces()
    yield registry
    set_registry(previous)


@pytest.fixture
def store():
    return DocumentStore()


@pytest.fixture
def server(store):
    srv = DatastoreServer(store)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = RemoteClient("127.0.0.1", server.port)
    yield c
    c.close()


class TestTraceIds:
    def test_root_span_ids_are_hex_and_unique(self):
        with span("a") as a:
            pass
        with span("b") as b:
            pass
        assert a.span_id != b.span_id
        assert a.trace_id == a.span_id
        int(a.span_id, 16)  # valid hex

    def test_children_share_trace_id(self):
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_span_id == outer.span_id

    def test_trace_context_none_without_span(self):
        assert trace_context() is None

    def test_trace_context_reflects_current_span(self):
        with span("work") as s:
            ctx = trace_context()
            assert ctx == {"trace_id": s.trace_id, "span_id": s.span_id}

    def test_remote_span_continues_foreign_trace(self):
        ctx = {"trace_id": "cafe000000000001", "span_id": "cafe000000000002"}
        with remote_span("wire.find", ctx) as s:
            assert s.trace_id == "cafe000000000001"
            assert s.parent_span_id == "cafe000000000002"
        assert export_traces("cafe000000000001")

    def test_remote_span_without_context_is_plain_span(self):
        with remote_span("wire.find", None) as s:
            assert s.trace_id == s.span_id


class TestStitchAndFormat:
    def test_stitch_grafts_remote_root_under_client_span(self):
        with span("query") as root:
            with span("client.find"):
                ctx = trace_context()
        with remote_span("wire.find", ctx):
            pass
        exported = export_traces(root.trace_id)
        stitched = stitch_spans([root.to_dict()] + exported)
        assert len(stitched) == 1
        text = format_trace([root.to_dict()] + exported)
        assert "client.find" in text and "wire.find" in text
        # The server span renders indented under the client span.
        client_line = next(i for i, l in enumerate(text.splitlines())
                           if "client.find" in l)
        wire_line = next(i for i, l in enumerate(text.splitlines())
                         if "wire.find" in l)
        assert wire_line > client_line

    def test_unmatched_roots_stay_top_level(self):
        with span("lonely") as s:
            pass
        stitched = stitch_spans([s.to_dict()])
        assert stitched[0]["name"] == "lonely"

    def test_format_trace_marks_errors(self):
        with pytest.raises(ValueError):
            with span("boom") as s:
                raise ValueError("nope")
        assert "[error: ValueError: nope]" in format_trace(s)


class TestWireTracePropagation:
    def test_single_trace_across_client_and_server(self, store, client):
        store["mp"].set_profiling_level(2)
        coll = client["mp"]["tasks"]
        coll.insert_one({"task_id": "t1"})
        with span("tour.remote_query") as root:
            coll.find({"task_id": "t1"})
        client_spans = root.find("client.find")
        assert client_spans and client_spans[0].trace_id == root.trace_id
        # The server recorded profile entries under the same trace id.
        profiled = [e for e in store["mp"].profile_log
                    if e.get("trace_id") == root.trace_id]
        assert any(e["op"] == "find" for e in profiled)
        # The server's span buffer exports and stitches under the client.
        server_spans = client.export_traces(root.trace_id)
        assert server_spans
        text = format_trace([root.to_dict()] + server_spans)
        assert text.count("trace ") == 1
        assert "wire.find" in text

    def test_untraced_request_adds_no_trace_field(self, store, client):
        client["mp"]["tasks"].insert_one({"task_id": "t2"})
        client["mp"]["tasks"].find({})
        assert client.export_traces() == []

    def test_trace_through_proxy(self, server, store):
        store["mp"].set_profiling_level(2)
        with DatastoreProxy("127.0.0.1", server.port) as proxy:
            with proxy.client() as c:
                c["mp"]["tasks"].insert_one({"task_id": "t1"})
                with span("tour.via_proxy") as root:
                    c["mp"]["tasks"].find({"task_id": "t1"})
                exported = c.export_traces(root.trace_id)
        # Both the proxy hop and the server dispatch joined the trace.
        names = {d["name"] for d in exported}
        assert "proxy.forward" in names
        assert any(n.startswith("wire.") for n in names)
        text = format_trace([root.to_dict()] + exported)
        assert text.count("trace ") == 1
        lines = text.splitlines()
        order = [next(i for i, l in enumerate(lines) if key in l)
                 for key in ("client.find", "proxy.forward", "wire.find")]
        assert order == sorted(order)


class TestClusterFanOut:
    def test_sharded_reads_fan_out_in_one_trace(self):
        cluster = ShardedCluster(n_replicas=1)
        for shard_id in ("s0", "s1"):
            cluster.add_shard(shard_id)
        coll = cluster.shard_collection("mp.tasks", "mps_id")
        coll.insert_many([{"mps_id": f"mps-{i}", "n": i} for i in range(10)])
        with span("tour.sharded_query") as root:
            docs = coll.find({})
            routed = coll.count_documents({"mps_id": "mps-3"})
        assert len(docs) == 10 and routed == 1
        # A scatter read has one child per shard, a routed one just one.
        (fan,) = root.find("sharded.find")
        assert sorted(s.attributes["shard"]
                      for s in fan.find("shard.find")) == ["s0", "s1"]
        (count,) = root.find("sharded.count")
        assert len(count.find("shard.count")) == 1
        assert all(s.trace_id == root.trace_id
                   for s in root.find("shard.find") + root.find("shard.count"))
        assert format_trace(root).count("trace ") == 1
        # Outside a trace the router records nothing.
        clear_traces()
        coll.find({})
        assert export_traces() == []


class TestCurrentOpKillOp:
    def test_query_shape_elides_values(self):
        shape = query_shape({"state": "READY", "n": {"$lte": 200},
                             "tags": {"$in": [1, 2, 3, 4, 5, 6]}})
        assert shape["state"] == "?str"
        assert shape["n"] == {"$lte": "?int"}
        assert shape["tags"]["$in"][-1] == "..."

    def test_thread_op_is_the_innermost_and_nesting_restores(self, store):
        me = threading.get_ident()
        assert thread_op(me) is None
        with store._ops.register("findAndModify", "mp.t", {"x": 1}) as outer:
            assert thread_op(me) is outer
            with store._ops.register("findOne", "mp.t", {"_id": 1}) as inner:
                assert thread_op(me) is inner
            assert thread_op(me) is outer
        assert thread_op(me) is None

    def test_current_op_empty_when_idle(self, store):
        assert store.current_op() == []
        assert store.kill_op(999) is False

    def test_killed_find_raises_cleanly(self, store):
        coll = store["mp"]["tasks"]
        coll.insert_many([{"n": i} for i in range(10)])
        started, release = threading.Event(), threading.Event()
        original = coll._select

        def gated(*args, **kwargs):
            for hit in original(*args, **kwargs):
                started.set()
                release.wait(timeout=5)
                yield hit

        coll._select = gated
        failures = []

        def scan():
            try:
                coll.find({}).to_list()
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        t = threading.Thread(target=scan)
        t.start()
        assert started.wait(timeout=5)
        ops = store.current_op()
        assert len(ops) == 1
        assert ops[0]["op"] == "find" and ops[0]["ns"] == "mp.tasks"
        assert store.kill_op(ops[0]["opid"]) is True
        release.set()
        t.join(timeout=5)
        assert len(failures) == 1
        assert isinstance(failures[0], OperationKilled)
        # The table is clean again: finish() ran despite the raise.
        assert store.current_op() == []

    def test_inflight_mapreduce_listed_and_killed(self, store):
        coll = store["mp"]["tasks"]
        coll.insert_many([{"mps_id": f"m{i}", "e": float(i)}
                          for i in range(10)])
        started, release = threading.Event(), threading.Event()
        failures = []

        def mapper(doc):
            started.set()
            release.wait(timeout=5)
            yield doc["mps_id"], doc["e"]

        def job():
            try:
                coll.map_reduce(mapper, lambda k, vs: min(vs))
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        t = threading.Thread(target=job)
        t.start()
        assert started.wait(timeout=5)
        ops = store.current_op()
        assert any(o["op"] == "mapreduce" for o in ops)
        opid = next(o["opid"] for o in ops if o["op"] == "mapreduce")
        assert store.kill_op(opid) is True
        release.set()
        t.join(timeout=5)
        assert len(failures) == 1
        assert isinstance(failures[0], OperationKilled)
        assert store.current_op() == []

    def test_current_op_and_kill_op_over_wire(self, store, client):
        coll = store["mp"]["tasks"]
        coll.insert_many([{"n": i} for i in range(5)])
        started, release = threading.Event(), threading.Event()
        original = coll._select

        def gated(*args, **kwargs):
            for hit in original(*args, **kwargs):
                started.set()
                release.wait(timeout=5)
                yield hit

        coll._select = gated
        failures = []

        def scan():
            try:
                coll.find({}).to_list()
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        t = threading.Thread(target=scan)
        t.start()
        assert started.wait(timeout=5)
        ops = client.current_op()
        assert ops and ops[0]["query_shape"] is not None
        assert client.kill_op(ops[0]["opid"]) is True
        release.set()
        t.join(timeout=5)
        assert isinstance(failures[0], OperationKilled)

    @pytest.mark.parametrize("op", ["findOne", "count"])
    def test_find_one_and_count_listed_and_killable(self, store, op):
        coll = store["mp"]["tasks"]
        coll.insert_many([{"n": i} for i in range(10)])
        verb = coll.find_one if op == "findOne" else coll.count_documents
        failures = []

        def run():
            try:
                verb({"n": {"$gte": 0}})
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        worker = threading.Thread(target=run)
        with coll._lock.write():
            worker.start()
            ops = _wait_for_op(store, op)
            assert ops, f"{op} never appeared in current_op()"
            assert ops[0]["ns"] == "mp.tasks"
            assert store.kill_op(ops[0]["opid"]) is True
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert len(failures) == 1 and isinstance(failures[0], OperationKilled)
        assert store.current_op() == []

    @pytest.mark.parametrize("op", ["distinct", "mapreduce"])
    def test_distinct_and_map_reduce_select_inside_their_op(self, store, op):
        """Each selects inside its own op, under the read lock: killing it
        while it waits for the lock stops the read, and no other op (no
        inner ``find``) is listed."""
        coll = store["mp"]["tasks"]
        coll.insert_many([{"n": i} for i in range(10)])
        failures = []

        def run():
            try:
                if op == "distinct":
                    coll.distinct("n", {"n": {"$gte": 0}})
                else:
                    coll.map_reduce(lambda d: [(d["n"], 1)],
                                    lambda k, vs: sum(vs), {"n": {"$gte": 0}})
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        worker = threading.Thread(target=run)
        with coll._lock.write():
            worker.start()
            ops = _wait_for_op(store, op)
            assert ops, f"{op} never appeared in current_op()"
            assert [o["op"] for o in store.current_op()] == [op]
            assert store.kill_op(ops[0]["opid"]) is True
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert len(failures) == 1 and isinstance(failures[0], OperationKilled)
        assert store.current_op() == []

    def test_inflight_write_listed_killable_and_completes(self, store):
        """A write is in current_op() while it runs and gone after; killOp
        flags it and it still runs to completion."""
        coll = store["mp"]["materials"]
        coll.insert_one({"x": 1})
        held, release = threading.Event(), threading.Event()

        def gate(op, payload):  # change listeners run under the write lock
            held.set()
            release.wait(timeout=5)

        coll.add_change_listener(gate)
        writer = threading.Thread(target=coll.update_one,
                                  args=({"x": 1}, {"$set": {"y": 2}}))
        writer.start()
        try:
            assert held.wait(timeout=5)
            ops = store.current_op()
            assert [(o["op"], o["ns"], o["query_shape"]) for o in ops] == [
                ("update", "mp.materials", {"x": "?int"})]
            assert store.kill_op(ops[0]["opid"]) is True
            assert store.current_op()[0]["killed"] is True
        finally:
            release.set()
            writer.join(timeout=5)
        assert not writer.is_alive()
        assert store.current_op() == []
        assert coll.find_one({"x": 1})["y"] == 2

    def test_wire_count_stops_at_its_deadline(self, store, client):
        coll = store["mp"]["tasks"]
        coll.insert_many([{"n": i} for i in range(10)])
        failures = []
        deadline = time.time() + 0.5

        def run():
            try:
                client.request({"op": "count", "db": "mp", "coll": "tasks",
                                "query": {"n": {"$gte": 0}},
                                "$deadline": deadline})
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        worker = threading.Thread(target=run)
        with coll._lock.write():
            worker.start()
            assert _wait_for_op(store, "count"), "count never registered"
            time.sleep(max(0.0, deadline - time.time()) + 0.05)
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert len(failures) == 1 and isinstance(failures[0], DeadlineExceeded)

    def test_system_collections_not_tracked(self, store):
        db = store["mp"]
        db.set_profiling_level(2)
        db["tasks"].insert_one({"n": 1})
        db["tasks"].find({}).to_list()
        # Profiler reads its own system.profile without registering ops.
        assert db.profile_log
        assert store.current_op() == []


def _wait_for_op(store, op, timeout_s=5.0):
    """``current_op()`` rows for ``op``, polled until one shows up."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        ops = [o for o in store.current_op() if o["op"] == op]
        if ops:
            return ops
        time.sleep(0.001)
    return []


def _run_small_workflow(db):
    """One real launch so task docs carry launcher provenance stamps."""
    from tests.test_fireworks import generous_fw

    nacl = make_prototype("rocksalt", ["Na", "Cl"])
    launchpad = LaunchPad(db)
    workflow = Workflow([generous_fw(nacl, mps_id="mps-nacl")])
    launchpad.add_workflow(workflow)
    Rocket(launchpad).rapidfire()
    return workflow


class TestProvenance:
    def test_launcher_stamps_tasks(self):
        db = DocumentStore()["mp"]
        wf = _run_small_workflow(db)
        task = db["tasks"].find_one({"state": "COMPLETED"})
        prov = task["provenance"]
        assert prov["source"] == "launcher"
        assert prov["workflow_id"] == wf.workflow_id
        assert prov["trace_id"] is not None
        assert prov["source_task_ids"] == []

    def test_graph_resolves_source_task_ids(self):
        db = DocumentStore()["mp"]
        _run_small_workflow(db)
        MaterialsBuilder(db).run()
        material = db["materials"].find_one({})
        graph = provenance_graph(db, material["material_id"])
        task_ids = {t["_id"] for t in db["tasks"].find({"state": "COMPLETED"})}
        graph_tasks = {n["id"] for n in graph["nodes"] if n["kind"] == "task"}
        assert graph_tasks == {f"task:{tid}" for tid in task_ids}
        kinds = {n["kind"] for n in graph["nodes"]}
        assert {"material", "task", "firework", "workflow"} <= kinds
        assert material["provenance"]["source_task_ids"]
        rendered = format_provenance(graph)
        assert graph["root"] in rendered and "<-built_from-" in rendered

    def test_unknown_material_raises(self):
        db = DocumentStore()["mp"]
        with pytest.raises(NotFoundError):
            provenance_graph(db, "mp-404")

    def test_derived_builder_stamps_sources(self):
        db = DocumentStore()["mp"]
        _run_small_workflow(db)
        MaterialsBuilder(db).run()
        XRDBuilder(db).run()
        xrd = db["xrd"].find_one({})
        prov = xrd["provenance"]
        assert prov["builder"] == "xrd"
        assert prov["source_material_ids"] == [xrd["material_id"]]


class TestHTTPEndpoints:
    def _serve(self, db):
        return MaterialsAPIServer(MaterialsAPI(QueryEngine(db)))

    def test_ops_endpoint(self):
        db = DocumentStore()["mp"]
        with self._serve(db) as srv:
            with urllib.request.urlopen(f"{srv.base_url}/ops") as resp:
                body = json.loads(resp.read())
        assert body == {"inprog": []}

    def test_provenance_endpoint(self):
        db = DocumentStore()["mp"]
        _run_small_workflow(db)
        MaterialsBuilder(db).run()
        material_id = db["materials"].find_one({})["material_id"]
        with self._serve(db) as srv:
            url = f"{srv.base_url}/provenance/{material_id}"
            with urllib.request.urlopen(url) as resp:
                graph = json.loads(resp.read())
            assert graph["material_id"] == material_id
            assert any(n["kind"] == "task" for n in graph["nodes"])
            missing = f"{srv.base_url}/provenance/mp-404"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(missing)
            assert err.value.code == 404


class TestWireErrorAccounting:
    def test_error_bytes_counted_with_error_label(self, fresh_registry,
                                                  client):
        with pytest.raises(Exception):
            client.request({"op": "frobnicate", "db": "mp", "coll": "x"})
        snapshot = fresh_registry.snapshot()
        errors = snapshot["repro_wire_errors_total"]["series"]
        assert any("WireProtocolError" in labels for labels in errors)
        traffic = snapshot["repro_wire_bytes_total"]["series"]
        assert any('error="WireProtocolError"' in labels and value > 0
                   for labels, value in traffic.items())


class TestTaskfarmSpans:
    def test_execute_traces_slots_and_tasks(self):
        from repro.hpc import FarmTask, TaskFarm

        farm = TaskFarm(
            [FarmTask(f"t{i}", estimated_runtime_s=10.0) for i in range(4)],
            n_slots=2,
        )
        with span("farm.root") as root:
            out = farm.execute(
                lambda task: task.estimated_runtime_s * 2
            )
        assert out["results"] == {f"t{i}": 20.0 for i in range(4)}
        assert out["failures"] == {}
        assert len(root.find("taskfarm.slot")) == 2
        assert len(root.find("taskfarm.task")) == 4

    def test_execute_captures_task_failures(self):
        from repro.hpc import FarmTask, TaskFarm

        farm = TaskFarm([FarmTask("ok", 5.0), FarmTask("bad", 5.0)],
                        n_slots=1)

        def runner(task):
            if task.name == "bad":
                raise RuntimeError("exploded")
            return 1

        out = farm.execute(runner)
        assert out["results"] == {"ok": 1}
        assert out["failures"] == {"bad": "RuntimeError: exploded"}
