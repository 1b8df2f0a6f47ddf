"""Tests for the TCP wire protocol server, remote client, and the HPC proxy."""

import inspect
import socket

import pytest

from repro.docstore import (
    DatastoreProxy,
    DatastoreServer,
    DocumentStore,
    ObjectId,
    RemoteClient,
    document_to_json,
)
from repro.docstore.server import _IDEMPOTENT_OPS, WIRE_OPS
from repro.errors import DocstoreError, WireProtocolError
from repro.obs import MetricsRegistry, get_registry, set_registry


@pytest.fixture
def server():
    srv = DatastoreServer(DocumentStore())
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def fresh_registry():
    previous = get_registry()
    set_registry(MetricsRegistry())
    yield get_registry()
    set_registry(previous)


@pytest.fixture
def client(server):
    c = RemoteClient("127.0.0.1", server.port)
    yield c
    c.close()


class TestWireProtocol:
    def test_ping(self, client):
        assert client.ping()

    def test_insert_and_find(self, client):
        coll = client["mp"]["tasks"]
        coll.insert_one({"task_id": "t1", "energy": -5.0})
        docs = coll.find({"task_id": "t1"})
        assert docs[0]["energy"] == -5.0

    def test_objectid_roundtrip_over_wire(self, client):
        coll = client["mp"]["tasks"]
        result = coll.insert_one({"x": 1})
        oid = result["inserted_id"]
        assert isinstance(oid, ObjectId)
        doc = coll.find_one({"_id": oid})
        assert doc["x"] == 1

    def test_find_with_sort_skip_limit(self, client):
        coll = client["mp"]["m"]
        coll.insert_many([{"n": i} for i in range(10)])
        docs = coll.find({}, sort=[("n", -1)], skip=2, limit=3)
        assert [d["n"] for d in docs] == [7, 6, 5]

    def test_update_and_count(self, client):
        coll = client["mp"]["q"]
        coll.insert_many([{"state": "W"} for _ in range(3)])
        r = coll.update_many({"state": "W"}, {"$set": {"state": "R"}})
        assert r["modified_count"] == 3
        assert coll.count_documents({"state": "R"}) == 3

    def test_find_one_and_update_over_wire(self, client):
        coll = client["mp"]["queue"]
        coll.insert_many([{"job": i, "state": "WAITING"} for i in range(3)])
        claimed = coll.find_one_and_update(
            {"state": "WAITING"},
            {"$set": {"state": "RUNNING"}},
            sort=[("job", -1)],
            return_document="after",
        )
        assert claimed["job"] == 2 and claimed["state"] == "RUNNING"

    def test_aggregate_over_wire(self, client):
        coll = client["mp"]["t"]
        coll.insert_many([{"g": "a", "v": 1}, {"g": "a", "v": 3}, {"g": "b", "v": 5}])
        rows = coll.aggregate(
            [{"$group": {"_id": "$g", "s": {"$sum": "$v"}}}, {"$sort": {"_id": 1}}]
        )
        assert rows == [{"_id": "a", "s": 4}, {"_id": "b", "s": 5}]

    def test_delete_and_distinct(self, client):
        coll = client["mp"]["d"]
        coll.insert_many([{"k": 1}, {"k": 1}, {"k": 2}])
        assert sorted(coll.distinct("k")) == [1, 2]
        assert coll.delete_many({"k": 1})["deleted_count"] == 2

    def test_remote_error_propagates(self, client):
        coll = client["mp"]["e"]
        with pytest.raises(DocstoreError):
            coll.find({"a": {"$bogus": 1}})

    def test_server_counts_requests(self, server, client):
        before = server.requests_served
        client.ping()
        client.ping()
        assert server.requests_served == before + 2

    def test_create_index_over_wire(self, client):
        coll = client["mp"]["ix"]
        name = coll.create_index("field")
        assert name == "field_1"

    def test_list_collections(self, client):
        client["mp"]["c1"].insert_one({})
        assert "c1" in client["mp"].list_collection_names()

    def test_list_database_names(self, client):
        client["mp"]["c1"].insert_one({})
        assert client.list_database_names() == ["mp"]

    def test_plan_cache_stats_over_wire(self, client):
        coll = client["mp"]["pc"]
        coll.create_index("a")
        coll.create_index("b")
        coll.insert_many([{"a": i % 5, "b": i % 7} for i in range(50)])
        coll.find({"a": 1, "b": 2})
        coll.find({"a": 3, "b": 4})
        stats = coll.plan_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1


#: Public client methods that are not wire ops.
_NOT_OPS = {"request", "close", "pool_stats", "get_database", "get_collection"}

#: Argument values for the client methods' required parameters.
_SAMPLE_ARGS = {"document": {"x": 1}, "documents": [{"x": 1}], "keys": "x",
                "opid": 1}


class TestWireOpTable:
    """``WIRE_OPS`` is the protocol; the client must speak all of it."""

    def test_retry_set_is_the_idempotent_column(self):
        assert _IDEMPOTENT_OPS == {
            "ping", "find", "find_one", "count", "distinct", "aggregate",
            "list_databases", "list_collections", "server_status",
            "db_status", "top", "stats", "index_stats", "explain",
            "plan_cache", "current_op", "export_traces", "lock_report",
            "profile", "flight", "shard_status", "add_shard",
        }

    def test_every_op_has_exactly_one_client_method(self, monkeypatch):
        sent = []
        monkeypatch.setattr(RemoteClient, "request",
                            lambda self, request, timeout=None:
                            sent.append(dict(request)))
        client = RemoteClient("127.0.0.1", 1)
        op_of = {}
        for handle in (client, client["db"], client["db"]["coll"]):
            for name, method in inspect.getmembers(handle, inspect.ismethod):
                if name.startswith("_") or name in _NOT_OPS:
                    continue
                args = [_SAMPLE_ARGS.get(p.name, "x")
                        for p in inspect.signature(method).parameters.values()
                        if p.default is p.empty]
                sent.clear()
                method(*args)
                assert len(sent) == 1, name
                request = sent[0]
                op_of[f"{type(handle).__name__}.{name}"] = request["op"]
                row = WIRE_OPS[request["op"]]
                namespace = {"db": ("db",), "coll": ("db", "coll")}
                fields = row.required + namespace.get(row.scope, ())
                assert set(fields) <= set(request), name
        ops = list(op_of.values())
        assert sorted(ops) == sorted(set(ops)), op_of
        assert set(ops) == set(WIRE_OPS)

    @pytest.mark.parametrize("request_doc", [
        {"op": "bogus", "db": "x", "coll": "y"},
        {"op": "bogus2", "db": "z"},
        {"op": "bogus3"},
        {"op": ["not", "a", "name"]},
    ])
    def test_unknown_op_touches_no_namespace(self, server, fresh_registry,
                                             request_doc):
        served = server.requests_served
        with pytest.raises(WireProtocolError, match="^unknown wire op "):
            server.dispatch(request_doc)
        assert server.store.list_database_names() == []
        assert server.requests_served == served + 1
        counted = fresh_registry.counter("repro_wire_requests_total")
        assert counted.series() == {}

    @pytest.mark.parametrize("op, field", [
        (op, field) for op, row in sorted(WIRE_OPS.items())
        for field in row.required
    ])
    def test_missing_required_field_touches_no_namespace(self, server, op,
                                                         field):
        request = {"op": op, "db": "a", "coll": "b"}
        request.update({f: {"x": 1} for f in WIRE_OPS[op].required
                        if f != field})
        with pytest.raises(WireProtocolError,
                           match=f"^{op} request missing '{field}'$"):
            server.dispatch(request)
        assert server.store.list_database_names() == []

    @pytest.mark.parametrize("request_doc, field", [
        ({"op": "insert_one", "db": "a", "coll": "b"}, "document"),
        ({"op": "update_one", "db": "a", "coll": "b2", "query": {}}, "update"),
        ({"op": "kill_op"}, "opid"),
    ])
    def test_missing_field_over_the_wire(self, server, client, request_doc,
                                         field):
        with pytest.raises(DocstoreError,
                           match=f"WireProtocolError: .*missing '{field}'"):
            client.request(request_doc)
        assert client.list_database_names() == []

    def test_create_index_needs_keys_or_field(self, server):
        with pytest.raises(WireProtocolError, match="'keys' or 'field'"):
            server.dispatch({"op": "create_index", "db": "a", "coll": "b"})


class TestWireReadsMatchInProcess:
    """The server answers ``find``/``find_one`` from stored references;
    what crosses the wire must be what an in-process ``find`` returns."""

    @pytest.fixture
    def pair(self, server, client):
        local = server.store["mp"]["m"]
        local.create_index("a")
        local.create_index([("b", 1), ("k", 1)])
        local.insert_many([{"_id": i, "k": i, "a": i % 4, "b": (i * 3) % 5,
                            "sub": {"x": i, "tags": ["t", i]}}
                           for i in range(20)])
        return local, client["mp"]["m"]

    @pytest.mark.parametrize("query", [{}, {"a": 2}, {"b": {"$lt": 3}}])
    @pytest.mark.parametrize("projection", [
        None, {"sub.x": 1}, {"sub": 0}, {"b": 1, "k": 1, "_id": 0},
    ])
    @pytest.mark.parametrize("sort, skip, limit", [
        (None, 0, 0), ([("k", -1)], 2, 5), ([("b", 1), ("k", 1)], 3, 0),
        ([("a", -1), ("k", 1)], 0, 4),
    ])
    @pytest.mark.parametrize("hint", [None, "$natural", "b_1_k_1"])
    def test_find_matches_in_process(self, pair, query, projection, sort,
                                     skip, limit, hint):
        local, remote = pair
        expected = local.find(query, projection, hint=hint)
        if sort:
            expected = expected.sort(sort)
        expected = expected.skip(skip).limit(limit).to_list()
        assert remote.find(query, projection, sort=sort, skip=skip,
                           limit=limit, hint=hint) == expected

    @pytest.mark.parametrize("query", [{"k": 7}, {"a": 3}, {"k": 99}])
    @pytest.mark.parametrize("projection", [None, {"sub": 1}, {"sub.tags": 0}])
    def test_find_one_matches_in_process(self, pair, query, projection):
        local, remote = pair
        assert remote.find_one(query, projection) == local.find_one(
            query, projection)

    @pytest.mark.parametrize("projection", [None, {"sub.x": 1}])
    def test_reads_match_after_every_write_to_one_id(self, pair, projection):
        """Cached fragments never outlive their document: after update,
        replace, delete and re-insert of the same ``_id`` the wire still
        answers what an in-process read returns."""
        local, remote = pair
        queries = [{}, {"_id": 7}, {"k": 7}, {"a": 3}, {"b": {"$lt": 3}}]

        def check(step):
            for query in queries:
                assert remote.find(query, projection) == local.find(
                    query, projection).to_list(), (step, query)
                assert remote.find_one(query, projection) == local.find_one(
                    query, projection), (step, query)
            assert len(local._fragments) <= len(local)

        check("warm")
        remote.update_one({"_id": 7}, {"$set": {"a": 3, "sub.x": -7}})
        check("update")
        local.replace_one({"_id": 7}, {"k": 7, "a": 1, "b": 0, "sub": {}})
        check("replace")
        remote.delete_one({"_id": 7})
        check("delete")
        remote.insert_one({"_id": 7, "k": 7, "a": 3, "b": 4,
                           "sub": {"x": "back", "tags": []}})
        check("re-insert")

    @pytest.mark.parametrize("request_doc", [
        {"op": "find", "query": {}},
        {"op": "find", "query": {"a": 2}, "sort": [["k", -1]], "limit": 3},
        {"op": "find", "query": {"k": 99}},
        {"op": "find", "query": {"a": 1}, "projection": {"sub": 0}},
        {"op": "find_one", "query": {"k": 5}},
        {"op": "find_one", "query": {"k": 99}},
        {"op": "find_one", "query": {"k": 5}, "projection": {"sub.x": 1}},
    ])
    def test_raw_response_bytes_are_the_encoded_envelope(self, server, pair,
                                                         request_doc):
        """The spliced frame is byte for byte what encoding the whole
        response gives, on a cache miss and on the hit after it."""
        request_doc = {"db": "mp", "coll": "m", **request_doc}
        line = (document_to_json(request_doc) + "\n").encode("utf-8")
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            stream = sock.makefile("rwb")
            for _ in range(2):
                stream.write(line)
                stream.flush()
                expected = document_to_json(server.dispatch(request_doc))
                assert stream.readline() == (expected + "\n").encode("utf-8")

    def test_projected_and_covered_reads_leave_the_cache_empty(self, server,
                                                               pair):
        local, remote = pair
        remote.find({}, {"sub": 0})
        remote.find({"b": {"$gte": 1}}, {"b": 1, "k": 1, "_id": 0})
        remote.find_one({"k": 3}, {"sub.tags": 1})
        local._find_stored({}, {"a": 1}).to_list()
        assert local.explain({"b": 1}, projection={"b": 1, "k": 1, "_id": 0}
                             )["covered"]
        assert local._fragments == {}
        # An unprojected read fills one entry per document, encoded once.
        remote.find({})
        entries = dict(local._fragments)
        assert len(entries) == len(local)
        remote.find({})
        assert all(local._fragments[p] is e for p, e in entries.items())

    @pytest.mark.parametrize("kwargs", [
        {"skip": -1}, {"limit": -2}, {"sort": [("k", 2)]},
        {"sort": [(3, 1)]}, {"hint": "no_such_index"},
    ])
    def test_invalid_cursor_arguments_raise_over_wire(self, pair, kwargs):
        _local, remote = pair
        with pytest.raises(DocstoreError, match="^remote error DocstoreError:"):
            remote.find({}, **kwargs)


class TestProxy:
    def test_requests_forwarded_through_proxy(self, server):
        with DatastoreProxy("127.0.0.1", server.port) as proxy:
            with proxy.client() as client:
                coll = client["mp"]["via_proxy"]
                coll.insert_one({"hop": 2})
                assert coll.find_one({"hop": 2}) is not None
            stats = proxy.stats()
            assert stats["requests_forwarded"] >= 2
            assert stats["bytes_up"] > 0

    def test_proxy_latency_slows_requests(self, server):
        import time

        with DatastoreProxy("127.0.0.1", server.port, forward_latency_s=0.02) as proxy:
            with proxy.client() as client:
                t0 = time.perf_counter()
                client.ping()
                elapsed = time.perf_counter() - t0
        assert elapsed >= 0.02

    def test_data_written_via_proxy_visible_directly(self, server):
        with DatastoreProxy("127.0.0.1", server.port) as proxy:
            with proxy.client() as client:
                client["mp"]["shared"].insert_one({"v": 42})
        assert server.store["mp"]["shared"].find_one({"v": 42}) is not None
