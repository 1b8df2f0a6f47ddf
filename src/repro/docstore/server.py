"""Socket wire protocol: datastore server and client.

HPC worker nodes in the paper "are not allowed to communicate outside the
system. Thus, we had to use a proxy to have our tasks communicate with the
MongoDB Server" (§IV-A2).  To reproduce that topology we expose the document
store over a real TCP socket speaking newline-delimited extended JSON, with
a :class:`RemoteClient` mirroring the in-process API, and a forwarding
:class:`~repro.docstore.proxy.DatastoreProxy` that is the only route allowed
from simulated worker nodes.

The protocol is a JSON request/response pair per line::

    {"op": "find", "db": "mp", "coll": "tasks", "query": {...}, ...}
    {"ok": true, "result": [...]}

:data:`WIRE_OPS` is the protocol definition: one row per op naming its
scope (what the handler runs against), whether a client may retry it after
a connection loss, its handler and its required fields.  A request is
checked against its row before any database or collection is resolved, so
a rejected request creates nothing.  Adding an op means one row here plus
one client method on :class:`RemoteClient`, its database handle or
:class:`RemoteCollection`; ``tests/test_server_proxy.py`` fails until both
exist.

Distributed tracing rides the same line: a traced client attaches a
``"$trace"`` field (``{"trace_id": ..., "span_id": ...}``) to each request
and the server reconstructs the remote parent, so one trace stitches
client → proxy → server → per-shard fan-out across processes.
"""

from __future__ import annotations

import random
import socket
import socketserver
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..background import ServerThread
from ..errors import (
    ClusterError,
    ConnectionLost,
    DeadlineExceeded,
    DocstoreError,
    NotPrimary,
    OperationKilled,
    ShardingError,
    StaleEpoch,
    WireProtocolError,
)
from ..obs import export_traces, get_registry, remote_span, span, trace_context
from ..obs.profiler import profile_action
from .database import DocumentStore
from .documents import document_from_json, document_to_json
from .indexes import normalize_index_spec
from .ops import deadline_scope

__all__ = ["DatastoreServer", "RemoteClient", "RemoteCollection"]


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "DatastoreServer" = self.server.datastore_server  # type: ignore[attr-defined]
        while True:
            line = self.rfile.readline()
            if not line:
                break
            t0 = time.perf_counter()
            error_type = None
            request: Optional[Mapping[str, Any]] = None
            try:
                request = document_from_json(line.decode("utf-8"))
                response = server.dispatch(request)
            except Exception as exc:  # noqa: BLE001 - wire boundary
                error_type = type(exc).__name__
                response = {"ok": False, "error": error_type, "message": str(exc)}
            try:
                encoded = _encode_response(server, request, response)
            except Exception as exc:  # noqa: BLE001 - unserializable result
                error_type = type(exc).__name__
                encoded = (document_to_json(
                    {"ok": False, "error": error_type, "message": str(exc)}
                ) + "\n").encode("utf-8")
            # Traffic is accounted whether or not dispatch raised: the bytes
            # crossed the wire either way, and error responses are traffic
            # too.  Failed exchanges carry the exception type as a label.
            registry = get_registry()
            labels = {"direction": "server"}
            if error_type is not None:
                registry.counter(
                    "repro_wire_errors_total", "wire-protocol failed exchanges"
                ).inc(1, error=error_type)
                labels["error"] = error_type
            registry.counter(
                "repro_wire_bytes_total", "wire-protocol traffic"
            ).inc(len(line) + len(encoded), **labels)
            # Access-log warehouse: queued before the response write and
            # regardless of dispatch outcome, mirroring the byte accounting
            # above — a request that failed mid-dispatch (or never parsed)
            # still leaves an access record carrying its error status.  A
            # running log's writer task stores it, off this thread.
            server._record_access(
                request, error_type, t0, len(line), len(encoded)
            )
            try:
                fault = server._response_fault
                if fault is not None:
                    # Test hook: chaos tests inject mid-response failures
                    # here to prove the framing discipline below.
                    fault(self.wfile, encoded)
                else:
                    self.wfile.write(encoded)
                self.wfile.flush()
            except Exception:  # noqa: BLE001 - any mid-response failure
                # The stream may now hold a partial frame.  Writing another
                # response would desynchronize every subsequent exchange on
                # this connection (the client would parse the tail of this
                # frame as the head of the next), so the only safe move is
                # to drop the connection and let the client reconnect.
                registry.counter(
                    "repro_wire_desync_closes_total",
                    "connections closed after a mid-response write failure"
                ).inc(1)
                break


def _encode_response(server: "DatastoreServer",
                     request: Optional[Mapping[str, Any]],
                     response: Mapping[str, Any]) -> bytes:
    """One response frame, byte for byte ``document_to_json(response)``
    plus the newline.  An unprojected ``find``/``find_one`` answer is
    stored documents, so it is spliced from their cached JSON fragments
    (:meth:`Collection._json_of`) instead of encoded again."""
    result = response.get("result")
    if (response.get("ok") and result is not None
            and request.get("op") in ("find", "find_one")
            and not request.get("projection")):
        coll = server._target("coll", request)
        if isinstance(result, list):
            body = b"[" + b", ".join(coll._json_of(result)) + b"]"
        else:
            body = coll._json_of([result])[0]
        return b'{"ok": true, "result": ' + body + b"}\n"
    return (document_to_json(response) + "\n").encode("utf-8")


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class DatastoreServer(ServerThread):
    """Serves a :class:`DocumentStore` over TCP (one JSON doc per line)."""

    def __init__(self, store: Optional[DocumentStore] = None, host: str = "127.0.0.1", port: int = 0,
                 access_log: Optional[Any] = None, cluster: Optional[Any] = None):
        self.store = store or DocumentStore()
        # Optional sharded-cluster facade behind the cluster wire ops
        # (``add_shard``/``move_chunk``/``shard_status``/``step_down``).
        # Falls back to a cluster attached to the store itself.
        self.cluster = cluster if cluster is not None else getattr(
            self.store, "cluster", None)
        self._tcp = _ThreadingTCPServer((host, port), _Handler)
        self._tcp.datastore_server = self  # type: ignore[attr-defined]
        super().__init__("wire-server", self._tcp)
        self.requests_served = 0
        self._stats_lock = threading.Lock()
        # Optional access-log warehouse (``repro.api.querylog.QueryLog``):
        # when attached, every wire exchange — including ones that fail
        # during parse or dispatch — leaves a ``telemetry.access`` record.
        # Opt-in because recording writes through the same store and would
        # perturb opcounter-sensitive tests and benchmarks.
        self.access_log = access_log
        # Test hook: ``fn(wfile, encoded)`` replaces the response write so
        # chaos tests can fail mid-frame; None in production.
        self._response_fault = None

    def _record_access(self, request: Optional[Mapping[str, Any]],
                       error_type: Optional[str], t0: float,
                       request_bytes: int, response_bytes: int) -> None:
        log = self.access_log
        if log is None:
            return
        op = str(request.get("op")) if request else "invalid"
        try:
            log.record_access(
                endpoint=f"wire/{op}",
                method="WIRE",
                user=(request or {}).get("user"),
                status=500 if error_type else 200,
                error=error_type,
                duration_ms=(time.perf_counter() - t0) * 1e3,
                request_bytes=request_bytes,
                response_bytes=response_bytes,
                collection=(request or {}).get("coll"),
            )
        except Exception:  # noqa: BLE001 - telemetry must never break serving
            pass

    @property
    def address(self) -> tuple:
        return self._tcp.server_address

    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    # -- request dispatch -------------------------------------------------

    def dispatch(self, request: Mapping[str, Any]) -> dict:
        """Execute one wire request against the store.

        When the request carries a ``"$trace"`` context the whole dispatch
        runs under a server-side span whose trace id is the *client's*, so
        profiler entries and child spans recorded here join the caller's
        distributed trace.

        A ``"$deadline"`` field (epoch seconds) bounds the dispatch: an
        already-expired request fails without executing, and the deadline
        propagates to every operation the dispatch registers so the
        cooperative ``killOp`` check points abort it mid-scan.  Each
        dispatch also sweeps the active-ops table for other expired ops.
        """
        if not isinstance(request, Mapping) or "op" not in request:
            raise WireProtocolError("request must be a document with an 'op'")
        deadline = request.get("$deadline")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise WireProtocolError("$deadline must be epoch seconds")
        self.store._ops.kill_expired()
        if deadline is not None and time.time() > deadline:
            raise DeadlineExceeded(
                f"request {request['op']!r} arrived past its deadline"
            )
        ctx = request.get("$trace")
        with deadline_scope(deadline):
            if ctx is None:
                return self._dispatch(request)
            with remote_span(f"wire.{request['op']}", ctx,
                             db=request.get("db"),
                             coll=request.get("coll")):
                return self._dispatch(request)

    def _dispatch(self, request: Mapping[str, Any]) -> dict:
        with self._stats_lock:
            self.requests_served += 1
        op = request["op"]
        row = WIRE_OPS.get(op) if isinstance(op, str) else None
        if row is None:
            raise WireProtocolError(f"unknown wire op {op!r}")
        get_registry().counter(
            "repro_wire_requests_total", "wire-protocol requests dispatched"
        ).inc(1, op=op)
        for field in row.required:
            if field not in request:
                raise WireProtocolError(f"{op} request missing {field!r}")
        return {"ok": True,
                "result": row.handler(self._target(row.scope, request), request)}

    def _target(self, scope: str, request: Mapping[str, Any]) -> Any:
        """What a handler of ``scope`` runs against.  ``db`` and ``coll``
        are both checked before either namespace is created."""
        if scope == "store":
            return self.store
        if scope == "cluster":
            if self.cluster is None:
                raise ClusterError("server has no sharded cluster attached")
            return self.cluster
        db_name, coll_name = request.get("db"), request.get("coll")
        if not isinstance(db_name, str):
            raise WireProtocolError("request missing 'db'")
        if scope == "db":
            return self.store.get_database(db_name)
        if not isinstance(coll_name, str):
            raise WireProtocolError("request missing 'coll'")
        return self.store.get_database(db_name).get_collection(coll_name)


# -- the op table ---------------------------------------------------------
#
# Each handler takes ``(target, request)``; the target is the store, the
# attached sharded cluster, a database or a collection, per the row's scope.


class WireOp(NamedTuple):
    scope: str  # "store" | "cluster" | "db" | "coll"
    idempotent: bool  # RemoteClient may retry it after a connection loss
    handler: Callable[[Any, Mapping[str, Any]], Any]
    required: Tuple[str, ...] = ()


def _sort(req: Mapping[str, Any]) -> Optional[List[tuple]]:
    return [(f, d) for f, d in req["sort"]] if req.get("sort") else None


def _find(coll: Any, req: Mapping[str, Any]) -> Any:
    # Reads answer with stored references, encoded after the lock is gone.
    cursor = coll._find_stored(
        req.get("query") or {}, req.get("projection"), hint=req.get("$hint"),
    )
    if req.get("sort"):
        cursor = cursor.sort(_sort(req))
    if req.get("skip"):
        cursor = cursor.skip(req["skip"])
    if req.get("limit"):
        cursor = cursor.limit(req["limit"])
    return cursor.to_list()


def _update_one(coll: Any, req: Mapping[str, Any]) -> Any:
    r = coll.update_one(req["query"], req["update"], upsert=req.get("upsert", False))
    return {"matched_count": r.matched_count, "modified_count": r.modified_count,
            "upserted_id": r.upserted_id}


def _update_many(coll: Any, req: Mapping[str, Any]) -> Any:
    r = coll.update_many(req["query"], req["update"], upsert=req.get("upsert", False))
    return {"matched_count": r.matched_count, "modified_count": r.modified_count}


def _create_index(coll: Any, req: Mapping[str, Any]) -> Any:
    # Compound clients send ``keys`` ([[field, dir], ...]); legacy ones
    # send the single ``field`` string.  Either is a valid index spec.
    keys = req.get("keys")
    if keys is not None:
        keys = [(f, d) for f, d in keys]
    elif "field" in req:
        keys = req["field"]
    else:
        raise WireProtocolError("create_index request missing 'keys' or 'field'")
    return coll.create_index(
        keys, unique=req.get("unique", False), name=req.get("name"),
        expire_after_seconds=req.get("expire_after_seconds"),
    )


def _explain(coll: Any, req: Mapping[str, Any]) -> Any:
    if req.get("pipeline") is not None:
        return coll.explain(pipeline=req["pipeline"])
    return coll.explain(
        req.get("query") or {},
        sort=_sort(req),
        projection=req.get("projection"),
        hint=req.get("$hint"),
        verbosity=req.get("verbosity", "executionStats"),
    )


def _flight(_store: Any, req: Mapping[str, Any]) -> Any:
    """Read the server's flight recorder: ``status`` (the default),
    ``window`` (the last ``limit`` in-memory snapshots), ``events``,
    ``anomalies`` (MAD-z-score scan) or ``crash`` (the persisted
    ``crash_report.json``).  The recorder is the process-global one
    ``repro serve`` starts, also live on ``GET /debug/flight``."""
    from ..obs.flight import get_flight_recorder, read_crash_report, scan_anomalies

    action = req.get("action", "status")
    recorder = get_flight_recorder()
    if recorder is None:
        if action == "status":
            return {"attached": False, "running": False}
        raise DocstoreError("no flight recorder is running on the server")
    if action == "status":
        return {"attached": True, **recorder.status()}
    if action == "window":
        return {"snapshots": recorder.recent(int(req.get("limit") or 60))}
    if action == "events":
        return {"events": recorder.recent_events(int(req.get("limit") or 50))}
    if action == "anomalies":
        return {"anomalies": scan_anomalies(
            recorder.recent(), threshold=float(req.get("threshold") or 6.0))}
    if action == "crash":
        report = read_crash_report(recorder.directory)
        return report if report is not None else {"crash_report": None}
    raise WireProtocolError(f"unknown flight action {action!r}")


def _add_shard(cluster: Any, req: Mapping[str, Any]) -> Any:
    shard = cluster.add_shard(str(req["shard"]))
    return {"shard": shard.shard_id, "shards": sorted(cluster.shards)}


def _move_chunk(cluster: Any, req: Mapping[str, Any]) -> Any:
    moved = cluster.move_chunk(str(req["ns"]), str(req["chunk"]), str(req["to"]))
    return {"chunk": req["chunk"], "to": req["to"], "docs": moved}


#: The wire protocol: op name -> (scope, idempotent, handler, required).
WIRE_OPS: Dict[str, WireOp] = {
    # store-wide introspection and admin
    "ping": WireOp("store", True, lambda s, r: "pong"),
    "list_databases": WireOp("store", True, lambda s, r: s.list_database_names()),
    "server_status": WireOp("store", True, lambda s, r: s.server_status()),
    "current_op": WireOp("store", True, lambda s, r: s.current_op()),
    "kill_op": WireOp("store", False, lambda s, r: s.kill_op(r["opid"]), ("opid",)),
    "export_traces": WireOp("store", True, lambda s, r: export_traces(r.get("trace_id"))),
    "lock_report": WireOp("store", True, lambda s, r: s.lock_report(limit=r.get("limit", 10))),
    # the process-global profiler, shared with GET /debug/profile
    "profile": WireOp("store", True, lambda s, r: profile_action(
        r.get("action", "snapshot"), r.get("hz"), r.get("limit", 0))),
    "flight": WireOp("store", True, _flight),
    # sharded-cluster admin (mongos admin-command analogs)
    "shard_status": WireOp("cluster", True, lambda c, r: c.status()),
    "add_shard": WireOp("cluster", True, _add_shard, ("shard",)),
    "move_chunk": WireOp("cluster", False, _move_chunk, ("ns", "chunk", "to")),
    "step_down": WireOp("cluster", False, lambda c, r: {
        "shard": r["shard"], "primary": c.step_down(str(r["shard"]))}, ("shard",)),
    # one database
    "list_collections": WireOp("db", True, lambda db, r: db.list_collection_names()),
    "db_status": WireOp("db", True, lambda db, r: db.server_status()),
    "top": WireOp("db", True, lambda db, r: db.top()),
    # one collection
    "insert_one": WireOp("coll", False, lambda c, r: {
        "inserted_id": c.insert_one(r["document"]).inserted_id}, ("document",)),
    "insert_many": WireOp("coll", False, lambda c, r: {
        "inserted_ids": c.insert_many(r["documents"]).inserted_ids}, ("documents",)),
    "find": WireOp("coll", True, _find),
    "find_one": WireOp("coll", True, lambda c, r: c._find_stored(
        r.get("query") or {}, r.get("projection"), op="findOne").first()),
    "count": WireOp("coll", True, lambda c, r: c.count_documents(r.get("query") or {})),
    "distinct": WireOp("coll", True, lambda c, r: c.distinct(r["field"], r.get("query")),
                       ("field",)),
    "update_one": WireOp("coll", False, _update_one, ("query", "update")),
    "update_many": WireOp("coll", False, _update_many, ("query", "update")),
    "find_one_and_update": WireOp("coll", False, lambda c, r: c.find_one_and_update(
        r["query"], r["update"], sort=_sort(r),
        return_document=r.get("return_document", "before"),
        upsert=r.get("upsert", False)), ("query", "update")),
    "delete_one": WireOp("coll", False, lambda c, r: {
        "deleted_count": c.delete_one(r["query"]).deleted_count}, ("query",)),
    "delete_many": WireOp("coll", False, lambda c, r: {
        "deleted_count": c.delete_many(r.get("query") or {}).deleted_count}),
    "aggregate": WireOp("coll", True, lambda c, r: c.aggregate(
        r["pipeline"], explain=r.get("explain", False)), ("pipeline",)),
    "create_index": WireOp("coll", False, _create_index),
    "stats": WireOp("coll", True, lambda c, r: c.stats()),
    "index_stats": WireOp("coll", True, lambda c, r: c.index_stats()),
    "explain": WireOp("coll", True, _explain),
    "plan_cache": WireOp("coll", True, lambda c, r: c.plan_cache_stats()),
}

#: Wire ops safe to retry after a connection failure: re-executing them
#: cannot duplicate a write.  Everything else fails fast unless the client
#: was built with ``retry_non_idempotent=True``.
_IDEMPOTENT_OPS = frozenset(n for n, o in WIRE_OPS.items() if o.idempotent)


class RemoteCollection:
    """Client-side handle mirroring the in-process Collection API subset."""

    def __init__(self, client: "RemoteClient", db: str, name: str):
        self._client = client
        self._db = db
        self.name = name

    def _call(self, op: str, **kwargs: Any) -> Any:
        return self._client.request({"op": op, "db": self._db, "coll": self.name, **kwargs})

    def insert_one(self, document: Mapping[str, Any]) -> Any:
        return self._call("insert_one", document=dict(document))

    def insert_many(self, documents: List[Mapping[str, Any]]) -> Any:
        return self._call("insert_many", documents=[dict(d) for d in documents])

    def find(
        self,
        query: Optional[Mapping[str, Any]] = None,
        projection: Optional[Mapping[str, Any]] = None,
        sort: Optional[List[tuple]] = None,
        skip: int = 0,
        limit: int = 0,
        hint: Optional[str] = None,
    ) -> List[dict]:
        request: Dict[str, Any] = {
            "query": query or {},
            "projection": projection,
            "sort": [list(p) for p in sort] if sort else None,
            "skip": skip,
            "limit": limit,
        }
        if hint is not None:
            request["$hint"] = hint
        return self._call("find", **request)

    def find_one(self, query=None, projection=None) -> Optional[dict]:
        return self._call("find_one", query=query or {}, projection=projection)

    def count_documents(self, query=None) -> int:
        return self._call("count", query=query or {})

    def distinct(self, field: str, query=None) -> List[Any]:
        return self._call("distinct", field=field, query=query)

    def update_one(self, query, update, upsert=False) -> dict:
        return self._call("update_one", query=query, update=update, upsert=upsert)

    def update_many(self, query, update, upsert=False) -> dict:
        return self._call("update_many", query=query, update=update, upsert=upsert)

    def find_one_and_update(
        self, query, update, sort=None, return_document="before", upsert=False
    ) -> Optional[dict]:
        return self._call(
            "find_one_and_update",
            query=query,
            update=update,
            sort=[list(p) for p in sort] if sort else None,
            return_document=return_document,
            upsert=upsert,
        )

    def delete_one(self, query) -> dict:
        return self._call("delete_one", query=query)

    def delete_many(self, query=None) -> dict:
        return self._call("delete_many", query=query or {})

    def aggregate(self, pipeline: List[Mapping[str, Any]],
                  explain: bool = False) -> Any:
        """Run a pipeline server-side; ``explain=True`` returns per-stage
        executionStats instead of result documents."""
        if explain:
            return self._call("aggregate", pipeline=pipeline, explain=True)
        return self._call("aggregate", pipeline=pipeline)

    def create_index(self, keys: Any, unique: bool = False,
                     name: Optional[str] = None,
                     expire_after_seconds: Optional[float] = None) -> str:
        """Create a single-field or compound index on the remote collection.

        ``keys`` takes anything the in-process API takes: a field name or a
        ``[("formula", 1), ("e_above_hull", -1)]`` key list;
        ``expire_after_seconds`` makes it a TTL index, as in-process.
        """
        if isinstance(keys, str):
            return self._call("create_index", field=keys, unique=unique,
                              name=name,
                              expire_after_seconds=expire_after_seconds)
        return self._call(
            "create_index",
            keys=[list(p) for p in normalize_index_spec(keys)],
            unique=unique,
            name=name,
            expire_after_seconds=expire_after_seconds,
        )

    def stats(self) -> dict:
        return self._call("stats")

    def index_stats(self) -> List[dict]:
        """``$indexStats``-style per-index usage accounting."""
        return self._call("index_stats")

    def explain(
        self,
        query: Optional[Mapping[str, Any]] = None,
        sort: Optional[List[tuple]] = None,
        projection: Optional[Mapping[str, Any]] = None,
        hint: Optional[str] = None,
        verbosity: str = "executionStats",
        pipeline: Optional[List[Mapping[str, Any]]] = None,
    ) -> dict:
        """Run the remote planner for ``query`` (advisor replay support).

        With ``pipeline=[...]`` explains an aggregation instead — same
        per-stage executionStats as the in-process API.
        """
        if pipeline is not None:
            return self._call("explain", pipeline=pipeline)
        request: Dict[str, Any] = {
            "query": query or {},
            "sort": [list(p) for p in sort] if sort else None,
            "projection": projection,
            "verbosity": verbosity,
        }
        if hint is not None:
            request["$hint"] = hint
        return self._call("explain", **request)

    def plan_cache_stats(self) -> dict:
        """The remote collection's plan-cache counters and size."""
        return self._call("plan_cache")


class _RemoteDatabase:
    def __init__(self, client: "RemoteClient", name: str):
        self._client = client
        self.name = name

    def __getitem__(self, coll: str) -> RemoteCollection:
        return RemoteCollection(self._client, self.name, coll)

    def get_collection(self, coll: str) -> RemoteCollection:
        return self[coll]

    def list_collection_names(self) -> List[str]:
        return self._client.request({"op": "list_collections", "db": self.name})

    def server_status(self) -> dict:
        """The remote database's ``serverStatus`` (mongostat source)."""
        return self._client.request({"op": "db_status", "db": self.name})

    def top(self) -> dict:
        """Per-collection read/write time on the server (mongotop source)."""
        return self._client.request({"op": "top", "db": self.name})


#: Server error types re-raised as their specific client-side exception
#: (all DocstoreError subclasses, so existing handlers keep working).
_REMOTE_ERROR_TYPES = {
    "DeadlineExceeded": DeadlineExceeded,
    "OperationKilled": OperationKilled,
    "ClusterError": ClusterError,
    "NotPrimary": NotPrimary,
    "StaleEpoch": StaleEpoch,
    "ShardingError": ShardingError,
}


class _WireConnection:
    """One pooled socket + buffered reader to the server (or proxy)."""

    __slots__ = ("sock", "rfile")

    def __init__(self, host: str, port: int, timeout: float):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.rfile = self.sock.makefile("rb")

    def roundtrip(self, payload: bytes, timeout: Optional[float]) -> bytes:
        self.sock.settimeout(timeout)
        self.sock.sendall(payload)
        line = self.rfile.readline()
        if not line:
            raise ConnectionLost("connection closed by server")
        if not line.endswith(b"\n"):
            # EOF mid-frame: the server died (or closed on a write fault)
            # partway through a response.  Surface it as a connection loss
            # so the retry machinery — not the JSON parser — handles it.
            raise ConnectionLost("truncated response frame")
        return line

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            try:
                self.sock.close()
            except OSError:
                pass


class RemoteClient:
    """TCP client for :class:`DatastoreServer` (or the proxy).

    Hardened for real concurrency:

    * a **connection pool** (``pool_size`` sockets, created lazily) lets
      many threads issue requests in parallel instead of serializing on
      one socket;
    * **per-op timeouts**: every request carries a ``"$deadline"`` (epoch
      seconds) so the server refuses to start — and cooperatively aborts —
      work the client has already given up on;
    * **retry with exponential backoff + jitter** on connection errors,
      for idempotent ops only by default (``retry_non_idempotent=True``
      opts writes in, for callers whose writes carry natural idempotency
      keys).  Server-side errors (``ok: false``) are never retried — the
      connection is healthy and the answer is the answer.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 pool_size: int = 4, max_retries: int = 3,
                 backoff_base_s: float = 0.05, backoff_max_s: float = 2.0,
                 retry_non_idempotent: bool = False):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = max(1, int(pool_size))
        self.max_retries = max(0, int(max_retries))
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.retry_non_idempotent = retry_non_idempotent
        self._idle: Deque[_WireConnection] = deque()
        self._pool_lock = threading.Lock()
        self._pool_sema = threading.BoundedSemaphore(self.pool_size)
        self._created = 0
        self._retries = 0
        self._closed = False
        self._rng = random.Random()

    def __getitem__(self, db: str) -> _RemoteDatabase:
        return _RemoteDatabase(self, db)

    def get_database(self, db: str) -> _RemoteDatabase:
        return _RemoteDatabase(self, db)

    # -- pool -------------------------------------------------------------

    def _checkout(self) -> _WireConnection:
        self._pool_sema.acquire()
        try:
            with self._pool_lock:
                if self._closed:
                    raise DocstoreError("client is closed")
                if self._idle:
                    return self._idle.popleft()
            conn = _WireConnection(self.host, self.port, self.timeout)
            with self._pool_lock:
                self._created += 1
            return conn
        except BaseException:
            self._pool_sema.release()
            raise

    def _checkin(self, conn: _WireConnection) -> None:
        with self._pool_lock:
            if self._closed:
                conn.close()
            else:
                self._idle.append(conn)
        self._pool_sema.release()

    def _discard(self, conn: _WireConnection) -> None:
        conn.close()
        with self._pool_lock:
            self._created -= 1
        self._pool_sema.release()

    def pool_stats(self) -> dict:
        with self._pool_lock:
            return {
                "pool_size": self.pool_size,
                "connections": self._created,
                "idle": len(self._idle),
                "retries": self._retries,
            }

    # -- request path -----------------------------------------------------

    def request(self, request: Mapping[str, Any],
                timeout: Optional[float] = None) -> Any:
        """Send one request document, return the unwrapped result.

        Inside an active trace, the roundtrip runs under a ``client.<op>``
        span and the request carries its ``"$trace"`` context, so the
        server (and any proxy in between) joins the same trace.  Untraced
        callers pay nothing: no span, no extra wire field.
        """
        ctx = trace_context()
        if ctx is None:
            return self._roundtrip(request, timeout)
        with span(f"client.{request.get('op')}", host=self.host,
                  port=self.port):
            traced = dict(request)
            traced["$trace"] = trace_context()
            return self._roundtrip(traced, timeout)

    def _roundtrip(self, request: Mapping[str, Any],
                   timeout: Optional[float] = None) -> Any:
        op = request.get("op")
        op_timeout = self.timeout if timeout is None else timeout
        deadline = (time.time() + op_timeout) if op_timeout else None
        wire_request = dict(request)
        if deadline is not None and "$deadline" not in wire_request:
            wire_request["$deadline"] = deadline
        payload = (document_to_json(wire_request) + "\n").encode("utf-8")
        retryable = self.retry_non_idempotent or op in _IDEMPOTENT_OPS
        attempt = 0
        while True:
            try:
                line = self._exchange(payload, op_timeout)
                break
            except (ConnectionLost, OSError) as exc:
                out_of_time = deadline is not None and time.time() >= deadline
                if not retryable or attempt >= self.max_retries or out_of_time:
                    raise
                delay = min(self.backoff_max_s,
                            self.backoff_base_s * (2 ** attempt))
                # Full-jitter-ish: half deterministic, half random, so a
                # thundering herd of reconnecting clients spreads out.
                delay *= 0.5 + self._rng.random() * 0.5
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.time()))
                attempt += 1
                with self._pool_lock:
                    self._retries += 1
                get_registry().counter(
                    "repro_client_retries_total",
                    "wire requests retried after connection errors"
                ).inc(1, op=str(op), error=type(exc).__name__)
                time.sleep(delay)
        response = document_from_json(line.decode("utf-8"))
        if not response.get("ok"):
            error = response.get("error")
            exc_type = _REMOTE_ERROR_TYPES.get(error, DocstoreError)
            raise exc_type(
                f"remote error {error}: {response.get('message')}"
            )
        return response.get("result")

    def _exchange(self, payload: bytes, op_timeout: Optional[float]) -> bytes:
        conn = self._checkout()
        try:
            line = conn.roundtrip(payload, op_timeout)
        except BaseException:
            # The connection is in an unknown framing state; never reuse it.
            self._discard(conn)
            raise
        self._checkin(conn)
        return line

    def ping(self) -> bool:
        return self.request({"op": "ping"}) == "pong"

    def list_database_names(self) -> List[str]:
        return self.request({"op": "list_databases"})

    def server_status(self) -> dict:
        """Aggregate ``serverStatus`` across the remote store's databases."""
        return self.request({"op": "server_status"})

    def current_op(self) -> List[dict]:
        """``db.currentOp()`` against the remote store."""
        return self.request({"op": "current_op"})

    def kill_op(self, opid: int) -> bool:
        """``db.killOp(opid)`` against the remote store."""
        return self.request({"op": "kill_op", "opid": opid})

    def export_traces(self, trace_id: Optional[str] = None) -> List[dict]:
        """Finished span dicts buffered in the *server* process."""
        return self.request({"op": "export_traces", "trace_id": trace_id})

    def profile(self, action: str = "snapshot", hz: Optional[float] = None,
                limit: int = 0) -> Any:
        """Drive the *server's* sampling profiler over the wire.

        ``action`` is ``start``/``stop``/``reset``/``snapshot``/``flame``;
        ``flame`` returns folded ``stack count`` lines of the server
        process, ready for a flamegraph renderer.
        """
        request: Dict[str, Any] = {"op": "profile", "action": action}
        if hz is not None:
            request["hz"] = hz
        if limit:
            request["limit"] = limit
        return self.request(request)

    def lock_report(self, limit: int = 10) -> dict:
        """Store-wide lock totals + top contended (waiter, holder) sites."""
        return self.request({"op": "lock_report", "limit": limit})

    def shard_status(self) -> dict:
        """The remote cluster's topology/counters (``sh.status()`` analog)."""
        return self.request({"op": "shard_status"})

    def add_shard(self, shard_id: str) -> dict:
        """Register a shard on the remote cluster (idempotent)."""
        return self.request({"op": "add_shard", "shard": shard_id})

    def move_chunk(self, ns: str, chunk_id: str, to: str) -> dict:
        """Migrate one chunk on the remote cluster; returns docs moved."""
        return self.request({"op": "move_chunk", "ns": ns,
                             "chunk": chunk_id, "to": to})

    def step_down(self, shard_id: str) -> dict:
        """Demote a remote shard's primary; returns the new primary."""
        return self.request({"op": "step_down", "shard": shard_id})

    def flight(self, action: str = "status", limit: int = 0,
               threshold: Optional[float] = None) -> Any:
        """Read the *server's* flight recorder over the wire.

        ``action`` is ``status``/``window``/``events``/``anomalies``/
        ``crash``; ``limit`` bounds ``window``/``events``; ``threshold``
        tunes the ``anomalies`` MAD-z-score cutoff.
        """
        request: Dict[str, Any] = {"op": "flight", "action": action}
        if limit:
            request["limit"] = limit
        if threshold is not None:
            request["threshold"] = threshold
        return self.request(request)

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            idle, self._idle = list(self._idle), deque()
        for conn in idle:
            conn.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
