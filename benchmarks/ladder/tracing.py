"""The traced pass: per-layer metrics, all taken from outside the program.

Three sources (README.md has the metric-by-metric table):

(a) spans recorded by the proxies below, substituted at the public
    boundaries of a composition rebuilt *in this process* from public
    constructors, while the first K ops of the workload's stream are
    replayed by one client through the real sockets;
(b) a layer's public function timed alone on the payloads those K ops
    carried (codec, matcher, planner explain, deep copy, journal append);
(c) before/after deltas of the ``server_status`` wire op around an
    untraced pass, the workload's own client count, against the subprocess
    server.

No file under ``src/`` is edited and nothing is patched at module level.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import threading
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from run import OUT, HttpTarget, Step, drive  # puts src/ on sys.path

from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.docstore import DocumentStore
from repro.docstore.documents import (DocumentJSONEncoder, deep_copy_doc,
                                      document_from_json, document_to_json)
from repro.docstore.matching import compile_query
from repro.docstore.persistence import JournalWriter
from repro.docstore.server import DatastoreServer, RemoteClient
from repro.obs.warehouse import TelemetryWarehouse

from dataset import (OP_CLASSES, engine_doc, stream, task_result_doc,
                     taskfarm_rng)
from oracle import TaskfarmLedger

K_OPS = 500
MAX_PLANNED_CALLS = 60     # engine calls re-run through explain()
MAX_AGG_EXPLAINS = 4
TAX_OPS = 120

Endpoints = namedtuple("Endpoints", "base_url wire_port")

# The access-log endpoints of the single-request ops of each wire workload.
REQUEST_ENDPOINTS = {
    "http_portal_read": (),
    "wire_fig5_read": ("wire/find",),
    "wire_taskfarm_mixed": ("wire/insert_one", "wire/find_one_and_update",
                            "wire/update_one"),
    "wire_analytics_scan": ("wire/find", "wire/count", "wire/aggregate"),
}


# -- spans --------------------------------------------------------------------

class Tracer:
    """In-memory spans ``{id, name, start, end, parent, request}``.

    The client opens one root span per request.  Server-side spans nest by
    a per-thread stack; the first span a handler thread opens for a request
    (an *entry* span) adopts the root that is current at that moment, and
    spans the same thread opens after the entry has closed (the access
    record written after the response) keep that root."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.calls: List[dict] = []      # engine calls seen by the proxies
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None

    def _open(self, name: str, parent: Optional[int], request: Any) -> int:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "request": request}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        return span["id"]

    def begin(self, name: str, entry: bool = False) -> int:
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]
        else:
            if entry or not hasattr(local, "root"):
                local.root = self._root
            parent = local.root
        request = self.spans[parent]["request"] if parent is not None else None
        idx = self._open(name, parent, request)
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._local.stack.remove(idx)

    @contextmanager
    def span(self, name: str, entry: bool = False) -> Iterator[int]:
        idx = self.begin(name, entry)
        try:
            yield idx
        finally:
            self.end(idx)

    @contextmanager
    def root(self, name: str, request: Any, cls: str) -> Iterator[int]:
        idx = self._open(name, None, request)
        self.spans[idx]["cls"] = cls
        self._root = idx
        try:
            yield idx
        finally:
            self.spans[idx]["end"] = time.perf_counter()

    def current_request(self) -> Any:
        stack = getattr(self._local, "stack", None)
        return self.spans[stack[-1]]["request"] if stack else None

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: List[dict]) -> Dict[Any, Dict[str, float]]:
    """Per request: self time (µs) summed by span name, where self time is
    a span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            children[span["parent"]].append(span)
    out: Dict[Any, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span["end"] is None or span["request"] is None:
            continue
        covered = sum(
            max(0.0, min(c["end"], span["end"]) - max(c["start"], span["start"]))
            for c in children[span["id"]])
        duration = span["end"] - span["start"]
        row = out[span["request"]]
        row[span["name"]] += (duration - covered) * 1e6
        row["total:" + span["name"]] += duration * 1e6
    return out


# -- proxies at the public boundaries ----------------------------------------

class _Proxy:
    def __init__(self, tracer: Tracer, real: Any):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


class QueryLogProxy(_Proxy):
    def record(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span("api.querylog.record"):
            return self._real.record(*args, **kwargs)

    def record_access(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span("api.querylog.record"):
            return self._real.record_access(*args, **kwargs)


class WarehouseProxy(_Proxy):
    """What ``api.httpd`` reads from its warehouse: ``.access``."""

    def __init__(self, tracer: Tracer, real: Any, access: QueryLogProxy):
        super().__init__(tracer, real)
        self.access = access


class QueryEngineProxy(_Proxy):
    def query(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span("api.queryengine.query"):
            return self._real.query(*args, **kwargs)


class MaterialsAPIProxy(_Proxy):
    def handle(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span("api.rest.handle", entry=True):
            return self._real.handle(*args, **kwargs)


class CursorProxy(_Proxy):
    """Keeps the ``find`` span open through ``to_list()``: the cursor is
    lazy, so that is where the collection does the work."""

    def __init__(self, tracer: Tracer, real: Any, span_id: int, call: dict):
        super().__init__(tracer, real)
        self._span_id = span_id
        self._call = call

    def sort(self, key_or_list: Any, direction: int = 1) -> "CursorProxy":
        self._real = self._real.sort(key_or_list, direction)
        self._call["sort"] = (key_or_list if isinstance(key_or_list, list)
                              else [(key_or_list, direction)])
        return self

    def skip(self, n: int) -> "CursorProxy":
        self._real = self._real.skip(n)
        self._call["skip"] = n
        return self

    def limit(self, n: int) -> "CursorProxy":
        self._real = self._real.limit(n)
        self._call["limit"] = n
        return self

    def to_list(self) -> List[dict]:
        try:
            docs = self._real.to_list()
        finally:
            self._tracer.end(self._span_id)
        self._call["docs"] = docs
        return docs

    def __iter__(self) -> Iterator[dict]:
        return iter(self.to_list())


class CollectionProxy(_Proxy):
    def _call(self, method: str, **fields: Any) -> dict:
        call = {"request": None, "coll": self._real.name, "method": method,
                **fields}
        self._tracer.calls.append(call)
        return call

    def _spanned(self, method: str, fn: Any, call: dict) -> Any:
        with self._tracer.span(f"docstore.collection.{method}"):
            call["request"] = self._tracer.current_request()
            result = fn()
        if isinstance(result, dict):
            call["docs"] = [result]
        elif isinstance(result, list):
            call["docs"] = result
        return result

    def find(self, query: Any = None, projection: Any = None,
             hint: Any = None) -> CursorProxy:
        call = self._call("find", query=query or {}, projection=projection)
        span_id = self._tracer.begin("docstore.collection.find")
        call["request"] = self._tracer.current_request()
        return CursorProxy(self._tracer,
                           self._real.find(query, projection, hint=hint),
                           span_id, call)

    def find_one(self, query: Any = None, projection: Any = None) -> Any:
        call = self._call("find", query=query or {}, limit=1)
        return self._spanned(
            "find", lambda: self._real.find_one(query, projection), call)

    def count_documents(self, query: Any = None) -> int:
        call = self._call("count", query=query or {})
        return self._spanned(
            "count", lambda: self._real.count_documents(query), call)

    def insert_one(self, document: Any) -> Any:
        call = self._call("insert", document=document)
        return self._spanned(
            "insert", lambda: self._real.insert_one(document), call)

    def update_one(self, query: Any, update: Any, upsert: bool = False) -> Any:
        call = self._call("update", query=query, limit=1)
        return self._spanned(
            "update", lambda: self._real.update_one(query, update,
                                                    upsert=upsert), call)

    def find_one_and_update(self, query: Any, update: Any,
                            **kwargs: Any) -> Any:
        call = self._call("claim", query=query, sort=kwargs.get("sort"),
                          limit=1)
        return self._spanned(
            "claim", lambda: self._real.find_one_and_update(
                query, update, **kwargs), call)

    def aggregate(self, pipeline: Any, explain: bool = False) -> Any:
        call = self._call("aggregate", pipeline=pipeline)
        return self._spanned(
            "aggregate", lambda: self._real.aggregate(pipeline,
                                                      explain=explain), call)


class DatabaseProxy(_Proxy):
    def get_collection(self, name: str, create: bool = True) -> Any:
        return CollectionProxy(self._tracer,
                               self._real.get_collection(name, create))

    def __getitem__(self, name: str) -> Any:
        return self.get_collection(name)


class StoreProxy(_Proxy):
    def get_database(self, name: str) -> DatabaseProxy:
        return DatabaseProxy(self._tracer, self._real.get_database(name))

    def __getitem__(self, name: str) -> DatabaseProxy:
        return self.get_database(name)


class TracedServer(DatastoreServer):
    def __init__(self, tracer: Tracer, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def dispatch(self, request: Any) -> dict:
        with self._tracer.span("docstore.server.dispatch", entry=True):
            return super().dispatch(request)


class Composition:
    """The ``repro serve`` composition rebuilt from public constructors:
    store, telemetry warehouse (recording loop on), QueryEngine,
    MaterialsAPI, HTTP server, wire server with the access log attached.
    With a tracer, the proxies above sit at every boundary.  The flight
    recorder and watchdog are left out: they are process-global and cost
    by the clock, not by the request."""

    def __init__(self, store: Any, tracer: Optional[Tracer] = None,
                 telemetry: bool = True):
        self.warehouse = log = http_warehouse = None
        if telemetry:
            self.warehouse = http_warehouse = TelemetryWarehouse(store)
            self.warehouse.start(interval_s=5.0)
            log = self.warehouse.access
        if tracer is None:
            api = MaterialsAPI(QueryEngine(store["mp"], query_log=log))
            self.wire = DatastoreServer(store, port=0, access_log=log)
        else:
            log = QueryLogProxy(tracer, log)
            http_warehouse = WarehouseProxy(tracer, self.warehouse, log)
            store = StoreProxy(tracer, store)
            engine = QueryEngine(store["mp"], query_log=log)
            api = MaterialsAPIProxy(
                tracer, MaterialsAPI(QueryEngineProxy(tracer, engine)))
            self.wire = TracedServer(tracer, store, port=0, access_log=log)
        self.wire.start()
        self.http = MaterialsAPIServer(api, port=0,
                                       warehouse=http_warehouse).start()
        self.endpoints = Endpoints(self.http.base_url, self.wire.port)

    def close(self) -> None:
        self.wire.stop()
        self.http.stop()
        if self.warehouse is not None:
            self.warehouse.stop()


# -- helpers ------------------------------------------------------------------

def _timed_us(fn: Any, *args: Any) -> float:
    """One call, in µs.  Not the best of several: in the request path these
    functions run once and pay for the collector runs their allocations
    trigger."""
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1e6


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _median_us(fn: Any, n: int) -> float:
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(samples)


class CapturingClient(RemoteClient):
    def __init__(self, captured: List[tuple], *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._captured = captured

    def request(self, request: Any, timeout: Any = None) -> Any:
        result = super().request(request, timeout)
        self._captured.append((dict(request), result))
        return result


class CapturingHttpTarget(HttpTarget):
    def __init__(self, base_url: str, captured: List[tuple]):
        super().__init__(base_url)
        self._captured = captured

    def get(self, path: str):
        status, body = super().get(path)
        self._captured.append((path, body))
        return status, body


def replay(session: Iterator[Step], k: int, deadline: float,
           tracer: Optional[Tracer] = None, root_name: str = "",
           after_op: Any = None) -> List[tuple]:
    """Replay up to ``k`` steps with one client; ``(cls, ms, failure)`` each.
    ``after_op`` runs between ops, outside every timed interval."""
    out: List[tuple] = []
    while len(out) < k and time.perf_counter() < deadline:
        step = next(session)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                response = step.call()
            else:
                with tracer.root(root_name, len(out), step.cls):
                    response = step.call()
            t1 = time.perf_counter()
            reason = step.check(response)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            t1 = time.perf_counter()
            reason = f"{type(exc).__name__}: {exc}"
        out.append((step.cls, (t1 - t0) * 1e3, reason))
        if after_op is not None:
            after_op()
    return out


# -- the traced run -----------------------------------------------------------

def traced_run(bench: Any, workload: str) -> dict:
    is_http = workload == "http_portal_read"
    root_name = "client.http" if is_http else "client.wire"
    seconds = bench.seconds
    metrics: Dict[str, tuple] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    put("docstore.collection.bulk_load_docs_per_s",
        bench.bulk_load_docs_per_s, "1/s")

    # (c) and the harness check: the subprocess server, tracing off.
    sub = _subprocess_passes(bench, workload, seconds)
    metrics.update(sub["metrics"])
    failures: List[str] = sub["failures"]
    attempted: int = sub["attempted"]

    # (a) the same first K ops, one client, against the composition rebuilt
    # in this process: first plain, then with the proxies in place.
    data_dir = bench.fresh_copy()
    # The cyclic collector walks every tracked object of this process; the
    # corpus and the oracle are not the server's, so take them out of its
    # reach before the store is loaded (with them in, a third of the traced
    # RTT on wire_fig5_read was collector time the real server does not pay).
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    store = DocumentStore(persistence_dir=data_dir, fsync="interval")
    put("docstore.persistence.recover_s", time.perf_counter() - t0, "s")
    try:
        plain = Composition(store)
        try:
            untraced = _replay_first_ops(
                bench, workload, plain.endpoints, K_OPS, 0.15 * seconds)
        finally:
            plain.close()

        tracer = Tracer()
        exchanges: List[tuple] = []
        comp = Composition(store, tracer)
        try:
            if is_http:
                target = CapturingHttpTarget(comp.endpoints.base_url,
                                             exchanges)
            else:
                target = CapturingClient(
                    exchanges, "127.0.0.1", comp.endpoints.wire_port,
                    pool_size=1)
            floor_us = _traced_floor(tracer, target, exchanges, root_name)
            del exchanges[:]
            payloads = PayloadTimer(tracer, exchanges, is_http)
            traced = _replay_first_ops(
                bench, workload, comp.endpoints, len(untraced), 0.3 * seconds,
                tracer=tracer, root_name=root_name, target=target,
                # the task farm's second replay must submit fresh fw_ids
                first_loop=K_OPS, after_op=payloads.after_op)
        finally:
            comp.close()
        tracer.dump(os.path.join(OUT, f"trace_{workload}.jsonl"))
        for rows in (untraced, traced):
            attempted += len(rows)
            failures += [r for _, _, r in rows if r]

        put("trace.overhead_frac", _overhead(untraced, traced), "ratio")

        # (b) layers timed alone on what those ops carried.
        layer = _span_metrics(tracer, len(traced), root_name)
        alone = _timed_alone(bench, store, tracer, payloads, len(traced))
        metrics.update(layer["metrics"])
        metrics.update(alone["metrics"])
        # What the root span spends outside every server-side span, less
        # the codec timed alone: HTTP server machinery, or wire transport.
        residual_us = layer["root_self_us"] - alone["codec_us"]
        put("api.httpd.self_us", residual_us if is_http else 0.0, "us")
        put("docstore.server.transport_us",
            0.0 if is_http else residual_us, "us")
        put("trace.unattributed_frac",
            max(0.0, residual_us - floor_us) / layer["rtt_us"], "ratio")
        put("obs.tax_frac", _obs_tax(bench, store), "ratio")
        # How the mean RTT of the traced replay splits; the parts add up.
        named = {
            "rest": metrics["api.rest.self_us"][0],
            "queryengine": metrics["api.queryengine.self_us"][0],
            "dispatch": metrics["docstore.server.dispatch_self_us"][0],
            "collection": layer["collection_us"],
            "codec": alone["codec_us"],
            "floor": min(residual_us, floor_us),
            "beyond_floor": max(0.0, residual_us - floor_us),
        }
        named["querylog"] = layer["rtt_us"] - sum(named.values())
        note = f"split rtt_us={layer['rtt_us']:.0f} " + " ".join(
            f"{k}_us={v:.0f}" for k, v in named.items())
    finally:
        store.close()
        gc.unfreeze()
        shutil.rmtree(data_dir, ignore_errors=True)

    for classes in OP_CLASSES.values():
        for cls in classes:
            metrics.setdefault(f"mix.{cls}.p50_ms", (0.0, "ms"))
    return {"workload": workload, "attempted": max(1, attempted),
            "failed": len(failures), "failures": failures[:5],
            "n_ops": attempted, "metrics": metrics, "notes": [note]}


def _overhead(untraced: List[tuple], traced: List[tuple]) -> float:
    """Traced against untraced p50 on the same ops, class by class and
    weighted by class size: the p50 of the whole mix sits on the border
    between two op classes and jumps across it from run to run."""
    n = min(len(traced), len(untraced))
    by_class: Dict[str, List[List[float]]] = defaultdict(lambda: [[], []])
    for side, rows in enumerate((untraced[:n], traced[:n])):
        for cls, ms, _ in rows:
            by_class[cls][side].append(ms)
    extra = base = 0.0
    for plain_ms, traced_ms in by_class.values():
        if plain_ms and traced_ms:
            p50 = statistics.median(plain_ms)
            extra += len(plain_ms) * (statistics.median(traced_ms) - p50)
            base += len(plain_ms) * p50
    return extra / base if base else 0.0


def _replay_first_ops(bench: Any, workload: str, endpoints: Any, k: int,
                      budget_s: float, tracer: Optional[Tracer] = None,
                      root_name: str = "", target: Any = None,
                      first_loop: int = 0, after_op: Any = None) -> List[tuple]:
    """One client replays the first ``k`` ops of client 0's stream."""
    sessions, targets = bench.sessions(
        workload, endpoints, TaskfarmLedger(bench.dataset.queue_depth),
        n_clients=1, make_target=(lambda: target) if target else None,
        first_loop=first_loop)
    try:
        return replay(sessions[0], k, time.perf_counter() + budget_s,
                      tracer, root_name, after_op)
    finally:
        bench.close_targets(targets)


def _subprocess_passes(bench: Any, workload: str, seconds: float) -> dict:
    """Against the subprocess server, tracing off: ping and 404 floors, a
    pass with the workload's own client count bracketed by
    ``server_status``, and a one-client pass whose client-side latencies
    are held against ``telemetry.access``."""
    is_http = workload == "http_portal_read"
    metrics: Dict[str, tuple] = {}
    data_dir = bench.fresh_copy()
    server = bench.boot(data_dir)
    try:
        admin = RemoteClient("127.0.0.1", server.wire_port, pool_size=1)
        admin.ping()
        metrics["docstore.server.ping_rtt_us"] = (
            _median_us(admin.ping, 200), "us")
        probe = HttpTarget(server.base_url)
        metrics["api.httpd.floor_us"] = (
            _median_us(lambda: probe.get("/rest/v1/materials/He2Ne"), 60), "us")

        ledger = TaskfarmLedger(bench.dataset.queue_depth)
        sessions, targets = bench.sessions(workload, server, ledger)
        window = 0.35 * seconds
        t_first = time.perf_counter() + bench.warmup_s / 2
        drive(sessions, t_first, t_first)             # warm-up only
        status0 = admin.server_status()
        telemetry0 = admin["telemetry"].server_status()
        journal = os.path.join(data_dir, "journal.jsonl")
        journal0 = os.path.getsize(journal)

        def http_totals() -> Tuple[int, int]:
            return (sum(getattr(t, "requests", 0) for t in targets),
                    sum(getattr(t, "response_bytes", 0) for t in targets))

        conns0, bytes0 = http_totals()
        t_first = time.perf_counter()
        samples = drive(sessions, t_first, t_first + window)
        status1 = admin.server_status()
        telemetry1 = admin["telemetry"].server_status()
        journal1 = os.path.getsize(journal)
        n_ops = max(1, len(samples))
        failures = [s[3] for s in samples if s[3]]

        by_class: Dict[str, List[float]] = defaultdict(list)
        for cls, t0, t1, _ in samples:
            by_class[cls].append((t1 - t0) * 1e3)
        for cls, values in by_class.items():
            metrics[f"mix.{cls}.p50_ms"] = (statistics.median(values), "ms")

        def delta(section: str, key: str) -> float:
            return status1[section][key] - status0[section][key]

        conns1, bytes1 = http_totals()
        metrics["api.httpd.conns_per_op"] = ((conns1 - conns0) / n_ops, "count")
        metrics["api.httpd.resp_bytes_per_op"] = (
            (bytes1 - bytes0) / n_ops, "B")
        inserts = (telemetry1["opcounters"]["insert"]
                   - telemetry0["opcounters"]["insert"])
        metrics["api.querylog.store_writes_per_op"] = (inserts / n_ops, "count")
        hits, misses = delta("planCache", "hits"), delta("planCache", "misses")
        metrics["docstore.planner.cache_hit_frac"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        acquires = delta("locks", "read_acquires") + delta(
            "locks", "write_acquires")
        metrics["docstore.locks.read_wait_us_per_op"] = (
            delta("locks", "read_wait_ms") * 1e3 / n_ops, "us")
        metrics["docstore.locks.write_wait_us_per_op"] = (
            delta("locks", "write_wait_ms") * 1e3 / n_ops, "us")
        metrics["docstore.locks.contended_frac"] = (
            (delta("locks", "read_contended")
             + delta("locks", "write_contended")) / max(1, acquires), "ratio")
        metrics["docstore.persistence.fsyncs_per_kop"] = (
            delta("journal", "fsyncs") * 1e3 / n_ops, "count")
        metrics["docstore.persistence.max_batch"] = (
            status1["journal"]["max_batch"], "count")
        user_bytes = 0
        if workload == "wire_taskfarm_mixed":
            rng = taskfarm_rng(bench.seed, 0)
            material = bench.dataset.materials[0]
            engine_bytes = len(document_to_json(engine_doc(
                1, 1, material["reduced_formula"], material["elements"])))
            task_bytes = len(document_to_json(task_result_doc(1, rng)))
            user_bytes = (ledger.acked_submits * engine_bytes
                          + ledger.acked_results * task_bytes)
        metrics["docstore.persistence.journal_bytes_per_user_byte"] = (
            (journal1 - journal0) / user_bytes if user_bytes else 0.0, "ratio")

        # Harness check: with one client nothing queues outside the
        # server's own clock, so client-measured and server-logged durations
        # may differ by transport and codec only.
        if workload != "wire_taskfarm_mixed":
            # (the task farm is stateful: there client 0 carries on alone)
            bench.close_targets(targets)
            sessions, targets = bench.sessions(workload, server, n_clients=1)
        epoch0 = time.time()
        alone = replay(sessions[0], K_OPS, time.perf_counter() + 0.1 * seconds)
        bench.close_targets(targets)
        time.sleep(0.05)   # the HTTP access record is written after the reply
        logged = admin["telemetry"]["access"].find(
            {"method": "GET" if is_http else "WIRE", "ts": {"$gte": epoch0}},
            {"duration_ms": 1, "endpoint": 1, "_id": 0}, sort=[("seq", 1)])
        # One client, so the log holds the requests in the order they were
        # sent; the monitor op is two requests and is left out on both sides.
        logged_ms = [r["duration_ms"] for r in logged
                     if r["endpoint"].startswith("rest/")
                     or r["endpoint"] in REQUEST_ENDPOINTS[workload]]
        client_ms = [ms for cls, ms, _ in alone if cls != "monitor"]
        gaps = [(c - s) * 1e3 for c, s in zip(client_ms, logged_ms)]
        metrics["api.querylog.client_minus_logged_us"] = (
            statistics.median(gaps) if gaps else 0.0, "us")
        admin.close()
    finally:
        server.stop(graceful=False)
        shutil.rmtree(data_dir, ignore_errors=True)
    failures += [r for _, _, r in alone if r]
    return {"metrics": metrics, "failures": failures,
            "attempted": len(samples) + len(alone)}


def _traced_floor(tracer: Tracer, target: Any, exchanges: List[tuple],
                  root_name: str) -> float:
    """What the cheapest request costs outside every named span, in the
    traced composition: a ``ping`` on the wire, an expected 404 over HTTP.
    Requests that cost more than this outside the named spans have
    unattributed time."""
    n = 40
    is_http = root_name == "client.http"
    for i in range(n):
        with tracer.root(root_name, f"floor-{i}", "floor"):
            if is_http:
                target.get("/rest/v1/materials/He2Ne")
            else:
                target.ping()
    rows = self_times(tracer.spans)
    selfs = [rows[f"floor-{i}"][root_name] for i in range(n)]
    if is_http:
        _, body = exchanges[-1]
        codec = _timed_us(lambda: json.dumps(body, cls=DocumentJSONEncoder))
    else:
        request, result = {"op": "ping"}, "pong"
        codec = sum(_timed_us(f, x) for f, x in (
            (document_to_json, request),
            (document_from_json, document_to_json(request)),
            (document_to_json, {"ok": True, "result": result}),
            (document_from_json, document_to_json({"ok": True,
                                                    "result": result}))))
    return statistics.median(selfs) - codec


def _span_metrics(tracer: Tracer, n_ops: int, root: str) -> dict:
    rows = self_times(tracer.spans)
    ops = [rows[i] for i in range(n_ops) if i in rows]

    def mean_self(name: str) -> float:
        return _mean([row.get(name, 0.0) for row in ops])

    def mean_total_where_present(name: str) -> float:
        return _mean([row["total:" + name] for row in ops
                      if "total:" + name in row])

    metrics = {
        "api.rest.self_us": (mean_self("api.rest.handle"), "us"),
        "api.queryengine.self_us": (mean_self("api.queryengine.query"), "us"),
        "api.querylog.record_us": (
            _mean([row.get("total:api.querylog.record", 0.0) for row in ops]),
            "us"),
        "docstore.server.dispatch_self_us": (
            mean_self("docstore.server.dispatch"), "us"),
    }
    for method, unit, scale in (("find", "us", 1.0), ("insert", "us", 1.0),
                                ("claim", "us", 1.0), ("update", "us", 1.0),
                                ("count", "us", 1.0),
                                ("aggregate", "ms", 1e-3)):
        metrics[f"docstore.collection.{method}_{unit}"] = (
            mean_total_where_present(f"docstore.collection.{method}") * scale,
            unit)
    return {
        "metrics": metrics,
        "rtt_us": _mean([row.get("total:" + root, 0.0) for row in ops]),
        "root_self_us": mean_self(root),
        "collection_us": _mean([
            sum(v for k, v in row.items()
                if k.startswith("docstore.collection.")) for row in ops]),
    }


class PayloadTimer:
    """Times codec, deep copy and query compilation alone on each op's
    payloads right after the op, then lets the payloads go: kept until the
    end they grow the heap the cyclic collector walks during later ops."""

    def __init__(self, tracer: Tracer, exchanges: List[tuple], is_http: bool):
        self.tracer, self.exchanges, self.is_http = tracer, exchanges, is_http
        self.encode_us = self.decode_us = self.copy_us = self.compile_us = 0.0
        self.resp_bytes = 0
        self._calls_seen = len(tracer.calls)

    def after_op(self) -> None:
        for first, second in self.exchanges:
            if self.is_http:
                # The envelope encode in api.httpd (DocumentJSONEncoder).
                text = json.dumps(second, cls=DocumentJSONEncoder)
                self.encode_us += _timed_us(
                    lambda: json.dumps(second, cls=DocumentJSONEncoder))
            else:
                envelope = {"ok": True, "result": second}
                request_line = document_to_json(first)
                text = document_to_json(envelope)
                self.encode_us += (_timed_us(document_to_json, first)
                                   + _timed_us(document_to_json, envelope))
                self.decode_us += (_timed_us(document_from_json, request_line)
                                   + _timed_us(document_from_json, text))
            self.resp_bytes += len(text)
        del self.exchanges[:]
        for call in self.tracer.calls[self._calls_seen:]:
            docs = call.pop("docs", None)
            call["n_returned"] = max(1, len(docs)) if docs is not None else 1
            if docs:
                self.copy_us += _timed_us(deep_copy_doc, docs)
            if "query" in call:
                self.compile_us += _timed_us(compile_query, call["query"])
        self._calls_seen = len(self.tracer.calls)


def _timed_alone(bench: Any, store: Any, tracer: Tracer,
                 payloads: PayloadTimer, n_ops: int) -> dict:
    """Matcher, planner explain, aggregation stages and journal append,
    each timed alone on what the replayed ops carried, plus the per-op
    sums ``payloads`` took along the way."""
    n_ops = max(1, n_ops)
    encode_us, decode_us = payloads.encode_us, payloads.decode_us
    metrics: Dict[str, tuple] = {
        "docstore.documents.encode_us": (encode_us / n_ops, "us"),
        "docstore.documents.decode_us": (decode_us / n_ops, "us"),
        "docstore.documents.encode_mb_per_s": (
            payloads.resp_bytes / encode_us if encode_us else 0.0, "MB/s"),
        "docstore.documents.resp_bytes_per_op": (
            payloads.resp_bytes / n_ops, "B"),
        "docstore.documents.copy_us": (payloads.copy_us / n_ops, "us"),
        "docstore.matching.compile_us": (payloads.compile_us / n_ops, "us"),
    }
    calls = [c for c in tracer.calls if isinstance(c["request"], int)]
    queried = [c for c in calls if "query" in c]
    fixed_docs = bench.dataset.fixed_documents()
    matchers = [compile_query(c["query"]) for c in queried[:20]
                if c["coll"] == "materials" and c["query"]]
    matchers = matchers or [compile_query({"band_gap": {"$gte": 1.0}})]
    t0 = time.perf_counter()
    for matcher in matchers:
        for doc in fixed_docs:
            matcher.matches(doc)
    metrics["docstore.matching.match_ns_per_doc"] = (
        (time.perf_counter() - t0) * 1e9 / (len(matchers) * len(fixed_docs)),
        "ns")

    # Planner: explain() on the real collections of this process's store.
    examined = keys = returned = 0.0
    collscans = blocking = 0
    explain_us: List[float] = []
    planned = queried[:MAX_PLANNED_CALLS]
    for call in planned:
        coll = store["mp"][call["coll"]]
        sort = [tuple(p) for p in call["sort"]] if call.get("sort") else None
        coll.explain(call["query"], sort=sort)
        t0 = time.perf_counter()
        plan = coll.explain(call["query"], sort=sort)
        explain_us.append((time.perf_counter() - t0) * 1e6)
        # explain() runs the plan to the end; a limited read whose plan
        # already yields the sort order stops after skip+limit matches.
        wanted = (call.get("skip") or 0) + (call.get("limit") or 0)
        share = 1.0
        if wanted and not plan["blockingSort"] and plan["nReturned"] > wanted:
            share = wanted / plan["nReturned"]
        examined += plan["docsExamined"] * share
        keys += plan["keysExamined"] * share
        returned += call["n_returned"]
        collscans += plan["stage"] == "COLLSCAN"
        blocking += bool(plan["blockingSort"])
    n_planned = max(1, len(planned))
    metrics["docstore.planner.explain_us"] = (_mean(explain_us), "us")
    metrics["docstore.planner.docs_examined_per_returned"] = (
        examined / max(1.0, returned), "ratio")
    metrics["docstore.planner.keys_examined_per_returned"] = (
        keys / max(1.0, returned), "ratio")
    metrics["docstore.planner.collscan_frac"] = (collscans / n_planned, "ratio")
    metrics["docstore.planner.blocking_sort_frac"] = (
        blocking / n_planned, "ratio")

    # Aggregation: the engine's own per-stage report.  Where the ops
    # aggregate over `materials` those calls are the ones reported; the
    # `batteries` aggregates are the cheap contrast.
    aggregates = [c for c in calls if c["method"] == "aggregate"]
    big = [c for c in aggregates if c["coll"] == "materials"] or aggregates
    cursor_ms, stages_ms, copied, produced = [], [], 0, 0
    for call in big[:MAX_AGG_EXPLAINS]:
        report = store["mp"][call["coll"]].aggregate(call["pipeline"],
                                                    explain=True)
        stages = report["stages"]
        cursor_ms.append(stages[0]["elapsed_ms"])
        stages_ms.append(sum(s["elapsed_ms"] for s in stages[1:]))
        copied += stages[0]["docs_out"]
        produced += report["nReturned"]
    metrics["docstore.aggregation.cursor_copy_ms"] = (_mean(cursor_ms), "ms")
    metrics["docstore.aggregation.stages_ms"] = (_mean(stages_ms), "ms")
    metrics["docstore.aggregation.docs_copied_per_returned"] = (
        copied / max(1, produced), "ratio")

    # Journal append alone, interval policy, task-result records.
    rng = taskfarm_rng(bench.seed, 0)
    path = os.path.join(bench.run_dir, "append-alone.jsonl")
    writer = JournalWriter(path, fsync="interval")
    try:
        records = [{"db": "mp", "op": "insert",
                    "payload": {"ns": "tasks", "doc": task_result_doc(i, rng)}}
                   for i in range(200)]
        t0 = time.perf_counter()
        for record in records:
            writer.append(record)
        metrics["docstore.persistence.append_us"] = (
            (time.perf_counter() - t0) * 1e6 / len(records), "us")
    finally:
        writer.close()
        os.remove(path)

    return {"metrics": metrics, "codec_us": (encode_us + decode_us) / n_ops}


def _obs_tax(bench: Any, store: Any) -> float:
    """The cost of watching as one number: the first ops of the portal
    stream sent alternately to two untraced compositions over the same
    store, one with the telemetry warehouse attached and one without;
    ``(on - off) / on`` of the median latencies."""
    off, on = Composition(store, telemetry=False), Composition(store)
    try:
        targets = (HttpTarget(off.endpoints.base_url),
                   HttpTarget(on.endpoints.base_url))
        latencies: List[List[float]] = [[], []]
        ops = stream(bench.dataset, "http_portal_read", bench.seed, 0)
        for i in range(TAX_OPS):
            path = next(ops).args["path"]
            for side in ((0, 1) if i % 2 else (1, 0)):
                t0 = time.perf_counter()
                targets[side].get(path)
                latencies[side].append(time.perf_counter() - t0)
    finally:
        off.close()
        on.close()
    med_off, med_on = (statistics.median(v) for v in latencies)
    return (med_on - med_off) / med_on
