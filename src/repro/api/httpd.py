"""A real HTTP front end for the Materials API (stdlib only).

Serves :class:`~repro.api.rest.MaterialsAPI` over
``http.server.ThreadingHTTPServer``: GET requests route by path, the API
key arrives via the ``X-API-KEY`` header or an ``API_KEY`` query parameter,
and responses are JSON with proper status codes.  This is the "Web API"
box of the paper's architecture served over an actual socket, so the
examples and benches exercise a genuine HTTP round trip.

Two operational endpoints ride alongside the data API:

* ``GET /metrics`` — the shared metrics registry in text exposition
  format (counters, gauges, histogram quantiles);
* ``GET /status`` — JSON: the backing database's ``serverStatus``
  (opcounters, profiling level) plus a registry snapshot;
* ``GET /ops`` — live ``currentOp()`` output for the backing store;
* ``GET /health`` — the attached :class:`~repro.obs.health.HealthMonitor`
  report (gauges + SLO evaluation); 200 while green/warn, 503 once an
  open alert reaches critical, so load balancers can act on it;
* ``GET /alerts`` — the SLO engine's alert history (open + recent);
* ``GET /provenance/<material_id>`` — the provenance DAG walked back
  from one material to its source tasks and workflows;
* ``GET /telemetry/access|traces`` — the telemetry warehouse's read
  surface: access-log analytics (filters, ``top=``, ``summary=1``) and
  tail-sampled traces;
* ``GET /traces/<trace_id>`` — one tail-sampled trace tree (404 if the
  trace was dropped by the sampler);
* ``GET /debug/profile|flamegraph|locks`` — the continuous profiler:
  JSON snapshot of the process-global sampling profiler (``action=start``
  / ``action=stop`` drive its lifecycle), folded flamegraph stacks as
  ``text/plain``, and the backing store's lock-contention report;
* ``GET /debug/flight`` — the process-global flight recorder's status
  (``?window=N`` adds the last N in-memory snapshots — the metrics
  history: counter deltas, gauges, histogram quantiles; ``?anomalies=1``
  runs the MAD-z-score scan, ``?events=1`` lists recent stall/shutdown
  events).

When a :class:`~repro.obs.warehouse.TelemetryWarehouse` is attached,
every request additionally lands one structured record in
``telemetry.access`` (endpoint template, method, resolved user id,
status, duration, request/response bytes, and the collection, query and
result count of the QueryEngine calls it made) — the paper's
usage-analytics story with the datastore as its own warehouse.  The
handler only queues the record; the access log's writer task stores it.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from ..background import ServerThread
from ..docstore.documents import DocumentJSONEncoder
from ..obs import get_logger, get_registry, log_event
from .rest import MaterialsAPI

__all__ = ["MaterialsAPIServer"]


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        t0 = time.perf_counter()
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        self._last_status: Optional[int] = None
        self._last_bytes = 0
        self._request_user: Optional[str] = None
        error: Optional[str] = None
        warehouse = getattr(self.server, "warehouse", None)
        with (warehouse.access.request() if warehouse is not None
              else nullcontext()) as queries:
            try:
                self._route(parsed, params)
            except Exception as exc:  # noqa: BLE001 - record, then let stdlib log it
                error = type(exc).__name__
                raise
            finally:
                if warehouse is not None:
                    self._record_access(warehouse.access, parsed.path, t0,
                                        error, queries)

    def _route(self, parsed: Any, params: dict) -> None:
        api: MaterialsAPI = self.server.materials_api  # type: ignore[attr-defined]
        if parsed.path == "/metrics":
            self._send_bytes(
                200, get_registry().render_text().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
            return
        if parsed.path == "/status":
            self._send_json(200, self._status_document(api))
            return
        if parsed.path == "/ops":
            self._send_json(200, self._ops_document(api))
            return
        if parsed.path == "/health":
            self._serve_health()
            return
        if parsed.path == "/alerts":
            self._serve_alerts()
            return
        if parsed.path.startswith("/telemetry/"):
            self._serve_telemetry(parsed.path, params)
            return
        if parsed.path.startswith("/traces/"):
            self._serve_trace(parsed.path.rsplit("/", 1)[-1])
            return
        if parsed.path.startswith("/provenance/"):
            self._serve_provenance(api, parsed.path.rsplit("/", 1)[-1])
            return
        if parsed.path.startswith("/debug/"):
            self._serve_debug(api, parsed.path, params)
            return
        if parsed.path == "/ui" or parsed.path.startswith("/ui/"):
            self._serve_ui(parsed.path, params)
            return
        api_key = self.headers.get("X-API-KEY") or (
            params.get("API_KEY", [None])[0]
        )
        self._request_user = self._resolve_user(api, api_key)
        envelope = api.handle(parsed.path, api_key=api_key)
        status = 200 if envelope.get("valid_response") else envelope.get(
            "status", 400
        )
        self._send_json(status, envelope)

    # -- access-log warehouse --------------------------------------------

    @staticmethod
    def _endpoint_of(path: str) -> str:
        """Bound endpoint cardinality: template away per-document ids so
        the access warehouse groups by *route*, not by material."""
        parts = [p for p in path.strip("/").split("/") if p]
        if not parts:
            return "/"
        if parts[0] == "rest" and len(parts) >= 3:
            return "/".join(parts[:3])  # rest/v1/materials
        if parts[0] in ("provenance", "traces") and len(parts) > 1:
            return f"{parts[0]}/<id>"
        if parts[0] == "ui" and len(parts) > 2:
            return "/".join(parts[:2]) + "/<id>"
        return "/".join(parts)

    @staticmethod
    def _resolve_user(api: MaterialsAPI, api_key: Optional[str]) -> Optional[str]:
        """The user id behind an API key — never the raw key (the access
        warehouse is queryable; keys must not leak into it)."""
        auth = getattr(api, "auth", None)
        if api_key is None or auth is None:
            return None
        try:
            return auth.authenticate_api_key(api_key).user_id
        except Exception:  # noqa: BLE001 - bad key: recorded as anonymous
            return None

    def _record_access(self, access: Any, path: str, t0: float,
                       error: Optional[str], queries: dict) -> None:
        """The request's one access record, carrying what its QueryEngine
        calls folded into ``queries`` (:meth:`QueryLog.request`)."""
        status = self._last_status
        if status is None:
            status = 500  # crashed before a response was written
        try:
            access.record_access(
                endpoint=self._endpoint_of(path),
                method=self.command or "GET",
                user=self._request_user,
                status=status,
                error=error,
                duration_ms=(time.perf_counter() - t0) * 1e3,
                nreturned=queries["nreturned"],
                request_bytes=len(self.raw_requestline or b""),
                response_bytes=self._last_bytes,
                collection=queries["collection"],
                query_repr=queries["query_repr"],
            )
        except Exception:  # noqa: BLE001 - telemetry must never break serving
            pass

    # -- telemetry warehouse endpoints -----------------------------------

    def _serve_telemetry(self, path: str, params: dict) -> None:
        """``GET /telemetry/access|traces`` — warehouse queries."""
        warehouse = getattr(self.server, "warehouse", None)
        if warehouse is None:
            self._send_json(
                404, {"error": "telemetry warehouse not attached"}
            )
            return
        section = path.split("/", 2)[-1]
        try:
            if section == "access":
                self._serve_telemetry_access(warehouse, params)
            elif section == "traces":
                limit = int(params.get("limit", ["50"])[0])
                min_ms = params.get("min_duration_ms", [None])[0]
                self._send_json(200, {"traces": warehouse.tail_sampler.query(
                    min_duration_ms=(
                        float(min_ms) if min_ms is not None else None
                    ),
                    status=params.get("status", [None])[0],
                    limit=limit,
                )})
            else:
                self._send_json(
                    404, {"error": f"unknown telemetry section {section!r}"}
                )
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})

    def _serve_telemetry_access(self, warehouse: Any, params: dict) -> None:
        access = warehouse.access
        top_by = params.get("top", [None])[0]
        if top_by is not None:
            self._send_json(200, {"top": access.top(
                by=top_by, limit=int(params.get("limit", ["10"])[0])
            )})
            return
        if params.get("summary", [None])[0]:
            self._send_json(200, access.summary())
            return
        status = params.get("status", [None])[0]
        min_ms = params.get("min_duration_ms", [None])[0]
        after = params.get("after", [None])[0]
        before = params.get("before", [None])[0]
        records = access.query_access_log(
            endpoint=params.get("endpoint", [None])[0],
            method=params.get("method", [None])[0],
            user=params.get("user", [None])[0],
            status=int(status) if status is not None else None,
            after=float(after) if after is not None else None,
            before=float(before) if before is not None else None,
            min_duration_ms=float(min_ms) if min_ms is not None else None,
            errors_only=bool(params.get("errors_only", [None])[0]),
            limit=int(params.get("limit", ["100"])[0]),
        )
        self._send_json(200, {"records": records})

    def _serve_debug(self, api: MaterialsAPI, path: str,
                     params: dict) -> None:
        """``GET /debug/profile|flamegraph|locks`` — continuous profiling.

        ``/debug/profile`` drives the process-global sampling profiler
        through :func:`~repro.obs.profiler.profile_action`: ``?action=``
        ``start`` (``&hz=N``), ``stop``, ``reset`` or ``snapshot`` (the
        default; ``?limit=N`` bounds the stack list), 400 for any other;
        ``/debug/flamegraph`` the folded stacks as plain text (one
        ``stack count`` line each, ready for ``flamegraph.pl``);
        ``/debug/locks`` the backing store's lock totals and top-contended
        (waiter op, holder op) attribution.
        """
        from ..obs.profiler import profile_action

        section = path.split("/", 2)[-1]
        if section == "profile":
            hz = params.get("hz", [None])[0]
            try:
                doc = profile_action(params.get("action", ["snapshot"])[0],
                                     hz=float(hz) if hz else None,
                                     limit=int(params.get("limit", ["0"])[0]))
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, doc)
            return
        if section == "flamegraph":
            lines = profile_action("flame")
            self._send_bytes(200, ("\n".join(lines) + "\n").encode("utf-8")
                             if lines else b"", "text/plain; charset=utf-8")
            return
        if section == "locks":
            db = getattr(api.qe, "db", None)
            store = getattr(db, "client", None) if db is not None else None
            if store is None:
                self._send_json(404, {"error": "no backing store"})
                return
            limit = int(params.get("limit", ["10"])[0])
            self._send_json(200, store.lock_report(limit=limit))
            return
        if section == "flight":
            self._serve_flight(params)
            return
        self._send_json(404, {"error": f"unknown debug section {section!r}"})

    def _serve_flight(self, params: dict) -> None:
        """``GET /debug/flight`` — the process-global flight recorder."""
        from ..obs.flight import get_flight_recorder, scan_anomalies

        recorder = get_flight_recorder()
        if recorder is None:
            self._send_json(200, {"attached": False, "running": False})
            return
        if params.get("anomalies", [None])[0]:
            self._send_json(200, {
                "attached": True,
                "anomalies": scan_anomalies(recorder.recent()),
            })
            return
        doc = {"attached": True, **recorder.status()}
        window = int(params.get("window", ["0"])[0])
        if window:
            doc["snapshots"] = recorder.recent(window)
        if params.get("events", [None])[0]:
            doc["events"] = recorder.recent_events(50)
        self._send_json(200, doc)

    def _serve_trace(self, trace_id: str) -> None:
        """``GET /traces/<trace_id>`` — one tail-sampled trace tree."""
        warehouse = getattr(self.server, "warehouse", None)
        if warehouse is None:
            self._send_json(
                404, {"error": "telemetry warehouse not attached"}
            )
            return
        doc = warehouse.tail_sampler.get(trace_id)
        if doc is None:
            self._send_json(404, {"error": f"no sampled trace {trace_id!r}"})
            return
        self._send_json(200, doc)

    @staticmethod
    def _status_document(api: MaterialsAPI) -> dict:
        db = getattr(api.qe, "db", None)
        return {
            "server": db.server_status() if db is not None else None,
            "query_log": api.qe.query_log.summary(),
            "metrics": get_registry().snapshot(),
        }

    @staticmethod
    def _ops_document(api: MaterialsAPI) -> dict:
        """``db.currentOp()`` of the store behind the API (``/ops``)."""
        db = getattr(api.qe, "db", None)
        store = getattr(db, "client", None) if db is not None else None
        inprog = store.current_op() if store is not None else []
        return {"inprog": inprog}

    def _serve_health(self) -> None:
        """``GET /health``: evaluate the monitor and pick the status code
        by severity — only *critical* flips to 503 (a warning fleet still
        serves traffic)."""
        monitor = getattr(self.server, "health_monitor", None)
        if monitor is None:
            self._send_json(200, {"status": "green", "gauges": {},
                                  "detail": "no health monitor attached"})
            return
        report = monitor.report()
        status = 503 if report["status"] == "critical" else 200
        self._send_json(status, report)

    def _serve_alerts(self) -> None:
        monitor = getattr(self.server, "health_monitor", None)
        engine = getattr(monitor, "engine", None)
        if engine is None:
            self._send_json(200, {"open": [], "recent": [], "rules": []})
            return
        self._send_json(200, {
            "open": engine.open_alerts(),
            "recent": engine.recent_alerts(50),
            "rules": engine.describe(),
        })

    def _serve_provenance(self, api: MaterialsAPI, material_id: str) -> None:
        from ..errors import NotFoundError
        from ..obs import provenance_graph

        db = getattr(api.qe, "db", None)
        if db is None:
            self._send_json(404, {"error": "no backing database"})
            return
        try:
            self._send_json(200, provenance_graph(db, material_id))
        except NotFoundError as exc:
            self._send_json(404, {"error": str(exc)})

    def _send_json(self, status: int, document: Any) -> None:
        payload = json.dumps(document, cls=DocumentJSONEncoder).encode("utf-8")
        self._send_bytes(status, payload, "application/json")

    def _send_bytes(self, status: int, payload: bytes,
                    content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self._last_status = status
        self._last_bytes = len(payload)
        registry = get_registry()
        registry.counter(
            "repro_http_requests_total", "HTTP requests served"
        ).inc(1, status=status)
        registry.counter(
            "repro_http_response_bytes_total", "HTTP response payload bytes"
        ).inc(len(payload))

    def _serve_ui(self, path: str, params: dict) -> None:
        """The Web UI pages (when a WebUI renderer is attached)."""
        from ..errors import NotFoundError

        webui = getattr(self.server, "webui", None)
        if webui is None:
            self._send_html(404, "<h1>Web UI not enabled</h1>")
            return
        try:
            if path in ("/ui", "/ui/"):
                search = params.get("search", [None])[0]
                html_text = webui.index_page(search=search)
            elif path in ("/ui/batteries", "/ui/batteries/"):
                ion = params.get("ion", ["Li"])[0]
                html_text = webui.battery_screen_page(working_ion=ion)
            elif path.startswith("/ui/material/"):
                html_text = webui.material_page(path.rsplit("/", 1)[-1])
            else:
                raise NotFoundError(f"no UI page {path!r}")
            self._send_html(200, html_text)
        except NotFoundError as exc:
            self._send_html(404, f"<h1>404</h1><p>{exc}</p>")

    def _send_html(self, status: int, html_text: str) -> None:
        self._send_bytes(status, html_text.encode("utf-8"),
                         "text/html; charset=utf-8")

    def log_message(self, fmt: str, *args: Any) -> None:
        # Route stdlib access lines through the structured (redacting)
        # logger instead of stderr; DEBUG so they stay quiet by default.
        log_event(get_logger("repro.api.http"), logging.DEBUG, "request",
                  client=self.address_string(), line=fmt % args)


class MaterialsAPIServer(ServerThread):
    """Threaded HTTP server wrapping a MaterialsAPI router."""

    def __init__(self, api: MaterialsAPI, host: str = "127.0.0.1",
                 port: int = 0, webui: Optional[Any] = None,
                 monitor: Optional[Any] = None,
                 warehouse: Optional[Any] = None):
        self.api = api
        self.monitor = monitor if monitor is not None else (
            self._default_monitor(api)
        )
        self.warehouse = warehouse
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.materials_api = api  # type: ignore[attr-defined]
        self._httpd.webui = webui  # type: ignore[attr-defined]
        self._httpd.health_monitor = self.monitor  # type: ignore[attr-defined]
        self._httpd.warehouse = warehouse  # type: ignore[attr-defined]
        super().__init__("http-server", self._httpd)

    @staticmethod
    def _default_monitor(api: MaterialsAPI) -> Optional[Any]:
        """A stock :class:`HealthMonitor` with the default SLO rule set
        over the API's backing database (none when the query engine has
        no local ``db`` to watch)."""
        db = getattr(api.qe, "db", None)
        if db is None:
            return None
        from ..obs.health import HealthMonitor

        return HealthMonitor(db)

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"
