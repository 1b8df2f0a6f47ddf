"""Forwarding proxy between HPC worker nodes and the datastore server.

Reproduces §IV-A2: "most HPC systems are configured such that the internal
worker nodes are not allowed to communicate outside the system. Thus, we had
to use a proxy to have our tasks communicate with the MongoDB Server."

The proxy listens on its own TCP port, forwards each JSON-line request to
the upstream :class:`~repro.docstore.server.DatastoreServer`, and relays the
response.  It counts traffic and adds a configurable forwarding latency so
the proxy-overhead benchmark (bench_proxy_numa) can quantify the cost of the
extra hop.  Combined with :mod:`repro.hpc.network`, worker-node clients are
*only* permitted to open connections to the proxy.

Traced requests (a ``"$trace"`` field on the wire) are joined rather than
passed through blindly: the proxy opens its own ``proxy.forward`` span as a
remote child of the caller and rewrites the context so the upstream server
parents under the *proxy* span — the stitched trace then shows the extra
hop the paper had to pay.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Any, List, Optional

from ..background import ServerThread
from ..obs import get_registry, remote_span, trace_context
from .documents import document_from_json, document_to_json
from .server import RemoteClient

__all__ = ["DatastoreProxy"]


def _retrace(line: bytes) -> tuple:
    """Split one wire line into its ``$trace`` context and re-sender.

    Returns ``(ctx, resend)`` where ``resend(new_ctx)`` yields the line
    with the context replaced.  Unparseable or untraced lines forward
    verbatim (``ctx is None``): the proxy must never break the protocol
    it is relaying.
    """
    try:
        request = document_from_json(line.decode("utf-8"))
        ctx = request.get("$trace") if isinstance(request, dict) else None
    except Exception:  # noqa: BLE001 - relay anything, valid or not
        return None, None
    if ctx is None:
        return None, None

    def resend(new_ctx: dict) -> bytes:
        request["$trace"] = new_ctx
        return (document_to_json(request) + "\n").encode("utf-8")

    return ctx, resend


class _ProxyHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        proxy: "DatastoreProxy" = self.server.proxy  # type: ignore[attr-defined]
        try:
            upstream, upstream_file = proxy._connect()
        except OSError:
            return
        try:
            while True:
                line = self.rfile.readline()
                if not line:
                    break
                t0 = time.perf_counter()
                if proxy.forward_latency_s > 0:
                    time.sleep(proxy.forward_latency_s)
                ctx, resend = _retrace(line)
                if ctx is not None:
                    with remote_span("proxy.forward", ctx,
                                     upstream=proxy.upstream_port):
                        wire = resend(trace_context())
                        upstream, upstream_file, response = proxy._roundtrip(
                            upstream, upstream_file, wire)
                else:
                    upstream, upstream_file, response = proxy._roundtrip(
                        upstream, upstream_file, line)
                if not response:
                    break
                proxy._count(len(line), len(response),
                             elapsed_ms=(time.perf_counter() - t0) * 1e3)
                self.wfile.write(response)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            if upstream_file is not None:
                upstream_file.close()
            if upstream is not None:
                try:
                    upstream.close()
                except OSError:
                    pass


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class DatastoreProxy(ServerThread):
    """TCP proxy relaying the JSON-line wire protocol to an upstream server.

    Parameters
    ----------
    upstream_host, upstream_port:
        Address of the real :class:`DatastoreServer`.
    forward_latency_s:
        Artificial one-way forwarding delay, modelling the extra network hop
        between the compute-node network and the database host.
    fallbacks:
        Optional further ``(host, port)`` upstreams.  When the active
        upstream refuses connections or drops mid-exchange, the proxy
        rotates to the next one and re-sends the in-flight request once —
        the re-routing half of the cluster failover story (the surviving
        server answers ``NotPrimary``/``StaleEpoch`` and the *client*
        retry logic does the rest).
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
        forward_latency_s: float = 0.0,
        fallbacks: Optional[List[tuple]] = None,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.upstreams: List[tuple] = [(upstream_host, upstream_port)]
        self.upstreams.extend(tuple(f) for f in (fallbacks or []))
        self._active = 0
        self.failovers = 0
        self.forward_latency_s = forward_latency_s
        self._tcp = _ThreadingTCPServer((host, port), _ProxyHandler)
        self._tcp.proxy = self  # type: ignore[attr-defined]
        super().__init__("wire-proxy", self._tcp)
        self._lock = threading.Lock()
        self.requests_forwarded = 0
        self.bytes_up = 0
        self.bytes_down = 0

    # -- upstream failover -------------------------------------------------

    def _connect(self) -> tuple:
        """Open ``(socket, reader)`` to the first reachable upstream.

        Starts at the active upstream and rotates through the fallbacks;
        a rotation that lands somewhere new counts as a failover.
        """
        with self._lock:
            start = self._active
        last_exc: Optional[OSError] = None
        for offset in range(len(self.upstreams)):
            idx = (start + offset) % len(self.upstreams)
            host, port = self.upstreams[idx]
            try:
                sock = socket.create_connection((host, port), timeout=30.0)
            except OSError as exc:
                last_exc = exc
                continue
            with self._lock:
                if idx != self._active:
                    self._active = idx
                    self.failovers += 1
                    get_registry().counter(
                        "repro_proxy_failovers_total",
                        "proxy upstream failovers",
                    ).inc(1)
            return sock, sock.makefile("rb")
        raise last_exc if last_exc is not None else OSError(
            "proxy has no upstreams")

    def _roundtrip(self, sock: Any, rfile: Any, wire: bytes) -> tuple:
        """Send one frame, reading one response; fail over once if needed.

        Returns ``(sock, rfile, response)`` — possibly a *new* connection
        to a fallback upstream when the active one died mid-exchange.  An
        empty response means every upstream is gone.
        """
        for attempt in range(2):
            try:
                sock.sendall(wire)
                response = rfile.readline()
            except OSError:
                response = b""
            if response:
                return sock, rfile, response
            try:
                rfile.close()
                sock.close()
            except OSError:
                pass
            if attempt == 0:
                with self._lock:
                    self._active = (self._active + 1) % len(self.upstreams)
                    self.failovers += 1
                    get_registry().counter(
                        "repro_proxy_failovers_total",
                        "proxy upstream failovers",
                    ).inc(1)
                try:
                    sock, rfile = self._connect()
                except OSError:
                    return None, None, b""
        return sock, rfile, b""

    def _count(self, up: int, down: int,
               elapsed_ms: Optional[float] = None) -> None:
        with self._lock:
            self.requests_forwarded += 1
            self.bytes_up += up
            self.bytes_down += down
        registry = get_registry()
        registry.counter(
            "repro_proxy_requests_total", "requests relayed by the proxy"
        ).inc(1)
        registry.counter(
            "repro_wire_bytes_total", "wire-protocol traffic"
        ).inc(up + down, direction="proxy")
        if elapsed_ms is not None:
            registry.histogram(
                "repro_proxy_forward_millis", "proxy forwarding latency"
            ).observe(elapsed_ms)

    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    @property
    def address(self) -> tuple:
        return self._tcp.server_address

    def client(self) -> RemoteClient:
        """Open a client connection through this proxy."""
        return RemoteClient("127.0.0.1", self.port)

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests_forwarded": self.requests_forwarded,
                "bytes_up": self.bytes_up,
                "bytes_down": self.bytes_down,
                "upstreams": list(self.upstreams),
                "active_upstream": self._active,
                "failovers": self.failovers,
            }
