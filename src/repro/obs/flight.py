"""Out-of-band flight recorder, stall watchdog, and crash forensics.

Every other observability surface in this repo — ``system.profile``, the
telemetry warehouse, the metrics registry — stores its data *inside* the
engine it observes.  The moment the store wedges on a write lock, stalls
in ``fsync``, or the process dies at a batch-queue walltime, those
surfaces lose exactly the window an operator needs.  This module is the
black box: an FTDC-style background recorder that captures a full
diagnostic snapshot at a configurable cadence (default 1 Hz) and appends
it to a size-capped on-disk ring of delta-compressed, CRC-checked binary
chunks using **pure file appends** — it never touches the docstore write
path, so recording keeps working when the store itself cannot accept
writes.

Three layers:

* **Ring + codec** — snapshots are JSON documents, delta-encoded against
  the previous snapshot (:func:`dict_delta`), zlib-compressed, and framed
  with a 20-byte header (magic, kind, timestamp, length, CRC32).  Records
  accumulate into ``chunk-NNNNNNNN.bin`` files; every chunk opens with a
  full keyframe so each chunk decodes independently, which makes ring
  eviction (delete the oldest chunk) safe.  The decoder tolerates torn
  tails and corrupt records: a bad CRC or magic abandons the rest of that
  chunk with a warning and decoding continues at the next keyframe.

* **Stall watchdog** — a separate daemon thread probes hot-path liveness
  (non-blocking RWLock read acquisition per collection, journal committer
  heartbeat age, the oldest op in the store's ``currentOp`` table, which
  wire and HTTP requests alike register in).  A probe that fails
  continuously past ``stall_timeout_s`` fires a stall event: all-thread
  stacks read from :func:`faulthandler.dump_traceback` and folded
  ``outer;inner;leaf``, an EVENT record in the ring, an immediate flush,
  and a ``repro_flight_stalls_total`` counter bump.  The ring is the only
  incident log: the watchdog never writes into the store it watches, so
  a wedged journal cannot block the report of its own wedge.

* **Crash forensics** — ``faulthandler`` wired to a log file inside the
  ring directory, a ``session.json`` marker flipped to clean on orderly
  shutdown (atexit or :meth:`FlightRecorder.stop`), and a startup-time
  detector that, after an unclean death, correlates the ring tail with
  the journal's ``last_recovery`` torn-tail report into
  ``crash_report.json``.  :func:`build_crash_report` reads only the ring
  directory — it never opens the docstore, so it works even when the
  data files are the thing that is broken.
"""

from __future__ import annotations

import atexit
import copy
import faulthandler
import json
import os
import re
import struct
import tempfile
import threading
import time
import zlib
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..background import PeriodicTask, TaskDaemon
from .metrics import get_registry, labels_key
from .procstats import process_status
from .profiler import MAX_DEPTH

__all__ = [
    "FlightRecorder",
    "StallWatchdog",
    "get_flight_recorder",
    "set_flight_recorder",
    "start_flight_recorder",
    "stop_flight_recorder",
    "dict_delta",
    "apply_delta",
    "decode_ring",
    "diff_window",
    "metric_points",
    "scan_anomalies",
    "enable_fault_handler",
    "detect_unclean_shutdown",
    "build_crash_report",
    "generate_crash_report",
    "read_crash_report",
    "DEFAULT_INTERVAL_S",
    "DEFAULT_STALL_TIMEOUT_S",
]

# -- ring format ------------------------------------------------------------

#: Record header: magic ``FR``, kind byte, flags byte (reserved), float64
#: wall-clock timestamp, payload length, CRC32 of the compressed payload.
_HEADER = struct.Struct("<2sBBdII")
_MAGIC = b"FR"

#: Record kinds.  FULL is a complete snapshot (keyframe), DELTA encodes
#: against the previous snapshot record, EVENT is out-of-band (stalls,
#: shutdown markers) and never participates in the delta chain.
KIND_FULL = 1
KIND_DELTA = 2
KIND_EVENT = 3

_CHUNK_RE = re.compile(r"^chunk-(\d{8})\.bin$")

DEFAULT_INTERVAL_S = 1.0
DEFAULT_STALL_TIMEOUT_S = 5.0

#: Ring budget defaults: ~16 MiB total across ~256 KiB chunks.  At 1 Hz a
#: delta record is typically well under 1 KiB, so the ring holds hours.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024
MAX_CHUNK_BYTES = 256 * 1024
DEFAULT_CHUNK_RECORDS = 120

#: Fixed bounds: snapshots kept for ``recent()`` (5 min at 1 Hz), the
#: shortest series and most findings of :func:`scan_anomalies`, and the
#: collections lock-probed per watchdog tick and stacks dumped per stall.
RECENT_SNAPSHOTS = 300
ANOMALY_MIN_POINTS = 8
ANOMALY_LIMIT = 50
MAX_PROBED_COLLECTIONS = 32
MAX_STACK_THREADS = 64

SESSION_FILE = "session.json"
CRASH_REPORT_FILE = "crash_report.json"
FAULTHANDLER_FILE = "faulthandler.log"


def _chunk_name(seq: int) -> str:
    return f"chunk-{seq:08d}.bin"


def _list_chunks(directory: str) -> List[Tuple[int, str]]:
    """``(seq, path)`` for every chunk file, oldest first."""
    out = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        m = _CHUNK_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    out.sort()
    return out


def _write_json_atomic(path: str, doc: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# -- delta codec ------------------------------------------------------------


def dict_delta(prev: dict, cur: dict) -> dict:
    """Recursive diff: ``{"s": <changed subtree>, "x": [<removed paths>]}``.

    Dicts diff key-by-key; everything else (scalars, lists) is replaced
    wholesale on inequality.  :func:`apply_delta` inverts it.
    """
    changed: dict = {}
    removed: List[List[str]] = []

    def _set_path(root: dict, path: List[str], value: Any) -> None:
        node = root
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value

    def walk(p: dict, c: dict, path: List[str]) -> None:
        for key, val in c.items():
            if key not in p:
                _set_path(changed, path + [key], val)
            elif isinstance(val, dict) and isinstance(p[key], dict):
                walk(p[key], val, path + [key])
            elif val != p[key]:
                _set_path(changed, path + [key], val)
        for key in p:
            if key not in c:
                removed.append(path + [key])

    walk(prev, cur, [])
    delta: dict = {}
    if changed:
        delta["s"] = changed
    if removed:
        delta["x"] = removed
    return delta


def apply_delta(base: dict, delta: dict) -> dict:
    """Reconstruct the next snapshot from ``base`` + a :func:`dict_delta`."""
    out = copy.deepcopy(base)

    def merge(dst: dict, src: dict) -> None:
        for key, val in src.items():
            if isinstance(val, dict) and isinstance(dst.get(key), dict):
                merge(dst[key], val)
            else:
                dst[key] = copy.deepcopy(val)

    merge(out, delta.get("s", {}))
    for path in delta.get("x", []):
        node: Any = out
        for key in path[:-1]:
            if not isinstance(node, dict):
                node = None
                break
            node = node.get(key)
        if isinstance(node, dict):
            node.pop(path[-1], None)
    return out


# -- chunk writer -----------------------------------------------------------


class _RingWriter:
    """Append-only writer over the chunk ring.  Not thread-safe; the
    recorder serialises access under its own lock."""

    def __init__(self, directory: str,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        self.directory = directory
        self.max_bytes = int(max_bytes)
        self.chunk_records = int(chunk_records)
        os.makedirs(directory, exist_ok=True)
        existing = _list_chunks(directory)
        # A new writer always opens a fresh chunk: its first snapshot is a
        # keyframe, so records from a previous process never chain into us.
        self._seq = (existing[-1][0] + 1) if existing else 0
        self._fd: Optional[int] = None
        self._chunk_records = 0
        self._chunk_bytes = 0
        self._chunk_has_keyframe = False
        self.records_written = 0
        self.bytes_written = 0

    # A snapshot must be written as a FULL keyframe whenever it would land
    # at the start of a chunk (fresh writer, rotation due) — the decoder
    # relies on every chunk being self-contained.
    def needs_keyframe(self) -> bool:
        return self._fd is None or not self._chunk_has_keyframe or (
            self._chunk_records >= self.chunk_records
            or self._chunk_bytes >= MAX_CHUNK_BYTES)

    def _rotate(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
        path = os.path.join(self.directory, _chunk_name(self._seq))
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._seq += 1
        self._chunk_records = 0
        self._chunk_bytes = 0
        self._chunk_has_keyframe = False
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        chunks = _list_chunks(self.directory)
        if len(chunks) <= 1:
            return
        sizes = {path: os.path.getsize(path) for _, path in chunks}
        total = sum(sizes.values())
        # Never delete the newest chunk (the one we are writing).
        for _, path in chunks[:-1]:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
                total -= sizes[path]
            except OSError:
                break

    def append(self, kind: int, payload_obj: Any,
               ts: Optional[float] = None) -> int:
        """Frame, compress, checksum, and append one record.

        Snapshot records (FULL/DELTA) trigger rotation when the current
        chunk is over budget; EVENT records never rotate so a stall dump
        cannot strand a follow-up delta in a keyframe-less chunk.
        """
        raw = json.dumps(payload_obj, separators=(",", ":"),
                         default=str).encode("utf-8")
        comp = zlib.compress(raw, 6)
        crc = zlib.crc32(comp) & 0xFFFFFFFF
        record = _HEADER.pack(_MAGIC, kind, 0, ts if ts is not None
                              else time.time(), len(comp), crc) + comp
        if self._fd is None or (kind != KIND_EVENT and (
                self._chunk_records >= self.chunk_records
                or self._chunk_bytes >= MAX_CHUNK_BYTES)):
            self._rotate()
        os.write(self._fd, record)
        if kind == KIND_FULL:
            self._chunk_has_keyframe = True
        self._chunk_records += 1
        self._chunk_bytes += len(record)
        self.records_written += 1
        self.bytes_written += len(record)
        return len(record)

    def flush(self) -> None:
        if self._fd is not None:
            try:
                os.fsync(self._fd)
            except OSError:
                pass

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


# -- decoder ----------------------------------------------------------------


def _iter_chunk_records(path: str, warnings: List[str]):
    """Yield ``(kind, ts, payload)`` from one chunk, stopping (with a
    warning) at the first torn or corrupt record — the delta chain past a
    bad record is unrecoverable, but the *next* chunk starts with a
    keyframe, so the caller just moves on."""
    name = os.path.basename(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        warnings.append(f"{name}: unreadable ({exc})")
        return
    offset = 0
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            warnings.append(
                f"{name}: truncated record header at offset {offset}")
            return
        magic, kind, _flags, ts, length, crc = _HEADER.unpack_from(
            data, offset)
        if magic != _MAGIC:
            warnings.append(
                f"{name}: bad magic at offset {offset}; "
                f"skipping rest of chunk")
            return
        start = offset + _HEADER.size
        if len(data) - start < length:
            warnings.append(
                f"{name}: truncated record payload at offset {offset} "
                f"(want {length}, have {len(data) - start})")
            return
        comp = data[start:start + length]
        if zlib.crc32(comp) & 0xFFFFFFFF != crc:
            warnings.append(
                f"{name}: CRC mismatch at offset {offset}; "
                f"skipping rest of chunk")
            return
        try:
            payload = json.loads(zlib.decompress(comp).decode("utf-8"))
        except (zlib.error, ValueError) as exc:
            warnings.append(
                f"{name}: undecodable payload at offset {offset} ({exc}); "
                f"skipping rest of chunk")
            return
        yield kind, ts, payload
        offset = start + length


def decode_ring(directory: str, since: Optional[float] = None,
                until: Optional[float] = None) -> dict:
    """Decode the whole ring into reconstructed snapshots + events.

    Returns ``{"snapshots", "events", "warnings", "chunks", "records"}``.
    ``since``/``until`` filter what is *returned*; the delta chain is
    always applied in full so a filtered window is still correct.
    """
    snapshots: List[dict] = []
    events: List[dict] = []
    warnings: List[str] = []
    chunks = _list_chunks(directory)
    records = 0

    def in_range(ts: float) -> bool:
        if since is not None and ts < since:
            return False
        if until is not None and ts > until:
            return False
        return True

    for seq, path in chunks:
        base: Optional[dict] = None  # keyframes reset the chain per chunk
        for kind, ts, payload in _iter_chunk_records(path, warnings):
            records += 1
            if kind == KIND_EVENT:
                event = dict(payload) if isinstance(payload, dict) else {
                    "data": payload}
                event.setdefault("ts", ts)
                if in_range(event["ts"]):
                    events.append(event)
            elif kind == KIND_FULL:
                base = payload
                if in_range(ts):
                    snapshots.append(payload)
            elif kind == KIND_DELTA:
                if base is None:
                    warnings.append(
                        f"{os.path.basename(path)}: delta before any "
                        f"keyframe; record skipped")
                    continue
                base = apply_delta(base, payload)
                if in_range(ts):
                    snapshots.append(base)
            else:
                warnings.append(
                    f"{os.path.basename(path)}: unknown record kind {kind}")
    return {"snapshots": snapshots, "events": events, "warnings": warnings,
            "chunks": len(chunks), "records": records}


# -- window analytics -------------------------------------------------------


def _flatten(doc: Any, prefix: str = "", out: Optional[Dict[str, float]] = None
             ) -> Dict[str, float]:
    """Numeric leaves of a nested dict as ``a.b.c -> value``."""
    if out is None:
        out = {}
    if isinstance(doc, dict):
        for key, val in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(val, dict):
                _flatten(val, path, out)
            elif isinstance(val, bool):
                continue
            elif isinstance(val, (int, float)):
                out[path] = float(val)
    return out


def diff_window(snapshots: List[dict], t0: Optional[float] = None,
                t1: Optional[float] = None) -> dict:
    """Numeric-leaf deltas between the first and last snapshot in range.

    ``{"first_ts", "last_ts", "snapshots", "deltas": {path: {"from",
    "to", "delta"}}}`` — only changed leaves are reported.
    """
    window = [s for s in snapshots
              if (t0 is None or s.get("ts", 0) >= t0)
              and (t1 is None or s.get("ts", 0) <= t1)]
    if len(window) < 2:
        return {"snapshots": len(window), "deltas": {}}
    first, last = _flatten(window[0]), _flatten(window[-1])
    deltas = {}
    for path, after in last.items():
        before = first.get(path)
        if before is not None and after != before:
            deltas[path] = {"from": before, "to": after,
                            "delta": after - before}
    return {
        "first_ts": window[0].get("ts"),
        "last_ts": window[-1].get("ts"),
        "snapshots": len(window),
        "deltas": deltas,
    }


def metric_points(snapshots: List[dict], name: str) -> List[dict]:
    """One metric's history, ``[{"ts", "series", "value"}]`` in snapshot
    order: counter deltas, gauge values, and histogram quantiles as
    ``name{k=v}.p95``-style series."""
    prefix = name + "{"
    return [{"ts": snap.get("ts"), "series": series, "value": value}
            for snap in snapshots
            for series, value in _flatten(snap.get("metrics") or {}).items()
            if series.startswith(prefix)]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def scan_anomalies(snapshots: List[dict],
                   threshold: float = 6.0) -> List[dict]:
    """MAD-z-score outlier scan over every flattened numeric series.

    The modified z-score ``0.6745 * (x - median) / MAD`` is robust to the
    outliers it hunts (unlike stddev, which an outlier inflates).  Series
    that are monotonically non-decreasing (cumulative counters) are
    first-differenced so a burst shows up as a rate spike rather than
    every post-burst point scoring high.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for snap in snapshots:
        ts = float(snap.get("ts", 0.0))
        for path, value in _flatten(snap).items():
            if path in ("ts", "seq"):
                continue
            series.setdefault(path, []).append((ts, value))

    findings: List[dict] = []
    for path, points in series.items():
        if len(points) < ANOMALY_MIN_POINTS:
            continue
        values = [v for _, v in points]
        monotonic = all(b >= a for a, b in zip(values, values[1:]))
        if monotonic and values[-1] > values[0]:
            points = [(points[i + 1][0], values[i + 1] - values[i])
                      for i in range(len(values) - 1)]
            values = [v for _, v in points]
        if len(values) < ANOMALY_MIN_POINTS or len(set(values)) == 1:
            continue
        med = _median(values)
        mad = _median([abs(v - med) for v in values])
        if mad == 0.0:
            # e.g. [0,0,0,0,50]: MAD collapses but the spike is real —
            # fall back to the mean absolute deviation as the scale.
            mad = sum(abs(v - med) for v in values) / len(values)
            if mad == 0.0:
                continue
        for (ts, value) in points:
            z = 0.6745 * (value - med) / mad
            if abs(z) >= threshold:
                findings.append({"series": path, "ts": ts, "value": value,
                                 "median": med, "z": round(z, 2)})
    findings.sort(key=lambda f: -abs(f["z"]))
    return findings[:ANOMALY_LIMIT]


# -- the recorder -----------------------------------------------------------


class FlightRecorder(TaskDaemon):
    """Background diagnostic snapshotter over an append-only chunk ring.

    ``store`` may be ``None`` (metrics + process stats only) — the
    recorder must keep working even when there is nothing left to ask.
    Every snapshot section is captured under its own try/except for the
    same reason: a wedged ``server_status()`` must not stop process-level
    recording (and ``server_status`` itself only takes short-held
    mutexes, never the per-collection RWLocks, so in practice it survives
    a write-wedged collection).

    The snapshots' ``metrics`` sections are the process's only metrics
    history (``repro telemetry trends`` reads them via
    :func:`metric_points`).
    """

    def __init__(self, store: Any, directory: str,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 registry: Any = None,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS,
                 clock: Any = None):
        if interval_s <= 0:
            raise ValueError(
                f"interval must be positive, got {interval_s!r}")
        self.store = store
        self.directory = directory
        self._task = PeriodicTask("repro-flight", interval_s, self.capture,
                                  clock)
        self._registry = registry
        self._writer = _RingWriter(directory, max_bytes=max_bytes,
                                   chunk_records=chunk_records)
        self._lock = threading.Lock()
        self._prev_snapshot: Optional[dict] = None
        self._prev_counters: Dict[str, float] = {}
        self._recent: deque = deque(maxlen=RECENT_SNAPSHOTS)
        self._recent_events: deque = deque(maxlen=64)
        self._seq = 0
        self._errors = 0
        self._started_at: Optional[float] = None
        self._atexit_registered = False

    # -- snapshot capture -------------------------------------------------

    def _registry_or_default(self):
        return self._registry if self._registry is not None else get_registry()

    def _metrics(self) -> Dict[str, Any]:
        """The registry keyed ``name{k=v}``: counters as per-tick deltas
        (idle ones omitted), gauges as values, histograms as
        ``{"p50", "p95", "p99"}``."""
        out: Dict[str, Any] = {}
        counters: Dict[str, float] = {}
        for metric in self._registry_or_default().collect():
            kind = metric["kind"]
            for row in metric["series"]:
                key = f"{metric['name']}{{{labels_key(row['labels'])}}}"
                if kind == "counter":
                    counters[key] = row["value"]
                    delta = row["value"] - self._prev_counters.get(key, 0.0)
                    if delta:
                        out[key] = delta
                elif kind == "histogram":
                    out[key] = {q: row[q] for q in ("p50", "p95", "p99")}
                else:
                    out[key] = row["value"]
        self._prev_counters = counters
        return out

    def capture(self, now: Optional[float] = None) -> dict:
        """Take one snapshot and append it to the ring (thread-safe).

        Public so tests, the tour, and ``repro diagnose`` surfaces can
        drive the recorder deterministically without the daemon.
        """
        ts = time.time() if now is None else now
        with self._lock:
            self._seq += 1
            snap: Dict[str, Any] = {"v": 1, "seq": self._seq, "ts": ts}
            if self.store is not None:
                try:
                    status = self.store.server_status()
                    # process stats live at the snapshot top level; keep
                    # one copy rather than duplicating inside "server".
                    snap["process"] = status.pop("process", None)
                    snap["server"] = status
                except Exception as exc:
                    self._errors += 1
                    snap["server_error"] = repr(exc)
            if snap.get("process") is None:
                try:
                    snap["process"] = process_status()
                except Exception as exc:
                    self._errors += 1
                    snap["process_error"] = repr(exc)
            try:
                snap["metrics"] = self._metrics()
            except Exception as exc:
                self._errors += 1
                snap["metrics_error"] = repr(exc)
            if self._writer.needs_keyframe() or self._prev_snapshot is None:
                self._writer.append(KIND_FULL, snap, ts=ts)
            else:
                self._writer.append(
                    KIND_DELTA, dict_delta(self._prev_snapshot, snap), ts=ts)
            self._prev_snapshot = snap
            self._recent.append(snap)
        return snap

    def record_event(self, event_type: str,
                     data: Optional[dict] = None) -> dict:
        """Append an out-of-band EVENT record (stall, shutdown, crash) and
        fsync it."""
        event = {"type": event_type, "ts": time.time()}
        if data:
            event.update(data)
        with self._lock:
            self._writer.append(KIND_EVENT, event, ts=event["ts"])
            self._writer.flush()
            self._recent_events.append(event)
        return event

    def flush(self) -> None:
        with self._lock:
            self._writer.flush()

    # -- lifecycle --------------------------------------------------------

    def _session_path(self) -> str:
        return os.path.join(self.directory, SESSION_FILE)

    def _write_session(self, clean: bool) -> None:
        doc = {"pid": os.getpid(), "started_at": self._started_at,
               "interval_s": self.interval_s, "clean": clean}
        if clean:
            doc["stopped_at"] = time.time()
        try:
            _write_json_atomic(self._session_path(), doc)
        except OSError:
            pass

    def start(self) -> "FlightRecorder":
        """Start the capture daemon and mark the session dirty (idempotent).

        The ``session.json`` marker stays ``clean: false`` until
        :meth:`stop` (or the atexit hook) flips it — an ``os._exit`` or
        SIGKILL leaves it dirty, which is how the next startup knows to
        build a crash report.
        """
        if self.running:
            return self
        self._started_at = time.time()
        self._write_session(clean=False)
        if not self._atexit_registered:
            atexit.register(self._atexit_stop)
            self._atexit_registered = True
        self._task.start()
        return self

    def _atexit_stop(self) -> None:
        try:
            if self.running:
                self.stop()
        except Exception:
            pass

    def stop(self) -> dict:
        """Stop the daemon, write a shutdown event, mark the session clean."""
        self._task.stop()
        self.record_event("shutdown", {"seq": self._seq})
        self._write_session(clean=True)
        with self._lock:
            self._writer.close()
        return self.status()

    def status(self) -> dict:
        with self._lock:
            return {
                "running": self.running,
                "directory": self.directory,
                "interval_s": self.interval_s,
                "snapshots": self._seq,
                "records_written": self._writer.records_written,
                "bytes_written": self._writer.bytes_written,
                "chunks": len(_list_chunks(self.directory)),
                "errors": self._errors + self._task.errors,
                "started_at": self._started_at,
                "recent": len(self._recent),
            }

    def recent(self, n: int = 0) -> List[dict]:
        """The last ``n`` in-memory snapshots (all if ``n`` <= 0)."""
        with self._lock:
            items = list(self._recent)
        return items[-n:] if n > 0 else items

    def recent_events(self, n: int = 0) -> List[dict]:
        with self._lock:
            items = list(self._recent_events)
        return items[-n:] if n > 0 else items


# -- stall watchdog ---------------------------------------------------------


_STACK_THREAD_RE = re.compile(r"^(Current thread|Thread) (0x[0-9a-f]+)")
_STACK_FRAME_RE = re.compile(r'^  File "(.*)", line \S+ in (.*)$', re.M)


def dump_all_stacks() -> List[dict]:
    """Every other thread's stack as ``{"thread", "stack"}`` rows, folded
    ``outer;inner;leaf`` like the sampling profiler's.

    Parsed from :func:`faulthandler.dump_traceback`, which reads each
    thread's interpreter frames in C with the GIL held and builds no frame
    objects, so a dump carries neither the CPython 3.11 hang risk of
    ``sys._current_frames()`` nor the crash risk of walking ``f_back``
    under thread churn.
    """
    names = {t.ident: t.name for t in threading.enumerate()}
    with tempfile.TemporaryFile() as f:
        faulthandler.dump_traceback(f, all_threads=True)
        f.seek(0)
        text = f.read().decode("utf-8", "replace")
    rows = []
    for block in text.split("\n\n"):  # one block per thread, innermost first
        head = _STACK_THREAD_RE.match(block)
        if head is None or head.group(1) == "Current thread":
            continue
        frames = [f"{os.path.splitext(os.path.basename(path))[0]}:{func}"
                  for path, func in _STACK_FRAME_RE.findall(block)]
        rows.append({"thread": names.get(int(head.group(2), 16), head.group(2)),
                     "stack": ";".join(reversed(frames[:MAX_DEPTH]))})
    return rows[:MAX_STACK_THREADS]


class StallWatchdog(TaskDaemon):
    """Liveness prober that lives *outside* the paths it watches.

    Three probes per tick:

    * ``lock:<db>.<coll>`` — a zero-timeout ``try_acquire_read`` on each
      collection's RWLock.  Writer preference makes a momentary failure
      normal; only a probe failing *continuously* past
      ``stall_timeout_s`` counts as a stall.
    * ``journal`` — the committer thread's heartbeat age while records
      are pending: a wedged ``fsync`` shows up as a growing backlog under
      a stale heartbeat.
    * ``op`` — the oldest op in the store's ``current_op()`` table, which
      lists reads and writes from the wire server and HTTP alike.  It is
      skipped while the journal probe fails.

    On a stall: all-thread stack dump, EVENT record + ring flush, and the
    ``repro_flight_stalls_total`` counter; :meth:`FlightRecorder.recent_events`
    serves it.  Nothing goes into the store, whose journal may be the
    thing that is wedged.  Each probe fires once per episode and re-arms
    when it recovers.
    """

    def __init__(self, recorder: Optional[FlightRecorder],
                 store: Any = None,
                 interval_s: float = 1.0,
                 stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
                 clock: Any = None):
        self.recorder = recorder
        self.store = store
        self._clock = clock
        self._task = PeriodicTask("repro-flight-watchdog", interval_s,
                                  self.check_once, clock)
        self.stall_timeout_s = float(stall_timeout_s)
        self.stalls_detected = 0
        self._failing_since: Dict[str, float] = {}
        self._stalled: Dict[str, bool] = {}

    # -- probes -----------------------------------------------------------

    def _iter_locks(self):
        store = self.store
        if store is None:
            return
        count = 0
        try:
            db_names = store.list_database_names()
        except Exception:
            return
        for db_name in db_names:
            try:
                db = store.get_database(db_name)
                coll_names = db.list_collection_names()
            except Exception:
                continue
            for coll_name in coll_names:
                if count >= MAX_PROBED_COLLECTIONS:
                    return
                try:
                    coll = db.get_collection(coll_name)
                except Exception:
                    continue
                count += 1
                yield f"lock:{db_name}.{coll_name}", coll._lock

    def check_once(self, now: Optional[float] = None) -> List[dict]:
        """Run every probe once; returns the stall events fired (if any).

        Public so tests and the tour can drive detection deterministically
        without the daemon thread.
        """
        if now is None:
            now = (time.monotonic() if self._clock is None
                   else self._clock.now)
        failing: Dict[str, str] = {}

        for probe, lock in self._iter_locks():
            ok = False
            try:
                if lock.try_acquire_read(timeout=0.0):
                    lock.release_read()
                    ok = True
            except Exception:
                ok = True  # a broken probe is not a stalled engine
            if not ok:
                failing[probe] = "read probe cannot acquire the RWLock"

        store = self.store
        if store is not None:
            try:
                journal = store.server_status().get("journal")
            except Exception:
                journal = None
            if journal:
                age = journal.get("heartbeat_age_s")
                if (journal.get("pending", 0) > 0 and age is not None
                        and age >= self.stall_timeout_s):
                    failing["journal"] = (
                        f"{journal['pending']} records pending, committer "
                        f"heartbeat {age:.1f}s old")

            # Writes parked behind a wedged journal are its symptom: the
            # journal event already names the cause, so only look at ops
            # while the journal is healthy.
            try:
                oldest = (None if "journal" in failing
                          else next(iter(store.current_op()), None))
            except Exception:
                oldest = None
            if (oldest is not None
                    and oldest["elapsed_ms"] >= self.stall_timeout_s * 1e3):
                failing["op"] = (
                    f"opid {oldest['opid']} ({oldest['op']} on "
                    f"{oldest['ns']}) running for "
                    f"{oldest['elapsed_ms'] / 1e3:.1f}s")

        events: List[dict] = []
        for probe, detail in failing.items():
            if probe == "journal" or probe == "op":
                # These probes embed their own age measurement; the lock
                # probe needs sustained failure tracked here.
                elapsed = self.stall_timeout_s
            else:
                elapsed = now - self._failing_since.setdefault(probe, now)
            if elapsed >= self.stall_timeout_s and not self._stalled.get(probe):
                self._stalled[probe] = True
                events.append(self._fire(probe, detail))
        for probe in list(self._failing_since):
            if probe not in failing:
                self._failing_since.pop(probe, None)
                self._stalled.pop(probe, None)
        for probe in ("journal", "op"):
            if probe not in failing:
                self._stalled.pop(probe, None)
        return events

    def _fire(self, probe: str, detail: str) -> dict:
        self.stalls_detected += 1
        event = {
            "probe": probe,
            "detail": detail,
            "stall_timeout_s": self.stall_timeout_s,
            "stacks": dump_all_stacks(),
        }
        try:
            get_registry().counter(
                "repro_flight_stalls_total",
                "stalls detected by the flight watchdog",
            ).inc(1, probe=probe.split(":", 1)[0])
        except Exception:
            pass
        if self.recorder is not None:
            try:
                self.recorder.record_event("stall", event)
            except Exception:
                pass
        return event


# -- crash forensics --------------------------------------------------------

_faulthandler_file = None  # keep the fd alive for the process lifetime


def enable_fault_handler(directory: str) -> Optional[str]:
    """Point :mod:`faulthandler` at a log inside the ring directory.

    Native-level hangs and SIGSEGV then leave stack evidence next to the
    ring even when no Python-level watchdog ever got to run.  Returns the
    log path, or ``None`` if faulthandler is unavailable.
    """
    global _faulthandler_file
    try:
        import faulthandler
    except ImportError:  # pragma: no cover - stdlib since 3.3
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, FAULTHANDLER_FILE)
    fh = open(path, "a", encoding="utf-8")
    faulthandler.enable(file=fh)
    _faulthandler_file = fh
    return path


def detect_unclean_shutdown(directory: str) -> Optional[dict]:
    """The previous session's dirty marker, or ``None`` if it shut down
    cleanly (or never ran, or *is* the current process)."""
    marker = _read_json(os.path.join(directory, SESSION_FILE))
    if not marker or marker.get("clean"):
        return None
    if marker.get("pid") == os.getpid():
        return None
    return marker


def build_crash_report(directory: str, window_s: float = 30.0,
                       journal_recovery: Optional[dict] = None) -> dict:
    """Reconstruct the last pre-crash window **from the ring alone**.

    This function never opens the docstore — it reads chunk files, the
    session marker, and the faulthandler log.  ``journal_recovery`` is
    the store's ``last_recovery`` report when the caller happens to have
    one (``repro serve`` at startup); ``repro diagnose --crash`` instead
    relies on the journal state embedded in the final snapshots.
    """
    decoded = decode_ring(directory)
    snaps = decoded["snapshots"]
    report: Dict[str, Any] = {
        "flight_dir": directory,
        "window_s": window_s,
        "session": _read_json(os.path.join(directory, SESSION_FILE)),
        "chunks": decoded["chunks"],
        "snapshots_total": len(snaps),
        "decode_warnings": decoded["warnings"],
        "journal_recovery": journal_recovery,
    }
    if snaps:
        end = snaps[-1].get("ts", 0.0)
        window = [s for s in snaps if s.get("ts", 0.0) >= end - window_s]
        final = window[-1]
        server = final.get("server") or {}
        report["last_snapshot_ts"] = end
        report["snapshots_in_window"] = len(window)
        report["final"] = {
            "ts": final.get("ts"),
            "seq": final.get("seq"),
            "opcounters": server.get("opcounters"),
            "locks": server.get("locks"),
            "journal": server.get("journal"),
            "process": final.get("process"),
        }
        report["window_delta"] = diff_window(window)
        report["anomalies"] = scan_anomalies(window)
        report["events"] = [e for e in decoded["events"]
                            if e.get("ts", 0.0) >= end - window_s]
    else:
        report["events"] = decoded["events"]
    fault_path = os.path.join(directory, FAULTHANDLER_FILE)
    try:
        with open(fault_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.readlines()[-40:]
        if tail:
            report["faulthandler_tail"] = [line.rstrip("\n") for line in tail]
    except OSError:
        pass
    return report


def generate_crash_report(directory: str,
                          journal_recovery: Optional[dict] = None,
                          window_s: float = 30.0) -> Optional[dict]:
    """Startup-time forensics: if the previous session died unclean,
    write ``crash_report.json`` and acknowledge the marker.

    Returns the report (also when one already exists for this marker),
    or ``None`` when the previous shutdown was clean.
    """
    marker = detect_unclean_shutdown(directory)
    if marker is None:
        return None
    report = build_crash_report(directory, window_s=window_s,
                                journal_recovery=journal_recovery)
    report["generated_at"] = time.time()
    report["session"] = marker
    try:
        _write_json_atomic(
            os.path.join(directory, CRASH_REPORT_FILE), report)
        # Acknowledge so the *next* startup doesn't re-report the same
        # death; the report file itself persists until overwritten.
        marker = dict(marker)
        marker["clean"] = True
        marker["crash_reported_at"] = report["generated_at"]
        _write_json_atomic(os.path.join(directory, SESSION_FILE), marker)
    except OSError:
        pass
    return report


def read_crash_report(directory: str) -> Optional[dict]:
    """The persisted ``crash_report.json``, or ``None``."""
    return _read_json(os.path.join(directory, CRASH_REPORT_FILE))


# -- the process-global recorder -------------------------------------------
#
# Mirrors the profiler's global: the wire `flight` op, GET /debug/flight,
# and the CLI all observe the one recorder `repro serve` started, without
# plumbing the instance through every constructor.

_global_lock = threading.Lock()
_global_recorder: Optional[FlightRecorder] = None


def get_flight_recorder() -> Optional[FlightRecorder]:
    """The process-global flight recorder, or ``None`` if never started."""
    return _global_recorder


def set_flight_recorder(recorder: Optional[FlightRecorder]
                        ) -> Optional[FlightRecorder]:
    """Swap the process-global recorder (returns the previous one)."""
    global _global_recorder
    with _global_lock:
        previous = _global_recorder
        _global_recorder = recorder
    return previous


def start_flight_recorder(store: Any, directory: str,
                          interval_s: float = DEFAULT_INTERVAL_S,
                          **kwargs: Any) -> FlightRecorder:
    """Start (or return) the process-global flight recorder.

    A fresh call while one is already running returns the running
    instance unchanged; stop it first to change the cadence or directory.
    """
    global _global_recorder
    with _global_lock:
        recorder = _global_recorder
        if recorder is not None and recorder.running:
            return recorder
        recorder = FlightRecorder(store, directory, interval_s=interval_s,
                                  **kwargs)
        _global_recorder = recorder
    return recorder.start()


def stop_flight_recorder() -> Optional[dict]:
    """Stop the process-global recorder; returns its final status."""
    with _global_lock:
        recorder = _global_recorder
    if recorder is None:
        return None
    return recorder.stop()
