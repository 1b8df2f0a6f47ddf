"""Continuous wall-clock sampling profiler.

The paper's single deployment served the FireWorks queue, the builders,
and the public Materials API *simultaneously* (§IV-A) — so the
operational question is "what is the server spending its time on right
now?".  Metrics answer *how much*, traces answer *which request*; this
module answers *where in the code*.

A :class:`SamplingProfiler` runs a daemon thread that snapshots every
thread's stack via ``sys._current_frames()`` at a configurable rate
(default 100 Hz) and folds each stack into the flamegraph-standard
``outer;inner;leaf`` form, counting samples per distinct stack.  Because
it samples wall-clock state rather than tracing calls, overhead is
bounded by ``hz * cost_of_one_pass`` regardless of how hot the profiled
code is — at 100 Hz a pass over a dozen threads costs tens of
microseconds, well under 1% of one core.

Memory is bounded the same way the metrics registry bounds label
cardinality: at most ``max_stacks`` distinct folded stacks are kept and
further novel stacks collapse into the ``__other__`` bucket (the
``truncated`` count in snapshots says how many samples landed there).

Lifecycle is start/stop/snapshot; the module also keeps one
process-global profiler so the wire server, httpd ``/debug`` endpoints
and CLI all observe the same instance.  Nothing persists a snapshot:
flamegraphs live as long as the process.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..background import PeriodicTask, TaskDaemon

__all__ = [
    "SamplingProfiler",
    "current_frames",
    "get_profiler",
    "profile_action",
    "start_profiler",
    "stop_profiler",
    "DEFAULT_HZ",
    "MAX_STACKS",
    "OVERFLOW_STACK",
]

#: Default sampling rate.  100 Hz resolves anything that takes >10 ms of
#: wall time while keeping the sampler's own CPU share well under 1%.
DEFAULT_HZ = 100.0

#: Distinct folded stacks kept before novel stacks collapse into
#: :data:`OVERFLOW_STACK` — mirrors ``MAX_LABEL_SETS`` in
#: :mod:`repro.obs.metrics`.
MAX_STACKS = 512

#: Bucket that absorbs samples once :data:`MAX_STACKS` is reached.
OVERFLOW_STACK = "__other__"

#: Frames kept per stack (outermost frames beyond this are dropped so one
#: deeply recursive thread cannot produce megabyte folded lines).
MAX_DEPTH = 64


# Code objects are immutable and long-lived, so their labels are computed
# once and cached — the sampling pass holds the GIL while it walks frames,
# and shaving the per-frame string work directly shrinks the pause each
# pass injects into whatever thread it interrupts.
_label_cache: Dict[Any, str] = {}


def _frame_label(frame: Any) -> str:
    """``file:function`` label for one frame, short enough to fold."""
    code = frame.f_code
    label = _label_cache.get(code)
    if label is None:
        base = os.path.basename(code.co_filename)
        if base.endswith(".py"):
            base = base[:-3]
        label = f"{base}:{code.co_name}"
        if len(_label_cache) < 65536:  # bound pathological code churn
            _label_cache[code] = label
    return label


_frames_lock = threading.Lock()


def current_frames() -> Dict[int, Any]:
    """``sys._current_frames()`` with the garbage collector paused.

    CPython 3.11 walks the thread list with the runtime's head lock held
    and allocates a frame object per thread; an allocation there can start
    a collection whose finalizers run Python code and hand the GIL to a
    thread that is starting or exiting, which then blocks on the head lock
    while holding the GIL and hangs the process.  Every caller in the
    package goes through here; the lock keeps two callers from
    re-enabling the collector under each other.
    """
    with _frames_lock:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return sys._current_frames()
        finally:
            if enabled:
                gc.enable()


def fold_stack(frame: Any, max_depth: int = MAX_DEPTH) -> str:
    """Fold a frame chain into ``outer;inner;leaf`` flamegraph form."""
    labels: List[str] = []
    while frame is not None and len(labels) < max_depth:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return ";".join(labels)


class SamplingProfiler(TaskDaemon):
    """Wall-clock stack sampler with bounded folded-stack aggregation."""

    def __init__(self, hz: float = DEFAULT_HZ, max_stacks: int = MAX_STACKS,
                 max_depth: int = MAX_DEPTH):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = float(hz)
        self.max_stacks = int(max_stacks)
        self.max_depth = int(max_depth)
        self._lock = threading.Lock()
        self._stacks: Dict[str, int] = {}
        self._samples = 0
        self._passes = 0
        self._truncated = 0
        self._threads_seen = 0
        self._overhead_s = 0.0
        self._active_s = 0.0
        self._started_at: Optional[float] = None
        self._started_wall: Optional[float] = None
        self._task = PeriodicTask("repro-profiler", 1.0 / self.hz,
                                  self.sample_once)

    # -- sampling ---------------------------------------------------------

    def _ingest(self, stack: str, count: int = 1) -> None:
        """Record ``count`` samples of one folded stack (caller holds no
        locks); novel stacks beyond ``max_stacks`` land in ``__other__``."""
        with self._lock:
            if stack not in self._stacks and len(self._stacks) >= self.max_stacks:
                self._truncated += count
                stack = OVERFLOW_STACK
            self._stacks[stack] = self._stacks.get(stack, 0) + count
            self._samples += count

    def sample_once(self) -> int:
        """Take one sampling pass over every live thread's stack.

        Public so tests (and the tour) can sample deterministically
        without running the daemon.  Skips the calling thread — the
        sampler should never profile itself.  Returns threads sampled.
        """
        t0 = time.perf_counter()
        me = threading.get_ident()
        frames = current_frames()
        sampled = 0
        for ident, frame in frames.items():
            if ident == me:
                continue
            self._ingest(fold_stack(frame, self.max_depth))
            sampled += 1
        with self._lock:
            self._passes += 1
            self._threads_seen = sampled
            self._overhead_s += time.perf_counter() - t0
        return sampled

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Start the sampling daemon (idempotent)."""
        with self._lock:
            if not self.running:
                self._started_at = time.perf_counter()
                self._started_wall = time.time()
        self._task.start()
        return self

    def stop(self) -> dict:
        """Stop sampling and return a final :meth:`snapshot`.

        The aggregated stacks survive the stop, so a stopped profiler can
        still be snapshotted/rendered until :meth:`reset` or restart.
        """
        self._task.stop()
        with self._lock:
            if self._started_at is not None:
                self._active_s += time.perf_counter() - self._started_at
                self._started_at = None
        return self.snapshot()

    def reset(self) -> None:
        """Drop every aggregated sample (the daemon keeps running)."""
        with self._lock:
            self._stacks.clear()
            self._samples = 0
            self._passes = 0
            self._truncated = 0
            self._overhead_s = 0.0
            self._active_s = 0.0
            if self._started_at is not None:
                self._started_at = time.perf_counter()

    # -- reporting --------------------------------------------------------

    def _duration_s(self) -> float:
        active = self._active_s
        if self._started_at is not None:
            active += time.perf_counter() - self._started_at
        return active

    def folded(self, limit: int = 0) -> List[str]:
        """Flamegraph-ready ``stack count`` lines, hottest first.

        Feed straight to ``flamegraph.pl`` / speedscope: one line per
        distinct stack, frames joined by ``;``, sample count last.
        """
        with self._lock:
            items = sorted(self._stacks.items(),
                           key=lambda kv: (-kv[1], kv[0]))
        if limit:
            items = items[:limit]
        return [f"{stack} {count}" for stack, count in items]

    def top_functions(self, limit: int = 10) -> List[Tuple[str, int]]:
        """Leaf frames ranked by self-sample count."""
        totals: Dict[str, int] = {}
        with self._lock:
            for stack, count in self._stacks.items():
                leaf = stack.rsplit(";", 1)[-1]
                totals[leaf] = totals.get(leaf, 0) + count
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]

    def snapshot(self, limit: int = 0) -> dict:
        """Aggregated profile state as one JSON-friendly document."""
        with self._lock:
            duration = self._duration_s()
            out = {
                "running": self.running,
                "hz": self.hz,
                "samples": self._samples,
                "passes": self._passes,
                "threads": self._threads_seen,
                "distinct_stacks": len(self._stacks),
                "truncated": self._truncated,
                "max_stacks": self.max_stacks,
                "duration_s": duration,
                "started_at": self._started_wall,
                "overhead_ms": self._overhead_s * 1e3,
                "achieved_hz": (self._passes / duration) if duration > 0 else 0.0,
            }
        out["stacks"] = [
            {"stack": line.rsplit(" ", 1)[0],
             "count": int(line.rsplit(" ", 1)[1])}
            for line in self.folded(limit=limit)
        ]
        out["top"] = [
            {"function": fn, "count": count}
            for fn, count in self.top_functions()
        ]
        return out


# -- the process-global profiler ------------------------------------------
#
# The wire server, httpd /debug endpoints and CLI all talk to
# one shared instance, so "start profiling over the wire, pull the
# flamegraph over HTTP" works without plumbing an object through every
# constructor.

_global_lock = threading.Lock()
_global_profiler: Optional[SamplingProfiler] = None


def get_profiler() -> Optional[SamplingProfiler]:
    """The process-global profiler, or ``None`` if never started."""
    return _global_profiler


def start_profiler(hz: float = DEFAULT_HZ,
                   max_stacks: int = MAX_STACKS) -> SamplingProfiler:
    """Start (or return) the process-global sampling profiler.

    A fresh call while one is already running returns the running
    instance unchanged; stop it first to change the rate.
    """
    global _global_profiler
    with _global_lock:
        profiler = _global_profiler
        if profiler is not None and profiler.running:
            return profiler
        profiler = SamplingProfiler(hz=hz, max_stacks=max_stacks)
        _global_profiler = profiler
    return profiler.start()


def stop_profiler() -> Optional[dict]:
    """Stop the process-global profiler; returns its final snapshot."""
    with _global_lock:
        profiler = _global_profiler
    if profiler is None:
        return None
    return profiler.stop()


def profile_action(action: str = "snapshot", hz: Optional[float] = None,
                   limit: int = 0) -> Any:
    """Drive the process-global profiler: the ``profile`` wire op,
    ``GET /debug/profile|flamegraph`` and ``repro profile`` all call this.

    ``start`` samples at ``hz`` (default :data:`DEFAULT_HZ`) and reports
    ``already_running`` — a profiler someone else started is left as is;
    ``stop`` returns the final snapshot; ``reset`` drops the samples;
    ``snapshot`` (``limit`` bounds the stack list) and ``flame`` (folded
    ``stack count`` lines) read it.  Other actions raise ``ValueError``.
    """
    if action == "start":
        existing = _global_profiler
        already = existing is not None and existing.running
        profiler = start_profiler(hz=hz or DEFAULT_HZ)
        return {"running": True, "hz": profiler.hz, "already_running": already}
    if action == "stop":
        return stop_profiler() or {"running": False}
    if action not in ("reset", "snapshot", "flame"):
        raise ValueError(f"unknown profile action {action!r}")
    profiler = _global_profiler
    if action == "flame":
        return profiler.folded(limit=limit) if profiler is not None else []
    if profiler is None:
        return {"running": False, "samples": 0, "stacks": []}
    if action == "reset":
        profiler.reset()
        return {"running": profiler.running, "samples": 0, "stacks": []}
    return profiler.snapshot(limit=limit)
