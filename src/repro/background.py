"""One lifecycle for every background thread in the package.

TTL sweeps, the access-log writer, the flight recorder and its watchdog, the
profiler, the balancer, the heartbeat monitor and the three socket servers
all start, stop and fail the same way, here.
The journal committer (:mod:`repro.docstore.persistence`) is deliberately
not a client: it is woken by a condition variable, not a timer.
"""

from __future__ import annotations

import socket
import threading
import time
import weakref
from typing import Any, Callable, Dict, Optional, TypeVar

__all__ = ["PeriodicTask", "ServerThread", "TaskDaemon", "task_table"]

#: How long ``stop()`` waits for a thread to finish its current run.
JOIN_TIMEOUT_S = 5.0

_live_lock = threading.Lock()
_live: "weakref.WeakSet[PeriodicTask]" = weakref.WeakSet()


def _spawn(name: str, target: Callable[..., None],
           *args: Any) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, name=name,
                              daemon=True)
    thread.start()
    return thread


class PeriodicTask:
    """Run ``fn()`` every ``interval_s`` seconds until stopped.

    With ``clock=None`` this is a daemon thread waiting on an ``Event`` —
    one OS thread per task, because a shared timer thread would let a slow
    TTL sweep delay the watchdog that exists to notice it.  With a
    clock that has ``schedule_in`` and ``now`` (duck-typed;
    :class:`repro.hpc.simclock.SimClock` is used as is) ``start()`` spawns
    no thread: the task re-arms itself on the clock, so
    ``clock.run_until(t)`` runs every tick due by ``t``, in order, in the
    caller's thread.  Such a task never drains — never ``run_all``.

    The first run is one interval after ``start()``; ``interval_s`` is read
    before every wait, so ``start(interval_s)`` re-paces a running task.
    Counters are written only by the task's own runs.
    """

    def __init__(self, name: str, interval_s: float,
                 fn: Callable[[], Any], clock: Any = None):
        self.name = name
        self.interval_s = float(interval_s)
        self._fn = fn
        self._clock = clock
        self._lock = threading.Lock()
        # One Event per start(): a run that outlives stop()'s join still
        # sees *its* event set after a restart.  None while stopped.
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.runs = self.errors = self.overruns = 0
        self.last_run_ts: Optional[float] = None
        self.last_error: Optional[dict] = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return self._stop is not None and (thread is None or thread.is_alive())

    def start(self, interval_s: Optional[float] = None) -> "PeriodicTask":
        with self._lock:
            if interval_s is not None:
                self.interval_s = float(interval_s)
            if self.running:
                return self
            self._stop = stop = threading.Event()
            if self._clock is None:
                self._thread = _spawn(self.name, self._loop, stop)
            else:
                self._arm(stop)
            with _live_lock:
                _live.add(self)
        return self

    def stop(self) -> None:
        with self._lock:
            stop, thread = self._stop, self._thread
            self._stop = self._thread = None
            with _live_lock:
                _live.discard(self)
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=JOIN_TIMEOUT_S)

    def _loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.interval_s):
            self._run_once()

    def _arm(self, stop: threading.Event) -> None:
        self._clock.schedule_in(self.interval_s, lambda: self._tick(stop))

    def _tick(self, stop: threading.Event) -> None:
        if not stop.is_set():
            self._run_once()
            self._arm(stop)

    def _run_once(self) -> None:
        """The one guarded body: a failing run is counted, never fatal."""
        t0 = time.monotonic()
        self.last_run_ts = (time.time() if self._clock is None
                            else self._clock.now)
        try:
            self._fn()
        except Exception as exc:
            self._note_error(exc)
        self.runs += 1
        # Simulated time does not advance inside a run.
        if self._clock is None and time.monotonic() - t0 > self.interval_s:
            self.overruns += 1

    def _note_error(self, exc: Exception) -> None:
        # Imported here: repro.obs imports this module while it loads.
        from .obs.logging import get_logger
        from .obs.metrics import get_registry

        self.errors += 1
        self.last_error = {"type": type(exc).__name__, "message": str(exc),
                           "ts": self.last_run_ts}
        get_registry().counter(
            "repro_background_task_errors_total",
            "exceptions raised by background task bodies",
        ).inc(1, task=self.name)
        get_logger("repro.background").warning(
            "event=task_error task=%s", self.name, exc_info=exc)

    def stats(self) -> dict:
        return {key: getattr(self, key) for key in (
            "interval_s", "runs", "errors", "overruns", "last_run_ts",
            "last_error")}


def task_table() -> Dict[str, dict]:
    """``server_status()["tasks"]``: name -> stats for every task running
    in this process (process-wide, like the metrics registry)."""
    with _live_lock:
        tasks = list(_live)
    return {t.name: t.stats() for t in sorted(tasks, key=lambda t: t.name)}


_D = TypeVar("_D", bound="TaskDaemon")


class TaskDaemon:
    """The public lifecycle of a class that owns one task as ``_task``."""

    _task: PeriodicTask

    @property
    def interval_s(self) -> float:
        return self._task.interval_s

    @property
    def running(self) -> bool:
        return self._task.running

    def start(self: _D, interval_s: Optional[float] = None) -> _D:
        self._task.start(interval_s)
        return self

    def stop(self) -> None:
        self._task.stop()


_S = TypeVar("_S", bound="ServerThread")


class ServerThread:
    """Base of the socket servers: ``serve_forever`` on one daemon thread.

    ``start()`` while serving is a no-op, so ``with Server().start():``
    (``__enter__`` starts again) runs one accept loop, not two.  ``stop()``
    closes the listening socket the ``socketserver`` constructor bound, and
    first shuts down its read side: on Linux that wakes the accept loop's
    ``select`` at once (``accept`` then fails, so nothing is served) instead
    of leaving ``shutdown()`` to wait out the 0.5 s poll interval.
    """

    def __init__(self, thread_name: str, tcp_server: Any):
        self._serve_name = thread_name
        self._serve_server = tcp_server
        self._serve_lock = threading.Lock()
        self._serve_thread: Optional[threading.Thread] = None

    def start(self: _S) -> _S:
        with self._serve_lock:
            thread = self._serve_thread
            if thread is None or not thread.is_alive():
                self._serve_thread = _spawn(
                    self._serve_name, self._serve_server.serve_forever)
        return self

    def stop(self) -> None:
        with self._serve_lock:
            thread, self._serve_thread = self._serve_thread, None
        if thread is not None:
            try:
                self._serve_server.socket.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # not Linux: the poll interval ends the wait instead
            self._serve_server.shutdown()
            thread.join(timeout=JOIN_TIMEOUT_S)
        self._serve_server.server_close()

    def __enter__(self: _S) -> _S:
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
