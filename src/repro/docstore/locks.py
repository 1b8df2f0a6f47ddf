"""Reader-writer locks for the storage engine.

The paper's single MongoDB deployment served the FireWorks queue, the
builders, and the public API *at the same time* (§IV-A); MongoDB's engine
survives that because reads share access while writes are exclusive.  The
reproduction's wire server is a ``ThreadingTCPServer``, so concurrent
clients genuinely race — this module supplies the same many-readers /
one-writer discipline for :class:`~repro.docstore.collection.Collection`
(and a database-level lock guarding collection create/drop).

Semantics:

* many concurrent readers, one exclusive writer;
* writer preference — arriving readers queue behind a waiting writer so a
  stream of cheap reads cannot starve updates (the task-queue claim path);
* reentrant: a thread may re-enter a mode it already holds, and may take
  the *read* side while holding the *write* side (``find_one_and_update``
  reads under its own write lock).  Upgrading read → write is refused
  rather than deadlocking;
* instrumented: cumulative acquire counts and wait time per mode, the
  data behind ``server_status()["locks"]`` and the
  ``repro_docstore_lock_wait_millis`` histogram;
* attributed: a wait above the noise floor records *who waited on whom* —
  the waiter's call site plus the current holder's live stack frame (via
  ``sys._current_frames``), rolled up per (mode, waiter, holder) into the
  bounded :meth:`RWLock.contention_report` behind
  ``server_status()["locks"]["top_contended"]``.  Attribution costs
  nothing on the uncontended fast path: sites are only captured when a
  thread is already about to block.

``with lock:`` takes the exclusive (write) side, so legacy call sites that
treated the collection lock as a mutex remain correct.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import DocstoreError
from ..obs.profiler import current_frames

__all__ = ["RWLock", "attribute_to_caller"]

#: Waits shorter than this are not reported to the metrics registry: an
#: uncontended acquire always "waits" a few hundred nanoseconds, and the
#: histogram should show contention, not scheduler noise.
_CONTENTION_FLOOR_S = 1e-4

#: Distinct (mode, waiter, holder) attribution rows kept per lock before
#: novel pairings collapse into the overflow site — same bounded-memory
#: discipline as the metrics cardinality cap.
MAX_CONTENTION_SITES = 64

#: Site label absorbing attribution rows past :data:`MAX_CONTENTION_SITES`.
OVERFLOW_SITE = "__other__"

_PASS_THROUGH: set = set()


def attribute_to_caller(fn: Any) -> Any:
    """Decorator: report lock sites inside ``fn`` at its caller, so a
    helper several verbs share is attributed to the verb."""
    _PASS_THROUGH.add(fn.__code__)
    return fn


def _describe_frame(frame: Any) -> str:
    """``file:function:line`` for the first frame outside this module.

    Frames from :mod:`threading` are skipped too: a holder parked in
    ``Condition.wait`` / ``Event.wait`` should be attributed to the
    application code that parked it, not to the stdlib wait machinery.
    So are :func:`attribute_to_caller` helpers.
    """
    own = os.path.abspath(__file__)
    skipped = (own, os.path.abspath(threading.__file__))
    while frame is not None and (
            frame.f_code in _PASS_THROUGH
            or os.path.abspath(frame.f_code.co_filename) in skipped):
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    code = frame.f_code
    return (f"{os.path.basename(code.co_filename)}:"
            f"{code.co_name}:{frame.f_lineno}")


class _ReadGuard:
    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock"):
        self._lock = lock

    def __enter__(self) -> "RWLock":
        self._lock.acquire_read()
        return self._lock

    def __exit__(self, *exc: Any) -> None:
        self._lock.release_read()


class _WriteGuard:
    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock"):
        self._lock = lock

    def __enter__(self) -> "RWLock":
        self._lock.acquire_write()
        return self._lock

    def __exit__(self, *exc: Any) -> None:
        self._lock.release_write()


class RWLock:
    """Writer-preferring, reentrant reader-writer lock with wait accounting."""

    def __init__(self, name: Optional[str] = None):
        self.name = name
        self._cond = threading.Condition(threading.Lock())
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._readers: Dict[int, int] = {}
        self._waiting_writers = 0
        # Cumulative accounting, guarded by the condition's mutex.
        self._acquires = {"read": 0, "write": 0}
        self._wait_s = {"read": 0.0, "write": 0.0}
        self._contended = {"read": 0, "write": 0}
        # (mode, waiter_site, holder_site) -> rollup; bounded, see
        # MAX_CONTENTION_SITES.
        self._contention: Dict[Tuple[str, str, str], Dict[str, Any]] = {}

    # -- acquisition -----------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        t0 = time.perf_counter()
        with self._cond:
            if self._writer == me:
                # Read under our own write lock: ride the write depth.
                self._writer_depth += 1
                self._acquires["read"] += 1
                return
            depth = self._readers.get(me)
            if depth is not None:
                self._readers[me] = depth + 1
                self._acquires["read"] += 1
                return
            sites = None
            while self._writer is not None or self._waiting_writers:
                if sites is None:
                    sites = self._capture_sites()
                self._cond.wait()
            self._readers[me] = 1
            self._acquires["read"] += 1
            if sites is not None:
                self._record_wait("read", time.perf_counter() - t0, sites)

    def try_acquire_read(self, timeout: float = 0.0) -> bool:
        """Non-blocking (or bounded-wait) read acquisition.

        Returns ``True`` with the read lock held, or ``False`` if it
        could not be acquired within ``timeout`` seconds.  Honors the
        same reentrancy rules as :meth:`acquire_read` but never records
        contention — this is the flight watchdog's liveness probe, and a
        probe must not pollute the attribution tables it reports on.
        """
        me = threading.get_ident()
        deadline = time.perf_counter() + timeout
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                self._acquires["read"] += 1
                return True
            depth = self._readers.get(me)
            if depth is not None:
                self._readers[me] = depth + 1
                self._acquires["read"] += 1
                return True
            while self._writer is not None or self._waiting_writers:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._cond.wait(remaining):
                    if self._writer is not None or self._waiting_writers:
                        return False
            self._readers[me] = 1
            self._acquires["read"] += 1
            return True

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                return
            depth = self._readers.get(me)
            if depth is None:
                raise DocstoreError("release_read without matching acquire")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    def acquire_write(self) -> None:
        me = threading.get_ident()
        t0 = time.perf_counter()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                self._acquires["write"] += 1
                return
            if me in self._readers:
                raise DocstoreError(
                    f"cannot upgrade read lock to write lock on "
                    f"{self.name or 'collection'!r} (deadlock hazard)"
                )
            self._waiting_writers += 1
            try:
                sites = None
                while self._writer is not None or self._readers:
                    if sites is None:
                        sites = self._capture_sites()
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
                self._acquires["write"] += 1
                if sites is not None:
                    self._record_wait("write", time.perf_counter() - t0, sites)
            finally:
                self._waiting_writers -= 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise DocstoreError("release_write by non-owner thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def _capture_sites(self) -> Tuple[str, str]:
        """(waiter_site, holder_site) for a thread about to block.

        Called with the condition mutex held, once per wait, *before* the
        first ``cond.wait()`` — the only moment both sides exist: the
        waiter is this thread's own stack, the holder is whichever thread
        currently owns the lock, read live out of
        :func:`repro.obs.profiler.current_frames`.  Uncontended acquires never get here,
        so attribution adds zero cost to the fast path.
        """
        waiter = _describe_frame(sys._getframe(1))
        holder_idents = ([self._writer] if self._writer is not None
                         else list(self._readers))
        holder = None
        if holder_idents:
            frames = current_frames()
            for ident in holder_idents:
                frame = frames.get(ident)
                if frame is not None:
                    holder = _describe_frame(frame)
                    break
            if (holder is not None and self._writer is None
                    and len(self._readers) > 1):
                holder += f" (+{len(self._readers) - 1} readers)"
        if holder is None:
            # Queued behind a writer that is itself still waiting
            # (writer preference), or the holder released mid-capture.
            holder = ("<waiting-writer>" if self._waiting_writers
                      else "<released>")
        return waiter, holder

    def _record_wait(self, mode: str, waited_s: float,
                     sites: Optional[Tuple[str, str]] = None) -> None:
        # Called with the condition mutex held.
        self._wait_s[mode] += waited_s
        if waited_s < _CONTENTION_FLOOR_S:
            return
        self._contended[mode] += 1
        if sites is not None:
            self._note_contention(mode, sites[0], sites[1], waited_s)
        from ..obs import get_registry  # local: keep import cost off hot path

        get_registry().histogram(
            "repro_docstore_lock_wait_millis", "lock wait time by mode"
        ).observe(waited_s * 1e3, mode=mode,
                  **({"coll": self.name} if self.name else {}))

    def _note_contention(self, mode: str, waiter: str, holder: str,
                         waited_s: float) -> None:
        # Called with the condition mutex held.
        key = (mode, waiter, holder)
        entry = self._contention.get(key)
        if entry is None:
            if len(self._contention) >= MAX_CONTENTION_SITES:
                key = (mode, OVERFLOW_SITE, OVERFLOW_SITE)
                entry = self._contention.get(key)
            if entry is None:
                entry = self._contention[key] = {
                    "count": 0, "wait_ms": 0.0, "max_wait_ms": 0.0,
                    "last_ts": 0.0,
                }
        entry["count"] += 1
        entry["wait_ms"] += waited_s * 1e3
        entry["max_wait_ms"] = max(entry["max_wait_ms"], waited_s * 1e3)
        entry["last_ts"] = time.time()

    # -- context-manager faces -------------------------------------------

    def read(self) -> _ReadGuard:
        """Shared-mode guard: ``with lock.read(): ...``"""
        return _ReadGuard(self)

    def write(self) -> _WriteGuard:
        """Exclusive-mode guard: ``with lock.write(): ...``"""
        return _WriteGuard(self)

    def __enter__(self) -> "RWLock":
        self.acquire_write()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release_write()

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        """Cumulative acquire/wait accounting plus a live snapshot."""
        with self._cond:
            return {
                "read_acquires": self._acquires["read"],
                "write_acquires": self._acquires["write"],
                "read_wait_ms": self._wait_s["read"] * 1e3,
                "write_wait_ms": self._wait_s["write"] * 1e3,
                "read_contended": self._contended["read"],
                "write_contended": self._contended["write"],
                "active_readers": len(self._readers),
                "writer_held": self._writer is not None,
                "waiting_writers": self._waiting_writers,
                "contention_sites": len(self._contention),
            }

    def contention_report(self, limit: int = 10) -> list:
        """Top contended (mode, waiter, holder) pairings by total wait.

        Each row carries the waiting call site, the holder's site at the
        moment the wait began, the number of waits above the noise floor,
        and cumulative/max wait milliseconds — the "who is blocking whom"
        view behind ``server_status()["locks"]["top_contended"]``.
        """
        with self._cond:
            rows = [
                {"mode": mode, "waiter": waiter, "holder": holder,
                 **entry}
                for (mode, waiter, holder), entry in self._contention.items()
            ]
        rows.sort(key=lambda r: (-r["wait_ms"], r["waiter"], r["holder"]))
        return rows[:limit]
