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
* attributed: a wait above the noise floor records *who waited on whom*,
  each side labelled ``"<op> <ns> <query shape>"`` from the op it runs
  (:func:`repro.docstore.ops.thread_op`), else by its thread name, rolled
  up per (mode, waiter, holder) with the last opids of both sides into the
  bounded :meth:`RWLock.contention_report` behind
  ``server_status()["locks"]["top_contended"]``.  No stack is read, and
  labels are only taken when a thread is already about to block.

``with lock:`` takes the exclusive (write) side, so legacy call sites that
treated the collection lock as a mutex remain correct.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import DocstoreError
from .ops import thread_op

__all__ = ["RWLock"]

#: Waits shorter than this are not reported to the metrics registry: an
#: uncontended acquire always "waits" a few hundred nanoseconds, and the
#: histogram should show contention, not scheduler noise.
_CONTENTION_FLOOR_S = 1e-4

#: Distinct (mode, waiter, holder) attribution rows kept per lock before
#: novel pairings collapse into the one overflow row, keyed by the mode of
#: the first wait that overflowed — same bounded-memory discipline as the
#: metrics cardinality cap.
MAX_CONTENTION_SITES = 64

#: Site label absorbing attribution rows past :data:`MAX_CONTENTION_SITES`.
OVERFLOW_SITE = "__other__"


def _describe_thread(ident: int) -> Tuple[str, Optional[int]]:
    """(label, opid) of thread ``ident``: its innermost registered op, or
    its ``threading`` name and no opid when it runs none."""
    active = thread_op(ident)
    if active is not None:
        return (f"{active.op} {active.ns} {json.dumps(active.shape)}",
                active.opid)
    return next((t.name for t in threading.enumerate() if t.ident == ident),
                str(ident)), None


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

    def _capture_sites(self) -> Tuple[str, str, Tuple[Optional[int], ...]]:
        """(waiter, holder, (waiter opid, holder opid)) for a thread about
        to block.

        Called with the condition mutex held, once per wait, *before* the
        first ``cond.wait()`` — the only moment both sides exist.
        Uncontended acquires never get here, so attribution adds zero cost
        to the fast path.
        """
        waiter, waiter_opid = _describe_thread(threading.get_ident())
        if self._writer is not None or self._readers:
            holder, holder_opid = _describe_thread(
                self._writer if self._writer is not None
                else next(iter(self._readers)))
            if self._writer is None and len(self._readers) > 1:
                holder += f" (+{len(self._readers) - 1} readers)"
        else:
            # Queued behind a writer that is itself still waiting
            # (writer preference).
            holder, holder_opid = "<waiting-writer>", None
        return waiter, holder, (waiter_opid, holder_opid)

    def _record_wait(self, mode: str, waited_s: float, sites: tuple) -> None:
        # Called with the condition mutex held.
        self._wait_s[mode] += waited_s
        if waited_s < _CONTENTION_FLOOR_S:
            return
        self._contended[mode] += 1
        self._note_contention(mode, sites[0], sites[1], waited_s, sites[2])
        from ..obs import get_registry  # local: keep import cost off hot path

        get_registry().histogram(
            "repro_docstore_lock_wait_millis", "lock wait time by mode"
        ).observe(waited_s * 1e3, mode=mode,
                  **({"coll": self.name} if self.name else {}))

    def _note_contention(self, mode: str, waiter: str, holder: str,
                         waited_s: float,
                         opids: Tuple[Optional[int], ...] = (None, None)
                         ) -> None:
        # Called with the condition mutex held.
        key = (mode, waiter, holder)
        entry = self._contention.get(key)
        if entry is None:
            if len(self._contention) >= MAX_CONTENTION_SITES:
                key = next((k for k in self._contention
                            if k[1] == OVERFLOW_SITE),
                           (mode, OVERFLOW_SITE, OVERFLOW_SITE))
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
        entry["waiter_opid"], entry["holder_opid"] = opids

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

        Each row carries the waiter's label, the holder's label at the
        moment the wait began, the number of waits above the noise floor,
        cumulative/max wait milliseconds, and the opids of the last waiter
        and holder (None for a thread running no op) — the "who is
        blocking whom" view behind
        ``server_status()["locks"]["top_contended"]``.
        """
        with self._cond:
            rows = [
                {"mode": mode, "waiter": waiter, "holder": holder,
                 **entry}
                for (mode, waiter, holder), entry in self._contention.items()
            ]
        rows.sort(key=lambda r: (-r["wait_ms"], r["waiter"], r["holder"]))
        return rows[:limit]
