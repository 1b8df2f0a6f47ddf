"""Live operation introspection: MongoDB-style ``currentOp`` / ``killOp``.

Saxton (2022) makes the operational case: running a sharded MongoDB on HPC
lives or dies on per-shard operation visibility — "what is this server
executing right now, and can I stop the scan that is eating it?".  This
module is that capability for the reproduction's store: every long-running
dispatched operation registers itself in a process-wide active-ops table
with an opid, its namespace, the query *shape* (field names and operators,
values elided), elapsed time, and a cooperative kill flag.

The kill is cooperative, exactly like MongoDB's: ``killOp(opid)`` only sets
the flag; the executing operation notices at its next check point (cursor
scans check per candidate document, MapReduce per input document) and
raises :class:`~repro.errors.OperationKilled` out of the caller's stack.

Writes register too; they have no check point, so a killed write runs to
completion.  :func:`thread_op` names the op a thread is running, which is
how a contended :class:`~repro.docstore.locks.RWLock` labels both sides.

Exposure: :meth:`DocumentStore.current_op` / :meth:`DocumentStore.kill_op`
in-process, ``op: "current_op"`` / ``op: "kill_op"`` on the wire protocol,
and ``GET /ops`` on the Materials API httpd.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from ..errors import DeadlineExceeded, OperationKilled
from ..obs import current_span, get_registry

__all__ = ["ActiveOp", "OperationRegistry", "query_shape", "thread_op",
           "current_deadline", "deadline_scope"]

# Per-thread deadline propagated from the wire server: when a request
# carries ``"$deadline"`` (epoch seconds), every operation it registers
# inherits it, and the cooperative kill check points abort past-due work.
_deadline_local = threading.local()


def current_deadline() -> Optional[float]:
    """The wall-clock deadline governing this thread's ops, if any."""
    return getattr(_deadline_local, "deadline", None)


@contextmanager
def deadline_scope(deadline: Optional[float]) -> Iterator[None]:
    """Run a block with ``deadline`` as this thread's operation deadline."""
    previous = current_deadline()
    _deadline_local.deadline = deadline
    try:
        yield
    finally:
        _deadline_local.deadline = previous

#: List elements beyond this many are collapsed into "..." in a shape.
_SHAPE_LIST_CAP = 4


def query_shape(query: Any) -> Any:
    """The structure of a query with its values elided.

    ``{"state": "READY", "spec.nelectrons": {"$lte": 200}}`` becomes
    ``{"state": "?str", "spec.nelectrons": {"$lte": "?int"}}`` — enough for
    an operator to recognize the query family without ``currentOp`` leaking
    document contents into logs or the HTTP surface.
    """
    if isinstance(query, Mapping):
        return {str(k): query_shape(v) for k, v in query.items()}
    if isinstance(query, (list, tuple)):
        shaped = [query_shape(v) for v in query[:_SHAPE_LIST_CAP]]
        if len(query) > _SHAPE_LIST_CAP:
            shaped.append("...")
        return shaped
    return f"?{type(query).__name__}"


class ActiveOp:
    """One in-flight operation: identity, query, and the kill flag."""

    __slots__ = ("opid", "op", "ns", "query", "started_s", "started_wall",
                 "trace_id", "deadline", "plan_summary", "killed",
                 "thread", "outer")

    def __init__(self, opid: int, op: str, ns: str, query: Any):
        self.opid = opid
        self.op = op
        self.ns = ns
        #: Shaped only when described: registration is on every verb's path.
        self.query = query
        #: MongoDB-style planSummary, filled in once the planner has run.
        self.plan_summary: Optional[str] = None
        self.started_s = time.perf_counter()
        self.started_wall = time.time()
        s = current_span()
        self.trace_id = s.trace_id if s is not None else None
        self.deadline = current_deadline()
        self.killed = False
        self.thread = threading.get_ident()
        #: The op this one shadows in :func:`thread_op` while it runs.
        self.outer: Optional[ActiveOp] = None

    @property
    def shape(self) -> Any:
        return query_shape(self.query) if self.query is not None else None

    def kill(self) -> None:
        self.killed = True

    def check_killed(self) -> None:
        """The cooperative check point; raises if ``killOp`` targeted us
        or the client-supplied deadline has passed."""
        # Deadline first: an op swept by ``kill_expired`` should report
        # *why* it died, not just that the kill flag was set.
        if self.deadline is not None and time.time() > self.deadline:
            self.killed = True
            raise DeadlineExceeded(
                f"operation {self.opid} ({self.op} on {self.ns}) "
                "exceeded its deadline"
            )
        if self.killed:
            raise OperationKilled(
                f"operation {self.opid} ({self.op} on {self.ns}) "
                "terminated by killOp"
            )

    def describe(self) -> dict:
        """The ``currentOp``-style document for this op."""
        return {
            "opid": self.opid,
            "op": self.op,
            "ns": self.ns,
            "query_shape": self.shape,
            "planSummary": self.plan_summary,
            "elapsed_ms": (time.perf_counter() - self.started_s) * 1e3,
            "started_at": self.started_wall,
            "trace_id": self.trace_id,
            "deadline": self.deadline,
            "killed": self.killed,
        }


#: Thread ident -> the innermost op that thread is running, across every
#: registry in the process.  Only the owning thread writes its key.
_by_thread: Dict[int, ActiveOp] = {}


def thread_op(ident: int) -> Optional[ActiveOp]:
    """The innermost in-flight op of thread ``ident``, or None."""
    return _by_thread.get(ident)


class OperationRegistry:
    """Thread-safe table of every in-flight operation on one store."""

    def __init__(self) -> None:
        self._ops: Dict[int, ActiveOp] = {}
        self._lock = threading.Lock()
        self._opids = itertools.count(1)

    def register(self, op: str, ns: str, query: Any = None) -> ActiveOp:
        active = ActiveOp(next(self._opids), op, ns, query)
        active.outer = _by_thread.get(active.thread)
        _by_thread[active.thread] = active
        with self._lock:
            self._ops[active.opid] = active
        get_registry().gauge(
            "repro_docstore_active_ops", "operations currently executing"
        ).inc(1, op=op)
        return active

    def finish(self, active: Optional[ActiveOp]) -> None:
        if active is None:
            return
        with self._lock:
            self._ops.pop(active.opid, None)
        if active.outer is None:
            _by_thread.pop(active.thread, None)
        else:
            _by_thread[active.thread] = active.outer
        get_registry().gauge(
            "repro_docstore_active_ops", "operations currently executing"
        ).dec(1, op=active.op)

    @contextmanager
    def track(self, op: str, ns: str, query: Any = None) -> Iterator[ActiveOp]:
        """Register for the duration of a block; always deregisters."""
        active = self.register(op, ns, query)
        try:
            yield active
        finally:
            self.finish(active)

    def current_op(self) -> List[dict]:
        """Snapshot of every in-flight op, oldest first (``db.currentOp``)."""
        with self._lock:
            ops = sorted(self._ops.values(), key=lambda a: a.opid)
        return [a.describe() for a in ops]

    def kill_expired(self, now: Optional[float] = None) -> int:
        """Flag every op whose ``$deadline`` has passed; returns the count.

        The wire server sweeps this on each dispatch, so an op stuck
        between cooperative check points is still reaped by the next
        arriving request — the same table ``killOp`` uses.
        """
        now = time.time() if now is None else now
        with self._lock:
            expired = [a for a in self._ops.values()
                       if a.deadline is not None and now > a.deadline
                       and not a.killed]
        for active in expired:
            active.kill()
            get_registry().counter(
                "repro_docstore_ops_expired_total",
                "operations aborted past their deadline"
            ).inc(1, op=active.op)
        return len(expired)

    def kill_op(self, opid: int) -> bool:
        """Flag ``opid`` for termination; True if it was in flight."""
        with self._lock:
            active = self._ops.get(opid)
        if active is None:
            return False
        active.kill()
        get_registry().counter(
            "repro_docstore_ops_killed_total", "operations killed via killOp"
        ).inc(1, op=active.op)
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._ops)
