"""Live operation introspection: MongoDB-style ``currentOp`` / ``killOp``.

Saxton (2022) makes the operational case: running a sharded MongoDB on HPC
lives or dies on per-shard operation visibility — "what is this server
executing right now, and can I stop the scan that is eating it?".  This
module is that capability for the reproduction's store.  Each operation
has one record, an :class:`ActiveOp`, as MongoDB has one ``CurOp``: every
collection verb registers it in a process-wide active-ops table with an
opid, its namespace, the raw query (shown as a *shape*, values elided),
elapsed time and a cooperative kill flag; while the op runs it collects
its plan summary, documents and keys examined and documents returned; and
when its block exits cleanly it is deregistered and handed to the
database, which writes opcounters, ``top``, metrics, the span child and
the ``system.profile`` entry (carrying the opid) from it.

The kill is cooperative, exactly like MongoDB's: ``killOp(opid)`` only sets
the flag; the executing operation notices at its next check point and
raises :class:`~repro.errors.OperationKilled` out of the caller's stack.
The check points are per candidate document wherever a selector is
resolved (``Collection._select``) and per input document in MapReduce.
Writes resolve their selector there too, so a write is killable while it
selects, before it changes anything; once it is applying its change it has
no check point left, and a killed write runs to completion.
:func:`thread_op` names the op a thread is running, which is how a
contended :class:`~repro.docstore.locks.RWLock` labels both sides.

Exposure: :meth:`DocumentStore.current_op` / :meth:`DocumentStore.kill_op`
in-process, ``op: "current_op"`` / ``op: "kill_op"`` on the wire protocol,
and ``GET /ops`` on the Materials API httpd.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

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
    """One operation's record, from registration to report.

    A context manager: ``with`` a registered op, leaving the block takes it
    out of ``current_op()``; on a clean exit ``report(op)`` then runs.  An
    op that raises is not reported.  ``kind`` is its opcounter category;
    ``nreturned``, ``n_ops`` (opcounter increments) and ``stages`` are set
    by the verb, the plan fields by ``Collection._select``.
    """

    __slots__ = ("opid", "op", "kind", "ns", "query", "started_s",
                 "started_wall", "span", "deadline", "plan_summary",
                 "docs_examined", "keys_examined", "nreturned", "n_ops",
                 "stages", "millis", "killed", "thread", "outer", "registry",
                 "report")

    def __init__(self, op: str, ns: str, query: Any, kind: str = "command",
                 report: Optional[Callable[["ActiveOp"], None]] = None):
        #: Set by :meth:`OperationRegistry.register`, with the deadline.
        self.opid: Optional[int] = None
        self.op = op
        self.kind = kind
        self.ns = ns
        #: Shaped only when described: registration is on every verb's path.
        self.query = query
        #: MongoDB-style planSummary, filled in once the planner has run.
        self.plan_summary: Optional[str] = None
        self.docs_examined: Optional[int] = None
        self.keys_examined: Optional[int] = None
        self.nreturned = 0
        self.n_ops = 1
        self.stages: Optional[List[dict]] = None
        #: Duration, stamped as the block exits.
        self.millis = 0.0
        self.started_s = time.perf_counter()
        self.started_wall = time.time()
        self.span = current_span()
        self.deadline: Optional[float] = None
        self.killed = False
        self.thread = threading.get_ident()
        #: The op this one shadows in :func:`thread_op` while it runs.
        self.outer: Optional[ActiveOp] = None
        self.registry: Optional[OperationRegistry] = None
        self.report = report

    def __enter__(self) -> "ActiveOp":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.millis = (time.perf_counter() - self.started_s) * 1e3
        if self.registry is not None:
            self.registry.finish(self)
        if exc_type is None and self.report is not None:
            self.report(self)

    @property
    def trace_id(self) -> Optional[str]:
        return self.span.trace_id if self.span is not None else None

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

    def register(self, op: str, ns: str, query: Any = None,
                 kind: str = "command",
                 report: Optional[Callable[[ActiveOp], None]] = None
                 ) -> ActiveOp:
        """Register an op and return it, for ``with registry.register(...)
        as op:`` — the block's exit deregisters it (see :class:`ActiveOp`).
        A registered op gets an opid and this thread's deadline."""
        active = ActiveOp(op, ns, query, kind, report)
        active.opid = next(self._opids)
        active.deadline = current_deadline()
        active.registry = self
        active.outer = _by_thread.get(active.thread)
        _by_thread[active.thread] = active
        with self._lock:
            self._ops[active.opid] = active
        get_registry().gauge(
            "repro_docstore_active_ops", "operations currently executing"
        ).inc(1, op=op)
        return active

    def finish(self, active: ActiveOp) -> None:
        with self._lock:
            self._ops.pop(active.opid, None)
        if active.outer is None:
            _by_thread.pop(active.thread, None)
        else:
            _by_thread[active.thread] = active.outer
        get_registry().gauge(
            "repro_docstore_active_ops", "operations currently executing"
        ).dec(1, op=active.op)

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
