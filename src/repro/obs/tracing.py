"""Hierarchical tracing spans with a context-local current-span stack.

One trace follows a unit of work across every layer the paper's datastore
serves simultaneously: a firework launch opens a root span, the SCF loop
and the analyzer open children, and every docstore operation executed while
a span is current attaches itself as a timed child (see
``Database._observe_op``).  The result is a tree like::

    firework.launch (fw_id=3) 812.4ms
      docstore.findAndModify (engines) 0.3ms
      scf.run (n_iterations=24) 801.1ms
      docstore.insert (tasks) 0.4ms
      docstore.update (engines) 0.2ms

Traces also cross process boundaries: span and trace ids are globally
unique hex strings, :func:`trace_context` packages the current position as
the ``"$trace"`` wire field, and :func:`remote_span` reconstructs the
remote parent on the receiving side (``DatastoreServer.dispatch``, the
proxy).  :func:`export_traces` dumps each process's finished-trace buffer
as JSON-ready dicts; :func:`stitch_spans` merges buffers from several
processes back into one tree and :func:`format_trace` renders it.

Spans use :mod:`contextvars`, so concurrent rockets in different threads
each get their own stack.  The context manager is exception-safe: a raise
inside the block marks the span ``error`` and still pops it.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Union

__all__ = [
    "Span",
    "span",
    "remote_span",
    "active_span",
    "current_span",
    "trace_context",
    "recent_traces",
    "clear_traces",
    "export_traces",
    "stitch_spans",
    "format_trace",
]

#: Finished root spans kept for inspection (oldest evicted).
TRACE_BUFFER = 256

#: Random per-process prefix making span ids unique across a fleet, so
#: traces exported from client, proxy, and server processes can be merged
#: without id collisions.  The counter keeps per-span cost to one next().
_PROCESS_PREFIX = os.urandom(4).hex()
_ids = itertools.count(1)
_current: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_current_span", default=None
)
_finished: Deque["Span"] = deque(maxlen=TRACE_BUFFER)
_finished_lock = threading.Lock()


def _new_id() -> str:
    return f"{_PROCESS_PREFIX}{next(_ids):08x}"


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "span_id", "trace_id", "parent", "parent_span_id",
                 "children", "attributes", "start_s", "end_s", "status",
                 "error")

    def __init__(self, name: str, parent: Optional["Span"] = None,
                 attributes: Optional[Dict[str, Any]] = None,
                 trace_id: Optional[str] = None,
                 parent_span_id: Optional[str] = None):
        self.name = name
        self.span_id = _new_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        else:
            # A local root: either a brand-new trace, or the continuation
            # of one started in another process (remote_span).
            self.trace_id = trace_id or self.span_id
            self.parent_span_id = parent_span_id
        self.parent = parent
        self.children: List[Span] = []
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None

    # -- lifecycle ------------------------------------------------------

    def finish(self) -> "Span":
        if self.end_s is None:
            self.end_s = time.perf_counter()
        return self

    @property
    def duration_ms(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return (end - self.start_s) * 1e3

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def record(self, name: str, duration_ms: float = 0.0,
               **attributes: Any) -> "Span":
        """Attach an already-measured child (the docstore-op hook path)."""
        child = Span(name, parent=self, attributes=attributes)
        child.start_s = self.start_s  # cosmetic; duration is authoritative
        child.end_s = child.start_s + duration_ms / 1e3
        self.children.append(child)
        return child

    # -- introspection ---------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name_prefix: str) -> List["Span"]:
        """Descendant spans (and self) whose name starts with the prefix."""
        return [s for s in self.walk() if s.name.startswith(name_prefix)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration_ms:.2f}ms, "
                f"{self.status}, children={len(self.children)})")


def current_span() -> Optional[Span]:
    """The innermost open span in this context, or None."""
    return _current.get()


def trace_context() -> Optional[Dict[str, str]]:
    """The current trace position as a wire-portable ``"$trace"`` payload."""
    s = _current.get()
    if s is None:
        return None
    return {"trace_id": s.trace_id, "span_id": s.span_id}


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Span]:
    """Open a span as the current one; exception-safe; nests naturally."""
    parent = _current.get()
    s = Span(name, parent=parent, attributes=attributes)
    if parent is not None:
        parent.children.append(s)
    token = _current.set(s)
    try:
        yield s
    except BaseException as exc:
        s.status = "error"
        s.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        s.finish()
        _current.reset(token)
        if parent is None:
            with _finished_lock:
                _finished.append(s)
        _record_span_metric(s)


@contextmanager
def remote_span(name: str, context: Optional[Mapping[str, Any]],
                **attributes: Any) -> Iterator[Span]:
    """Open a span continuing a trace started in another process.

    ``context`` is the ``"$trace"`` payload from the wire request
    (``{"trace_id": ..., "span_id": ...}``).  The span becomes a local
    root carrying the remote trace id, so this process's trace buffer can
    later be stitched under the caller's span by :func:`stitch_spans`.
    With no context (untraced request) — or when a local span is already
    open — this degrades to a plain :func:`span`.
    """
    if not context or _current.get() is not None:
        with span(name, **attributes) as s:
            yield s
        return
    s = Span(name, attributes=attributes,
             trace_id=context.get("trace_id"),
             parent_span_id=context.get("span_id"))
    token = _current.set(s)
    try:
        yield s
    except BaseException as exc:
        s.status = "error"
        s.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        s.finish()
        _current.reset(token)
        with _finished_lock:
            _finished.append(s)
        _record_span_metric(s)


@contextmanager
def active_span(name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """A child span only when a trace is already active.

    Routers and background machinery (the cluster's shard fan-out,
    change-stream delivery) call this on every operation; without a current
    span it is a no-op, so untraced workloads do not flood the root-trace
    buffer.
    """
    if _current.get() is None:
        yield None
        return
    with span(name, **attributes) as s:
        yield s


def _record_span_metric(s: Span) -> None:
    from .metrics import get_registry

    get_registry().histogram(
        "repro_span_millis", "span durations by name"
    ).observe(s.duration_ms, name=s.name)


def recent_traces(n: Optional[int] = None) -> List[Span]:
    """Most recent finished root spans, newest last."""
    with _finished_lock:
        traces = list(_finished)
    return traces if n is None else traces[-n:]


def clear_traces() -> None:
    with _finished_lock:
        _finished.clear()


# -- cross-process export & rendering ------------------------------------


def export_traces(trace_id: Optional[str] = None) -> List[dict]:
    """This process's finished root spans as JSON-ready dicts.

    The server exposes this over the wire (``op: "export_traces"``) so an
    operator can pull each process's buffer and stitch one fleet-wide view.
    """
    with _finished_lock:
        roots = list(_finished)
    out = [r.to_dict() for r in roots]
    if trace_id is not None:
        out = [d for d in out if d.get("trace_id") == trace_id]
    return out


def _copy_span_dict(d: Mapping[str, Any]) -> dict:
    out = dict(d)
    out["children"] = [_copy_span_dict(c) for c in d.get("children") or []]
    return out


def _index_spans(d: dict, index: Dict[str, dict]) -> None:
    index[d["span_id"]] = d
    for child in d["children"]:
        _index_spans(child, index)


def stitch_spans(span_dicts: List[Mapping[str, Any]],
                 trace_id: Optional[str] = None) -> List[dict]:
    """Merge exported root spans from several processes into trace trees.

    A local root whose ``parent_span_id`` names a span present in another
    export (the client span that issued the wire request) is grafted under
    it; anything unmatched stays a top-level root.  Duplicate roots (the
    same span arriving via overlapping exports) are kept once.  Inputs are
    copied, not mutated.
    """
    roots = []
    seen_roots = set()
    for d in span_dicts:
        if trace_id is not None and d.get("trace_id") != trace_id:
            continue
        if d.get("span_id") in seen_roots:
            continue
        seen_roots.add(d.get("span_id"))
        roots.append(_copy_span_dict(d))
    index: Dict[str, dict] = {}
    for root in roots:
        _index_spans(root, index)
    stitched: List[dict] = []
    for root in roots:
        parent_id = root.get("parent_span_id")
        if parent_id is not None and parent_id in index:
            index[parent_id]["children"].append(root)
        else:
            stitched.append(root)
    return stitched


def _render_span(node: Mapping[str, Any], prefix: str, is_last: bool,
                 lines: List[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    attrs = " ".join(
        f"{k}={v}" for k, v in (node.get("attributes") or {}).items()
    )
    status = node.get("status", "ok")
    suffix = "" if status == "ok" else f" [{status}: {node.get('error')}]"
    lines.append(
        f"{prefix}{connector}{node['name']} "
        f"{node.get('duration_ms', 0.0):.2f}ms"
        + (f" {attrs}" if attrs else "") + suffix
    )
    children = node.get("children") or []
    extension = "   " if is_last else "│  "
    for i, child in enumerate(children):
        _render_span(child, prefix + extension, i == len(children) - 1, lines)


TraceLike = Union["Span", Mapping[str, Any]]


def format_trace(trace: Union[TraceLike, List[TraceLike]]) -> str:
    """Render one trace (or a list of exported roots) as a text tree.

    Accepts a live :class:`Span`, a ``to_dict()`` export, or a list of
    either (which is stitched first), and returns lines like::

        trace 8f3a1c0900000001
        └─ tour.remote_query 4.90ms
           └─ client.find 4.61ms db=mp coll=tasks
              └─ proxy.forward 4.05ms op=find
                 └─ wire.find 0.52ms db=mp coll=tasks
    """
    items = trace if isinstance(trace, list) else [trace]
    dicts = [t.to_dict() if isinstance(t, Span) else dict(t) for t in items]
    roots = stitch_spans(dicts)
    lines: List[str] = []
    for root in roots:
        lines.append(f"trace {root.get('trace_id')}")
        _render_span(root, "", True, lines)
    return "\n".join(lines)
