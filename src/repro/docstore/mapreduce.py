"""Built-in collection MapReduce — the MongoDB-analog (single-threaded).

The paper (§IV-C2) notes that "MongoDB's built-in MapReduce functionality is
severely limited by implementation within a single-threaded Javascript
engine"; the materials builder runs "a MapReduce operation on the tasks to
group them by the MPS identifier and pick a single best result" (§III-B3).

This module is the *built-in, deliberately single-threaded* executor bound
to collections.  The general framework with a parallel "Hadoop-like" engine
used for the §IV-B2 comparison lives in :mod:`repro.mapreduce`.

A mapper is a Python callable ``mapper(doc) -> iterable of (key, value)``;
a reducer is ``reducer(key, values) -> value``; optional ``finalize(key,
value) -> value``.  Keys must be hashable after canonicalization.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .aggregation import _group_key

__all__ = ["map_reduce", "MapReduceResult"]

Mapper = Callable[[dict], Iterable[Tuple[Any, Any]]]
Reducer = Callable[[Any, List[Any]], Any]
Finalizer = Callable[[Any, Any], Any]


class MapReduceResult:
    """Result rows plus execution counters (like Mongo's mapReduce output)."""

    def __init__(self, rows: List[dict], counts: dict, millis: float):
        self.rows = rows
        self.counts = counts
        self.millis = millis

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> dict:
        return self.rows[i]


def map_reduce(
    documents: Iterable[dict],
    mapper: Mapper,
    reducer: Reducer,
    finalize: Optional[Finalizer] = None,
    kill_check: Optional[Callable[[], None]] = None,
) -> MapReduceResult:
    """Run a single-threaded MapReduce over ``documents``.

    Mirrors Mongo's semantics: the reducer may be invoked repeatedly and
    must be associative/commutative over its value list; it is *only*
    invoked for keys with more than one value (single-value keys pass
    through), which is a classic Mongo gotcha we reproduce intentionally.

    ``kill_check`` is invoked once per input document; ``killOp`` hands in
    a callable that raises :class:`~repro.errors.OperationKilled`, so a
    runaway job dies between documents rather than holding the store.
    """
    t0 = time.perf_counter()
    emitted: Dict[Any, Tuple[Any, List[Any]]] = {}
    input_count = 0
    emit_count = 0
    for doc in documents:
        if kill_check is not None:
            kill_check()
        input_count += 1
        for key, value in mapper(doc):
            emit_count += 1
            ck = _group_key(key)
            if ck in emitted:
                emitted[ck][1].append(value)
            else:
                emitted[ck] = (key, [value])
    rows: List[dict] = []
    reduce_count = 0
    for ck, (key, values) in emitted.items():
        if len(values) == 1:
            out = values[0]
        else:
            reduce_count += 1
            out = reducer(key, values)
        if finalize is not None:
            out = finalize(key, out)
        rows.append({"_id": key, "value": out})
    millis = (time.perf_counter() - t0) * 1e3
    counts = {
        "input": input_count,
        "emit": emit_count,
        "reduce": reduce_count,
        "output": len(rows),
    }
    return MapReduceResult(rows, counts, millis)
