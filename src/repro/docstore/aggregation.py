"""Aggregation pipeline: ``$match $project $group $sort $skip $limit $unwind
$count $addFields $lookup $sample``.

The materials builder (§III-B3) performs "selection, grouping, and
projection" over the tasks collection; the web API computes per-chemistry
summaries.  Both are expressed as pipelines here, mirroring how a modern
MongoDB deployment would do it.

Expression language subset: field paths (``"$field.sub"``), literals,
``$sum $avg $min $max $first $last $push $addToSet $count`` accumulators in
``$group``, and ``$add $subtract $multiply $divide $concat $toLower $toUpper
$size $abs $cond $ifNull $literal`` in projections.

Stages never write into the documents they are given: they may pass them
(or parts of them) through, and write only into dicts they built or copied.
That is what lets ``Collection.aggregate`` feed them stored documents
without a snapshot copy; it copies the rows that come out instead.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from ..errors import QuerySyntaxError
from .documents import MISSING, deep_copy_doc, get_path, set_path
from .matching import compile_query, ordering_key, sort_documents, _values_equal

__all__ = ["run_pipeline", "evaluate_expression", "pipeline_stage_names"]

#: Stage names recorded per pipeline shape before the list is truncated —
#: keeps profiler/access-analytics shapes bounded for adversarial inputs.
MAX_SHAPE_STAGES = 8

#: Module-local RNG for ``$sample``: shared across pipelines so repeated
#: unseeded samples stay cheap, and deliberately *not* the global
#: ``random`` module so aggregation never perturbs test/chaos-lane seeds.
_SAMPLE_RNG = random.Random()


def evaluate_expression(expr: Any, doc: Mapping[str, Any]) -> Any:
    """Evaluate an aggregation expression against a document."""
    if isinstance(expr, str) and expr.startswith("$$"):
        raise QuerySyntaxError(f"system variables not supported: {expr!r}")
    if isinstance(expr, str) and expr.startswith("$"):
        value = get_path(doc, expr[1:])
        return None if value is MISSING else value
    if isinstance(expr, Mapping):
        op_keys = [k for k in expr if isinstance(k, str) and k.startswith("$")]
        if op_keys:
            if len(expr) != 1:
                raise QuerySyntaxError(f"expression {expr!r} must have one operator")
            op = op_keys[0]
            return _eval_operator(op, expr[op], doc)
        return {k: evaluate_expression(v, doc) for k, v in expr.items()}
    if isinstance(expr, list):
        return [evaluate_expression(e, doc) for e in expr]
    return expr


def _numeric_args(op: str, operand: Any, doc: Mapping[str, Any]) -> List[float]:
    if not isinstance(operand, list):
        operand = [operand]
    values = [evaluate_expression(e, doc) for e in operand]
    out = []
    for v in values:
        if v is None:
            out.append(0.0)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise QuerySyntaxError(f"{op} requires numeric arguments, got {v!r}")
        else:
            out.append(v)
    return out


def _eval_operator(op: str, operand: Any, doc: Mapping[str, Any]) -> Any:
    if op == "$literal":
        return operand
    if op == "$add":
        return sum(_numeric_args(op, operand, doc))
    if op == "$subtract":
        args = _numeric_args(op, operand, doc)
        if len(args) != 2:
            raise QuerySyntaxError("$subtract requires two arguments")
        return args[0] - args[1]
    if op == "$multiply":
        out = 1.0
        for v in _numeric_args(op, operand, doc):
            out *= v
        return out
    if op == "$divide":
        args = _numeric_args(op, operand, doc)
        if len(args) != 2:
            raise QuerySyntaxError("$divide requires two arguments")
        if args[1] == 0:
            raise QuerySyntaxError("$divide by zero")
        return args[0] / args[1]
    if op == "$abs":
        return abs(_numeric_args(op, operand, doc)[0])
    if op == "$concat":
        parts = [evaluate_expression(e, doc) for e in operand]
        if any(p is None for p in parts):
            return None
        if not all(isinstance(p, str) for p in parts):
            raise QuerySyntaxError("$concat requires strings")
        return "".join(parts)
    if op == "$toLower":
        v = evaluate_expression(operand, doc)
        return "" if v is None else str(v).lower()
    if op == "$toUpper":
        v = evaluate_expression(operand, doc)
        return "" if v is None else str(v).upper()
    if op == "$size":
        v = evaluate_expression(operand, doc)
        if not isinstance(v, list):
            raise QuerySyntaxError("$size requires an array")
        return len(v)
    if op == "$cond":
        if isinstance(operand, Mapping):
            branches = [operand.get("if"), operand.get("then"), operand.get("else")]
        elif isinstance(operand, list) and len(operand) == 3:
            branches = operand
        else:
            raise QuerySyntaxError("$cond requires [if, then, else]")
        return (
            evaluate_expression(branches[1], doc)
            if evaluate_expression(branches[0], doc)
            else evaluate_expression(branches[2], doc)
        )
    if op == "$ifNull":
        if not isinstance(operand, list) or len(operand) != 2:
            raise QuerySyntaxError("$ifNull requires two arguments")
        v = evaluate_expression(operand[0], doc)
        return evaluate_expression(operand[1], doc) if v is None else v
    if op in ("$eq", "$ne", "$gt", "$gte", "$lt", "$lte"):
        if not isinstance(operand, list) or len(operand) != 2:
            raise QuerySyntaxError(f"{op} requires two arguments")
        a = evaluate_expression(operand[0], doc)
        b = evaluate_expression(operand[1], doc)
        from .matching import compare_values

        c = compare_values(a, b)
        return {
            "$eq": c == 0,
            "$ne": c != 0,
            "$gt": c > 0,
            "$gte": c >= 0,
            "$lt": c < 0,
            "$lte": c <= 0,
        }[op]
    raise QuerySyntaxError(f"unknown aggregation operator {op!r}")


# --------------------------------------------------------------------------
# $group accumulators
# --------------------------------------------------------------------------


class _Accumulator:
    def __init__(self, op: str, expr: Any):
        self.op = op
        self.expr = expr
        self.values: List[Any] = []

    def feed(self, doc: Mapping[str, Any]) -> None:
        if self.op == "$count":
            self.values.append(1)
        else:
            self.values.append(evaluate_expression(self.expr, doc))

    def result(self) -> Any:
        vals = self.values
        if self.op in ("$sum", "$count"):
            return sum(v for v in vals if isinstance(v, (int, float)) and not isinstance(v, bool))
        if self.op == "$avg":
            nums = [v for v in vals if isinstance(v, (int, float)) and not isinstance(v, bool)]
            return sum(nums) / len(nums) if nums else None
        if self.op == "$min":
            present = [v for v in vals if v is not None]
            return min(present, key=ordering_key) if present else None
        if self.op == "$max":
            present = [v for v in vals if v is not None]
            return max(present, key=ordering_key) if present else None
        if self.op == "$first":
            return vals[0] if vals else None
        if self.op == "$last":
            return vals[-1] if vals else None
        if self.op == "$push":
            return list(vals)
        if self.op == "$addToSet":
            out: List[Any] = []
            for v in vals:
                if not any(_values_equal(v, e) for e in out):
                    out.append(v)
            return out
        raise QuerySyntaxError(f"unknown accumulator {self.op!r}")


_ACCUMULATORS = {"$sum", "$avg", "$min", "$max", "$first", "$last", "$push", "$addToSet", "$count"}


def _group_key(value: Any) -> Any:
    """Hashable form of a group key (dicts/lists become tuples)."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _group_key(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_group_key(v) for v in value)
    return value


# --------------------------------------------------------------------------
# Pipeline stages
# --------------------------------------------------------------------------


def _stage_match(docs: List[dict], spec: Mapping[str, Any], db: Any) -> List[dict]:
    matcher = compile_query(spec)
    return [d for d in docs if matcher.matches(d)]


def _reject_path_collisions(stage: str, paths: Iterable[str]) -> None:
    """MongoDB's rule that no computed path is a prefix of another.  Here
    it also keeps ``{"a": "$sub", "a.b": 1}`` from writing ``b`` into the
    input's ``sub``, which may be a stored document's."""
    paths = list(paths)
    for p in paths:
        if any(q.startswith(p + ".") for q in paths):
            raise QuerySyntaxError(f"{stage}: path collision at {p!r}")


def _stage_project(docs: List[dict], spec: Mapping[str, Any], db: Any) -> List[dict]:
    include = {k: v for k, v in spec.items() if v in (1, True)}
    exclude = {k for k, v in spec.items() if v in (0, False)}
    computed = {
        k: v for k, v in spec.items() if not isinstance(v, bool) and v not in (0, 1)
    }
    _reject_path_collisions("$project", computed)
    out = []
    for doc in docs:
        if include or computed:
            new: dict = {}
            if "_id" not in exclude and "_id" in doc:
                new["_id"] = deep_copy_doc(doc["_id"])
            for path in include:
                if path == "_id":
                    continue
                value = get_path(doc, path)
                if value is not MISSING:
                    set_path(new, path, deep_copy_doc(value))
            for path, expr in computed.items():
                set_path(new, path, evaluate_expression(expr, doc))
        else:
            new = deep_copy_doc(doc)
            for path in exclude:
                from .documents import unset_path

                unset_path(new, path)
        out.append(new)
    return out


def _stage_add_fields(docs: List[dict], spec: Mapping[str, Any], db: Any) -> List[dict]:
    _reject_path_collisions("$addFields", spec)
    out = []
    for doc in docs:
        new = deep_copy_doc(doc)
        for path, expr in spec.items():
            set_path(new, path, evaluate_expression(expr, doc))
        out.append(new)
    return out


def _stage_group(docs: List[dict], spec: Mapping[str, Any], db: Any) -> List[dict]:
    if "_id" not in spec:
        raise QuerySyntaxError("$group requires an _id expression")
    id_expr = spec["_id"]
    acc_specs: Dict[str, tuple] = {}
    for field, acc in spec.items():
        if field == "_id":
            continue
        if not isinstance(acc, Mapping) or len(acc) != 1:
            raise QuerySyntaxError(f"accumulator for {field!r} must be a single-op doc")
        op, expr = next(iter(acc.items()))
        if op not in _ACCUMULATORS:
            raise QuerySyntaxError(f"unknown accumulator {op!r}")
        acc_specs[field] = (op, expr)
    groups: Dict[Any, tuple] = {}
    order: List[Any] = []
    for doc in docs:
        key_value = evaluate_expression(id_expr, doc) if id_expr is not None else None
        key = _group_key(key_value)
        if key not in groups:
            accs = {f: _Accumulator(op, expr) for f, (op, expr) in acc_specs.items()}
            groups[key] = (key_value, accs)
            order.append(key)
        _, accs = groups[key]
        for acc in accs.values():
            acc.feed(doc)
    out = []
    for key in order:
        key_value, accs = groups[key]
        row = {"_id": key_value}
        for field, acc in accs.items():
            row[field] = acc.result()
        out.append(row)
    return out


def _stage_sort(docs: List[dict], spec: Mapping[str, Any], db: Any) -> List[dict]:
    if any(direction not in (1, -1) for direction in spec.values()):
        raise QuerySyntaxError("$sort direction must be 1 or -1")
    return sort_documents(docs, spec.items())


def _stage_skip(docs: List[dict], spec: Any, db: Any) -> List[dict]:
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 0:
        raise QuerySyntaxError("$skip requires a non-negative integer")
    return docs[spec:]


def _stage_limit(docs: List[dict], spec: Any, db: Any) -> List[dict]:
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 0:
        raise QuerySyntaxError("$limit requires a non-negative integer")
    return docs[:spec]


def _stage_unwind(docs: List[dict], spec: Any, db: Any) -> List[dict]:
    if isinstance(spec, str):
        path = spec
        keep_empty = False
    elif isinstance(spec, Mapping):
        path = spec.get("path", "")
        keep_empty = bool(spec.get("preserveNullAndEmptyArrays", False))
    else:
        raise QuerySyntaxError("$unwind requires a path")
    if not path.startswith("$"):
        raise QuerySyntaxError("$unwind path must start with '$'")
    field = path[1:]
    out = []
    for doc in docs:
        value = get_path(doc, field)
        if value is MISSING or value is None or (isinstance(value, list) and not value):
            if keep_empty:
                out.append(deep_copy_doc(doc))
            continue
        elements = value if isinstance(value, list) else [value]
        for element in elements:
            new = deep_copy_doc(doc)
            set_path(new, field, deep_copy_doc(element))
            out.append(new)
    return out


def _stage_count(docs: List[dict], spec: Any, db: Any) -> List[dict]:
    if not isinstance(spec, str) or not spec:
        raise QuerySyntaxError("$count requires a field name")
    return [{spec: len(docs)}]


def _stage_lookup(docs: List[dict], spec: Mapping[str, Any], db: Any) -> List[dict]:
    required = {"from", "localField", "foreignField", "as"}
    if not isinstance(spec, Mapping) or set(spec) != required:
        raise QuerySyntaxError(f"$lookup requires exactly {sorted(required)}")
    if db is None:
        raise QuerySyntaxError("$lookup requires a database-bound collection")
    foreign = db.get_collection(spec["from"])
    # Stored references (immutable, see collection.py); only matches are
    # copied below.
    with foreign._lock.read():
        foreign_docs = [foreign._docs[p] for p in sorted(foreign._docs)]
    out = []
    for doc in docs:
        local = get_path(doc, spec["localField"])
        local = None if local is MISSING else local
        matches = []
        for fd in foreign_docs:
            fv = get_path(fd, spec["foreignField"])
            fv = None if fv is MISSING else fv
            if _values_equal(local, fv) or (
                isinstance(local, list) and any(_values_equal(e, fv) for e in local)
            ):
                matches.append(deep_copy_doc(fd))
        new = deep_copy_doc(doc)
        set_path(new, spec["as"], matches)
        out.append(new)
    return out


def _stage_sample(docs: List[dict], spec: Mapping[str, Any], db: Any) -> List[dict]:
    if not isinstance(spec, Mapping) or "size" not in spec:
        raise QuerySyntaxError("$sample requires {'size': n}")
    n = spec["size"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise QuerySyntaxError("$sample size must be a non-negative integer")
    if n >= len(docs):
        return list(docs)
    seed = spec.get("seed")
    rng = _SAMPLE_RNG if seed is None else random.Random(seed)
    return rng.sample(docs, n)


_STAGES: Dict[str, Callable[[List[dict], Any, Any], List[dict]]] = {
    "$match": _stage_match,
    "$project": _stage_project,
    "$addFields": _stage_add_fields,
    "$group": _stage_group,
    "$sort": _stage_sort,
    "$skip": _stage_skip,
    "$limit": _stage_limit,
    "$unwind": _stage_unwind,
    "$count": _stage_count,
    "$lookup": _stage_lookup,
    "$sample": _stage_sample,
}


def pipeline_stage_names(pipeline: List[Mapping[str, Any]],
                         max_stages: int = MAX_SHAPE_STAGES) -> List[str]:
    """The pipeline's ordered stage names, truncated past ``max_stages``.

    This is the pipeline's *shape* — what the profiler, advisor, and
    access analytics record instead of raw specs (no user values, bounded
    length), and enough to tell a ``$match``-led pipeline from a
    ``$group``-led one.
    """
    names: List[str] = []
    for stage in pipeline:
        if isinstance(stage, Mapping) and len(stage) == 1:
            names.append(next(iter(stage)))
        else:
            names.append("<invalid>")
    if len(names) > max_stages:
        extra = len(names) - max_stages
        names = names[:max_stages] + [f"+{extra} more"]
    return names


def run_pipeline(
    docs: List[dict],
    pipeline: List[Mapping[str, Any]],
    database: Optional[Any] = None,
    stage_stats: Optional[List[dict]] = None,
) -> List[dict]:
    """Execute ``pipeline`` over ``docs`` and return the resulting documents.

    When ``stage_stats`` is a list, one ``executionStats``-style record is
    appended per stage: ``{"stage", "docs_in", "docs_out", "elapsed_ms"}``
    plus ``"state_size"`` for the stages that hold intermediate state —
    ``$group`` (number of distinct groups) and ``$sort`` (documents held
    for the blocking sort).  This is the data behind
    ``Collection.aggregate(..., explain=True)``.
    """
    if not isinstance(pipeline, list):
        raise QuerySyntaxError("pipeline must be a list of stages")
    current = docs
    for stage in pipeline:
        if not isinstance(stage, Mapping) or len(stage) != 1:
            raise QuerySyntaxError(f"each stage must be a single-key doc, got {stage!r}")
        name, spec = next(iter(stage.items()))
        handler = _STAGES.get(name)
        if handler is None:
            raise QuerySyntaxError(f"unknown pipeline stage {name!r}")
        if stage_stats is None:
            current = handler(current, spec, database)
            continue
        docs_in = len(current)
        t0 = time.perf_counter()
        current = handler(current, spec, database)
        record = {
            "stage": name,
            "docs_in": docs_in,
            "docs_out": len(current),
            "elapsed_ms": (time.perf_counter() - t0) * 1e3,
        }
        if name == "$group":
            record["state_size"] = len(current)
        elif name == "$sort":
            record["state_size"] = docs_in
        stage_stats.append(record)
    return current
