"""Update-operator engine implementing MongoDB atomic update documents.

The paper's FireWorks engine stores Fuse parameter overrides "as a Python
dict that is similar to Mongo atomic update syntax (e.g. $set, $unset, etc.)"
(§III-C2), and the workflow state machine advances jobs with atomic updates
against the ``engines`` collection.  This module provides exactly that
semantics: an update document is applied to a document *in place*, and the
same code path powers both collection updates and Fuse overrides.

Supported operators: ``$set $unset $inc $mul $min $max $rename $push $pull
$addToSet $pop $pullAll $setOnInsert $currentDate``.  A plain document with
no ``$`` keys replaces the whole document except ``_id`` (Mongo replacement
semantics).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping

from ..errors import UpdateSyntaxError
from .documents import MISSING, get_path, set_path, unset_path
from .matching import compile_query, _is_operator_doc, _values_equal

__all__ = ["apply_update", "is_operator_update", "UPDATE_OPERATORS"]

UPDATE_OPERATORS = frozenset(
    {
        "$set", "$unset", "$inc", "$mul", "$min", "$max", "$rename",
        "$push", "$pull", "$addToSet", "$pop", "$pullAll",
        "$setOnInsert", "$currentDate",
    }
)


def is_operator_update(update: Mapping[str, Any]) -> bool:
    """True if ``update`` is an operator document rather than a replacement."""
    if not isinstance(update, Mapping):
        raise UpdateSyntaxError("update must be a document")
    has_ops = any(k.startswith("$") for k in update)
    if has_ops and not all(k.startswith("$") for k in update):
        raise UpdateSyntaxError("cannot mix operator and non-operator fields")
    return has_ops


def _require_number(value: Any, op: str, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UpdateSyntaxError(f"{op} requires numeric operand for {path!r}")
    return value


def _ensure_list_target(doc: dict, path: str, op: str) -> List[Any]:
    current = get_path(doc, path)
    if current is MISSING or current is None:
        new_list: List[Any] = []
        set_path(doc, path, new_list)
        return new_list
    if not isinstance(current, list):
        raise UpdateSyntaxError(f"{op} target {path!r} is not an array")
    return current


def apply_update(
    doc: dict,
    update: Mapping[str, Any],
    *,
    is_insert: bool = False,
) -> dict:
    """Apply ``update`` to ``doc`` in place and return it.

    ``is_insert`` enables ``$setOnInsert`` (used by upserts).  Raises
    :class:`UpdateSyntaxError` on malformed updates, leaving the document
    unmodified if validation fails before any mutation (operator arguments
    are validated eagerly per clause).
    """
    if not is_operator_update(update):
        # Replacement: keep _id, replace everything else.
        preserved = doc.get("_id", MISSING)
        doc.clear()
        for key, value in update.items():
            doc[key] = value
        if preserved is not MISSING and "_id" not in doc:
            doc["_id"] = preserved
        return doc

    for op, clause in update.items():
        if op not in UPDATE_OPERATORS:
            raise UpdateSyntaxError(f"unknown update operator {op!r}")
        if not isinstance(clause, Mapping):
            raise UpdateSyntaxError(f"{op} requires a document of field/value pairs")
        handler = _HANDLERS[op]
        for path, operand in clause.items():
            if path == "_id" and op != "$setOnInsert":
                raise UpdateSyntaxError("cannot update the _id field")
            handler(doc, path, operand, is_insert)
    return doc


def _op_set(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    set_path(doc, path, operand)


def _op_set_on_insert(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    if is_insert:
        set_path(doc, path, operand)


def _op_unset(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    unset_path(doc, path)


def _op_inc(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    amount = _require_number(operand, "$inc", path)
    current = get_path(doc, path)
    if current is MISSING or current is None:
        set_path(doc, path, amount)
        return
    base = _require_number(current, "$inc", path)
    set_path(doc, path, base + amount)


def _op_mul(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    factor = _require_number(operand, "$mul", path)
    current = get_path(doc, path)
    if current is MISSING or current is None:
        set_path(doc, path, 0 if isinstance(factor, int) else 0.0)
        return
    base = _require_number(current, "$mul", path)
    set_path(doc, path, base * factor)


def _op_min(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    current = get_path(doc, path)
    if current is MISSING:
        set_path(doc, path, operand)
        return
    from .matching import compare_values

    if compare_values(operand, current) < 0:
        set_path(doc, path, operand)


def _op_max(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    current = get_path(doc, path)
    if current is MISSING:
        set_path(doc, path, operand)
        return
    from .matching import compare_values

    if compare_values(operand, current) > 0:
        set_path(doc, path, operand)


def _op_rename(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    if not isinstance(operand, str) or not operand:
        raise UpdateSyntaxError("$rename requires a non-empty string target")
    if operand == path:
        raise UpdateSyntaxError("$rename source and target are identical")
    value = get_path(doc, path)
    if value is MISSING:
        return
    unset_path(doc, path)
    set_path(doc, operand, value)


def _op_push(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    target = _ensure_list_target(doc, path, "$push")
    if isinstance(operand, Mapping) and "$each" in operand:
        each = operand["$each"]
        if not isinstance(each, list):
            raise UpdateSyntaxError("$push $each requires an array")
        unknown = set(operand) - {"$each", "$slice", "$sort", "$position"}
        if unknown:
            raise UpdateSyntaxError(f"unknown $push modifiers: {sorted(unknown)}")
        position = operand.get("$position")
        if position is None:
            target.extend(each)
        else:
            if isinstance(position, bool) or not isinstance(position, int):
                raise UpdateSyntaxError("$position requires an integer")
            target[position:position] = each
        if "$sort" in operand:
            _push_sort(target, operand["$sort"])
        if "$slice" in operand:
            n = operand["$slice"]
            if isinstance(n, bool) or not isinstance(n, int):
                raise UpdateSyntaxError("$slice requires an integer")
            new = target[n:] if n < 0 else target[:n]
            target[:] = new
    else:
        target.append(operand)


def _push_sort(target: List[Any], spec: Any) -> None:
    from .matching import ordering_key, sort_documents

    if isinstance(spec, int) and not isinstance(spec, bool):
        if spec not in (1, -1):
            raise UpdateSyntaxError("$sort direction must be 1 or -1")
        target.sort(key=ordering_key, reverse=spec == -1)
    elif isinstance(spec, Mapping):
        if any(direction not in (1, -1) for direction in spec.values()):
            raise UpdateSyntaxError("$sort direction must be 1 or -1")
        target[:] = sort_documents(target, spec.items())
    else:
        raise UpdateSyntaxError("$sort requires 1, -1, or a field/direction doc")


def _op_add_to_set(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    target = _ensure_list_target(doc, path, "$addToSet")
    if isinstance(operand, Mapping) and "$each" in operand:
        each = operand["$each"]
        if not isinstance(each, list):
            raise UpdateSyntaxError("$addToSet $each requires an array")
        candidates = each
    else:
        candidates = [operand]
    for cand in candidates:
        if not any(_values_equal(cand, existing) for existing in target):
            target.append(cand)


def _op_pop(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    if operand not in (1, -1):
        raise UpdateSyntaxError("$pop requires 1 (last) or -1 (first)")
    current = get_path(doc, path)
    if current is MISSING or current is None:
        return
    if not isinstance(current, list):
        raise UpdateSyntaxError(f"$pop target {path!r} is not an array")
    if current:
        current.pop(-1 if operand == 1 else 0)


def _op_pull(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    current = get_path(doc, path)
    if current is MISSING or current is None:
        return
    if not isinstance(current, list):
        raise UpdateSyntaxError(f"$pull target {path!r} is not an array")
    if _is_operator_doc(operand):
        matcher = compile_query({"v": operand})
        keep = [e for e in current if not matcher.matches({"v": e})]
    elif isinstance(operand, Mapping):
        matcher = compile_query(operand)
        keep = [
            e
            for e in current
            if not (isinstance(e, Mapping) and matcher.matches(e))
        ]
    else:
        keep = [e for e in current if not _values_equal(e, operand)]
    current[:] = keep


def _op_pull_all(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    if not isinstance(operand, list):
        raise UpdateSyntaxError("$pullAll requires an array")
    current = get_path(doc, path)
    if current is MISSING or current is None:
        return
    if not isinstance(current, list):
        raise UpdateSyntaxError(f"$pullAll target {path!r} is not an array")
    current[:] = [
        e for e in current if not any(_values_equal(e, v) for v in operand)
    ]


def _op_current_date(doc: dict, path: str, operand: Any, is_insert: bool) -> None:
    if operand is not True and operand != {"$type": "timestamp"} and operand != {
        "$type": "date"
    }:
        raise UpdateSyntaxError("$currentDate requires true or {'$type': ...}")
    set_path(doc, path, time.time())


_HANDLERS: Dict[str, Any] = {
    "$set": _op_set,
    "$setOnInsert": _op_set_on_insert,
    "$unset": _op_unset,
    "$inc": _op_inc,
    "$mul": _op_mul,
    "$min": _op_min,
    "$max": _op_max,
    "$rename": _op_rename,
    "$push": _op_push,
    "$addToSet": _op_add_to_set,
    "$pop": _op_pop,
    "$pull": _op_pull,
    "$pullAll": _op_pull_all,
    "$currentDate": _op_current_date,
}
