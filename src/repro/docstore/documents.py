"""Document utilities: dotted-path access, deep copies, JSON encoding.

MongoDB addresses nested fields with dotted paths (``"spec.vasp.incar.ENCUT"``)
and treats integer path components as array indexes.  Every layer of the
reproduction — the query matcher, the update engine, the indexes, the
QueryEngine alias table — goes through the helpers in this module so the
dotted-path semantics live in exactly one place.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from typing import Any, Iterator, List, Tuple

from ..errors import DocstoreError
from .objectid import ObjectId

__all__ = [
    "MISSING",
    "split_path",
    "get_path",
    "get_path_multi",
    "set_path",
    "unset_path",
    "walk",
    "deep_copy_doc",
    "stored_copy",
    "validate_document",
    "document_to_json",
    "document_from_json",
    "doc_size_bytes",
]


class _Missing:
    """Sentinel distinguishing 'field absent' from 'field is None'."""

    _instance = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


def split_path(path: str) -> List[str]:
    """Split ``"a.b.0.c"`` into its components; reject empty components."""
    if not path:
        raise DocstoreError("empty field path")
    parts = path.split(".")
    if any(p == "" for p in parts):
        raise DocstoreError(f"field path {path!r} has an empty component")
    return parts


def get_path(doc: Any, path: str) -> Any:
    """Return the value at dotted ``path`` or :data:`MISSING`.

    Follows Mongo semantics for the *scalar* interpretation: integer parts
    index into lists; non-integer parts only traverse dicts.
    """
    current = doc
    for part in split_path(path):
        if isinstance(current, Mapping):
            if part in current:
                current = current[part]
            else:
                return MISSING
        elif isinstance(current, list):
            if part.isdigit():
                idx = int(part)
                if idx < len(current):
                    current = current[idx]
                else:
                    return MISSING
            else:
                return MISSING
        else:
            return MISSING
    return current


def get_path_multi(doc: Any, path: str) -> List[Any]:
    """Return *all* values addressed by ``path``, fanning out over arrays.

    Mongo query semantics: ``{"tags": "Li"}`` matches a document whose
    ``tags`` field is a list containing ``"Li"``.  This helper returns every
    candidate value the matcher must test: the value itself plus, for each
    array encountered along the path, each element's resolution.
    """
    results: List[Any] = []
    _collect(doc, split_path(path), 0, results)
    return results


def _collect(current: Any, parts: List[str], i: int, out: List[Any]) -> None:
    if i == len(parts):
        out.append(current)
        return
    part = parts[i]
    if isinstance(current, Mapping):
        if part in current:
            _collect(current[part], parts, i + 1, out)
    elif isinstance(current, list):
        if part.isdigit():
            idx = int(part)
            if idx < len(current):
                _collect(current[idx], parts, i + 1, out)
        # Fan out: apply remaining path to each element.
        for element in current:
            if isinstance(element, (Mapping, list)):
                _collect(element, parts, i, out)


def set_path(doc: dict, path: str, value: Any, create: bool = True) -> None:
    """Set ``path`` to ``value``, creating intermediate dicts/list slots.

    Integer components extend lists with ``None`` padding as Mongo does.
    """
    parts = split_path(path)
    current: Any = doc
    for j, part in enumerate(parts[:-1]):
        nxt = parts[j + 1]
        if isinstance(current, list):
            if not part.isdigit():
                raise DocstoreError(
                    f"cannot use non-numeric path component {part!r} on an array"
                )
            idx = int(part)
            while len(current) <= idx:
                current.append(None)
            if not isinstance(current[idx], (dict, list)) or current[idx] is None:
                if not create:
                    raise DocstoreError(f"missing intermediate at {part!r}")
                current[idx] = [] if nxt.isdigit() else {}
            current = current[idx]
        elif isinstance(current, dict):
            if part in current and not isinstance(current[part], (dict, list)) and current[part] is not None:
                raise DocstoreError(
                    f"cannot traverse scalar at {part!r} in path {path!r}"
                )
            if part not in current or not isinstance(current[part], (dict, list)):
                if not create:
                    raise DocstoreError(f"missing intermediate at {part!r}")
                current[part] = [] if nxt.isdigit() else {}
            current = current[part]
        else:
            raise DocstoreError(
                f"cannot traverse scalar value at {part!r} in path {path!r}"
            )
    last = parts[-1]
    if isinstance(current, list):
        if not last.isdigit():
            raise DocstoreError(f"cannot set field {last!r} on an array")
        idx = int(last)
        while len(current) <= idx:
            current.append(None)
        current[idx] = value
    elif isinstance(current, dict):
        current[last] = value
    else:
        raise DocstoreError(f"cannot set {last!r} on scalar in path {path!r}")


def unset_path(doc: dict, path: str) -> bool:
    """Remove the field at ``path``; return True if something was removed.

    Mongo's ``$unset`` on an array element sets it to ``None`` rather than
    shifting later elements; we reproduce that.
    """
    parts = split_path(path)
    current: Any = doc
    for part in parts[:-1]:
        if isinstance(current, Mapping):
            if part not in current:
                return False
            current = current[part]
        elif isinstance(current, list) and part.isdigit():
            idx = int(part)
            if idx >= len(current):
                return False
            current = current[idx]
        else:
            return False
    last = parts[-1]
    if isinstance(current, dict):
        if last in current:
            del current[last]
            return True
        return False
    if isinstance(current, list) and last.isdigit():
        idx = int(last)
        if idx < len(current):
            current[idx] = None
            return True
    return False


def walk(doc: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Yield ``(dotted_path, leaf_value)`` for every leaf of the document.

    Used by the complexity analyzer (Table I) and the V&V rule engine.
    Containers themselves are not yielded, only scalar leaves; empty
    containers are yielded as their own leaves so they are not invisible.
    """
    if isinstance(doc, Mapping):
        if not doc and prefix:
            yield prefix, doc
        for key, value in doc.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            yield from walk(value, sub)
    elif isinstance(doc, list):
        if not doc and prefix:
            yield prefix, doc
        for i, value in enumerate(doc):
            sub = f"{prefix}.{i}" if prefix else str(i)
            yield from walk(value, sub)
    else:
        yield prefix, doc


def deep_copy_doc(doc: Any) -> Any:
    """Deep-copy a document.

    Documents are JSON-like trees plus ObjectIds; ObjectIds are immutable so
    they are shared rather than copied.  A hand-rolled walk is several times
    faster than :func:`copy.deepcopy` for these shapes, and the collection
    copies every document on the way in and out, so this is hot.
    """
    if isinstance(doc, dict):
        return {k: deep_copy_doc(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [deep_copy_doc(v) for v in doc]
    if isinstance(doc, tuple):
        return [deep_copy_doc(v) for v in doc]
    return doc


def stored_copy(doc: Any) -> Any:
    """:func:`deep_copy_doc` for a document on its way *into* a collection:
    field names are interned.

    A JSON decoder gives every document its own copy of each key string;
    stored documents share one per distinct name, which is ~6 % of the
    server's resident memory on the bench ladder.  Copy-out keeps the plain
    walk above: its keys are already the shared ones.
    """
    if isinstance(doc, dict):
        return {sys.intern(k) if type(k) is str else k: stored_copy(v)
                for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [stored_copy(v) for v in doc]
    return doc


_SCALARS = (str, int, float, bool, bytes, ObjectId, type(None))


def validate_document(doc: Any, _depth: int = 0) -> None:
    """Reject values a JSON-documents store cannot hold.

    Allowed: dicts with string keys, lists, str/int/float/bool/None/bytes and
    ObjectId.  NaN/Inf floats are allowed (Mongo allows them) but callers can
    screen them with V&V rules.  Depth is capped at 100 like MongoDB.
    """
    if _depth > 100:
        raise DocstoreError("document nesting exceeds 100 levels")
    if isinstance(doc, dict):
        for key, value in doc.items():
            if not isinstance(key, str):
                raise DocstoreError(f"document keys must be strings, got {key!r}")
            if key and "\x00" in key:
                raise DocstoreError("document keys may not contain NUL")
            validate_document(value, _depth + 1)
    elif isinstance(doc, (list, tuple)):
        for value in doc:
            validate_document(value, _depth + 1)
    elif not isinstance(doc, _SCALARS):
        raise DocstoreError(
            f"unsupported value type {type(doc).__name__!r} in document"
        )


class DocumentJSONEncoder(json.JSONEncoder):
    """JSON encoder rendering ObjectIds as ``{"$oid": "<hex>"}``."""

    def default(self, o: Any) -> Any:
        if isinstance(o, ObjectId):
            return {"$oid": o.hex()}
        if isinstance(o, bytes):
            return {"$bytes": o.hex()}
        return super().default(o)


def _decode_hook(obj: dict) -> Any:
    if len(obj) == 1:
        if "$oid" in obj and isinstance(obj["$oid"], str):
            return ObjectId(obj["$oid"])
        if "$bytes" in obj and isinstance(obj["$bytes"], str):
            return bytes.fromhex(obj["$bytes"])
    return obj


def document_to_json(doc: Any, **kwargs: Any) -> str:
    """Serialize a document to extended JSON (round-trips ObjectIds)."""
    return json.dumps(doc, cls=DocumentJSONEncoder, **kwargs)


def document_from_json(text: str) -> Any:
    """Parse extended JSON produced by :func:`document_to_json`."""
    return json.loads(text, object_hook=_decode_hook)


def doc_size_bytes(doc: Any) -> int:
    """Approximate on-disk size of a document (its JSON byte length)."""
    return len(document_to_json(doc).encode("utf-8"))
