"""Expected answers, computed from the generated documents alone.

The oracle never asks the server anything: it evaluates each request by
brute force over the generator's own lists (numpy masks for the numeric
predicates, plain dict groups for the string ones) and compares.  Every
``check_*`` returns ``None`` when the answer is right and a one-line
reason when it is not; the caller counts a reason as a failed op.

Sorted reads are compared by their *sort-key sequence* and by membership
of every returned id in the matching set, so documents that tie on the
sort key may come back in either order.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from dataset import Dataset, Op

_NUMERIC_OPS = {
    "$gte": np.greater_equal, "$gt": np.greater,
    "$lte": np.less_equal, "$lt": np.less,
}


class _Table:
    """One collection's generated documents with brute-force columns."""

    def __init__(self, docs: List[dict], id_field: str):
        self.docs = docs
        self.id_field = id_field
        self.by_id = {d[id_field]: i for i, d in enumerate(docs)}
        self._columns: Dict[str, np.ndarray] = {}

    def column(self, name: str) -> np.ndarray:
        col = self._columns.get(name)
        if col is None:
            col = np.array([d[name] for d in self.docs])
            self._columns[name] = col
        return col

    def _contains(self, name: str, value: Any) -> np.ndarray:
        key = f"{name}∋{value}"
        col = self._columns.get(key)
        if col is None:
            col = np.array([value in d[name] for d in self.docs])
            self._columns[key] = col
        return col

    def mask(self, query: Mapping[str, Any]) -> np.ndarray:
        """AND of per-field conditions: scalar equality, ``$all`` on a
        list field, and numeric comparison operators."""
        out = np.ones(len(self.docs), dtype=bool)
        for name, cond in query.items():
            if isinstance(cond, Mapping) and "$all" in cond:
                for wanted in cond["$all"]:
                    out &= self._contains(name, wanted)
            elif isinstance(cond, Mapping):
                col = self.column(name)
                for op, operand in cond.items():
                    out &= _NUMERIC_OPS[op](col, operand)
            else:
                out &= self.column(name) == cond
        return out


class Oracle:
    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.tables = {
            "materials": _Table(dataset.materials, "material_id"),
            "batteries": _Table(dataset.batteries, "battery_id"),
        }

    # -- dispatch -----------------------------------------------------------

    def check(self, op: Op, response: Any) -> Optional[str]:
        if op.kind == "http":
            return self._check_http(op, *response)
        method = op.args["method"]
        if method == "find":
            return self._check_find(op.args, response)
        if method == "count":
            expected = int(self.tables[op.args["coll"]]
                           .mask(op.args["query"]).sum())
            return None if response == expected else (
                f"count {response!r} != {expected}")
        if method == "aggregate":
            expected = self._aggregate(op)
            return None if response == expected else (
                f"aggregate rows differ: got {len(response)} rows")
        return f"no oracle for wire method {method!r}"

    # -- HTTP portal --------------------------------------------------------

    def _check_http(self, op: Op, status: int, body: Any) -> Optional[str]:
        if not isinstance(body, dict):
            return "body is not a JSON object"
        if op.cls == "not_found":
            ok = status == 404 and body.get("valid_response") is False
            return None if ok else f"expected a 404 envelope, got {status}"
        if status != 200 or body.get("valid_response") is not True:
            return f"expected 200, got {status}"
        rows = body.get("response")
        if not isinstance(rows, list):
            return "response is not a list"
        materials = self.tables["materials"]
        if op.cls == "formula_prop":
            prop = op.expect["prop"]
            expected = {
                d["material_id"]: d[prop] for d in materials.docs
                if d["reduced_formula"] == op.expect["formula"]
            }
            try:
                got = {r["material_id"]: r[prop] for r in rows}
            except (KeyError, TypeError):
                return "row lacks material_id or the property"
            ok = got == expected and len(rows) == len(expected)
            return None if ok else "formula/property rows differ"
        if op.cls == "battery":
            table = self.tables["batteries"]
            want = [table.docs[table.by_id[op.expect["battery_id"]]]]
            return None if rows == want else "battery document differs"
        if op.cls == "material_doc":
            want = [materials.docs[materials.by_id[op.expect["material_id"]]]]
            return None if rows == want else "material document differs"
        # chemsys_docs: the full documents of one chemical system, any order.
        expected_docs = {
            d["material_id"]: d for d in materials.docs
            if d["chemical_system"] == op.expect["chemsys"]
        }
        try:
            got_docs = {r["material_id"]: r for r in rows}
        except (KeyError, TypeError):
            return "row lacks material_id"
        ok = got_docs == expected_docs and len(rows) == len(expected_docs)
        return None if ok else "chemical-system documents differ"

    # -- wire reads ---------------------------------------------------------

    def _check_find(self, args: Mapping[str, Any],
                    docs: Any) -> Optional[str]:
        if not isinstance(docs, list):
            return "find result is not a list"
        table = self.tables[args["coll"]]
        matching = np.flatnonzero(table.mask(args["query"]))
        skip = args.get("skip") or 0
        limit = args.get("limit") or len(matching)
        want_n = max(0, min(limit, len(matching) - skip))
        if len(docs) != want_n:
            return f"returned {len(docs)} documents, expected {want_n}"
        try:
            ids = [d[table.id_field] for d in docs]
        except (KeyError, TypeError):
            return "document lacks its identifier"
        if len(set(ids)) != len(ids):
            return "duplicate documents returned"
        allowed = {table.docs[i][table.id_field] for i in matching}
        if not allowed.issuperset(ids):
            return "document outside the matching set"
        sort = args.get("sort")
        if sort:
            (name, direction), = sort
            keys = np.sort(table.column(name)[matching])
            if direction < 0:
                keys = keys[::-1]
            want_keys = keys[skip:skip + want_n].tolist()
            if [d.get(name) for d in docs] != want_keys:
                return f"sort order on {name!r} differs"
        if docs and not args.get("projection"):
            first = dict(docs[0])
            first.pop("_id", None)
            if first != table.docs[table.by_id[ids[0]]]:
                return "document content differs"
        return None

    def _aggregate(self, op: Op) -> List[dict]:
        groups: Dict[str, dict] = {}
        if op.cls == "agg_materials":
            for d in self.dataset.materials:
                if d["chemical_system"] != op.expect["chemsys"]:
                    continue
                g = groups.setdefault(d["reduced_formula"], {
                    "_id": d["reduced_formula"], "n": 0,
                    "min_energy": d["energy_per_atom"],
                    "max_gap": d["band_gap"]})
                g["n"] += 1
                g["min_energy"] = min(g["min_energy"], d["energy_per_atom"])
                g["max_gap"] = max(g["max_gap"], d["band_gap"])
        else:
            for d in self.dataset.batteries:
                if d["average_voltage"] < op.expect["voltage"]:
                    continue
                g = groups.setdefault(d["working_ion"], {
                    "_id": d["working_ion"], "n": 0,
                    "best": d["specific_energy"], "steps": 0})
                g["n"] += 1
                g["best"] = max(g["best"], d["specific_energy"])
                g["steps"] += d["n_steps"]
        return [groups[k] for k in sorted(groups)]


class TaskfarmLedger:
    """What the task-farm clients were told happened, to hold the server to.

    During the run: no ``fw_id`` may be claimed twice.  At the end, in the
    live server and again in the files it leaves after a graceful stop:
    every acknowledged submit, task insert and completion must be there.
    """

    def __init__(self, queue_depth: int):
        self.queue_depth = queue_depth
        self._lock = threading.Lock()
        self._claimed: set = set()
        self.acked_submits = 0
        self.acked_results = 0
        self.acked_completes = 0

    def claim(self, doc: Any) -> Optional[str]:
        if not isinstance(doc, dict) or doc.get("state") != "RUNNING":
            return "claim did not return a RUNNING engine"
        with self._lock:
            if doc["fw_id"] in self._claimed:
                return f"fw_id {doc['fw_id']} claimed twice"
            self._claimed.add(doc["fw_id"])
        return None

    def ack(self, what: str) -> None:
        with self._lock:
            setattr(self, what, getattr(self, what) + 1)

    def check_monitor(self, ready: Any, tasks: Any, fw_id: int,
                      n_clients: int) -> Optional[str]:
        # Between its submit and its claim every other client holds one
        # extra READY engine; this client holds none while it monitors.
        if not (self.queue_depth <= ready < self.queue_depth + n_clients):
            return f"READY count {ready!r} outside the steady queue depth"
        if not (isinstance(tasks, list) and len(tasks) == 1
                and tasks[0].get("fw_id") == fw_id):
            return f"task lookup for fw_id {fw_id} returned the wrong rows"
        return None

    def verify_on_disk(self, data_dir: str) -> List[str]:
        """After the server has stopped: rebuild ``engines`` and ``tasks``
        from the bytes it left on disk (snapshot files, then the journal in
        order) and count what survived.

        This reads the files with the program's own codec instead of
        reopening the directory through ``DocumentStore``: journal replay
        applies every ``update`` record with a full collection scan, so
        recovering one 16 s task-farm run takes ~20 s (README, findings)."""
        from repro.docstore.documents import document_from_json

        state: Dict[str, Dict[str, dict]] = {"engines": {}, "tasks": {}}
        for name, docs in state.items():
            path = os.path.join(data_dir, "mp", f"{name}.jsonl")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        doc = document_from_json(line)
                        docs[str(doc["_id"])] = doc
        with open(os.path.join(data_dir, "journal.jsonl"),
                  encoding="utf-8") as fh:
            for line in fh:
                record = document_from_json(line)
                payload = record["payload"]
                docs = state.get(payload["ns"])
                if record["db"] != "mp" or docs is None:
                    continue
                if record["op"] in ("insert", "update"):
                    docs[str(payload["doc"]["_id"])] = payload["doc"]
                elif record["op"] == "delete":
                    docs.pop(str(payload["_id"]), None)
        n_completed = sum(1 for d in state["engines"].values()
                          if d.get("state") == "COMPLETED")
        return self._compare(len(state["tasks"]), n_completed,
                             len(state["engines"]), "on disk")

    def verify_live(self, client: Any) -> List[str]:
        """Before the server stops: its own counts, over the wire."""
        db = client["mp"]
        return self._compare(
            db["tasks"].count_documents({}),
            db["engines"].count_documents({"state": "COMPLETED"}),
            db["engines"].count_documents({}), "in the live server")

    def _compare(self, n_tasks: int, n_completed: int, n_engines: int,
                 where: str) -> List[str]:
        problems = []
        if n_tasks != self.acked_results:
            problems.append(
                f"tasks {where} {n_tasks} != acknowledged inserts "
                f"{self.acked_results}")
        if n_completed != self.acked_completes:
            problems.append(
                f"COMPLETED engines {where} {n_completed} != acknowledged "
                f"completes {self.acked_completes}")
        if n_engines != self.queue_depth + self.acked_submits:
            problems.append(
                f"engines {where} {n_engines} != queue depth + acknowledged "
                f"submits {self.queue_depth + self.acked_submits}")
        return problems
