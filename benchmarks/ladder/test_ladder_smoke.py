"""Smoke test of the bench ladder (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ladder -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(REPO, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from dataset import SMOKE_SIZES, WORKLOADS, Dataset, Op, stream  # noqa: E402
from oracle import Oracle, TaskfarmLedger  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args: str, timeout: float = 170.0):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=REPO)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), time.monotonic() - t0


def test_spec_names_are_well_formed():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_smoke_emits_every_metric_once_per_workload():
    lines, final, elapsed = _run("--smoke", "--trace")
    assert elapsed < 60.0, f"--smoke --trace took {elapsed:.1f} s"
    spec = _spec()
    wanted = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    seen = Counter()
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("#") or len(parts) != 4:
            continue
        workload, name, value, unit = parts
        assert NAME.match(name), name
        assert wanted.get(name) == unit, (name, unit)
        float(value)
        seen[workload, name] += 1
    assert set(seen) == {(w, n) for w in WORKLOADS for n in wanted}
    assert set(seen.values()) == {1}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    for workload in WORKLOADS:
        assert set(final["metrics"][workload]) == set(wanted)


def test_aa_reports_every_end_to_end_metric():
    lines, final, _ = _run("--smoke", "--aa", "--workload",
                           "http_portal_read")
    verdicts = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "aa":
            verdicts[parts[2]] = parts[-1]
    assert set(verdicts) == {m["name"] for m in _spec()["end_to_end"]}
    assert set(verdicts.values()) <= {"within", "UNRESOLVED"}
    unresolved = {n for n, v in verdicts.items() if v == "UNRESOLVED"}
    assert {u.split(":")[1] for u in final["unresolved"]} == unresolved


# -- the oracle can fail -------------------------------------------------------

@pytest.fixture(scope="module")
def loaded():
    """The smoke dataset in an in-memory store behind the real REST router."""
    from repro.api import MaterialsAPI, QueryEngine
    from repro.docstore import DocumentStore

    dataset = Dataset(7, **SMOKE_SIZES)
    db = DocumentStore()["mp"]
    db["materials"].insert_many(dataset.materials)
    db["batteries"].insert_many(dataset.batteries)
    return dataset, Oracle(dataset), db, MaterialsAPI(QueryEngine(db))


def _answer(op: Op, db, api):
    """What a correct server answers, through the same public entry points."""
    if op.kind == "http":
        body = api.handle(op.args["path"])
        status = 200 if body["valid_response"] else body["status"]
        return status, json.loads(json.dumps(body, default=str))
    coll = db[op.args["coll"]]
    method = op.args["method"]
    if method == "count":
        return coll.count_documents(op.args["query"])
    if method == "aggregate":
        return coll.aggregate(op.args["pipeline"])
    cursor = coll.find(op.args["query"], op.args.get("projection"))
    if op.args.get("sort"):
        cursor = cursor.sort(op.args["sort"])
    docs = cursor.skip(op.args.get("skip", 0)).limit(
        op.args.get("limit", 0)).to_list()
    return json.loads(json.dumps(docs, default=str))


def _corrupt(op: Op, answer):
    answer = copy.deepcopy(answer)
    if op.kind == "http":
        status, body = answer
        if op.cls == "not_found":
            return 200, body
        row = body["response"][0]
        key = next(k for k in row if k not in ("material_id", "battery_id"))
        row[key] = "corrupted"
        return status, body
    if isinstance(answer, int):
        return answer + 1
    if op.args["method"] == "aggregate":
        answer[0]["n"] += 1
        return answer
    return answer[:-1]


@pytest.mark.parametrize("workload", [w for w in WORKLOADS
                                      if w != "wire_taskfarm_mixed"])
def test_oracle_accepts_right_answers_and_rejects_corrupted_ones(
        loaded, workload):
    dataset, oracle, db, api = loaded
    ops = stream(dataset, workload, seed=7, client=0)
    classes_rejected = set()
    for _ in range(150):
        op = next(ops)
        answer = _answer(op, db, api)
        assert oracle.check(op, answer) is None, (op, oracle.check(op, answer))
        if isinstance(answer, list) and not answer:
            continue  # nothing to corrupt in an empty result
        assert oracle.check(op, _corrupt(op, answer)) is not None, op
        classes_rejected.add(op.cls)
    assert len(classes_rejected) >= 4


def test_taskfarm_ledger_detects_double_claims_and_lost_writes(tmp_path):
    from repro.docstore import DocumentStore

    ledger = TaskfarmLedger(queue_depth=3)
    claimed = {"fw_id": 1, "state": "RUNNING"}
    assert ledger.claim(claimed) is None
    assert "claimed twice" in ledger.claim(claimed)
    assert ledger.claim({"fw_id": 2, "state": "READY"}) is not None
    assert ledger.check_monitor(3, [{"fw_id": 1}], 1, n_clients=2) is None
    assert ledger.check_monitor(2, [{"fw_id": 1}], 1, n_clients=2) is not None
    assert ledger.check_monitor(3, [], 1, n_clients=2) is not None

    store = DocumentStore(persistence_dir=str(tmp_path))
    store["mp"]["engines"].insert_many(
        [{"fw_id": i, "state": "READY"} for i in range(3)])
    store["mp"]["tasks"].insert_one({"fw_id": 1})
    store["mp"]["engines"].update_one({"fw_id": 0}, {"$set": {"state": "RUNNING"}})
    store.close()
    ledger.ack("acked_results")
    assert ledger.verify_on_disk(str(tmp_path)) == []
    assert ledger.verify_live(store) == []
    ledger.ack("acked_results")     # acknowledged, but not in the store
    ledger.ack("acked_completes")
    assert len(ledger.verify_on_disk(str(tmp_path))) == 2
    assert len(ledger.verify_live(store)) == 2
