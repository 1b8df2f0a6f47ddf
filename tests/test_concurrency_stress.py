"""Chaos lane: concurrent stress over the wire + crash-recovery.

These tests hammer one server with many writer and reader threads and then
check global invariants — no torn reads, no lost acknowledged writes, index
entries consistent with documents.  Knobs come from the environment so the
CI chaos job (and the weekly soak) can turn up the heat:

* ``CHAOS_DURATION_S``  — seconds each stress phase runs (default 1.5)
* ``CHAOS_WRITERS``     — writer thread count (default 4)
* ``CHAOS_READERS``     — reader thread count (default 4)
"""

import itertools
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from repro.docstore import (
    DatastoreServer, DocumentStore, RemoteClient, document_to_json,
)

DURATION_S = float(os.environ.get("CHAOS_DURATION_S", "1.5"))
N_WRITERS = int(os.environ.get("CHAOS_WRITERS", "4"))
N_READERS = int(os.environ.get("CHAOS_READERS", "4"))
N_GROUPS = 4


@pytest.fixture
def server():
    srv = DatastoreServer(DocumentStore())
    srv.start()
    yield srv
    srv.stop()


def _writer(client, writer_id, stop, live_keys, errors):
    """Insert / balanced-update / delete its own keys; records live set."""
    coll = client["mp"]["stress"]
    i = 0
    try:
        while not stop.is_set():
            key = f"w{writer_id}-{i}"
            coll.insert_one({
                "k": key, "group": i % N_GROUPS, "a": i, "b": -i,
            })
            live_keys.add(key)
            if i % 3 == 2:
                # Balanced increment: a+b stays 0 for every doc, always.
                coll.update_one({"k": key},
                                {"$inc": {"a": 7, "b": -7}})
            if i % 5 == 4:
                victim = f"w{writer_id}-{i - 4}"
                coll.delete_one({"k": victim})
                live_keys.discard(victim)
            i += 1
    except Exception as exc:  # pragma: no cover - failure reporting
        errors.append(f"writer {writer_id}: {exc!r}")


def _reader(client, reader_id, stop, errors):
    """Torn-read detector: every doc must satisfy a + b == 0."""
    coll = client["mp"]["stress"]
    g = reader_id % N_GROUPS
    try:
        while not stop.is_set():
            for doc in coll.find({"group": g}):
                if doc["a"] + doc["b"] != 0:
                    errors.append(
                        f"reader {reader_id}: torn read {doc['k']}: "
                        f"a={doc['a']} b={doc['b']}"
                    )
                    return
            coll.count_documents({"group": g})
    except Exception as exc:  # pragma: no cover - failure reporting
        errors.append(f"reader {reader_id}: {exc!r}")


class TestWireStress:
    def test_concurrent_writers_and_readers_hold_invariants(self, server):
        setup = RemoteClient("127.0.0.1", server.port)
        setup["mp"]["stress"].create_index("group")
        setup["mp"]["stress"].create_index("k", unique=True)
        setup.close()

        stop = threading.Event()
        errors: list = []
        live_sets = [set() for _ in range(N_WRITERS)]
        clients = [RemoteClient("127.0.0.1", server.port, pool_size=2)
                   for _ in range(N_WRITERS + N_READERS)]
        threads = [
            threading.Thread(target=_writer,
                             args=(clients[w], w, stop, live_sets[w], errors))
            for w in range(N_WRITERS)
        ] + [
            threading.Thread(target=_reader,
                             args=(clients[N_WRITERS + r], r, stop, errors))
            for r in range(N_READERS)
        ]
        for t in threads:
            t.start()
        time.sleep(DURATION_S)
        stop.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "stress thread wedged"
        assert errors == [], errors

        # Acknowledged-write accounting: the store holds exactly the keys
        # every writer believes are live.
        coll = server.store["mp"]["stress"]
        expected = set().union(*live_sets)
        actual = {d["k"] for d in coll.all_documents()}
        assert actual == expected
        assert coll.count_documents() == len(expected)

        # Index consistency: every index tracked every surviving doc, and
        # an indexed find agrees with a raw scan.
        for name, info in coll.index_information().items():
            assert info["entries"] == len(expected), name
        for g in range(N_GROUPS):
            indexed = sorted(d["k"] for d in coll.find({"group": g}))
            scanned = sorted(d["k"] for d in coll.all_documents()
                             if d["group"] == g)
            assert indexed == scanned

        # The RW locks actually saw traffic and surfaced it.
        locks = server.store.server_status()["locks"]
        assert locks["read_acquires"] > 0
        assert locks["write_acquires"] > 0

        for c in clients:
            c.close()

    def test_encoded_reads_never_see_a_torn_document(self, server):
        """The server encodes ``find`` answers from stored references after
        releasing the collection lock.  Writers setting ``a`` and ``b``
        together must never show a reader one without the other, and no
        encode may race a write (``dictionary changed size during
        iteration`` would come back as a remote ``RuntimeError``)."""
        n_docs = 64
        server.store["mp"]["encode"].insert_many(
            [{"_id": i, "a": 0, "b": 0, "pad": {"xs": list(range(16))}}
             for i in range(n_docs)])
        stop = threading.Event()
        errors: list = []
        reads = [0]

        def write(client, seed):
            coll = client["mp"]["encode"]
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    v = rng.randint(1, 10**6)
                    coll.update_one({"_id": rng.randrange(n_docs)},
                                    {"$set": {"a": v, "b": -v}})
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"writer {seed}: {exc!r}")

        def read(client, seed):
            coll = client["mp"]["encode"]
            try:
                while not stop.is_set():
                    docs = coll.find({})
                    torn = [d for d in docs if d["a"] + d["b"] != 0]
                    if len(docs) != n_docs or torn:
                        errors.append(f"reader {seed}: {len(docs)} docs, "
                                      f"torn {torn[:3]}")
                        return
                    reads[0] += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"reader {seed}: {exc!r}")

        clients = [RemoteClient("127.0.0.1", server.port, pool_size=1)
                   for _ in range(N_WRITERS + N_READERS)]
        threads = [
            threading.Thread(target=write if i < N_WRITERS else read,
                             args=(c, i))
            for i, c in enumerate(clients)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            time.sleep(DURATION_S)
        finally:
            stop.set()
            sys.setswitchinterval(previous)
            for t in threads:
                t.join(timeout=30)
            for c in clients:
                c.close()
        assert not any(t.is_alive() for t in threads), "stress thread wedged"
        assert errors == [], errors
        assert reads[0] > 0

    def test_spliced_reads_survive_update_delete_reinsert_churn(self, server):
        """Wire ``find({})`` answers are spliced from cached per-document
        fragments.  Writers update, delete and re-insert the ``_id``s they
        own, each write carrying a higher version ``v`` with ``a == v`` and
        ``b == -v``; a reader must never see a torn document, nor an older
        version of an ``_id`` than it saw before (a stale fragment).  At
        stop the cache holds only the dicts stored then."""
        n_docs = 48
        coll = server.store["mp"]["churn"]
        coll.insert_many([{"_id": i, "v": 0, "a": 0, "b": 0,
                           "pad": {"xs": list(range(16))}}
                          for i in range(n_docs)])
        stop = threading.Event()
        errors: list = []
        reads = [0]

        def write(client, w):
            remote = client["mp"]["churn"]
            rng = random.Random(w)
            mine = list(range(w, n_docs, N_WRITERS))
            try:
                for v in itertools.count(1):
                    if stop.is_set():
                        return
                    _id = rng.choice(mine)
                    fields = {"v": v, "a": v, "b": -v}
                    if rng.random() < 0.6:
                        remote.update_one({"_id": _id}, {"$set": fields})
                    else:
                        remote.delete_one({"_id": _id})
                        remote.insert_one({"_id": _id, **fields,
                                           "pad": {"xs": [v] * 16}})
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"writer {w}: {exc!r}")

        def read(client, r):
            remote = client["mp"]["churn"]
            seen = {}
            try:
                while not stop.is_set():
                    docs = remote.find({})
                    ids = [d["_id"] for d in docs]
                    if len(set(ids)) != len(ids) or len(ids) > n_docs:
                        errors.append(f"reader {r}: ids {sorted(ids)}")
                        return
                    for d in docs:
                        if d["a"] != d["v"] or d["b"] != -d["v"]:
                            errors.append(f"reader {r}: torn {d}")
                            return
                        if d["v"] < seen.get(d["_id"], 0):
                            errors.append(f"reader {r}: stale {d}, saw "
                                          f"v={seen[d['_id']]}")
                            return
                        seen[d["_id"]] = d["v"]
                    reads[0] += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"reader {r}: {exc!r}")

        clients = [RemoteClient("127.0.0.1", server.port, pool_size=1)
                   for _ in range(N_WRITERS + N_READERS)]
        threads = [
            threading.Thread(target=write if i < N_WRITERS else read,
                             args=(c, i if i < N_WRITERS else i - N_WRITERS))
            for i, c in enumerate(clients)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            time.sleep(DURATION_S)
        finally:
            stop.set()
            sys.setswitchinterval(previous)
            for t in threads:
                t.join(timeout=30)
            for c in clients:
                c.close()
        assert not any(t.is_alive() for t in threads), "stress thread wedged"
        assert errors == [], errors
        assert reads[0] > 0
        assert len(coll._fragments) <= len(coll._docs)
        for pos, (doc, fragment) in coll._fragments.items():
            assert coll._docs[pos] is doc
            assert fragment == document_to_json(doc).encode("utf-8")

    def test_concurrent_collection_create_drop(self):
        """Database-level churn: create/drop while writers hit other
        collections must never deadlock or corrupt the namespace map."""
        store = DocumentStore()
        db = store["mp"]
        stop = threading.Event()
        errors: list = []

        def churn(n):
            try:
                i = 0
                while not stop.is_set():
                    name = f"ephemeral_{n}_{i % 3}"
                    c = db[name]
                    c.insert_one({"i": i})
                    db.drop_collection(name)
                    i += 1
            except Exception as exc:  # pragma: no cover
                errors.append(f"churn {n}: {exc!r}")

        def write(n):
            try:
                i = 0
                while not stop.is_set():
                    db["durable"].insert_one({"w": n, "i": i})
                    db["durable"].count_documents({"w": n})
                    i += 1
            except Exception as exc:  # pragma: no cover
                errors.append(f"write {n}: {exc!r}")

        threads = ([threading.Thread(target=churn, args=(n,)) for n in range(2)]
                   + [threading.Thread(target=write, args=(n,)) for n in range(2)])
        for t in threads:
            t.start()
        time.sleep(min(DURATION_S, 1.0))
        stop.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "create/drop churn deadlocked"
        assert errors == [], errors
        assert db["durable"].count_documents() > 0


class TestAggregateStress:
    def test_aggregates_never_see_a_torn_document(self):
        """Aggregate stages run outside the collection lock on stored
        references; a writer flipping ``a`` and ``b`` together must never
        show a reader one without the other."""
        n_docs, per_group = 64, 16
        store = DocumentStore()
        coll = store["mp"]["agg_stress"]
        coll.create_index("g")
        coll.insert_many([{"_id": i, "g": i % (n_docs // per_group),
                           "a": 0, "b": 0} for i in range(n_docs)])
        n_threads = 2 * (os.cpu_count() or 1) + 2
        stop = threading.Event()
        errors: list = []
        checked = [0]

        def write(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    v = rng.randint(1, 10**6)
                    coll.update_one({"_id": rng.randrange(n_docs)},
                                    {"$set": {"a": v, "b": -v}})
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"writer {seed}: {exc!r}")

        def read(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    rows = coll.aggregate([
                        {"$match": {"g": rng.randrange(n_docs // per_group)}},
                        {"$group": {"_id": None,
                                    "sum": {"$sum": {"$add": ["$a", "$b"]}},
                                    "n": {"$sum": 1}}},
                    ])
                    if rows != [{"_id": None, "sum": 0, "n": per_group}]:
                        errors.append(f"reader {seed}: torn aggregate {rows}")
                        return
                    checked[0] += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"reader {seed}: {exc!r}")

        threads = [threading.Thread(target=write if i % 2 else read, args=(i,))
                   for i in range(n_threads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            time.sleep(DURATION_S)
        finally:
            stop.set()
            sys.setswitchinterval(previous)
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "stress thread wedged"
        assert errors == [], errors
        assert checked[0] > 0


class TestOpReportStress:
    def test_concurrent_claims_each_reported_once(self):
        """Claims are reported after the write lock is released, from
        many threads at once: every claim still counts exactly once in
        the opcounters, ``top`` and the profile, under its own opid."""
        store = DocumentStore()
        db = store["mp"]
        queue = db["queue"]
        n_tasks = 400
        queue.insert_many([{"_id": i, "state": "READY"}
                           for i in range(n_tasks)])
        db.set_profiling_level(2)
        seeded_writes = db.top()["mp.queue"]["write_count"]
        n_threads = 2 * (os.cpu_count() or 1) + 2
        claimed: list = []
        attempts = [0] * n_threads
        errors: list = []
        deadline = time.monotonic() + DURATION_S

        def claim(k):
            try:
                while time.monotonic() < deadline:
                    attempts[k] += 1
                    doc = queue.find_one_and_update(
                        {"state": "READY"}, {"$set": {"state": "RUNNING"}})
                    if doc is None:
                        return
                    claimed.append(doc["_id"])
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"claimer {k}: {exc!r}")

        threads = [threading.Thread(target=claim, args=(k,))
                   for k in range(n_threads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
        finally:
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads), "claimer wedged"
        assert errors == [], errors
        assert len(claimed) == len(set(claimed)) > 0
        total = sum(attempts)
        assert db.server_status()["opcounters"]["update"] == total
        assert db.top()["mp.queue"]["write_count"] - seeded_writes == total
        entries = [e for e in db.profile_log if e["op"] == "findAndModify"]
        assert len(entries) == total
        assert len({e["opid"] for e in entries}) == total
        assert sum(e["nreturned"] for e in entries) == len(claimed)
        assert store.current_op() == []


_FRAMES_CHILD = """\
import faulthandler, sys, threading, time
from repro.docstore.locks import RWLock
from repro.obs.profiler import current_frames

duration = float(sys.argv[1])
faulthandler.dump_traceback_later(duration + 20, exit=True)
lock = RWLock(name="frames")
stop = threading.Event()


class Cyclic:
    def __init__(self):
        self.me = self  # only the collector frees it, running __del__

    def __del__(self):
        sum(range(50))


def contend(i):
    while not stop.is_set():
        for _ in range(20):
            Cyclic()
        with (lock.write() if i % 2 else lock.read()):
            pass


def capture():
    # The capture the sampling profiler makes; its stack walk is left out,
    # since walking frames of a thread that is exiting can itself crash
    # CPython 3.11.
    while not stop.is_set():
        Cyclic()
        current_frames()


def churn():
    while not stop.is_set():
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()


threads = [threading.Thread(target=contend, args=(i,)) for i in range(6)]
threads += [threading.Thread(target=capture), threading.Thread(target=churn)]
sys.setswitchinterval(1e-6)
for t in threads:
    t.start()
time.sleep(duration)
stop.set()
for t in threads:
    t.join()
stats = lock.stats()
print(stats["read_contended"] + stats["write_contended"])
"""


class TestFrameCaptureUnderGC:
    def test_stack_capture_survives_collector_and_thread_churn(self, tmp_path):
        """A stack-capture loop reads every thread's frame beside contended
        lock acquires while the collector runs finalizers and threads start
        and exit.  A hang here is the process wedged inside the frame
        capture; faulthandler turns it into a traceback and a non-zero
        exit."""
        script = tmp_path / "frames_child.py"
        script.write_text(_FRAMES_CHILD)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(DURATION_S)],
            env=env, timeout=DURATION_S + 60, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert int(proc.stdout.split()[-1]) > 0, "no contended acquire"


_CHURN_CHILD = """\
import faulthandler, sys, threading, time
from repro.docstore import DocumentStore
from repro.obs.flight import StallWatchdog, dump_all_stacks

duration = float(sys.argv[1])
faulthandler.dump_traceback_later(duration + 20, exit=True)
store = DocumentStore()
coll = store["mp"]["churn"]
coll.insert_many([{"i": i, "n": 0} for i in range(8)])
watchdog = StallWatchdog(None, store=store, stall_timeout_s=0.0)
stop = threading.Event()
dumps = [0]


class Cyclic:
    def __init__(self):
        self.me = self  # only the collector frees it, running __del__

    def __del__(self):
        sum(range(50))


def contend(i):
    while not stop.is_set():
        Cyclic()
        if i % 2:
            coll.update_one({"i": i}, {"$inc": {"n": 1}})
        else:
            coll.find_one({"i": i})


def churn():
    while not stop.is_set():
        t = threading.Thread(target=coll.find_one, args=({"i": 1},))
        t.start()
        t.join()


def watch():
    while not stop.is_set():
        Cyclic()
        watchdog.check_once()
        dump_all_stacks()
        dumps[0] += 1


threads = [threading.Thread(target=contend, args=(i,)) for i in range(6)]
threads += [threading.Thread(target=churn), threading.Thread(target=watch)]
sys.setswitchinterval(1e-6)
for t in threads:
    t.start()
time.sleep(duration)
stop.set()
for t in threads:
    t.join()
locks = store.lock_report()["totals"]
print(locks["read_contended"] + locks["write_contended"], dumps[0])
"""


class TestOpAttributionUnderChurn:
    def test_lock_labels_and_stall_dumps_survive_thread_churn(self, tmp_path):
        """Contended acquires label their waiter and holder from the ops
        table while threads start and exit, and a watchdog loop probes and
        dumps every stack.  A crash or hang in the labelling or the dump
        fails the child; faulthandler turns a hang into a traceback."""
        script = tmp_path / "churn_child.py"
        script.write_text(_CHURN_CHILD)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(DURATION_S)],
            env=env, timeout=DURATION_S + 60, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        contended, dumps = map(int, proc.stdout.split()[-2:])
        assert contended > 0, "no contended acquire"
        assert dumps > 0, "no stack dump"


_CRASH_CHILD = """\
import os, sys
from repro.docstore import DocumentStore

data_dir, acked_path, crash_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = DocumentStore(persistence_dir=data_dir, fsync="always")
coll = store["mp"]["crash"]
acked = open(acked_path, "a")
for i in range(crash_at + 200):
    coll.insert_one({"i": i, "a": i, "b": -i})
    # insert_one has returned: the journal record is fsynced (fsync=always),
    # so this ack is a durability promise recovery must honor.
    acked.write(f"{i}\\n")
    acked.flush()
    if i == crash_at:
        os._exit(137)  # simulate power loss: no close, no atexit, no flush
"""


class TestCrashRecovery:
    def test_acked_writes_survive_hard_kill(self, tmp_path):
        data_dir = tmp_path / "store"
        acked_path = tmp_path / "acked.txt"
        script = tmp_path / "crash_child.py"
        script.write_text(_CRASH_CHILD)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(data_dir), str(acked_path), "400"],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert proc.returncode == 137, proc.stderr

        acked = {int(line) for line in acked_path.read_text().split() if line}
        assert len(acked) >= 1

        recovered = DocumentStore(persistence_dir=str(data_dir))
        docs = recovered["mp"]["crash"].all_documents()
        got = {d["i"] for d in docs}
        # Every acknowledged write survived; at most the one in-flight,
        # unacknowledged insert may appear beyond the acked set.
        assert acked <= got
        assert len(got - acked) <= 1
        # No torn documents after replay.
        for d in docs:
            assert d["a"] + d["b"] == 0
        # Writes are sequential, so the recovered ids are a contiguous prefix.
        assert got == set(range(len(got)))

    def test_recovery_after_kill_then_continue_and_snapshot(self, tmp_path):
        """Recovered store keeps working: new writes, snapshot, reopen."""
        data_dir = tmp_path / "store"
        acked_path = tmp_path / "acked.txt"
        script = tmp_path / "crash_child.py"
        script.write_text(_CRASH_CHILD)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(data_dir), str(acked_path), "50"],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert proc.returncode == 137, proc.stderr

        store = DocumentStore(persistence_dir=str(data_dir))
        before = store["mp"]["crash"].count_documents()
        store["mp"]["crash"].insert_one({"i": 10_000, "a": 1, "b": -1})
        store.snapshot()
        store.close()

        reopened = DocumentStore(persistence_dir=str(data_dir))
        assert reopened["mp"]["crash"].count_documents() == before + 1
        assert reopened["mp"]["crash"].find_one({"i": 10_000}) is not None
        reopened.close()
