"""Tests for continuous profiling: the sampling profiler, lock-contention
attribution, per-stage aggregation executionStats, and the surfacing layer
(wire ops, /debug endpoints, CLI, warehouse persistence)."""

import ast
import gc
import json
import pathlib
import random
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.docstore import (
    DatastoreServer,
    DocumentStore,
    RemoteClient,
)
from repro.docstore.aggregation import (
    MAX_SHAPE_STAGES,
    pipeline_stage_names,
    run_pipeline,
)
from repro.docstore.locks import (
    MAX_CONTENTION_SITES,
    OVERFLOW_SITE,
    RWLock,
)
from repro.errors import DocstoreError
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.obs.profiler import (
    OVERFLOW_STACK,
    SamplingProfiler,
    current_frames,
    fold_stack,
    get_profiler,
    start_profiler,
    stop_profiler,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = get_registry()
    set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture(autouse=True)
def no_global_profiler():
    """Each test starts and ends with no process-global profiler at all."""
    from repro.obs import profiler as profiler_module

    stop_profiler()
    profiler_module._global_profiler = None
    yield
    stop_profiler()
    profiler_module._global_profiler = None


@pytest.fixture
def store():
    s = DocumentStore()
    yield s
    s.close()


def _get(url):
    try:
        with urllib.request.urlopen(url) as resp:
            body = resp.read()
            if resp.headers.get_content_type() == "text/plain":
                return resp.status, body.decode()
            return resp.status, json.loads(body)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _busy_thread(stop):
    """A thread with a recognizable frame for the sampler to catch."""
    def profiled_hot_loop():
        while not stop.is_set():
            sum(range(50))
    t = threading.Thread(target=profiled_hot_loop, daemon=True)
    t.start()
    return t


# -- the sampling profiler ------------------------------------------------


class TestSamplingProfiler:
    def test_fold_stack_shape(self):
        def inner():
            return fold_stack(sys._getframe())

        folded = inner()
        parts = folded.split(";")
        assert parts[-1] == "test_profiler:inner"
        assert all(":" in p for p in parts)

    def test_sample_once_counts_other_threads(self):
        profiler = SamplingProfiler(hz=50)
        stop = threading.Event()
        t = _busy_thread(stop)
        try:
            sampled = profiler.sample_once()
        finally:
            stop.set()
            t.join()
        assert sampled >= 1
        snap = profiler.snapshot()
        assert snap["samples"] == sampled
        assert snap["passes"] == 1
        assert any("profiled_hot_loop" in line for line in profiler.folded())

    def test_sampler_skips_itself(self):
        profiler = SamplingProfiler()
        profiler.sample_once()
        assert not any("sample_once" in line for line in profiler.folded())

    def test_folded_format_and_order(self):
        profiler = SamplingProfiler()
        profiler._ingest("a;b;c", 3)
        profiler._ingest("a;b;d", 7)
        assert profiler.folded() == ["a;b;d 7", "a;b;c 3"]
        assert profiler.folded(limit=1) == ["a;b;d 7"]
        assert profiler.top_functions() == [("d", 7), ("c", 3)]

    def test_top_k_overflow_mirrors_metrics_cap(self):
        profiler = SamplingProfiler(max_stacks=4)
        for i in range(10):
            profiler._ingest(f"stack_{i}")
        snap = profiler.snapshot()
        assert snap["distinct_stacks"] == 5  # 4 kept + __other__
        assert snap["truncated"] == 6
        assert snap["samples"] == 10
        counts = dict(
            line.rsplit(" ", 1) for line in profiler.folded()
        )
        assert counts[OVERFLOW_STACK] == "6"
        # known stacks keep counting after the cap
        profiler._ingest("stack_0", 5)
        assert profiler.snapshot()["truncated"] == 6

    def test_lifecycle_start_stop_reset(self):
        profiler = SamplingProfiler(hz=200)
        assert not profiler.running
        profiler.start()
        assert profiler.running
        assert profiler.start() is profiler  # idempotent
        stop = threading.Event()
        t = _busy_thread(stop)
        try:
            deadline = time.time() + 5
            while profiler.snapshot()["samples"] == 0 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            stop.set()
            t.join()
        snap = profiler.stop()
        assert not profiler.running
        assert snap["samples"] > 0
        assert snap["duration_s"] > 0
        assert snap["achieved_hz"] > 0
        # aggregates survive the stop until reset
        assert profiler.snapshot()["samples"] == snap["samples"]
        profiler.reset()
        assert profiler.snapshot()["samples"] == 0

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_max_depth_bounds_folded_lines(self):
        profiler = SamplingProfiler(max_depth=3)

        def recurse(n):
            if n == 0:
                stop = threading.Event()
                caught = []

                def sample():
                    caught.append(profiler.sample_once())
                t = threading.Thread(target=sample)
                t.start()
                t.join()
                return
            recurse(n - 1)

        recurse(20)
        for line in profiler.folded():
            stack = line.rsplit(" ", 1)[0]
            assert len(stack.split(";")) <= 3

    def test_current_frames_restores_collector_state(self):
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                frames = current_frames()
                assert threading.get_ident() in frames
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_only_the_sampler_reads_other_threads_frames(self):
        """Lock attribution and the stall dump read no frames: the one
        cross-thread frame capture in the package is the opt-in sampler's."""
        root = pathlib.Path(repro.__file__).parent
        callers = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name in ("current_frames", "_current_frames"):
                    callers.append(f"{path.relative_to(root)}:{node.lineno}")
        assert callers
        assert all(c.startswith("obs/profiler.py:") for c in callers), callers

    def test_global_profiler_shared_and_idempotent(self):
        assert get_profiler() is None or not get_profiler().running
        p1 = start_profiler(hz=120)
        p2 = start_profiler(hz=999)  # running: returns p1 unchanged
        assert p1 is p2
        assert p2.hz == 120
        assert get_profiler() is p1
        snap = stop_profiler()
        assert snap is not None and not p1.running


# -- lock-contention attribution ------------------------------------------


def _hold_write(lock, held, release):
    def writer_hold_site():
        with lock.write():
            held.set()
            release.wait(timeout=5)
    t = threading.Thread(target=writer_hold_site, daemon=True)
    t.start()
    held.wait(timeout=5)
    return t


class TestLockContention:
    def test_reader_blocked_by_writer_attributed(self):
        lock = RWLock(name="m")
        held, release = threading.Event(), threading.Event()
        t = _hold_write(lock, held, release)
        results = []

        def reader_wait_site():
            with lock.read():
                results.append(True)

        r = threading.Thread(target=reader_wait_site)
        r.start()
        time.sleep(0.05)  # comfortably above the contention floor
        release.set()
        r.join(timeout=5)
        t.join(timeout=5)
        assert results == [True]
        report = lock.contention_report()
        assert report, "wait above the floor must produce attribution"
        row = report[0]
        assert row["mode"] == "read"
        assert "reader_wait_site" in row["waiter"]
        assert "writer_hold_site" in row["holder"]
        assert row["count"] == 1
        assert row["wait_ms"] >= 40
        assert row["max_wait_ms"] >= 40
        assert lock.stats()["contention_sites"] == 1

    def test_writer_blocked_by_reader_attributed(self):
        lock = RWLock(name="m")
        held, release = threading.Event(), threading.Event()

        def reader_hold_site():
            with lock.read():
                held.set()
                release.wait(timeout=5)

        t = threading.Thread(target=reader_hold_site, daemon=True)
        t.start()
        held.wait(timeout=5)

        def writer_wait_site():
            with lock.write():
                pass

        w = threading.Thread(target=writer_wait_site)
        w.start()
        time.sleep(0.05)
        release.set()
        w.join(timeout=5)
        t.join(timeout=5)
        report = lock.contention_report()
        assert report[0]["mode"] == "write"
        assert "writer_wait_site" in report[0]["waiter"]
        assert "reader_hold_site" in report[0]["holder"]

    def test_reentrant_read_under_write_not_attributed(self):
        """find_one_and_update's read-under-own-write must neither block
        nor pollute the contention report."""
        lock = RWLock(name="m")
        with lock.write():
            with lock.read():
                pass
        stats = lock.stats()
        assert stats["read_acquires"] == 1
        assert stats["write_acquires"] == 1
        assert stats["read_contended"] == 0
        assert stats["contention_sites"] == 0
        assert lock.contention_report() == []

    def test_writer_preference_wait_accounting(self):
        """A reader arriving behind a *waiting* writer waits too, and its
        holder is attributed as the waiting writer placeholder."""
        lock = RWLock(name="m")
        held, release = threading.Event(), threading.Event()

        def first_reader():
            with lock.read():
                held.set()
                release.wait(timeout=5)

        t1 = threading.Thread(target=first_reader, daemon=True)
        t1.start()
        held.wait(timeout=5)

        writer_in = threading.Event()

        def queued_writer():
            with lock.write():
                writer_in.set()
                time.sleep(0.05)

        w = threading.Thread(target=queued_writer)
        w.start()
        deadline = time.time() + 5
        while not lock.stats()["waiting_writers"] and time.time() < deadline:
            time.sleep(0.005)

        def late_reader():
            with lock.read():
                pass

        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        release.set()
        r.join(timeout=5)
        w.join(timeout=5)
        t1.join(timeout=5)
        assert writer_in.is_set()
        stats = lock.stats()
        assert stats["write_contended"] == 1
        assert stats["read_contended"] >= 1
        assert stats["read_wait_ms"] > 0 and stats["write_wait_ms"] > 0
        modes = {row["mode"] for row in lock.contention_report()}
        assert modes == {"read", "write"}
        read_row = [r_ for r_ in lock.contention_report()
                    if r_["mode"] == "read"][0]
        # the late reader queued behind the writer: holder is either the
        # reader the writer waits on or the waiting-writer placeholder
        assert ("first_reader" in read_row["holder"]
                or read_row["holder"] == "<waiting-writer>")

    def test_contention_rollup_bounded(self):
        lock = RWLock(name="m")
        with lock._cond:
            for i in range(MAX_CONTENTION_SITES + 20):
                lock._note_contention("read", f"site_{i}:f:1", "h:g:2",
                                      0.001)
        assert len(lock._contention) == MAX_CONTENTION_SITES + 1
        overflow = lock._contention[("read", OVERFLOW_SITE, OVERFLOW_SITE)]
        assert overflow["count"] == 20
        report = lock.contention_report(limit=MAX_CONTENTION_SITES + 10)
        assert len(report) == MAX_CONTENTION_SITES + 1

    def test_lock_stats_stable_under_churn(self):
        """Concurrent readers/writers with attribution on: counters stay
        consistent and stats() never raises mid-flight."""
        lock = RWLock(name="m")
        n_threads, n_iters = 8, 60
        errors = []

        def churn(i):
            try:
                for j in range(n_iters):
                    if (i + j) % 4 == 0:
                        with lock.write():
                            time.sleep(0.0002)
                    else:
                        with lock.read():
                            time.sleep(0.0001)
                    lock.stats()  # must be safe mid-churn
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = lock.stats()
        total = stats["read_acquires"] + stats["write_acquires"]
        assert total == n_threads * n_iters
        assert stats["active_readers"] == 0
        assert not stats["writer_held"]
        assert stats["waiting_writers"] == 0
        assert stats["contention_sites"] <= MAX_CONTENTION_SITES + 1
        assert stats["read_wait_ms"] >= 0 and stats["write_wait_ms"] >= 0

    def test_upgrade_still_refused(self):
        lock = RWLock(name="m")
        with lock.read():
            with pytest.raises(DocstoreError):
                lock.acquire_write()

    def test_store_lock_report_rolls_up(self, store):
        coll = store["mp"]["materials"]
        coll.insert_one({"x": 1})
        held, release = threading.Event(), threading.Event()
        t = _hold_write(coll._lock, held, release)
        reader = threading.Thread(target=lambda: coll.find_one({"x": 1}))
        reader.start()
        time.sleep(0.05)
        release.set()
        reader.join(timeout=5)
        t.join(timeout=5)
        report = store.lock_report()
        assert report["totals"]["read_contended"] >= 1
        top = report["top_contended"]
        assert top and top[0]["db"] == "mp" and top[0]["coll"] == "materials"
        assert top[0]["waiter"].startswith("findOne mp.materials")
        assert "writer_hold_site" in top[0]["holder"]
        # server_status carries the same rows
        status_top = store.server_status()["locks"]["top_contended"]
        assert status_top and status_top[0]["waiter"] == top[0]["waiter"]

    def test_rows_name_ops_and_keep_opids(self, store):
        """A gated update holds mp.materials while a find_one waits: the
        row names both ops, and its holder opid is the update's."""
        coll = store["mp"]["materials"]
        coll.insert_one({"x": 1})
        held, release = threading.Event(), threading.Event()

        def gate(op, payload):  # change listeners run under the write lock
            held.set()
            release.wait(timeout=5)

        coll.add_change_listener(gate)
        writer = threading.Thread(target=coll.update_one,
                                  args=({"x": 1}, {"$set": {"y": 2}}))
        writer.start()
        assert held.wait(timeout=5)
        update_opid = store.current_op()[0]["opid"]
        reader = threading.Thread(target=lambda: coll.find_one({"x": 1}))
        reader.start()
        time.sleep(0.05)
        release.set()
        reader.join(timeout=5)
        writer.join(timeout=5)
        row = store.lock_report()["top_contended"][0]
        assert row["waiter"].startswith("findOne mp.materials")
        assert row["holder"].startswith("update mp.materials")
        assert row["holder_opid"] == update_opid
        assert row["waiter_opid"] > update_opid

    def test_profile_entry_joins_the_holder_opid(self, store):
        """The update that held the lock is the profile entry carrying
        the row's holder_opid; the waiting find_one carries its own."""
        store["mp"].set_profiling_level(2)
        coll = store["mp"]["materials"]
        coll.insert_one({"x": 1})
        held, release = threading.Event(), threading.Event()

        def gate(op, payload):  # change listeners run under the write lock
            held.set()
            release.wait(timeout=5)

        coll.add_change_listener(gate)
        writer = threading.Thread(target=coll.update_one,
                                  args=({"x": 1}, {"$set": {"y": 2}}))
        writer.start()
        assert held.wait(timeout=5)
        reader = threading.Thread(target=lambda: coll.find_one({"x": 1}))
        reader.start()
        time.sleep(0.05)
        release.set()
        reader.join(timeout=5)
        writer.join(timeout=5)
        row = store.lock_report()["top_contended"][0]
        by_opid = {e.get("opid"): e for e in store["mp"].profile_log}
        assert by_opid[row["holder_opid"]]["op"] == "update"
        assert by_opid[row["waiter_opid"]]["op"] == "findOne"

    def test_lock_report_totals_match_server_status(self, store):
        """Both store-wide lock views are one rollup: on two databases
        after a contended write, the totals agree key for key."""
        store["tasks"]["queue"].insert_one({"state": "READY"})
        coll = store["mp"]["materials"]
        coll.insert_one({"x": 1})
        held, release = threading.Event(), threading.Event()
        t = _hold_write(coll._lock, held, release)
        writer = threading.Thread(target=lambda: coll.insert_one({"x": 2}))
        writer.start()
        time.sleep(0.05)
        release.set()
        writer.join(timeout=5)
        t.join(timeout=5)
        assert not writer.is_alive() and not t.is_alive()
        totals = store.lock_report()["totals"]
        assert totals["write_contended"] >= 1
        locks = store.server_status()["locks"]
        assert locks.pop("top_contended")
        assert list(totals) == list(locks) and totals == locks
        plan_cache = store.server_status()["planCache"]
        assert plan_cache == {
            key: sum(store[name].plan_cache_status()["totals"][key]
                     for name in ("mp", "tasks"))
            for key in plan_cache}


# -- per-stage aggregation executionStats ---------------------------------


class TestAggregationStats:
    def _coll(self, store, n=300):
        coll = store["mp"]["materials"]
        coll.insert_many([
            {"material_id": f"mp-{i}", "nelements": i % 5,
             "e_above_hull": (i % 50) / 100.0}
            for i in range(n)
        ])
        return coll

    def test_explain_true_returns_stage_stats(self, store):
        coll = self._coll(store)
        pipeline = [
            {"$match": {"nelements": {"$gte": 1}}},
            {"$group": {"_id": "$nelements", "n": {"$sum": 1}}},
            {"$sort": {"n": -1}},
        ]
        report = coll.aggregate(pipeline, explain=True)
        assert report["ns"] == "mp.materials"
        assert report["pipeline"] == ["$match", "$group", "$sort"]
        stages = report["stages"]
        assert [s["stage"] for s in stages] == [
            "$cursor", "$match", "$group", "$sort"
        ]
        cursor, match, group, sort = stages
        assert cursor["docs_in"] == 300 and cursor["docs_out"] == 240
        assert match["docs_in"] == 300 and match["docs_out"] == 240
        assert group["docs_in"] == 240 and group["docs_out"] == 4
        assert group["state_size"] == 4
        assert sort["docs_in"] == 4 and sort["docs_out"] == 4
        assert sort["state_size"] == 4
        assert report["nReturned"] == 4
        assert all(s["elapsed_ms"] >= 0 for s in stages)

    def test_stage_elapsed_sums_close_to_total(self, store):
        """Acceptance: per-stage elapsed sums to within 20% of the
        reported executionTimeMillis."""
        coll = self._coll(store, n=2000)
        pipeline = [
            {"$match": {"e_above_hull": {"$lt": 0.4}}},
            {"$group": {"_id": "$nelements",
                        "hull": {"$avg": "$e_above_hull"}}},
            {"$sort": {"hull": 1}},
        ]
        report = coll.aggregate(pipeline, explain=True)
        total = report["executionTimeMillis"]
        stage_sum = sum(s["elapsed_ms"] for s in report["stages"])
        assert total > 0
        assert abs(stage_sum - total) <= 0.2 * total

    def test_explain_pipeline_kwarg(self, store):
        coll = self._coll(store)
        report = coll.explain(pipeline=[{"$count": "n"}])
        assert report["pipeline"] == ["$count"]
        assert report["nReturned"] == 1

    def test_aggregate_profile_shape_is_stage_list(self, store):
        """Satellite: the profiled query shape is a bounded ordered list
        of stage names, not a pipeline length."""
        db = store["mp"]
        coll = self._coll(store)
        db.set_profiling_level(2)
        coll.aggregate([
            {"$match": {"nelements": 2}},
            {"$group": {"_id": "$nelements"}},
        ])
        entry = [e for e in db.profile_log if e["op"] == "aggregate"][-1]
        assert entry["query"] == {"pipeline": ["$match", "$group"]}
        assert entry["nreturned"] == 1
        assert "stages" in entry  # level 2: stats ride along
        assert [s["stage"] for s in entry["stages"]] == [
            "$cursor", "$match", "$group"
        ]

    def test_profile_stage_stats_gated_when_fast(self, store):
        db = store["mp"]
        coll = self._coll(store, n=10)
        db.set_profiling_level(1, slowms=10_000)
        coll.aggregate([{"$match": {"nelements": 1}}])
        entry = [e for e in db.profile_log if e["op"] == "aggregate"][-1]
        # level 1 records the read, but fast ops don't carry bulky stats
        assert "stages" not in entry
        db.set_profiling_level(2, slowms=10_000)
        coll.aggregate([{"$match": {"nelements": 1}}])
        entry = [e for e in db.profile_log if e["op"] == "aggregate"][-1]
        assert "stages" in entry  # level 2 always carries stats

    def test_pipeline_stage_names_bounded(self):
        pipeline = [{"$match": {}}] * (MAX_SHAPE_STAGES + 3)
        names = pipeline_stage_names(pipeline)
        assert len(names) == MAX_SHAPE_STAGES + 1
        assert names[-1] == "+3 more"
        assert pipeline_stage_names([{"$match": {}, "$sort": {}}]) == [
            "<invalid>"
        ]
        assert pipeline_stage_names([]) == []

    def test_run_pipeline_stage_stats_optional(self):
        docs = [{"x": i} for i in range(10)]
        out = run_pipeline(docs, [{"$match": {"x": {"$lt": 5}}}])
        assert len(out) == 5  # default path unchanged
        stats = []
        run_pipeline(docs, [{"$match": {"x": {"$lt": 5}}}],
                     stage_stats=stats)
        assert stats[0]["docs_in"] == 10 and stats[0]["docs_out"] == 5

    def test_sample_uses_module_local_rng(self):
        """Satellite: $sample must not perturb the global random state."""
        docs = [{"x": i} for i in range(100)]
        random.seed(1234)
        before = random.getstate()
        run_pipeline(docs, [{"$sample": {"size": 5}}])
        assert random.getstate() == before
        # seeded draws stay deterministic and isolated
        a = run_pipeline(docs, [{"$sample": {"size": 5, "seed": 7}}])
        b = run_pipeline(docs, [{"$sample": {"size": 5, "seed": 7}}])
        assert a == b
        assert random.getstate() == before


# -- the surfacing layer: wire, HTTP, CLI, warehouse ----------------------


class TestWireSurface:
    def test_profile_ops_over_the_wire(self, store):
        store["mp"]["m"].insert_many([{"i": i} for i in range(50)])
        with DatastoreServer(store, port=0).start() as server:
            with RemoteClient(*server.address) as client:
                started = client.profile("start", hz=200)
                assert started["running"] and started["hz"] == 200
                assert started["already_running"] is False
                # generate server-side work so stacks accumulate
                deadline = time.time() + 5
                while (client.profile("snapshot")["samples"] == 0
                       and time.time() < deadline):
                    client["mp"]["m"].find({"i": {"$gte": 0}})
                flame = client.profile("flame")
                assert flame and all(
                    line.rsplit(" ", 1)[1].isdigit() for line in flame
                )
                snap = client.profile("snapshot", limit=3)
                assert snap["samples"] > 0 and len(snap["stacks"]) <= 3
                final = client.profile("stop")
                assert final["samples"] >= snap["samples"]
                assert client.profile("snapshot")["running"] is False
                with pytest.raises(DocstoreError):
                    client.profile("florp")

    def test_profile_snapshot_without_profiler(self, store):
        with DatastoreServer(store, port=0).start() as server:
            with RemoteClient(*server.address) as client:
                snap = client.profile("snapshot")
                assert snap == {"running": False, "samples": 0,
                                "stacks": []}
                assert client.profile("flame") == []

    def test_lock_report_over_the_wire(self, store):
        coll = store["mp"]["m"]
        coll.insert_one({"x": 1})
        held, release = threading.Event(), threading.Event()
        t = _hold_write(coll._lock, held, release)
        reader = threading.Thread(target=lambda: coll.find_one({}))
        reader.start()
        time.sleep(0.05)
        release.set()
        reader.join(timeout=5)
        t.join(timeout=5)
        with DatastoreServer(store, port=0).start() as server:
            with RemoteClient(*server.address) as client:
                report = client.lock_report(limit=5)
                assert report["totals"]["read_contended"] >= 1
                assert report["top_contended"]
        assert not get_profiler() or not get_profiler().running

    def test_aggregate_explain_over_the_wire(self, store):
        store["mp"]["m"].insert_many([{"i": i % 3} for i in range(30)])
        with DatastoreServer(store, port=0).start() as server:
            with RemoteClient(*server.address) as client:
                coll = client["mp"]["m"]
                report = coll.aggregate(
                    [{"$group": {"_id": "$i"}}], explain=True
                )
                assert report["pipeline"] == ["$group"]
                assert report["stages"][0]["stage"] == "$cursor"
                report2 = coll.explain(pipeline=[{"$count": "n"}])
                assert report2["pipeline"] == ["$count"]


class TestDebugEndpoints:
    @pytest.fixture
    def served(self, store):
        store["mp"]["materials"].insert_many([
            {"material_id": f"mp-{i}", "band_gap": 1.0} for i in range(3)
        ])
        api = MaterialsAPI(QueryEngine(store["mp"]))
        server = MaterialsAPIServer(api).start()
        yield server, store
        server.stop()

    def test_debug_profile_lifecycle(self, served):
        server, _ = served
        code, doc = _get(server.base_url + "/debug/profile")
        assert code == 200 and doc["running"] is False
        code, doc = _get(
            server.base_url + "/debug/profile?action=start&hz=150"
        )
        assert code == 200 and doc["running"] and doc["hz"] == 150
        stop = threading.Event()
        t = _busy_thread(stop)
        try:
            deadline = time.time() + 5
            samples = 0
            while not samples and time.time() < deadline:
                code, doc = _get(server.base_url + "/debug/profile?limit=5")
                samples = doc["samples"]
        finally:
            stop.set()
            t.join()
        assert samples > 0 and len(doc["stacks"]) <= 5
        code, text = _get(server.base_url + "/debug/flamegraph")
        assert code == 200 and "profiled_hot_loop" in text
        code, doc = _get(server.base_url + "/debug/profile?action=reset")
        assert code == 200 and doc["samples"] == 0
        code, doc = _get(server.base_url + "/debug/profile?action=stop")
        assert code == 200
        assert get_profiler() is None or not get_profiler().running

    def test_debug_profile_start_reports_already_running(self, served):
        server, _ = served
        url = server.base_url + "/debug/profile?action=start&hz=50"
        assert _get(url) == (200, {"running": True, "hz": 50,
                                   "already_running": False})
        code, doc = _get(url.replace("hz=50", "hz=400"))
        assert code == 200 and doc["already_running"] is True
        assert doc["hz"] == 50

    def test_debug_profile_unknown_action_400(self, served):
        server, _ = served
        code, doc = _get(server.base_url + "/debug/profile?action=florp")
        assert code == 400 and "florp" in doc["error"]
        assert get_profiler() is None

    def test_debug_locks(self, served):
        server, store = served
        coll = store["mp"]["materials"]
        held, release = threading.Event(), threading.Event()
        t = _hold_write(coll._lock, held, release)
        reader = threading.Thread(target=lambda: coll.find_one({}))
        reader.start()
        time.sleep(0.05)
        release.set()
        reader.join(timeout=5)
        t.join(timeout=5)
        code, doc = _get(server.base_url + "/debug/locks?limit=3")
        assert code == 200
        assert doc["totals"]["read_contended"] >= 1
        assert doc["top_contended"]

    def test_debug_unknown_404(self, served):
        server, _ = served
        code, _doc = _get(server.base_url + "/debug/nope")
        assert code == 404


class TestProfileCLI:
    def _run(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_local_snapshot_and_flame(self, capsys):
        out = self._run(capsys, "profile", "--duration", "0.2",
                        "--hz", "200")
        assert "profiler:" in out and "samples" in out
        out = self._run(capsys, "profile", "--duration", "0.2", "--flame")
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines and all(
            l.rsplit(" ", 1)[1].isdigit() for l in lines
        )

    def test_local_json(self, capsys):
        out = self._run(capsys, "profile", "--duration", "0.2", "--json")
        snap = json.loads(out)
        assert snap["samples"] >= 0 and "stacks" in snap

    def test_flame_over_the_wire(self, capsys, store):
        """Acceptance: `repro profile --flame` emits non-empty folded
        stacks over the wire against a live server."""
        coll = store["mp"]["m"]
        coll.insert_many([{"i": i} for i in range(100)])
        with DatastoreServer(store, port=0).start() as server:
            stop = threading.Event()

            def load():
                with RemoteClient(*server.address) as client:
                    while not stop.is_set():
                        client["mp"]["m"].find({"i": {"$gte": 0}})

            t = threading.Thread(target=load, daemon=True)
            t.start()
            try:
                out = self._run(
                    capsys, "profile", "--flame", "--duration", "0.5",
                    "--host", server.address[0],
                    "--port", str(server.port),
                )
            finally:
                stop.set()
                t.join()
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines, "flame output must be non-empty"
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack or ":" in stack
            assert int(count) > 0
        # the CLI stopped the profiler it started on the server
        assert get_profiler() is None or not get_profiler().running

    def test_locks_over_the_wire(self, capsys, store):
        coll = store["mp"]["m"]
        coll.insert_one({"x": 1})
        held, release = threading.Event(), threading.Event()
        t = _hold_write(coll._lock, held, release)
        reader = threading.Thread(target=lambda: coll.find_one({}))
        reader.start()
        time.sleep(0.05)
        release.set()
        reader.join(timeout=5)
        t.join(timeout=5)
        with DatastoreServer(store, port=0).start() as server:
            out = self._run(
                capsys, "profile", "--locks", "--json",
                "--host", server.address[0], "--port", str(server.port),
            )
        report = json.loads(out)
        assert report["top_contended"]

    def test_cli_leaves_running_profiler_alone(self, capsys, store):
        with DatastoreServer(store, port=0).start() as server:
            with RemoteClient(*server.address) as client:
                client.profile("start", hz=50)
                self._run(capsys, "profile", "--duration", "0.1",
                          "--host", server.address[0],
                          "--port", str(server.port))
                assert client.profile("snapshot")["running"] is True
                client.profile("stop")

