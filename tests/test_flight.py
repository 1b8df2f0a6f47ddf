"""Flight recorder, stall watchdog, and crash forensics.

Covers the three layers of :mod:`repro.obs.flight` — the delta codec and
chunk ring (including decoder robustness against torn tails and CRC
corruption), the liveness probes, and the crash-report pipeline — plus
every surface wired on top: the ``flight`` wire op, ``GET /debug/flight``,
``repro diagnose``, warehouse event ingestion, and the ``process`` section
in ``server_status()`` / mongostat.  The capstone is a subprocess that
dies mid-write-load via ``os._exit``: the pre-crash window must be
reconstructable from the ring alone, with the docstore never opened.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.docstore import DatastoreServer, DocumentStore, RemoteClient
from repro.docstore.locks import RWLock
from repro.errors import DocstoreError
from repro.hpc.simclock import SimClock
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.obs import flight as flight_module
from repro.obs.flight import (
    CRASH_REPORT_FILE,
    KIND_DELTA,
    KIND_EVENT,
    KIND_FULL,
    SESSION_FILE,
    FlightRecorder,
    StallWatchdog,
    _RingWriter,
    apply_delta,
    build_crash_report,
    decode_ring,
    detect_unclean_shutdown,
    dict_delta,
    diff_window,
    dump_all_stacks,
    enable_fault_handler,
    generate_crash_report,
    read_crash_report,
    scan_anomalies,
    set_flight_recorder,
    start_flight_recorder,
    stop_flight_recorder,
)
from repro.obs.health import ServerStatusSampler, format_stat_table
from repro.obs.procstats import process_status
from repro.obs.warehouse import TelemetryWarehouse


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = get_registry()
    set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture(autouse=True)
def no_global_recorder():
    """Each test starts and ends with no process-global flight recorder."""
    stop_flight_recorder()
    set_flight_recorder(None)
    yield
    stop_flight_recorder()
    set_flight_recorder(None)


@pytest.fixture
def store():
    s = DocumentStore()
    yield s
    s.close()


# -- delta codec ----------------------------------------------------------


class TestDeltaCodec:
    def test_roundtrip_nested_change(self):
        prev = {"a": {"b": 1, "c": 2}, "d": 3}
        cur = {"a": {"b": 5, "c": 2}, "d": 3}
        delta = dict_delta(prev, cur)
        assert delta == {"s": {"a": {"b": 5}}}
        assert apply_delta(prev, delta) == cur

    def test_removed_keys(self):
        prev = {"a": {"b": 1, "c": 2}, "gone": 9}
        cur = {"a": {"c": 2}}
        delta = dict_delta(prev, cur)
        assert sorted(delta["x"]) == [["a", "b"], ["gone"]]
        assert apply_delta(prev, delta) == cur

    def test_lists_replaced_wholesale(self):
        prev = {"xs": [1, 2, 3]}
        cur = {"xs": [1, 2, 3, 4]}
        delta = dict_delta(prev, cur)
        assert delta == {"s": {"xs": [1, 2, 3, 4]}}
        assert apply_delta(prev, delta) == cur

    def test_identical_snapshots_empty_delta(self):
        snap = {"a": {"b": 1}, "c": [1, 2]}
        assert dict_delta(snap, snap) == {}
        assert apply_delta(snap, {}) == snap

    def test_apply_does_not_mutate_base(self):
        base = {"a": {"b": 1}}
        apply_delta(base, {"s": {"a": {"b": 2}}})
        assert base == {"a": {"b": 1}}


# -- ring writer + decoder ------------------------------------------------


class TestRing:
    def test_roundtrip(self, tmp_path):
        w = _RingWriter(str(tmp_path))
        w.append(KIND_FULL, {"seq": 1, "v": {"x": 1}})
        w.append(KIND_DELTA, dict_delta({"seq": 1, "v": {"x": 1}},
                                        {"seq": 2, "v": {"x": 5}}))
        w.append(KIND_EVENT, {"type": "marker"})
        w.close()
        out = decode_ring(str(tmp_path))
        assert out["warnings"] == []
        assert [s["seq"] for s in out["snapshots"]] == [1, 2]
        assert out["snapshots"][1]["v"] == {"x": 5}
        assert out["events"][0]["type"] == "marker"

    def test_every_chunk_opens_with_keyframe(self, tmp_path):
        w = _RingWriter(str(tmp_path), chunk_records=3)
        prev = None
        for i in range(10):
            snap = {"seq": i, "x": i * i}
            if w.needs_keyframe() or prev is None:
                w.append(KIND_FULL, snap)
            else:
                w.append(KIND_DELTA, dict_delta(prev, snap))
            prev = snap
        w.close()
        chunks = flight_module._list_chunks(str(tmp_path))
        assert len(chunks) > 1
        for _, path in chunks:
            records = list(flight_module._iter_chunk_records(path, []))
            assert records[0][0] == KIND_FULL
        out = decode_ring(str(tmp_path))
        assert [s["seq"] for s in out["snapshots"]] == list(range(10))

    def test_eviction_keeps_newest(self, tmp_path):
        w = _RingWriter(str(tmp_path), max_bytes=2048, chunk_records=4)
        big = "y" * 200
        for i in range(40):
            w.append(KIND_FULL, {"seq": i, "pad": big + str(i)})
        w.close()
        chunks = flight_module._list_chunks(str(tmp_path))
        total = sum(os.path.getsize(p) for _, p in chunks)
        assert total < 40 * 200  # oldest chunks were evicted
        out = decode_ring(str(tmp_path))
        assert out["snapshots"], "newest records must survive eviction"
        assert out["snapshots"][-1]["seq"] == 39

    def test_new_writer_starts_fresh_chunk(self, tmp_path):
        w1 = _RingWriter(str(tmp_path))
        w1.append(KIND_FULL, {"seq": 1})
        w1.close()
        w2 = _RingWriter(str(tmp_path))
        w2.append(KIND_FULL, {"seq": 2})
        w2.close()
        assert len(flight_module._list_chunks(str(tmp_path))) == 2

    def test_decode_time_range_filter(self, tmp_path):
        w = _RingWriter(str(tmp_path))
        for i in range(5):
            w.append(KIND_FULL, {"seq": i, "ts": 100.0 + i}, ts=100.0 + i)
        w.close()
        out = decode_ring(str(tmp_path), since=101.5, until=103.5)
        assert [s["seq"] for s in out["snapshots"]] == [2, 3]


class TestDecoderRobustness:
    def _write_chunks(self, directory, n_chunks=3, per_chunk=4):
        w = _RingWriter(str(directory), chunk_records=per_chunk)
        seq = 0
        prev = None
        for _ in range(n_chunks * per_chunk):
            snap = {"seq": seq, "x": seq * 2}
            if w.needs_keyframe() or prev is None:
                w.append(KIND_FULL, snap)
            else:
                w.append(KIND_DELTA, dict_delta(prev, snap))
            prev = snap
            seq += 1
        w.close()
        return flight_module._list_chunks(str(directory))

    def test_truncated_final_chunk(self, tmp_path):
        chunks = self._write_chunks(tmp_path)
        last = chunks[-1][1]
        data = open(last, "rb").read()
        # Tear mid-record: keep the first record and half of the second.
        hdr = flight_module._HEADER
        _, _, _, _, length, _ = hdr.unpack_from(data, 0)
        first_end = hdr.size + length
        open(last, "wb").write(data[:first_end + hdr.size + 3])
        out = decode_ring(str(tmp_path))
        assert any("truncated" in w for w in out["warnings"])
        # Everything before the tear still decodes.
        assert out["snapshots"][-1]["seq"] == 8
        assert [s["seq"] for s in out["snapshots"]] == list(range(9))

    def test_crc_corrupt_middle_chunk_skips_and_continues(self, tmp_path):
        chunks = self._write_chunks(tmp_path)
        middle = chunks[1][1]
        data = bytearray(open(middle, "rb").read())
        hdr = flight_module._HEADER
        _, _, _, _, length, _ = hdr.unpack_from(data, 0)
        second = hdr.size + length  # corrupt the 2nd record's payload
        data[second + hdr.size] ^= 0xFF
        open(middle, "wb").write(bytes(data))
        out = decode_ring(str(tmp_path))
        assert any("CRC mismatch" in w for w in out["warnings"])
        seqs = [s["seq"] for s in out["snapshots"]]
        # Chunk 0 intact, chunk 1 only up to the corruption, chunk 2's
        # keyframe restarts the chain — decode continues past the damage.
        assert seqs[:4] == [0, 1, 2, 3]
        assert seqs[-4:] == [8, 9, 10, 11]
        assert 5 not in seqs

    def test_bad_magic_abandons_chunk(self, tmp_path):
        chunks = self._write_chunks(tmp_path, n_chunks=2)
        data = bytearray(open(chunks[0][1], "rb").read())
        data[0:2] = b"XX"
        open(chunks[0][1], "wb").write(bytes(data))
        out = decode_ring(str(tmp_path))
        assert any("bad magic" in w for w in out["warnings"])
        assert [s["seq"] for s in out["snapshots"]] == [4, 5, 6, 7]

    def test_empty_directory(self, tmp_path):
        out = decode_ring(str(tmp_path / "nope"))
        assert out == {"snapshots": [], "events": [], "warnings": [],
                       "chunks": 0, "records": 0}


# -- window analytics -----------------------------------------------------


class TestAnalytics:
    def test_diff_window(self):
        snaps = [
            {"ts": 1.0, "server": {"opcounters": {"insert": 10}}},
            {"ts": 2.0, "server": {"opcounters": {"insert": 25}}},
        ]
        out = diff_window(snaps)
        assert out["deltas"]["server.opcounters.insert"] == {
            "from": 10.0, "to": 25.0, "delta": 15.0}

    def test_diff_window_respects_bounds(self):
        snaps = [{"ts": float(i), "x": i} for i in range(10)]
        out = diff_window(snaps, t0=3.0, t1=6.0)
        assert out["snapshots"] == 4
        assert out["deltas"]["x"]["delta"] == 3.0

    def test_scan_anomalies_flags_spike(self):
        snaps = [{"ts": float(i), "gauge": 10.0} for i in range(20)]
        snaps[12]["gauge"] = 500.0
        found = scan_anomalies(snaps, threshold=6.0)
        assert found and found[0]["series"] == "gauge"
        assert found[0]["ts"] == 12.0

    def test_scan_anomalies_differences_counters(self):
        # Cumulative counter with one burst: only the burst interval is
        # anomalous, not every post-burst total.
        total, snaps = 0, []
        for i in range(30):
            total += 1000 if i == 20 else 5
            snaps.append({"ts": float(i), "n": total})
        found = scan_anomalies(snaps, threshold=6.0)
        assert [f["ts"] for f in found] == [20.0]

    def test_scan_anomalies_quiet_series(self):
        snaps = [{"ts": float(i), "x": 3.0} for i in range(20)]
        assert scan_anomalies(snaps) == []


# -- process stats --------------------------------------------------------


class TestProcStats:
    def test_proc_path(self):
        if not os.path.isdir("/proc/self"):
            pytest.skip("no /proc on this platform")
        stats = process_status()
        assert stats["source"] == "proc"
        assert stats["pid"] == os.getpid()
        assert stats["rss_bytes"] > 0
        assert stats["threads"] >= 1
        assert stats["open_fds"] >= 1

    def test_fallback_path(self):
        stats = process_status(proc_dir=None)
        assert stats["source"] == "fallback"
        assert stats["rss_bytes"] > 0
        assert stats["user_cpu_s"] >= 0.0

    def test_server_status_carries_process(self, store):
        status = store.server_status()
        assert status["process"]["pid"] == os.getpid()

    def test_mongostat_table_has_process_columns(self, store):
        sampler = ServerStatusSampler(store)
        sample = sampler.sample()
        assert sample["process"]["rss_bytes"] > 0
        table = format_stat_table([sample])
        header, row = table.splitlines()
        assert "rss_mb" in header and "thr" in header
        # Classic layout unchanged: opcounters stay in the lead columns.
        assert header.index("insert") < header.index("query")
        # No process section -> no trailing columns (old shape preserved).
        plain = format_stat_table([{k: v for k, v in sample.items()
                                    if k != "process"}])
        assert "rss_mb" not in plain


# -- the recorder ---------------------------------------------------------


class TestFlightRecorder:
    def test_capture_contents(self, tmp_path, store):
        store["mp"]["m"].insert_many([{"i": i} for i in range(5)])
        get_registry().counter("repro_test_ticks", "t").inc(3)
        rec = FlightRecorder(store, str(tmp_path))
        snap = rec.capture()
        assert snap["server"]["opcounters"]["insert"] >= 1
        assert "process" not in snap["server"]
        assert snap["process"]["rss_bytes"] > 0
        assert snap["metrics"]["repro_test_ticks{}"] == 3.0
        # Second tick: unchanged counters disappear from the deltas.
        snap2 = rec.capture()
        assert "repro_test_ticks{}" not in snap2["metrics"]
        rec.stop()

    def test_deltas_reconstruct_exactly(self, tmp_path, store):
        rec = FlightRecorder(store, str(tmp_path))
        depth = get_registry().gauge("repro_test_depth", "t")
        latency = get_registry().histogram("repro_test_ms", "t")
        expected = []
        for i in range(6):
            store["mp"]["m"].insert_one({"i": i})
            depth.set(i % 3, queue="ready")
            latency.observe(float(i))
            expected.append(rec.capture())
        rec.flush()
        out = decode_ring(str(tmp_path))
        assert out["warnings"] == []
        assert out["snapshots"] == expected
        last = out["snapshots"][-1]["metrics"]
        assert last["repro_test_depth{queue=ready}"] == 2.0
        assert last["repro_test_ms{}"] == {"p50": 2.5, "p95": 4.75,
                                           "p99": 4.95}
        rec.stop()

    def test_background_thread_and_session_marker(self, tmp_path, store):
        clock = SimClock()
        rec = FlightRecorder(store, str(tmp_path), interval_s=0.5,
                             clock=clock)
        before = threading.active_count()
        rec.start()
        assert rec.running and threading.active_count() == before
        marker = json.load(open(tmp_path / SESSION_FILE))
        assert marker["clean"] is False
        assert marker["pid"] == os.getpid()
        clock.run_until(1.0)
        status = rec.stop()
        assert not rec.running
        assert status["snapshots"] == 2
        marker = json.load(open(tmp_path / SESSION_FILE))
        assert marker["clean"] is True
        events = decode_ring(str(tmp_path))["events"]
        assert events[-1]["type"] == "shutdown"

    def test_recorder_survives_broken_server_status(self, tmp_path):
        class Wedged:
            def server_status(self):
                raise RuntimeError("wedged")

        rec = FlightRecorder(Wedged(), str(tmp_path))
        snap = rec.capture()
        assert "server" not in snap
        assert "wedged" in snap["server_error"]
        assert snap["process"]["rss_bytes"] > 0  # process stats still land
        rec.stop()

    def test_global_recorder_lifecycle(self, tmp_path, store):
        rec = start_flight_recorder(store, str(tmp_path), interval_s=5.0)
        assert flight_module.get_flight_recorder() is rec
        # Idempotent while running.
        assert start_flight_recorder(store, str(tmp_path)) is rec
        status = stop_flight_recorder()
        assert status["directory"] == str(tmp_path)

    def test_rejects_bad_interval(self, tmp_path, store):
        with pytest.raises(ValueError):
            FlightRecorder(store, str(tmp_path), interval_s=0)


# -- liveness probes ------------------------------------------------------


class TestTryAcquireRead:
    def test_uncontended(self):
        lock = RWLock()
        assert lock.try_acquire_read() is True
        lock.release_read()

    def test_blocked_by_foreign_writer(self):
        lock = RWLock()
        held, release = threading.Event(), threading.Event()

        def holder():
            lock.acquire_write()
            held.set()
            release.wait(5)
            lock.release_write()

        t = threading.Thread(target=holder)
        t.start()
        held.wait(5)
        assert lock.try_acquire_read(timeout=0.0) is False
        assert lock.try_acquire_read(timeout=0.05) is False
        release.set()
        t.join()
        assert lock.try_acquire_read(timeout=0.5) is True
        lock.release_read()

    def test_reentrant_under_own_write(self):
        lock = RWLock()
        lock.acquire_write()
        assert lock.try_acquire_read() is True  # rides the write depth
        lock.release_read()
        lock.release_write()

    def test_probe_does_not_record_contention(self):
        lock = RWLock(name="probe-target")
        held, release = threading.Event(), threading.Event()

        def holder():
            lock.acquire_write()
            held.set()
            release.wait(5)
            lock.release_write()

        t = threading.Thread(target=holder)
        t.start()
        held.wait(5)
        before_contended = dict(lock._contended)
        before_acquires = dict(lock._acquires)
        assert lock.try_acquire_read(timeout=0.0) is False
        release.set()
        t.join()
        # A failed probe leaves both the contention attribution and the
        # acquisition counters untouched.
        assert lock._contended == before_contended
        assert lock._acquires == before_acquires


class TestStallWatchdog:
    def _hold_write(self, lock):
        held, release = threading.Event(), threading.Event()

        def holder():
            lock.acquire_write()
            held.set()
            release.wait(10)
            lock.release_write()

        t = threading.Thread(target=holder)
        t.start()
        held.wait(5)
        return release, t

    def test_lock_stall_fires_once_and_rearms(self, tmp_path, store):
        store["mp"]["m"].insert_one({"i": 1})
        rec = FlightRecorder(store, str(tmp_path))
        clock = SimClock()
        wd = StallWatchdog(rec, store=store, stall_timeout_s=0.05,
                           clock=clock)
        release, t = self._hold_write(store["mp"]["m"]._lock)
        try:
            assert wd.check_once() == []  # first failure only arms
            clock.run_until(0.1)
            events = wd.check_once()
            assert len(events) == 1
            assert events[0]["probe"] == "lock:mp.m"
            assert events[0]["stacks"], "stall must carry thread stacks"
            assert any("acquire_write" in s["stack"] or "holder" in s["stack"]
                       for s in events[0]["stacks"])
            assert wd.check_once() == []  # debounced while still stalled
        finally:
            release.set()
            t.join()
        assert wd.check_once() == []  # recovered
        # Fires again on a second episode.
        release2, t2 = self._hold_write(store["mp"]["m"]._lock)
        try:
            wd.check_once()
            clock.run_until(0.2)
            assert len(wd.check_once()) == 1
        finally:
            release2.set()
            t2.join()
        assert wd.stalls_detected == 2
        # Counter carries the probe family as its label.
        metrics = {m["name"]: m for m in get_registry().collect()}
        series = metrics["repro_flight_stalls_total"]["series"]
        assert [(s["labels"], s["value"]) for s in series] == [
            ({"probe": "lock"}, 2)]
        # Events landed in the ring (fsynced) and in recent_events().
        ring_events = decode_ring(str(tmp_path))["events"]
        assert [e["type"] for e in ring_events] == ["stall", "stall"]
        assert [e["probe"] for e in rec.recent_events()] == [
            "lock:mp.m", "lock:mp.m"]
        rec.stop()

    def test_arms_after_consecutive_failed_probes_on_the_clock(self):
        """interval 1 s, timeout 3 s: the stall fires on the fourth failed
        probe in a row, and one good probe in between starts the count
        over.  No holder thread, no sleeping: the probed lock is a stub."""

        class Wedged:
            wedged = True

            def try_acquire_read(self, timeout=0.0):
                return not self.wedged

            def release_read(self):
                pass

        lock = Wedged()
        clock = SimClock()
        wd = StallWatchdog(None, interval_s=1.0, stall_timeout_s=3.0,
                           clock=clock)
        wd._iter_locks = lambda: [("lock:mp.m", lock)]
        before = threading.active_count()
        wd.start()
        clock.run_until(3.0)  # failed probes at 1, 2, 3
        assert wd.stalls_detected == 0
        lock.wedged = False
        clock.run_until(4.0)  # a good probe: the episode is over
        lock.wedged = True
        clock.run_until(7.0)  # failed at 5, 6, 7: three in a row again
        assert wd.stalls_detected == 0
        clock.run_until(8.0)  # the fourth
        assert wd.stalls_detected == 1
        clock.run_until(20.0)  # fires once per episode
        assert wd.stalls_detected == 1
        assert threading.active_count() == before
        wd.stop()
        assert not wd.running

    def test_journal_heartbeat_in_stats(self, tmp_path):
        store = DocumentStore(persistence_dir=str(tmp_path / "data"))
        try:
            store["mp"]["m"].insert_one({"i": 1})
            deadline = time.time() + 5.0
            while time.time() < deadline:
                journal = store.server_status()["journal"]
                if journal.get("heartbeat_age_s") is not None:
                    break
                time.sleep(0.02)
            assert journal["heartbeat_age_s"] is not None
            assert journal["heartbeat_age_s"] < 60.0
        finally:
            store.close()

    def test_journal_stall_detection(self, tmp_path, store):
        class FakeJournalStore:
            def server_status(self):
                return {"journal": {"pending": 7, "heartbeat_age_s": 9.0}}

            def list_database_names(self):
                return []

        rec = FlightRecorder(None, str(tmp_path))
        wd = StallWatchdog(rec, store=FakeJournalStore(),
                           stall_timeout_s=5.0)
        events = wd.check_once()
        assert len(events) == 1
        assert events[0]["probe"] == "journal"
        assert "7 records pending" in events[0]["detail"]
        assert wd.check_once() == []  # debounced
        rec.stop()

    def test_wedged_journal_stall_with_warehouse_attached(
            self, tmp_path, monkeypatch):
        """The watchdog ``repro serve`` builds reports a wedged journal at
        once, even with a telemetry warehouse on the same store: the stall
        goes to the ring, never through the journal that is stuck."""
        from repro.docstore import persistence

        store = DocumentStore(persistence_dir=str(tmp_path / "data"),
                              fsync="always")
        TelemetryWarehouse(store)
        coll = store["mp"]["m"]
        coll.insert_one({"i": 0})

        gate = threading.Event()

        class BlockedFsync:
            def __getattr__(self, name):
                return getattr(os, name)

            def fsync(self, fd):
                gate.wait(10)
                os.fsync(fd)

        monkeypatch.setattr(persistence, "os", BlockedFsync())
        writers = [threading.Thread(target=coll.insert_one, args=({"i": i},))
                   for i in (1, 2)]
        rec = FlightRecorder(store, str(tmp_path / "flight"))
        wd = StallWatchdog(rec, store=store, stall_timeout_s=0.05)
        fired: list = []
        try:
            for t in writers:  # the first wedges in fsync, the second queues
                t.start()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                journal = store.server_status()["journal"]
                if (journal["pending"] > 0
                        and (journal["heartbeat_age_s"] or 0.0) >= 0.1):
                    break
                time.sleep(0.01)
            assert journal["pending"] > 0, "the second insert never queued"
            inserts = store.server_status()["opcounters"]["insert"]
            checker = threading.Thread(
                target=lambda: fired.extend(wd.check_once()), daemon=True)
            checker.start()
            checker.join(1.0)
            assert not checker.is_alive(), "check_once() blocked"
            assert store.server_status()["opcounters"]["insert"] == inserts
        finally:
            gate.set()
            for t in writers:
                t.join(5)
        assert not any(t.is_alive() for t in writers)
        assert [e["probe"] for e in fired] == ["journal"]
        ring_events = decode_ring(str(tmp_path / "flight"))["events"]
        assert [e["probe"] for e in ring_events] == ["journal"]
        rec.stop()
        store.close()

    def test_op_stall_detection(self, tmp_path, store):
        """A find parked mid-scan past the timeout fires the op probe, which
        names it; the probe re-arms once the find is done."""
        coll = store["mp"]["m"]
        coll.insert_one({"i": 1})
        started, release = threading.Event(), threading.Event()
        original = coll._select

        def gated(*args, **kwargs):
            for hit in original(*args, **kwargs):
                started.set()
                release.wait(timeout=5)
                yield hit

        coll._select = gated
        finder = threading.Thread(
            target=lambda: coll.find({"i": 1}).to_list())
        rec = FlightRecorder(None, str(tmp_path))
        wd = StallWatchdog(rec, store=store, stall_timeout_s=0.05)
        finder.start()
        try:
            assert started.wait(timeout=5)
            time.sleep(0.1)
            events = wd.check_once()
            assert [e["probe"] for e in events] == ["op"]
            assert "(find on mp.m) running for" in events[0]["detail"]
            assert any("test_flight:gated" in s["stack"]
                       for s in events[0]["stacks"])
            assert wd.check_once() == []  # debounced while still stalled
        finally:
            release.set()
            finder.join(timeout=5)
        assert wd.check_once() == []
        rec.stop()

    def test_daemon_lifecycle(self, tmp_path, store):
        wd = StallWatchdog(None, store=store, interval_s=0.05,
                           stall_timeout_s=10.0)
        wd.start()
        assert wd.running
        wd.stop()
        assert not wd.running


class TestDumpAllStacks:
    def test_parked_thread_outermost_first_without_caller(self):
        started, release = threading.Event(), threading.Event()

        def parked_target():
            started.set()
            release.wait(timeout=10)

        t = threading.Thread(target=parked_target, name="parked")
        t.start()
        try:
            assert started.wait(timeout=5)
            rows = dump_all_stacks()
        finally:
            release.set()
            t.join()
        frames = next(r for r in rows if r["thread"] == "parked")[
            "stack"].split(";")
        assert frames[0] == "threading:_bootstrap"
        assert "test_flight:parked_target" in frames
        assert threading.current_thread().name not in {
            r["thread"] for r in rows}
        assert not any("test_parked_thread_outermost_first" in r["stack"]
                       for r in rows)


# -- changestream backlog accounting --------------------------------------


class TestChangestreamAccounting:
    def test_dropped_counter_and_backlog_gauge(self, store):
        coll = store["mp"]["m"]
        stream = coll.watch(max_buffer=5)
        for i in range(9):
            coll.insert_one({"i": i})
        assert stream.dropped == 4
        metrics = {m["name"]: m for m in get_registry().collect()}
        dropped = metrics["repro_changestream_dropped_total"]["series"]
        assert [(s["labels"]["ns"], s["value"]) for s in dropped] == [
            ("m", 4)]
        backlog = metrics["repro_changestream_backlog"]["series"]
        assert [(s["labels"]["ns"], s["value"]) for s in backlog] == [
            ("m", 5)]
        # Overflow semantics preserved: next drain raises, then recovers.
        with pytest.raises(DocstoreError):
            stream.drain()
        coll.insert_one({"i": 99})
        assert len(stream.drain()) == 1
        # Gauge tracks the drain back down.
        metrics = {m["name"]: m for m in get_registry().collect()}
        backlog = metrics["repro_changestream_backlog"]["series"]
        assert backlog[0]["value"] == 0
        stream.close()


# -- wire op, RemoteClient, and the debug endpoint ------------------------


class TestFlightSurfaces:
    def test_wire_flight_op(self, tmp_path, store):
        store["mp"]["m"].insert_one({"i": 1})
        with DatastoreServer(store, port=0).start() as server:
            with RemoteClient(*server.address) as client:
                # No recorder yet: status degrades gracefully, the rest 4xx.
                assert client.flight() == {"attached": False,
                                           "running": False}
                with pytest.raises(DocstoreError):
                    client.flight("window")
                rec = start_flight_recorder(store, str(tmp_path),
                                            interval_s=60.0)
                rec.capture()
                rec.capture()
                status = client.flight()
                assert status["attached"] is True or status["running"]
                assert status["snapshots"] == 2
                window = client.flight("window", limit=1)
                assert len(window["snapshots"]) == 1
                assert window["snapshots"][0]["seq"] == 2
                rec.record_event("stall", {"probe": "lock:mp.m"})
                events = client.flight("events")
                assert events["events"][-1]["type"] == "stall"
                anomalies = client.flight("anomalies", threshold=3.0)
                assert "anomalies" in anomalies
                crash = client.flight("crash")
                assert crash == {"crash_report": None}
                with pytest.raises(DocstoreError):
                    client.flight("bogus")

    def test_debug_flight_endpoint(self, tmp_path, store):
        from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine

        def _get(url):
            try:
                with urllib.request.urlopen(url) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        api = MaterialsAPI(QueryEngine(store["mp"]))
        with MaterialsAPIServer(api) as server:
            code, doc = _get(server.base_url + "/debug/flight")
            assert code == 200 and doc["attached"] is False
            rec = start_flight_recorder(store, str(tmp_path),
                                        interval_s=60.0)
            rec.capture()
            code, doc = _get(server.base_url + "/debug/flight?window=5")
            assert code == 200
            assert doc["attached"] is True
            assert doc["snapshots"][0]["seq"] == 1
            rec.record_event("stall", {"probe": "journal"})
            code, doc = _get(server.base_url + "/debug/flight?events=1")
            assert doc["events"][-1]["type"] == "stall"
            code, doc = _get(server.base_url + "/debug/flight?anomalies=1")
            assert code == 200 and "anomalies" in doc


# -- crash forensics ------------------------------------------------------


class TestCrashForensics:
    def _dirty_marker(self, directory):
        """Rewrite the session marker as if another (dead) process owned
        it — the detector ignores markers belonging to the live pid."""
        path = os.path.join(str(directory), SESSION_FILE)
        marker = json.load(open(path))
        marker["pid"] = 1
        json.dump(marker, open(path, "w"))

    def test_fault_handler_enabled(self, tmp_path):
        path = enable_fault_handler(str(tmp_path))
        assert path == str(tmp_path / "faulthandler.log")
        import faulthandler

        assert faulthandler.is_enabled()

    def test_clean_shutdown_not_flagged(self, tmp_path, store):
        rec = FlightRecorder(store, str(tmp_path))
        rec.start()
        rec.stop()
        assert detect_unclean_shutdown(str(tmp_path)) is None
        assert generate_crash_report(str(tmp_path)) is None

    def test_own_pid_not_flagged(self, tmp_path, store):
        rec = FlightRecorder(store, str(tmp_path))
        rec.start()  # dirty marker, but it is *our* live session
        assert detect_unclean_shutdown(str(tmp_path)) is None
        rec.stop()

    def test_generate_and_acknowledge(self, tmp_path, store):
        store["mp"]["m"].insert_many([{"i": i} for i in range(10)])
        rec = FlightRecorder(store, str(tmp_path))
        rec.start()
        for _ in range(3):
            rec.capture()
        rec._write_session(clean=False)  # simulate dying dirty
        rec._task.stop()  # the daemon dies, the marker stays dirty
        rec.flush()
        self._dirty_marker(tmp_path)

        report = generate_crash_report(
            str(tmp_path), journal_recovery={"replayed": 10})
        assert report is not None
        assert report["journal_recovery"] == {"replayed": 10}
        assert report["final"]["opcounters"]["insert"] >= 10
        assert report["final"]["seq"] >= 3
        persisted = read_crash_report(str(tmp_path))
        assert persisted["session"]["pid"] == 1
        assert persisted["journal_recovery"] == {"replayed": 10}
        # Marker acknowledged: a second startup does not re-report.
        assert detect_unclean_shutdown(str(tmp_path)) is None
        assert generate_crash_report(str(tmp_path)) is None

    def test_build_report_never_opens_docstore(self, tmp_path, monkeypatch):
        w = _RingWriter(str(tmp_path))
        w.append(KIND_FULL, {
            "seq": 1, "ts": time.time(),
            "server": {"opcounters": {"insert": 4}},
        })
        w.close()

        def boom(*args, **kwargs):
            raise AssertionError("docstore must not be opened")

        monkeypatch.setattr(DocumentStore, "__init__", boom)
        report = build_crash_report(str(tmp_path))
        assert report["final"]["opcounters"] == {"insert": 4}


_FLIGHT_CRASH_CHILD = """\
import os, sys, threading, time
from repro.docstore import DocumentStore
from repro.obs.flight import FlightRecorder, enable_fault_handler

data_dir, flight_dir = sys.argv[1], sys.argv[2]
store = DocumentStore(persistence_dir=data_dir, fsync="always")
enable_fault_handler(flight_dir)
rec = FlightRecorder(store, flight_dir, interval_s=0.05)
rec.start()
coll = store["mp"]["m"]
for i in range(200):
    coll.insert_one({"i": i, "a": i, "b": -i})
    if i and i % 25 == 0:
        rec.capture()   # guarantee snapshots even on a slow box
        rec.flush()
os._exit(137)  # power loss: no stop(), no atexit, marker stays dirty
"""


class TestCrashSubprocess:
    @pytest.fixture
    def crashed(self, tmp_path):
        """Run the child to its os._exit mid-write-load."""
        script = tmp_path / "crash_child.py"
        script.write_text(_FLIGHT_CRASH_CHILD)
        data_dir = tmp_path / "data"
        flight_dir = tmp_path / "flight"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(data_dir), str(flight_dir)],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert proc.returncode == 137, proc.stderr
        return data_dir, flight_dir

    def test_diagnose_crash_from_ring_alone(self, crashed, monkeypatch,
                                            capsys):
        _, flight_dir = crashed
        marker = json.load(open(flight_dir / SESSION_FILE))
        assert marker["clean"] is False

        def boom(*args, **kwargs):
            raise AssertionError("diagnose must not open the docstore")

        monkeypatch.setattr("repro.cli.DocumentStore", boom)
        monkeypatch.setattr(DocumentStore, "__init__", boom)
        rc = main(["diagnose", "--flight-dir", str(flight_dir),
                   "--crash", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        final = report["final"]
        assert final["opcounters"]["insert"] >= 25
        assert final["process"]["pid"] != os.getpid()
        assert final["journal"] is not None
        assert report["session"]["clean"] is False
        assert report["snapshots_in_window"] >= 1
        deltas = report["window_delta"]["deltas"]
        assert deltas["server.opcounters.insert"]["delta"] > 0

    def test_startup_report_correlates_journal_recovery(self, crashed):
        data_dir, flight_dir = crashed
        store = DocumentStore(persistence_dir=str(data_dir))
        try:
            recovery = store.last_recovery
            assert recovery is not None
            report = generate_crash_report(str(flight_dir),
                                           journal_recovery=recovery)
        finally:
            store.close()
        assert report is not None
        assert report["journal_recovery"] == recovery
        on_disk = json.load(open(flight_dir / CRASH_REPORT_FILE))
        assert on_disk["journal_recovery"] == recovery
        assert on_disk["final"]["opcounters"]["insert"] >= 25
        # Acked writes actually survived — the report and the store agree.
        assert store["mp"]["m"] is not None


# -- the diagnose CLI ------------------------------------------------------


class TestDiagnoseCLI:
    @pytest.fixture
    def ring(self, tmp_path, store):
        store["mp"]["m"].insert_one({"i": 0})
        rec = FlightRecorder(store, str(tmp_path))
        base = time.time()
        for i in range(12):
            store["mp"]["m"].insert_one({"i": i})
            rec.capture(now=base + i)
        rec.record_event("stall", {"probe": "lock:mp.m"})
        rec.flush()
        rec._writer.close()
        return tmp_path, base

    def test_summary(self, ring, capsys):
        directory, _ = ring
        rc = main(["diagnose", "--flight-dir", str(directory)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "12 snapshots" in out
        assert "event: stall" in out

    def test_window_json(self, ring, capsys):
        directory, _ = ring
        rc = main(["diagnose", "--flight-dir", str(directory),
                   "--window", "3", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["snapshots"] == 12
        assert [s["seq"] for s in doc["window"]] == [10, 11, 12]

    def test_diff(self, ring, capsys):
        directory, base = ring
        rc = main(["diagnose", "--flight-dir", str(directory), "--json",
                   "--diff", str(base), str(base + 11)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deltas"]["server.opcounters.insert"]["delta"] == 11.0

    def test_anomalies(self, ring, capsys):
        directory, _ = ring
        rc = main(["diagnose", "--flight-dir", str(directory),
                   "--anomalies", "--threshold", "3.5", "--json"])
        assert rc == 0
        json.loads(capsys.readouterr().out)  # valid JSON list

    def test_empty_ring(self, tmp_path, capsys):
        rc = main(["diagnose", "--flight-dir", str(tmp_path / "missing")])
        assert rc == 0
        assert "0 chunks" in capsys.readouterr().out

    def test_crash_over_missing_report(self, tmp_path, capsys):
        rc = main(["diagnose", "--flight-dir", str(tmp_path),
                   "--crash", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["snapshots_total"] == 0
