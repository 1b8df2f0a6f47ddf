"""Failure-injection tests: crashes, failovers, races, poisoned inputs."""

import os
import threading

import pytest

from repro.docstore import Collection, DocumentStore, ShardReplicaSet
from repro.errors import DuplicateKeyError, RateLimitExceeded


class TestCrashRecovery:
    def test_recovery_preserves_unique_constraints(self, tmp_path):
        """Index metadata survives a snapshot; recovered stores still
        reject duplicates."""
        d = str(tmp_path / "s")
        store = DocumentStore(persistence_dir=d)
        coll = store["mp"]["tasks"]
        coll.create_index("task_id", unique=True)
        coll.insert_one({"task_id": "t1"})
        store.snapshot()
        del store

        recovered = DocumentStore(persistence_dir=d)
        with pytest.raises(DuplicateKeyError):
            recovered["mp"]["tasks"].insert_one({"task_id": "t1"})

    def test_repeated_crash_recover_cycles(self, tmp_path):
        """Ten crash/recover cycles with interleaved writes lose nothing."""
        d = str(tmp_path / "s")
        for cycle in range(10):
            store = DocumentStore(persistence_dir=d)
            coll = store["mp"]["log"]
            assert coll.count_documents() == cycle
            coll.insert_one({"cycle": cycle})
            if cycle % 3 == 0:
                store.snapshot()
            del store  # crash (journal holds the rest)
        final = DocumentStore(persistence_dir=d)
        assert final["mp"]["log"].count_documents() == 10

    def test_garbage_journal_lines_skipped_at_tail_only(self, tmp_path):
        d = str(tmp_path / "s")
        store = DocumentStore(persistence_dir=d)
        store["mp"]["c"].insert_many([{"k": i} for i in range(3)])
        del store
        journal = os.path.join(d, "journal.jsonl")
        with open(journal, "a") as fh:
            fh.write("NOT JSON AT ALL {{{\n")
        recovered = DocumentStore(persistence_dir=d)
        assert recovered["mp"]["c"].count_documents() == 3


def _insert_ids(rs, ids):
    for i in ids:
        rs.write("mp", "m", lambda c, i=i: c.insert_one({"_id": i}))


def _count(member):
    return member.store["mp"]["m"].count_documents()


class TestReplicaFailover:
    def test_writes_during_failover_not_lost(self):
        """Write, fail over, keep writing; full history on the new primary."""
        rs = ShardReplicaSet("rs")
        _insert_ids(rs, range(5))
        rs.step_down()
        _insert_ids(rs, range(5, 10))
        assert _count(rs.primary) == 10

    def test_laggy_secondary_not_elected(self):
        rs = ShardReplicaSet("rs")
        fresh, stale = [m for m in rs.members if m is not rs.primary]
        rs.kill(stale.name)  # only one secondary sees the next writes
        _insert_ids(rs, range(8))
        promoted = rs.step_down()
        assert promoted == fresh.name

    def test_concurrent_writes_reach_every_member(self):
        """Four writer threads; replication is synchronous, so every
        acknowledged write is on every member when the writers finish."""
        rs = ShardReplicaSet("rs", n_members=2)
        threads = [threading.Thread(target=_insert_ids,
                                    args=(rs, range(k * 100, k * 100 + 25)))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "writer wedged"
        assert [_count(m) for m in rs.members] == [100, 100]
        assert {m.applied_optime for m in rs.members} == {100}


class TestConcurrencyRaces:
    def test_unique_index_under_concurrent_inserts(self):
        """N threads race to claim the same natural key: exactly one wins."""
        coll = Collection("locks")
        coll.create_index("name", unique=True)
        wins = []
        losses = []

        def claim(tid):
            try:
                coll.insert_one({"name": "the-lock", "tid": tid})
                wins.append(tid)
            except DuplicateKeyError:
                losses.append(tid)

        threads = [threading.Thread(target=claim, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert len(losses) == 11
        assert len(coll) == 1

    def test_upsert_race_single_document(self):
        """Concurrent counting upserts on one key never lose increments."""
        coll = Collection("counters")

        def bump():
            for _ in range(50):
                coll.update_one({"k": "hits"}, {"$inc": {"n": 1}}, upsert=True)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        docs = coll.find({"k": "hits"}).to_list()
        # Upsert itself can race to create two docs only if find+insert were
        # not atomic — our collection lock prevents that.
        assert len(docs) == 1
        assert docs[0]["n"] == 200

    def test_rate_limiter_thread_safety(self):
        from repro.api import RateLimiter

        limiter = RateLimiter(max_requests=100, window_s=60,
                              clock=lambda: 0.0)
        admitted = []
        denied = []

        def hammer():
            for _ in range(50):
                try:
                    limiter.check("user")
                    admitted.append(1)
                except RateLimitExceeded:
                    denied.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 100
        assert len(denied) == 100


class TestPoisonedInputs:
    def test_unparseable_run_directory_counted_not_fatal(self, tmp_path):
        """A corrupt run dir must not abort the loading sweep (§IV-C1)."""
        from repro.builders import TaskLoader
        from repro.dft import FakeVASP, Resources, SCFParameters
        from repro.matgen import make_prototype

        good = str(tmp_path / "good")
        FakeVASP().run(
            make_prototype("rocksalt", ["Na", "Cl"]),
            SCFParameters(amix=0.15, algo="All", nelm=500),
            Resources(walltime_s=1e9, memory_mb=1e6), run_dir=good,
        )
        bad = str(tmp_path / "bad")
        os.makedirs(bad)
        with open(os.path.join(bad, "run_summary.json"), "w") as fh:
            fh.write("{ corrupt json")
        db = DocumentStore()["mp"]
        stats = TaskLoader(db).load_tree(str(tmp_path))
        assert stats["loaded"] == 1
        assert stats["unparseable"] == 1

    def test_wire_protocol_rejects_garbage_without_dying(self):
        import socket

        from repro.docstore import DatastoreServer

        with DatastoreServer(DocumentStore()) as server:
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=5)
            fh = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = fh.readline()
            assert b'"ok": false' in response or b"false" in response
            # The server is still alive for proper requests.
            sock.sendall(b'{"op": "ping"}\n')
            assert b"pong" in fh.readline()
            sock.close()

    def test_vnv_survives_absurd_documents(self):
        """Rules never crash on missing/odd fields — they report or skip."""
        from repro.builders import VnVRunner

        db = DocumentStore()["mp"]
        db["materials"].insert_many([
            {},  # empty
            {"band_gap": None, "formation_energy_per_atom": None},
            {"reduced_formula": "NaCl"},  # known compound with no data
        ])
        db["tasks"].insert_one({"state": "COMPLETED"})
        report = VnVRunner(db).run_all()
        assert isinstance(report["n_violations"], int)
