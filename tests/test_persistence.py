"""Tests for snapshot + journal durability and crash recovery."""

import json
import logging
import os
import threading

import pytest

from repro.docstore import DocumentStore, ObjectId
from repro.docstore.persistence import JournalWriter


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "datastore")


@pytest.fixture
def repro_log():
    """Captured records from the ``repro`` logger tree.

    The package logger sets ``propagate = False``, so pytest's ``caplog``
    (which listens on the root logger) never sees these records — attach a
    handler directly instead.
    """
    records = []

    class _Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    handler = _Capture(level=logging.DEBUG)
    root = logging.getLogger("repro")
    root.addHandler(handler)
    yield records
    root.removeHandler(handler)


class TestSnapshot:
    def test_snapshot_and_reload(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["materials"].insert_many(
            [{"formula": "Fe2O3", "energy": -7.1}, {"formula": "NaCl", "energy": -3.2}]
        )
        store.snapshot()
        store.close()

        reloaded = DocumentStore(persistence_dir=store_dir)
        docs = reloaded["mp"]["materials"].find().to_list()
        assert {d["formula"] for d in docs} == {"Fe2O3", "NaCl"}

    def test_snapshot_preserves_indexes(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        coll = store["mp"]["tasks"]
        coll.insert_one({"task_id": "t1"})
        coll.create_index("task_id", unique=True)
        store.snapshot()
        store.close()

        reloaded = DocumentStore(persistence_dir=store_dir)
        info = reloaded["mp"]["tasks"].index_information()
        assert info["task_id_1"]["unique"] is True

    def test_snapshot_truncates_journal(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["c"].insert_one({"x": 1})
        journal = os.path.join(store_dir, "journal.jsonl")
        assert os.path.getsize(journal) > 0
        store.snapshot()
        assert os.path.getsize(journal) == 0
        store.close()


class TestJournalRecovery:
    def test_writes_after_snapshot_survive_crash(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["m"].insert_one({"formula": "A"})
        store.snapshot()
        store["mp"]["m"].insert_one({"formula": "B"})
        store["mp"]["m"].update_one({"formula": "A"}, {"$set": {"energy": -1.0}})
        # Simulate crash: no snapshot, no clean close.
        del store

        recovered = DocumentStore(persistence_dir=store_dir)
        docs = {d["formula"]: d for d in recovered["mp"]["m"].find()}
        assert set(docs) == {"A", "B"}
        assert docs["A"]["energy"] == -1.0

    def test_deletes_are_replayed(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        coll = store["mp"]["m"]
        coll.insert_many([{"k": 1}, {"k": 2}])
        store.snapshot()
        coll.delete_one({"k": 1})
        del store

        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == 1

    def test_journal_only_no_snapshot(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["m"].insert_one({"x": 1})
        del store

        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == 1

    def test_torn_journal_tail_is_tolerated(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["m"].insert_many([{"k": 1}, {"k": 2}])
        del store
        journal = os.path.join(store_dir, "journal.jsonl")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"db": "mp", "op": "insert", "payload": {"ns": "m", "doc"')

        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == 2

    def test_recovery_is_idempotent(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["m"].insert_one({"_id": "fixed", "x": 1})
        del store
        # Two recoveries in a row must not duplicate documents.
        DocumentStore(persistence_dir=store_dir).close()
        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == 1

    def test_in_memory_store_rejects_snapshot(self):
        from repro.errors import DocstoreError

        with pytest.raises(DocstoreError):
            DocumentStore().snapshot()


class TestTornTail:
    """Recovery must replay the valid prefix, warn, and truncate the rest."""

    def _seed(self, store_dir, n=3):
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["m"].insert_many([{"k": i} for i in range(n)])
        store.close()
        return os.path.join(store_dir, "journal.jsonl")

    def _recover_and_check(self, store_dir, repro_log, expected_count):
        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == expected_count
        info = recovered._persistence.last_recovery
        assert info["replayed"] == expected_count
        assert info["truncated_at"] is not None
        warnings = [r for r in repro_log
                    if r.levelno == logging.WARNING and "torn tail" in r.getMessage()]
        assert len(warnings) == 1
        return recovered, info

    def test_truncated_json_line(self, store_dir, repro_log):
        journal = self._seed(store_dir)
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"db": "mp", "op": "insert", "payload": {"ns": "m", "doc"')
        self._recover_and_check(store_dir, repro_log, 3)
        # The corrupt suffix is gone from disk: the next recovery is clean.
        with open(journal, "rb") as fh:
            for line in fh:
                json.loads(line)

    def test_garbage_bytes(self, store_dir, repro_log):
        journal = self._seed(store_dir)
        with open(journal, "ab") as fh:
            fh.write(b"\x00\xff\xfe garbage not json\n")
            fh.write(b'{"db": "mp", "op": "insert", '
                     b'"payload": {"ns": "m", "doc": {"_id": "lost", "k": 99}}}\n')
        recovered, info = self._recover_and_check(store_dir, repro_log, 3)
        # Records *after* the corruption are unreachable by design (we
        # cannot trust framing past a torn write) and must not resurface.
        assert recovered["mp"]["m"].find_one({"_id": "lost"}) is None
        reopened = DocumentStore(persistence_dir=store_dir)
        assert reopened["mp"]["m"].count_documents() == 3

    def test_malformed_record_missing_fields(self, store_dir, repro_log):
        journal = self._seed(store_dir)
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"not": "a journal record"}\n')
        _, info = self._recover_and_check(store_dir, repro_log, 3)
        assert "malformed" in info["reason"]

    def test_empty_trailing_line_is_not_corruption(self, store_dir, repro_log):
        journal = self._seed(store_dir)
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == 3
        info = recovered._persistence.last_recovery
        assert info["truncated_at"] is None
        assert not [r for r in repro_log if r.levelno >= logging.WARNING]


class TestGroupCommit:
    def test_fsync_policy_surfaces_in_journal_stats(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir, fsync="always")
        store["mp"]["m"].insert_one({"k": 1})
        stats = store.server_status()["journal"]
        assert stats["policy"] == "always"
        assert stats["records"] == 1
        assert stats["fsyncs"] >= 1
        assert stats["durable_seq"] == stats["last_seq"]
        store.close()

    def test_invalid_fsync_policy_rejected(self, store_dir):
        from repro.errors import DocstoreError

        with pytest.raises(DocstoreError, match="fsync policy"):
            DocumentStore(persistence_dir=store_dir, fsync="sometimes")

    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_concurrent_writers_group_commit(self, store_dir, policy):
        store = DocumentStore(persistence_dir=store_dir, fsync=policy)
        coll = store["mp"]["m"]
        n_threads, per_thread = 6, 25

        def write(t):
            for i in range(per_thread):
                coll.insert_one({"_id": f"{t}-{i}", "t": t})

        threads = [threading.Thread(target=write, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.server_status()["journal"]
        assert stats["records"] == n_threads * per_thread
        assert stats["batches"] >= 1
        store.close()

        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == n_threads * per_thread
        recovered.close()

    def test_sequence_numbers_are_contiguous_on_disk(self, store_dir):
        store = DocumentStore(persistence_dir=store_dir)
        for i in range(10):
            store["mp"]["m"].insert_one({"k": i})
        store.close()
        with open(os.path.join(store_dir, "journal.jsonl"), encoding="utf-8") as fh:
            seqs = [json.loads(line)["seq"] for line in fh if line.strip()]
        assert seqs == list(range(1, 11))

    def test_journal_line_bytes_are_pinned(self, store_dir):
        """``append`` encodes outside its lock and splices ``seq`` in as
        the last key; the line must stay what encoding the whole record
        gave."""
        store = DocumentStore(persistence_dir=store_dir)
        coll = store["mp"]["m"]
        coll.insert_one({"_id": ObjectId("0123456789abcdef01234567"),
                         "f": "Li₂O", "e": -1.5, "tags": [None, True]})
        coll.delete_one({"_id": ObjectId("0123456789abcdef01234567")})
        store.close()
        with open(os.path.join(store_dir, "journal.jsonl"), "rb") as fh:
            lines = fh.read().splitlines()
        assert lines == [
            b'{"db": "mp", "op": "insert", "payload": {"ns": "m", "doc": '
            b'{"_id": {"$oid": "0123456789abcdef01234567"}, '
            b'"f": "Li\\u2082O", "e": -1.5, "tags": [null, true]}}, '
            b'"seq": 1}',
            b'{"db": "mp", "op": "delete", "payload": {"ns": "m", "_id": '
            b'{"$oid": "0123456789abcdef01234567"}}, "seq": 2}',
        ]

    def test_empty_record_line(self, tmp_path):
        writer = JournalWriter(str(tmp_path / "j.jsonl"), fsync="never")
        assert writer.append({}) == 1
        writer.close()
        assert (tmp_path / "j.jsonl").read_bytes() == b'{"seq": 1}\n'


class TestSnapshotSequenceGuard:
    def test_manifest_last_seq_prevents_double_apply(self, store_dir):
        """A journal record the snapshot already captured must be skipped.

        Simulates a crash after the manifest was written but before
        compaction removed the captured prefix: the stale record's ``seq``
        is at or below the manifest's ``last_seq``.
        """
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["m"].insert_one({"_id": "a", "n": 1})
        store.snapshot()
        last_seq = store.server_status()["journal"]["last_seq"]
        store.close()

        journal = os.path.join(store_dir, "journal.jsonl")
        with open(journal, "a", encoding="utf-8") as fh:
            # Stale: already inside the snapshot (seq <= last_seq); if
            # replayed it would clobber nothing here, but `skipped` proves
            # the guard fired rather than the idempotency fallback.
            fh.write(json.dumps({
                "seq": last_seq, "db": "mp", "op": "update",
                "payload": {"ns": "m", "_id": "a",
                            "doc": {"_id": "a", "n": 999}},
            }) + "\n")
            fh.write(json.dumps({
                "seq": last_seq + 1, "db": "mp", "op": "insert",
                "payload": {"ns": "m", "doc": {"_id": "b", "n": 2}},
            }) + "\n")

        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].find_one({"_id": "a"})["n"] == 1
        assert recovered["mp"]["m"].find_one({"_id": "b"})["n"] == 2
        info = recovered._persistence.last_recovery
        assert info["skipped"] == 1
        assert info["replayed"] == 1

    def test_writes_during_snapshot_survive_compaction(self, store_dir):
        """Compaction keeps journal records sequenced after the cut."""
        store = DocumentStore(persistence_dir=store_dir)
        store["mp"]["m"].insert_one({"_id": "pre"})
        store.snapshot()
        store["mp"]["m"].insert_one({"_id": "post"})
        # Crash without a further snapshot: "post" lives only in the journal.
        del store

        recovered = DocumentStore(persistence_dir=store_dir)
        assert recovered["mp"]["m"].count_documents() == 2
