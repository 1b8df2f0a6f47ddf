"""Durability: JSON snapshots plus a group-committed write-ahead journal.

MongoDB persists collections to disk and journals writes; the Materials
Project additionally needs backups/replication of the core database
(§IV-C1).  We reproduce the same recovery model at laptop scale, with the
write path engineered for the concurrent regime the deployment actually
ran in (FireWorks queue + builders + API hitting one server):

* every insert/update/delete appends a sequence-numbered record to
  ``<dir>/journal.jsonl`` through a **group-commit** writer: concurrent
  writers hand their records to a single committer thread, which writes
  each accumulated batch with one syscall and (policy permitting) one
  ``fsync`` — N writers pay one disk flush, not N;
* the ``fsync`` policy is configurable: ``"always"`` (acknowledge only
  after the batch is fsynced — machine-crash safe), ``"interval"``
  (fsync on a timer, default 50 ms — bounded loss window), ``"never"``
  (leave flushing to the OS).  Under every policy an acknowledged write
  has at least reached the OS page cache, so a *process* crash loses
  nothing that was acknowledged;
* ``snapshot()`` writes every collection to ``<dir>/<db>/<coll>.jsonl``
  plus a manifest carrying ``last_seq``, then **compacts** the journal:
  records with ``seq <= last_seq`` (the replayed prefix) are dropped and
  any tail written during the snapshot is kept.  Replay skips records at
  or below the manifest's ``last_seq``, so a crash mid-snapshot cannot
  double-apply;
* on startup ``recover()`` loads the latest snapshot and replays the
  journal on top.  A torn tail — truncated JSON, garbage bytes — stops
  replay at the first corrupt record, logs a warning, and truncates the
  journal there so the next recovery sees a clean file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import DocstoreError
from ..obs import get_logger
from .documents import document_from_json, document_to_json

__all__ = ["PersistenceManager", "JournalWriter", "FSYNC_POLICIES"]

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"

FSYNC_POLICIES = ("always", "interval", "never")

logger = get_logger("repro.docstore.persistence")


class JournalWriter:
    """Group-commit append path for the write-ahead journal.

    Writers call :meth:`append`; a dedicated committer thread drains the
    pending queue in batches.  Every acknowledged record has been written
    (handed to the OS); with the ``"always"`` policy it has also been
    fsynced before ``append`` returns, the fsync cost amortized across
    every writer in the batch.
    """

    def __init__(self, path: str, fsync: str = "interval",
                 fsync_interval_s: float = 0.05):
        if fsync not in FSYNC_POLICIES:
            raise DocstoreError(
                f"fsync policy must be one of {FSYNC_POLICIES}: {fsync!r}"
            )
        self.path = path
        self.fsync_policy = fsync
        self.fsync_interval_s = fsync_interval_s
        self._cond = threading.Condition(threading.Lock())
        self._pending: List[Tuple[int, str]] = []
        self._next_seq = 1
        self._written_seq = 0
        self._durable_seq = 0
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        # File handle and on-disk layout, guarded by _io_lock so compaction
        # and batch writes never interleave.
        self._io_lock = threading.Lock()
        self._fh = None
        self._last_fsync = time.monotonic()
        self._stats = {"records": 0, "batches": 0, "fsyncs": 0,
                       "max_batch": 0}
        # Committer liveness: monotonic time of the last loop pass.  The
        # flight watchdog reads its age — a wedged fsync shows up as
        # pending records under a stale heartbeat.
        self._heartbeat: Optional[float] = None

    # -- writer side ------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> int:
        """Assign a sequence number, enqueue, and wait for acknowledgement.

        Returns the record's ``seq``.  Blocks until the record has been
        written (every policy) and fsynced (``"always"`` only).  The record
        is encoded before the lock is taken; ``seq`` is spliced in as its
        last key, so the line is what encoding ``{**record, "seq": seq}``
        would give.
        """
        record = dict(record)
        record.pop("seq", None)
        head = document_to_json(record)[:-1] + (", " if record else "")
        with self._cond:
            if self._closed:
                raise DocstoreError("journal writer is closed")
            seq = self._next_seq
            self._next_seq += 1
            self._pending.append((seq, f'{head}"seq": {seq}}}'))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="journal-committer", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
            if self.fsync_policy == "always":
                while self._durable_seq < seq and not self._closed:
                    self._cond.wait()
            else:
                while self._written_seq < seq and not self._closed:
                    self._cond.wait()
        return seq

    def set_next_seq(self, next_seq: int) -> None:
        """Resume sequence numbering after recovery."""
        with self._cond:
            self._next_seq = max(self._next_seq, next_seq)
            self._written_seq = self._next_seq - 1
            self._durable_seq = self._next_seq - 1

    @property
    def last_seq(self) -> int:
        """Highest sequence number assigned so far."""
        with self._cond:
            return self._next_seq - 1

    # -- committer --------------------------------------------------------

    def _run(self) -> None:
        # Only the "interval" policy needs timed wakeups (so a quiet store
        # still converges to durable); the others sleep until notified.
        idle_timeout = (self.fsync_interval_s
                        if self.fsync_policy == "interval" else None)
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait(timeout=idle_timeout)
                    if not self._pending:
                        break
                batch = self._pending
                self._pending = []
                closed = self._closed
                self._heartbeat = time.monotonic()
            if batch:
                self._commit(batch)
            elif self.fsync_policy == "interval":
                self._maybe_interval_fsync()
            if closed and not batch:
                return

    def _commit(self, batch: List[Tuple[int, str]]) -> None:
        last = batch[-1][0]
        fsynced = False
        with self._io_lock:
            fh = self._open_locked()
            fh.write("".join(line + "\n" for _, line in batch))
            fh.flush()
            if self.fsync_policy == "always":
                os.fsync(fh.fileno())
                fsynced = True
            elif self.fsync_policy == "interval":
                now = time.monotonic()
                if now - self._last_fsync >= self.fsync_interval_s:
                    os.fsync(fh.fileno())
                    self._last_fsync = now
                    fsynced = True
        with self._cond:
            self._written_seq = max(self._written_seq, last)
            if fsynced:
                self._durable_seq = max(self._durable_seq, last)
            self._stats["records"] += len(batch)
            self._stats["batches"] += 1
            self._stats["max_batch"] = max(self._stats["max_batch"], len(batch))
            if fsynced:
                self._stats["fsyncs"] += 1
            self._heartbeat = time.monotonic()
            self._cond.notify_all()

    def _maybe_interval_fsync(self) -> None:
        with self._io_lock:
            if self._fh is None:
                return
            now = time.monotonic()
            if now - self._last_fsync < self.fsync_interval_s:
                return
            os.fsync(self._fh.fileno())
            self._last_fsync = now
        with self._cond:
            self._durable_seq = self._written_seq
            self._stats["fsyncs"] += 1
            self._cond.notify_all()

    def _open_locked(self):
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        """Block until every appended record is written and fsynced."""
        with self._cond:
            target = self._next_seq - 1
            self._cond.notify_all()
            while self._written_seq < target:
                self._cond.wait()
        with self._io_lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._last_fsync = time.monotonic()
        with self._cond:
            self._durable_seq = max(self._durable_seq, target)
            self._cond.notify_all()

    def compact(self, cut_seq: int) -> int:
        """Drop journal records with ``seq <= cut_seq``; keep the tail.

        The snapshot that called us holds the data up to ``cut_seq``; any
        records appended *during* the snapshot survive compaction and are
        replayed on recovery (replay is idempotent, and the manifest's
        ``last_seq`` guards the prefix).  Returns the number of retained
        records.
        """
        self.flush()
        with self._io_lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            kept: List[str] = []
            if os.path.exists(self.path):
                with open(self.path, encoding="utf-8") as fh:
                    for line in fh:
                        stripped = line.strip()
                        if not stripped:
                            continue
                        try:
                            seq = json.loads(stripped).get("seq", 0)
                        except ValueError:
                            continue  # torn tail: compacted away
                        if isinstance(seq, int) and seq > cut_seq:
                            kept.append(stripped)
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                for line in kept:
                    fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._last_fsync = time.monotonic()
        return len(kept)

    def stats(self) -> dict:
        with self._cond:
            out = dict(self._stats)
            out.update({
                "policy": self.fsync_policy,
                "last_seq": self._next_seq - 1,
                "written_seq": self._written_seq,
                "durable_seq": self._durable_seq,
                "pending": len(self._pending),
                "heartbeat_age_s": (
                    time.monotonic() - self._heartbeat
                    if self._heartbeat is not None else None),
            })
        return out

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
        # Drain anything the committer did not get to.
        with self._cond:
            batch = self._pending
            self._pending = []
        with self._io_lock:
            if batch:
                fh = self._open_locked()
                fh.write("".join(line + "\n" for _, line in batch))
                fh.flush()
            if self._fh is not None:
                if self.fsync_policy != "never":
                    os.fsync(self._fh.fileno())
                self._fh.close()
                self._fh = None


class PersistenceManager:
    """Binds a :class:`~repro.docstore.database.DocumentStore` to a directory."""

    def __init__(self, store: Any, directory: str, fsync: str = "interval",
                 fsync_interval_s: float = 0.05):
        self.store = store
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._journal_path = os.path.join(directory, _JOURNAL)
        self._journal = JournalWriter(self._journal_path, fsync=fsync,
                                      fsync_interval_s=fsync_interval_s)
        self._snapshot_lock = threading.Lock()
        self._recovering = False
        #: Filled by :meth:`recover`: replay accounting for introspection
        #: and tests (``replayed``, ``skipped``, ``truncated_at``).
        self.last_recovery: Optional[dict] = None

    # -- journalling --------------------------------------------------------

    def watch_database(self, db: Any) -> None:
        """Attach journal listeners to every (current and future) collection."""
        original_get = db.get_collection

        def wrapped_get(name: str, create: bool = True):
            coll = original_get(name, create)
            if not getattr(coll, "_journaled", False):
                coll._journaled = True
                coll.add_change_listener(
                    lambda op, payload, _db=db.name: self._journal_write(
                        _db, op, payload
                    )
                )
            return coll

        db.get_collection = wrapped_get  # type: ignore[method-assign]

    def _journal_write(self, db_name: str, op: str, payload: dict) -> None:
        if self._recovering:
            return
        self._journal.append({"db": db_name, "op": op, "payload": payload})

    def journal_stats(self) -> dict:
        """Group-commit accounting (batches, fsyncs, durable watermark)."""
        return self._journal.stats()

    # -- snapshot -----------------------------------------------------------

    def snapshot(self) -> None:
        """Write all databases to disk, then compact the journal.

        The journal prefix up to the sequence number captured at the start
        of the snapshot is dropped; records appended while the snapshot ran
        are retained and replayed (idempotently) on recovery.
        """
        with self._snapshot_lock:
            cut_seq = self._journal.last_seq
            manifest: Dict[str, Any] = {"databases": {}, "last_seq": cut_seq}
            for db_name in self.store.list_database_names():
                db = self.store.get_database(db_name)
                db_dir = os.path.join(self.directory, db_name)
                os.makedirs(db_dir, exist_ok=True)
                coll_entries = {}
                for coll_name in db.list_collection_names():
                    coll = db.get_collection(coll_name)
                    path = os.path.join(db_dir, f"{coll_name}.jsonl")
                    tmp = path + ".tmp"
                    docs = coll.all_documents()
                    with open(tmp, "w", encoding="utf-8") as fh:
                        for doc in docs:
                            fh.write(document_to_json(doc) + "\n")
                        fh.flush()
                        os.fsync(fh.fileno())
                    os.replace(tmp, path)
                    coll_entries[coll_name] = {
                        "count": len(docs),
                        "indexes": coll.index_information(),
                    }
                manifest["databases"][db_name] = coll_entries
            tmp_manifest = os.path.join(self.directory, _MANIFEST + ".tmp")
            with open(tmp_manifest, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_manifest, os.path.join(self.directory, _MANIFEST))
            self._journal.compact(cut_seq)

    # -- recovery -----------------------------------------------------------

    def recover(self) -> None:
        """Load the latest snapshot, then replay the journal on top."""
        manifest_path = os.path.join(self.directory, _MANIFEST)
        snapshot_seq = 0
        self._recovering = True
        try:
            if os.path.exists(manifest_path):
                with open(manifest_path, encoding="utf-8") as fh:
                    manifest = json.load(fh)
                snapshot_seq = int(manifest.get("last_seq", 0))
                for db_name, colls in manifest.get("databases", {}).items():
                    db = self.store.get_database(db_name)
                    self.watch_database(db)
                    for coll_name, meta in colls.items():
                        coll = db.get_collection(coll_name)
                        path = os.path.join(
                            self.directory, db_name, f"{coll_name}.jsonl"
                        )
                        if os.path.exists(path):
                            with open(path, encoding="utf-8") as fh:
                                for line in fh:
                                    line = line.strip()
                                    if line:
                                        coll._insert(
                                            document_from_json(line), _notify=False
                                        )
                        for ix_name, ix in meta.get("indexes", {}).items():
                            if ix_name not in coll.index_information():
                                # Compound manifests carry the full "key"
                                # list; pre-compound snapshots only "field".
                                keys = ix.get("key")
                                if keys is not None:
                                    keys = [(f, d) for f, d in keys]
                                else:
                                    keys = ix["field"]
                                coll.create_index(
                                    keys, unique=ix["unique"], name=ix_name,
                                    expire_after_seconds=ix.get(
                                        "expireAfterSeconds"
                                    ),
                                )
            max_seq = snapshot_seq
            if os.path.exists(self._journal_path):
                max_seq = max(max_seq, self._replay_journal(snapshot_seq))
            self._journal.set_next_seq(max_seq + 1)
        finally:
            self._recovering = False

    def _replay_journal(self, snapshot_seq: int) -> int:
        """Apply journal records after ``snapshot_seq``; heal a torn tail.

        Replays the valid prefix of the journal.  At the first corrupt
        record (torn write, garbage bytes) replay stops, a warning is
        logged, and the file is truncated at the corruption boundary so
        subsequent recoveries see only intact records.  Returns the highest
        sequence number seen.
        """
        replayed = skipped = 0
        truncate_at: Optional[int] = None
        reason = None
        max_seq = snapshot_seq
        offset = 0
        with open(self._journal_path, "rb") as fh:
            for raw in fh:
                line_start = offset
                offset += len(raw)
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    # Blank (e.g. trailing) lines are not data loss; skip.
                    continue
                try:
                    record = document_from_json(line)
                except (ValueError, DocstoreError) as exc:
                    truncate_at, reason = line_start, f"unparseable record: {exc}"
                    break
                if not (isinstance(record, dict) and "op" in record
                        and "db" in record
                        and isinstance(record.get("payload"), dict)):
                    truncate_at = line_start
                    reason = "malformed record (missing db/op/payload)"
                    break
                seq = record.get("seq")
                if isinstance(seq, int):
                    if seq <= snapshot_seq:
                        # Prefix already captured by the snapshot (e.g. a
                        # crash between manifest write and compaction).
                        skipped += 1
                        continue
                    max_seq = max(max_seq, seq)
                self._apply_journal_record(record)
                replayed += 1
        if truncate_at is not None:
            logger.warning(
                "journal %s: torn tail at byte %d (%s); replayed %d records, "
                "truncating the corrupt suffix",
                self._journal_path, truncate_at, reason, replayed,
            )
            with open(self._journal_path, "r+b") as fh:
                fh.truncate(truncate_at)
        self.last_recovery = {
            "replayed": replayed,
            "skipped": skipped,
            "truncated_at": truncate_at,
            "reason": reason,
        }
        return max_seq

    def _apply_journal_record(self, record: dict) -> None:
        db = self.store.get_database(record["db"])
        op = record["op"]
        payload = record["payload"]
        coll = db.get_collection(payload["ns"])
        if op == "insert":
            doc = payload["doc"]
            existing = coll.find_one({"_id": doc["_id"]})
            if existing is None:
                coll._insert(doc, _notify=False)
        elif op == "update":
            coll.replace_one({"_id": payload["_id"]}, payload["doc"], upsert=True)
        elif op == "delete":
            coll.delete_one({"_id": payload["_id"]})
        elif op == "drop":
            coll.drop()

    def close(self) -> None:
        self._journal.close()
