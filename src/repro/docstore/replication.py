"""Replication: a primary/secondary replica set driven by an oplog.

§IV-D2 points to MongoDB's replication for scaling reads and isolating the
datastore's roles (workflow queue vs. web back-end) onto separate servers.
We reproduce the mechanism: every write on the primary appends an idempotent
operation to a capped oplog; secondaries tail the oplog and apply entries in
order.  Reads can be directed at the primary or (possibly stale)
secondaries, and :meth:`ReplicaSet.step_down` promotes the most up-to-date
secondary, replaying the failover logic.

Replication here is *pull-on-demand* (``replicate()`` drains the oplog) so
tests and benches control staleness deterministically rather than racing a
background thread; ``start_background_replication`` exists for realism.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from ..background import PeriodicTask
from ..errors import ReplicationError
from ..obs import active_span
from .database import Database
from .documents import deep_copy_doc

__all__ = ["Oplog", "ReplicaSet", "ReplicaNode"]


class Oplog:
    """Capped, append-only log of write operations with monotonic optimes."""

    def __init__(self, max_entries: int = 100_000):
        self.max_entries = max_entries
        self._entries: List[dict] = []
        self._next_optime = 1
        self._lock = threading.Lock()

    def append(self, db: str, op: str, payload: dict) -> int:
        with self._lock:
            optime = self._next_optime
            self._next_optime += 1
            self._entries.append(
                {
                    "ts": optime,
                    "wall": time.time(),
                    "db": db,
                    "op": op,
                    "payload": deep_copy_doc(payload),
                }
            )
            if len(self._entries) > self.max_entries:
                self._entries = self._entries[-self.max_entries :]
            return optime

    def entries_after(self, optime: int) -> List[dict]:
        with self._lock:
            if self._entries and self._entries[0]["ts"] > optime + 1:
                raise ReplicationError(
                    "oplog truncated past secondary optime; full resync required"
                )
            return [deep_copy_doc(e) for e in self._entries if e["ts"] > optime]

    @property
    def last_optime(self) -> int:
        with self._lock:
            return self._entries[-1]["ts"] if self._entries else 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ReplicaNode:
    """One member of a replica set: a database plus its applied optime."""

    def __init__(self, name: str):
        self.name = name
        self.database = Database(name.replace(":", "_"))
        self.applied_optime = 0
        self.is_primary = False

    def apply(self, entry: dict) -> None:
        """Apply one oplog entry idempotently."""
        payload = entry["payload"]
        coll = self.database.get_collection(payload["ns"])
        op = entry["op"]
        if op == "insert":
            doc = payload["doc"]
            if coll.find_one({"_id": doc["_id"]}) is None:
                coll.insert_one(doc)
        elif op == "update":
            coll.replace_one({"_id": payload["_id"]}, payload["doc"], upsert=True)
        elif op == "delete":
            coll.delete_one({"_id": payload["_id"]})
        elif op == "drop":
            coll.drop()
        else:
            raise ReplicationError(f"unknown oplog op {op!r}")
        self.applied_optime = entry["ts"]

    def lag(self, oplog: Oplog) -> int:
        """Entries this node is behind the primary."""
        return max(0, oplog.last_optime - self.applied_optime)


class ReplicaSet:
    """Primary + N secondaries coordinated through one oplog.

    All writes must go through :meth:`primary`; collections obtained from it
    automatically append to the oplog.  Reads honour a read preference.
    """

    def __init__(self, name: str, n_secondaries: int = 2,
                 clock: Any = None):
        if n_secondaries < 0:
            raise ReplicationError("n_secondaries must be >= 0")
        self.name = name
        self.oplog = Oplog()
        self._nodes = [ReplicaNode(f"{name}:{i}") for i in range(n_secondaries + 1)]
        self._nodes[0].is_primary = True
        self._watched: Dict[int, set] = {}
        self._watch_primary()
        self._repl_task = PeriodicTask(f"replication:{name}", 0.01,
                                       self.replicate, clock)
        self._rr = 0
        # Election bookkeeping, matching the cluster replica sets
        # (repro.docstore.cluster.replica): every step_down is a term bump
        # with an auditable per-node ballot.
        self.term = 0
        self.elections: List[dict] = []

    # -- wiring ------------------------------------------------------------

    def _watch_primary(self) -> None:
        primary = self.primary_node
        db = primary.database
        original_get = db.get_collection
        rs = self

        def wrapped_get(name: str, create: bool = True):
            coll = original_get(name, create)
            if not getattr(coll, "_oplogged", False):
                coll._oplogged = True
                coll.add_change_listener(
                    lambda op, payload: rs._on_primary_write(op, payload)
                )
            return coll

        db.get_collection = wrapped_get  # type: ignore[method-assign]

    def _on_primary_write(self, op: str, payload: dict) -> None:
        optime = self.oplog.append(self.primary_node.database.name, op, payload)
        self.primary_node.applied_optime = optime

    # -- membership -----------------------------------------------------------

    @property
    def primary_node(self) -> ReplicaNode:
        for node in self._nodes:
            if node.is_primary:
                return node
        raise ReplicationError("replica set has no primary")

    @property
    def primary(self) -> Database:
        """The writable database (all writes replicate from here)."""
        return self.primary_node.database

    @property
    def secondaries(self) -> List[ReplicaNode]:
        return [n for n in self._nodes if not n.is_primary]

    # -- replication --------------------------------------------------------------

    def replicate(self, node: Optional[ReplicaNode] = None) -> int:
        """Drain pending oplog entries into ``node`` (or all secondaries).

        Returns the number of entries applied.
        """
        targets = [node] if node is not None else self.secondaries
        applied = 0
        for target in targets:
            entries = self.oplog.entries_after(target.applied_optime)
            with active_span("replication.apply", node=target.name,
                             entries=len(entries)):
                for entry in entries:
                    target.apply(entry)
                    applied += 1
        return applied

    def start_background_replication(self, interval_s: float = 0.01) -> None:
        self._repl_task.start(interval_s)

    def stop_background_replication(self) -> None:
        self._repl_task.stop()

    # -- reads -------------------------------------------------------------------

    def read_database(self, preference: str = "primary") -> Database:
        """Pick a node per read preference: primary | secondary | nearest."""
        if preference == "primary":
            return self.primary
        secondaries = self.secondaries
        if not secondaries:
            if preference == "secondary":
                raise ReplicationError("no secondaries available")
            return self.primary
        if preference == "secondary":
            self._rr = (self._rr + 1) % len(secondaries)
            return secondaries[self._rr].database
        if preference == "nearest":
            nodes = self._nodes
            self._rr = (self._rr + 1) % len(nodes)
            return nodes[self._rr].database
        raise ReplicationError(f"unknown read preference {preference!r}")

    # -- failover -----------------------------------------------------------------

    def step_down(self) -> ReplicaNode:
        """Demote the primary and elect the most up-to-date secondary.

        The handover is recorded as a term bump with a per-node ballot:
        each member votes for the candidate iff the candidate's optime is
        at least its own (the same up-to-dateness rule the cluster-grade
        :class:`~repro.docstore.cluster.replica.ShardReplicaSet` enforces),
        and the promotion requires a majority.
        """
        secondaries = self.secondaries
        if not secondaries:
            raise ReplicationError("cannot step down: no secondaries")
        old_primary = self.primary_node
        new_primary = max(secondaries, key=lambda n: n.applied_optime)
        # Bring the winner fully up to date before asking for votes.
        self.replicate(new_primary)
        self.term += 1
        votes = {
            n.name: n.applied_optime <= new_primary.applied_optime
            for n in self._nodes
        }
        ballot = {
            "term": self.term,
            "candidate": new_primary.name,
            "votes": votes,
            "granted": sum(votes.values()),
        }
        self.elections.append(ballot)
        if ballot["granted"] < len(self._nodes) // 2 + 1:
            raise ReplicationError(
                f"election term {self.term}: candidate {new_primary.name} "
                f"got {ballot['granted']}/{len(self._nodes)} votes"
            )
        old_primary.is_primary = False
        new_primary.is_primary = True
        self._watch_primary()
        return new_primary

    def status(self) -> dict:
        return {
            "set": self.name,
            "term": self.term,
            "elections": len(self.elections),
            "members": [
                {
                    "name": n.name,
                    "state": "PRIMARY" if n.is_primary else "SECONDARY",
                    "optime": n.applied_optime,
                    "lag": n.lag(self.oplog),
                }
                for n in self._nodes
            ],
            "oplog_entries": len(self.oplog),
        }
