"""Per-shard replica sets: majority-ack writes, elections, catch-up.

Each shard in a :class:`~repro.docstore.cluster.router.ShardedCluster` is a
:class:`ShardReplicaSet` — a small group of member nodes, each owning its own
:class:`~repro.docstore.database.DocumentStore`, with exactly one *primary*
at a time:

* **Writes** are serialized under the set lock, applied to the primary and
  synchronously to every alive secondary, and acknowledged only when a
  majority of the *configured* membership applied them.  Because any two
  majorities intersect, an acknowledged write survives the loss of any
  minority of members — the invariant the chaos failover test asserts.
* **Elections** follow the Raft shape the paper's MongoDB deployment relies
  on: a term counter, one vote per member per term, and the rule that a
  candidate must be at least as up to date (``applied_optime``) as each
  voter.  A majority of votes wins; anything less raises
  :class:`~repro.errors.ElectionFailed`.
* **Catch-up** of a revived member is oplog-style via
  :class:`~repro.docstore.changestream.ChangeStream`: killing a node opens
  change streams on a live donor's collections, and revival drains them and
  replays the missed document-level deltas.  If the streams overflowed or
  the donor died in the meantime, the node falls back to a full resync from
  the current best member.

The :class:`HeartbeatMonitor` is the failure detector: a daemon thread that
notices a dead primary and triggers the election, so clients blocked in
``await_primary`` recover without operator action.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...background import PeriodicTask, TaskDaemon
from ...errors import ClusterError, ElectionFailed, NotPrimary
from ...obs import get_registry
from ..changestream import ChangeStream
from ..collection import Collection
from ..database import DocumentStore

__all__ = ["ReplicaMember", "ShardReplicaSet", "HeartbeatMonitor"]

#: Catch-up streams buffer this many missed events before forcing a resync.
CATCHUP_BUFFER = 50_000


class ReplicaMember:
    """One replica-set member: a name, a store, liveness, and an optime."""

    def __init__(self, name: str, store: Optional[DocumentStore] = None):
        self.name = name
        self.store = store if store is not None else DocumentStore()
        self.alive = True
        #: Sequence number of the last write this member applied.
        self.applied_optime = 0

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"ReplicaMember({self.name}, {state}, optime={self.applied_optime})"


class ShardReplicaSet:
    """A shard's replica set: serialized majority-ack writes + elections."""

    def __init__(self, shard_id: str, n_members: int = 3,
                 store_factory: Optional[Callable[[], DocumentStore]] = None,
                 event_sink: Optional[Callable[[dict], None]] = None):
        if n_members < 1:
            raise ClusterError("a replica set needs at least one member")
        self.shard_id = shard_id
        self._lock = threading.RLock()
        self.members: List[ReplicaMember] = [
            ReplicaMember(
                f"{shard_id}-{chr(ord('a') + i)}",
                store_factory() if store_factory is not None else None,
            )
            for i in range(n_members)
        ]
        self.term = 0
        #: ``term -> {voter name: candidate name}`` — one vote per term.
        self.voted_in: Dict[int, Dict[str, str]] = {}
        self.elections = 0
        self.event_sink = event_sink
        self._primary_idx = 0
        self._optime = 0
        #: Pending catch-up state for dead members:
        #: ``name -> (donor name, [(db, coll, stream), ...])``.
        self._catchup: Dict[str, Tuple[str, List[Tuple[str, str, ChangeStream]]]] = {}

    # -- membership ---------------------------------------------------------

    @property
    def majority(self) -> int:
        return len(self.members) // 2 + 1

    def node(self, name: str) -> ReplicaMember:
        for member in self.members:
            if member.name == name:
                return member
        raise ClusterError(f"no member {name!r} in replica set {self.shard_id!r}")

    @property
    def primary(self) -> Optional[ReplicaMember]:
        """The current primary, or ``None`` if it is dead."""
        candidate = self.members[self._primary_idx]
        return candidate if candidate.alive else None

    def primary_name(self) -> Optional[str]:
        primary = self.primary
        return primary.name if primary is not None else None

    def _primary_or_raise(self) -> ReplicaMember:
        primary = self.primary
        if primary is None:
            raise NotPrimary(
                f"shard {self.shard_id!r} has no live primary "
                f"(term {self.term})"
            )
        return primary

    # -- reads / writes -----------------------------------------------------

    def read(self, db_name: str, coll_name: str,
             fn: Callable[[Collection], Any]) -> Any:
        """Run a read against the primary (strong-consistency reads)."""
        primary = self._primary_or_raise()
        return fn(primary.store[db_name][coll_name])

    def write(self, db_name: str, coll_name: str,
              fn: Callable[[Collection], Any]) -> Any:
        """Apply a deterministic write with w:majority semantics.

        ``fn`` runs against the primary's collection first (its return value
        is the client's result), then against every alive secondary.  The
        caller must make ``fn`` deterministic — e.g. pre-assign ``_id``
        before the fan-out — so every member converges on the same state.

        Raises :class:`NotPrimary` when the primary is dead and
        :class:`ClusterError` when fewer than a majority of configured
        members are alive to acknowledge.
        """
        with self._lock:
            primary = self._primary_or_raise()
            alive = [m for m in self.members if m.alive]
            if len(alive) < self.majority:
                raise ClusterError(
                    f"shard {self.shard_id!r}: only {len(alive)}/"
                    f"{len(self.members)} members alive; cannot satisfy "
                    "majority write concern"
                )
            self._optime += 1
            result = fn(primary.store[db_name][coll_name])
            primary.applied_optime = self._optime
            for member in alive:
                if member is primary:
                    continue
                fn(member.store[db_name][coll_name])
                member.applied_optime = self._optime
            return result

    def last_optime(self) -> int:
        return self._optime

    # -- failure injection --------------------------------------------------

    def kill(self, name: str) -> None:
        """Mark a member dead (logical kill; in-flight writes finish first).

        Opens catch-up change streams on a live donor so a later
        :meth:`revive` can replay only the missed deltas.
        """
        with self._lock:
            node = self.node(name)
            if not node.alive:
                return
            node.alive = False
            donor = self._best_alive()
            streams: List[Tuple[str, str, ChangeStream]] = []
            if donor is not None:
                for db_name in donor.store.list_database_names():
                    for coll_name in donor.store[db_name].list_collection_names():
                        streams.append((db_name, coll_name, ChangeStream(
                            donor.store[db_name][coll_name],
                            max_buffer=CATCHUP_BUFFER,
                        )))
                self._catchup[name] = (donor.name, streams)
            self._emit({"type": "member_killed", "shard": self.shard_id,
                        "member": name, "term": self.term})
            get_registry().counter(
                "repro_cluster_member_kills_total",
                "replica-set members marked dead",
            ).inc(1, shard=self.shard_id)

    def revive(self, name: str) -> str:
        """Bring a dead member back, catching it up before it serves.

        Returns ``"delta"`` when the changestream replay sufficed or
        ``"resync"`` when a full copy from the best member was required.
        """
        with self._lock:
            node = self.node(name)
            if node.alive:
                return "delta"
            donor_name, streams = self._catchup.pop(name, (None, []))
            mode = "resync"
            donor = self.node(donor_name) if donor_name else None
            if (donor is not None and donor.alive
                    and not any(s.dropped for _, _, s in streams)
                    and self._same_namespaces(donor, streams)):
                for db_name, coll_name, stream in streams:
                    target = node.store[db_name][coll_name]
                    for event in stream.drain():
                        self._apply_event(target, event)
                mode = "delta"
            else:
                source = self._best_alive()
                if source is None:
                    raise ClusterError(
                        f"shard {self.shard_id!r}: no live member to "
                        f"resync {name!r} from"
                    )
                self._full_resync(source, node)
            for _, _, stream in streams:
                stream.close()
            node.applied_optime = self._optime
            node.alive = True
            self._emit({"type": "member_revived", "shard": self.shard_id,
                        "member": name, "mode": mode, "term": self.term})
            return mode

    def _best_alive(self) -> Optional[ReplicaMember]:
        alive = [m for m in self.members if m.alive]
        if not alive:
            return None
        return max(alive, key=lambda m: m.applied_optime)

    @staticmethod
    def _same_namespaces(donor: ReplicaMember,
                         streams: List[Tuple[str, str, ChangeStream]]) -> bool:
        """Whether the donor grew namespaces the catch-up streams miss."""
        streamed = {(db, coll) for db, coll, _ in streams}
        for db_name in donor.store.list_database_names():
            for coll_name in donor.store[db_name].list_collection_names():
                if (db_name, coll_name) not in streamed:
                    return False
        return True

    @staticmethod
    def _apply_event(target: Collection, event: Any) -> None:
        target.delete_one({"_id": event.document_id})
        if event.operation in ("insert", "update") and event.document is not None:
            target.insert_one(event.document)

    @staticmethod
    def _full_resync(source: ReplicaMember,
                     node: ReplicaMember) -> None:
        for db_name in source.store.list_database_names():
            for coll_name in source.store[db_name].list_collection_names():
                src = source.store[db_name][coll_name]
                dst = node.store[db_name][coll_name]
                for doc in dst.all_documents():
                    dst.delete_one({"_id": doc["_id"]})
                for doc in src.all_documents():
                    dst.insert_one(doc)

    # -- elections ----------------------------------------------------------

    def elect(self, exclude: Optional[str] = None) -> str:
        """Run a primary election; returns the new primary's name.

        The candidate is the most up-to-date alive member (optionally
        excluding a stepping-down primary).  Every alive member casts at
        most one vote per term and only for a candidate whose
        ``applied_optime`` is >= its own; a majority of the *configured*
        membership must vote yes.
        """
        with self._lock:
            voters = [m for m in self.members if m.alive]
            candidates = [m for m in voters if m.name != exclude]
            self.term += 1
            ballot = self.voted_in.setdefault(self.term, {})
            if not candidates:
                raise ElectionFailed(
                    f"shard {self.shard_id!r}: no eligible candidate "
                    f"in term {self.term}"
                )
            candidate = max(candidates, key=lambda m: m.applied_optime)
            votes = 0
            for voter in voters:
                if voter.name in ballot:
                    continue
                if candidate.applied_optime >= voter.applied_optime:
                    ballot[voter.name] = candidate.name
                    votes += 1
            if votes < self.majority:
                raise ElectionFailed(
                    f"shard {self.shard_id!r}: candidate {candidate.name!r} "
                    f"got {votes}/{len(self.members)} votes in term "
                    f"{self.term}; majority is {self.majority}"
                )
            self._primary_idx = self.members.index(candidate)
            self.elections += 1
            self._emit({"type": "election", "shard": self.shard_id,
                        "primary": candidate.name, "term": self.term,
                        "votes": votes})
            get_registry().counter(
                "repro_cluster_elections_total",
                "replica-set primary elections won",
            ).inc(1, shard=self.shard_id)
            return candidate.name

    def step_down(self) -> str:
        """Demote the current primary and elect a successor.

        The stepping-down primary stays alive and still votes, mirroring
        ``replSetStepDown``.
        """
        with self._lock:
            old = self._primary_or_raise()
            return self.elect(exclude=old.name)

    def await_primary(self, timeout_s: float = 5.0,
                      poll_interval_s: float = 0.01) -> ReplicaMember:
        """Block until a live primary exists, electing one if possible.

        Covers both deployments: with a :class:`HeartbeatMonitor` running
        the monitor performs the election and this just observes it; without
        one, the first blocked client triggers the election itself.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            primary = self.primary
            if primary is not None:
                return primary
            try:
                self.elect()
            except ElectionFailed:
                pass
            primary = self.primary
            if primary is not None:
                return primary
            if time.monotonic() >= deadline:
                raise NotPrimary(
                    f"shard {self.shard_id!r}: no primary within "
                    f"{timeout_s:.1f}s"
                )
            time.sleep(poll_interval_s)

    # -- introspection ------------------------------------------------------

    def status(self) -> dict:
        """Set and member state; a member's ``lag`` is the writes it missed
        (nonzero only while it is down, since replication is synchronous)."""
        with self._lock:
            return {
                "shard": self.shard_id,
                "term": self.term,
                "primary": self.primary_name(),
                "elections": self.elections,
                "optime": self._optime,
                "members": [
                    {"name": m.name, "alive": m.alive,
                     "optime": m.applied_optime,
                     "lag": self._optime - m.applied_optime,
                     "role": ("PRIMARY" if self.primary is m else
                              "SECONDARY" if m.alive else "DOWN")}
                    for m in self.members
                ],
            }

    def _emit(self, event: dict) -> None:
        if self.event_sink is not None:
            try:
                self.event_sink(event)
            except Exception:
                pass


class HeartbeatMonitor(TaskDaemon):
    """Failure detector: a periodic task that elects around dead primaries."""

    def __init__(self, replica_sets: List[ShardReplicaSet],
                 interval_s: float = 0.05, clock: Any = None):
        self.replica_sets = list(replica_sets)
        self.beats = 0
        self._task = PeriodicTask("cluster-heartbeat", interval_s,
                                  self.check_once, clock)

    def add(self, replica_set: ShardReplicaSet) -> None:
        self.replica_sets.append(replica_set)

    def check_once(self) -> int:
        """One heartbeat sweep; returns how many elections it triggered."""
        triggered = 0
        for rs in self.replica_sets:
            if rs.primary is None:
                try:
                    rs.elect()
                    triggered += 1
                except ElectionFailed:
                    pass
        self.beats += 1
        return triggered
