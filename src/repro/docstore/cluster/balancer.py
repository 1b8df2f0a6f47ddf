"""The balancer daemon: watches shard balance, migrates chunks to even it.

MongoDB's balancer is what makes §IV-D2's "just add shards" story true in
practice: without it, a newly added shard owns nothing and a skewed ingest
leaves one shard holding most of the data.  This balancer watches the
document skew ``balance_factor()`` reports and, whenever either that skew
exceeds its threshold or chunk counts differ by more than one, moves the
cheapest chunk from the most-loaded shard to the least-loaded one via
:meth:`~repro.docstore.cluster.router.ShardedCluster.move_chunk` (the full
copy → delta-drain → locked-commit protocol, so it is safe to run against
live writers).

``balance_once`` is the deterministic unit the convergence test drives; the
daemon is the same pass on a :class:`~repro.background.PeriodicTask`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ...background import PeriodicTask, TaskDaemon
from ...errors import ClusterError
from ...obs import get_registry
from .router import ShardedCluster

__all__ = ["Balancer"]


class Balancer(TaskDaemon):
    """Chunk-count/doc-skew equalizer over a :class:`ShardedCluster`."""

    def __init__(self, cluster: ShardedCluster, interval_s: float = 0.2,
                 balance_threshold: float = 1.1,
                 max_moves_per_round: int = 8, clock: Any = None):
        self.cluster = cluster
        #: Document-skew trigger: act when ``balance_factor`` (max/mean)
        #: exceeds this even if chunk counts look level.
        self.balance_threshold = balance_threshold
        self.max_moves_per_round = max_moves_per_round
        self.rounds = 0
        self.moves = 0
        self.failed_moves = 0
        self._task = PeriodicTask("cluster-balancer", interval_s,
                                  self.balance_once, clock)

    # -- one deterministic pass --------------------------------------------

    def balance_once(self) -> List[dict]:
        """One balancing round; returns the migrations it performed."""
        performed: List[dict] = []
        self.rounds += 1
        for ns in self.cluster.config.sharded_namespaces():
            while len(performed) < self.max_moves_per_round:
                move = self._plan_move(ns)
                if move is None:
                    break
                chunk_id, donor, recipient = move
                try:
                    docs = self.cluster.move_chunk(ns, chunk_id, recipient)
                except ClusterError:
                    self.failed_moves += 1
                    break  # e.g. mid-election source; retry next round
                self.moves += 1
                performed.append({"ns": ns, "chunk": chunk_id,
                                  "from": donor, "to": recipient,
                                  "docs": docs})
        if performed:
            get_registry().counter(
                "repro_cluster_balancer_moves_total",
                "chunk migrations initiated by the balancer",
            ).inc(len(performed))
        return performed

    def _plan_move(self, ns: str) -> Optional[tuple]:
        """Pick ``(chunk_id, donor, recipient)`` or ``None`` if balanced."""
        chunk_counts = self.cluster.config.chunk_counts(ns)
        if len(chunk_counts) < 2:
            return None
        donor = max(chunk_counts, key=lambda s: chunk_counts[s])
        recipient = min(chunk_counts, key=lambda s: chunk_counts[s])
        chunk_spread = chunk_counts[donor] - chunk_counts[recipient]
        skewed = self.cluster.balance_factor(ns) > self.balance_threshold
        if chunk_spread < 2 and not (skewed and chunk_spread >= 1):
            return None
        if chunk_spread < 1:
            return None
        donor_chunks = [c for c in self.cluster.config.chunks(ns)
                        if c.shard == donor]
        if not donor_chunks:
            return None
        # Cheapest first: migration cost scales with documents copied.
        victim = min(donor_chunks, key=lambda c: c.ndocs)
        return victim.chunk_id, donor, recipient

    def is_balanced(self, ns: str) -> bool:
        return self._plan_move(ns) is None

    def stats(self) -> dict:
        return {"rounds": self.rounds, "moves": self.moves,
                "failed": self.failed_moves, "running": self.running}
