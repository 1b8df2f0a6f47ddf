"""Self-managing sharded cluster: chunks, balancer, elections, routing.

The paper's §IV-D2 answer to scale is "leverage the sharding and replication
capabilities built in to MongoDB".  This package is that answer's working
model on top of the reproduction's document store:

* :mod:`~repro.docstore.cluster.config` — the chunk map, shard registry, and
  epoch versioning, persisted through the journal when the config store is
  journal-backed;
* :mod:`~repro.docstore.cluster.replica` — per-shard replica sets with
  majority-ack writes, term/vote primary elections, and changestream-based
  catch-up;
* :mod:`~repro.docstore.cluster.balancer` — the daemon that migrates chunks
  to even out shard load;
* :mod:`~repro.docstore.cluster.router` — the mongos analog: planner-aware
  shard targeting with ``SINGLE_SHARD``/``SCATTER_GATHER`` explain modes and
  stale-epoch/not-primary retry.
"""

from .balancer import Balancer
from .config import MAX_KEY, MIN_KEY, Chunk, ClusterConfig
from .replica import HeartbeatMonitor, ReplicaMember, ShardReplicaSet
from .router import ClusterCollection, Shard, ShardedCluster

__all__ = [
    "Balancer",
    "Chunk",
    "ClusterCollection",
    "ClusterConfig",
    "HeartbeatMonitor",
    "MAX_KEY",
    "MIN_KEY",
    "ReplicaMember",
    "Shard",
    "ShardReplicaSet",
    "ShardedCluster",
]
