"""``repro.docstore`` — a from-scratch MongoDB-style document store.

This is the central substrate of the reproduction: the paper's single
datastore that simultaneously serves as workflow task queue, analytics
engine, and web back-end (§III-A).  Public surface:

* :class:`DocumentStore` / :class:`Database` / :class:`Collection` — the
  in-process CRUD API (MongoClient analog) with Mongo query & update
  languages, secondary indexes, cursors, aggregation, and MapReduce.
* :class:`ObjectId` — 12-byte time-sortable document ids.
* :class:`DatastoreServer` / :class:`RemoteClient` — TCP wire protocol.
* :class:`DatastoreProxy` — the HPC worker-node proxy hop (§IV-A2).
* :class:`ShardedCluster` (:mod:`.cluster`) — the scale-out path the paper
  identifies for future growth (§IV-D2): chunk map + balancer + replica-set
  elections + shard-targeted routing.
* :class:`OperationRegistry` / :func:`query_shape` — the live-ops table
  behind ``currentOp()``/``killOp()`` (MongoDB-style op introspection).
"""

from .objectid import ObjectId
from .documents import (
    MISSING,
    document_from_json,
    document_to_json,
    get_path,
    set_path,
    walk,
)
from .matching import Matcher, compile_query, index_predicates
from .updates import apply_update
from .cursor import Cursor
from .indexes import Index, IndexManager, QueryPlan, normalize_index_spec
from .planner import PlanCache, QueryPlanner, canonical_shape
from .locks import RWLock
from .collection import Collection
from .database import Database, DocumentStore
from .aggregation import run_pipeline
from .mapreduce import map_reduce, MapReduceResult
from .ops import ActiveOp, OperationRegistry, query_shape
from .server import DatastoreServer, RemoteClient, RemoteCollection
from .proxy import DatastoreProxy
from .changestream import ChangeEvent, ChangeStream
from .filestore import FileStore
from .cluster import (
    Balancer,
    ClusterCollection,
    HeartbeatMonitor,
    ShardedCluster,
    ShardReplicaSet,
)

__all__ = [
    "ObjectId",
    "MISSING",
    "document_from_json",
    "document_to_json",
    "get_path",
    "set_path",
    "walk",
    "Matcher",
    "compile_query",
    "index_predicates",
    "apply_update",
    "Cursor",
    "Index",
    "IndexManager",
    "QueryPlan",
    "normalize_index_spec",
    "PlanCache",
    "QueryPlanner",
    "canonical_shape",
    "RWLock",
    "Collection",
    "Database",
    "DocumentStore",
    "run_pipeline",
    "map_reduce",
    "MapReduceResult",
    "ActiveOp",
    "OperationRegistry",
    "query_shape",
    "DatastoreServer",
    "RemoteClient",
    "RemoteCollection",
    "DatastoreProxy",
    "ChangeEvent",
    "ChangeStream",
    "FileStore",
    "Balancer",
    "ClusterCollection",
    "HeartbeatMonitor",
    "ShardedCluster",
    "ShardReplicaSet",
]
