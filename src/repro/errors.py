"""Exception hierarchy shared across the reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers (the workflow engine, the web API) can distinguish "our" failures from
programming errors and apply the paper's recovery strategies (re-runs,
detours, manual-intervention flags).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DocstoreError(ReproError):
    """Base class for document-store errors."""


class QuerySyntaxError(DocstoreError):
    """A query document uses an unknown operator or malformed structure."""


class UpdateSyntaxError(DocstoreError):
    """An update document uses an unknown operator or malformed structure."""


class DuplicateKeyError(DocstoreError):
    """A unique index rejected an insert or update."""


class CollectionNotFound(DocstoreError):
    """Named collection does not exist (strict access mode)."""


class WireProtocolError(DocstoreError):
    """Malformed message on the socket wire protocol."""


class ConnectionLost(WireProtocolError):
    """The wire connection dropped mid-exchange (retryable for idempotent ops)."""


class OperationKilled(DocstoreError):
    """A cooperative in-flight operation was terminated via ``killOp``."""


class DeadlineExceeded(OperationKilled):
    """An operation outlived its client-supplied ``$deadline`` and was aborted."""


class NetworkPolicyError(ReproError):
    """A simulated host attempted a connection its network policy forbids."""


class ShardingError(DocstoreError):
    """Invalid shard configuration or routing failure."""


class ClusterError(DocstoreError):
    """Base class for sharded-cluster (config/balancer/election) errors."""


class NotPrimary(ClusterError):
    """The targeted replica-set member is not (or no longer) the primary.

    Routers catch this, wait for (or trigger) an election, re-resolve the
    primary, and retry — the client never sees a failover if a new primary
    emerges within the retry budget.
    """


class StaleEpoch(ClusterError):
    """A routed operation carried an outdated chunk-map epoch.

    Raised by a shard that no longer owns the targeted chunk (it split or
    migrated away).  Routers refresh their cached chunk map from the config
    metadata and retry against the new owner.
    """


class ElectionFailed(ClusterError):
    """A primary election could not reach a majority of voting members."""


class MatgenError(ReproError):
    """Base class for materials object-model errors."""


class CompositionError(MatgenError):
    """Unparseable or invalid chemical formula."""


class StructureError(MatgenError):
    """Invalid crystal structure (bad lattice, overlapping sites, ...)."""


class DFTError(ReproError):
    """Base class for pseudo-DFT engine failures."""


class ConvergenceError(DFTError):
    """The SCF loop failed to converge within the iteration budget."""


class WalltimeExceeded(DFTError):
    """The batch system killed the calculation at its walltime limit."""


class MemoryExceeded(DFTError):
    """The calculation exceeded its memory allocation and was killed."""


class InputError(DFTError):
    """The calculation inputs are invalid and the code refused to start."""


class WorkflowError(ReproError):
    """Base class for workflow-engine errors."""


class FuseNotReady(WorkflowError):
    """A Fuse condition prevented a Firework from being released."""


class WorkflowAborted(WorkflowError):
    """A workflow was aborted and marked for manual intervention."""


class HPCError(ReproError):
    """Base class for cluster-simulator errors."""


class QueueLimitExceeded(HPCError):
    """Per-user queued-job limit reached on the batch system."""


class BuilderError(ReproError):
    """A derived-collection builder failed."""


class ValidationError(ReproError):
    """A V&V rule failed against the datastore."""


class APIError(ReproError):
    """Base class for dissemination-layer errors."""


class AuthError(APIError):
    """Authentication or authorization failure."""


class RateLimitExceeded(APIError):
    """A user exceeded the per-user query rate limit."""


class NotFoundError(APIError):
    """REST resource not found."""


class BadRequestError(APIError):
    """REST request malformed (bad property, bad formula, ...)."""
