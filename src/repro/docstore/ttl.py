"""TTL retention: a background reaper for ``expire_after_seconds`` indexes.

MongoDB bounds collection growth with TTL indexes swept by a background
monitor thread; the Materials Project leans on exactly this to keep its
operational collections (query logs, usage analytics) from eating the
cluster.  :class:`TTLReaper` is our analog: a daemon thread that
periodically walks every database in a :class:`~repro.docstore.database.
DocumentStore` and calls :meth:`~repro.docstore.collection.Collection.
reap_expired` on collections carrying a TTL index.

Expired deletes go through the normal ``delete_many`` path, so change
streams, replication, and the journal all observe them — a change-stream
consumer sees a TTL reap as ordinary ``delete`` events, and a recovered
store replays them like any other write.

Divergence from MongoDB: expiry keys are epoch-seconds *numbers* (the
repo-wide ``ts`` convention), not BSON dates, and the sweep interval
defaults to seconds rather than Mongo's fixed 60s so tests and the
telemetry warehouse can demonstrate retention quickly.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Optional

from ..background import PeriodicTask, TaskDaemon

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import DocumentStore

__all__ = ["TTLReaper"]

#: Default sweep cadence (MongoDB's TTL monitor runs every 60s; ours is
#: tighter because the telemetry warehouse uses short retention in tests).
DEFAULT_INTERVAL_S = 10.0


class TTLReaper(TaskDaemon):
    """Background sweeper deleting documents past their TTL window.

    ``reaper = TTLReaper(store); reaper.start()`` — or use
    :meth:`DocumentStore.start_ttl_reaper`.  :meth:`sweep` can also be
    called synchronously (tests, single-shot maintenance).
    """

    def __init__(self, store: "DocumentStore",
                 interval_s: float = DEFAULT_INTERVAL_S, clock: Any = None):
        self.store = store
        self._task = PeriodicTask("repro-ttl-reaper", interval_s, self.sweep,
                                  clock)
        self._lock = threading.Lock()
        self._sweeps = 0
        self._reaped_total = 0
        self._last_sweep_ts: Optional[float] = None

    # -- sweeping ---------------------------------------------------------

    def sweep(self, now: Optional[float] = None) -> int:
        """One synchronous pass over every collection; returns docs reaped."""
        reaped = 0
        for db_name in self.store.list_database_names():
            db = self.store.get_database(db_name)
            with db._lock:
                colls = [
                    c for n, c in db._collections.items()
                    if not n.startswith("system.")
                ]
            for coll in colls:
                n = coll.reap_expired(now)
                if n:
                    reaped += n
                    self._note_reaped(db_name, coll.name, n)
        with self._lock:
            self._sweeps += 1
            self._reaped_total += reaped
            self._last_sweep_ts = time.time()
        return reaped

    @staticmethod
    def _note_reaped(db_name: str, coll_name: str, n: int) -> None:
        from ..obs.metrics import get_registry

        get_registry().counter(
            "repro_docstore_ttl_reaped_total",
            "documents removed by TTL retention",
        ).inc(n, db=db_name, coll=coll_name)

    def stats(self) -> dict:
        with self._lock:
            return {
                "running": self.running,
                "interval_s": self.interval_s,
                "sweeps": self._sweeps,
                "reaped_total": self._reaped_total,
                "last_sweep_ts": self._last_sweep_ts,
            }

    def __enter__(self) -> "TTLReaper":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
