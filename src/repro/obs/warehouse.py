"""Telemetry warehouse: the query log, kept in the datastore it logs.

The paper's operational stance is that a datastore's own telemetry is best
served *by* the datastore — Materials Project runs query logs and usage
analytics through the same MongoDB that serves science.  Access records
evaporate on restart when they live only in memory; this module dogfoods
the engine by landing them in a real collection, the one collection of a
``telemetry`` database:

* ``telemetry.access`` — the :class:`~repro.api.querylog.QueryLog`
  access-log warehouse: one record per Materials API HTTP request (its
  QueryEngine calls folded in) and per wire exchange, queued by the
  request and written in batches by the log's own writer task.

Nothing here is a second copy of state the process already holds.
Metrics history (counter deltas, gauges, histogram quantiles) and
incidents (stalls, shutdowns) live only in the out-of-band flight ring
(:mod:`repro.obs.flight`), the way MongoDB keeps FTDC out of its own
collections: the ring is written with plain file appends, so it keeps
recording when the store's journal wedges, and an incident lasts as long
as the ring holds it (plus the last ``crash_report.json``).  Index advice
mines the live ``system.profile`` and flamegraphs come from the running
sampling profiler (``repro advise``, ``repro profile``,
``/debug/profile``); neither survives a restart.

The collection carries a query index (``(endpoint, ts)``) so warehouse
analytics ride the cost-based planner's IXSCAN path, and a TTL index
(``create_index(..., expire_after_seconds=N)``) so the warehouse bounds
its own disk use via the engine's reaper — retention is a datastore
feature here, not a cron job.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "TelemetryWarehouse",
]

#: The database the warehouse lives in.
DB_NAME = "telemetry"

#: Retention window (seconds) of the access log.
ACCESS_TTL_S = 14 * 86400.0


class TelemetryWarehouse:
    """The telemetry database and its recorders, built over a live store.

    ``TelemetryWarehouse(store)`` creates ``telemetry.access`` with its
    query and TTL indexes and wires up the access log.  :meth:`start`
    starts the access log's batch writer and the store's TTL reaper, so
    retention is enforced.
    """

    def __init__(self, store: Any, clock: Any = None):
        # Imported lazily: repro.api pulls repro.obs in at import time, so
        # the reverse edge must not exist at module scope.
        from ..api.querylog import QueryLog

        self.store = store
        self.db = store.get_database(DB_NAME)
        self.access = QueryLog(
            collection=self.db["access"], ttl_s=ACCESS_TTL_S, clock=clock
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self, reap_interval_s: Optional[float] = None, *,
              interval_s: Optional[float] = None) -> "TelemetryWarehouse":
        """Start the access log's batch writer and the store's TTL reaper
        (stopped by ``store.close()``).  ``interval_s`` is ignored: the
        warehouse has no recording loop, and the keyword is accepted only
        so callers written against the old signature keep working."""
        self.store.start_ttl_reaper(reap_interval_s)
        self.access.start()
        return self

    def stop(self) -> None:
        """Stop the access writer, writing what it still holds (the TTL
        reaper belongs to the store)."""
        self.access.stop()

    @property
    def running(self) -> bool:
        return self.access.running

    # -- read surface ------------------------------------------------------

    def stats(self) -> dict:
        """Row counts per telemetry collection (the warehouse's own size)."""
        return {"access": self.db["access"].count_documents()}
