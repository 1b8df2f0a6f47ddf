"""Fleet health: mongostat/mongotop-style samplers and their tables.

The paper's operators kept the Materials Project datastore healthy by
*watching* it — mongostat for opcounter rates, mongotop for per-collection
time.  This module is those two tools' data sources for the reproduction:

* :class:`ServerStatusSampler` — turns successive ``serverStatus``
  snapshots into opcounter deltas (the ``mongostat`` data source).  It
  keeps only the previous totals: the process's one metrics history is
  the flight ring (:mod:`repro.obs.flight`).  Works against a local
  :class:`~repro.docstore.database.DocumentStore`, a single
  :class:`~repro.docstore.database.Database`, or a
  :class:`~repro.docstore.server.RemoteClient` watching a live server.
* :class:`TopSampler` — diffs :meth:`Database.top` snapshots into
  per-interval, per-collection read/write time (the ``mongotop`` source),
  likewise keeping only the previous totals.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = [
    "ServerStatusSampler",
    "TopSampler",
    "format_stat_table",
    "format_top_table",
]

#: Opcounter columns rendered by mongostat, in display order.
STAT_COLUMNS = ("insert", "query", "update", "delete", "getmore", "command")


class ServerStatusSampler:
    """Delta computer over ``serverStatus`` opcounters (mongostat).

    ``target`` is anything with a ``server_status()`` method returning a
    dict with an ``"opcounters"`` mapping: a ``DocumentStore`` (aggregate
    across databases), a ``Database``, a ``RemoteClient``, or a remote
    database handle.  Each :meth:`sample` returns the opcounter *deltas*
    since the previous sample plus point-in-time gauges (objects,
    collections, in-flight ops when the target exposes ``current_op``).
    The caller drives the interval (``repro mongostat``).
    """

    def __init__(self, target: Any):
        if not hasattr(target, "server_status"):
            raise TypeError("sampler target must expose server_status()")
        self.target = target
        self._prev_counters: Optional[Dict[str, int]] = None

    def sample(self, now: Optional[float] = None) -> dict:
        """Take one snapshot; returns the sample document."""
        status = self.target.server_status()
        counters = dict(status.get("opcounters") or {})
        prev = self._prev_counters or {k: 0 for k in counters}
        deltas = {
            k: counters.get(k, 0) - prev.get(k, 0)
            for k in sorted(set(counters) | set(prev))
        }
        sample = {
            "ts": time.time() if now is None else now,
            "deltas": deltas,
            "totals": counters,
            "objects": status.get("objects"),
            "collections": status.get("collections"),
            "active_ops": self._active_ops(),
            "process": status.get("process"),
            "sharding": status.get("sharding"),
        }
        self._prev_counters = counters
        return sample

    def _active_ops(self) -> Optional[int]:
        # Resolve current_op on the *class* (and client via __dict__):
        # Database and DocumentStore materialize collections/databases on
        # instance attribute access, so a plain getattr would create a
        # collection named "current_op" instead of finding the method.
        candidates = [self.target]
        client = getattr(self.target, "__dict__", {}).get("client")
        if client is not None:
            candidates.append(client)
        for candidate in candidates:
            method = getattr(type(candidate), "current_op", None)
            if not callable(method):
                continue
            try:
                return len(method(candidate))
            except Exception:  # noqa: BLE001 - a dead server is "unknown", not a crash
                return None
        return None


class TopSampler:
    """Delta computer over per-collection read/write time (mongotop).

    ``db`` is anything with a ``top()`` method returning cumulative
    ``{ns: {total_ms, read_ms, write_ms, ...}}`` — a local
    :class:`~repro.docstore.database.Database` or a remote database
    handle.  Each :meth:`sample` holds the deltas since the previous one.
    """

    def __init__(self, db: Any):
        if not hasattr(db, "top"):
            raise TypeError("sampler target must expose top()")
        self.db = db
        self._prev: Dict[str, dict] = {}

    def sample(self, now: Optional[float] = None) -> dict:
        totals = {ns: dict(bucket) for ns, bucket in self.db.top().items()}
        deltas: Dict[str, dict] = {}
        for ns, bucket in totals.items():
            prev = self._prev.get(ns, {})
            deltas[ns] = {
                k: bucket.get(k, 0) - prev.get(k, 0) for k in bucket
            }
        sample = {
            "ts": time.time() if now is None else now,
            "deltas": deltas,
            "totals": totals,
        }
        self._prev = totals
        return sample


# -- live-table rendering (the CLI subcommands) ---------------------------


def format_stat_table(samples: List[dict], header: bool = True) -> str:
    """Render mongostat samples as aligned columns, one row per sample.

    When samples carry a ``process`` section (``server_status()`` on a
    store with :mod:`repro.obs.procstats` wired in), RSS / fd / thread
    columns are appended after the timestamp — trailing, so the classic
    opcounter layout is stable for tooling that slices fixed columns.
    Samples from a store with an attached sharded cluster additionally get
    a ``shards`` column: per-shard chunk counts joined by ``|``, so a
    drifting distribution is visible straight from mongostat.
    """
    has_process = any(s.get("process") for s in samples)
    has_sharding = any(s.get("sharding") for s in samples)
    lines = []
    if header:
        cols = "".join(f"{c:>9s}" for c in STAT_COLUMNS)
        head = f"{cols}{'active':>9s}{'objects':>9s}  time"
        if has_process:
            head += f"{'rss_mb':>9s}{'fds':>7s}{'thr':>5s}"
        if has_sharding:
            head += f"{'shards':>14s}"
        lines.append(head)
    for s in samples:
        cols = "".join(f"{s['deltas'].get(c, 0):>9d}" for c in STAT_COLUMNS)
        active = s.get("active_ops")
        objects = s.get("objects")
        stamp = time.strftime("%H:%M:%S", time.localtime(s["ts"]))
        row = (
            f"{cols}"
            f"{('-' if active is None else str(active)):>9s}"
            f"{('-' if objects is None else str(objects)):>9s}"
            f"  {stamp}"
        )
        if has_process:
            proc = s.get("process") or {}
            rss = proc.get("rss_bytes")
            fds = proc.get("open_fds")
            thr = proc.get("threads")
            row += (
                f"{('-' if rss is None else f'{rss / 1048576.0:.1f}'):>9s}"
                f"{('-' if fds is None else str(fds)):>7s}"
                f"{('-' if thr is None else str(thr)):>5s}"
            )
        if has_sharding:
            sharding = s.get("sharding") or {}
            chunks = sharding.get("chunksPerShard") or {}
            cell = "|".join(str(chunks[k]) for k in sorted(chunks)) or "-"
            row += f"{cell:>14s}"
        lines.append(row)
    return "\n".join(lines)


def format_top_table(sample: dict, header: bool = True) -> str:
    """Render one mongotop sample: per-collection interval time, hottest
    namespace first."""
    rows = sorted(
        sample["deltas"].items(),
        key=lambda kv: kv[1].get("total_ms", 0.0),
        reverse=True,
    )
    width = max([len(ns) for ns, _ in rows] + [4])
    lines = []
    if header:
        lines.append(
            f"{'ns':<{width}s}{'total':>12s}{'read':>12s}{'write':>12s}"
        )
    for ns, d in rows:
        lines.append(
            f"{ns:<{width}s}"
            f"{d.get('total_ms', 0.0):>10.2f}ms"
            f"{d.get('read_ms', 0.0):>10.2f}ms"
            f"{d.get('write_ms', 0.0):>10.2f}ms"
        )
    return "\n".join(lines)
