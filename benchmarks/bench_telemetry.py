"""Telemetry warehouse benchmark: warehouse overhead + warehouse queries.

Two questions, two gates:

1. **Does the warehouse tax the hot path?**  Re-runs :mod:`bench_obs`'s
   core workloads (indexed ``find``, ``insert_one``, group-by
   ``aggregate``) on a store with a live :class:`TelemetryWarehouse`
   attached — its access-log writer and the store's TTL reaper running in
   the background.  CI gates ``find``/``insert`` against the *same*
   ``baseline_obs.json`` budget (20% p95) as the bare store:
   observability that slows the datastore it observes is a bug.  The
   multi-millisecond ``aggregate`` is gated against its own
   warehouse-attached number in ``baseline_telemetry.json`` instead (via
   the gate's ``--only`` flag).

2. **Are warehouse analytics fast?**  Times the warehouse's own read
   surface — filtered access-log scans (on the compound-index IXSCAN
   path) and the ``top`` aggregation — also gated against
   ``baseline_telemetry.json``.

Writes ``BENCH_telemetry.json`` at the repo root.  Run from the repo
root::

    PYTHONPATH=src:benchmarks python benchmarks/bench_telemetry.py
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional

import bench_obs
from bench_obs import _build_collection, _timed, calibrate

from repro.api.querylog import QueryLog, access_top
from repro.docstore import DocumentStore
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.obs.warehouse import TelemetryWarehouse

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_telemetry.json")

N_ACCESS = 5000


def run_core_with_warehouse(n_docs: int, iters: int) -> Dict[str, dict]:
    """bench_obs's find/insert/aggregate with a live warehouse attached."""
    store, _coll = _build_collection(n_docs)
    warehouse = TelemetryWarehouse(store)
    warehouse.start()
    try:
        return bench_obs.run_benchmarks(n_docs, iters, store=store)
    finally:
        warehouse.stop()
        store.stop_ttl_reaper()


def run_warehouse_queries(iters: int) -> Dict[str, dict]:
    """Latency of the warehouse's own analytics reads."""
    store = DocumentStore()
    warehouse = TelemetryWarehouse(store)

    # access log: a realistic endpoint mix
    log: QueryLog = warehouse.access
    endpoints = ["rest/v1/materials", "rest/v1/batteries", "rest/v1/xrd",
                 "telemetry/access", "wire/find"]
    for i in range(N_ACCESS):
        log.record_access(
            endpoints[i % len(endpoints)],
            user=f"user-{i % 17}",
            status=500 if i % 41 == 0 else 200,
            duration_ms=(i * 13 % 900) / 10.0,
            nreturned=i % 25,
            response_bytes=256 + i % 4096,
            ts=1_000_000.0 + i,
        )

    def bench_access_query(i: int) -> None:
        log.query_access_log(
            endpoint=endpoints[i % len(endpoints)],
            after=1_000_000.0 + (i * 7 % N_ACCESS),
            limit=50,
        )

    def bench_access_top(i: int) -> None:
        access_top(log.collection, by="duration", limit=10)

    results = {
        "access_query": _timed(bench_access_query,
                               max(iters // 3, 50), batch=10, repeats=5),
        "access_top": _timed(bench_access_top, max(iters // 10, 10)),
    }
    store.close()
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the results JSON")
    parser.add_argument("--n-docs", type=int, default=bench_obs.N_DOCS)
    parser.add_argument("--iters", type=int, default=bench_obs.ITERS)
    args = parser.parse_args(argv)

    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        calibration_ms = calibrate()
        benchmarks = run_core_with_warehouse(args.n_docs, args.iters)
        benchmarks.update(run_warehouse_queries(args.iters))
    finally:
        set_registry(previous)
    doc = {
        "meta": {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "n_docs": args.n_docs,
            "iters": args.iters,
            "n_access": N_ACCESS,
            "calibration_ms": calibration_ms,
        },
        "benchmarks": benchmarks,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"calibration: {calibration_ms:.2f} ms")
    for name, stats in benchmarks.items():
        print(f"{name:14s} p50 {stats['p50_ms']:8.4f} ms   "
              f"p95 {stats['p95_ms']:8.4f} ms   "
              f"p99 {stats['p99_ms']:8.4f} ms")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
