"""Command-line interface: populate, serve, query, validate, report.

A downstream operator's entry points over a persistent datastore directory::

    python -m repro.cli populate  --data-dir ./mpdb --n 40
    python -m repro.cli status    --data-dir ./mpdb
    python -m repro.cli query     --data-dir ./mpdb --formula NaCl
    python -m repro.cli vnv       --data-dir ./mpdb
    python -m repro.cli serve     --data-dir ./mpdb --port 8899
    python -m repro.cli mongostat --data-dir ./mpdb --n 5 --interval 1
    python -m repro.cli mongotop  --data-dir ./mpdb --n 3
    python -m repro.cli advise    --data-dir ./mpdb --verify
    python -m repro.cli profile   --host localhost --port 8900 --flame
    python -m repro.cli diagnose  --data-dir ./mpdb --crash

Every command opens the same snapshot+journal-backed store, so state
persists between invocations — a one-machine analog of operating the
production deployment.  ``mongostat``/``mongotop`` also run against a
live wire-protocol server (``--host``/--port``), sampling the fleet the
way their MongoDB namesakes do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .api import MaterialsAPI, MaterialsAPIServer, QueryEngine, WebUI
from .api.annotations import AnnotationStore
from .builders import (
    BandStructureBuilder,
    BatteryBuilder,
    MaterialsBuilder,
    PhaseDiagramBuilder,
    SymmetryBuilder,
    VnVRunner,
    XRDBuilder,
)
from .datagen import SyntheticICSD, elemental_references
from .docstore import DocumentStore
from .fireworks import LaunchPad, Rocket, Workflow, vasp_firework
from .matgen import mps_from_structure

ROBUST_INCAR = {"ENCUT": 520, "AMIX": 0.15, "ALGO": "All", "NELM": 500}


def _open_store(args: argparse.Namespace) -> DocumentStore:
    return DocumentStore(persistence_dir=args.data_dir,
                         fsync=getattr(args, "fsync", "interval"))


def cmd_populate(args: argparse.Namespace) -> int:
    store = _open_store(args)
    db = store["mp"]
    icsd = SyntheticICSD(seed=args.seed)
    structures = icsd.structures(args.n)
    elements = sorted({el for s in structures for el in s.elements})
    structures += elemental_references(elements)
    seen, unique = set(), []
    for s in structures:
        if s.structure_hash() not in seen:
            seen.add(s.structure_hash())
            unique.append(s)
    records = [mps_from_structure(s) for s in unique]
    existing = {d["mps_id"] for d in db["mps"].find({}, {"mps_id": 1})}
    fresh = [(s, r) for s, r in zip(unique, records)
             if r["mps_id"] not in existing]
    if fresh:
        db["mps"].insert_many([r for _, r in fresh])
    launchpad = LaunchPad(db)
    intake = launchpad.add_workflow(Workflow([
        vasp_firework(s, mps_id=r["mps_id"], incar=dict(ROBUST_INCAR),
                      walltime_s=1e9, memory_mb=1e6)
        for s, r in zip(unique, records)
    ]))
    launches = Rocket(launchpad).rapidfire()
    print(f"workflow: {intake['added']} new fireworks, "
          f"{intake['duplicates']} dedup hits, {launches} launched")
    print(f"materials: {MaterialsBuilder(db).run()}")
    print(f"phase diagrams: {PhaseDiagramBuilder(db).run()}")
    print(f"batteries: {BatteryBuilder(db, 'Li').run_intercalation()}")
    print(f"xrd: {XRDBuilder(db).run()}")
    print(f"bands: {BandStructureBuilder(db).run()}")
    print(f"symmetry: {SymmetryBuilder(db).run()}")
    store.snapshot()
    print(f"snapshot written to {args.data_dir}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from .analysis import database_census

    store = _open_store(args)
    db = store["mp"]
    stats = db.command_stats()
    print(f"database: {stats['db']}  collections: {stats['collections']}  "
          f"documents: {stats['objects']}  bytes: {stats['dataSize']}")
    for name in db.list_collection_names():
        print(f"  {name:20s} {db[name].count_documents():6d} docs")
    census = database_census(db)
    if "formation_energy" in census:
        fe = census["formation_energy"]
        print(f"formation energy: mean {fe['mean']:.2f} eV/atom "
              f"(range {fe['min']:.2f} .. {fe['max']:.2f})")
        print(f"stable materials: {census.get('n_stable', 0)}  "
              f"metals: {census.get('n_metals', 0)}  "
              f"insulators: {census.get('n_insulators', 0)}")
        cov = census["element_coverage"]
        print(f"chemistry: {cov['n_elements']} elements; most common "
              + ", ".join(f"{el} ({n})" for el, n in cov["most_common"]))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    store = _open_store(args)
    qe = QueryEngine(store["mp"])
    if args.formula:
        criteria = {"reduced_formula": args.formula}
    elif args.criteria:
        criteria = json.loads(args.criteria)
    else:
        criteria = {}
    docs = qe.query(criteria, limit=args.limit,
                    properties=args.properties.split(",")
                    if args.properties else None)
    for doc in docs:
        doc.pop("_id", None)
        doc.pop("structure", None)
        print(json.dumps(doc, default=str))
    print(f"({len(docs)} documents)", file=sys.stderr)
    return 0


def cmd_vnv(args: argparse.Namespace) -> int:
    store = _open_store(args)
    report = VnVRunner(store["mp"]).run_all()
    print(f"V&V: {report['n_violations']} violations in "
          f"{report['elapsed_s'] * 1e3:.0f} ms")
    for violation in report["violations"]:
        print(f"  [{violation['rule']}] {violation['message']}")
    store.snapshot()
    return 0 if report["clean"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    store = _open_store(args)
    db = store["mp"]
    warehouse = None
    monitor = None
    query_log = None
    if not args.no_telemetry:
        from .obs.health import HealthMonitor
        from .obs.slo import default_rules
        from .obs.warehouse import TelemetryWarehouse

        warehouse = TelemetryWarehouse(store)
        warehouse.tail_sampler.install()
        warehouse.start()
        query_log = warehouse.access
        # Alerts live in telemetry.alerts: open alerts survive restarts.
        monitor = HealthMonitor(
            engine=warehouse.slo_engine(default_rules(db))
        )
    qe = QueryEngine(db, query_log=query_log)
    api = MaterialsAPI(qe)
    webui = WebUI(qe, AnnotationStore(db))
    server = MaterialsAPIServer(api, port=args.port, webui=webui,
                                monitor=monitor, warehouse=warehouse)
    server.start()
    wire = None
    if args.wire_port is not None:
        from .docstore.server import DatastoreServer

        wire = DatastoreServer(
            store, port=args.wire_port,
            access_log=warehouse.access if warehouse else None,
        ).start()
        print(f"wire protocol on {wire.address[0]}:{wire.port}")
    recorder = None
    watchdog = None
    if not args.no_flight:
        from .obs.flight import (
            StallWatchdog,
            enable_fault_handler,
            generate_crash_report,
            start_flight_recorder,
            stop_flight_recorder,
        )

        flight_dir = args.flight_dir or os.path.join(args.data_dir, "flight")
        enable_fault_handler(flight_dir)
        if generate_crash_report(
                flight_dir, journal_recovery=store.last_recovery) is not None:
            print(f"unclean shutdown detected: crash report written to "
                  f"{os.path.join(flight_dir, 'crash_report.json')}")
        recorder = start_flight_recorder(
            store, flight_dir, interval_s=args.flight_interval)
        watchdog = StallWatchdog(
            recorder, store=store, stall_timeout_s=args.stall_timeout,
        ).start()
        print(f"flight recorder on {flight_dir} "
              f"(every {args.flight_interval:g}s, stall timeout "
              f"{args.stall_timeout:g}s)")
    print(f"Materials API + Web UI on {server.base_url} "
          f"(try {server.base_url}/ui) — Ctrl-C to stop")
    if warehouse is not None:
        print("telemetry warehouse on "
              f"(try {server.base_url}/telemetry/access?top=duration)")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        if watchdog is not None:
            watchdog.stop()
        if recorder is not None:
            stop_flight_recorder()
        if wire is not None:
            wire.stop()
        server.stop()
        if warehouse is not None:
            warehouse.stop()
        store.close()
    return 0


def _remote_client(args: argparse.Namespace):
    """The :class:`RemoteClient` for ``--host``/``--port``, or ``None``
    when no ``--host`` was given."""
    if not args.host:
        return None
    if args.port is None:
        raise SystemExit("--host requires --port")
    from .docstore.server import RemoteClient

    return RemoteClient(args.host, args.port,
                        pool_size=getattr(args, "pool_size", 4))


def _monitor_target(args: argparse.Namespace):
    """``(target, close)`` for the sampler commands: a live wire-protocol
    server when ``--host`` is given, the local persistent store otherwise."""
    client = _remote_client(args)
    if client is not None:
        return client, client.close
    return _open_store(args), (lambda: None)


def cmd_mongostat(args: argparse.Namespace) -> int:
    import time

    from .obs import ServerStatusSampler, format_stat_table

    target, close = _monitor_target(args)
    try:
        sampler = ServerStatusSampler(target)
        for i in range(args.n):
            if i:
                time.sleep(args.interval)
            sample = sampler.sample()
            if args.json:
                print(json.dumps(sample, default=str))
            else:
                print(format_stat_table([sample], header=(i == 0)))
            sys.stdout.flush()
    finally:
        close()
    return 0


def cmd_mongotop(args: argparse.Namespace) -> int:
    import time

    from .obs import TopSampler, format_top_table

    target, close = _monitor_target(args)
    try:
        sampler = TopSampler(target[args.db])
        for i in range(args.n):
            if i:
                time.sleep(args.interval)
            sample = sampler.sample()
            if args.json:
                print(json.dumps(sample, default=str))
            else:
                if i:
                    print()
                print(format_top_table(sample))
            sys.stdout.flush()
    finally:
        close()
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """``repro cluster``: admin the sharded cluster on a live server."""
    if not args.host or args.port is None:
        raise SystemExit(
            "repro cluster requires --host and --port (a live server "
            "started with an attached sharded cluster)"
        )
    from .errors import ClusterError

    client = _remote_client(args)
    try:
        if args.action == "status":
            status = client.shard_status()
            if args.json:
                print(json.dumps(status, default=str))
                return 0
            print(
                f"shards: {len(status['shards'])}"
                f"  migrations: {status['migrations']}"
                f"  splits: {status['splits']}"
                f"  staleEpochRetries: {status['staleEpochRetries']}"
                f"  balancer: "
                f"{'on' if status['balancerRunning'] else 'off'}"
            )
            for shard_id, rs in sorted(status["shards"].items()):
                members = "  ".join(
                    f"{m['name']}:{m['role'].lower()}"
                    for m in rs["members"]
                )
                print(f"  {shard_id}: term={rs['term']} "
                      f"primary={rs['primary']}  {members}")
            for ns, info in sorted(status["namespaces"].items()):
                chunks = " ".join(f"{s}={n}" for s, n
                                  in sorted(info["chunks"].items()))
                print(f"  {ns}: key={info['shardKey']} "
                      f"({info['strategy']}) epoch={info['epoch']} "
                      f"chunks: {chunks}")
            return 0
        if args.action == "add-shard":
            if not args.shard:
                raise SystemExit("add-shard requires --shard")
            print(json.dumps(client.add_shard(args.shard)))
            return 0
        if args.action == "move-chunk":
            if not (args.ns and args.chunk and args.to):
                raise SystemExit(
                    "move-chunk requires --ns, --chunk and --to")
            print(json.dumps(client.move_chunk(args.ns, args.chunk,
                                               args.to)))
            return 0
        if not args.shard:
            raise SystemExit("step-down requires --shard")
        print(json.dumps(client.step_down(args.shard)))
        return 0
    except ClusterError as exc:
        raise SystemExit(f"repro cluster: {exc}") from exc
    finally:
        client.close()


def _parse_keys(spec: str):
    """``"formula:1,e_above_hull:-1"`` -> ``[("formula", 1), ...]``.

    A bare field name means ascending; directions must be 1 or -1.
    """
    keys = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            field, _, direction = part.rpartition(":")
            keys.append((field.strip(), int(direction)))
        else:
            keys.append((part, 1))
    if not keys:
        raise SystemExit(f"empty index key spec: {spec!r}")
    return keys


def cmd_explain(args: argparse.Namespace) -> int:
    target, close = _monitor_target(args)
    try:
        coll = target[args.db][args.coll]
        report = coll.explain(
            json.loads(args.criteria) if args.criteria else {},
            sort=_parse_keys(args.sort) if args.sort else None,
            projection={f: 1 for f in args.projection.split(",")}
            if args.projection else None,
            hint=args.hint,
            verbosity=args.verbosity,
        )
    finally:
        close()
    if args.json:
        print(json.dumps(report, default=str))
        return 0
    print(f"{args.db}.{args.coll}: {report['planSummary']}")
    print(f"  nReturned {report['nReturned']}  "
          f"keysExamined {report['keysExamined']}  "
          f"docsExamined {report['docsExamined']}  "
          f"{report['executionTimeMillis']:.2f} ms")
    print(f"  blockingSort {report['blockingSort']}  "
          f"covered {report['covered']}")
    for rejected in report.get("rejectedPlans") or []:
        print(f"  rejected: {rejected['planSummary']}")
    return 0


def cmd_create_index(args: argparse.Namespace) -> int:
    target, close = _monitor_target(args)
    try:
        coll = target[args.db][args.coll]
        name = coll.create_index(_parse_keys(args.keys),
                                 unique=args.unique, name=args.name,
                                 expire_after_seconds=args.expire_after)
        if hasattr(target, "snapshot"):
            target.snapshot()
    finally:
        close()
    ttl = (f" (TTL {args.expire_after:g}s)"
           if args.expire_after is not None else "")
    print(f"created index {name} on {args.db}.{args.coll}{ttl}")
    return 0


def _find_docs(coll, query=None, projection=None, sort=None, limit=0):
    """find() over a local Collection (cursor API) or a RemoteCollection
    (kwargs API) — the telemetry commands work against either."""
    from .docstore.server import RemoteCollection

    if isinstance(coll, RemoteCollection):
        return coll.find(query or {}, projection, sort=sort,
                         limit=int(limit))
    cursor = coll.find(query or {}, projection)
    if sort:
        cursor = cursor.sort(sort)
    if limit:
        cursor = cursor.limit(int(limit))
    return list(cursor)


def _fmt_ts(ts: float) -> str:
    import time

    return time.strftime("%m-%d %H:%M:%S", time.localtime(ts))


def _telemetry_trends(args: argparse.Namespace) -> int:
    """``repro telemetry trends`` — one metric's history from the flight
    ring: ``<data-dir>/flight`` locally (the docstore is never opened), the
    server's in-memory window with ``--host``."""
    from .obs import flight as fl

    if args.host:
        client, close = _monitor_target(args)
        try:
            snaps = client.flight("window")["snapshots"]
        finally:
            close()
    else:
        snaps = fl.decode_ring(
            os.path.join(args.data_dir, "flight"))["snapshots"]
    if not args.name:
        names = sorted({key.split("{", 1)[0] for snap in snaps
                        for key in snap.get("metrics") or {}})
        for name in names:
            print(name)
        print(f"({len(names)} metrics in {len(snaps)} snapshots; "
              "pick one with --name)", file=sys.stderr)
        return 0
    rows = fl.metric_points(snaps, args.name)
    if args.limit:
        rows = rows[-args.limit:]
    for row in rows:
        if args.json:
            print(json.dumps(row, default=str))
        else:
            print(f"{_fmt_ts(row['ts'])}  {row['value']:>12.4g}"
                  f"  {row['series']}")
    print(f"({len(rows)} points)", file=sys.stderr)
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """``repro telemetry top|trends|access`` — warehouse analytics, local
    or over the wire (the collections are plain data, so a RemoteClient
    answers the same queries a local store does); ``trends`` reads the
    flight ring instead."""
    if args.action == "trends":
        return _telemetry_trends(args)
    target, close = _monitor_target(args)
    try:
        tdb = target["telemetry"]
        if args.action == "top":
            from .api.querylog import access_top

            rows = access_top(tdb["access"], by=args.by, limit=args.limit)
            if args.json:
                print(json.dumps(rows, default=str))
                return 0
            print(f"{'endpoint':<32s}{'count':>8s}{'errors':>8s}"
                  f"{'total(ms)':>12s}{'mean(ms)':>10s}{'max(ms)':>10s}")
            for r in rows:
                print(f"{str(r['endpoint']):<32s}{r['count']:>8d}"
                      f"{r['errors']:>8d}{r['total_ms']:>12.1f}"
                      f"{r['mean_ms']:>10.2f}{r['max_ms']:>10.2f}")
            return 0
        query = {}
        if args.endpoint:
            query["endpoint"] = args.endpoint
        if args.user:
            query["user"] = args.user
        if args.status is not None:
            query["status"] = args.status
        if args.errors_only:
            query["$or"] = [{"status": {"$gte": 400}},
                            {"error": {"$ne": None}}]
        records = _find_docs(
            tdb["access"], query, {"_id": 0},
            sort=[("ts", -1), ("seq", -1)], limit=args.limit,
        )
        if args.json:
            for rec in records:
                print(json.dumps(rec, default=str))
            return 0
        for rec in records:
            user = rec.get("user") or "-"
            err = f"  !{rec['error']}" if rec.get("error") else ""
            print(f"{_fmt_ts(rec.get('ts', 0.0))}  {rec.get('status', 0):3d}  "
                  f"{rec.get('method', '-'):5s} "
                  f"{str(rec.get('endpoint')):<32s}"
                  f"{rec.get('duration_ms', 0.0):>9.2f} ms  {user}{err}")
        print(f"({len(records)} records)", file=sys.stderr)
        return 0
    finally:
        close()


def _print_profile_snapshot(snap: dict) -> None:
    print(f"profiler: {'running' if snap.get('running') else 'stopped'}  "
          f"{snap.get('hz', 0):g} Hz  samples {snap.get('samples', 0)}  "
          f"threads {snap.get('threads', 0)}  "
          f"stacks {snap.get('distinct_stacks', 0)}"
          + ("  [truncated]" if snap.get("truncated") else ""))
    if snap.get("duration_s"):
        print(f"  window {snap['duration_s']:.1f}s  "
              f"achieved {snap.get('achieved_hz', 0.0):.1f} Hz  "
              f"overhead {snap.get('overhead_ms', 0.0):.1f} ms")
    top = snap.get("top") or []
    if top:
        print(f"{'self':>8s}  {'%':>6s}  function")
        total = max(snap.get("samples", 0), 1)
        for row in top:
            print(f"{row['count']:>8d}  "
                  f"{100.0 * row['count'] / total:>5.1f}%"
                  f"  {row['function']}")


def _print_lock_report(report: dict) -> None:
    totals = report.get("totals", {})
    print("lock totals: "
          + "  ".join(f"{k} {totals[k]:g}" for k in sorted(totals)))
    rows = report.get("top_contended") or []
    if not rows:
        print("no lock contention above the noise floor")
        return
    print(f"{'wait(ms)':>10s}{'count':>7s}  {'mode':<6s}"
          f"{'ns':<24s}waiter -> holder")
    for row in rows:
        ns = f"{row.get('db', '?')}.{row.get('coll', '?')}"
        print(f"{row['wait_ms']:>10.2f}{row['count']:>7d}  "
              f"{row['mode']:<6s}{ns:<24s}"
              f"{row['waiter']} -> {row['holder']}")


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile`` — continuous-profiler snapshots, folded stacks
    for flamegraphs, and the lock-contention report; local or over the
    wire (the wire path profiles the *server* process)."""
    import time

    if args.locks:
        target, close = _monitor_target(args)
        try:
            report = target.lock_report(limit=args.top or 10)
        finally:
            close()
        if args.json:
            print(json.dumps(report, default=str))
        else:
            _print_lock_report(report)
        return 0

    # Over the wire this profiles the server; locally, *this* process.
    client = _remote_client(args)
    if client is None:
        from .obs.profiler import profile_action as profile
    else:
        profile = client.profile
    try:
        started = profile("start", hz=args.hz)
        time.sleep(args.duration)
        if args.flame:
            for line in profile("flame", limit=args.top):
                print(line)
        else:
            snap = profile("snapshot", limit=args.top)
            if args.json:
                print(json.dumps(snap, default=str))
            else:
                _print_profile_snapshot(snap)
        # Leave a profiler someone else started running; only stop the
        # one this command started.
        if not started.get("already_running"):
            profile("stop")
    finally:
        if client is not None:
            client.close()
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    """``repro diagnose`` — decode the flight-recorder ring: recent
    windows, time-range slices, window diffs, an anomaly scan, and the
    pre-crash report.  The local path reads only the ring directory —
    it never opens the docstore, so it works when the data files are
    the casualty; ``--host`` asks a live server about *its* recorder."""
    from .obs import flight as fl

    client = _remote_client(args)
    if client is not None:
        try:
            if args.crash:
                doc = client.flight("crash")
            elif args.anomalies:
                doc = client.flight("anomalies", threshold=args.threshold)
            elif args.window:
                doc = client.flight("window", limit=args.window)
            else:
                doc = client.flight("status")
        finally:
            client.close()
        print(json.dumps(doc, default=str,
                         indent=None if args.json else 2))
        return 0

    flight_dir = args.flight_dir or os.path.join(args.data_dir, "flight")

    if args.crash:
        report = fl.read_crash_report(flight_dir)
        source = "crash_report.json"
        if report is None:
            report = fl.build_crash_report(flight_dir,
                                           window_s=args.window_s)
            source = "ring"
        if args.json:
            print(json.dumps(report, default=str))
            return 0
        print(f"crash report ({source}) for {flight_dir}")
        session = report.get("session") or {}
        if session:
            print(f"  session: pid {session.get('pid')}  "
                  f"clean={session.get('clean')}")
        final = report.get("final")
        if final:
            print(f"  last snapshot: seq {final.get('seq')} at "
                  f"{_fmt_ts(final.get('ts') or 0.0)} "
                  f"({report.get('snapshots_in_window', 0)} snapshots in "
                  f"the final {report.get('window_s', 0.0):g}s)")
            ops = final.get("opcounters") or {}
            if ops:
                print("  opcounters: "
                      + "  ".join(f"{k} {ops[k]}" for k in sorted(ops)))
            journal = final.get("journal") or {}
            if journal:
                print(f"  journal: pending {journal.get('pending')}  "
                      f"appended {journal.get('appended')}  "
                      f"committed {journal.get('committed')}")
        else:
            print("  no snapshots in the ring")
        if report.get("journal_recovery"):
            print(f"  journal recovery: {report['journal_recovery']}")
        for warning in report.get("decode_warnings") or []:
            print(f"  warning: {warning}")
        for event in (report.get("events") or [])[-5:]:
            print(f"  event: {event.get('type')} at "
                  f"{_fmt_ts(event.get('ts', 0.0))}")
        for finding in (report.get("anomalies") or [])[:5]:
            print(f"  anomaly: {finding['series']} z={finding['z']:+.1f} "
                  f"value {finding['value']:g} (median "
                  f"{finding['median']:g})")
        return 0

    decoded = fl.decode_ring(flight_dir, since=args.since, until=args.until)
    snaps = decoded["snapshots"]
    window = snaps[-args.window:] if args.window else snaps

    if args.diff:
        result = fl.diff_window(snaps, args.diff[0], args.diff[1])
        if args.json:
            print(json.dumps(result, default=str))
            return 0
        print(f"window diff: {result.get('snapshots', 0)} snapshots "
              f"{_fmt_ts(result.get('first_ts') or 0.0)} .. "
              f"{_fmt_ts(result.get('last_ts') or 0.0)}")
        for path in sorted(result.get("deltas", {})):
            d = result["deltas"][path]
            print(f"  {path}: {d['from']:g} -> {d['to']:g} "
                  f"({d['delta']:+g})")
        return 0

    if args.anomalies:
        findings = fl.scan_anomalies(window, threshold=args.threshold)
        if args.json:
            print(json.dumps(findings, default=str))
            return 0
        if not findings:
            print(f"no anomalies above |z| >= {args.threshold:g} "
                  f"in {len(window)} snapshots")
        for finding in findings:
            print(f"{finding['z']:>+8.1f}  {finding['series']}  "
                  f"value {finding['value']:g} (median "
                  f"{finding['median']:g}) at {_fmt_ts(finding['ts'])}")
        return 0

    if args.json:
        print(json.dumps({
            "directory": flight_dir,
            "chunks": decoded["chunks"],
            "records": decoded["records"],
            "snapshots": len(snaps),
            "events": decoded["events"],
            "warnings": decoded["warnings"],
            "window": window,
        }, default=str))
        return 0
    print(f"flight ring {flight_dir}: {decoded['chunks']} chunks, "
          f"{decoded['records']} records, {len(snaps)} snapshots, "
          f"{len(decoded['events'])} events")
    for warning in decoded["warnings"]:
        print(f"  warning: {warning}")
    for event in decoded["events"][-10:]:
        print(f"  event: {event.get('type')} at "
              f"{_fmt_ts(event.get('ts', 0.0))}")
    shown = window if args.window else window[-5:]
    for snap in shown:
        server = snap.get("server") or {}
        ops = server.get("opcounters") or {}
        proc = snap.get("process") or {}
        rss = proc.get("rss_bytes")
        print(f"  {_fmt_ts(snap.get('ts', 0.0))}  seq {snap.get('seq')}  "
              f"ops {sum(ops.values()) if ops else 0}  "
              f"rss {'-' if rss is None else f'{rss / 1048576.0:.1f}M'}")
    return 0


def cmd_plan_cache(args: argparse.Namespace) -> int:
    target, close = _monitor_target(args)
    try:
        if args.coll:
            stats = target[args.db][args.coll].plan_cache_stats()
        elif args.host:
            raise SystemExit("--host requires --coll for plan-cache")
        else:
            stats = target[args.db].plan_cache_status()
    finally:
        close()
    print(json.dumps(stats, default=str, indent=2 if not args.json else None))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from .obs import IndexAdvisor

    store = _open_store(args)
    advisor = IndexAdvisor(store[args.db], min_millis=args.min_millis,
                           min_occurrences=args.min_occurrences)
    recs = advisor.analyze()
    if args.json:
        print(json.dumps({
            "recommendations": [r.to_dict() for r in recs],
            "unused_indexes": advisor.unused_indexes(),
        }, default=str))
        return 0
    if not recs:
        print("no missing-index candidates in system.profile "
              "(is profiling enabled? try db.set_profiling_level)")
    for rec in recs:
        print(f"{rec.ns}: {rec.command}")
        print(f"  seen {rec.occurrences}x, avg {rec.avg_millis:.2f} ms, "
              f"docsExamined {rec.docs_examined_before} -> "
              f"~{rec.estimated_docs_examined_after} "
              f"({rec.estimated_reduction:.0%} fewer)")
        if args.verify:
            result = advisor.verify(rec, keep=args.keep)
            print(f"  explain(): {result['before']['stage']} "
                  f"{result['before']['docsExamined']} docs -> "
                  f"{result['after']['stage']} "
                  f"{result['after']['docsExamined']} docs"
                  + ("  [index kept]" if args.keep else "  [index dropped]"))
    unused = advisor.unused_indexes()
    for ix in unused:
        print(f"{ix['ns']}: index {ix['name']} ({ix['field']}) "
              f"unused since creation — drop candidate")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Materials Project reproduction CLI"
    )
    parser.add_argument("--data-dir", default="./mp-datastore",
                        help="persistence directory for the document store")
    parser.add_argument("--fsync", choices=["always", "interval", "never"],
                        default="interval",
                        help="journal fsync policy: 'always' fsyncs every "
                             "group commit, 'interval' amortizes fsyncs on "
                             "a timer, 'never' leaves flushing to the OS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("populate", help="generate inputs, compute, build")
    p.add_argument("--n", type=int, default=30, help="ICSD structures")
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(fn=cmd_populate)

    p = sub.add_parser("status", help="collection census")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("query", help="query the materials collection")
    p.add_argument("--formula", help="reduced formula shortcut")
    p.add_argument("--criteria", help="raw JSON query document")
    p.add_argument("--properties", help="comma-separated projection")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("vnv", help="run validation & verification")
    p.set_defaults(fn=cmd_vnv)

    p = sub.add_parser("serve", help="serve the Materials API + Web UI")
    p.add_argument("--port", type=int, default=8899)
    p.add_argument("--wire-port", type=int,
                   help="also serve the wire protocol on this port")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable the telemetry warehouse (access log, "
                        "tail-sampled traces, alerts, incident events, "
                        "TTL retention)")
    p.add_argument("--no-flight", action="store_true",
                   help="disable the flight recorder, stall watchdog, and "
                        "crash forensics")
    p.add_argument("--flight-dir",
                   help="flight-ring directory (default <data-dir>/flight)")
    p.add_argument("--flight-interval", type=float, default=1.0,
                   help="seconds between flight-recorder snapshots")
    p.add_argument("--stall-timeout", type=float, default=5.0,
                   help="seconds a liveness probe must fail before the "
                        "watchdog declares a stall")
    p.set_defaults(fn=cmd_serve)

    for name, help_text in (
        ("mongostat", "sample opcounter deltas (mongostat analog)"),
        ("mongotop", "sample per-collection read/write time (mongotop)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=5, help="samples to take")
        p.add_argument("--interval", type=float, default=1.0,
                       help="seconds between samples")
        p.add_argument("--json", action="store_true",
                       help="one JSON document per sample")
        p.add_argument("--host", help="sample a live wire-protocol server")
        p.add_argument("--port", type=int, help="server port (with --host)")
        p.add_argument("--pool-size", type=int, default=4,
                       help="client connection-pool size (with --host)")
        if name == "mongotop":
            p.add_argument("--db", default="mp", help="database to watch")
            p.set_defaults(fn=cmd_mongotop)
        else:
            p.set_defaults(fn=cmd_mongostat)

    def _add_wire_target(p):
        p.add_argument("--host", help="target a live wire-protocol server")
        p.add_argument("--port", type=int, help="server port (with --host)")

    p = sub.add_parser("cluster",
                       help="sharded-cluster admin (status/add-shard/"
                            "move-chunk/step-down)")
    p.add_argument("action",
                   choices=["status", "add-shard", "move-chunk",
                            "step-down"])
    p.add_argument("--shard", help="shard id (add-shard / step-down)")
    p.add_argument("--ns", help="sharded namespace (move-chunk)")
    p.add_argument("--chunk", help="chunk id (move-chunk)")
    p.add_argument("--to", help="destination shard (move-chunk)")
    p.add_argument("--json", action="store_true")
    _add_wire_target(p)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("explain", help="run the query planner and report")
    p.add_argument("--db", default="mp")
    p.add_argument("--coll", default="materials")
    p.add_argument("--criteria", help="raw JSON query document")
    p.add_argument("--sort", help='sort spec, e.g. "e_above_hull:1"')
    p.add_argument("--projection", help="comma-separated included fields")
    p.add_argument("--hint", help="force an index by name ($natural scans)")
    p.add_argument("--verbosity", default="executionStats",
                   choices=["executionStats", "allPlansExecution"])
    p.add_argument("--json", action="store_true")
    _add_wire_target(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("create-index",
                       help="create a (compound) secondary index")
    p.add_argument("--db", default="mp")
    p.add_argument("--coll", default="materials")
    p.add_argument("--keys", required=True,
                   help='key spec, e.g. "formula:1,e_above_hull:-1"')
    p.add_argument("--unique", action="store_true")
    p.add_argument("--name", help="index name (defaults to key-derived)")
    p.add_argument("--expire-after", type=float,
                   help="TTL: expire documents whose (single) key field is "
                        "an epoch-seconds timestamp older than this many "
                        "seconds")
    _add_wire_target(p)
    p.set_defaults(fn=cmd_create_index)

    p = sub.add_parser("telemetry",
                       help="telemetry warehouse analytics (top/trends/"
                            "access)")
    p.add_argument("action", choices=["top", "trends", "access"])
    p.add_argument("--by", default="duration",
                   choices=["duration", "count", "errors"],
                   help="ranking for 'top'")
    p.add_argument("--name", help="metric name for 'trends' (read from "
                                  "the flight ring)")
    p.add_argument("--endpoint", help="filter 'access' by endpoint")
    p.add_argument("--user", help="filter 'access' by user id")
    p.add_argument("--status", type=int, help="filter 'access' by status")
    p.add_argument("--errors-only", action="store_true",
                   help="only failed requests (status >= 400 or error)")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--json", action="store_true")
    _add_wire_target(p)
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser("profile",
                       help="continuous profiler: sample stacks, emit "
                            "folded flamegraph lines, or report lock "
                            "contention (local or over the wire)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds to sample before reporting")
    p.add_argument("--hz", type=float, default=100.0,
                   help="sampling frequency")
    p.add_argument("--flame", action="store_true",
                   help="emit folded 'stack count' lines for "
                        "flamegraph.pl / speedscope")
    p.add_argument("--locks", action="store_true",
                   help="report top contended locks instead of sampling")
    p.add_argument("--top", type=int, default=0,
                   help="bound the reported stacks / contended sites "
                        "(0 = profiler default)")
    p.add_argument("--json", action="store_true")
    _add_wire_target(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("diagnose",
                       help="decode the flight-recorder ring: windows, "
                            "diffs, anomalies, crash forensics (never "
                            "opens the docstore)")
    p.add_argument("--flight-dir",
                   help="ring directory (default <data-dir>/flight)")
    p.add_argument("--window", type=int, default=0,
                   help="only the last N snapshots")
    p.add_argument("--since", type=float,
                   help="epoch-seconds lower bound on returned records")
    p.add_argument("--until", type=float,
                   help="epoch-seconds upper bound on returned records")
    p.add_argument("--diff", nargs=2, type=float, metavar=("T0", "T1"),
                   help="numeric-leaf deltas between two instants")
    p.add_argument("--anomalies", action="store_true",
                   help="MAD-z-score outlier scan over the window")
    p.add_argument("--threshold", type=float, default=6.0,
                   help="modified z-score threshold for --anomalies")
    p.add_argument("--crash", action="store_true",
                   help="pre-crash report: the persisted crash_report.json "
                        "or one rebuilt from the ring alone")
    p.add_argument("--window-s", type=float, default=30.0,
                   help="pre-crash window size in seconds for --crash")
    p.add_argument("--json", action="store_true")
    _add_wire_target(p)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("plan-cache", help="plan-cache counters and size")
    p.add_argument("--db", default="mp")
    p.add_argument("--coll", help="one collection (required with --host)")
    p.add_argument("--json", action="store_true")
    _add_wire_target(p)
    p.set_defaults(fn=cmd_plan_cache)

    p = sub.add_parser("advise",
                       help="recommend indexes from system.profile")
    p.add_argument("--db", default="mp")
    p.add_argument("--min-millis", type=float, default=0.0,
                   help="ignore profile entries faster than this")
    p.add_argument("--min-occurrences", type=int, default=1,
                   help="require a query shape this many times")
    p.add_argument("--verify", action="store_true",
                   help="replay explain() with the index created")
    p.add_argument("--keep", action="store_true",
                   help="keep indexes created during --verify")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_advise)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped through `head`): not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
