"""Observability tour: profiler, opcounters, traces, and /metrics.

Runs a small workflow while every observability signal is switched on, then
shows what each one captured: the MongoDB-style ``system.profile``
collection, ``serverStatus`` opcounters, the trace tree of one firework
launch, a *stitched* distributed trace crossing client → proxy → server,
the provenance DAG of a built material, and the Prometheus-style
``/metrics`` document served live over HTTP.

Run:  python examples/observability_tour.py
"""

import urllib.request

from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.api.querylog import access_top
from repro.builders import MaterialsBuilder
from repro.docstore import DatastoreProxy, DatastoreServer, DocumentStore
from repro.fireworks import LaunchPad, Rocket, Workflow, vasp_firework
from repro.matgen import make_prototype, mps_from_structure
from repro.obs import (
    IndexAdvisor,
    TelemetryWarehouse,
    format_provenance,
    format_trace,
    get_registry,
    provenance_graph,
    recent_traces,
    span,
)

ROBUST_INCAR = {"ENCUT": 520, "AMIX": 0.15, "ALGO": "All", "NELM": 500}


def show_trace(spn, indent=0):
    attrs = " ".join(f"{k}={v}" for k, v in spn.attributes.items())
    print(f"[trace]     {'  ' * indent}{spn.name} "
          f"{spn.duration_ms:.2f}ms {attrs}")
    for child in spn.children:
        show_trace(child, indent + 1)


def main() -> None:
    store = DocumentStore()
    db = store["mp"]

    # 1. Profiling level 2: record *every* operation, like `db.setProfilingLevel(2)`.
    db.set_profiling_level(2)

    # 2. Run one calculation under tracing — the launch opens a root span and
    #    the SCF loop and each docstore write attach themselves as children.
    structure = make_prototype("rocksalt", ["Na", "Cl"])
    pad = LaunchPad(db)
    pad.add_workflow(Workflow([
        vasp_firework(structure, mps_id=mps_from_structure(structure)["mps_id"],
                      incar=dict(ROBUST_INCAR), walltime_s=1e9, memory_mb=1e6)
    ]))
    Rocket(pad).rapidfire()
    MaterialsBuilder(db).run()

    for trace in recent_traces():
        if trace.name == "firework.launch":
            show_trace(trace)

    # 3. The profiler fed a real, queryable system.profile collection.
    slow = db["system.profile"].find({"op": "find"}).to_list()
    print(f"[profiler]  {db['system.profile'].count_documents()} ops recorded; "
          f"{len(slow)} finds, e.g. "
          f"{ {k: slow[0][k] for k in ('ns', 'op', 'millis', 'nreturned')} }")

    # 4. serverStatus-style opcounters aggregate the same op stream.
    print(f"[status]    opcounters = {db.server_status()['opcounters']}")

    # 5. Latency distributions live in the metrics registry.
    summary = get_registry().histogram("repro_docstore_op_millis").summary(
        db="mp", op="query")
    print(f"[metrics]   query latency: p50={summary['p50']:.3f}ms "
          f"p95={summary['p95']:.3f}ms p99={summary['p99']:.3f}ms "
          f"(n={summary['count']})")

    # 6. Distributed tracing: the same query issued through the full
    #    client → proxy → server wire topology, under one root span.  Each
    #    hop joins the trace via the "$trace" wire field; exporting the
    #    server-side buffer and stitching yields one tree across processes.
    with DatastoreServer(store) as server:
        with DatastoreProxy("127.0.0.1", server.port) as proxy:
            with proxy.client() as client:
                with span("tour.remote_query") as root:
                    client["mp"]["tasks"].find({"state": "COMPLETED"})
                exported = client.export_traces(root.trace_id)
    stitched = format_trace([root.to_dict()] + exported)
    for line in stitched.splitlines():
        print(f"[stitched]  {line}")

    # 7. The provenance ledger: every material resolves back through its
    #    source tasks to the fireworks and workflow that produced them.
    material = db["materials"].find_one({})
    graph = provenance_graph(db, material["material_id"])
    print(f"[provenance] {len(graph['nodes'])} nodes, "
          f"{len(graph['edges'])} edges for {material['material_id']}")
    for line in format_provenance(graph).splitlines():
        print(f"[provenance] {line}")

    # 8. The API server scrapes the same registry at GET /metrics, lists
    #    in-flight ops at GET /ops, and serves the DAG at GET /provenance.
    #    With a telemetry warehouse attached it also writes every request
    #    into the queryable telemetry.access collection.
    warehouse = TelemetryWarehouse(store)
    warehouse.tail_sampler.install()
    api = MaterialsAPI(QueryEngine(db))
    with MaterialsAPIServer(api, warehouse=warehouse) as srv:
        urllib.request.urlopen(
            f"{srv.base_url}/rest/v1/materials/NaCl/vasp/band_gap").read()
        text = urllib.request.urlopen(f"{srv.base_url}/metrics").read().decode()
        ops = urllib.request.urlopen(f"{srv.base_url}/ops").read().decode()
    lines = [ln for ln in text.splitlines()
             if ln.startswith("repro_api_quer") or ln.startswith("# TYPE repro_api")]
    print("[/metrics]  " + "\n[/metrics]  ".join(lines))
    print(f"[/ops]      {ops}")

    # 9. The telemetry warehouse dogfoods the datastore: the access log
    #    above is already sitting in an indexed collection.  TTL indexes on
    #    every telemetry collection bound retention — the reaper sweep below
    #    deletes a trace planted with an already-expired timestamp.  Index
    #    advice mines the live system.profile, which the warehouse does not
    #    copy (so advice does not survive a restart); metrics history lives
    #    in the flight ring of step 11, not here.
    recs = IndexAdvisor(db).analyze()
    print(f"[advisor] live system.profile: {len(db.profile_log)} entries, "
          f"{len(recs)} index recommendations")
    for row in access_top(warehouse.access.collection, by="count", limit=3):
        print(f"[warehouse] access {row['endpoint']}: {row['count']} reqs, "
              f"mean {row['mean_ms']:.2f}ms")
    plan = warehouse.db["access"].explain(
        {"endpoint": "rest/v1/materials", "ts": {"$gte": 0.0}})
    print(f"[warehouse] access query plan: {plan['planSummary']}")
    warehouse.db["traces"].insert_one({"ts": 1.0, "trace_id": "tour_stale"})
    reaped = store.start_ttl_reaper().sweep()
    store.stop_ttl_reaper()
    print(f"[warehouse] ttl sweep reaped {reaped} expired docs")

    # 10. Continuous profiling: sample a hot loop's stacks, attribute a
    #     lock wait to its (waiter, holder) pair — the waiting op and the
    #     holding thread, which runs no op — and dissect an
    #     aggregation pipeline stage by stage.  The same data is live on
    #     GET /debug/profile|flamegraph|locks and `repro profile`.
    import threading
    import time as _time

    from repro.obs import SamplingProfiler

    profiler = SamplingProfiler(hz=100)
    stop = threading.Event()

    def tour_hot_loop():
        while not stop.is_set():
            sum(i * i for i in range(200))

    hot = threading.Thread(target=tour_hot_loop, daemon=True)
    hot.start()
    for _ in range(50):  # deterministic passes instead of the daemon
        profiler.sample_once()
        _time.sleep(0.002)
    stop.set()
    hot.join()
    snap = profiler.snapshot(limit=3)
    print(f"[profiler]  {snap['samples']} samples over {snap['passes']} "
          f"passes, {snap['distinct_stacks']} distinct stacks")
    for line in profiler.folded(limit=3):
        print(f"[profiler]  {line}")

    coll = db["materials"]
    held, release = threading.Event(), threading.Event()

    def tour_writer_hold():
        with coll._lock.write():
            held.set()
            release.wait(timeout=5)

    blocker = threading.Thread(target=tour_writer_hold, daemon=True)
    blocker.start()
    held.wait(timeout=5)
    reader = threading.Thread(
        target=lambda: coll.find_one({}), daemon=True)
    reader.start()
    _time.sleep(0.02)
    release.set()
    reader.join(timeout=5)
    blocker.join(timeout=5)
    for row in store.lock_report(limit=2)["top_contended"]:
        print(f"[locks]     {row['mode']} wait {row['wait_ms']:.1f}ms: "
              f"{row['waiter']} blocked by {row['holder']}")

    report = coll.aggregate([
        {"$match": {"band_gap": {"$gte": 0.0}}},
        {"$group": {"_id": "$reduced_formula",
                    "gap": {"$avg": "$band_gap"}}},
        {"$sort": {"gap": -1}},
    ], explain=True)
    print(f"[aggregate] {report['ns']} pipeline={report['pipeline']} "
          f"total {report['executionTimeMillis']:.2f}ms")
    for stage in report["stages"]:
        extra = (f" state={stage['state_size']}"
                 if "state_size" in stage else "")
        print(f"[aggregate] {stage['stage']:<8s} "
              f"in={stage['docs_in']} out={stage['docs_out']} "
              f"{stage['elapsed_ms']:.3f}ms{extra}")

    # 11. The flight recorder: an out-of-band black box appending full
    #     diagnostic snapshots (serverStatus, /proc, the metrics history) to a
    #     size-capped on-disk ring of delta-compressed chunks, plus a
    #     stall watchdog that dumps every thread's stack the moment a
    #     lock, the journal committer, or an in-flight op wedges.  After a
    #     crash the ring alone reconstructs the final pre-crash window —
    #     `repro diagnose --crash` never has to open the datastore.
    import tempfile

    from repro.obs.flight import (
        FlightRecorder,
        StallWatchdog,
        build_crash_report,
        decode_ring,
    )

    flight_dir = tempfile.mkdtemp(prefix="tour-flight-")
    rec = FlightRecorder(store, flight_dir, interval_s=60.0)
    for _ in range(5):
        db["materials"].find_one({})
        rec.capture()
    rec.flush()

    dog = StallWatchdog(rec, store=store, stall_timeout_s=0.01)
    held, release = threading.Event(), threading.Event()

    def tour_lock_wedge():
        with coll._lock.write():
            held.set()
            release.wait(timeout=5)

    wedge = threading.Thread(target=tour_lock_wedge, daemon=True)
    wedge.start()
    held.wait(timeout=5)
    dog.check_once()          # arms the probe: lock failure must sustain
    _time.sleep(0.05)
    for event in dog.check_once():
        print(f"[flight] stall {event['probe']}: {event['detail']}; "
              f"{len(event['stacks'])} thread stacks dumped")
    release.set()
    wedge.join(timeout=5)
    rec.stop()

    ring = decode_ring(flight_dir)
    print(f"[flight] ring decoded: {ring['records']} records in "
          f"{ring['chunks'] if isinstance(ring['chunks'], int) else len(ring['chunks'])} chunks -> "
          f"{len(ring['snapshots'])} snapshots, {len(ring['events'])} events")
    final = build_crash_report(flight_dir, window_s=60.0)
    print(f"[flight] pre-crash window: {final['snapshots_in_window']} "
          f"snapshots, final opcounters {final['final']['opcounters']}")

    # 12. The sharded cluster: shard a collection, watch a newly added
    #     shard start empty (imbalance), let the balancer migrate chunks
    #     to it (copy -> delta drain -> epoch-bumped commit), then show a
    #     shard-key query routing to a single shard while everything else
    #     scatter-gathers.  Cluster events (migrations, elections) land in
    #     a flight ring like step 11's stalls: the one incident log.
    from repro.docstore import Balancer, ShardedCluster

    cluster_rec = FlightRecorder(None, tempfile.mkdtemp(prefix="tour-cluster-"),
                                 interval_s=60.0)
    cluster = ShardedCluster(
        n_replicas=3, split_threshold=40,
        event_sink=lambda e: cluster_rec.record_event(e["type"], e))
    cluster.add_shard("shard0")
    materials = cluster.shard_collection("mp.materials", "material_id",
                                         strategy="range")
    materials.insert_many([
        {"material_id": f"mp-{i:05d}", "nelements": 1 + i % 4}
        for i in range(200)
    ])
    cluster.add_shard("shard1")
    counts = cluster.config.chunk_counts("mp.materials")
    print(f"[cluster] skewed ingest: chunks per shard = "
          f"{dict(sorted(counts.items()))}")

    balancer = Balancer(cluster)
    moves = 0
    while True:
        moved = balancer.balance_once()
        if not moved:
            break
        moves += len(moved)
    counts = cluster.config.chunk_counts("mp.materials")
    print(f"[cluster] balancer moved {moves} chunks -> "
          f"{dict(sorted(counts.items()))} "
          f"(balance factor {cluster.balance_factor('mp.materials'):.2f})")

    targeted = materials.explain({"material_id": "mp-00007"})
    scatter = materials.explain({"nelements": 3})
    print(f"[cluster] explain material_id=mp-00007: {targeted['mode']} "
          f"({len(targeted['shards'])} of {len(cluster.shards)} shards)")
    print(f"[cluster] explain nelements=3: {scatter['mode']} "
          f"({len(scatter['shards'])} of {len(cluster.shards)} shards)")

    primary_before = cluster.shard("shard0").rs.primary.name
    cluster.shard("shard0").rs.kill(primary_before)
    cluster.await_primaries()
    materials.insert_one({"material_id": "mp-99999", "nelements": 2})
    print(f"[cluster] killed primary {primary_before}; re-elected "
          f"{cluster.shard('shard0').rs.primary.name} "
          f"(term {cluster.shard('shard0').rs.term}), writes resumed")
    types = [e["type"] for e in cluster_rec.recent_events()]
    print(f"[cluster] flight ring recorded {types.count('migration')} "
          f"migrations, {types.count('election')} elections")
    cluster.stop()
    cluster_rec.stop()


if __name__ == "__main__":
    main()
