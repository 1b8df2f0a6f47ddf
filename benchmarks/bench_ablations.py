"""Ablations of the design choices DESIGN.md calls out.

1. secondary indexes on vs. off — the read-heavy web workload's backbone;
2. Binder duplicate detection on vs. off — re-submission cost;
3. sharding 1 → 4 shards of a ``ShardedCluster`` — the paper's named
   scale-out path (query routing should touch ~1/N of the data for
   shard-key lookups).
"""

import time

import pytest

from _pipeline import ROBUST_INCAR, emit
from repro.datagen import SyntheticICSD
from repro.docstore import Collection, DocumentStore, ShardedCluster
from repro.fireworks import LaunchPad, Rocket, Workflow, vasp_firework


def _index_ablation(n_docs=3000, n_queries=150):
    docs = [
        {"formula": f"F{i % 500}", "band_gap": (i % 80) / 10.0, "i": i}
        for i in range(n_docs)
    ]
    plain = Collection("plain")
    plain.insert_many(docs)
    indexed = Collection("indexed")
    indexed.create_index("formula")
    indexed.create_index("band_gap")
    indexed.insert_many(docs)

    def run(coll):
        t0 = time.perf_counter()
        for i in range(n_queries):
            coll.find({"formula": f"F{i % 500}"}).to_list()
            coll.find({"band_gap": {"$gte": 6.0, "$lt": 6.5}}).to_list()
        return time.perf_counter() - t0

    return run(plain), run(indexed)


def _dedup_ablation(n=25):
    structures = SyntheticICSD(seed=99).structures(n)

    def run(with_binder: bool):
        db = DocumentStore()["abl"]
        launchpad = LaunchPad(db)
        for _round in range(3):  # the same batch submitted three times
            fws = []
            for s in structures:
                fw = vasp_firework(s, incar=dict(ROBUST_INCAR),
                                   walltime_s=1e9, memory_mb=1e6)
                if not with_binder:
                    fw.binder = None
                fws.append(fw)
            launchpad.add_workflow(Workflow(fws))
        rocket = Rocket(launchpad)
        launches = rocket.rapidfire()
        return launches

    return run(False), run(True)


def _sharding_ablation(n_docs=4000):
    docs = [{"mps_id": f"mps-{i}", "v": i} for i in range(n_docs)]
    results = {}
    for n_shards in (1, 2, 4):
        cluster = ShardedCluster(n_replicas=1)
        for i in range(n_shards):
            cluster.add_shard(f"s{i}")
        coll = cluster.shard_collection("mp.materials", "mps_id")
        coll.insert_many(docs)
        t0 = time.perf_counter()
        for i in range(400):
            query = {"mps_id": f"mps-{(i * 37) % n_docs}"}
            coll.find(query)
        elapsed = time.perf_counter() - t0
        results[n_shards] = {
            "elapsed_s": elapsed,
            "balance": cluster.balance_factor(coll.ns),
            "targets_per_query": len(coll.explain(query)["shards"]),
        }
    return results


def _backfill_ablation():
    """Mean queue wait with and without backfill on a blocked-head mix."""
    from repro.hpc import BatchJob, BatchQueue, Cluster

    results = {}
    for backfill in (True, False):
        q = BatchQueue(Cluster.build(n_compute=2, cores_per_node=24),
                       max_queued_per_user=100, backfill=backfill)
        q.submit(BatchJob("u", cores=36, walltime_request_s=400, work=300))
        q.submit(BatchJob("u", cores=48, walltime_request_s=400, work=50))
        for _ in range(6):
            q.submit(BatchJob("u", cores=12, walltime_request_s=300, work=150))
        q.run_until_idle()
        results[backfill] = q.stats()["mean_queue_wait_s"]
    return results


def test_ablations(benchmark):
    scan_s, index_s = _index_ablation()
    dup_launches, dedup_launches = _dedup_ablation()
    backfill = _backfill_ablation()
    sharding = benchmark.pedantic(
        _sharding_ablation, rounds=1, iterations=1
    )

    lines = [
        "1) secondary indexes (150 point + 150 range queries over 3k docs):",
        f"   collection scan : {scan_s * 1e3:8.1f} ms",
        f"   indexed         : {index_s * 1e3:8.1f} ms "
        f"({scan_s / index_s:.1f}x faster)",
        "",
        "2) Binder duplicate detection (same 25-job batch submitted 3x):",
        f"   without binders : {dup_launches} launches (3x redundant work)",
        f"   with binders    : {dedup_launches} launches "
        "(idempotent resubmission)",
        "",
        "3) sharding a 4k-doc collection (400 shard-key lookups):",
    ]
    backfill_lines = [
        "",
        "4) batch-queue backfill (blocked wide head + narrow jobs):",
        f"   strict FIFO mean wait : {backfill[False]:8.1f} s",
        f"   with backfill         : {backfill[True]:8.1f} s "
        f"({backfill[False] / max(1e-9, backfill[True]):.1f}x shorter waits)",
    ]
    for n_shards, row in sharding.items():
        lines.append(
            f"   {n_shards} shard(s): {row['elapsed_s'] * 1e3:7.1f} ms, "
            f"balance {row['balance']:.2f}, "
            f"shards touched/lookup {row['targets_per_query']}"
        )
    emit("ablations", "\n".join(lines + backfill_lines))

    assert index_s < scan_s / 2
    assert dup_launches == 75 and dedup_launches == 25
    assert sharding[4]["targets_per_query"] == 1  # routed, not scattered
    assert sharding[4]["balance"] < 1.5
    assert backfill[True] < backfill[False]
