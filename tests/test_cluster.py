"""Sharded-cluster subsystem tests: chunks, balancer, elections, routing.

The chaos-lane failover test reuses the writer-fleet pattern from
``test_concurrency_stress.py``: hammer the cluster with concurrent writers,
kill a primary mid-flight, and assert re-election, client re-routing, and
zero acknowledged-write loss.  Knobs:

* ``CHAOS_DURATION_S`` — seconds the failover fleet runs (default 1.5)
* ``CHAOS_WRITERS``    — writer thread count (default 4)
"""

import os
import threading
import time

import pytest

from repro.docstore import (
    Balancer,
    DatastoreServer,
    DocumentStore,
    RemoteClient,
    ShardedCluster,
)
from repro.docstore.cluster import MAX_KEY, MIN_KEY, HeartbeatMonitor
from repro.docstore.cluster.config import bound_sort_key
from repro.errors import (
    ClusterError,
    ElectionFailed,
    ShardingError,
    StaleEpoch,
)
from repro.hpc.simclock import SimClock
from repro.obs import get_registry

DURATION_S = float(os.environ.get("CHAOS_DURATION_S", "1.5"))
N_WRITERS = int(os.environ.get("CHAOS_WRITERS", "4"))


def make_cluster(n_shards=2, n_replicas=3, split_threshold=1000, **kw):
    cluster = ShardedCluster(n_replicas=n_replicas,
                             split_threshold=split_threshold, **kw)
    for i in range(n_shards):
        cluster.add_shard(f"s{i}")
    return cluster


class TestChunksAndConfig:
    def test_hashed_collection_pre_splits_across_shards(self):
        cluster = make_cluster(n_shards=4)
        cluster.shard_collection("mp.materials", "material_id")
        chunks = cluster.config.chunks("mp.materials")
        assert len(chunks) == 8  # 2 pre-split chunks per shard
        assert {c.shard for c in chunks} == {"s0", "s1", "s2", "s3"}
        # Chunks tile the hash space: contiguous, no gaps.
        for left, right in zip(chunks, chunks[1:]):
            assert left.max == right.min
        assert chunks[0].min == MIN_KEY or chunks[0].min == 0
        assert chunks[-1].max == MAX_KEY or isinstance(chunks[-1].max, int)

    def test_ranged_collection_starts_with_one_chunk(self):
        cluster = make_cluster()
        cluster.shard_collection("mp.tasks", "task_id", strategy="range")
        chunks = cluster.config.chunks("mp.tasks")
        assert len(chunks) == 1
        assert chunks[0].min == MIN_KEY and chunks[0].max == MAX_KEY

    def test_bound_sort_key_totally_orders_sentinels(self):
        assert bound_sort_key(MIN_KEY) < bound_sort_key("anything")
        assert bound_sort_key("anything") < bound_sort_key(MAX_KEY)
        assert not bound_sort_key(MAX_KEY) < bound_sort_key(MAX_KEY)

    def test_auto_split_past_threshold(self):
        cluster = make_cluster(n_shards=1, split_threshold=40)
        coll = cluster.shard_collection("mp.m", "mid", strategy="range")
        for i in range(200):
            coll.insert_one({"mid": f"mp-{i:04d}", "n": i})
        chunks = cluster.config.chunks("mp.m")
        assert len(chunks) > 1
        assert cluster.splits > 0
        # The split bumped the collection epoch.
        assert cluster.config.epoch("mp.m") > 1
        assert coll.count_documents({}) == 200

    def test_epoch_bumps_on_move(self):
        cluster = make_cluster()
        coll = cluster.shard_collection("mp.m", "mid")
        for i in range(20):
            coll.insert_one({"mid": f"mp-{i}"})
        before = cluster.config.epoch("mp.m")
        victim = next(c for c in cluster.config.chunks("mp.m")
                      if c.shard == "s0")
        moved = cluster.move_chunk("mp.m", victim.chunk_id, "s1")
        assert cluster.config.epoch("mp.m") == before + 1
        assert cluster.config.get_chunk("mp.m", victim.chunk_id).shard == "s1"
        assert coll.count_documents({}) == 20
        assert cluster.migrations == 1 and cluster.migrated_docs == moved

    def test_config_survives_restart_through_journal(self, tmp_path):
        store = DocumentStore(persistence_dir=str(tmp_path / "config"))
        cluster = make_cluster(n_shards=3, config_store=store)
        coll = cluster.shard_collection("mp.m", "mid")
        for i in range(30):
            coll.insert_one({"mid": f"mp-{i}"})
        epoch = cluster.config.epoch("mp.m")
        chunk_map = {c.chunk_id: c.shard for c in cluster.config.chunks("mp.m")}
        store.close()

        reopened = DocumentStore(persistence_dir=str(tmp_path / "config"))
        recovered = ShardedCluster(config_store=reopened)
        assert sorted(recovered.config.shard_ids()) == ["s0", "s1", "s2"]
        assert recovered.config.epoch("mp.m") == epoch
        assert {c.chunk_id: c.shard
                for c in recovered.config.chunks("mp.m")} == chunk_map
        # Rebuilt shard handles own exactly the recovered chunks.
        for chunk_id, shard_id in chunk_map.items():
            assert recovered.shard(shard_id).owns("mp.m", chunk_id)
        reopened.close()


class TestRoutingAndExplain:
    @pytest.fixture
    def cluster(self):
        c = make_cluster(n_shards=4)
        coll = c.shard_collection("mp.materials", "material_id")
        for i in range(200):
            coll.insert_one({"material_id": f"mp-{i}", "nelements": i % 5})
        yield c
        c.stop()

    def test_eq_on_shard_key_is_single_shard(self, cluster):
        coll = cluster.collection("mp.materials")
        plan = coll.explain({"material_id": "mp-42"})
        assert plan["mode"] == "SINGLE_SHARD"
        assert len(plan["shards"]) == 1
        assert coll.find_one({"material_id": "mp-42"})["nelements"] == 2

    def test_unconstrained_query_scatter_gathers(self, cluster):
        coll = cluster.collection("mp.materials")
        plan = coll.explain({"nelements": 3})
        assert plan["mode"] == "SCATTER_GATHER"
        assert len(plan["shards"]) == 4
        assert len(coll.find({"nelements": 3})) == 40

    def test_in_on_shard_key_targets_owner_union(self, cluster):
        coll = cluster.collection("mp.materials")
        plan = coll.explain(
            {"material_id": {"$in": ["mp-1", "mp-2", "mp-3"]}})
        assert plan["mode"] in ("SINGLE_SHARD", "SCATTER_GATHER")
        assert 1 <= len(plan["shards"]) <= 3
        assert len(coll.find(
            {"material_id": {"$in": ["mp-1", "mp-2", "mp-3"]}})) == 3

    def test_range_on_ranged_key_prunes_chunks(self):
        cluster = make_cluster(n_shards=1, split_threshold=30)
        coll = cluster.shard_collection("mp.t", "tid", strategy="range")
        for i in range(150):
            coll.insert_one({"tid": f"t-{i:04d}"})
        # Spread the split chunks over a second shard.
        cluster.add_shard("s1")
        balancer = Balancer(cluster)
        while balancer.balance_once():
            pass
        plan = coll.explain({"tid": {"$gte": "t-0000", "$lte": "t-0009"}})
        total = len(cluster.config.chunks("mp.t"))
        consulted = sum(s["chunks"] for s in plan["shards"].values())
        assert consulted < total
        assert len(coll.find(
            {"tid": {"$gte": "t-0000", "$lte": "t-0009"}})) == 10

    def test_sorted_find_streams_k_way_merge(self, cluster):
        coll = cluster.collection("mp.materials")
        plan = coll.explain({}, sort=[("material_id", 1)])
        assert plan["mergeSort"] == "STREAMING_K_WAY"
        top = coll.find({}, sort=[("nelements", -1), ("material_id", 1)],
                        limit=7)
        assert len(top) == 7
        assert [d["nelements"] for d in top] == [4] * 7
        ordered = coll.find({}, sort=[("material_id", 1)])
        ids = [d["material_id"] for d in ordered]
        assert ids == sorted(ids) and len(ids) == 200

    def test_shard_key_update_rejected(self, cluster):
        coll = cluster.collection("mp.materials")
        with pytest.raises(ShardingError):
            coll.update_many({"nelements": 1},
                             {"$set": {"material_id": "mp-clone"}})
        # Non-key updates still route and apply.
        modified = coll.update_many({"material_id": "mp-7"},
                                    {"$set": {"tag": "x"}})
        assert modified == 1


class TestStaleEpochRetry:
    def test_stale_router_refreshes_and_retries(self):
        from repro.docstore.cluster.router import ClusterCollection

        cluster = make_cluster()
        coll = cluster.shard_collection("mp.m", "mid")
        docs = [{"mid": f"mp-{i}"} for i in range(40)]
        coll.insert_many(docs)

        # A second router handle with its own (soon stale) chunk cache:
        # move_chunk only invalidates the cluster's registered handles.
        stale = ClusterCollection(cluster, "mp.m")
        stale.find_one({"mid": "mp-0"})  # populate the cache
        moved_any = False
        for chunk in list(cluster.config.chunks("mp.m")):
            if chunk.shard == "s0":
                cluster.move_chunk("mp.m", chunk.chunk_id, "s1")
                moved_any = True
        assert moved_any
        before = cluster.stale_retries
        stale.insert_one({"mid": "mp-new"})
        assert stale.find_one({"mid": "mp-new"}) is not None
        assert cluster.stale_retries > before
        assert cluster.collection("mp.m").count_documents({}) == 41

    def test_direct_stale_write_raises(self):
        cluster = make_cluster()
        coll = cluster.shard_collection("mp.m", "mid")
        coll.insert_one({"mid": "mp-0"})
        chunk = next(c for c in cluster.config.chunks("mp.m")
                     if c.shard == "s0")
        cluster.move_chunk("mp.m", chunk.chunk_id, "s1")
        with pytest.raises(StaleEpoch):
            cluster.shard("s0").write(
                "mp.m", chunk.chunk_id, lambda c: c.insert_one({"mid": "x"}))


class TestBalancer:
    def test_converges_after_skewed_ingest(self):
        cluster = make_cluster(n_shards=1, split_threshold=25)
        coll = cluster.shard_collection("mp.skew", "mid", strategy="range")
        for i in range(300):
            coll.insert_one({"mid": f"mp-{i:05d}", "n": i})
        # Everything landed on s0; now grow the cluster.
        for s in ("s1", "s2", "s3"):
            cluster.add_shard(s)
        counts = cluster.config.chunk_counts("mp.skew")
        assert counts.get("s1", 0) == 0  # skewed before balancing

        balancer = Balancer(cluster, balance_threshold=1.1)
        moves = 0
        while True:
            moved = balancer.balance_once()
            if not moved:
                break
            moves += len(moved)
        assert moves > 0
        counts = cluster.config.chunk_counts("mp.skew")
        assert set(counts) == {"s0", "s1", "s2", "s3"}
        # Acceptance: chunk counts within 10% (spread <= 1 chunk here).
        assert max(counts.values()) - min(counts.values()) <= 1
        assert balancer.is_balanced("mp.skew")
        # No data harmed in the course of rebalancing.
        assert coll.count_documents({}) == 300
        assert coll.find_one({"mid": "mp-00000"}) is not None
        assert coll.find_one({"mid": "mp-00299"}) is not None

    def test_background_balancer_daemon(self):
        """Skewed ingest converges in three balancer rounds of simulated
        time: no thread, no sleeping."""
        clock = SimClock()
        cluster = make_cluster(n_shards=1, split_threshold=25, clock=clock)
        coll = cluster.shard_collection("mp.skew", "mid", strategy="range")
        for i in range(200):
            coll.insert_one({"mid": f"mp-{i:05d}"})
        cluster.add_shard("s1")
        before = threading.active_count()
        balancer = cluster.start_balancer(interval_s=0.25)
        assert balancer.running and threading.active_count() == before
        clock.run_until(0.5)
        assert balancer.is_balanced("mp.skew")  # round 1 moved, round 2 idle
        clock.run_until(0.75)
        assert balancer.stats()["rounds"] == 3
        assert cluster.balance_factor("mp.skew") <= 1.34
        cluster.stop()
        clock.run_until(5.0)
        assert balancer.stats()["rounds"] == 3  # stopped: no further rounds
        counts = cluster.config.chunk_counts("mp.skew")
        assert counts.get("s1", 0) > 0
        assert coll.count_documents({}) == 200


class TestElections:
    def test_kill_primary_elects_most_up_to_date(self):
        cluster = make_cluster(n_shards=1)
        coll = cluster.shard_collection("mp.m", "mid")
        for i in range(10):
            coll.insert_one({"mid": f"mp-{i}"})
        rs = cluster.shard("s0").rs
        old = rs.primary.name
        rs.kill(old)
        winner = rs.elect()
        assert winner != old
        assert rs.term == 1
        # Writes keep flowing on a 2/3 majority.
        coll.insert_one({"mid": "mp-after"})
        assert coll.find_one({"mid": "mp-after"}) is not None

    def test_no_majority_no_election(self):
        cluster = make_cluster(n_shards=1)
        cluster.shard_collection("mp.m", "mid")
        rs = cluster.shard("s0").rs
        rs.kill(rs.members[0].name)
        rs.kill(rs.members[1].name)
        with pytest.raises(ElectionFailed):
            rs.elect()

    def test_revive_catches_up_via_changestream_delta(self):
        cluster = make_cluster(n_shards=1)
        coll = cluster.shard_collection("mp.m", "mid")
        for i in range(5):
            coll.insert_one({"mid": f"mp-{i}"})
        rs = cluster.shard("s0").rs
        secondary = next(m.name for m in rs.members
                         if m is not rs.primary)
        rs.kill(secondary)
        for i in range(5, 15):
            coll.insert_one({"mid": f"mp-{i}"})
        assert rs.revive(secondary) == "delta"
        optimes = {m.applied_optime for m in rs.members}
        assert len(optimes) == 1  # fully caught up

    def test_revive_falls_back_to_full_resync(self):
        cluster = make_cluster(n_shards=1)
        coll = cluster.shard_collection("mp.m", "mid")
        coll.insert_one({"mid": "mp-0"})
        rs = cluster.shard("s0").rs
        secondary = next(m.name for m in rs.members
                         if m is not rs.primary)
        rs.kill(secondary)
        # A namespace born while the member was down cannot be covered by
        # the changestreams opened at kill time -> full resync.
        rs.write("mp", "born_later", lambda c: c.insert_one({"x": 1}))
        assert rs.revive(secondary) == "resync"
        node = rs.node(secondary)
        assert node.store["mp"]["born_later"].count_documents() == 1

    def test_step_down_hands_over_and_bumps_term(self):
        cluster = make_cluster(n_shards=1)
        cluster.shard_collection("mp.m", "mid")
        rs = cluster.shard("s0").rs
        old = rs.primary.name
        new = cluster.step_down("s0")
        assert new != old and rs.primary.name == new
        assert rs.term == 1


class _FlakyReplicaSet:
    """Stands in for a ShardReplicaSet whose health check can blow up."""

    def __init__(self):
        self.fail = False
        self.raised = threading.Event()
        self.checked = threading.Event()

    @property
    def primary(self):
        if self.fail:
            self.raised.set()
            raise RuntimeError("member unreachable")
        self.checked.set()
        return self


def _heartbeat_errors():
    return get_registry().counter(
        "repro_background_task_errors_total").value(task="cluster-heartbeat")


class TestHeartbeatMonitor:
    def test_restart_after_stop_beats_again(self):
        rs = _FlakyReplicaSet()
        monitor = HeartbeatMonitor([rs], interval_s=0.005).start()
        assert rs.checked.wait(5)
        monitor.stop()
        assert not monitor.running
        rs.checked.clear()
        monitor.start()
        assert rs.checked.wait(5), "restarted failure detector never beat"
        monitor.stop()

    def test_unexpected_error_is_counted_not_fatal(self):
        rs = _FlakyReplicaSet()
        rs.fail = True
        errors_before = _heartbeat_errors()
        monitor = HeartbeatMonitor([rs], interval_s=0.005).start()
        assert rs.raised.wait(5)
        rs.fail = False
        assert rs.checked.wait(5), "one RuntimeError killed the detector"
        assert monitor.running
        monitor.stop()
        assert _heartbeat_errors() >= errors_before + 1


class TestSimulatedClock:
    def test_one_election_at_the_first_beat_after_the_kill(self):
        clock = SimClock()
        events = []
        cluster = make_cluster(
            n_shards=2, clock=clock,
            event_sink=lambda e: events.append((clock.now, e["type"])))
        coll = cluster.shard_collection("mp.m", "mid")
        for i in range(20):
            coll.insert_one({"mid": f"mp-{i}"})
        before = threading.active_count()
        heartbeat = cluster.start_heartbeat(interval_s=0.5)
        cluster.start_balancer(interval_s=2.0)
        clock.run_until(1.25)  # beats at 0.5 and 1.0 find nothing to do
        assert heartbeat.beats == 2
        rs = cluster.shard("s0").rs
        victim = rs.primary.name
        rs.kill(victim)
        del events[:]
        clock.run_until(clock.now + 2 * heartbeat.interval_s)
        assert events == [(1.5, "election")]
        assert rs.primary is not None and rs.primary.name != victim
        assert rs.term == 1 and cluster.shard("s1").rs.term == 0
        assert heartbeat.beats == 4 and cluster.balancer.stats()["rounds"] == 1
        assert threading.active_count() == before
        coll.insert_one({"mid": "mp-after"})  # the shard takes writes again
        cluster.stop()


class TestChaosFailover:
    def test_primary_kill_mid_writer_fleet_loses_no_acked_writes(self):
        cluster = make_cluster(n_shards=2, split_threshold=100_000)
        coll = cluster.shard_collection("mp.stress", "k")
        cluster.start_heartbeat(interval_s=0.02)

        stop = threading.Event()
        errors: list = []
        acked = [set() for _ in range(N_WRITERS)]
        acked_after_kill = [set() for _ in range(N_WRITERS)]
        killed = threading.Event()

        def writer(w):
            i = 0
            try:
                while not stop.is_set():
                    key = f"w{w}-{i}"
                    coll.insert_one({"k": key, "w": w, "i": i})
                    # insert_one returned: this write is acknowledged.
                    acked[w].add(key)
                    if killed.is_set():
                        acked_after_kill[w].add(key)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure report
                errors.append(f"writer {w}: {exc!r}")

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(N_WRITERS)]
        for t in threads:
            t.start()
        time.sleep(DURATION_S * 0.3)

        rs = cluster.shard("s0").rs
        victim = rs.primary.name
        rs.kill(victim)
        killed.set()

        time.sleep(DURATION_S * 0.7)
        stop.set()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "writer wedged"
        cluster.stop()
        assert errors == [], errors

        # Re-election happened and the fleet kept writing through it.
        assert rs.primary is not None and rs.primary.name != victim
        assert rs.term >= 1
        progressed = set().union(*acked_after_kill)
        assert progressed, "no writes acknowledged after the kill"

        # Zero acknowledged-write loss, exactly-once.
        expected = set().union(*acked)
        assert coll.count_documents({}) == len(expected)
        actual = {d["k"] for d in coll.find({})}
        missing = expected - actual
        assert not missing, f"lost {len(missing)} acked writes"
        # The router recorded the NotPrimary re-routing it performed.
        stats = cluster.sharding_stats()
        assert stats["elections"] >= 1


class TestWireOpsAndObservability:
    @pytest.fixture
    def served(self):
        cluster = make_cluster(n_shards=2)
        coll = cluster.shard_collection("mp.materials", "material_id")
        for i in range(30):
            coll.insert_one({"material_id": f"mp-{i}"})
        store = DocumentStore()
        store.attach_cluster(cluster)
        srv = DatastoreServer(store).start()
        client = RemoteClient("127.0.0.1", srv.port)
        yield cluster, store, client
        client.close()
        srv.stop()
        cluster.stop()

    def test_shard_status_over_the_wire(self, served):
        cluster, _, client = served
        status = client.shard_status()
        assert sorted(status["shards"]) == ["s0", "s1"]
        ns = status["namespaces"]["mp.materials"]
        assert ns["shardKey"] == "material_id"

    def test_add_shard_and_move_chunk_over_the_wire(self, served):
        cluster, _, client = served
        assert "s9" in client.add_shard("s9")["shards"]
        chunk = next(c for c in cluster.config.chunks("mp.materials")
                     if c.shard != "s9")
        reply = client.move_chunk("mp.materials", chunk.chunk_id, "s9")
        assert reply["to"] == "s9"
        assert cluster.config.get_chunk(
            "mp.materials", chunk.chunk_id).shard == "s9"

    def test_step_down_over_the_wire(self, served):
        cluster, _, client = served
        old = cluster.shard("s0").rs.primary.name
        reply = client.step_down("s0")
        assert reply["primary"] != old

    def test_remote_cluster_errors_map_to_typed_exceptions(self, served):
        _, _, client = served
        with pytest.raises(ClusterError):
            client.move_chunk("mp.materials", "nope|0", "s1")

    def test_server_status_and_mongostat_surface_sharding(self, served):
        from repro.obs.health import ServerStatusSampler, format_stat_table

        cluster, store, _ = served
        sharding = store.server_status()["sharding"]
        assert sharding["shards"] == 2
        assert sum(sharding["chunksPerShard"].values()) == len(
            cluster.config.chunks("mp.materials"))
        sampler = ServerStatusSampler(store)
        table = format_stat_table([sampler.sample(), sampler.sample()])
        assert "shards" in table

    def test_cluster_events_land_in_the_flight_ring(self, tmp_path):
        from repro.obs.flight import FlightRecorder, decode_ring

        rec = FlightRecorder(None, str(tmp_path))
        cluster = ShardedCluster(
            n_replicas=3,
            event_sink=lambda e: rec.record_event(e["type"], e))
        cluster.add_shard("s0")
        cluster.add_shard("s1")
        coll = cluster.shard_collection("mp.m", "mid")
        for i in range(20):
            coll.insert_one({"mid": f"mp-{i}"})
        chunk = next(c for c in cluster.config.chunks("mp.m")
                     if c.shard == "s0")
        cluster.move_chunk("mp.m", chunk.chunk_id, "s1")
        cluster.step_down("s0")
        types = {e["type"] for e in rec.recent_events()}
        assert {"add_shard", "migration", "election"} <= types
        rec.stop()
        ring_types = {e["type"] for e in decode_ring(str(tmp_path))["events"]}
        assert {"add_shard", "migration", "election"} <= ring_types

    def test_cli_cluster_commands(self, served):
        from repro.cli import main

        cluster, _, client = served
        argv = ["--host", client.host, "--port", str(client.port)]
        assert main(["cluster", "status"] + argv) == 0
        assert main(["cluster", "status", "--json"] + argv) == 0
        assert main(["cluster", "add-shard", "--shard", "s7"] + argv) == 0
        assert "s7" in cluster.shards


class TestHPCDeployment:
    def test_cluster_survives_batch_queue_churn(self):
        from repro.hpc import deploy_cluster_scenario

        report = deploy_cluster_scenario(
            n_shards=2, n_replicas=3, n_compute=4,
            lease_s=480.0, walltime_request_s=600.0, max_restarts=1)
        assert report["members"] == 6
        assert report["outages"] > 0
        assert report["elections"] > 0
        assert report["failed_elections"] == 0
        assert report["all_shards_have_primary"]
        assert report["docs_surviving"] == 32
        assert report["restarts"] == 6

    def test_reservation_exempts_fleet_from_user_limits(self):
        from repro.docstore.cluster import ShardedCluster as SC
        from repro.hpc import BatchQueue, Cluster, SimClock
        from repro.hpc.deploy import ClusterDeployment

        clock = SimClock()
        queue = BatchQueue(Cluster.build(n_compute=4), clock=clock)
        cluster = SC(n_replicas=3)
        for i in range(3):
            cluster.add_shard(f"s{i}")
        deployment = ClusterDeployment(cluster, queue, max_restarts=0)
        jobs = deployment.submit_all()
        # 9 member jobs from one user: beyond the default per-user cap,
        # runnable only because of the advance reservation.
        assert len(jobs) == 9
        deployment.run_until_idle()
        report = deployment.report()
        assert report["members"] == 9
