"""Tests for the sharding router and the oplog-driven replica set (§IV-D2)."""

import pytest

from repro.docstore import Collection, ReplicaSet, ShardedCollection, hash_shard_key
from repro.errors import ReplicationError, ShardingError
from repro.hpc.simclock import SimClock


def make_sharded(n=3, strategy="hashed", **kw):
    shards = [Collection(f"s{i}") for i in range(n)]
    return ShardedCollection("materials", "mps_id", shards, strategy=strategy, **kw)


class TestHashedSharding:
    def test_all_docs_reachable(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i} for i in range(60)])
        assert len(sc) == 60
        assert len(sc.find({})) == 60

    def test_distribution_roughly_balanced(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}"} for i in range(300)])
        assert sc.balance_factor() < 1.5

    def test_equality_query_routes_to_single_shard(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i} for i in range(30)])
        docs = sc.find({"mps_id": "mps-7"})
        assert len(docs) == 1 and docs[0]["v"] == 7
        assert len(sc.last_targets) == 1

    def test_in_query_routes_to_owning_shards(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}"} for i in range(30)])
        sc.find({"mps_id": {"$in": ["mps-1", "mps-2"]}})
        assert 1 <= len(sc.last_targets) <= 2

    def test_non_key_query_scatter_gathers(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i % 2} for i in range(30)])
        docs = sc.find({"v": 1})
        assert len(docs) == 15
        assert len(sc.last_targets) == 3

    def test_missing_shard_key_rejected(self):
        sc = make_sharded()
        with pytest.raises(ShardingError):
            sc.insert_one({"no_key": True})

    def test_hash_stability(self):
        assert hash_shard_key("mps-1") == hash_shard_key("mps-1")
        assert hash_shard_key("mps-1") != hash_shard_key("mps-2")

    def test_update_and_delete_route(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"m{i}", "state": "old"} for i in range(20)])
        sc.update_many({"mps_id": "m3"}, {"$set": {"state": "new"}})
        assert sc.find_one({"mps_id": "m3"})["state"] == "new"
        sc.delete_many({"mps_id": "m3"})
        assert sc.find_one({"mps_id": "m3"}) is None

    def test_aggregate_across_shards(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"m{i}", "v": 1} for i in range(10)])
        rows = sc.aggregate([{"$group": {"_id": None, "total": {"$sum": "$v"}}}])
        assert rows[0]["total"] == 10


class TestRangeSharding:
    def test_range_placement(self):
        sc = make_sharded(3, strategy="range", boundaries=["g", "p"])
        sc.insert_many([{"mps_id": k} for k in ["apple", "grape", "zebra"]])
        dist = sc.shard_distribution()
        assert dist == {"shard0": 1, "shard1": 1, "shard2": 1}

    def test_range_query_prunes_shards(self):
        sc = make_sharded(3, strategy="range", boundaries=["g", "p"])
        sc.insert_many([{"mps_id": k} for k in ["a", "b", "h", "i", "q", "r"]])
        docs = sc.find({"mps_id": {"$gte": "a", "$lt": "c"}})
        assert {d["mps_id"] for d in docs} == {"a", "b"}
        assert sc.last_targets == [0]

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ShardingError):
            make_sharded(3, strategy="range", boundaries=["only-one-but-need-two..."[:1]])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ShardingError):
            make_sharded(2, strategy="mystery")


class TestReplicaSet:
    def test_writes_replicate_to_secondaries(self):
        rs = ReplicaSet("rs0", n_secondaries=2)
        rs.primary["materials"].insert_one({"formula": "Fe2O3"})
        rs.replicate()
        for node in rs.secondaries:
            assert node.database["materials"].count_documents() == 1

    def test_secondary_reads_stale_until_replicated(self):
        rs = ReplicaSet("rs0", n_secondaries=1)
        rs.primary["m"].insert_one({"x": 1})
        secondary_db = rs.read_database("secondary")
        assert secondary_db["m"].count_documents() == 0
        rs.replicate()
        assert secondary_db["m"].count_documents() == 1

    def test_updates_and_deletes_replicate(self):
        rs = ReplicaSet("rs0", n_secondaries=1)
        coll = rs.primary["m"]
        coll.insert_many([{"_id": i, "v": 0} for i in range(3)])
        coll.update_one({"_id": 1}, {"$set": {"v": 9}})
        coll.delete_one({"_id": 2})
        rs.replicate()
        sec = rs.secondaries[0].database["m"]
        assert sec.find_one({"_id": 1})["v"] == 9
        assert sec.find_one({"_id": 2}) is None

    def test_lag_reporting(self):
        rs = ReplicaSet("rs0", n_secondaries=1)
        rs.primary["m"].insert_many([{} for _ in range(5)])
        assert rs.secondaries[0].lag(rs.oplog) == 5
        rs.replicate()
        assert rs.secondaries[0].lag(rs.oplog) == 0

    def test_step_down_promotes_up_to_date_secondary(self):
        rs = ReplicaSet("rs0", n_secondaries=2)
        rs.primary["m"].insert_many([{"_id": i} for i in range(4)])
        rs.replicate()
        old_primary = rs.primary_node
        new_primary = rs.step_down()
        assert new_primary is not old_primary
        assert rs.primary_node is new_primary
        # New primary has all the data and accepts writes.
        assert rs.primary["m"].count_documents() == 4
        rs.primary["m"].insert_one({"_id": 99})
        assert rs.primary["m"].count_documents() == 5

    def test_step_down_without_secondaries_fails(self):
        rs = ReplicaSet("rs0", n_secondaries=0)
        with pytest.raises(ReplicationError):
            rs.step_down()

    def test_status(self):
        rs = ReplicaSet("rs0", n_secondaries=2)
        rs.primary["m"].insert_one({})
        status = rs.status()
        states = [m["state"] for m in status["members"]]
        assert states.count("PRIMARY") == 1
        assert states.count("SECONDARY") == 2

    def test_replication_is_idempotent(self):
        rs = ReplicaSet("rs0", n_secondaries=1)
        rs.primary["m"].insert_one({"_id": "a"})
        rs.replicate()
        rs.replicate()
        assert rs.secondaries[0].database["m"].count_documents() == 1

    def test_read_preferences(self):
        rs = ReplicaSet("rs0", n_secondaries=2)
        assert rs.read_database("primary") is rs.primary
        assert rs.read_database("secondary") is not rs.primary
        with pytest.raises(ReplicationError):
            rs.read_database("bogus")

    def test_background_replication(self):
        clock = SimClock()
        rs = ReplicaSet("rs0", n_secondaries=1, clock=clock)
        rs.start_background_replication(interval_s=0.005)
        rs.primary["m"].insert_many([{} for _ in range(10)])
        assert rs.secondaries[0].database["m"].count_documents() == 0
        clock.run_until(0.005)
        assert rs.secondaries[0].database["m"].count_documents() == 10
        rs.stop_background_replication()
        rs.primary["m"].insert_one({})
        clock.run_until(1.0)  # stopped: the secondary stays behind
        assert rs.secondaries[0].database["m"].count_documents() == 10


class TestSortLimitPushdown:
    def test_sorted_limited_find_merges_lazily(self):
        sc = make_sharded(n=4)
        for i in range(120):
            sc.insert_one({"mps_id": f"m{i}", "n": i})
        top = sc.find({}, sort=[("n", -1)], limit=5)
        assert [d["n"] for d in top] == [119, 118, 117, 116, 115]
        bottom = sc.find({}, sort=[("n", 1)], limit=3)
        assert [d["n"] for d in bottom] == [0, 1, 2]

    def test_global_sort_without_limit(self):
        sc = make_sharded(n=3)
        for i in range(50):
            sc.insert_one({"mps_id": f"m{i}", "n": 49 - i})
        out = sc.find({}, sort=[("n", 1)])
        assert [d["n"] for d in out] == list(range(50))

    def test_limit_without_sort_stops_early(self):
        sc = make_sharded(n=3)
        for i in range(60):
            sc.insert_one({"mps_id": f"m{i}"})
        assert len(sc.find({}, limit=7)) == 7

    def test_multi_key_sort_with_descending_component(self):
        sc = make_sharded(n=3)
        for i in range(30):
            sc.insert_one({"mps_id": f"m{i}", "g": i % 3, "n": i})
        out = sc.find({}, sort=[("g", 1), ("n", -1)])
        keys = [(d["g"], -d["n"]) for d in out]
        assert keys == sorted(keys)

    def test_unsorted_find_unchanged(self):
        sc = make_sharded(n=3)
        for i in range(20):
            sc.insert_one({"mps_id": f"m{i}"})
        assert len(sc.find({})) == 20


class TestImmutableShardKey:
    def test_set_on_shard_key_rejected(self):
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1", "state": "old"})
        for bad in ({"$set": {"mps_id": "m2"}},
                    {"$inc": {"mps_id": 1}},
                    {"$set": {"mps_id.sub": 1}},
                    {"$unset": {"mps_id": ""}}):
            with pytest.raises(ShardingError):
                sc.update_many({"state": "old"}, bad)

    def test_replacement_update_rejected(self):
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1"})
        with pytest.raises(ShardingError):
            sc.update_many({"mps_id": "m1"}, {"mps_id": "m2", "x": 1})

    def test_prefix_path_rejected_for_nested_key(self):
        shards = [Collection(f"s{i}") for i in range(2)]
        sc = ShardedCollection("m", "meta.id", shards)
        sc.insert_one({"meta": {"id": "a"}})
        with pytest.raises(ShardingError):
            sc.update_many({}, {"$set": {"meta": {"id": "b"}}})

    def test_non_key_updates_still_apply(self):
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1", "state": "old"})
        r = sc.update_many({"mps_id": "m1"}, {"$set": {"state": "new"}})
        assert r.modified_count == 1
        assert sc.find_one({"mps_id": "m1"})["state"] == "new"


class TestElectionTerms:
    def test_step_down_bumps_term_and_records_ballot(self):
        rs = ReplicaSet("rs0", n_secondaries=2)
        rs.primary["m"].insert_many([{} for _ in range(5)])
        rs.replicate()
        winner = rs.step_down()
        assert rs.term == 1
        assert len(rs.elections) == 1
        ballot = rs.elections[0]
        assert ballot["candidate"] == winner.name
        assert ballot["granted"] == 3  # unanimous: winner is up to date
        assert rs.status()["term"] == 1

    def test_successive_elections_accumulate_terms(self):
        rs = ReplicaSet("rs0", n_secondaries=2)
        rs.step_down()
        rs.step_down()
        assert rs.term == 2
        assert [b["term"] for b in rs.elections] == [1, 2]
