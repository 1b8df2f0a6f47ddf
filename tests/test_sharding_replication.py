"""Sharding and replication (§IV-D2) through ``docstore.cluster``: hashed and
ranged routing, sort/limit pushdown, the immutable shard key, and a shard's
replica set (synchronous majority writes, catch-up, elections)."""

import pytest

from repro.docstore import ShardedCluster, ShardReplicaSet
from repro.docstore.cluster.config import hash_shard_key
from repro.errors import ClusterError, ElectionFailed, ShardingError


def make_sharded(n=3, strategy="hashed", key="mps_id"):
    cluster = ShardedCluster(n_replicas=1)
    for i in range(n):
        cluster.add_shard(f"s{i}")
    return cluster.shard_collection("mp.materials", key, strategy)


def shards_consulted(coll, query):
    return sorted(coll.explain(query)["shards"])


def split_and_spread(coll, n_splits):
    """Split the last chunk at its data median ``n_splits`` times, then
    place chunk ``i`` (in key order) on shard ``s<i>``."""
    cluster = coll.cluster
    for _ in range(n_splits):
        cluster.split_chunk(coll.ns, cluster.config.chunks(coll.ns)[-1].chunk_id)
    for i, chunk in enumerate(cluster.config.chunks(coll.ns)):
        cluster.move_chunk(coll.ns, chunk.chunk_id, f"s{i}")


class TestHashedSharding:
    def test_all_docs_reachable(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i} for i in range(60)])
        assert sc.count_documents({}) == 60
        assert len(sc.find({})) == 60

    def test_distribution_roughly_balanced(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}"} for i in range(300)])
        assert sc.cluster.balance_factor(sc.ns) < 1.5

    def test_equality_query_routes_to_single_shard(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i} for i in range(30)])
        docs = sc.find({"mps_id": "mps-7"})
        assert len(docs) == 1 and docs[0]["v"] == 7
        assert len(shards_consulted(sc, {"mps_id": "mps-7"})) == 1

    def test_in_query_routes_to_owning_shards(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}"} for i in range(30)])
        query = {"mps_id": {"$in": ["mps-1", "mps-2"]}}
        assert len(sc.find(query)) == 2
        assert 1 <= len(shards_consulted(sc, query)) <= 2

    def test_non_key_query_scatter_gathers(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i % 2} for i in range(30)])
        assert len(sc.find({"v": 1})) == 15
        assert shards_consulted(sc, {"v": 1}) == ["s0", "s1", "s2"]

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
        assert sc.update_many({"mps_id": "m3"}, {"$set": {"state": "new"}}) == 1
        assert sc.find_one({"mps_id": "m3"})["state"] == "new"
        assert sc.delete_many({"mps_id": "m3"}) == 1
        assert sc.find_one({"mps_id": "m3"}) is None


class TestRangeSharding:
    def test_range_placement(self):
        sc = make_sharded(3, strategy="range")
        sc.insert_many([{"mps_id": k} for k in ["apple", "grape", "zebra"]])
        split_and_spread(sc, 2)  # chunks split at "grape" and "zebra"
        assert sc.cluster.shard_distribution(sc.ns) == {
            "s0": 1, "s1": 1, "s2": 1}
        assert shards_consulted(sc, {"mps_id": "grape"}) == ["s1"]

    def test_range_query_prunes_shards(self):
        sc = make_sharded(3, strategy="range")
        sc.insert_many([{"mps_id": k} for k in ["a", "b", "h", "i", "q", "r"]])
        split_and_spread(sc, 2)  # [min, i) [i, q) [q, max)
        query = {"mps_id": {"$gte": "a", "$lt": "c"}}
        assert {d["mps_id"] for d in sc.find(query)} == {"a", "b"}
        assert shards_consulted(sc, query) == ["s0"]

    def test_bad_boundaries_rejected(self):
        sc = make_sharded(2, strategy="range")
        sc.insert_many([{"mps_id": "same"} for _ in range(3)])
        chunk = sc.cluster.config.chunks(sc.ns)[0]
        with pytest.raises(ClusterError):  # one key value: nowhere to split
            sc.cluster.split_chunk(sc.ns, chunk.chunk_id)
        with pytest.raises(ClusterError):  # a bound must lie inside the chunk
            sc.cluster.config.split_chunk(sc.ns, chunk.chunk_id, chunk.min, 0, 3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ShardingError):
            make_sharded(2, strategy="mystery")


def make_replica_set(n_members=3):
    return ShardReplicaSet("rs0", n_members=n_members)


def insert(rs, *docs):
    """Insert through the set; ``_id``s are explicit so every member stores
    the same document."""
    for doc in docs:
        rs.write("mp", "m", lambda c, d=doc: c.insert_one(d))


def member_count(rs, name):
    return rs.node(name).store["mp"]["m"].count_documents()


def a_secondary(rs):
    return next(m.name for m in rs.members if m is not rs.primary)


class TestReplicaSet:
    def test_writes_replicate_to_secondaries(self):
        rs = make_replica_set()
        insert(rs, {"_id": 1, "formula": "Fe2O3"})
        assert [member_count(rs, m.name) for m in rs.members] == [1, 1, 1]

    def test_secondary_reads_stale_until_replicated(self):
        rs = make_replica_set()
        secondary = a_secondary(rs)
        rs.kill(secondary)
        insert(rs, {"_id": 1})
        assert member_count(rs, secondary) == 0  # missed the write
        rs.revive(secondary)
        assert member_count(rs, secondary) == 1

    def test_updates_and_deletes_replicate(self):
        rs = make_replica_set(2)
        insert(rs, *[{"_id": i, "v": 0} for i in range(3)])
        rs.write("mp", "m", lambda c: c.update_one({"_id": 1}, {"$set": {"v": 9}}))
        rs.write("mp", "m", lambda c: c.delete_one({"_id": 2}))
        sec = rs.node(a_secondary(rs)).store["mp"]["m"]
        assert sec.find_one({"_id": 1})["v"] == 9
        assert sec.find_one({"_id": 2}) is None

    def test_lag_reporting(self):
        rs = make_replica_set()
        secondary = a_secondary(rs)
        rs.kill(secondary)
        insert(rs, *[{"_id": i} for i in range(5)])
        lags = {m["name"]: m["lag"] for m in rs.status()["members"]}
        assert lags[secondary] == 5
        assert sum(lags.values()) == 5  # live members are never behind
        rs.revive(secondary)
        assert all(m["lag"] == 0 for m in rs.status()["members"])

    def test_step_down_promotes_up_to_date_secondary(self):
        rs = make_replica_set()
        insert(rs, *[{"_id": i} for i in range(4)])
        old_primary = rs.primary
        new_primary = rs.step_down()
        assert new_primary != old_primary.name
        assert rs.primary.name == new_primary
        # New primary has all the data and accepts writes.
        assert rs.read("mp", "m", lambda c: c.count_documents()) == 4
        insert(rs, {"_id": 99})
        assert rs.read("mp", "m", lambda c: c.count_documents()) == 5

    def test_step_down_without_secondaries_fails(self):
        rs = make_replica_set(1)
        with pytest.raises(ElectionFailed):
            rs.step_down()

    def test_status(self):
        rs = make_replica_set()
        insert(rs, {"_id": 1})
        roles = [m["role"] for m in rs.status()["members"]]
        assert roles.count("PRIMARY") == 1
        assert roles.count("SECONDARY") == 2

    def test_replication_is_idempotent(self):
        rs = make_replica_set()
        secondary = a_secondary(rs)
        insert(rs, {"_id": "a"})
        rs.kill(secondary)
        insert(rs, {"_id": "b"})
        assert rs.revive(secondary) == "delta"
        assert rs.revive(secondary) == "delta"  # already live: a no-op
        assert member_count(rs, secondary) == 2


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
        """Accepted, the replacement would leave the document under key
        ``m2`` in the chunk that owns ``m1``, invisible to routed reads."""
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1"})
        with pytest.raises(ShardingError):
            sc.update_many({"mps_id": "m1"}, {"mps_id": "m2", "x": 1})
        assert sc.find({"mps_id": "m2"}) == []
        assert [d["mps_id"] for d in sc.find({"mps_id": "m1"})] == ["m1"]

    def test_prefix_path_rejected_for_nested_key(self):
        sc = make_sharded(2, key="meta.id")
        sc.insert_one({"meta": {"id": "a"}})
        with pytest.raises(ShardingError):
            sc.update_many({}, {"$set": {"meta": {"id": "b"}}})

    def test_non_key_updates_still_apply(self):
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1", "state": "old"})
        assert sc.update_many({"mps_id": "m1"}, {"$set": {"state": "new"}}) == 1
        assert sc.find_one({"mps_id": "m1"})["state"] == "new"


class TestElectionTerms:
    def test_step_down_bumps_term_and_records_ballot(self):
        rs = make_replica_set()
        insert(rs, *[{"_id": i} for i in range(5)])
        winner = rs.step_down()
        assert rs.term == 1
        assert rs.elections == 1
        # Unanimous: the winner is as up to date as every voter.
        assert rs.voted_in[1] == {m.name: winner for m in rs.members}
        assert rs.status()["term"] == 1

    def test_successive_elections_accumulate_terms(self):
        rs = make_replica_set()
        rs.step_down()
        rs.step_down()
        assert rs.term == 2
        assert sorted(rs.voted_in) == [1, 2]
