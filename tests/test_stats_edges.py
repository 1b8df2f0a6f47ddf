"""Tests for analysis.stats plus an edge-case sweep over thin spots."""

import math

import pytest

from repro.analysis import database_census, describe, histogram
from repro.docstore import Collection, DocumentStore
from repro.errors import QuerySyntaxError


class TestDescribeHistogram:
    def test_describe_basic(self):
        d = describe([1.0, 2.0, 3.0, 4.0])
        assert d["n"] == 4
        assert d["mean"] == 2.5
        assert d["min"] == 1.0 and d["max"] == 4.0
        assert d["std"] == pytest.approx(math.sqrt(1.25))

    def test_describe_filters_none_and_nan(self):
        d = describe([1.0, None, float("nan"), 3.0])
        assert d["n"] == 2

    def test_describe_empty(self):
        assert describe([]) == {"n": 0}
        assert describe([None]) == {"n": 0}

    def test_histogram_covers_range(self):
        rows = histogram([0.0, 1.0, 2.0, 9.9], n_bins=10, lo=0, hi=10)
        assert len(rows) == 10
        assert sum(count for _lo, _hi, count in rows) == 4
        assert rows[0][2] == 1  # 0.0; 1.0 lands in the next bin
        assert rows[1][2] == 1

    def test_histogram_clamps_outliers(self):
        rows = histogram([-5.0, 15.0], n_bins=2, lo=0, hi=10)
        assert rows[0][2] == 1 and rows[-1][2] == 1

    def test_histogram_degenerate_range(self):
        rows = histogram([2.0, 2.0, 2.0])
        assert rows == [(2.0, 2.0, 3)]

    def test_histogram_empty(self):
        assert histogram([]) == []


class TestDatabaseCensus:
    def test_census_over_pipeline_db(self):
        from tests.test_builders import _insert_task
        from repro.builders import (
            BatteryBuilder, MaterialsBuilder, PhaseDiagramBuilder,
        )
        from repro.matgen import make_prototype

        db = DocumentStore()["mp"]
        for mid, s in {
            "mps-nacl": make_prototype("rocksalt", ["Na", "Cl"]),
            "mps-lifepo4": make_prototype("olivine", ["Li", "Fe"]),
            "mps-fepo4": make_prototype("olivine", ["Li", "Fe"]
                                        ).remove_species(["Li"]),
            "mps-fe": make_prototype("bcc", ["Fe"]),
        }.items():
            _insert_task(db, s, mid)
        MaterialsBuilder(db).run()
        PhaseDiagramBuilder(db).run()
        BatteryBuilder(db, "Li").run_intercalation()

        census = database_census(db)
        assert census["collections"]["materials"] == 4
        assert census["formation_energy"]["n"] == 4
        assert census["n_stable"] >= 1
        assert census["element_coverage"]["n_elements"] >= 5
        assert census["battery_voltage"]["n"] == 1
        assert 1 in census["nelements_distribution"]

    def test_census_empty_db(self):
        census = database_census(DocumentStore()["empty"])
        # The census touches `materials` (lazily created, empty); no
        # property sections appear for an empty deployment.
        assert census["collections"].get("materials", 0) == 0
        assert "formation_energy" not in census
        assert "battery_voltage" not in census


class TestThinSpots:
    """Edge cases in modules with lighter coverage elsewhere."""

    def test_cursor_first_respects_existing_limit(self):
        coll = Collection("c")
        coll.insert_many([{"n": i} for i in range(5)])
        cursor = coll.find().sort("n", -1).limit(3)
        assert cursor.first()["n"] == 4

    def test_cursor_batch_size_is_cosmetic(self):
        coll = Collection("c")
        coll.insert_many([{} for _ in range(5)])
        assert len(coll.find().batch_size(2).to_list()) == 5

    def test_aggregate_sample_without_seed(self):
        coll = Collection("c")
        coll.insert_many([{"i": i} for i in range(20)])
        rows = coll.aggregate([{"$sample": {"size": 5}}])
        assert len(rows) == 5

    def test_lookup_requires_database(self):
        coll = Collection("orphan")  # not attached to a Database
        coll.insert_one({"k": 1})
        with pytest.raises(QuerySyntaxError):
            coll.aggregate([{"$lookup": {"from": "x", "localField": "k",
                                          "foreignField": "k", "as": "xs"}}])

    def test_lookup_field_validation(self):
        db = DocumentStore()["mp"]
        db["a"].insert_one({})
        with pytest.raises(QuerySyntaxError):
            db["a"].aggregate([{"$lookup": {"from": "b"}}])

    def test_oplog_truncation_forces_resync(self, monkeypatch):
        """A revived member whose missed history overflowed the catch-up
        buffer is resynced in full, not replayed."""
        from repro.docstore import ShardReplicaSet
        from repro.docstore.cluster import replica

        monkeypatch.setattr(replica, "CATCHUP_BUFFER", 3)
        rs = ShardReplicaSet("rs")

        def insert(i):
            rs.write("db", "c", lambda c: c.insert_one({"_id": i}))

        insert(0)
        down = rs.members[-1].name
        rs.kill(down)
        for i in range(1, 7):
            insert(i)  # history before the buffer's window is gone
        assert rs.revive(down) == "resync"
        assert rs.node(down).store["db"]["c"].count_documents() == 7

    def test_wire_protocol_stats_and_databases(self):
        from repro.docstore import DatastoreServer, DocumentStore, RemoteClient

        with DatastoreServer(DocumentStore()) as server:
            with RemoteClient("127.0.0.1", server.port) as client:
                client["mp"]["c"].insert_one({"x": 1})
                stats = client["mp"]["c"].stats()
                assert stats["count"] == 1
                assert client.request({"op": "list_databases"}) == ["mp"]

    def test_taskfarm_walltime_safety_factor(self):
        """The farm requests makespan x safety, so it never walltime-kills
        itself on its own estimate."""
        from repro.hpc import BatchQueue, Cluster, FarmTask, TaskFarm

        tasks = [FarmTask(f"t{i}", 100 + i) for i in range(8)]
        farm = TaskFarm(tasks, n_slots=2, safety_factor=1.5)
        job = farm.as_batch_job()
        assert job.walltime_request_s == pytest.approx(farm.makespan_s * 1.5)
        q = BatchQueue(Cluster.build(n_compute=2), max_queued_per_user=5)
        q.submit(job)
        q.run_until_idle()
        assert job.state == "COMPLETED"

    def test_custom_kpath_band_structure(self):
        from repro.matgen import KPath, compute_band_structure, make_prototype

        path = KPath([("Γ", (0, 0, 0)), ("X", (0.5, 0, 0))],
                     points_per_segment=5)
        bs = compute_band_structure(
            make_prototype("rocksalt", ["Na", "Cl"]), kpath=path
        )
        assert bs.bands.shape[1] == 6
        assert bs.labels[0] == "Γ" and bs.labels[-1] == "X"

    def test_packing_term_penalizes_wrong_volumes(self):
        """Compressing or inflating a crystal must raise its energy."""
        from repro.dft import total_energy
        from repro.matgen import make_prototype

        nacl = make_prototype("rocksalt", ["Na", "Cl"])
        e0 = total_energy(nacl) / nacl.num_sites
        squeezed = nacl.scale_volume(nacl.volume * 0.6)
        inflated = nacl.scale_volume(nacl.volume * 1.8)
        assert total_energy(squeezed) / 8 > e0
        assert total_energy(inflated) / 8 > e0

    def test_queryengine_nested_logical_sanitization(self):
        from repro.api import QueryEngine
        from repro.errors import APIError

        qe = QueryEngine(DocumentStore()["mp"])
        with pytest.raises(APIError):
            qe.query({"$or": [{"$and": [{"$where": lambda d: True}]}]})

    def test_annotation_author_index_exists(self):
        from repro.api import AnnotationStore

        db = DocumentStore()["mp"]
        store = AnnotationStore(db)
        info = db["annotations"].index_information()
        assert "author_1" in info
