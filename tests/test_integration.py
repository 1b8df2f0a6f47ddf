"""End-to-end integration tests: the whole paper pipeline in one process.

These are the slowest tests in the suite; they wire every subsystem
together the way the benchmarks do, and additionally cross layers the
benches don't (persistence under the workflow engine, replica-set-backed
web reads, the proxy in the execution path).
"""

import threading

import pytest

from repro.api import MaterialsAPI, MPRester, QueryEngine
from repro.builders import (
    BandStructureBuilder,
    BatteryBuilder,
    MaterialsBuilder,
    PhaseDiagramBuilder,
    TaskLoader,
    VnVRunner,
    XRDBuilder,
)
from repro.datagen import SyntheticICSD, elemental_references
from repro.docstore import DocumentStore, ShardReplicaSet
from repro.fireworks import LaunchPad, Rocket, Workflow, vasp_firework
from repro.matgen import mps_from_structure

ROBUST_INCAR = {"ENCUT": 520, "AMIX": 0.15, "ALGO": "All", "NELM": 500}


def _populate(db, n=15, seed=42):
    structures = SyntheticICSD(seed=seed).structures(n)
    elements = sorted({el for s in structures for el in s.elements})
    structures += elemental_references(elements)
    seen, unique = set(), []
    for s in structures:
        if s.structure_hash() not in seen:
            seen.add(s.structure_hash())
            unique.append(s)
    records = [mps_from_structure(s) for s in unique]
    db["mps"].insert_many(records)
    launchpad = LaunchPad(db)
    launchpad.add_workflow(Workflow([
        vasp_firework(s, mps_id=r["mps_id"], incar=dict(ROBUST_INCAR),
                      walltime_s=1e9, memory_mb=1e6)
        for s, r in zip(unique, records)
    ]))
    Rocket(launchpad).rapidfire()
    MaterialsBuilder(db).run()
    return launchpad, unique


class TestFullPipeline:
    def test_icsd_to_api(self):
        """inputs → workflow → builders → REST answer, all consistent."""
        db = DocumentStore()["mp"]
        launchpad, structures = _populate(db)
        PhaseDiagramBuilder(db).run()
        XRDBuilder(db).run()
        BandStructureBuilder(db).run()

        n = db["materials"].count_documents()
        assert n == len(structures)
        assert db["xrd"].count_documents() == n
        assert db["bandstructures"].count_documents() == n

        # Every material resolves through the API and carries a hull tag.
        client = MPRester(router=MaterialsAPI(QueryEngine(db)))
        for doc in db["materials"].find({}).limit(5):
            material = client.get_material(doc["material_id"])
            assert material["energy"] == pytest.approx(doc["energy"])
            assert "e_above_hull" in doc

        # V&V sweeps clean on a freshly built database.
        report = VnVRunner(db).run_all()
        assert report["clean"], report["violations"]

    def test_pipeline_survives_crash_and_recovery(self, tmp_path):
        """Workflow state + results persist across a simulated crash."""
        store = DocumentStore(persistence_dir=str(tmp_path / "dbdir"))
        db = store["mp"]
        _populate(db, n=6)
        before = {
            "tasks": db["tasks"].count_documents({"state": "COMPLETED"}),
            "materials": db["materials"].count_documents(),
        }
        del store, db  # crash: no snapshot, journal only

        recovered_store = DocumentStore(persistence_dir=str(tmp_path / "dbdir"))
        db = recovered_store["mp"]
        assert db["tasks"].count_documents({"state": "COMPLETED"}) == before["tasks"]
        assert db["materials"].count_documents() == before["materials"]
        # And the recovered store keeps working: resubmission dedups.
        launchpad = LaunchPad(db)
        structures = SyntheticICSD(seed=42).structures(6)
        result = launchpad.add_workflow(Workflow([
            vasp_firework(s, incar=dict(ROBUST_INCAR), walltime_s=1e9,
                          memory_mb=1e6)
            for s in structures
        ]))
        assert result["duplicates"] == 6

    def test_replica_set_serves_web_reads(self):
        """Builder output replicated through a set; web traffic on a
        secondary, and again on the new primary after failover."""
        db = DocumentStore()["mp"]
        _populate(db, n=8)
        rs = ShardReplicaSet("mp-rs")
        for doc in db["materials"].find({}):
            rs.write("mp", "materials", lambda c, d=doc: c.insert_one(d))
        n_materials = db["materials"].count_documents()
        for node in rs.members:
            assert node.store["mp"]["materials"].count_documents() == n_materials
        # The web stack reads from a secondary.
        secondary = next(m for m in rs.members if m is not rs.primary)
        docs = QueryEngine(secondary.store["mp"]).query({}, limit=5)
        assert docs
        # Failover: promote a secondary, keep serving.
        rs.step_down()
        assert QueryEngine(rs.primary.store["mp"]).count({}) == n_materials

    def test_run_directories_to_store_via_loader(self, tmp_path):
        """The §IV-C1 path: run dirs on 'disk' → incremental load → build."""
        from repro.dft import FakeVASP, Resources, SCFParameters

        db = DocumentStore()["mp"]
        structures = SyntheticICSD(seed=9).structures(4)
        for i, s in enumerate(structures):
            FakeVASP().run(
                s, SCFParameters(amix=0.15, algo="All", nelm=500),
                Resources(walltime_s=1e9, memory_mb=1e6),
                run_dir=str(tmp_path / f"block-0/run-{i}"),
            )
        loader = TaskLoader(db)
        stats = loader.load_tree(str(tmp_path))
        assert stats["loaded"] == 4
        # Attach mps ids (the loader path stores raw task docs).
        for doc, s in zip(db["tasks"].find({}).sort("run_dir", 1), structures):
            db["tasks"].update_one(
                {"_id": doc["_id"]},
                {"$set": {"mps_id": f"mps-{s.structure_hash()[:12]}",
                          "formula": s.reduced_formula,
                          "elements": s.elements}},
            )
        built = MaterialsBuilder(db).run()
        assert built["materials_built"] == 4

    def test_concurrent_rockets_share_queue(self):
        """Several launcher threads drain one LaunchPad without overlap."""
        db = DocumentStore()["mp"]
        launchpad = LaunchPad(db)
        structures = SyntheticICSD(seed=13).structures(24)
        launchpad.add_workflow(Workflow([
            vasp_firework(s, incar=dict(ROBUST_INCAR), walltime_s=1e9,
                          memory_mb=1e6)
            for s in structures
        ]))
        counts = []
        lock = threading.Lock()

        def worker(name):
            rocket = Rocket(launchpad, worker_name=name)
            n = rocket.rapidfire()
            with lock:
                counts.append(n)

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(counts) == 24  # every job executed exactly once
        assert launchpad.tasks.count_documents({"state": "COMPLETED"}) == 24

    def test_execution_through_proxy_wire(self):
        """A worker on the far side of the proxy drives the whole loop."""
        from repro.docstore import DatastoreProxy, DatastoreServer

        store = DocumentStore()
        with DatastoreServer(store) as server:
            with DatastoreProxy("127.0.0.1", server.port) as proxy:
                with proxy.client() as client:
                    remote = client["mp"]["engines"]
                    remote.insert_one(
                        {"fw_id": 1, "state": "READY", "spec": {"n": 1}}
                    )
                    claimed = remote.find_one_and_update(
                        {"state": "READY"},
                        {"$set": {"state": "RUNNING"}},
                        return_document="after",
                    )
                    assert claimed["state"] == "RUNNING"
                    remote.update_one(
                        {"fw_id": 1},
                        {"$set": {"state": "COMPLETED", "energy": -3.2}},
                    )
        # The server-side store saw everything the proxy relayed.
        doc = store["mp"]["engines"].find_one({"fw_id": 1})
        assert doc["state"] == "COMPLETED"
        assert proxy.stats()["requests_forwarded"] >= 3


class TestWorkflowCrashResume:
    def test_workflow_resumes_after_crash(self, tmp_path):
        """Half-run a workflow, crash the process, recover, finish.

        The engines collection (with serialized Fuse/Analyzer/Binder specs)
        must round-trip through the journal so a fresh Rocket on the
        recovered store completes the remaining jobs.
        """
        d = str(tmp_path / "prod")
        store = DocumentStore(persistence_dir=d)
        db = store["mp"]
        launchpad = LaunchPad(db)
        structures = SyntheticICSD(seed=77).structures(6)
        wf = Workflow([
            vasp_firework(s, incar=dict(ROBUST_INCAR), walltime_s=1e9,
                          memory_mb=1e6)
            for s in structures
        ])
        launchpad.add_workflow(wf)
        rocket = Rocket(launchpad)
        for _ in range(3):  # run only half the queue
            rocket.launch()
        assert launchpad.tasks.count_documents({"state": "COMPLETED"}) == 3
        workflow_id = wf.workflow_id
        del store, db, launchpad, rocket  # crash: journal only, no snapshot

        recovered = DocumentStore(persistence_dir=d)
        launchpad2 = LaunchPad(recovered["mp"])
        # Three jobs still READY; their component specs must deserialize.
        remaining = Rocket(launchpad2).rapidfire()
        assert remaining == 3
        assert launchpad2.workflow_complete(workflow_id)
        assert launchpad2.tasks.count_documents({"state": "COMPLETED"}) == 6

    def test_running_job_from_crashed_worker_can_be_recovered(self, tmp_path):
        """A job stuck RUNNING after a worker crash is manually re-queued
        (the operator action the paper's manual-intervention flow implies)."""
        d = str(tmp_path / "prod")
        store = DocumentStore(persistence_dir=d)
        launchpad = LaunchPad(store["mp"])
        s = SyntheticICSD(seed=78).structures(1)[0]
        fw = vasp_firework(s, incar=dict(ROBUST_INCAR), walltime_s=1e9,
                           memory_mb=1e6)
        launchpad.add_workflow(Workflow([fw]))
        # Simulate a worker that claimed the job and died mid-run.
        claimed = launchpad.checkout_firework(worker="doomed-worker")
        assert claimed["state"] == "RUNNING"
        del store, launchpad

        recovered = DocumentStore(persistence_dir=d)
        launchpad2 = LaunchPad(recovered["mp"])
        stuck = launchpad2.engines.find_one({"state": "RUNNING"})
        assert stuck["worker"] == "doomed-worker"
        # Operator action: requeue the orphaned job.
        launchpad2.engines.update_one(
            {"fw_id": stuck["fw_id"]}, {"$set": {"state": "READY"}}
        )
        assert Rocket(launchpad2).rapidfire() == 1
        assert launchpad2.fw_state(stuck["fw_id"]) == "COMPLETED"
