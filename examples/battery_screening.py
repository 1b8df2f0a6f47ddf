"""Battery screening: the paper's Figure 1 workload as a user script.

Screens Li intercalation candidates across three framework families and ten
redox metals: generates charged/discharged pairs, computes their energies
through the workflow engine, builds the electrode collection, and prints
the voltage/capacity screen with the known-materials envelope — the
motivating use case from the paper's introduction.

Run:  python examples/battery_screening.py
"""

from repro.builders import BatteryBuilder, MaterialsBuilder
from repro.datagen import elemental_references, generate_battery_candidates
from repro.docstore import DocumentStore
from repro.fireworks import LaunchPad, Rocket, Workflow, vasp_firework
from repro.matgen import mps_from_structure

ROBUST_INCAR = {"ENCUT": 520, "AMIX": 0.15, "ALGO": "All", "NELM": 500}


def main() -> None:
    db = DocumentStore()["mp"]

    # Candidate electrode pairs + elemental references.
    pairs = generate_battery_candidates("Li")
    structures = []
    for pair in pairs:
        structures.extend([pair["discharged"], pair["charged"]])
    elements = sorted({el for s in structures for el in s.elements})
    structures.extend(elemental_references(elements))
    seen, unique = set(), []
    for s in structures:
        if s.structure_hash() not in seen:
            seen.add(s.structure_hash())
            unique.append(s)
    print(f"screening {len(pairs)} framework/metal pairs "
          f"({len(unique)} distinct structures)")

    # Compute everything through the workflow engine.
    launchpad = LaunchPad(db)
    records = [mps_from_structure(s) for s in unique]
    db["mps"].insert_many(records)
    launchpad.add_workflow(Workflow([
        vasp_firework(s, mps_id=r["mps_id"], incar=dict(ROBUST_INCAR),
                      walltime_s=1e9, memory_mb=1e6)
        for s, r in zip(unique, records)
    ]))
    print(f"computed {Rocket(launchpad).rapidfire()} structures")

    # Build materials + electrodes.
    MaterialsBuilder(db).run()
    built = BatteryBuilder(db, "Li").run_intercalation()
    print(f"built {built['intercalation_built']} intercalation electrodes\n")

    # The Figure 1 scatter, as text.
    electrodes = db["batteries"].find(
        {"battery_type": "intercalation"}
    ).sort("specific_energy", -1).to_list()
    print(f"{'framework':>12s} {'V (V)':>7s} {'C (mAh/g)':>10s} {'E (Wh/kg)':>10s}")
    for e in electrodes:
        marker = ""
        if 3.0 <= e["average_voltage"] <= 4.3 and 100 <= e["capacity_grav"] <= 200:
            marker = "   <- inside known-materials envelope"
        print(f"{e['framework']:>12s} {e['average_voltage']:7.2f} "
              f"{e['capacity_grav']:10.0f} {e['specific_energy']:10.0f}{marker}")
    best = electrodes[0]
    print(f"\nbest candidate: {best['framework']} "
          f"({best['specific_energy']:.0f} Wh/kg)")

    # The paper's follow-up screen: "screen promising candidates for other
    # important properties such as Li diffusivity (related to power)".
    from repro.matgen import Composition, Structure, estimate_diffusion

    print(f"\nrate screen of the top candidates "
          f"(geometric migration barriers):")
    print(f"{'framework':>12s} {'Ea (eV)':>8s} {'D@300K (cm^2/s)':>16s} "
          f"{'class':>14s}")
    for e in electrodes[:8]:
        # The discharged end of the voltage curve: the battery's most
        # lithiated member, the structure Li migrates through.
        doc = max(
            db["materials"].find({"material_id": {"$in": e["material_ids"]}}),
            key=lambda m: Composition(m["formula"]).get_atomic_fraction("Li"))
        est = estimate_diffusion(Structure.from_dict(doc["structure"]), "Li")
        print(f"{e['framework']:>12s} {est.barrier_ev:8.2f} "
              f"{est.diffusivity(300):16.2e} {est.as_dict()['rate_class']:>14s}")


if __name__ == "__main__":
    main()
