"""Seeded generator for the ladder's dataset and its four request streams.

Everything the server sees comes from here: the materials / batteries /
engines documents loaded into the template data directory, and the
request streams the load generator replays.  The same seed gives the same
documents and the same requests; ``run.py`` builds the corpus from the
fixed ``CORPUS_SEED`` and draws the request streams from ``--seed``.
Vocabularies (formulas, chemical systems, elements) are kept by the
generator; they are never read back from the store with ``distinct`` (see
the README finding on ``Cursor.distinct``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from repro.datagen import QueryWorkload
from repro.matgen.composition import Composition

# The paper's store held ~30 000 materials; the bench contract leaves one
# invocation (build + three boots + timed window) about half a minute, so
# every size below is the paper-scale figure divided by one factor.
SCALE_DIVISOR = 10
FULL_SIZES = {"n_materials": 30_000 // SCALE_DIVISOR,
              "n_batteries": 600 // SCALE_DIVISOR,
              "queue_depth": 3_000 // SCALE_DIVISOR}
SMOKE_SIZES = {"n_materials": 2_000, "n_batteries": 40, "queue_depth": 200}
CORPUS_SEED = 2012

# Elements documents are drawn from; NOBLE never appears in a document, so
# a formula built from it is a guaranteed, well-formed 404.
ELEMENT_POOL = [
    "Li", "Na", "K", "Mg", "Ca", "Sr", "Ba", "Al", "Si", "P", "S", "Cl", "F",
    "O", "N", "C", "B", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Y", "Zr", "Nb", "Mo", "Ag", "Sn", "Sb",
    "Te", "La",
]
NOBLE = ["He", "Ne", "Ar", "Kr", "Xe"]
WORKING_IONS = ["Li", "Na", "Mg"]

PORTAL_PROPERTIES = [
    "energy", "energy_per_atom", "formation_energy_per_atom", "e_above_hull",
    "is_stable", "band_gap", "is_metal", "nsites", "elements", "nelements",
]

MATERIALS_INDEXES = [
    ("material_id", True), ("reduced_formula", False),
    ("chemical_system", False), ("elements", False), ("band_gap", False),
    ("formation_energy_per_atom", False), ("mps_id", False),
]

WORKLOADS = ("http_portal_read", "wire_fig5_read", "wire_taskfarm_mixed",
             "wire_analytics_scan")

OP_CLASSES = {
    "http_portal_read": ("formula_prop", "material_doc", "chemsys_docs",
                         "battery", "not_found"),
    "wire_fig5_read": tuple(QueryWorkload.ARCHETYPE_WEIGHTS),
    "wire_taskfarm_mixed": ("submit", "claim", "result_insert", "complete",
                            "monitor"),
    "wire_analytics_scan": ("agg_materials", "agg_batteries", "count_scan",
                            "count_indexed", "sorted_page"),
}

# One analytics cycle: 1 materials aggregate, 2 battery aggregates, 2
# unindexed V&V counts, 2 indexed range counts, 3 sorted pages.
ANALYTICS_CYCLE = (
    "sorted_page", "count_indexed", "agg_batteries", "count_scan",
    "sorted_page", "agg_materials", "count_indexed", "agg_batteries",
    "count_scan", "sorted_page",
)
PAGE_SIZE = 500
PAGE_PROJECTION = {"material_id": 1, "reduced_formula": 1,
                   "formation_energy_per_atom": 1, "_id": 0}

CLAIM_SORT = [("spec.priority", -1), ("fw_id", 1)]
MONITOR_EVERY = 10


@dataclass
class Op:
    """One request of a stream.

    ``cls`` is the op class the ``mix.<cls>.p50_ms`` metric is keyed by;
    ``kind`` selects the transport (``http`` path or ``wire`` call);
    ``args`` is what the executor sends; ``expect`` is what the oracle
    needs beyond ``args`` to judge the answer.
    """

    cls: str
    kind: str
    args: Dict[str, Any]
    expect: Dict[str, Any] = field(default_factory=dict)


def zipf_choice(rng: random.Random, items: List[Any]) -> Any:
    """``QueryWorkload``'s rank-1/x popularity draw (inverse CDF of 1/x)."""
    rank = int(math.exp(rng.random() * math.log(len(items)))) - 1
    return items[min(rank, len(items) - 1)]


class Dataset:
    """The generated documents plus the vocabularies drawn while making them."""

    def __init__(self, seed: int, n_materials: int, n_batteries: int,
                 queue_depth: int):
        self.seed = seed
        self.queue_depth = queue_depth
        rng = random.Random(f"ladder-dataset-{seed}")
        self.chemical_systems: List[str] = []
        self.formulas: List[str] = []
        formula_rows = self._make_vocabulary(rng, n_materials)
        # Every formula gets one document, the rest are polymorphs.
        self.materials = [
            self._material(rng, i, *(formula_rows[i] if i < len(formula_rows)
                                     else rng.choice(formula_rows)))
            for i in range(n_materials)
        ]
        self.elements = sorted({e for m in self.materials
                                for e in m["elements"]})
        self.batteries = [self._battery(rng, i) for i in range(n_batteries)]
        self.engines = [self._engine(rng, fw_id)
                        for fw_id in range(1, queue_depth + 1)]

    # -- vocabulary ---------------------------------------------------------

    def _make_vocabulary(self, rng: random.Random, n_materials: int):
        """Chemical systems of 2–4 elements, 1–5 stoichiometries each;
        about three polymorphs share one reduced formula."""
        rows: List[Tuple[str, str, Dict[str, int]]] = []
        seen_systems = set()
        target_formulas = max(8, n_materials // 3)
        while len(rows) < target_formulas:
            k = rng.choices([2, 3, 4], [0.3, 0.5, 0.2])[0]
            elements = tuple(sorted(rng.sample(ELEMENT_POOL, k)))
            if elements in seen_systems:
                continue
            seen_systems.add(elements)
            chemsys = "-".join(elements)
            self.chemical_systems.append(chemsys)
            seen_formulas = set()
            for _ in range(rng.randint(1, 5)):
                amounts = {el: rng.randint(1, 4) for el in elements}
                raw = "".join(f"{el}{n}" for el, n in amounts.items())
                reduced = Composition(raw).reduced_formula
                if reduced in seen_formulas:
                    continue
                seen_formulas.add(reduced)
                self.formulas.append(reduced)
                rows.append((reduced, chemsys, amounts))
        return rows

    # -- documents ----------------------------------------------------------

    @staticmethod
    def _material(rng: random.Random, i: int, reduced: str, chemsys: str,
                  amounts: Dict[str, int]) -> dict:
        cells = rng.randint(1, 2)
        species = [el for el, n in amounts.items() for _ in range(n * cells)]
        nsites = len(species)
        band_gap = 0.0 if rng.random() < 0.25 else round(rng.uniform(0.05, 6.0), 4)
        e_per_atom = round(rng.uniform(-9.0, -1.0), 6)
        a, b, c = (round(rng.uniform(3.0, 9.0), 4) for _ in range(3))
        return {
            "material_id": f"mp-{i + 1}",
            "mps_id": f"mps-{i + 1}",
            "formula": "".join(f"{el}{n * cells}" for el, n in amounts.items()),
            "reduced_formula": reduced,
            "chemical_system": chemsys,
            "elements": sorted(amounts),
            "nelements": len(amounts),
            "nsites": nsites,
            "energy": round(e_per_atom * nsites, 6),
            "energy_per_atom": e_per_atom,
            "formation_energy_per_atom": round(rng.uniform(-3.5, 0.5), 6),
            "e_above_hull": round(rng.uniform(0.0, 0.4), 6),
            "is_stable": rng.random() < 0.2,
            "band_gap": band_gap,
            "is_metal": band_gap == 0.0,
            "structure": {
                "lattice": {"a": a, "b": b, "c": c,
                            "matrix": [[a, 0.0, 0.0], [0.0, b, 0.0],
                                       [0.0, 0.0, c]]},
                "sites": [
                    {"species": el,
                     "abc": [round(rng.random(), 5) for _ in range(3)]}
                    for el in species
                ],
            },
            "provenance": {"builder": "ladder", "n_tasks": rng.randint(1, 3)},
        }

    def _battery(self, rng: random.Random, i: int) -> dict:
        host = rng.choice(self.materials)
        voltage = round(rng.uniform(0.5, 4.8), 4)
        capacity = round(rng.uniform(40.0, 320.0), 3)
        steps = rng.randint(2, 5)
        return {
            "battery_id": f"bat-{i + 1}",
            "battery_type": "intercalation",
            "working_ion": WORKING_IONS[i % len(WORKING_IONS)],
            "framework": host["reduced_formula"],
            "material_id": host["material_id"],
            "average_voltage": voltage,
            "capacity_grav": capacity,
            "capacity_vol": round(capacity * rng.uniform(2.5, 4.5), 3),
            "specific_energy": round(voltage * capacity, 3),
            "max_delta_volume": round(rng.uniform(0.0, 0.3), 4),
            "n_steps": steps,
            "voltage_pairs": [
                {"step": s, "voltage": round(voltage + rng.uniform(-0.4, 0.4), 4),
                 "x_charge": round(s / steps, 3),
                 "x_discharge": round((s + 1) / steps, 3)}
                for s in range(steps)
            ],
        }

    def _engine(self, rng: random.Random, fw_id: int) -> dict:
        material = rng.choice(self.materials)
        return engine_doc(fw_id, rng.randint(0, 9), material["reduced_formula"],
                          material["elements"])

    def fixed_documents(self) -> List[dict]:
        """The 1 000 documents ``Matcher.matches`` is timed over."""
        return self.materials[:1000]


def engine_doc(fw_id: int, priority: int, formula: str,
               elements: List[str]) -> dict:
    """An ``engines`` document shaped like ``Firework.to_doc``."""
    return {
        "fw_id": fw_id,
        "name": f"vasp-{formula}",
        "workflow_id": f"wf-{fw_id}",
        "state": "READY",
        "spec": {
            "priority": priority,
            "formula": formula,
            "elements": elements,
            "incar": {"ENCUT": 520, "AMIX": 0.15, "ALGO": "All", "NELM": 500},
            "resources": {"walltime_s": 86400, "memory_mb": 4096},
            "code": "vasp", "functional": "GGA",
        },
        "fuse": {"_type": "Fuse", "params": {"overrides": {},
                                             "requires_approval": False}},
        "analyzer": {"_type": "Analyzer", "params": {}},
        "binder": None,
        "binder_key": f"binder-{fw_id}",
        "parents": [],
        "launches": 0,
        "detours": 0,
        "approved": False,
    }


def task_result_doc(fw_id: int, rng: random.Random) -> dict:
    """A ~4 KB task-result document (energies per ionic step + final sites)."""
    nsites = 16
    return {
        "fw_id": fw_id,
        "workflow_id": f"wf-{fw_id}",
        "binder_key": f"binder-{fw_id}",
        "state": "COMPLETED",
        "code_version": "fakevasp-5.2",
        "energy": round(rng.uniform(-200.0, -10.0), 6),
        "walltime_used_s": round(rng.uniform(60.0, 7200.0), 2),
        "parameters": {"ENCUT": 520, "AMIX": 0.15, "ALGO": "All", "NELM": 500},
        "ionic_steps": [
            {"step": s, "energy": round(rng.uniform(-200.0, -10.0), 6),
             "forces_max": round(rng.random(), 6),
             "stress": [round(rng.uniform(-5, 5), 4) for _ in range(6)]}
            for s in range(12)
        ],
        "final_sites": [
            {"species": "Fe", "abc": [round(rng.random(), 6) for _ in range(3)],
             "magmom": round(rng.uniform(-4, 4), 3),
             "forces": [round(rng.uniform(-0.05, 0.05), 6) for _ in range(3)]}
            for _ in range(nsites)
        ],
    }


# -- request streams ---------------------------------------------------------

def stream(dataset: Dataset, workload: str, seed: int,
           client: int) -> Iterator[Op]:
    """The endless request stream of one closed-loop client.

    The taskfarm stream is stateful (what it completes depends on what it
    claimed), so it is driven by the executor in ``run.py`` and only its
    per-loop random material comes from :func:`taskfarm_rng`.
    """
    rng = random.Random(f"ladder-{workload}-{seed}-{client}")
    if workload == "http_portal_read":
        return _portal_stream(dataset, rng)
    if workload == "wire_fig5_read":
        return _fig5_stream(dataset, seed, client)
    if workload == "wire_analytics_scan":
        return _analytics_stream(dataset, rng, client)
    raise ValueError(f"no static stream for workload {workload!r}")


def _portal_stream(dataset: Dataset, rng: random.Random) -> Iterator[Op]:
    """Fig. 4 URIs: 55/20/15/7/3 % formula-property / material / chemical
    system / battery / unknown formula, identifiers by rank-1/x popularity."""
    classes = ["formula_prop", "material_doc", "chemsys_docs", "battery",
               "not_found"]
    weights = [0.55, 0.20, 0.15, 0.07, 0.03]
    while True:
        cls = rng.choices(classes, weights)[0]
        if cls == "formula_prop":
            formula = zipf_choice(rng, dataset.formulas)
            prop = rng.choice(PORTAL_PROPERTIES)
            yield Op(cls, "http",
                     {"path": f"/rest/v1/materials/{formula}/vasp/{prop}"},
                     {"formula": formula, "prop": prop})
        elif cls == "material_doc":
            material = zipf_choice(rng, dataset.materials)
            yield Op(cls, "http",
                     {"path": f"/rest/v1/materials/{material['material_id']}"},
                     {"material_id": material["material_id"]})
        elif cls == "chemsys_docs":
            chemsys = zipf_choice(rng, dataset.chemical_systems)
            parts = chemsys.split("-")
            rng.shuffle(parts)  # the router canonicalises element order
            yield Op(cls, "http",
                     {"path": f"/rest/v1/materials/{'-'.join(parts)}"},
                     {"chemsys": chemsys})
        elif cls == "battery":
            battery = zipf_choice(rng, dataset.batteries)
            yield Op(cls, "http",
                     {"path": f"/rest/v1/batteries/{battery['battery_id']}"},
                     {"battery_id": battery["battery_id"]})
        else:
            a, b = rng.sample(NOBLE, 2)
            yield Op(cls, "http",
                     {"path": f"/rest/v1/materials/{a}{rng.randint(1, 4)}{b}"},
                     {})


def _fig5_stream(dataset: Dataset, seed: int, client: int) -> Iterator[Op]:
    """``datagen.QueryWorkload``'s six-archetype Fig. 5 mix.

    The queries are the generator's own; they are dealt in shuffled decks
    of 100 that hold each archetype in exactly its ``ARCHETYPE_WEIGHTS``
    share.  Full browses are 5 % of the ops and about half of the server
    time, so leaving their count to chance moves ops/s by several percent
    from seed to seed without telling anything about the server."""
    workload = QueryWorkload(dataset.formulas, dataset.chemical_systems,
                             dataset.elements, seed=seed * 131 + client)
    rng = random.Random(f"ladder-fig5-deck-{seed}-{client}")
    per_deck = {a: round(w * 100)
                for a, w in QueryWorkload.ARCHETYPE_WEIGHTS.items()}
    pools: Dict[str, List[Any]] = {a: [] for a in per_deck}
    while True:
        while any(len(pools[a]) < n for a, n in per_deck.items()):
            for q in workload.generate(500):
                pools[q.archetype].append(q)
        deck = [pools[a].pop() for a, n in per_deck.items() for _ in range(n)]
        rng.shuffle(deck)
        for q in deck:
            yield Op(q.archetype, "wire",
                     {"coll": q.collection, "method": "find", "query": q.query,
                      "sort": q.sort, "limit": q.limit})


def _analytics_stream(dataset: Dataset, rng: random.Random,
                      client: int) -> Iterator[Op]:
    """Analytics-engine and V&V roles in a fixed 10-op interleave; a second
    client would start half a cycle later so the aggregates do not align.

    Pages are dealt from shuffled decks of all of them: a page costs 20 to
    180 ms depending on its skip, so leaving the draw to chance moves ops/s
    by several percent from seed to seed."""
    offset = (client * len(ANALYTICS_CYCLE)) // 2
    n_pages = max(1, len(dataset.materials) // PAGE_SIZE)
    pages: List[int] = []
    for i in itertools.count(offset):
        cls = ANALYTICS_CYCLE[i % len(ANALYTICS_CYCLE)]
        if cls == "agg_materials":
            chemsys = zipf_choice(rng, dataset.chemical_systems)
            pipeline = [
                {"$match": {"chemical_system": chemsys}},
                {"$group": {"_id": "$reduced_formula", "n": {"$sum": 1},
                            "min_energy": {"$min": "$energy_per_atom"},
                            "max_gap": {"$max": "$band_gap"}}},
                {"$sort": {"_id": 1}},
            ]
            yield Op(cls, "wire", {"coll": "materials", "method": "aggregate",
                                   "pipeline": pipeline}, {"chemsys": chemsys})
        elif cls == "agg_batteries":
            voltage = round(rng.uniform(1.0, 4.0), 2)
            pipeline = [
                {"$match": {"average_voltage": {"$gte": voltage}}},
                {"$group": {"_id": "$working_ion", "n": {"$sum": 1},
                            "best": {"$max": "$specific_energy"},
                            "steps": {"$sum": "$n_steps"}}},
                {"$sort": {"_id": 1}},
            ]
            yield Op(cls, "wire", {"coll": "batteries", "method": "aggregate",
                                   "pipeline": pipeline}, {"voltage": voltage})
        elif cls == "count_scan":
            if rng.random() < 0.5:
                # V&V rule: no material may sit below its own hull.
                query = {"e_above_hull": {"$lt": 0.0}}
            else:
                query = {"nsites": {"$gte": rng.randint(4, 20)},
                         "is_metal": True}
            yield Op(cls, "wire", {"coll": "materials", "method": "count",
                                   "query": query})
        elif cls == "count_indexed":
            if rng.random() < 0.5:
                lo = round(rng.uniform(0.5, 5.0), 2)
                query = {"band_gap": {"$gte": lo, "$lt": round(lo + 0.5, 2)}}
            else:
                query = {"formation_energy_per_atom":
                         {"$lte": round(rng.uniform(-3.4, -2.5), 2)}}
            yield Op(cls, "wire", {"coll": "materials", "method": "count",
                                   "query": query})
        else:
            if not pages:
                pages = list(range(n_pages))
                rng.shuffle(pages)
            page = pages.pop()
            yield Op(cls, "wire",
                     {"coll": "materials", "method": "find", "query": {},
                      "projection": PAGE_PROJECTION,
                      "sort": [("formation_energy_per_atom", 1)],
                      "skip": page * PAGE_SIZE, "limit": PAGE_SIZE})


def taskfarm_rng(seed: int, client: int) -> random.Random:
    return random.Random(f"ladder-wire_taskfarm_mixed-{seed}-{client}")


def first_fresh_fw_id(dataset: Dataset, client: int, n_clients: int,
                      loop: int) -> int:
    """fw_ids submitted during the run: above the preloaded queue and
    disjoint between clients."""
    return dataset.queue_depth + 1 + loop * n_clients + client
