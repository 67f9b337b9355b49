"""The four workloads: seeded inputs, one timed pass, and answer checks.

Each workload has
  setup(seed, wdir) -> inputs   draw the inputs from the seed and write them
                                under wdir (this is part of set-up time);
  run(inputs) -> outputs        the timed pass; it reads the written inputs
                                and calls quasicat through module attributes,
                                so the tracer's wrappers are used when
                                installed;
  check(inputs, outputs)        -> (checks made, failed checks), from
                                facts the benchmark derives itself, never
                                from the code under measurement;
  digest(inputs, outputs)       -> str, the outputs that must not change
                                when tracing is on.

Inputs are drawn inside fixed load bands, so another seed changes their
shapes but not the amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

# the CLI imports acceptance only when corpus-run starts; importing it here
# puts that cost in set-up and lets the tracer wrap its runners
import quasicat.acceptance  # noqa: F401
import quasicat.anodyne as anodyne
import quasicat.cat as cat
import quasicat.cli as cli
import quasicat.jsonio as jsonio
import quasicat.pathcat as pathcat
import quasicat.quasi as quasi
import quasicat.simplicial as simplicial
import quasicat.verify as verify

HERE = Path(__file__).resolve().parent
BATTERY_REPORT = HERE / "expected" / "battery_report.json"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write_json(path: Path, obj) -> str:
    path.write_text(jsonio.dumps(obj))
    return str(path)


def _load_sset(path: str):
    return jsonio.sset_from_json(jsonio.loads(Path(path).read_text()))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- posets: the benchmark's own hom-set facts ---------------------------------


class Poset:
    """Strict order on 0..n-1 (`less[x][y]`), with chain counts by DP."""

    def __init__(self, less):
        self.less = less
        self.n = n = len(less)
        self.above = [[y for y in range(n) if less[x][y]] for x in range(n)]
        order = sorted(range(n), key=lambda x: len(self.above[x]))  # maximal first
        paths = [[0] * n for _ in range(n)]
        lengths = [[0] * n for _ in range(n)]
        for x in order:
            paths[x][x] = 1
            for z in self.above[x]:
                for y in range(n):
                    paths[x][y] += paths[z][y]
                    lengths[x][y] += lengths[z][y] + paths[z][y]
        self.paths = paths  # generator paths x -> y = chains from x to y
        self.n_paths = sum(map(sum, paths))
        self.path_length = sum(map(sum, lengths))
        below = [sum(less[w][y] for w in range(n)) for y in range(n)]
        self.relations = sum(below[y] * len(self.above[y]) for y in range(n))

    @property
    def load(self) -> int:
        """Work estimate of the word-enumerating hom-set closure: each
        relation is tried, in both directions, at each position of each path."""
        return self.relations * (2 * self.path_length + self.n_paths)


def random_poset(rng: random.Random, n: int, p: float) -> Poset:
    perm = list(range(n))
    rng.shuffle(perm)
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                less[perm[i]][perm[j]] = True
    for k in range(n):
        for i in range(n):
            if less[i][k]:
                row_k = less[k]
                row_i = less[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return Poset(less)


def grid_poset(a: int, b: int) -> Poset:
    """[a] x [b] in the product order, element (i, j) at index i*(b+1)+j."""
    pts = [(i, j) for i in range(a + 1) for j in range(b + 1)]
    less = [[p != q and p[0] <= q[0] and p[1] <= q[1] for q in pts] for p in pts]
    return Poset(less)


def chain_poset(n: int) -> Poset:
    return Poset([[x < y for y in range(n + 1)] for x in range(n + 1)])


# -- battery ---------------------------------------------------------------------


def battery_setup(seed: int, wdir: Path):
    # the battery runs the bundled corpus: the seed has nothing to change
    return {"out": str(wdir / "report.json")}


def battery_run(inputs):
    return {"exit": cli.main(["corpus-run", "--out", inputs["out"]])}


def battery_check(inputs, outputs):
    failures = []
    report = Path(inputs["out"]).read_bytes()
    if outputs["exit"] != 0:
        failures.append(f"corpus-run exited {outputs['exit']}")
    if report != BATTERY_REPORT.read_bytes():
        failures.append("report differs from perfbench/expected/battery_report.json")
    criteria = json.loads(report)["acceptance"]
    failures += [f"criterion {c['criterion']} not ok" for c in criteria if not c["ok"]]
    return 2 + 10, failures


def battery_digest(inputs, outputs):
    return hashlib.sha256(Path(inputs["out"]).read_bytes()).hexdigest()


# -- wordproblem -------------------------------------------------------------------

CHAIN10_LOAD = chain_poset(10).load
# loads in units of B(chain10): one Delta^a x Delta^b, then random posets
# up to a pass total of WORD_TOTAL +- WORD_TOTAL_TOL
WORD_GRID_BAND = (0.3, 2.0)
WORD_POSET_BAND = (0.75, 1.25)
WORD_TOTAL = 5.0
WORD_TOTAL_TOL = 0.1
WORD_DRAWS = 200


def _in_band(load: int, band) -> bool:
    return band[0] * CHAIN10_LOAD <= load <= band[1] * CHAIN10_LOAD


def _grid_candidates():
    out = []
    for a in range(1, 5):
        b = a
        while (load := grid_poset(a, b).load) <= WORD_GRID_BAND[1] * CHAIN10_LOAD:
            if _in_band(load, WORD_GRID_BAND):
                out.append((a, b))
            b += 1
    return out


def _random_poset_near_chain10(rng: random.Random) -> Poset:
    # edge density scaled so that about one draw in seven lands in WORD_POSET_BAND
    n = rng.randint(12, 20)
    return random_poset(rng, n, 0.78 * (12 / n) ** 2 * rng.uniform(0.9, 1.1))


def _draw_posets(rng: random.Random, budget: float) -> list[Poset]:
    """Random posets of load WORD_POSET_BAND whose loads sum to `budget`
    within WORD_TOTAL_TOL: all but the last at random from one pool of
    WORD_DRAWS draws, the last the best fit.  The fixed pool keeps set-up
    time independent of the seed."""
    count = math.ceil(budget)  # the mean load per poset stays below 1
    while True:
        pool = [_random_poset_near_chain10(rng) for _ in range(WORD_DRAWS)]
        pool = [P for P in pool if _in_band(P.load, WORD_POSET_BAND)]
        for _ in range(100):
            chosen = rng.sample(pool, count - 1)
            rest = budget * CHAIN10_LOAD - sum(P.load for P in chosen)
            last = min((P for P in pool if P not in chosen), key=lambda P: abs(P.load - rest))
            if abs(last.load - rest) <= WORD_TOTAL_TOL * CHAIN10_LOAD:
                return chosen + [last]


def wordproblem_setup(seed: int, wdir: Path):
    rng = _rng("wordproblem", seed)
    a, b = rng.choice(_grid_candidates())
    grid = grid_poset(a, b)
    posets = _draw_posets(rng, WORD_TOTAL - grid.load / CHAIN10_LOAD)
    items = []
    prod = simplicial.product(simplicial.standard_simplex(a), simplicial.standard_simplex(b), dim_bound=2)
    # vertex id -> grid index, read off the product's vertex pairs
    index = {v: prod.pairs[v][0].base * (b + 1) + prod.pairs[v][1].base for v in prod.complex.vertices()}
    items.append((f"Delta{a}xDelta{b}", prod.complex, grid, index))
    for i, P in enumerate(posets):
        C = cat.preorder_category(
            range(P.n), {(x, y) for x in range(P.n) for y in range(P.n) if x == y or P.less[x][y]}
        )
        N = cat.nerve(C, 2)
        items.append((f"poset{i}", N, P, {v: v for v in N.vertices()}))
    out = []
    for name, X, P, index in items:
        path = _write_json(wdir / f"{name}.sset.json", jsonio.sset_to_json(X))
        out.append(
            {
                "complex": path,
                "report": str(wdir / f"{name}.homsets.json"),
                "vertex_index": index,
                "poset": P,
            }
        )
    return {"items": out}


def wordproblem_run(inputs):
    return {
        "exits": [
            cli.main(["pathcat", item["complex"], "--homsets", "--out", item["report"]])
            for item in inputs["items"]
        ]
    }


def wordproblem_check(inputs, outputs):
    checked = 0
    failures = []
    for item, code in zip(inputs["items"], outputs["exits"]):
        P, index = item["poset"], item["vertex_index"]
        checked += 2
        if code != 0:
            failures.append(f"{item['complex']}: exit {code}")
        table = json.loads(Path(item["report"]).read_text())["presentation"]["homsets"]
        if len(table) != P.n * P.n:
            failures.append(f"{item['complex']}: {len(table)} hom-sets, expected {P.n * P.n}")
        for entry in table:
            x, y = index[int(entry["src"])], index[int(entry["tgt"])]
            want = 1 if x == y or P.less[x][y] else 0
            checked += 2
            if len(entry["classes"]) != want:
                failures.append(f"{item['complex']}: hom({x},{y}) has {len(entry['classes'])} classes, want {want}")
            size = sum(c["size"] for c in entry["classes"])
            if size != P.paths[x][y]:
                failures.append(f"{item['complex']}: hom({x},{y}) covers {size} paths, want {P.paths[x][y]}")
    return checked, failures


def wordproblem_digest(inputs, outputs):
    h = hashlib.sha256()
    for item in inputs["items"]:
        h.update(Path(item["report"]).read_bytes())
    return h.hexdigest()


# -- certificates ------------------------------------------------------------------

PRISM_CELL_BAND = (3000, 10500)  # target cells of one prism certificate
# build and replay time is close to target cells x dimension (n + m)
PRISM_LOAD_BAND = (150000, 156000)  # sum of cells x (n + m) over a pass
FACETS = 6  # facet certificates per pass, n in 6..7
MUTATIONS = ("drop_last", "outer_horn", "wrong_attached", "corrupt_face", "duplicate")


def _prism_candidates():
    out = []
    for n in range(2, 8):
        for m in range(1, 8):
            cells = grid_poset(n, m).n_paths  # chains of [n] x [m] = cells of the product
            if PRISM_CELL_BAND[0] <= cells <= PRISM_CELL_BAND[1]:
                out.extend((n, k, m, cells) for k in range(1, n))
    return out


def _prism_load(prisms) -> int:
    return sum(cells * (n + m) for n, _k, m, cells in prisms)


def certificates_setup(seed: int, wdir: Path):
    rng = _rng("certificates", seed)
    candidates = _prism_candidates()
    while True:
        prisms = []
        while _prism_load(prisms) < PRISM_LOAD_BAND[0]:
            prisms.append(rng.choice(candidates))
        if _prism_load(prisms) <= PRISM_LOAD_BAND[1]:
            break
    facets = []
    for _ in range(FACETS):
        n = rng.choice((6, 7))
        inner = [i for i in range(1, n) if rng.random() < 0.5][: n - 2]
        facets.append([n, sorted({0, n, *inner})])
    spec = {
        "prisms": [list(c[:3]) for c in prisms],
        "facets": facets,
        "mutation_seed": rng.randrange(2**32),
    }
    path = wdir / "certificates.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    expected_cells = {tuple(c[:3]): c[3] for c in prisms}
    expected_cells.update({(n, tuple(S)): 2 ** (n + 1) - 1 for n, S in facets})
    return {"spec": str(path), "expected_cells": expected_cells}


def _mutant(cert, op: str, rng: random.Random):
    steps = cert.steps
    i = rng.randrange(len(steps))
    s = steps[i]
    if op == "drop_last":
        new_steps = steps[:-1]
    elif op == "duplicate":
        new_steps = steps[: i + 1] + (s,) + steps[i + 1 :]
    else:
        if op == "outer_horn":
            new = anodyne.CertStep(s.n, 0, s.top, s.attached)
        elif op == "wrong_attached":
            new = anodyne.CertStep(s.n, s.k, s.top, min(cert.source_ids))
        else:  # corrupt_face: another non-degenerate simplex in a horn slot
            X = cert.target
            j = rng.choice([j for j in range(s.n + 1) if j != s.k])
            top = list(s.top)
            top[j] = X.expr(rng.choice([c for c in X.nondegenerate[s.n - 1] if X.expr(c) != s.top[j]]))
            new = anodyne.CertStep(s.n, s.k, tuple(top), s.attached)
        new_steps = steps[:i] + (new,) + steps[i + 1 :]
    return anodyne.AnodyneCertificate(cert.target, cert.source_ids, new_steps, cert.description)


def certificates_run(inputs):
    spec = json.loads(Path(inputs["spec"]).read_text())
    rng = random.Random(spec["mutation_seed"])
    built = [(tuple(p), anodyne.prism_certificate(*p)) for p in spec["prisms"]]
    built += [((n, tuple(S)), anodyne.facet_certificate(n, S)) for n, S in spec["facets"]]
    out = []
    for key, cert in built:
        res = verify.verify_certificate(cert)
        mutants = []
        for op in MUTATIONS:
            m = verify.verify_certificate(_mutant(cert, op, rng))
            mutants.append([op, m.ok, m.failed_step, m.reason])
        out.append(
            {
                "key": key,
                "cells": cert.target.n_cells,
                "source": len(cert.source_ids),
                "steps": len(cert.steps),
                "ok": res.ok,
                "reason": res.reason,
                "mutants": mutants,
            }
        )
    return {"certificates": out}


def certificates_check(inputs, outputs):
    checked = 0
    failures = []
    for c in outputs["certificates"]:
        key = c["key"]
        checked += 3 + len(c["mutants"])
        if c["cells"] != inputs["expected_cells"][key]:
            failures.append(f"{key}: target has {c['cells']} cells, want {inputs['expected_cells'][key]}")
        # each step attaches two cells: a valid certificate accounts for the target exactly
        if c["source"] + 2 * c["steps"] != c["cells"]:
            failures.append(f"{key}: source + 2*steps != target cells")
        if not c["ok"]:
            failures.append(f"{key}: built certificate rejected: {c['reason']}")
        failures += [f"{key}: mutant {op} accepted" for op, ok, _step, _why in c["mutants"] if ok]
    return checked, failures


def certificates_digest(inputs, outputs):
    return _sha([[list(c["key"]), c["cells"], c["steps"], c["ok"], c["mutants"]] for c in outputs["certificates"]])


# -- qcat-json ----------------------------------------------------------------------


class CatSpec:
    """Hom-set counts and iso counts of a category built from primitives,
    kept by the benchmark alongside the library's construction."""

    def __init__(self, name, build, homs, isos):
        self.name, self.build, self.homs, self.isos = name, build, homs, isos
        self.n = len(homs)
        self.arrows = sum(map(sum, homs))

    def times(self, other: "CatSpec") -> "CatSpec":
        def kron(A, B):
            return [[a * b for a in ra for b in rb] for ra in A for rb in B]

        return CatSpec(
            f"{self.name}x{other.name}",
            lambda: cat.product_category(self.build(), other.build()),
            kron(self.homs, other.homs),
            kron(self.isos, other.isos),
        )

    def plus(self, other: "CatSpec") -> "CatSpec":
        def block(A, B):
            na, nb = len(A), len(B)
            return [row + [0] * nb for row in A] + [[0] * na + row for row in B]

        return CatSpec(
            f"({self.name})+({other.name})",
            lambda: cat.disjoint_union_category(self.build(), other.build()),
            block(self.homs, other.homs),
            block(self.isos, other.isos),
        )

    @staticmethod
    def strings(M, dim: int) -> list[int]:
        """Non-degenerate cells of the nerve per dimension: strings of
        composable non-identity arrows, from the count matrix M."""
        n = len(M)
        N = [[M[x][y] - (x == y) for y in range(n)] for x in range(n)]
        v = [1] * n
        counts = [n]
        for _ in range(dim):
            v = [sum(v[x] * N[x][y] for x in range(n)) for y in range(n)]
            counts.append(sum(v))
        return counts

    def nerve_cells(self, dim: int = 3) -> list[int]:
        return self.strings(self.homs, dim)

    def iso_nerve_cells(self, dim: int = 3) -> list[int]:
        return self.strings(self.isos, dim)


def _primitives():
    def poset(n):
        M = [[int(x <= y) for y in range(n + 1)] for x in range(n + 1)]
        Id = [[int(x == y) for y in range(n + 1)] for x in range(n + 1)]
        return CatSpec(f"chain{n}", lambda: cat.poset_category(n), M, Id)

    def group(n):
        return CatSpec(f"Z{n}", lambda: cat.cyclic_group_category(n), [[n]], [[n]])

    groups = [group(n) for n in (2, 3, 4, 5)]
    groups.append(CatSpec("pi", cat.free_iso_groupoid, [[1, 1], [1, 1]], [[1, 1], [1, 1]]))
    monoids = [CatSpec("idem", cat.idempotent_monoid_category, [[2]], [[1]])]
    posets = [poset(n) for n in (1, 2, 3, 4)]
    return groups + monoids, posets


QCAT_ARROWS = (20, 50)  # arrows of each category
QCAT_CELL_BAND = (700, 1300)  # nerve cells (dims 0..3) of each category
QCAT_TOTAL_BAND = (3800, 4200)  # nerve cells of all categories in a pass
QCAT_MAX_LEN = 3  # bound of the looped word problem, as in criterion 8
TAU0_TARGET = 2  # tau0(Delta^1, B(chain2)); chain3 takes ~10x longer


def _qcat_candidates():
    gm, posets = _primitives()
    out = []
    for A in gm:
        for B in gm + posets:
            base = A.times(B)
            out.append(base)
            out.extend(base.plus(C) for C in gm + posets)
    return [
        C
        for C in out
        if QCAT_ARROWS[0] <= C.arrows <= QCAT_ARROWS[1]
        and QCAT_CELL_BAND[0] <= sum(C.nerve_cells()) <= QCAT_CELL_BAND[1]
    ]


def qcat_setup(seed: int, wdir: Path):
    rng = _rng("qcat-json", seed)
    candidates = _qcat_candidates()
    while True:
        chosen = []
        while sum(sum(C.nerve_cells()) for C in chosen) < QCAT_TOTAL_BAND[0]:
            chosen.append(rng.choice(candidates))
        if sum(sum(C.nerve_cells()) for C in chosen) <= QCAT_TOTAL_BAND[1]:
            break
    items = []
    for i, spec in enumerate(chosen):
        C = spec.build()
        doc = jsonio.sset_to_json(cat.nerve(C, 3))
        top = doc["simplices"][3]
        removed = top[rng.randrange(len(top))]
        broken = dict(doc, simplices=doc["simplices"][:3] + [[s for s in top if s is not removed]])
        items.append(
            {
                "nerve": _write_json(wdir / f"B_{i}.sset.json", doc),
                "broken": _write_json(wdir / f"B_{i}_minus_3cell.sset.json", broken),
                "iso": _write_json(
                    wdir / f"B_{i}_iso.sset.json", jsonio.sset_to_json(cat.nerve(cat.iso_subgroupoid(C), 3))
                ),
                "removed_faces": [[f["word"], f["base"]] for f in removed["faces"]],
                "spec": spec,
            }
        )
    tau0_inputs = {
        "k": _write_json(wdir / "delta1.sset.json", jsonio.sset_to_json(simplicial.standard_simplex(1))),
        "x": _write_json(
            wdir / f"B_chain{TAU0_TARGET}.sset.json",
            jsonio.sset_to_json(cat.nerve(cat.poset_category(TAU0_TARGET), 3)),
        ),
        # functors Delta^1 -> chain_n are the arrows of chain_n; a poset has
        # no non-identity isomorphisms, so each is its own class
        "classes": (TAU0_TARGET + 1) * (TAU0_TARGET + 2) // 2,
    }
    return {"items": items, "tau0": tau0_inputs}


def qcat_run(inputs):
    out = []
    for item in inputs["items"]:
        X = _load_sset(item["nerve"])
        rep = quasi.certify_quasi_category(X)
        J, _incl = quasi.core(X, rep)
        T = _load_sset(item["iso"])
        iso = simplicial.iso_check(J, T, limit=max(J.n_cells, T.n_cells))
        H = quasi.ho_category(X, rep)
        P = pathcat.path_category(X)
        bounded = {
            (x, y): pathcat.bounded_hom_classes(P, x, y, QCAT_MAX_LEN) for x in P.objects for y in P.objects
        }
        B = _load_sset(item["broken"])
        brep = quasi.certify_quasi_category(B)
        h = brep.counterexample
        out.append(
            {
                "verdict": rep.verdict,
                "core_counts": list(J.counts()),
                "iso": iso is not None,
                "ho_homs": [[len(H.hom(x, y)) for y in H.objects] for x in H.objects],
                "bounded": {f"{x},{y}": [list(c.rep) for c in e.classes] for (x, y), e in bounded.items()},
                "broken_verdict": brep.verdict,
                "counterexample": None
                if h is None
                else [h.n, h.k, [None if e is None else [list(e.word), e.base] for e in h.top]],
            }
        )
    tau = inputs["tau0"]
    classes = quasi.tau0(_load_sset(tau["k"]), _load_sset(tau["x"]))
    return {"nerves": out, "tau0": [list(c) for c in classes]}


def qcat_check(inputs, outputs):
    checked = 1
    failures = []
    for item, got in zip(inputs["items"], outputs["nerves"]):
        spec = item["spec"]
        name = spec.name
        checked += 4 + 2 * spec.n * spec.n
        if got["verdict"] != "quasi-category":
            failures.append(f"B({name}) not certified: {got['verdict']}")
        if got["core_counts"] != spec.iso_nerve_cells():
            failures.append(f"core(B({name})) counts {got['core_counts']} != B(Iso) {spec.iso_nerve_cells()}")
        if not got["iso"]:
            failures.append(f"core(B({name})) not found isomorphic to B(Iso {name})")
        for x in range(spec.n):
            for y in range(spec.n):
                if got["ho_homs"][x][y] != spec.homs[x][y]:
                    failures.append(f"ho(B({name})) has {got['ho_homs'][x][y]} arrows {x}->{y}, want {spec.homs[x][y]}")
                classes = len(got["bounded"][f"{x},{y}"])
                if classes != spec.homs[x][y]:
                    failures.append(f"B({name}) bounded hom({x},{y}) has {classes} classes, want {spec.homs[x][y]}")
        # the removed 3-simplex is the only filler of its inner horns, so
        # the refutation must be one of them
        ce = got["counterexample"]
        if got["broken_verdict"] != "counterexample" or ce is None:
            failures.append(f"B({name}) minus a 3-cell not refuted: {got['broken_verdict']}")
        else:
            n, k, top = ce
            faces = item["removed_faces"]
            if n != 3 or not 0 < k < n or any(top[i] != faces[i] for i in range(n + 1) if i != k):
                failures.append(f"B({name}) minus a 3-cell refuted at the wrong horn {ce}")
    if len(outputs["tau0"]) != inputs["tau0"]["classes"]:
        failures.append(f"tau0 has {len(outputs['tau0'])} classes, want {inputs['tau0']['classes']}")
    return checked, failures


def qcat_digest(inputs, outputs):
    return _sha(outputs)


WORKLOADS = {
    "battery": (battery_setup, battery_run, battery_check, battery_digest),
    "wordproblem": (wordproblem_setup, wordproblem_run, wordproblem_check, wordproblem_digest),
    "certificates": (certificates_setup, certificates_run, certificates_check, certificates_digest),
    "qcat-json": (qcat_setup, qcat_run, qcat_check, qcat_digest),
}
