"""The bundled corpus: the finite categories and complexes the test and
acceptance suites range over.

Random categories are sampled from a constructor grammar (random preorders,
small groupoids and monoids, and binary unions/products of those) with a
fixed seed, so every run sees the same corpus.  All constructors memoize:
callers can rely on `corpus_categories()["z2"] is corpus_categories()["z2"]`
for cache-friendliness.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

from .cat import (
    FiniteCategory,
    cyclic_group_category,
    discrete_category,
    disjoint_union_category,
    free_iso_groupoid,
    idempotent_monoid_category,
    nerve,
    poset_category,
    preorder_category,
    product_category,
)
from .jsonio import cat_to_json, dumps, sset_to_json
from .pathcat import is_loop_free, path_category
from .simplicial import (
    SimplexExpr,
    SimplicialSet,
    build_standard,
    product,
    standard_simplex,
)

RANDOM_SEED = 20260809
RANDOM_COUNT = 20
MAX_OBJECTS = 3
MAX_ARROWS = 8


def _random_preorder(rng: random.Random, tag: str) -> FiniteCategory | None:
    k = rng.randint(1, MAX_OBJECTS)
    objects = tuple(range(k))
    le = {(x, x) for x in objects}
    for x in objects:
        for y in objects:
            if x != y and rng.random() < 0.4:
                le.add((x, y))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(le):
            for (c, d) in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    if len(le) > MAX_ARROWS:
        return None
    return preorder_category(objects, le, name=tag)


_PRIMITIVES = [
    lambda: poset_category(1),
    lambda: poset_category(2),
    lambda: cyclic_group_category(2),
    lambda: cyclic_group_category(3),
    lambda: idempotent_monoid_category(),
    lambda: free_iso_groupoid(),
    lambda: discrete_category(2),
    lambda: discrete_category(3),
]


def _relabel(C: FiniteCategory, tag: str) -> FiniteCategory:
    objs = {x: i for i, x in enumerate(C.objects)}
    arrs = {f: f"a{i}" for i, f in enumerate(C.arrows)}
    return FiniteCategory(
        tuple(objs[x] for x in C.objects),
        tuple(arrs[f] for f in C.arrows),
        {arrs[f]: objs[C.src[f]] for f in C.arrows},
        {arrs[f]: objs[C.tgt[f]] for f in C.arrows},
        {objs[x]: arrs[C.identity[x]] for x in C.objects},
        {(arrs[g], arrs[f]): arrs[gf] for (g, f), gf in C.compose_table.items()},
        name=tag,
        check=False,
    )


def _sample_category(rng: random.Random, tag: str) -> FiniteCategory | None:
    roll = rng.random()
    if roll < 0.45:
        return _random_preorder(rng, tag)
    if roll < 0.75:
        return _relabel(rng.choice(_PRIMITIVES)(), tag)
    a = rng.choice(_PRIMITIVES)()
    b = rng.choice(_PRIMITIVES)()
    combined = rng.choice([disjoint_union_category, product_category])(a, b)
    if len(combined.objects) > MAX_OBJECTS or len(combined.arrows) > MAX_ARROWS:
        return None
    return _relabel(combined, tag)


@lru_cache(maxsize=1)
def random_categories() -> tuple[FiniteCategory, ...]:
    rng = random.Random(RANDOM_SEED)
    out = []
    while len(out) < RANDOM_COUNT:
        C = _sample_category(rng, f"rand{len(out):02d}")
        if C is None:
            continue
        C.validate()
        out.append(C)
    return tuple(out)


@lru_cache(maxsize=1)
def corpus_categories() -> dict[str, FiniteCategory]:
    """Every named corpus category, including the seeded random ones."""
    cats: dict[str, FiniteCategory] = {}
    for n in range(5):
        cats[f"chain{n}"] = poset_category(n)
    cats["z2"] = cyclic_group_category(2)
    cats["z3"] = cyclic_group_category(3)
    cats["pi_interval"] = free_iso_groupoid()
    cats["idempotent"] = idempotent_monoid_category()
    for C in random_categories():
        cats[C.name] = C
    return cats


def small_corpus_categories() -> dict[str, FiniteCategory]:
    return {name: C for name, C in corpus_categories().items() if len(C.objects) <= MAX_OBJECTS}


@lru_cache(maxsize=1)
def interval_complex() -> SimplicialSet:
    """I = B(pi(Delta^1))."""
    return nerve(free_iso_groupoid(), 4)


@lru_cache(maxsize=1)
def corpus_complexes() -> dict[str, SimplicialSet]:
    """Standard cells and small fixtures used across the suites."""
    out: dict[str, SimplicialSet] = {}
    for n in range(4):
        out[f"delta{n}"] = standard_simplex(n)
    for n in (2, 3):
        out[f"boundary{n}"] = build_standard("boundary", n)[0]
    for n, k in [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]:
        out[f"horn_{n}_{k}"] = build_standard("horn", n, k)[0]
    out["square"] = product(standard_simplex(1), standard_simplex(1)).complex
    out["interval_nerve"] = interval_complex()
    # bd Delta^3 without the face {0,2,3} is the horn Lambda^3_1
    out["boundary3_minus_face"] = out["horn_3_1"]
    out["walking_homotopy"] = walking_homotopy()
    return out


def walking_homotopy(witnesses: str = "rrll") -> SimplicialSet:
    """Two parallel edges f, g: 0 -> 1 with homotopy witness triangles.

    `witnesses` selects which of the four triangles are present, in the
    order (right f=>g, right g=>f, left, left); the full complex "rrll" is
    a quasi-category, and it is the smallest corpus member whose homotopy
    classes of edges are not singletons.  Any proper subset fails
    certification at a 3-horn: one witness forces the other three.
    """
    edge = lambda s: SimplexExpr((), s, 1)
    vertex = lambda v: SimplexExpr((), v, 0)
    s0 = lambda v: SimplexExpr((0,), v, 1)
    triangles = {
        "r1": (s0(1), edge(3), edge(2)),
        "r2": (s0(1), edge(2), edge(3)),
        "l1": (edge(2), edge(3), s0(0)),
        "l2": (edge(3), edge(2), s0(0)),
    }
    keys = {"rrll": ["r1", "r2", "l1", "l2"], "r": ["r1"], "rr": ["r1", "r2"]}[witnesses]
    nondeg = [[0, 1], [2, 3], list(range(4, 4 + len(keys)))]
    faces = {2: (vertex(1), vertex(0)), 3: (vertex(1), vertex(0))}
    for i, key in enumerate(keys):
        faces[4 + i] = triangles[key]
    return SimplicialSet(2, nondeg, faces, coskeletal_at=2)


def loop_free_corpus_complexes() -> dict[str, SimplicialSet]:
    names = ["delta0", "delta1", "delta2", "delta3", "boundary2", "boundary3",
             "horn_2_0", "horn_2_1", "horn_2_2", "horn_3_1", "square"]
    table = corpus_complexes()
    out = {n: table[n] for n in names}
    for name, C in corpus_categories().items():
        N = nerve(C, 2)
        if is_loop_free(path_category(N)):
            out[f"B({name})"] = N
    return out


def materialize_corpus(out_dir) -> list[str]:
    """Write every corpus category and complex as JSON files; returns the
    file names, sorted.  Output is deterministic byte for byte."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, C in corpus_categories().items():
        path = out / f"{name}.cat.json"
        path.write_text(dumps(cat_to_json(C)))
        written.append(path.name)
    for name, X in corpus_complexes().items():
        path = out / f"{name}.sset.json"
        path.write_text(dumps(sset_to_json(X)))
        written.append(path.name)
    for name, C in corpus_categories().items():
        path = out / f"B_{name}.sset.json"
        path.write_text(dumps(sset_to_json(nerve(C, 3))))
        written.append(path.name)
    return sorted(written)


def quasi_category_corpus(dim_bound: int = 4) -> dict[str, SimplicialSet]:
    """Certified-by-construction corpus for the horn-filling property suites."""
    names = ["chain1", "chain2", "z2", "z3", "pi_interval", "idempotent"]
    cats = corpus_categories()
    out = {f"B({n})": nerve(cats[n], dim_bound) for n in names}
    # materialized above its true dimension: expression search in dims up
    # to dim_bound stays exhaustive
    out["square"] = product(standard_simplex(1), standard_simplex(1), dim_bound=dim_bound).complex
    out["walking_homotopy"] = walking_homotopy()
    return out
