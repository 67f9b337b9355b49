"""Fixtures and oracles shared by several test modules."""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as cartesian

from hypothesis import strategies as st

from quasicat.cat import FiniteCategory, FiniteFunctor, _iso_classes, nerve
from quasicat.corpus import corpus_categories
from quasicat.equivalence import enumerate_functors
from quasicat.quasi import _horns
from quasicat.simplicial import (
    GLOBAL_DIM_BOUND,
    ProductComplex,
    SimplexExpr,
    SimplicialError,
    SimplicialMap,
    SimplicialSet,
    _pair_expr,
)


def truncate(X: SimplicialSet, d: int) -> SimplicialSet:
    """Dimension truncation sk_d; drops the coskeletal flag."""
    nondeg = [list(level) for level in X.nondegenerate[: d + 1]]
    keep = {s for level in nondeg for s in level}
    faces = {s: fs for s, fs in X.faces.items() if s in keep}
    labels = {s: l for s, l in X.labels.items() if s in keep}
    return SimplicialSet(d, nondeg, faces, None, labels, check=False)


@lru_cache(maxsize=1)
def corpus_nerves(dim_bound: int = 3) -> dict[str, SimplicialSet]:
    return {f"B({name})": nerve(C, dim_bound) for name, C in corpus_categories().items()}


def identity_functor(C: FiniteCategory) -> FiniteFunctor:
    return FiniteFunctor(C, C, {x: x for x in C.objects}, {f: f for f in C.arrows})


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, {s: X.expr(s) for s in X.cells()})


def category_iso(C: FiniteCategory, D: FiniteCategory) -> FiniteFunctor | None:
    """An isomorphism of categories C -> D, or None: the first enumerated
    functor that is bijective on objects and on arrows."""
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return None
    for F in enumerate_functors(C, D):
        if len(set(F.object_map.values())) == len(D.objects) and (
            len(set(F.arrow_map.values())) == len(D.arrows)
        ):
            return F
    return None


@dataclass
class GroupoidEquivalenceWitness:
    ok: bool
    reason: str | None = None
    class_map: dict | None = None  # source component rep -> target component rep


def is_equivalence_of_groupoids(F: FiniteFunctor) -> tuple[bool, GroupoidEquivalenceWitness]:
    """Decidable criterion: F induces a bijection on isomorphism classes and
    a bijection Aut(x) -> Aut(Fx) for one representative per source class."""
    C, D = F.source, F.target
    cls_C, _ = _iso_classes(C)
    cls_D, rep_of_D = _iso_classes(D)
    class_map = {}
    for key, members in cls_C.items():
        image_keys = {rep_of_D[F.object_map[x]] for x in members}
        if len(image_keys) != 1:
            return False, GroupoidEquivalenceWitness(False, f"class {key} maps to several classes")
        class_map[key] = image_keys.pop()
    if len(set(class_map.values())) != len(class_map):
        return False, GroupoidEquivalenceWitness(False, "not injective on iso classes")
    if set(class_map.values()) != set(cls_D):
        return False, GroupoidEquivalenceWitness(False, "not surjective on iso classes")
    for members in cls_C.values():
        x = members[0]
        fx = F.object_map[x]
        aut_src = C.hom(x, x)
        aut_tgt = D.hom(fx, fx)
        images = {a: F.arrow_map[a] for a in aut_src}
        if len(set(images.values())) != len(aut_src):
            return False, GroupoidEquivalenceWitness(False, f"Aut({x}) not faithful")
        if set(images.values()) != set(aut_tgt):
            return False, GroupoidEquivalenceWitness(False, f"Aut({x}) not full")
    return True, GroupoidEquivalenceWitness(True, None, class_map)


def validate_map(f: SimplicialMap) -> SimplicialMap:
    """f, once every image has its cell's dimension and commutes with faces."""
    for s, img in f.assignment.items():
        if img.dim != f.source.dim_of[s]:
            raise SimplicialError(f"map changes dimension at {s}")
    for d in range(1, f.source.dim_bound + 1):
        for s in f.source.nondegenerate[d]:
            e = f.source.expr(s)
            img = f.assignment[s]
            for i in range(d + 1):
                if f.target.face(img, i) != f.push(f.source.face(e, i)):
                    raise SimplicialError(f"map does not commute with d_{i} at {s}")
    return f


def validate_horn(h, X: SimplicialSet):
    """h, once it has a horn's shape and its faces agree pairwise in X."""
    if not 0 <= h.k <= h.n or h.n < 2:
        raise SimplicialError("bad horn shape")
    for i, e in enumerate(h.top):
        if i == h.k:
            if e is not None:
                raise SimplicialError("slot k must be empty")
        elif e is None or e.dim != h.n - 1:
            raise SimplicialError(f"face {i} missing or of wrong dimension")
    for j in range(h.n + 1):
        for i in range(j):
            if i == h.k or j == h.k:
                continue
            if X.face(h.top[j], i) != X.face(h.top[i], j - 1):
                raise SimplicialError(f"horn faces disagree at ({i},{j})")
    return h


def projections(prod: ProductComplex) -> tuple[SimplicialMap, SimplicialMap]:
    """The projections X x Y -> X and X x Y -> Y, read off `prod.pairs`."""
    pairs = prod.pairs
    return (
        SimplicialMap(prod.complex, prod.left, {s: e1 for s, (e1, _e2) in pairs.items()}),
        SimplicialMap(prod.complex, prod.right, {s: e2 for s, (_e1, e2) in pairs.items()}),
    )


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """g after f (f's target must be g's source)."""
    assert f.target is g.source
    return SimplicialMap(f.source, g.target, {s: g.push(img) for s, img in f.assignment.items()})


def relabel(X, rng):
    """X with fresh ids, and each level listed in a shuffled order."""
    new = list(range(100, 100 + X.n_cells))
    rng.shuffle(new)
    m = dict(zip(X.cells(), new))
    levels = [[m[s] for s in level] for level in X.nondegenerate]
    for level in levels:
        rng.shuffle(level)
    faces = {
        m[s]: tuple(SimplexExpr(e.word, m[e.base], e.dim) for e in X.faces[s])
        for s in X.cells()
        if X.dim_of[s]
    }
    return SimplicialSet(X.dim_bound, levels, faces, X.coskeletal_at)


@st.composite
def tiny_complexes(draw, counts):
    """A 2-dimensional complex with the given numbers of vertices, edges and
    at most the given number of triangles, drawn from the compatible shells."""
    n_v, n_e, n_t = counts
    v = lambda i: SimplexExpr((), i, 0)
    ends = draw(st.lists(st.tuples(st.integers(0, n_v - 1), st.integers(0, n_v - 1)), min_size=n_e, max_size=n_e))
    edges = list(range(n_v, n_v + n_e))
    faces = {s: (v(b), v(a)) for s, (a, b) in zip(edges, ends)}
    X1 = SimplicialSet(1, [list(range(n_v)), edges], faces)
    d = X1.face
    shells = [
        (f0, f1, f2)
        for f0, f1, f2 in cartesian(X1.all_exprs(1), repeat=3)
        if d(f1, 0) == d(f0, 0) and d(f2, 0) == d(f0, 1) and d(f2, 1) == d(f1, 1)
    ]
    chosen = draw(st.lists(st.sampled_from(shells), max_size=n_t)) if shells else []
    triangles = list(range(n_v + n_e, n_v + n_e + len(chosen)))
    faces.update(zip(triangles, chosen))
    return SimplicialSet(2, [list(range(n_v)), edges, triangles], faces)


def old_product(X: SimplicialSet, Y: SimplicialSet, dim_bound: int | None = None) -> ProductComplex:
    """The product built face pair by face pair: every distinct face pair of
    a cell, non-degenerate or not, is normalized by `_pair_expr`, and kept
    in a dict keyed by the pair of expressions."""
    full = X.dim + Y.dim
    if dim_bound is None:
        dim_bound = min(full, GLOBAL_DIM_BOUND) if full >= 0 else 0
    dim_bound = max(dim_bound, 0)
    pair_id: dict = {}
    pairs: dict = {}
    nondeg: list[list[int]] = [[] for _ in range(dim_bound + 1)]
    faces = {}
    pair_exprs: dict = {}

    def with_faces(Z, z, words, d):
        return [(e, Z.face_row(e) if d else ()) for e in (SimplexExpr(w, z, d) for w in words)]

    next_id = 0
    for d in range(dim_bound + 1):
        words = [tuple(combinations(range(d - 1, -1, -1), d - r)) for r in range(d + 1)]
        ys: dict = {}
        for p in range(max(d - Y.dim, 0), min(d, X.dim) + 1):
            xs = [with_faces(X, x, words[p], d) for x in X.nondegenerate[p]]
            for q in range(d - p, min(d, Y.dim) + 1):
                if q not in ys:
                    ys[q] = [with_faces(Y, y, words[q], d) for y in Y.nondegenerate[q]]
                disjoint = [[j for j, w2 in enumerate(words[q]) if set(w1).isdisjoint(w2)] for w1 in words[p]]
                for e1s in xs:
                    for e2s in ys[q]:
                        for (e1, f1), js in zip(e1s, disjoint):
                            for j in js:
                                e2, f2 = e2s[j]
                                pair = (e1, e2)
                                pair_id[pair] = next_id
                                pairs[next_id] = pair
                                nondeg[d].append(next_id)
                                if d:
                                    fs = []
                                    for face_pair in zip(f1, f2):
                                        f = pair_exprs.get(face_pair)
                                        if f is None:
                                            f = pair_exprs[face_pair] = _pair_expr(pair_id, *face_pair)
                                        fs.append(f)
                                    faces[next_id] = tuple(fs)
                                next_id += 1
    flag = None
    if X.coskeletal_at is not None and Y.coskeletal_at is not None and full >= 0 and dim_bound >= full:
        flag = max(X.coskeletal_at, Y.coskeletal_at)
    P = SimplicialSet(dim_bound, nondeg, faces, flag, pairs, check=False)
    return ProductComplex(P, X, Y, pairs, pair_id)


def old_validate(X: SimplicialSet) -> None:
    """The validation that compares the faces of faces pair by pair, in
    (j, i) order, raising the first failure as `SimplicialSet.validate` does."""
    faces, dim_of = X.faces, X.dim_of
    for d, level in enumerate(X.nondegenerate):
        for s in level:
            if d == 0:
                if s in faces and faces[s]:
                    raise SimplicialError(f"vertex {s} has faces")
                continue
            fs = faces.get(s)
            if fs is None or len(fs) != d + 1:
                raise SimplicialError(f"simplex {s} needs {d + 1} faces")
            for word, base, dim in fs:
                if base not in dim_of:
                    raise SimplicialError(f"face of {s} has unknown base {base}")
                if dim_of[base] + len(word) != d - 1 or dim != d - 1:
                    raise SimplicialError(f"face of {s} has wrong dimension")
    degenerate_faces: dict = {}
    for d, level in enumerate(X.nondegenerate):
        if d < 2:
            continue
        for s in level:
            ffs = []
            for e in faces[s]:
                if not e[0]:
                    ffs.append(faces[e[1]])
                    continue
                ef = degenerate_faces.get(e)
                if ef is None:
                    ef = degenerate_faces[e] = tuple(X.face(e, i) for i in range(d))
                ffs.append(ef)
            for j in range(1, d + 1):
                for i in range(j):
                    if ffs[j][i] != ffs[i][j - 1]:
                        raise SimplicialError(f"simplicial identity fails at {s}, (i,j)=({i},{j})")


def old_false_flag(X: SimplicialSet, d: int, top_horns) -> str | None:
    """The coskeletal-flag check that counts the compatible boundaries in
    every dimension from d+1 through dim_bound, over the Lambda^n_1 horns."""
    for n in range(d + 1, X.dim_bound + 1):
        shells = X.face_index(n, tuple(range(n + 1)))
        shared = sum(len(es) > 1 for es in shells.values())
        if shared:
            return f"coskeletal_at {d} is false: {shared} boundaries in dimension {n} have several fillers"
        if n == 1:
            boundaries = len(X.vertices()) ** 2
        else:
            faces = X.face_index(n - 1, tuple(range(n)))
            horns = top_horns if n == d + 1 else _horns(X, n, 1)
            boundaries = sum(len(faces.get(h.missing_face_boundary(X), ())) for h in horns)
        if boundaries != len(shells):
            return f"coskeletal_at {d} is false: {boundaries - len(shells)} boundaries in dimension {n} have no filler"
    return None
