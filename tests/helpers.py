"""Fixtures and oracles shared by several test modules."""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product as cartesian

from hypothesis import strategies as st

from quasicat.cat import CategoryError, FiniteCategory, FiniteFunctor, Groupoid, _iso_classes, nerve
from quasicat.corpus import corpus_categories, loop_free_corpus_complexes
from quasicat.equivalence import PresentedFunctor, enumerate_functors, functors_from_presentation
from quasicat.jsonio import expr_to_json
from quasicat.pathcat import (
    HomClass,
    HomSetTable,
    NotLoopFreeError,
    PresentedCategory,
    _Walk,
    _topological_order,
    _word_key,
    path_category,
)
from quasicat.quasi import (
    CertificationError,
    _enumerate_maps,
    certify_quasi_category,
    enumerate_horns,
    quasi_iso_edges,
)
from quasicat.simplicial import (
    GLOBAL_DIM_BOUND,
    ProductComplex,
    SimplexExpr,
    SimplicialError,
    SimplicialMap,
    SimplicialSet,
    SizeLimitError,
    UnionFind,
    _pair_expr,
    degenerate,
    product,
    standard_simplex,
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


@lru_cache(maxsize=1)
def corpus_products() -> dict[tuple[str, str], ProductComplex]:
    """product(X, Y, 2) for every ordered pair of loop-free corpus complexes,
    built once for the oracles of several modules."""
    X = loop_free_corpus_complexes()
    return {(a, b): product(X[a], X[b], 2) for a in sorted(X) for b in sorted(X)}


def old_sset_to_json(X: SimplicialSet) -> dict:
    """The previous `jsonio.sset_to_json`: one `expr_to_json` per face."""
    simplices = []
    for d, level in enumerate(X.nondegenerate):
        entries = []
        for s in level:
            faces = [expr_to_json(e) for e in X.faces[s]] if d >= 1 else []
            entries.append({"id": s, "faces": faces})
        simplices.append(entries)
    return {
        "dim_bound": X.dim_bound,
        "coskeletal_at": X.coskeletal_at,
        "simplices": simplices,
    }


@lru_cache(maxsize=None)
def old_iso_functor_groupoid(C, P) -> Groupoid:
    """Iso(C^P) with its whole composition table, as the criterion once
    built it; built once per (category, shape) for the oracles of
    `tests/test_nerve_criterion_oracle.py`."""
    functors = functors_from_presentation(P, C)
    inv = C.invertible_arrows()
    inv_out = {x: [f for f in inv if C.src[f] == x] for x in C.objects}
    obj_index = {x: i for i, x in enumerate(P.objects)}
    gen_index = {g: i for i, g in enumerate(P.generators)}
    functor_set = set(functors)
    arrows = []
    src = {}
    tgt = {}
    inverse = {}
    for F in functors:
        for comps in cartesian(*[inv_out[F.objects[i]] for i in range(len(P.objects))]):
            g_objects = tuple(C.tgt[a] for a in comps)
            g_generators = tuple(
                C.compose_table[
                    (
                        C.compose_table[(comps[obj_index[P.gen_tgt[g]]], F.generators[gen_index[g]])],
                        inv[comps[obj_index[P.gen_src[g]]]],
                    )
                ]
                for g in P.generators
            )
            G = PresentedFunctor(g_objects, g_generators)
            if G not in functor_set:
                raise CategoryError("conjugate functor escaped the enumeration")
            a = (F, G, tuple(comps))
            arrows.append(a)
            src[a] = F
            tgt[a] = G
            inverse[a] = (G, F, tuple(inv[c] for c in comps))
    identity = {F: (F, F, tuple(C.identity[x] for x in F.objects)) for F in functors}
    compose = {}
    by_src: dict = {}
    for a in arrows:
        by_src.setdefault(a[0], []).append(a)
    for a in arrows:
        for b in by_src.get(a[1], ()):
            comps = tuple(C.compose_table[(b[2][i], a[2][i])] for i in range(len(P.objects)))
            compose[(b, a)] = (a[0], b[1], comps)
    return Groupoid(
        tuple(functors), tuple(arrows), src, tgt, identity, compose,
        inverse=inverse, check=False,
    )


def identity_functor(C: FiniteCategory) -> FiniteFunctor:
    return FiniteFunctor(C, C, {x: x for x in C.objects}, {f: f for f in C.arrows})


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, {s: X.expr(s) for s in X.cells()})


def push(f: SimplicialMap, expr: SimplexExpr) -> SimplexExpr:
    """The image under f of any simplex of its source."""
    return degenerate(f.assignment[expr.base], expr.word)


def pair_expr(prod: ProductComplex, e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
    """The cell of `prod` whose projections are e1 and e2, in normal form."""
    return _pair_expr(prod.pair_id, e1, e2)


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
                if f.target.face(img, i) != push(f, f.source.face(e, i)):
                    raise SimplicialError(f"map does not commute with d_{i} at {s}")
    return f


def validate_presentation(P: PresentedCategory) -> PresentedCategory:
    """P, once every generator's ends are objects and every relation's
    words compose from its src to its tgt."""
    for g in P.generators:
        if P.gen_src[g] not in P.objects or P.gen_tgt[g] not in P.objects:
            raise ValueError(f"generator {g} has unknown endpoints")
    for rel in P.relations:
        for word in (rel.lhs, rel.rhs):
            at = rel.src
            for g in word:
                if P.gen_src[g] != at:
                    raise ValueError(f"relation word {word} not composable")
                at = P.gen_tgt[g]
            if at != rel.tgt:
                raise ValueError(f"relation word {word} has wrong target")
    return P


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
    return SimplicialMap(f.source, g.target, {s: push(g, img) for s, img in f.assignment.items()})


def has_left_homotopy(X, alpha, beta) -> bool:
    """The paper's left homotopy relation: is there a 2-simplex with
    boundary (alpha, beta, s0 x)?  On quasi-categories it agrees with the
    right one, which `quasi.has_right_homotopy` decides."""
    x = X.vertex_ids(alpha)[0]
    return (alpha, beta, SimplexExpr((0,), x, 1)) in X.face_index(2, (0, 1, 2))


@dataclass
class TransformationData:
    components: dict  # vertex of X -> edge expr of Y (image of the cylinder edge)
    square_witnesses: dict  # generator edge of X -> (triangle expr, triangle expr)
    natural: bool


def homotopy_to_nat_transformation(h: SimplicialMap, prod: ProductComplex) -> TransformationData:
    """Extract the transformation induced by a homotopy h : X x Delta^1 -> Y,
    the paper's homotopies as natural transformations.

    `prod` is the ProductComplex for X x Delta^1 that h is defined on.
    The component at a vertex x is the image of the edge (x,0) -> (x,1);
    each naturality square is witnessed by the images of the two triangles
    of the prism over a generator, which share the diagonal, so the check
    is a direct boundary verification rather than a word-problem call.
    """
    X = prod.left
    interval = prod.right
    (edge01,) = interval.nondegenerate[1]
    Y = h.target
    components = {}
    for x in X.vertices():
        cyl_edge = pair_expr(prod, SimplexExpr((0,), x, 1), interval.expr(edge01))
        components[x] = push(h, cyl_edge)
    witnesses = {}
    natural = True
    for e in X.nondegenerate[1]:
        ee = X.expr(e)
        bottom = pair_expr(prod, SimplexExpr((1,), e, 2), SimplexExpr((0,), edge01, 2))
        top = pair_expr(prod, SimplexExpr((0,), e, 2), SimplexExpr((1,), edge01, 2))
        t_bottom = push(h, bottom)
        t_top = push(h, top)
        # both triangles share the diagonal as their d1 face
        if Y.face(t_bottom, 1) != Y.face(t_top, 1):
            natural = False
        src, tgt = X.vertex_ids(ee)
        if Y.face(t_bottom, 0) != components[tgt] or Y.face(t_top, 2) != components[src]:
            natural = False
        witnesses[e] = (t_bottom, t_top)
    return TransformationData(components, witnesses, natural)


def functor_category(C: FiniteCategory, P: PresentedCategory) -> FiniteCategory:
    """C^P, the paper's functor category: objects are functors P -> C,
    arrows natural transformations, composition objectwise.  Its
    `iso_subgroupoid` is Iso(C^P), the oracle of the nerve-equivalence
    criterion."""
    functors = functors_from_presentation(P, C)
    objects = tuple(functors)
    obj_index = {x: i for i, x in enumerate(P.objects)}
    gen_index = {g: i for i, g in enumerate(P.generators)}
    arrows = []
    src = {}
    tgt = {}
    for F in functors:
        for G in functors:
            for comps in cartesian(
                *[C.hom(F.objects[i], G.objects[i]) for i in range(len(P.objects))]
            ):
                natural = all(
                    C.compose_table[(G.generators[gen_index[g]], comps[obj_index[P.gen_src[g]]])]
                    == C.compose_table[(comps[obj_index[P.gen_tgt[g]]], F.generators[gen_index[g]])]
                    for g in P.generators
                )
                if natural:
                    a = (F, G, tuple(comps))
                    arrows.append(a)
                    src[a] = F
                    tgt[a] = G
    identity = {
        F: (F, F, tuple(C.identity[x] for x in F.objects)) for F in functors
    }
    # b after a, defined when a ends where b starts, composes componentwise
    by_src: dict = {}
    for a in arrows:
        by_src.setdefault(a[0], []).append(a)
    compose = {}
    for a in arrows:
        for b in by_src.get(a[1], ()):
            compose[(b, a)] = (a[0], b[1], tuple(C.compose_table[(g, f)] for g, f in zip(b[2], a[2])))
    return FiniteCategory(objects, tuple(arrows), src, tgt, identity, compose, check=False)


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


def old_category_validate(C: FiniteCategory) -> FiniteCategory:
    """The validation of a category that scans every pair of arrows for the
    composition table and every triple for associativity, raising the first
    failure as `FiniteCategory.validate` does."""
    arrows = set(C.arrows)
    if len(arrows) != len(C.arrows):
        raise CategoryError("duplicate arrow ids")
    for f in C.arrows:
        if C.src[f] not in C.objects or C.tgt[f] not in C.objects:
            raise CategoryError(f"arrow {f} has unknown endpoints")
    for x in C.objects:
        i = C.identity.get(x)
        if i not in arrows or C.src[i] != x or C.tgt[i] != x:
            raise CategoryError(f"bad identity at {x}")
    for g in C.arrows:
        for f in C.arrows:
            defined = (g, f) in C.compose_table
            if defined != (C.tgt[f] == C.src[g]):
                raise CategoryError(f"composition table wrong on ({g}, {f})")
            if defined:
                gf = C.compose_table[(g, f)]
                if gf not in arrows or C.src[gf] != C.src[f] or C.tgt[gf] != C.tgt[g]:
                    raise CategoryError(f"composite ({g}, {f}) ill-typed")
    for f in C.arrows:
        if C.compose_table[(f, C.identity[C.src[f]])] != f:
            raise CategoryError(f"right unit law fails at {f}")
        if C.compose_table[(C.identity[C.tgt[f]], f)] != f:
            raise CategoryError(f"left unit law fails at {f}")
    for h in C.arrows:
        for g in C.arrows:
            if C.tgt[g] != C.src[h]:
                continue
            hg = C.compose_table[(h, g)]
            for f in C.arrows:
                if C.tgt[f] != C.src[g]:
                    continue
                if C.compose_table[(hg, f)] != C.compose_table[(h, C.compose_table[(g, f)])]:
                    raise CategoryError(f"associativity fails at ({h}, {g}, {f})")
    return C


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


def old_false_flag(X: SimplicialSet, d: int, top_count: int | None) -> str | None:
    """The coskeletal-flag check that counts the compatible boundaries in
    every dimension from d+1 through dim_bound, over the Lambda^n_1 horns,
    which it builds; `top_count` must be the number of them at n = d+1."""
    for n in range(d + 1, X.dim_bound + 1):
        shells = X.face_index(n, tuple(range(n + 1)))
        shared = sum(len(es) > 1 for es in shells.values())
        if shared:
            return f"coskeletal_at {d} is false: {shared} boundaries in dimension {n} have several fillers"
        if n == 1:
            boundaries = len(X.vertices()) ** 2
        else:
            faces = X.face_index(n - 1, tuple(range(n)))
            horns = enumerate_horns(X, n, 1)
            assert n > d + 1 or len(horns) == top_count
            boundaries = sum(len(faces.get(h.missing_face_boundary(X), ())) for h in horns)
        if boundaries != len(shells):
            return f"coskeletal_at {d} is false: {boundaries - len(shells)} boundaries in dimension {n} have no filler"
    return None


# -- the function complex, the route tau0 took before the pointwise criterion --


def _map_key(assignment: dict) -> tuple:
    # the cell ids are distinct, so the images are never compared
    return tuple(sorted(assignment.items()))


def _precompose(f: dict, along: dict) -> dict:
    """f . g for maps given as assignment dicts, g's images `along`."""
    return {s: degenerate(f[b], w) if w else f[b] for s, (w, b, _) in along.items()}


def function_complex(K: SimplicialSet, X: SimplicialSet, dim_bound: int, limit: int = 24) -> SimplicialSet:
    """hom(K, X) through dimension dim_bound: n-simplices are maps
    K x Delta^n -> X, with faces by precomposition with 1_K x d^i.

    A map f is s_j g exactly when f . (1_K x d^j s^j) = f, and then
    g = f . (1_K x d^j).  That test reads only the cells the collapse
    d^j s^j moves, listed once per (n, j), and stops at the first one whose
    image differs; g is built only for a map that passes.  Each 1_K x delta
    is read off the product's `pairs`: a cell's Delta-component goes to
    delta of its vertices, and the pair is renormalized.  Maps are found
    by `_enumerate_maps`, degenerate ones included, in the rank order that
    fixes the ids."""
    if K.n_cells > limit:
        raise SizeLimitError(f"function complex needs |K| <= {limit}")
    prods = [product(K, standard_simplex(n)) for n in range(dim_bound + 1)]

    def along(vertex_map, n: int) -> dict:
        # 1_K x delta for delta: Delta^m -> Delta^n given on vertices (the
        # vertex ids of Delta^m are 0..m); a repeated vertex at positions
        # j, j+1 of a component's image is s_j
        source, target = standard_simplex(len(vertex_map) - 1), standard_simplex(n)
        ids = {target.labels[t]: t for t in target.cells()}
        out = {}
        for s, (e1, e2) in prods[len(vertex_map) - 1].pairs.items():
            vs = [vertex_map[v] for v in source.vertex_ids(e2)]
            word = tuple(j for j in range(len(vs) - 2, -1, -1) if vs[j] == vs[j + 1])
            out[s] = pair_expr(prods[n], e1, SimplexExpr(word, ids[tuple(sorted(set(vs)))], len(vs) - 1))
        return out

    # d^i skips vertex i of Delta^n; d^j s^j sends vertex j to j + 1
    face = {
        (n, i): along([v + (v >= i) for v in range(n)], n)
        for n in range(1, dim_bound + 1)
        for i in range(n + 1)
    }
    moved = {
        (n, j): [(s, e) for s, e in along([v + (v == j) for v in range(n + 1)], n).items() if e[0] or e[1] != s]
        for n in range(1, dim_bound + 1)
        for j in range(n)
    }

    def is_sj(f: dict, n: int, j: int) -> bool:
        for s, (w, b, _) in moved[n, j]:
            if f[s] != (degenerate(f[b], w) if w else f[b]):
                return False
        return True

    nondeg_maps: list[list[dict]] = [[] for _ in range(dim_bound + 1)]
    nondeg_ids: list[dict] = [{} for _ in range(dim_bound + 1)]
    nondeg: list[list[int]] = [[] for _ in range(dim_bound + 1)]
    labels = {}
    next_id = 0
    for n, p in enumerate(prods):
        for f in _enumerate_maps(p.complex, X):
            if any(is_sj(f, n, j) for j in range(n)):
                continue
            k = _map_key(f)
            nondeg_ids[n][k] = next_id
            nondeg[n].append(next_id)
            nondeg_maps[n].append(f)
            labels[next_id] = ("map", n, k)
            next_id += 1

    def normalize(n: int, f: dict) -> SimplexExpr:
        word = []
        while n >= 1:
            j = next((j for j in range(n - 1, -1, -1) if is_sj(f, n, j)), None)
            if j is None:
                break
            word.append(j)
            f = _precompose(f, face[n, j])
            n -= 1
        return degenerate(SimplexExpr((), nondeg_ids[n][_map_key(f)], n), word)

    faces = {}
    for n in range(1, dim_bound + 1):
        for f in nondeg_maps[n]:
            s = nondeg_ids[n][_map_key(f)]
            faces[s] = tuple(normalize(n - 1, _precompose(f, face[n, i])) for i in range(n + 1))
    return SimplicialSet(dim_bound, nondeg, faces, X.coskeletal_at, labels, check=False)



def old_tau0(K: SimplicialSet, X: SimplicialSet, limit: int = 24):
    """tau0 through the function complex: the quasi-iso edges of a certified
    hom(K, X) through dimension coskeletal_at + 1, joined by union-find."""
    d = X.coskeletal_at
    if d is None:
        raise CertificationError("tau0 needs a coskeletal bound on X")
    if X.dim_bound < d:
        raise CertificationError(f"tau0 needs X's coskeletal_at {d} <= its dim_bound {X.dim_bound}")
    H = function_complex(K, X, d + 1, limit=limit)
    report = certify_quasi_category(H)
    witnesses = quasi_iso_edges(H, report)
    uf = UnionFind(H.vertices())
    for e in witnesses:
        if not e.is_degenerate:
            uf.union(*H.vertex_ids(e))
    return sorted(tuple(sorted(members)) for members in uf.groups().values())


# -- hom-set tables keyed by reps -----------------------------------------------


@dataclass
class OldHomEntry:
    src: object
    tgt: object
    classes: tuple[HomClass, ...]
    partial: bool
    # word -> rep; an exact entry lists only its reps and reduces a word to
    # one through `_step`, the transition map shared by its source
    _class_of: dict = field(default_factory=dict, repr=False)
    _step: dict | None = field(default=None, repr=False)

    def class_of(self, word):
        """Rep of the class of `word`; KeyError unless it is a path src -> tgt."""
        word = tuple(word)
        if self._step is None:
            return self._class_of[word]
        rep = ()
        try:
            for g in word:
                rep = self._step[rep, g]
            return self._class_of[rep]
        except KeyError:
            raise KeyError(word) from None

    def __len__(self):
        return len(self.classes)


def old_hom_sets(P: PresentedCategory) -> HomSetTable:
    """Exact hom-sets of a loop-free presentation.

    One forward pass per source x over a topological order.  A path x -> z
    is a path x -> y followed by a generator g: y -> z, so the candidates for
    the classes of hom(x, z) are the pairs (class of hom(x, y), g); two paths
    in one candidate are equal because the prefixes are.  By the time z is
    reached, every hom(x, y) with y earlier in the order is final, so the
    relations ending at z only have to union candidates: for each class p of
    hom(x, src), the two sides p.lhs and p.rhs name their candidates through
    the prefix classes, read from the transition map (rep, g) -> rep.  No
    fixpoint is needed.  The cost grows with classes times generators plus
    classes times relations, never with the number of paths.

    A class's rep, shortest then lexicographic, is the least rep(p) + (g,)
    over its candidates (p, g); its size, the number of paths in it, is the
    sum of the sizes of those p.  The identity class of hom(x, x) is ((), 1).
    """
    order = _topological_order(P)
    if len(order) < len(P.objects):
        raise NotLoopFreeError("exact hom-sets need a loop-free complex; use bounded_hom_classes")
    into = {z: [] for z in P.objects}
    for g in P.generators:
        into[P.gen_tgt[g]].append(g)
    relations_into = {z: [] for z in P.objects}
    for rel in P.relations:
        # a side that is the empty word forces src == tgt; without loops the
        # other side is empty too, and the relation says nothing
        if rel.lhs and rel.rhs:
            relations_into[rel.tgt].append(rel)
    position = {x: i for i, x in enumerate(order)}
    entries = {}
    for x in P.objects:
        step: dict = {}  # (rep of a class of hom(x, y), g: y -> z) -> rep of its class in hom(x, z)
        homs = {x: (HomClass((), 1),)}

        def candidate(rep, word):
            for g in word[:-1]:
                rep = step[rep, g]
            return rep, word[-1]

        for z in order[position[x] + 1 :]:
            size = {(c.rep, g): c.size for g in into[z] for c in homs.get(P.gen_src[g], ())}
            if not size:
                continue
            uf = UnionFind(size)
            for rel in relations_into[z]:
                for p in homs.get(rel.src, ()):
                    uf.union(candidate(p.rep, rel.lhs), candidate(p.rep, rel.rhs))
            classes = []
            for keys in uf.groups().values():
                rep = min((prefix + (g,) for prefix, g in keys), key=_word_key)
                classes.append(HomClass(rep, sum(size[k] for k in keys)))
                for k in keys:
                    step[k] = rep
            classes.sort(key=lambda c: _word_key(c.rep))
            homs[z] = tuple(classes)
        for y in P.objects:
            classes = homs.get(y, ())
            entries[(x, y)] = OldHomEntry(x, y, classes, False, {c.rep: c.rep for c in classes}, step)
    return HomSetTable(entries)


def old_prefix_tables_agree(prod, TX: HomSetTable, TY: HomSetTable) -> bool:
    """`product_comparison` for a built product and the exact tables of its
    factors, as made by `old_hom_sets`.

    Callers that compare many pairs build each product and each factor's
    table once and pass them here.  Each class of P(X x Y) costs O(1): a
    rep's prefix is itself a rep, so the factor classes of its projections
    are those of the prefix, memoized, advanced by the factor tables'
    transitions along the components of its last generator.
    """
    TXY = old_hom_sets(path_category(prod.complex))
    pairs = prod.pairs
    projected = {(): ((), ())}  # rep of P(X x Y) or a prefix -> reps of its projections in TX, TY
    for (a, b), exy in TXY.entries.items():
        (ea, fa), (eb, fb) = pairs[a], pairs[b]
        ex, ey = TX.entries[ea.base, eb.base], TY.entries[fa.base, fb.base]
        if len(exy.classes) != len(ex.classes) * len(ey.classes):
            return False
        seen = set()
        for c in exy.classes:
            rep = c.rep
            i = len(rep)
            while rep[:i] not in projected:  # entries come in object order, not topological
                i -= 1
            px, py = projected[rep[:i]]
            for j in range(i, len(rep)):
                (wx, gx, _), (wy, gy, _) = pairs[rep[j]]
                px = px if wx else ex._step[px, gx]
                py = py if wy else ey._step[py, gy]
                projected[rep[: j + 1]] = px, py
            pair = (ex._class_of[px], ey._class_of[py])
            if pair in seen:
                return False
            seen.add(pair)
    return True


# -- the walk applying every relation -------------------------------------------


def old_walk(P: PresentedCategory) -> _Walk:
    """`_walk` as it was before its relations stopped at one class: every
    relation into z is applied, and one candidate skips them.

    The classes of a loop-free presentation, by integer id.

    One forward pass per source x over a topological order.  A path x -> z
    is a path x -> y followed by a generator g: y -> z, so the candidates for
    the classes of hom(x, z) are the pairs (class of hom(x, y), g); two paths
    in one candidate are equal because the prefixes are.  By the time z is
    reached, every hom(x, y) with y earlier in the order is final, so the
    relations ending at z only have to union candidates, named through the
    transition map (id, g) -> id.  No fixpoint is needed.  The cost grows
    with classes times generators plus classes times relations, never with
    the number of paths.

    A class's rep, shortest then lexicographic, is the least rep(p) + (g,)
    over its candidates (p, g), compared as numerals whose digits are the
    generators' ranks 1..n in base n + 1; its size is the sum of the sizes
    of those p.  The ids of hom(x, z) are handed out together, in rep
    order, so each hom-set is a range and a rep's prefix has a smaller id.
    """
    order = _topological_order(P)
    if len(order) < len(P.objects):
        raise NotLoopFreeError("exact hom-sets need a loop-free complex; use bounded_hom_classes")
    into = {z: [] for z in P.objects}
    for g in P.generators:
        into[P.gen_tgt[g]].append((P.gen_src[g], g))
    relations_into = {z: [] for z in P.objects}
    for rel in P.relations:
        # a side that is the empty word forces src == tgt; without loops the
        # other side is empty too, and the relation says nothing.  Each side
        # is kept as its prefix and its last generator
        if rel.lhs and rel.rhs:
            relations_into[rel.tgt].append((rel.src, rel.lhs[:-1], rel.lhs[-1], rel.rhs[:-1], rel.rhs[-1]))
    rank = {g: i for i, g in enumerate(sorted(P.generators), 1)}
    base = len(rank) + 1
    position = {x: i for i, x in enumerate(order)}
    walk = _Walk({}, {}, [], [], [])
    step, parent, last, size = walk.step, walk.parent, walk.last, walk.size
    numeral = []  # id -> numeral of its rep
    for x in P.objects:
        homs = walk.homs[x] = {x: range(len(parent), len(parent) + 1)}
        parent.append(-1)
        last.append(None)
        size.append(1)
        numeral.append(0)
        for z in order[position[x] + 1 :]:
            keys = [(c, g) for y, g in into[z] if y in homs for c in homs[y]]
            if len(keys) > 1:
                uf = UnionFind(keys)
                for src, lhs, lg, rhs, rg in relations_into[z]:
                    for c in homs.get(src, ()):
                        a = b = c
                        for g in lhs:
                            a = step[a, g]
                        for g in rhs:
                            b = step[b, g]
                        uf.union((a, lg), (b, rg))
                groups = sorted(
                    (min((numeral[c] * base + rank[g], c, g) for c, g in group), group)
                    for group in uf.groups().values()
                )
            elif keys:  # one candidate is one class, whatever the relations
                ((c, g),) = keys
                groups = [((numeral[c] * base + rank[g], c, g), keys)]
            else:
                continue
            first = len(parent)
            for (n, c, g), group in groups:
                for key in group:
                    step[key] = len(parent)
                parent.append(c)
                last.append(g)
                size.append(sum(size[p] for p, _ in group))
                numeral.append(n)
            homs[z] = range(first, len(parent))
    return walk
