"""Horn filling, quasi-category certification, cores, and homotopy categories.

Certification is finite because it is only claimed for complexes carrying a
coskeletal bound: in a d-coskeletal complex an inner horn of dimension
>= d+2 determines its missing face and filler uniquely, so checking
dimensions 2..d+1 suffices.  Horns one dimension above the stored
truncation are decided by a shell criterion.  The verdict is never a false
certificate: a missing flag, a dim_bound below the declared coskeletal
bound, or stored cells that contradict it, yield "inconclusive".  Horns
are (n, k, top) tuples, enumerated as a join over the face index;
certification counts them against the filler index without building
them.  tau0 reads the isomorphism classes of maps K -> X off maps
K x Delta^1 -> X, by the pointwise criterion for natural isomorphisms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .cat import FiniteCategory
from .simplicial import (
    GLOBAL_DIM_BOUND,
    SimplexExpr,
    SimplicialError,
    SimplicialMap,
    SimplicialSet,
    SizeLimitError,
    UnionFind,
    closure_ids,
    make_subcomplex,
    map_search,
    product,
    standard_simplex,
    with_coskeletal,
)


class CertificationError(ValueError):
    pass


class HornMap(tuple):
    """A map Lambda^n_k -> X, stored on the horn's top faces.

    `top[i]` is the image of the face d^i of Delta^n for i != k (entry k is
    None); images of lower simplices are determined by restriction.  An
    immutable (n, k, top) triple, like `SimplexExpr`.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, top: tuple):
        return tuple.__new__(cls, (n, k, top))

    n = property(itemgetter(0))
    k = property(itemgetter(1))
    top = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"HornMap(n={self[0]!r}, k={self[1]!r}, top={self[2]!r})"

    @property
    def is_inner(self) -> bool:
        return 0 < self.k < self.n

    def face_image(self, X: SimplicialSet, vs: tuple[int, ...]) -> SimplexExpr:
        """Image of the horn simplex with vertex set vs (proper, not the missing face)."""
        for i in range(self.n + 1):
            if i != self.k and i not in vs:
                positions = tuple(v if v < i else v - 1 for v in vs)
                return X.restrict(self.top[i], positions)
        raise SimplicialError(f"{vs} is not a simplex of the horn")

    def missing_face_boundary(self, X: SimplicialSet) -> tuple[SimplexExpr, ...]:
        """(d_0, ..., d_{n-1}) of the missing face d_k, read off the horn:
        d_m d_k = d_{k-1} d_m for m < k, and d_k d_{m+1} otherwise."""
        k = self.k
        return tuple(
            X.face_row(self.top[m])[k - 1] if m < k else X.face_row(self.top[m + 1])[k]
            for m in range(self.n)
        )


def enumerate_horns(X: SimplicialSet, n: int, k: int) -> list[HornMap]:
    """All simplicial maps Lambda^n_k -> X, as a join over face images: every
    partial horn is extended by slot j, in index order, with the candidates
    `X.face_index(n - 1, earlier slots)` holds at the face values its earlier
    slots force, so the search is output-sensitive and the order lexicographic.
    """
    if n < 2:
        raise SimplicialError("horns need n >= 2")
    return _horns(X, n, k)


def _join(X: SimplicialSet, n: int, k: int):
    """The join through every slot but the last: the partial horns, in
    lexicographic order, and for each its candidates for the last slot.
    The horns are those candidates appended, so they can be counted
    without being built."""
    slots = tuple(i for i in range(n + 1) if i != k)
    row = X.face_row
    partial = [()]
    for pos, j in enumerate(slots):
        index = X.face_index(n - 1, slots[:pos])
        # slots ascend, so every earlier index i satisfies i < j and the
        # shared face of d^i and d^j sits at position j-1 of the former
        candidates = [index.get(tuple([row(f)[j - 1] for f in p]), ()) for p in partial]
        if pos == len(slots) - 1:
            return partial, candidates
        partial = [p + (e,) for p, es in zip(partial, candidates) for e in es]


def _horn(n: int, k: int, faces: tuple) -> HornMap:
    # faces in slot order; the join built them from the face index
    return tuple.__new__(HornMap, (n, k, (*faces[:k], None, *faces[k:])))


def _horns(X: SimplicialSet, n: int, k: int) -> list[HornMap]:
    # the join expanded, where certification and the flag check count it
    partial, candidates = _join(X, n, k)
    return [_horn(n, k, (*p, e)) for p, es in zip(partial, candidates) for e in es]


def find_filler(X: SimplicialSet, h: HornMap) -> SimplexExpr | None:
    """An n-expr of X restricting to the horn, or None (search is exhaustive
    through all n-dimensional expressions, in canonical order)."""
    slots = tuple(i for i in range(h.n + 1) if i != h.k)
    fillers = X.face_index(h.n, slots).get(tuple(h.top[i] for i in slots))
    return fillers[0] if fillers else None


@dataclass
class CertReport:
    verdict: str  # "quasi-category" | "counterexample" | "inconclusive"
    coskeletal_at: int | None
    certified_up_to: int | None
    counterexample: HornMap | None = None
    reason: str | None = None

    @property
    def is_quasi(self) -> bool:
        return self.verdict == "quasi-category"


def _has_shell_filler(X: SimplicialSet, h: HornMap) -> bool:
    """Filler existence for a horn one dimension above the stored truncation.

    For a coskeletal_at = dim_bound complex, a (dim_bound+1)-simplex is
    determined by a compatible boundary, so the horn fills iff some stored
    expr can serve as the missing k-th face.
    """
    return h.missing_face_boundary(X) in X.face_index(h.n - 1, tuple(range(h.n)))


def certify_quasi_category(X: SimplicialSet) -> CertReport:
    """Exhaustive inner-horn check through dimension coskeletal_at + 1.

    Above that dimension fillers exist automatically for a coskeletal
    complex, so the verdict is complete.  Horns one dimension above the
    stored truncation are decided by the shell criterion; a missing flag,
    dim_bound below the flag, or stored cells above the flag that are not
    its coskeletal ones (`_false_flag`), yield an inconclusive verdict
    rather than a false certificate.  Through dim_bound the horns are
    counted, not built: each key of the filler index restricts an
    n-expression to one horn, so every horn fills iff the keys are as many
    as the horns, the last-slot candidates of the join's partial horns.
    On a mismatch the first unfilled horn lies under the first partial horn
    p with fewer keys extending p than candidates, and only p's horns are
    built.  A counterexample needs no flag: stored cells witness it.
    """
    d = X.coskeletal_at
    if d is None:
        return CertReport("inconclusive", None, None, reason="no coskeletal bound declared")
    if X.dim_bound < d:
        return CertReport(
            "inconclusive", d, None,
            reason=f"dim_bound {X.dim_bound} below coskeletal bound {d}",
        )
    top = d + 1
    top_count = None
    for n in range(2, top + 1):
        for k in range(1, n):
            if n > X.dim_bound:
                for h in enumerate_horns(X, n, k):
                    if not _has_shell_filler(X, h):
                        return CertReport("counterexample", d, n - 1, counterexample=h)
                continue
            partial, candidates = _join(X, n, k)
            count = sum(map(len, candidates))
            if (n, k) == (top, 1):
                top_count = count
            fillers = X.face_index(n, tuple(i for i in range(n + 1) if i != k))
            if len(fillers) == count:
                continue
            extending = Counter(key[:-1] for key in fillers)
            p, es = next((p, es) for p, es in zip(partial, candidates) if len(es) != extending[p])
            e = next(e for e in es if (*p, e) not in fillers)
            return CertReport("counterexample", d, n - 1, counterexample=_horn(n, k, (*p, e)))
    reason = _false_flag(X, d, top_count)
    if reason is not None:
        return CertReport("inconclusive", d, None, reason=reason)
    return CertReport("quasi-category", d, top)


def _false_flag(X: SimplicialSet, d: int, top_count: int | None) -> str | None:
    """Why the stored cells contradict X's flag d, or None.

    X is d-coskeletal through its dim_bound when, for each n from d+1 up,
    the n-expressions are the compatible boundaries of Delta^n, one each:
    (i) no two share a boundary, and (ii) there are as many boundaries as
    expressions.  A boundary for n >= 2 is a Lambda^n_1 horn with a missing
    face on its `missing_face_boundary`.  At n = d+1, `top_count` is the
    number of those horns, counted by certification: both hold when its
    filler index gives each horn one filler and no two (n-1)-expressions
    share a boundary, or else the horns are built and their boundaries
    counted.  Above d+1 the check at n-1 left each missing face one
    expression: one boundary per horn, so the horns are counted by the join.
    """
    for n in range(d + 1, X.dim_bound + 1):
        if n == d + 1 >= 2:
            faces = X.face_index(n - 1, tuple(range(n)))
            fillers = X.face_index(n, (0, *range(2, n + 1)))
            if len(faces) == X.n_exprs(n - 1) and len(fillers) == top_count == X.n_exprs(n):
                continue
        shells = X.face_index(n, tuple(range(n + 1)))
        shared = sum(len(es) > 1 for es in shells.values())
        if shared:
            return f"coskeletal_at {d} is false: {shared} boundaries in dimension {n} have several fillers"
        if n == 1:
            boundaries = len(X.vertices()) ** 2
        elif n == d + 1:
            boundaries = sum(len(faces.get(h.missing_face_boundary(X), ())) for h in _horns(X, n, 1))
        else:
            boundaries = sum(map(len, _join(X, n, 1)[1]))
        if boundaries != len(shells):
            return f"coskeletal_at {d} is false: {boundaries - len(shells)} boundaries in dimension {n} have no filler"
    return None


# -- quasi-isomorphisms ----------------------------------------------------------


@dataclass(frozen=True)
class QuasiIsoWitness:
    """An inverse beta of the edge alpha it is stored under, with the two
    2-simplices that witness it."""

    beta: SimplexExpr
    sigma: SimplexExpr  # boundary (beta, s0 x, alpha)
    sigma_prime: SimplexExpr  # boundary (alpha, s0 y, beta)


def quasi_iso_edges(X: SimplicialSet, report: CertReport | None = None) -> dict[SimplexExpr, QuasiIsoWitness]:
    """Edges with a two-sided inverse witnessed by a pair of 2-simplices.

    Only defined on certified quasi-categories, where witness existence
    agrees with invertibility in the path category.
    """
    if report is None:
        report = certify_quasi_category(X)
    if not report.is_quasi:
        raise CertificationError(f"quasi_iso_edges needs a certified quasi-category ({report.verdict})")
    out: dict[SimplexExpr, QuasiIsoWitness] = {}
    edges = X.face_index(1, (0, 1))
    triangles = X.face_index(2, (0, 1, 2))
    for alpha in X.all_exprs(1):
        y, x = X.face(alpha, 0), X.face(alpha, 1)
        sx = SimplexExpr((0,), x.base, 1)
        sy = SimplexExpr((0,), y.base, 1)
        for beta in edges.get((x, y), ()):
            sigma = triangles.get((beta, sx, alpha))
            sigma_prime = triangles.get((alpha, sy, beta))
            if sigma and sigma_prime:
                out[alpha] = QuasiIsoWitness(beta, sigma[0], sigma_prime[0])
                break
    return out


def core(X: SimplicialSet, report: CertReport | None = None):
    """Maximal subcomplex all of whose edges are quasi-isomorphisms.

    Keeps every vertex and the non-degenerate quasi-iso edges, then, from
    dimension 2 up, each cell whose face bases are all kept: every edge of
    such a cell lies in one of its faces, and a degenerate face's edges are
    its base's edges or degenerate.  The result is the maximal Kan
    subcomplex of a certified quasi-category.
    """
    if report is None:
        report = certify_quasi_category(X)
    keep = set(X.vertices())
    keep.update(e.base for e in quasi_iso_edges(X, report) if not e.is_degenerate)
    for level in X.nondegenerate[2:]:
        keep.update(s for s in level if all(e.base in keep for e in X.faces[s]))
    sub, incl = make_subcomplex(X, keep)
    flag = max(X.coskeletal_at, 1) if X.coskeletal_at is not None else None
    sub = with_coskeletal(sub, flag)
    return sub, SimplicialMap(sub, X, incl.assignment)


# -- homotopy category -------------------------------------------------------------


def right_homotopy_classes(X: SimplicialSet):
    """Partition of edge exprs under the symmetrized right-homotopy relation."""
    uf = UnionFind(X.all_exprs(1))
    for group in X.face_index(1, (0, 1)).values():
        for alpha in group:
            for beta in group:
                if has_right_homotopy(X, alpha, beta):
                    uf.union(alpha, beta)
    return uf.groups(), uf.find


def has_right_homotopy(X, alpha, beta) -> bool:
    """Is there a 2-simplex with boundary (s0 y, beta, alpha)?"""
    y = X.vertex_ids(alpha)[1]
    return (SimplexExpr((0,), y, 1), beta, alpha) in X.face_index(2, (0, 1, 2))


def has_left_homotopy(X, alpha, beta) -> bool:
    """Is there a 2-simplex with boundary (alpha, beta, s0 x)?"""
    x = X.vertex_ids(alpha)[0]
    return (alpha, beta, SimplexExpr((0,), x, 1)) in X.face_index(2, (0, 1, 2))


def _edge_sort_key(e: SimplexExpr):
    return (len(e.word), e.base, e.word)


@dataclass
class HoData:
    category: FiniteCategory
    edge_class: dict = field(repr=False)  # edge expr -> homotopy class rep
    rep_of_arrow: dict = field(repr=False)


def ho_category_data(X: SimplicialSet, report: CertReport | None = None) -> HoData:
    """Homotopy category with its edge-class bookkeeping.

    Objects are vertices, morphisms homotopy classes of edges, composition
    via a chosen inner-horn filler; well-definedness of the choice is a
    tested property, not an assumption here.  Validation of the resulting
    composition table is exhaustive.
    """
    if report is None:
        report = certify_quasi_category(X)
    if not report.is_quasi:
        raise CertificationError(f"ho_category needs a certified quasi-category ({report.verdict})")
    classes, _find = right_homotopy_classes(X)
    rep_of = {e: min(members, key=_edge_sort_key) for members in classes.values() for e in members}
    reps = sorted(set(rep_of.values()), key=_edge_sort_key)
    objects = X.vertices()
    arrows = tuple(("cls", r.word, r.base) for r in reps)
    arrow_of_rep = dict(zip(reps, arrows))
    src = {}
    tgt = {}
    for r in reps:
        x, y = X.vertex_ids(r)
        src[arrow_of_rep[r]] = x
        tgt[arrow_of_rep[r]] = y
    identity = {x: arrow_of_rep[rep_of[SimplexExpr((0,), x, 1)]] for x in objects}
    compose = {}
    for rb in reps:
        for ra in reps:
            if X.vertex_ids(ra)[1] != X.vertex_ids(rb)[0]:
                continue
            h = HornMap(2, 1, (rb, None, ra))
            filler = find_filler(X, h)
            if filler is None:
                raise CertificationError("missing inner-horn filler during ho composition")
            composite = X.face(filler, 1)
            compose[(arrow_of_rep[rb], arrow_of_rep[ra])] = arrow_of_rep[rep_of[composite]]
    cat = FiniteCategory(objects, arrows, src, tgt, identity, compose, name="ho")
    return HoData(cat, rep_of, dict(zip(arrows, reps)))


def ho_category(X: SimplicialSet, report: CertReport | None = None) -> FiniteCategory:
    return ho_category_data(X, report).category


# -- maps and tau0 --------------------------------------------------------------------


def _maps(P: SimplicialSet, X: SimplicialSet):
    """Every simplicial map P -> X, as `map_search`'s live assignment.

    `map_search` chooses the cells from the top dimension down, with
    candidates from X's face index, so the lower cells of a map are read
    off the images of the cells above them instead of being guessed.  Of
    the cells of the top dimension left, the one with the most faces
    already covered goes first, so that its candidates are fewest: on
    Delta^1 x Delta^n that is id order, where each top cell meets the ones
    before it in a facet."""
    order, covered = [], set()
    for level in reversed(P.nondegenerate):
        left = [s for s in level if s not in covered]
        while left:
            s = max(left, key=lambda c: sum(e[1] in covered for e in P.faces.get(c, ())))
            left.remove(s)
            order.append(s)
            covered |= closure_ids(P, (s,))
    lookup = lambda d, positions, key: X.face_index(d, positions).get(key, ())
    return map_search(P, X, order, lookup)


def _enumerate_maps(P: SimplicialSet, X: SimplicialSet) -> list[dict]:
    """All simplicial maps P -> X as assignment dicts, keyed and ordered
    as a backtracking search over the cells in dimension order would give
    them: lexicographically by each image's rank in `X.all_exprs`."""
    cells = list(P.cells())
    results = [{s: img[s] for s in cells} for img in _maps(P, X)]
    rank = [{e: r for r, e in enumerate(X.all_exprs(d))} for d in range(P.dim_bound + 1)]
    cell_ranks = [(s, rank[P.dim_of[s]]) for s in cells]
    results.sort(key=lambda a: [r[a[s]] for s, r in cell_ranks])
    return results


def tau0(K: SimplicialSet, X: SimplicialSet, limit: int = 24):
    """Isomorphism classes of objects of P(hom(K, X)), by Joyal's pointwise
    criterion for natural isomorphisms: for a quasi-category X, a map
    K x Delta^1 -> X is an invertible edge of hom(K, X) exactly when each
    component v x Delta^1 is a quasi-isomorphism of X, and two isomorphic
    objects are joined by one invertible edge.

    So X itself is certified, and refused unless it is a quasi-category.
    The objects are the maps K x Delta^0 -> X, numbered in
    `_enumerate_maps` order; every map K x Delta^1 -> X whose component
    edges are degenerate or in `quasi_iso_edges(X)` joins its restrictions
    to K x {0} and K x {1}, and the classes are the components.  A
    d-coskeletal X has the maps of the d-skeleta, so both products stop at
    dimension max(d, 1), and no function complex is built."""
    d = X.coskeletal_at
    if d is None:
        raise CertificationError("tau0 needs a coskeletal bound on X")
    if X.dim_bound < d:
        raise CertificationError(f"tau0 needs X's coskeletal_at {d} <= its dim_bound {X.dim_bound}")
    top = max(d, 1)
    if X.dim_bound < top and len(X.vertices()) > 1:
        # cosk_0 joins every two vertices by an edge that X does not store
        raise CertificationError(
            f"tau0 needs X through dimension 1: coskeletal_at 0 joins its {len(X.vertices())} vertices"
        )
    if K.n_cells > limit:
        raise SizeLimitError(f"tau0 needs |K| <= {limit}")
    invertible = quasi_iso_edges(X)
    P0, P1 = product(K, standard_simplex(0), top), product(K, standard_simplex(1), top)
    objects = {tuple(f.values()): i for i, f in enumerate(_enumerate_maps(P0.complex, X))}
    # the cells of K x {0} and K x {1} in P0's order, and the v x Delta^1;
    # the vertices of Delta^1 are its cells 0 and 1, its edge is cell 2
    ends = [[P1.pair_id[e1, SimplexExpr(e2[0], i, e2[2])] for e1, e2 in P0.pairs.values()] for i in (0, 1)]
    components = [P1.pair_id[SimplexExpr((0,), v, 1), SimplexExpr((), 2, 1)] for v in K.vertices()]
    uf = UnionFind(range(len(objects)))
    for img in _maps(P1.complex, X):
        if all(e[0] or e in invertible for e in map(img.__getitem__, components)):
            uf.union(*(objects[tuple([img[c] for c in end])] for end in ends))
    return sorted(tuple(sorted(members)) for members in uf.groups().values())


# -- one saturation stage ---------------------------------------------------------


@dataclass
class SaturationResult:
    complex: SimplicialSet
    inclusion: SimplicialMap
    horns_attached: int
    cells_added: int


def saturation_step(X: SimplicialSet, max_dim: int) -> SaturationResult:
    """One stage of the inner-horn saturation: attach a fresh n-simplex
    along every inner horn map of X in dimensions 2..max_dim, fillable or
    not, mirroring the pushout construction exactly."""
    if max_dim > GLOBAL_DIM_BOUND:
        raise SimplicialError(f"saturation through dimension {max_dim} needs max_dim <= {GLOBAL_DIM_BOUND}")
    nondeg = [list(level) for level in X.nondegenerate]
    while len(nondeg) <= max(max_dim, X.dim_bound):
        nondeg.append([])
    faces = dict(X.faces)
    labels = dict(X.labels)
    next_id = max(X.dim_of, default=-1) + 1
    horn_count = 0
    for n in range(2, max_dim + 1):
        for k in range(1, n):
            for h in enumerate_horns(X, n, k):
                horn_count += 1
                face_cell = next_id
                next_id += 1
                faces[face_cell] = h.missing_face_boundary(X)
                nondeg[n - 1].append(face_cell)
                labels[face_cell] = ("attached-face", n, k, horn_count)
                top_cell = next_id
                next_id += 1
                top_faces = list(h.top)
                top_faces[k] = SimplexExpr((), face_cell, n - 1)
                faces[top_cell] = tuple(top_faces)
                nondeg[n].append(top_cell)
                labels[top_cell] = ("attached-cell", n, k, horn_count)
    Y = SimplicialSet(max(max_dim, X.dim_bound), nondeg, faces, None, labels, check=False)
    incl = SimplicialMap(X, Y, {s: SimplexExpr((), s, X.dim_of[s]) for s in X.cells()})
    return SaturationResult(Y, incl, horn_count, 2 * horn_count)
