"""Horn filling, quasi-category certification, cores, and homotopy categories.

Certification is finite because it is only claimed for complexes carrying a
coskeletal bound: in a d-coskeletal complex an inner horn of dimension
>= d+2 determines its missing face and filler uniquely, so checking
dimensions 2..d+1 suffices.  Horns one dimension above the stored
truncation are decided by a shell criterion.  The verdict is never a false
certificate: a missing flag, a dim_bound below the declared coskeletal
bound, or stored cells that contradict it, yield "inconclusive".  Horns
are (n, k, top) named tuples, enumerated as a join over the face index;
certification counts them against the keys of the n-expressions without
building them.  tau0 reads the isomorphism classes of maps K -> X off maps
K x Delta^1 -> X, by the pointwise criterion for natural isomorphisms.

Certification and the flag check count the keys (faces at a horn's slots,
or whole boundaries) of the n-expressions from the non-degenerate cells,
by a lemma of the Eilenberg-Zilber kind.  Let n >= 2 and 0 < k < n: two
degenerate n-simplices x = s_j y and x' = s_j' y' with d_i x = d_i x' for
every i != k are equal.  Proof.  If j = j', then y and y' are both the
face at whichever of j, j+1 is not k, so x = x'.  Otherwise some index
is shared.  If j does not touch k (k is neither j nor j+1), then
y = d_j x' = d_{j+1} x', and pushing d_j or d_{j+1} through s_j' and
s_j back out with s_i s_m = s_{m+1} s_i (i <= m) writes x = s_j' w: for
j' < j-1, y = s_j' d_{j-1} y' and x = s_j' s_{j-1} d_{j-1} y'; for
j' = j-1, y = s_{j-1} d_j y' (read at j+1) and x = s_{j-1} s_{j-1} d_j y';
for j' = j+1, y = s_j d_j y' and x = s_{j+1} s_j d_j y'; for j' > j+1,
y = s_{j'-1} d_j y' and x = s_j' s_j d_j y'.  So x and x' share j'.  If
j' does not touch k, the same holds with the roles swapped.  If both
touch k and differ, say x = s_{k-1} y and x' = s_k y', then
y = d_{k-1} x = d_{k-1} x' = s_{k-1} d_{k-1} y', and
x = s_{k-1} s_{k-1} d_{k-1} y' = s_k s_{k-1} d_{k-1} y' shares k with x'.
So the degenerate n-expressions have pairwise distinct keys, at an inner
horn's slots and so at whole boundaries, and the distinct keys of all
n-expressions number |K_N| + (n_exprs(n) - |N_n|) - |K_N & K_D|: K_N the
keys of the non-degenerate n-cells, read off their face rows, and K_D
those of the degenerate ones.  A key of s_j y holds y at j or at j+1,
whichever is not k, so it is in K_D exactly when it is the key of one of
the n candidates s_j y with y read off it.  Off j and j+1 the faces of
s_j y are degenerate (s_{j-1} d_i y or s_j d_{i-1} y), so only the j
with the key's non-degenerate faces at j or j+1 are tried; and a key in
K_D has a degenerate face, since for n >= 2 some position lies outside
{j, j+1, k}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

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
    degenerate,
    make_subcomplex,
    map_search,
    product,
    standard_simplex,
    with_coskeletal,
)


class CertificationError(ValueError):
    pass


class HornMap(NamedTuple):
    """A map Lambda^n_k -> X, stored on the horn's top faces.

    `top[i]` is the image of the face d^i of Delta^n for i != k (entry k is
    None); images of lower simplices are determined by restriction.  An
    immutable (n, k, top) named tuple, like `SimplexExpr`.
    """

    n: int
    k: int
    top: tuple

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
    partial, candidates = _join(X, n, k)
    return [_horn(n, k, (*p, e)) for p, es in zip(partial, candidates) for e in es]


def _join(X: SimplicialSet, n: int, k: int | None):
    """The join through every slot but the last: the partial horns, in
    lexicographic order, and for each its candidates for the last slot.
    The horns are those candidates appended, so they can be counted
    without being built.  k = None leaves no slot out: the join of the
    compatible boundaries of Delta^n."""
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


def _degenerate_key(X: SimplicialSet, slots: tuple, key: tuple) -> bool:
    """Is `key` the faces at `slots` of a degenerate n-expression s_j y?
    The faces of s_j y off j and j+1 are degenerate, so the key's
    non-degenerate faces leave at most two j to try, and none when they
    are all non-degenerate; y is read off the key at j, or at j+1 where j
    is not a slot (module docstring)."""
    plain = [i for i, e in zip(slots, key) if not e[0]]
    last = key[0][2]  # n - 1, the largest j
    lo, hi = (max(plain[-1] - 1, 0), min(plain[0], last)) if plain else (0, last)
    if lo > hi:
        return False
    at = dict(zip(slots, key))
    face = X.face
    for j in range(lo, hi + 1):
        x = degenerate(at.get(j) or at[j + 1], (j,))
        if all(face(x, i) == e for i, e in at.items()):
            return True
    return False


def _key_count(X: SimplicialSet, n: int, slots: tuple) -> tuple[int, set]:
    """The number of distinct faces at `slots` (a whole boundary, or an
    inner horn's) of the n-expressions, n >= 2, and the set of those of
    the non-degenerate n-cells: each degenerate n-expression has its own,
    so they are counted, and only the cells' keys are read (module
    docstring)."""
    cells = X.nondegenerate[n]
    keys = set(map(itemgetter(*slots), map(X.faces.__getitem__, cells)))
    # d_0 s_j y is degenerate unless j = 0, and d_n s_j y unless j = n-1
    shared = sum(_degenerate_key(X, slots, key) for key in keys if key[0][0] or key[-1][0])
    return len(keys) + X.n_exprs(n) - len(cells) - shared, keys


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
    counted, not built: each distinct key (faces at the horn's slots) of
    an n-expression is one filled horn, so every horn fills iff the keys
    are as many as the horns, the last-slot candidates of the join's
    partial horns.  The keys are counted from the non-degenerate cells by
    the lemma of the module docstring, |K_N| + (n_exprs(n) - |N_n|) -
    |K_N & K_D|, so no filler index is built, and none over the
    (d+1)-expressions at all.  On a mismatch the horns are scanned in join
    order for the first with no key, and only it is built.  A
    counterexample needs no flag: stored cells witness it.
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
            slots = tuple(i for i in range(n + 1) if i != k)
            keys, cells = _key_count(X, n, slots)
            if keys == count:
                continue
            filled = lambda key: key in cells or _degenerate_key(X, slots, key)
            p, e = next((p, e) for p, es in zip(partial, candidates) for e in es if not filled((*p, e)))
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
    expressions.  For n >= 2, (i) holds when the distinct boundaries,
    counted from the non-degenerate cells by the lemma of the module
    docstring (degenerate n-expressions never share a boundary), are
    n_exprs(n); the boundary index is built only to name how many are
    shared.  For (ii) the boundaries are counted by a join, with none
    built.  Above d+1 the check at n-1 left each missing face one
    expression, so the boundaries are the Lambda^n_1 horns.  At n = d+1,
    `top_count` is the number of those horns, counted by certification.
    Given (i) and no two (n-1)-expressions sharing a boundary, the
    n-expressions fill n_exprs(n) distinct horns, each completed to one
    boundary, and every other horn to at most one; so top_count =
    n_exprs(n) means (ii) holds, and otherwise the whole boundaries are
    counted by the join that leaves no slot out.
    """
    for n in range(d + 1, X.dim_bound + 1):
        whole = tuple(range(n + 1))
        exprs = X.n_exprs(n)
        keys = len(X.face_index(1, whole)) if n == 1 else _key_count(X, n, whole)[0]
        if keys != exprs:
            shared = sum(len(es) > 1 for es in X.face_index(n, whole).values())
            return f"coskeletal_at {d} is false: {shared} boundaries in dimension {n} have several fillers"
        if n == 1:
            boundaries = len(X.vertices()) ** 2
        elif n > d + 1:
            boundaries = sum(map(len, _join(X, n, 1)[1]))
        elif top_count == exprs and len(X.face_index(n - 1, whole[:-1])) == X.n_exprs(n - 1):
            continue
        else:
            boundaries = sum(map(len, _join(X, n, None)[1]))
        if boundaries != exprs:
            return f"coskeletal_at {d} is false: {boundaries - exprs} boundaries in dimension {n} have no filler"
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
