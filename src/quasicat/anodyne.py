"""Shuffle combinatorics of Delta^r x Delta^s and inner-anodyne certificates.

A certificate is an ordered list of inner-horn pushout steps: each step
names the horn shape (n, k), the horn map into the current stage (stored on
the horn's top faces, as exprs of the target), and the id of the simplex
being attached.  Replaying the steps from the source subcomplex must
reproduce the target exactly; the replay lives in `verify` and shares only
the simplicial core with the builders here.  A step freezes its `top` into
a tuple, so an accepted step stays the step it was.  `prism_certificate`
takes the target Delta^n x Delta^m of an earlier certificate of the same
shape, so a caller building every k of one shape builds the product once.

The product certificate processes the maximal-dimension cells (shuffles) in
a fixed linearization of the componentwise order -- ascending lexicographic
order of the first-coordinate sequences -- so that every prefix is order
closed.  The intermediate combinatorial facts the construction relies on
(codimension-one generation of each intersection, the position of the
missing face, the final horn being the original inner index) are asserted
at runtime and fail loudly instead of being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .simplicial import (
    GLOBAL_DIM_BOUND,
    SimplexExpr,
    SimplicialError,
    SimplicialSet,
    build_standard,
    closure_ids,
    product,
    standard_simplex,
)


class CertificateError(ValueError):
    pass


# -- lattice paths -------------------------------------------------------------


@dataclass(frozen=True)
class LatticePath:
    """Strictly increasing path in the grid poset (r+1) x (s+1)."""

    points: tuple[tuple[int, int], ...]
    r: int
    s: int

    def __post_init__(self):
        for (a, b), (c, d) in zip(self.points, self.points[1:]):
            if (c, d) <= (a, b) or c < a or d < b:
                raise SimplicialError("path not strictly increasing")

    @property
    def is_maximal_path(self) -> bool:
        if self.points[0] != (0, 0) or self.points[-1] != (self.r, self.s):
            return False
        return all(
            c + d - a - b == 1 for (a, b), (c, d) in zip(self.points, self.points[1:])
        )

    def i_sequence(self) -> tuple[int, ...]:
        return tuple(p[0] for p in self.points)


def shuffles(r: int, s: int) -> list[LatticePath]:
    """All maximal unit-step paths (0,0) -> (r,s), ascending in the
    lexicographic order of their first-coordinate sequences (a linear
    extension of the componentwise order)."""
    if r < 0 or s < 0:
        raise SimplicialError("need r, s >= 0")
    if r + s > GLOBAL_DIM_BOUND:
        raise SimplicialError(f"shuffles of Delta^{r} x Delta^{s} need r + s <= {GLOBAL_DIM_BOUND}")
    paths = []
    for rises in combinations(range(r + s), r):
        pts = [(0, 0)]
        for t in range(r + s):
            a, b = pts[-1]
            pts.append((a + 1, b) if t in rises else (a, b + 1))
        paths.append(LatticePath(tuple(pts), r, s))
    paths.sort(key=lambda p: p.i_sequence())
    return paths


def shuffle_leq(sigma: LatticePath, gamma: LatticePath) -> bool:
    """Componentwise comparison of first coordinates."""
    if (sigma.r, sigma.s) != (gamma.r, gamma.s):
        raise SimplicialError("shuffles of different shapes")
    if not (sigma.is_maximal_path and gamma.is_maximal_path):
        raise SimplicialError("shuffle order needs maximal paths")
    return all(a <= b for a, b in zip(sigma.i_sequence(), gamma.i_sequence()))


def find_descending_segment(sigma: LatticePath, variant: int = 1) -> int | None:
    """Index of a corner witnessing non-extremality.

    variant 1: an up-then-right corner (i,j) -> (i,j+1) -> (i+1,j+1),
    present exactly when sigma is not the maximal shuffle;
    variant 2: a right-then-up corner, present exactly when sigma is not
    minimal.
    """
    pts = sigma.points
    for t in range(len(pts) - 2):
        (a, b), (c, d), (e, f) = pts[t], pts[t + 1], pts[t + 2]
        if variant == 1 and (c, d) == (a, b + 1) and (e, f) == (a + 1, b + 1):
            return t
        if variant == 2 and (c, d) == (a + 1, b) and (e, f) == (a + 1, b + 1):
            return t
    return None


def corner_swap(sigma: LatticePath, t: int) -> LatticePath:
    """Replace the corner at position t by the opposite one."""
    pts = list(sigma.points)
    (a, b), (c, d), (e, f) = pts[t], pts[t + 1], pts[t + 2]
    if (c, d) == (a, b + 1) and (e, f) == (a + 1, b + 1):
        pts[t + 1] = (a + 1, b)
    elif (c, d) == (a + 1, b) and (e, f) == (a + 1, b + 1):
        pts[t + 1] = (a, b + 1)
    else:
        raise SimplicialError(f"no corner at {t}")
    return LatticePath(tuple(pts), sigma.r, sigma.s)


# -- certificates ----------------------------------------------------------------


@dataclass(frozen=True)
class CertStep:
    n: int
    k: int
    top: tuple  # length n+1, entry k is None, others exprs of the target
    attached: int  # target id of the simplex the step attaches

    def __post_init__(self):
        # frozen for good: the verifier skips a step it has accepted by identity
        object.__setattr__(self, "top", tuple(self.top))


@dataclass
class AnodyneCertificate:
    target: SimplicialSet
    source_ids: frozenset[int]
    steps: tuple[CertStep, ...]
    description: str = ""


def _facet_decomposition(vertices: tuple[int, ...], S: frozenset[int]):
    """Steps (cell vertex tuple, inner index) decomposing <S> inside the
    simplex on `vertices`, by decreasing induction on |S| and increasing
    induction on dimension."""
    n = len(vertices) - 1
    if not (0 in S and n in S):
        raise CertificateError("S must contain the bottom and top faces")
    if not 2 <= len(S) <= n:
        raise CertificateError(f"need 2 <= |S| <= {n}")
    missing = [i for i in range(n + 1) if i not in S]
    if len(S) == n:
        (k,) = missing
        if not 0 < k < n:
            raise CertificateError("horn case produced an outer index")
        return [(vertices, k)]
    k = min(i for i in missing if 0 < i < n)
    sub_vertices = vertices[:k] + vertices[k + 1 :]
    S2 = frozenset(i if i < k else i - 1 for i in S)
    steps = _facet_decomposition(sub_vertices, S2)
    steps += _facet_decomposition(vertices, S | {k})
    return steps


def _steps_for_cells(X: SimplicialSet, id_of_vs, cell_steps):
    """Materialize (vertex tuple, k) steps as CertSteps over the target."""
    out = []
    for vs, k in cell_steps:
        d = len(vs) - 1
        attached = id_of_vs[vs]
        top = tuple(
            None if i == k else X.expr(id_of_vs[vs[:i] + vs[i + 1 :]])
            for i in range(d + 1)
        )
        out.append(CertStep(d, k, top, attached))
    return out


def facet_certificate(n: int, S) -> AnodyneCertificate:
    """Inner-anodyne decomposition of <S> inside Delta^n, where S is a
    proper set of facet indices containing 0 and n."""
    if n > GLOBAL_DIM_BOUND:
        raise CertificateError(f"facet certificate in Delta^{n} needs n <= {GLOBAL_DIM_BOUND}")
    S = frozenset(S)
    if not S <= set(range(n + 1)):
        raise CertificateError("S must consist of face indices 0..n")
    if not {0, n} <= S:
        raise CertificateError("S must contain 0 and n")
    if len(S) > n:
        raise CertificateError("S must be a proper subset")
    D = standard_simplex(n)
    id_of_vs = {D.labels[s]: s for s in D.cells()}
    full = tuple(range(n + 1))
    seeds = [id_of_vs[full[:i] + full[i + 1 :]] for i in sorted(S)]
    source_ids = closure_ids(D, seeds)
    cell_steps = _facet_decomposition(full, S)
    steps = _steps_for_cells(D, id_of_vs, cell_steps)
    return AnodyneCertificate(D, source_ids, tuple(steps), f"<S> in Delta^{n}, S={sorted(S)}")


def prism_certificate(n: int, k: int, m: int, target: SimplicialSet | None = None) -> AnodyneCertificate:
    """Certificate for (Lambda^n_k x Delta^m) u (Delta^n x bd Delta^m)
    inside Delta^n x Delta^m, 0 < k < n.

    Shuffles are attached in ascending order; each one contributes the
    facet decomposition of the subcomplex its boundary already meets.
    `target`, if given, is the target of an earlier prism certificate of
    the same (n, m), which the new certificate shares instead of building
    the product again.
    """
    if not 0 < k < n:
        raise CertificateError("need an inner index 0 < k < n")
    if m < 0:
        raise CertificateError("need m >= 0")
    if n + m > GLOBAL_DIM_BOUND:
        raise CertificateError(f"prism certificate in Delta^{n} x Delta^{m} needs n + m <= {GLOBAL_DIM_BOUND}")
    A, B = standard_simplex(n), standard_simplex(m)
    if target is None:
        X = product(A, B).complex
    elif target.dim_bound == n + m and {target.labels.get(v) for v in target.nondegenerate[0]} == {
        (A.expr(a), B.expr(b)) for a in A.nondegenerate[0] for b in B.nondegenerate[0]
    }:
        X = target
    else:
        raise CertificateError(f"target is not Delta^{n} x Delta^{m}")
    # a cell lies in Lambda^n_k x Delta^m exactly when its first component's
    # base is a cell of the horn, and in Delta^n x bd Delta^m exactly when
    # its second component's base is not Delta^m
    horn = {e.base for e in build_standard("horn", n, k)[1].assignment.values()}
    top_b = B.nondegenerate[m][0]
    vertices_a: dict[SimplexExpr, tuple[int, ...]] = {}
    vertices_b: dict[SimplexExpr, tuple[int, ...]] = {}
    id_of_chain = {}
    source_chains = set()
    for s, (e1, e2) in X.labels.items():
        v1 = vertices_a.get(e1)
        if v1 is None:
            v1 = vertices_a[e1] = A.vertex_ids(e1)
        v2 = vertices_b.get(e2)
        if v2 is None:
            v2 = vertices_b[e2] = B.vertex_ids(e2)
        chain = tuple(zip(v1, v2))
        id_of_chain[chain] = s
        if e1[1] in horn or e2[1] != top_b:
            source_chains.add(chain)
    source_ids = frozenset(id_of_chain[c] for c in source_chains)
    desc = f"(Lambda^{n}_{k} x Delta^{m}) u (Delta^{n} x bd Delta^{m})"
    stage = set(source_chains)
    all_steps = []
    order = shuffles(n, m)
    for idx, sigma in enumerate(order):
        chain = sigma.points
        N = n + m
        faces_present = frozenset(
            i for i in range(N + 1) if chain[:i] + chain[i + 1 :] in stage
        )
        _assert_intersection_generated(chain, stage, faces_present)
        if not {0, N} <= faces_present:
            raise CertificateError("outer faces of a shuffle must already be present")
        if idx == len(order) - 1:
            # the maximal shuffle: exactly the face d^k is missing
            if faces_present != frozenset(range(N + 1)) - {k}:
                raise CertificateError(
                    f"maximal shuffle should be missing exactly d^{k}, got {sorted(faces_present)}"
                )
        else:
            t = find_descending_segment(sigma, variant=1)
            if t is None:
                raise CertificateError("non-maximal shuffle without an up-right corner")
            if t + 1 in faces_present:
                raise CertificateError(f"face d^{t + 1} unexpectedly present")
        cell_steps = _facet_decomposition(tuple(range(N + 1)), faces_present)
        chain_steps = [(tuple(chain[v] for v in vs), kk) for vs, kk in cell_steps]
        all_steps += _steps_for_cells(X, id_of_chain, chain_steps)
        for sub_chain, kk in chain_steps:
            stage.add(sub_chain[:kk] + sub_chain[kk + 1 :])
            stage.add(sub_chain)
    if len(stage) != len(id_of_chain):
        raise CertificateError("certificate does not exhaust the product")
    return AnodyneCertificate(X, source_ids, tuple(all_steps), desc)


def _vertex_subsets(n: int):
    out = []
    for d in range(n + 1):
        out.extend(combinations(range(n + 1), d + 1))
    return out


@lru_cache(maxsize=None)
def _proper_faces(N: int) -> tuple:
    """(getter of the sub-tuple at the positions, bitmask of the positions
    left out) for every proper vertex subset of an N-simplex, in
    `_vertex_subsets` order."""
    full = (1 << (N + 1)) - 1
    return tuple(
        # a one-position getter slices, so that it too returns a tuple
        (itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(positions[0], positions[0] + 1)),
         full & ~sum(1 << v for v in positions))
        for positions in _vertex_subsets(N)
        if len(positions) <= N
    )


def _assert_intersection_generated(chain, stage, faces_present):
    """The part of the simplex already in the stage must be generated by its
    codimension-one faces (the delicate claim of the product construction):
    a proper face lies in the stage exactly when some present facet
    contains it, that is, leaves out a position the face leaves out."""
    present = sum(1 << i for i in faces_present)
    for getter, outside in _proper_faces(len(chain) - 1):
        sub = getter(chain)
        if (sub in stage) != bool(present & outside):
            raise CertificateError(
                f"intersection with the stage is not generated in codimension one at {sub}"
            )
