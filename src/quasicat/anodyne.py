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

Both builders work on cell ids: a cell's faces, by the bitmask of the
positions they keep, are read through the target's face rows by a plan
cached per dimension, a step's horn is its cell's own face row, and the
stage is a set of ids.  A shared target whose rows do not fit is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .simplicial import (
    GLOBAL_DIM_BOUND,
    SimplicialError,
    SimplicialSet,
    acyclic,
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


@lru_cache(maxsize=None)
def _face_plan(N: int) -> tuple[tuple[int, int, int], ...]:
    """(mask, parent, i) for every proper non-empty set `mask` of vertex
    positions of an N-simplex, larger sets first: the face on `mask` is
    face i of the face on `parent`, which also keeps the lowest position
    that `mask` leaves out."""
    plan = []
    for mask in sorted(range(1, (1 << (N + 1)) - 1), key=lambda m: -m.bit_count()):
        low = ~mask & (mask + 1)
        plan.append((mask, mask | low, (mask & (low - 1)).bit_count()))
    return tuple(plan)


def _sub_faces(X: SimplicialSet, top: int, N: int) -> list:
    """The id of every face of the N-cell `top`, indexed by the bitmask of
    the vertex positions it keeps (None at the empty mask), read through
    the target's face rows."""
    faces = X.faces
    sub = [None] * (1 << (N + 1))
    sub[-1] = top
    for mask, parent, i in _face_plan(N):
        sub[mask] = faces[sub[parent]][i][1]
    return sub


def _assert_intersection_generated(sub: list, stage: set, faces_present: frozenset[int]):
    """The part of the simplex already in the stage must be generated by its
    codimension-one faces (the delicate claim of the product construction):
    a proper face lies in the stage exactly when some present facet
    contains it, that is, leaves out a position the face leaves out."""
    present = sum(1 << i for i in faces_present)
    inside = list(map(stage.__contains__, sub[1:-1]))
    pattern = [bool(present & ~mask) for mask in range(1, len(sub) - 1)]
    if inside != pattern:
        mask = next(i for i, (a, b) in enumerate(zip(inside, pattern), 1) if a != b)
        raise CertificateError(
            f"intersection with the stage is not generated in codimension one at cell {sub[mask]}"
        )


def _cell_steps(X: SimplicialSet, sub: list, N: int, faces_present: frozenset[int], stage: set) -> list[CertStep]:
    """The steps decomposing <faces_present> inside the N-cell whose faces
    `sub` lists, each adding its cell and the cell's face d_k to the stage;
    a step's horn is the cell's own face row with slot k left empty."""
    faces = X.faces
    steps = []
    for vs, k in _facet_decomposition(tuple(range(N + 1)), faces_present):
        attached = sub[sum(1 << v for v in vs)]
        row = faces[attached]
        steps.append(CertStep(len(vs) - 1, k, row[:k] + (None,) + row[k + 1 :], attached))
        stage.add(row[k][1])
        stage.add(attached)
    return steps


@acyclic
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
    sub = _sub_faces(D, D.nondegenerate[n][0], n)
    full = len(sub) - 1
    source_ids = closure_ids(D, [sub[full ^ 1 << i] for i in sorted(S)])
    steps = _cell_steps(D, sub, n, S, set(source_ids))
    return AnodyneCertificate(D, source_ids, tuple(steps), f"<S> in Delta^{n}, S={sorted(S)}")


@acyclic
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
    labels = X.labels
    source_ids = frozenset(s for s, (e1, e2) in labels.items() if e1[1] in horn or e2[1] != top_b)
    desc = f"(Lambda^{n}_{k} x Delta^{m}) u (Delta^{n} x bd Delta^{m})"
    N = n + m
    id_of_chain = {
        tuple(zip(A.vertex_ids(labels[s][0]), B.vertex_ids(labels[s][1]))): s for s in X.nondegenerate[N]
    }
    full = (1 << (N + 1)) - 1
    stage = set(source_ids)
    all_steps = []
    order = shuffles(n, m)
    try:
        for idx, sigma in enumerate(order):
            sub = _sub_faces(X, id_of_chain[sigma.points], N)
            faces_present = frozenset(i for i in range(N + 1) if sub[full ^ 1 << i] in stage)
            _assert_intersection_generated(sub, stage, faces_present)
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
            all_steps += _cell_steps(X, sub, N, faces_present, stage)
    except (KeyError, IndexError):
        # only a shared target can get here: one the library built has these faces
        raise CertificateError(f"target is not Delta^{n} x Delta^{m}: its face rows do not fit") from None
    if len(stage) != X.n_cells:
        raise CertificateError("certificate does not exhaust the product")
    return AnodyneCertificate(X, source_ids, tuple(all_steps), desc)
