"""Boundaries, horns, chains and horn faces against the code they replaced.

The oracles are the previous implementations, unchanged but for their
`old_` names:
- `old_subsets_complex` built a complex from the vertex subsets of {0..n}
  accepted by a predicate; `standard_simplex` and the boundaries and horns
  of `old_build_standard` were three calls to it;
- `old_boundary3_minus_face` generated bd Delta^3 minus the face {0,2,3}
  from its three other triangles;
- `old_saturation_step` found each face of an attached missing face by
  restricting a top face of the horn through `HornMap.face_image`;
- criterion 10 read a horn's leading edge by restricting the witness face
  to `old_positions_in_face` of the lead positions;
- `old_poset_category` built the chain's composition table itself.

Boundaries and horns are now subcomplexes of Delta^n, the missing face's
boundary comes from `HornMap.missing_face_boundary`, and the chain is a
preorder category.  Ids, labels, faces, inclusions and orders must not
change.
"""

from dataclasses import dataclass
from itertools import combinations

import pytest

from quasicat.cat import FiniteCategory, poset_category
from quasicat.corpus import corpus_complexes, quasi_category_corpus
from quasicat.jsonio import cat_to_json, sset_to_json
from quasicat.quasi import enumerate_horns, saturation_step
from quasicat.simplicial import (
    SimplexExpr,
    SimplicialError,
    SimplicialMap,
    SimplicialSet,
    build_standard,
    closure_ids,
    make_subcomplex,
    standard_simplex,
    with_coskeletal,
)

from helpers import corpus_nerves

# -- oracle: the previous code -----------------------------------------------------


def old_subsets_complex(n: int, keep, coskeletal_at: int | None) -> SimplicialSet:
    """Complex whose cells are the vertex subsets of {0..n} accepted by `keep`."""
    ids: dict[tuple[int, ...], int] = {}
    nondeg: list[list[int]] = [[] for _ in range(n + 1)]
    labels: dict[int, object] = {}
    next_id = 0
    for d in range(n + 1):
        for vs in combinations(range(n + 1), d + 1):
            if keep(vs):
                ids[vs] = next_id
                nondeg[d].append(next_id)
                labels[next_id] = vs
                next_id += 1
    faces = {}
    for vs, s in ids.items():
        d = len(vs) - 1
        if d >= 1:
            faces[s] = tuple(
                SimplexExpr((), ids[vs[:i] + vs[i + 1 :]], d - 1) for i in range(d + 1)
            )
    return SimplicialSet(n if n >= 0 else 0, nondeg, faces, coskeletal_at, labels)


def old_build_standard(kind: str, n: int, k: int | None = None):
    if kind == "simplex":
        if n < 0:
            raise SimplicialError("n must be >= 0")
        return standard_simplex(n)
    if n < 1:
        raise SimplicialError("boundary/horn need n >= 1")
    full = range(n + 1)
    if kind == "boundary":
        sub = old_subsets_complex(n, lambda vs: len(vs) <= n, coskeletal_at=n)
    elif kind == "horn":
        if k is None or not 0 <= k <= n:
            raise SimplicialError(f"horn index {k} outside 0..{n}")
        missing = tuple(v for v in full if v != k)
        sub = old_subsets_complex(
            n, lambda vs: len(vs) <= n and vs != missing, coskeletal_at=n
        )
    else:
        raise SimplicialError(f"unknown kind {kind!r}")
    simplex = standard_simplex(n)
    target_ids = {simplex.labels[s]: s for s in simplex.cells()}
    incl = SimplicialMap(
        sub,
        simplex,
        {
            s: SimplexExpr((), target_ids[sub.labels[s]], sub.dim_of[s])
            for s in sub.cells()
        },
    )
    return sub, incl


def old_boundary3_minus_face() -> SimplicialSet:
    D3 = standard_simplex(3)
    by_label = {D3.labels[s]: s for s in D3.cells()}
    seeds = [by_label[(1, 2, 3)], by_label[(0, 1, 3)], by_label[(0, 1, 2)]]
    sub, _ = make_subcomplex(D3, closure_ids(D3, seeds))
    return with_coskeletal(sub, 3)


@dataclass
class OldSaturationResult:
    complex: SimplicialSet
    inclusion: SimplicialMap
    horns_attached: int
    cells_added: int


def old_saturation_step(X: SimplicialSet, max_dim: int) -> OldSaturationResult:
    nondeg = [list(level) for level in X.nondegenerate]
    while len(nondeg) <= max(max_dim, X.dim_bound):
        nondeg.append([])
    faces = dict(X.faces)
    labels = dict(X.labels)
    next_id = max(X.dim_of, default=-1) + 1
    horn_count = 0
    added = 0
    for n in range(2, max_dim + 1):
        for k in range(1, n):
            for h in enumerate_horns(X, n, k):
                horn_count += 1
                missing_vs = tuple(v for v in range(n + 1) if v != k)
                face_cell = next_id
                next_id += 1
                faces[face_cell] = tuple(
                    h.face_image(X, missing_vs[:i] + missing_vs[i + 1 :])
                    for i in range(n)
                )
                nondeg[n - 1].append(face_cell)
                labels[face_cell] = ("attached-face", n, k, horn_count)
                top_cell = next_id
                next_id += 1
                top_faces = list(h.top)
                top_faces[k] = SimplexExpr((), face_cell, n - 1)
                faces[top_cell] = tuple(top_faces)
                nondeg[n].append(top_cell)
                labels[top_cell] = ("attached-cell", n, k, horn_count)
                added += 2
    Y = SimplicialSet(max(max_dim, X.dim_bound), nondeg, faces, None, labels, check=False)
    incl = SimplicialMap(X, Y, {s: SimplexExpr((), s, X.dim_of[s]) for s in X.cells()})
    return OldSaturationResult(Y, incl, horn_count, added)


def old_positions_in_face(i: int, positions) -> tuple:
    return tuple(p if p < i else p - 1 for p in positions)


def old_poset_category(n: int) -> FiniteCategory:
    """The chain 0 <= 1 <= ... <= n as a category."""
    objects = tuple(range(n + 1))
    arrows = tuple((i, j) for i in objects for j in objects if i <= j)
    compose = {}
    for g in arrows:
        for f in arrows:
            if f[1] == g[0]:
                compose[(g, f)] = (f[0], g[1])
    return FiniteCategory(
        objects,
        arrows,
        {a: a[0] for a in arrows},
        {a: a[1] for a in arrows},
        {i: (i, i) for i in objects},
        compose,
        name=f"chain{n}",
    )


# -- comparisons ------------------------------------------------------------------


def assert_same_complex(X: SimplicialSet, Y: SimplicialSet):
    assert sset_to_json(X) == sset_to_json(Y)
    assert list(X.labels.items()) == list(Y.labels.items())


@pytest.mark.parametrize("n", range(9))
def test_standard_simplex_unchanged(n):
    assert_same_complex(standard_simplex(n), old_subsets_complex(n, lambda vs: True, coskeletal_at=min(n, 1)))


SHAPES = [("boundary", n, None) for n in range(1, 9)] + [
    ("horn", n, k) for n in range(1, 9) for k in range(n + 1)
]


@pytest.mark.parametrize("kind,n,k", SHAPES)
def test_boundaries_and_horns_unchanged(kind, n, k):
    sub, incl = build_standard(kind, n, k)
    old_sub, old_incl = old_build_standard(kind, n, k)
    assert_same_complex(sub, old_sub)
    assert incl.source is sub and incl.target is old_incl.target
    assert list(incl.assignment.items()) == list(old_incl.assignment.items())


def test_boundary3_minus_face_is_the_horn():
    table = corpus_complexes()
    assert_same_complex(table["boundary3_minus_face"], old_boundary3_minus_face())
    assert table["boundary3_minus_face"] is table["horn_3_1"]
    assert list(table) == [
        "delta0", "delta1", "delta2", "delta3", "boundary2", "boundary3",
        "horn_2_0", "horn_2_1", "horn_2_2", "horn_3_1", "horn_3_2",
        "square", "interval_nerve", "boundary3_minus_face", "walking_homotopy",
    ]


SATURATED = {**corpus_complexes(), **corpus_nerves(3)}


@pytest.mark.parametrize("max_dim", [2, 3])
@pytest.mark.parametrize("name", sorted(SATURATED))
def test_saturation_step_unchanged(name, max_dim):
    X = SATURATED[name]
    res, old = saturation_step(X, max_dim), old_saturation_step(X, max_dim)
    assert_same_complex(res.complex, old.complex)
    assert (res.horns_attached, res.cells_added) == (old.horns_attached, old.cells_added)
    assert res.inclusion.assignment == old.inclusion.assignment


def test_missing_face_boundary_is_the_restricted_horn():
    checked = 0
    for X in quasi_category_corpus(4).values():
        for n in range(2, min(4, X.dim_bound) + 1):
            for k in range(n + 1):
                missing_vs = tuple(v for v in range(n + 1) if v != k)
                for h in enumerate_horns(X, n, k):
                    old = tuple(h.face_image(X, missing_vs[:i] + missing_vs[i + 1 :]) for i in range(n))
                    assert h.missing_face_boundary(X) == old
                    checked += 1
    assert checked > 1000


def test_criterion_10_leading_edge_unchanged():
    checked = 0
    for X in quasi_category_corpus(dim_bound=4).values():
        for n in range(2, min(4, X.dim_bound) + 1):
            for k, lead_positions in ((0, (0, 1)), (n, (n - 1, n))):
                for h in enumerate_horns(X, n, k):
                    witness_face = 2 if k == 0 else 0
                    old = X.restrict(h.top[witness_face], old_positions_in_face(witness_face, lead_positions))
                    assert h.face_image(X, lead_positions) == old
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("n", range(7))
def test_poset_category_unchanged(n):
    C, old = poset_category(n), old_poset_category(n)
    assert cat_to_json(C) == cat_to_json(old)
    assert C.name == old.name
    assert C.objects == old.objects and C.arrows == old.arrows
    assert list(C.compose_table.items()) == list(old.compose_table.items())
    assert list(C.identity.items()) == list(old.identity.items())
    assert (list(C.src.items()), list(C.tgt.items())) == (list(old.src.items()), list(old.tgt.items()))
