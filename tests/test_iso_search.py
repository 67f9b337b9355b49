"""The two isomorphism searches against brute force and the code they replaced.

`iso_check` backtracks over cells, each candidate read from the target's
face index; it is checked against a search over every per-dimension
bijection on tiny drawn complexes, and on relabelled corpus complexes.
`category_iso` filters `enumerate_functors`; the backtracker it replaced
is kept below as an oracle.
"""

import random
from itertools import permutations, product

from hypothesis import given, settings, strategies as st

from quasicat.cat import CategoryError, FiniteFunctor
from quasicat.corpus import corpus_categories, corpus_complexes, corpus_nerves
from quasicat.equivalence import category_iso
from quasicat.simplicial import SimplexExpr, SimplicialSet, iso_check


# -- iso_check ----------------------------------------------------------------------


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


def assert_isomorphism(phi, X, Y):
    assert phi is not None
    phi.validate()
    images = [phi.assignment[s] for s in X.cells()]
    assert all(not e.is_degenerate for e in images)
    assert sorted(e.base for e in images) == sorted(Y.cells())


def test_iso_check_backtracks_above_vertices():
    # two parallel edges 2, 3: 0 -> 1, and a triangle (s0 1, e, e) on edge 2
    # in X and on edge 3 in Y; the first edge matching fails at the triangle
    v = lambda i: SimplexExpr((), i, 0)
    edge = lambda i: SimplexExpr((), i, 1)
    s0 = SimplexExpr((0,), 1, 1)

    def witness_on(e):
        faces = {2: (v(1), v(0)), 3: (v(1), v(0)), 4: (s0, edge(e), edge(e))}
        return SimplicialSet(2, [[0, 1], [2, 3], [4]], faces)

    X, Y = witness_on(2), witness_on(3)
    phi = iso_check(X, Y)
    assert_isomorphism(phi, X, Y)
    assert phi.assignment[2] == edge(3)


def corpus_fixtures():
    out = dict(corpus_complexes())
    out.update(corpus_nerves(3))
    return out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabelled_corpus_complexes_are_isomorphic(seed):
    rng = random.Random(seed)
    for name, X in corpus_fixtures().items():
        Y = relabel(X, rng)
        assert_isomorphism(iso_check(X, Y, limit=X.n_cells), X, Y)


def brute_force_isomorphic(X, Y) -> bool:
    """Is some bijection per dimension face-commuting?"""
    if X.counts() != Y.counts():
        return False
    for images in product(*(permutations(level) for level in Y.nondegenerate)):
        phi = {s: t for level, image in zip(X.nondegenerate, images) for s, t in zip(level, image)}
        if all(
            tuple(SimplexExpr(e.word, phi[e.base], e.dim) for e in X.faces[s]) == Y.faces[t]
            for s, t in phi.items()
            if X.dim_of[s]
        ):
            return True
    return False


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
        for f0, f1, f2 in product(X1.all_exprs(1), repeat=3)
        if d(f1, 0) == d(f0, 0) and d(f2, 0) == d(f0, 1) and d(f2, 1) == d(f1, 1)
    ]
    chosen = draw(st.lists(st.sampled_from(shells), max_size=n_t)) if shells else []
    triangles = list(range(n_v + n_e, n_v + n_e + len(chosen)))
    faces.update(zip(triangles, chosen))
    return SimplicialSet(2, [list(range(n_v)), edges, triangles], faces)


@st.composite
def tiny_pairs(draw):
    counts = (draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    X = draw(tiny_complexes(counts))
    if draw(st.booleans()):
        return X, relabel(X, random.Random(draw(st.integers(0, 2**32 - 1))))
    return X, draw(tiny_complexes(counts))


@settings(max_examples=300, deadline=None)
@given(tiny_pairs())
def test_iso_check_matches_brute_force(pair):
    X, Y = pair
    phi = iso_check(X, Y)
    assert (phi is not None) == brute_force_isomorphic(X, Y)
    if phi is not None:
        assert_isomorphism(phi, X, Y)


# -- category_iso -------------------------------------------------------------------


def oracle_category_iso(C, D):
    """The backtracking search `category_iso` replaced, verbatim."""
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return None

    d_objects = list(D.objects)

    def arrow_backtrack(obj_map):
        hom_pairs = []
        for x in C.objects:
            for y in C.objects:
                hc = C.hom(x, y)
                hd = D.hom(obj_map[x], obj_map[y])
                if len(hc) != len(hd):
                    return None
                hom_pairs.append((hc, hd))
        arrow_map = {C.identity[x]: D.identity[obj_map[x]] for x in C.objects}

        def fill(pair_idx, perm_state):
            if pair_idx == len(hom_pairs):
                F = FiniteFunctor(C, D, dict(obj_map), dict(arrow_map))
                try:
                    F.validate()
                except CategoryError:
                    return None
                return F
            hc, hd = hom_pairs[pair_idx]
            free_c = [f for f in hc if f not in arrow_map]
            free_d = [g for g in hd if g not in set(arrow_map.values())]
            if len(free_c) != len(free_d):
                return None

            def place(i):
                if i == len(free_c):
                    return fill(pair_idx + 1, None)
                f = free_c[i]
                for g in free_d:
                    if g in set(arrow_map.values()):
                        continue
                    arrow_map[f] = g
                    res = place(i + 1)
                    if res is not None:
                        return res
                    del arrow_map[f]
                return None

            return place(0)

        return fill(0, None)

    def obj_backtrack(i, obj_map, used):
        if i == len(C.objects):
            return arrow_backtrack(dict(obj_map))
        x = C.objects[i]
        for y in d_objects:
            if y in used:
                continue
            if len(C.hom(x, x)) != len(D.hom(y, y)):
                continue
            obj_map[x] = y
            used.add(y)
            res = obj_backtrack(i + 1, obj_map, used)
            if res is not None:
                return res
            used.discard(y)
            del obj_map[x]
        return None

    return obj_backtrack(0, {}, set())


def test_category_iso_agrees_with_oracle():
    cats = list(corpus_categories().values())
    size = lambda C: (len(C.objects), len(C.arrows))
    pairs = [(C, D) for C in cats for D in cats if size(C) == size(D)]
    assert len(pairs) == 109
    found = 0
    for C, D in pairs:
        F = category_iso(C, D)
        assert (F is None) == (oracle_category_iso(C, D) is None), (C, D)
        if F is not None:
            found += 1
            F.validate()
            assert set(F.object_map.values()) == set(D.objects)
            assert set(F.arrow_map.values()) == set(D.arrows)
    # every category is isomorphic to itself, and some distinct pairs are too
    assert found > len(cats)
