"""The two isomorphism searches against brute force and the code they replaced.

`iso_check` runs `map_search` over the cells in dimension order, each
candidate read from an index of the target's non-degenerate cells; it is
checked against a search over every per-dimension bijection on tiny drawn
complexes, and against the explicit-stack backtracker it replaced (kept
below) on relabelled corpus complexes and on drawn pairs.
`category_iso` filters `enumerate_functors`; the backtracker it replaced
is kept below as an oracle.
"""

import random
from itertools import permutations, product

from hypothesis import given, settings, strategies as st

from quasicat.cat import CategoryError, FiniteFunctor
from quasicat.corpus import corpus_categories, corpus_complexes
from quasicat.simplicial import SimplexExpr, SimplicialMap, SimplicialSet, SizeLimitError, iso_check

from helpers import category_iso, corpus_nerves, relabel, tiny_complexes, validate_map


# -- iso_check ----------------------------------------------------------------------


def backtrack_iso_check(X: SimplicialSet, Y: SimplicialSet, limit: int = 64) -> SimplicialMap | None:
    """The explicit-stack backtracker `iso_check` replaced, verbatim: each
    cell's candidates are filtered from Y's face index over every
    expression, degenerate ones included."""
    if X.n_cells > limit or Y.n_cells > limit:
        raise SizeLimitError(f"iso_check limit {limit} exceeded")
    top = max(X.dim, Y.dim, 0)
    cx = tuple(len(X.nondegenerate[d]) if d <= X.dim_bound else 0 for d in range(top + 1))
    cy = tuple(len(Y.nondegenerate[d]) if d <= Y.dim_bound else 0 for d in range(top + 1))
    if cx != cy:
        return None
    order = list(X.cells())
    index = [Y.face_index(d, tuple(range(d + 1)) if d else ()) for d in range(X.dim + 1)]
    phi: dict[int, int] = {}
    used: set[int] = set()

    def candidates(s: int):
        want = tuple(SimplexExpr(e.word, phi[e.base], e.dim) for e in X.faces.get(s, ()))
        return iter([e.base for e in index[X.dim_of[s]].get(want, ()) if not e.word and e.base not in used])

    stack = [candidates(order[0])] if order else []
    while len(phi) < len(order):
        if not stack:
            return None
        s = order[len(stack) - 1]
        used.discard(phi.pop(s, None))
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        phi[s] = t
        used.add(t)
        if len(stack) < len(order):
            stack.append(candidates(order[len(stack)]))
    return SimplicialMap(X, Y, {s: Y.expr(t) for s, t in phi.items()})


def assert_same_answer(X, Y):
    got, want = iso_check(X, Y, limit=512), backtrack_iso_check(X, Y, limit=512)
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.assignment.items()) == list(want.assignment.items())
    return got


def assert_isomorphism(phi, X, Y):
    assert phi is not None
    validate_map(phi)
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


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_iso_check_matches_backtracker_on_corpus(seed):
    # each corpus complex against a relabelling of itself, which is
    # isomorphic, and of every other complex with its cell counts, which
    # mostly is not; the same bijection, or None on both sides
    rng = random.Random(seed)
    fixtures = corpus_fixtures()
    answers = set()
    for X in fixtures.values():
        for Z in fixtures.values():
            if Z is X or Z.counts() == X.counts():
                answers.add(assert_same_answer(X, relabel(Z, rng)) is None)
    assert answers == {False, True}


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
    phi = assert_same_answer(X, Y)
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
