"""The id walk behind `hom_sets` and `product_tables_agree` against the
rep-keyed pass and the prefix-memo comparison it replaced.

`old_hom_sets` and `old_prefix_tables_agree` (in `helpers`) keyed every
class, transition and projection by its rep word.  They do not list paths,
so unlike the enumerating oracle of `test_hom_sets_oracle` they reach
presentations of the size the word-problem benchmark runs: poset nerves of
8 to 20 objects and the 2-skeleta of Delta^a x Delta^b.

`old_walk` applies every relation into an object; `_walk` stops once the
candidates are one class.  Both must hand out the same ids, transitions,
parents, last generators and sizes, so the early exit is checked on the
record, not only on the classes.  `path_category` no longer validates its
presentation; a property keeps the guarantee it relies on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quasicat import acceptance, pathcat
from quasicat.cat import nerve, preorder_category
from quasicat.jsonio import dumps, presentation_to_json
from quasicat.pathcat import _walk, hom_sets, path_category, product_tables_agree
from quasicat.corpus import corpus_complexes
from quasicat.simplicial import (
    SimplexExpr,
    SimplicialSet,
    UnionFind,
    build_standard,
    make_subcomplex,
    product,
    product_cell_count,
    standard_simplex,
)

import helpers
from helpers import old_hom_sets, old_prefix_tables_agree, old_walk, tiny_complexes, truncate, validate_presentation


def outcome(fn, *args):
    """The result, or "KeyError" where `fn` raises one."""
    try:
        return fn(*args)
    except KeyError:
        return "KeyError"


def poset_nerve(rng: random.Random, n: int, density: float, dropped: int):
    """2-skeleton of the nerve of a random poset on range(n), without
    `dropped` of its non-degenerate 2-simplices (fewer if it has fewer)."""
    less = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    while True:
        extra = {(a, d) for a, b in less for c, d in less if b == c} - less
        if not extra:
            break
        less |= extra
    N = nerve(preorder_category(range(n), less | {(i, i) for i in range(n)}), 2)
    triangles = N.nondegenerate[2]
    drop = set(rng.sample(triangles, min(dropped, len(triangles))))
    return make_subcomplex(N, set(N.cells()) - drop)[0]


@st.composite
def wordproblem_complexes(draw):
    """A poset nerve of 8 to 20 objects with a few 2-cells dropped, or the
    2-skeleton of Delta^a x Delta^b with a + b <= 6."""
    if draw(st.booleans()):
        a = draw(st.integers(0, 6))
        b = draw(st.integers(0, 6 - a))
        return product(standard_simplex(a), standard_simplex(b), dim_bound=2).complex
    rng = random.Random(draw(st.integers(0, 2**32)))
    return poset_nerve(rng, draw(st.integers(8, 20)), draw(st.floats(0.1, 0.9)), draw(st.integers(0, 10)))


@st.composite
def small_nerves(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    return poset_nerve(rng, draw(st.integers(1, 5)), draw(st.floats(0.2, 1.0)), draw(st.integers(0, 4)))


def assert_table_matches_old(P):
    got, want = hom_sets(P), old_hom_sets(P)
    assert got.entries.keys() == want.entries.keys()
    out = {x: [] for x in P.objects}
    for g in P.generators:
        out[P.gen_src[g]].append(g)
    for (x, y), entry in want.entries.items():
        assert got.entries[x, y].classes == entry.classes, (x, y)
    for x in P.objects:
        # every rep out of x and each of its one-generator extensions, asked
        # of the entry it belongs to and of the identity's
        words = []
        for y in P.objects:
            for c in want.entries[x, y].classes:
                words.append((c.rep, y))
                words.extend((c.rep + (g,), P.gen_tgt[g]) for g in out[y])
        for word, y in words:
            for z in {y, x}:
                new, old = got.entries[x, z], want.entries[x, z]
                assert outcome(new.class_of, word) == outcome(old.class_of, word), (x, z, word)
    assert dumps(presentation_to_json(P, got)) == dumps(presentation_to_json(P, want))


@settings(max_examples=40, deadline=None)
@given(wordproblem_complexes())
def test_wordproblem_sized_tables_match_the_rep_keyed_pass(X):
    assert_table_matches_old(path_category(X))


@settings(max_examples=100, deadline=None)
@given(small_nerves(), small_nerves(), small_nerves(), st.integers(0, 2))
def test_comparison_agrees_with_the_prefix_memo_one(X, Y, Z, mismatch):
    # mismatch 1 and 2 pass the table of Z for one factor
    if product_cell_count(X, Y, 2) > 400:
        return
    prod = product(X, Y, dim_bound=2)
    new = [hom_sets(path_category(K)) for K in (X, Y, Z)]
    old = [old_hom_sets(path_category(K)) for K in (X, Y, Z)]
    pick = (2 if mismatch == 1 else 0, 2 if mismatch == 2 else 1)
    got = outcome(product_tables_agree, prod, *(new[i] for i in pick))
    assert got == outcome(old_prefix_tables_agree, prod, *(old[i] for i in pick))


def edges_and_triangles(edges: dict, triangles: dict) -> SimplicialSet:
    """Vertices 0, 1, 2, edges id -> (src, tgt), triangles id -> faces as
    edge ids, or a vertex id for a degenerate face."""
    v = [SimplexExpr((), i, 0) for i in range(3)]
    faces = {e: (v[t], v[s]) for e, (s, t) in edges.items()}
    for t, fs in triangles.items():
        faces[t] = tuple(SimplexExpr((), f, 1) if f in edges else SimplexExpr((0,), f, 1) for f in fs)
    return SimplicialSet(2, [[0, 1, 2], sorted(edges), sorted(triangles)], faces)


def test_classes_are_checked_in_rep_order():
    # hom(0, 2) of X has three classes, one per generator.  The wrong
    # table, of W, merges 5 and 6 and has no generator 3 or 10, so one
    # class's projection repeats another's and one leaves W's table:
    # whichever comes first in rep order decides
    W = edges_and_triangles({5: (0, 2), 6: (0, 2), 7: (0, 2), 8: (0, 2)}, {9: (2, 5, 6)})
    assert len(hom_sets(path_category(W)).entry(0, 2)) == 3
    point = standard_simplex(0)
    for edges, want in (((5, 6, 10), False), ((3, 5, 6), "KeyError")):
        X = edges_and_triangles({e: (0, 2) for e in edges}, {})
        prod = product(X, point, dim_bound=2)
        new = hom_sets(path_category(W)), hom_sets(path_category(point))
        old = old_hom_sets(path_category(W)), old_hom_sets(path_category(point))
        assert outcome(product_tables_agree, prod, *new) == outcome(old_prefix_tables_agree, prod, *old) == want


def generator_paths(P, x, y) -> int:
    """Number of generator paths x -> y, by a DP over the generators."""
    out = {v: [] for v in P.objects}
    for g in P.generators:
        out[P.gen_src[g]].append(P.gen_tgt[g])
    memo = {}

    def to_y(v):
        if v not in memo:
            memo[v] = (v == y) + sum(to_y(w) for w in out[v])
        return memo[v]

    return to_y(x)


def criterion_2_products(monkeypatch):
    built = []

    def recorded(X, Y, dim_bound=None):
        built.append(product(X, Y, dim_bound))
        return built[-1]

    monkeypatch.setattr(acceptance, "product", recorded)
    assert acceptance.criterion_2_products().ok
    return built


def test_parents_and_last_generators_spell_the_reps(monkeypatch):
    # the KeyError order of a failing comparison rests on this: a class's
    # projections are read off its parent's, along its last generator
    products = criterion_2_products(monkeypatch)
    assert len(products) == 318
    for prod in products:
        P = path_category(prod.complex)
        walk, old = _walk(P), old_hom_sets(P)
        rep = {}
        for (x, y), entry in old.entries.items():
            ids = walk.homs[x].get(y, range(0))
            assert len(ids) == len(entry.classes)
            rep.update(zip(ids, (c.rep for c in entry.classes)))
            assert sum(walk.size[i] for i in ids) == generator_paths(P, x, y), (x, y)
        assert len(rep) == len(walk.parent)
        for i, word in rep.items():
            if word:
                assert (rep[walk.parent[i]], walk.last[i]) == (word[:-1], word[-1])
            else:
                assert (walk.parent[i], walk.last[i]) == (-1, None)


def test_criterion_2_dresses_only_the_factor_tables(monkeypatch):
    tables = []
    entries = []

    def recorded(P):
        tables.append(hom_sets(P))
        return tables[-1]

    class CountedEntry(pathcat.HomEntry):
        def __init__(self, *args):
            super().__init__(*args)
            entries.append(self)

    monkeypatch.setattr(acceptance, "hom_sets", recorded)
    monkeypatch.setattr(pathcat, "HomEntry", CountedEntry)
    assert acceptance.criterion_2_products().ok
    assert len(tables) == 19
    assert len(entries) == sum(len(T.entries) for T in tables)


def assert_same_walk(P):
    got, want = _walk(P), old_walk(P)
    assert [(x, list(homs.items())) for x, homs in got.homs.items()] == [
        (x, list(homs.items())) for x, homs in want.homs.items()
    ]
    assert list(got.step.items()) == list(want.step.items())
    assert (got.parent, got.last, got.size) == (want.parent, want.last, want.size)
    return got


def without_triangles(X, rng: random.Random, dropped: int):
    """The 2-skeleton of X without `dropped` of its 2-cells."""
    X = truncate(X, min(X.dim_bound, 2))
    triangles = X.nondegenerate[2] if X.dim_bound >= 2 else ()
    drop = set(rng.sample(triangles, min(dropped, len(triangles))))
    return make_subcomplex(X, set(X.cells()) - drop)[0]


@st.composite
def multi_class_complexes(draw):
    """Complexes whose hom-sets often have several classes: a poset nerve,
    the 2-skeleton of Delta^a x Delta^b or of Delta^n, or the boundary or a
    horn of Delta^n (like `boundary2`), each with some 2-cells dropped."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["poset", "prism", "simplex", "boundary", "horn"]))
    dropped = draw(st.integers(0, 8))
    if kind == "poset":
        return poset_nerve(rng, draw(st.integers(3, 12)), draw(st.floats(0.2, 1.0)), dropped)
    if kind == "prism":
        a = draw(st.integers(1, 4))
        X = product(standard_simplex(a), standard_simplex(draw(st.integers(1, 5 - a))), dim_bound=2).complex
    elif kind == "simplex":
        X = standard_simplex(draw(st.integers(2, 5)))
    else:
        n = draw(st.integers(2, 5))
        X = build_standard(kind, n, draw(st.integers(0, n)) if kind == "horn" else None)[0]
    return without_triangles(X, rng, dropped)


@settings(max_examples=150, deadline=None)
@given(multi_class_complexes())
def test_walk_record_matches_the_walk_applying_every_relation(X):
    assert_same_walk(path_category(X))


def test_the_walk_stops_applying_relations_at_one_class(monkeypatch):
    # Delta^4 has one class in each hom(i, j): its walk stops early and makes
    # fewer unions than the old one, with the same record; boundary2 keeps
    # hom(0, 2) at two classes, so every relation into 2 is applied
    unions = []

    class CountedUnionFind(UnionFind):
        def union(self, a, b):
            unions.append((a, b))
            return super().union(a, b)

    monkeypatch.setattr(pathcat, "UnionFind", CountedUnionFind)
    monkeypatch.setattr(helpers, "UnionFind", CountedUnionFind)
    P = path_category(standard_simplex(4))
    _walk(P)
    new = len(unions)
    unions.clear()
    old_walk(P)
    assert 0 < new < len(unions)
    assert_same_walk(P)
    boundary = path_category(build_standard("boundary", 2)[0])
    walk = assert_same_walk(boundary)
    assert len(walk.homs[0][2]) == 2


def test_walk_record_matches_on_the_corpus_and_its_products():
    complexes = corpus_complexes()
    for name, X in complexes.items():
        if X.dim_bound >= 1 and pathcat.is_loop_free(path_category(X)):
            assert_same_walk(path_category(X))
    prism = product(complexes["boundary2"], standard_simplex(1), dim_bound=2).complex
    assert max(map(len, assert_same_walk(path_category(prism)).homs[0].values())) > 1


@settings(max_examples=100, deadline=None)
@given(tiny_complexes((3, 5, 6)))
def test_path_category_of_a_drawn_complex_validates(X):
    # path_category trusts the simplicial identities of its complex
    assert validate_presentation(path_category(X))


def test_path_category_of_every_corpus_complex_validates():
    for X in corpus_complexes().values():
        assert validate_presentation(path_category(X))


def test_validate_presentation_refuses_what_the_identities_rule_out():
    P = path_category(standard_simplex(2))
    (rel,) = P.relations
    broken = (
        pathcat.Relation(rel.lhs[::-1], rel.rhs, rel.src, rel.tgt),  # the words do not compose
        pathcat.Relation(rel.lhs, rel.rhs, rel.src, rel.src),  # wrong target
    )
    for bad in broken:
        with pytest.raises(ValueError):
            validate_presentation(pathcat.PresentedCategory(P.objects, P.generators, P.gen_src, P.gen_tgt, (bad,)))
    gen_tgt = {**P.gen_tgt, P.generators[0]: "nowhere"}  # an end that is no object
    with pytest.raises(ValueError):
        validate_presentation(pathcat.PresentedCategory(P.objects, P.generators, P.gen_src, gen_tgt))

