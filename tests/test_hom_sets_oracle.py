"""The forward-pass `hom_sets` and the indexed bounded word closure against
the algorithms they replaced.

The oracle lists every generator path of each hom-set of a loop-free
presentation, or every bounded walk of a looped one, and closes the lists
under the relations with `old_close_words`, which tries every relation in
both directions at every position of every word.  Its cost is exponential
in depth, so it runs only on small complexes.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from quasicat.cat import (
    FiniteCategory,
    cyclic_group_category,
    disjoint_union_category,
    free_iso_groupoid,
    nerve,
    preorder_category,
    product_category,
)
from quasicat.corpus import corpus_complexes, loop_free_corpus_complexes
from quasicat.jsonio import dumps, presentation_to_json
from quasicat.pathcat import (
    HomClass,
    HomEntry,
    HomSetTable,
    PresentedCategory,
    Relation,
    _longest_path,
    _topological_order,
    _word_key,
    bounded_hom_classes,
    hom_sets,
    is_loop_free,
    path_category,
)
from quasicat.simplicial import UnionFind, make_subcomplex

from helpers import corpus_nerves, corpus_products, validate_presentation

PRODUCT_CELL_LIMIT = 400


def out_edges(P, x):
    return [g for g in P.generators if P.gen_src[g] == x]


def word_vertices(P, word, start):
    vs = [start]
    for g in word:
        vs.append(P.gen_tgt[g])
    return vs


def old_close_words(P, x, words, max_len=None):
    """Union-find closure of a word set under single relation substitutions.

    Each relation is applied at every position, in both directions; with a
    bound, substitutions whose result exceeds the bound are skipped.  The
    word universe must already be substitution-closed (true for the full
    path set of a DAG, and for the length-bounded walk set).
    """
    universe = set(words)
    uf = UnionFind(universe)
    rules = []
    for rel in P.relations:
        rules.append((rel.lhs, rel.rhs, rel.src))
        rules.append((rel.rhs, rel.lhs, rel.src))
    for w in universe:
        vs = word_vertices(P, w, x)
        for lhs, rhs, at in rules:
            n = len(lhs)
            if max_len is not None and len(w) - n + len(rhs) > max_len:
                continue
            for i in range(len(w) - n + 1):
                if tuple(w[i : i + n]) != lhs:
                    continue
                if n == 0 and vs[i] != at:
                    continue
                w2 = w[:i] + rhs + w[i + n :]
                if w2 in universe:
                    uf.union(w, w2)
    classes = []
    class_of = {}
    for members in uf.groups().values():
        rep = min(members, key=_word_key)
        classes.append(HomClass(rep, len(members)))
        for w in members:
            class_of[w] = rep
    classes.sort(key=lambda c: _word_key(c.rep))
    return tuple(classes), class_of


def old_bounded_hom_classes(P, x, y, max_len: int) -> HomEntry:
    """Classes among words of length <= max_len; sound but possibly partial.

    The result is flagged partial unless the presentation is loop-free and
    the bound dominates the longest path, in which case it coincides with
    the exact table.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    words = []
    stack = [((), x)]
    while stack:
        word, at = stack.pop()
        if at == y:
            words.append(word)
        if len(word) < max_len:
            stack.extend((word + (g,), P.gen_tgt[g]) for g in out_edges(P, at))
    classes, class_of = old_close_words(P, x, words, max_len=max_len)
    order = _topological_order(P)
    partial = len(order) < len(P.objects) or max_len < _longest_path(P, order)
    return HomEntry(x, y, classes, partial, class_of)


def enumerated_hom_sets(P) -> HomSetTable:
    """Every path of every hom-set, closed under single relation substitutions."""
    paths = {(x, y): [] for x in P.objects for y in P.objects}
    for x in P.objects:
        stack = [((), x)]
        while stack:
            word, at = stack.pop()
            paths[(x, at)].append(word)
            stack.extend((word + (g,), P.gen_tgt[g]) for g in out_edges(P, at))
    entries = {}
    for (x, y), words in paths.items():
        classes, class_of = old_close_words(P, x, words)
        entries[(x, y)] = HomEntry(x, y, classes, False, class_of)
    return HomSetTable(entries)


def assert_matches_oracle(X):
    P = path_category(X)
    got, want = hom_sets(P), enumerated_hom_sets(P)
    assert got.entries.keys() == want.entries.keys()
    for (x, y), expected in want.entries.items():
        entry = got.entry(x, y)
        assert entry.classes == expected.classes, (x, y)
        for word, rep in expected._class_of.items():
            assert entry.class_of(word) == rep, (x, y, word)
        for z in P.objects:
            if z != y:
                for c in want.entry(x, z).classes:
                    with pytest.raises(KeyError):
                        entry.class_of(c.rep)
    assert dumps(presentation_to_json(P, got)) == dumps(presentation_to_json(P, want))
    return got


FIXTURES = {
    **{name: X for name, X in corpus_complexes().items() if is_loop_free(path_category(X))},
    **loop_free_corpus_complexes(),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_corpus_matches_oracle(name):
    assert_matches_oracle(FIXTURES[name])


def test_corpus_products_match_oracle():
    # one order of each pair of factors: X x Y and Y x X differ only in ids
    names = sorted(loop_free_corpus_complexes())
    checked = 0
    for i, a in enumerate(names):
        for b in names[i:]:
            prod = corpus_products()[a, b]
            if prod.complex.n_cells <= PRODUCT_CELL_LIMIT:
                assert_matches_oracle(prod.complex)
                checked += 1
    assert checked > 0


@st.composite
def thinned_poset_nerves(draw):
    """Nerve of a random poset, with some non-degenerate 2-simplices dropped.

    Dropping a triangle leaves its two routes unrelated, so hom-sets get
    more than one class; a full poset nerve only has 0 or 1 per hom-set.
    """
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    le = {(i, i) for i in range(n)} | {p for p in pairs if draw(st.booleans())}
    while True:
        extra = {(a, d) for a, b in le for c, d in le if b == c} - le
        if not extra:
            break
        le |= extra
    N = nerve(preorder_category(range(n), le), 2)
    triangles = N.nondegenerate[2]
    dropped = {t for t in triangles if draw(st.booleans())}
    sub, _ = make_subcomplex(N, set(N.cells()) - dropped)
    return sub


@settings(max_examples=150, deadline=None)
@given(thinned_poset_nerves())
def test_thinned_poset_nerves_match_oracle(X):
    assert_matches_oracle(X)


def test_thinned_nerve_has_several_classes():
    # B(chain2) without its one triangle: hom(0, 2) = {02, 01.12}
    N = nerve(preorder_category(range(3), {(i, j) for i in range(3) for j in range(i, 3)}), 2)
    sub, _ = make_subcomplex(N, set(N.cells()) - set(N.nondegenerate[2]))
    T = assert_matches_oracle(sub)
    assert [c.size for c in T.entry(0, 2).classes] == [1, 1]


# -- the bounded closure on looped presentations ---------------------------------


def assert_bounded_matches_oracle(X, max_lens):
    P = path_category(X)
    for max_len in max_lens:
        for x in P.objects:
            for y in P.objects:
                got = bounded_hom_classes(P, x, y, max_len)
                want = old_bounded_hom_classes(P, x, y, max_len)
                assert got.classes == want.classes, (x, y, max_len)
                assert got.partial == want.partial, (x, y, max_len)
                assert got._class_of == want._class_of, (x, y, max_len)


LOOPED = {
    name: X
    for name, X in {**corpus_complexes(), **corpus_nerves()}.items()
    if not is_loop_free(path_category(X))
}


@pytest.mark.parametrize("name", sorted(LOOPED))
def test_looped_corpus_bounded_matches_oracle(name):
    assert_bounded_matches_oracle(LOOPED[name], range(5))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_loop_free_corpus_bounded_matches_oracle(name):
    P = path_category(FIXTURES[name])
    longest = _longest_path(P, _topological_order(P))
    assert_bounded_matches_oracle(FIXTURES[name], (longest, longest + 1))


def test_rules_of_several_lengths_and_a_shared_longer_side_match_oracle():
    # the closure looks up one slice per left-side length: rules of lengths
    # 2 and 3 fire in one word, and two relations share the longer side abc
    a, b, c, f, g, h, k, m = range(10, 18)
    ends = {a: (0, 1), b: (1, 2), c: (2, 3), f: (0, 2), g: (1, 3), h: (0, 3), k: (0, 3), m: (0, 3)}
    relations = (
        Relation((a, b), (f,), 0, 2),
        Relation((a, b, c), (h,), 0, 3),
        Relation((k,), (a, b, c), 0, 3),
        Relation((b, c), (g,), 1, 3),
    )
    src, tgt = ({g: e[i] for g, e in ends.items()} for i in (0, 1))
    P = validate_presentation(PresentedCategory((0, 1, 2, 3), tuple(ends), src, tgt, relations))
    entry = bounded_hom_classes(P, 0, 3, 3)
    assert [(c.rep, c.size) for c in entry.classes] == [((h,), 5), ((m,), 1)]
    assert entry.class_of((k,)) == entry.class_of((f, c)) == entry.class_of((a, g)) == (h,)
    # looped: x^3 = x and x^3 = y share a side, and y^2 = 1 has an empty one
    x, y = 0, 1
    loops = (Relation((x, x, x), (x,), "*", "*"), Relation((x, x, x), (y,), "*", "*"), Relation((y, y), (), "*", "*"))
    Q = validate_presentation(PresentedCategory(("*",), (x, y), {x: "*", y: "*"}, {x: "*", y: "*"}, loops))
    for Z in (P, Q):
        for max_len in range(6):
            for s in Z.objects:
                for t in Z.objects:
                    got, want = bounded_hom_classes(Z, s, t, max_len), old_bounded_hom_classes(Z, s, t, max_len)
                    assert (got.classes, got._class_of) == (want.classes, want._class_of), (s, t, max_len)


def transformation_monoid(generators) -> FiniteCategory:
    """The monoid of maps {0, 1, 2} -> {0, 1, 2} generated by `generators`,
    as a one-object category; g after f is (g[f[0]], g[f[1]], g[f[2]])."""
    identity = (0, 1, 2)
    elements = {identity}
    frontier = [identity]
    while frontier:
        f = frontier.pop()
        for g in generators:
            gf = tuple(g[i] for i in f)
            if gf not in elements:
                elements.add(gf)
                frontier.append(gf)
    arrows = sorted(elements)
    return FiniteCategory(
        ("*",),
        arrows,
        {f: "*" for f in arrows},
        {f: "*" for f in arrows},
        {"*": identity},
        {(g, f): tuple(g[i] for i in f) for g in arrows for f in arrows},
    )


@st.composite
def groupoid_and_monoid_nerves(draw):
    """The 2-skeleton of the nerve of a small monoid or groupoid.

    The monoid is generated by one or two maps of a 3-element set, so it may
    hold a group (a 3-cycle gives Z/3), idempotents, or both.  It is
    optionally put beside or multiplied by a small groupoid, which gives
    several objects with loops at each.  Inverse pairs give relations
    f.g = () with an empty side.
    """
    maps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    M = transformation_monoid(draw(st.lists(maps, min_size=1, max_size=2)))
    assume(len(M.arrows) <= 5)
    other = draw(st.sampled_from([None, free_iso_groupoid(), cyclic_group_category(2)]))
    if other is not None:
        combine = draw(st.sampled_from([disjoint_union_category, product_category]))
        C = combine(M, other)
        assume(len(C.arrows) <= 12)
    else:
        C = M
    return nerve(C, 2)


@settings(max_examples=60, deadline=None)
@given(groupoid_and_monoid_nerves())
def test_groupoid_and_monoid_nerves_bounded_match_oracle(X):
    assert_bounded_matches_oracle(X, range(5))
