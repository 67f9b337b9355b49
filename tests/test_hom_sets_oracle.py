"""The forward-pass `hom_sets` against the path-enumerating algorithm it replaced.

The oracle lists every generator path of each hom-set of a loop-free
presentation and closes the lists under the relations with `_close_words`.
Its cost is exponential in depth, so it runs only on small complexes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from quasicat.cat import nerve, preorder_category
from quasicat.corpus import corpus_complexes, loop_free_corpus_complexes
from quasicat.jsonio import dumps, presentation_to_json
from quasicat.pathcat import (
    HomEntry,
    HomSetTable,
    _close_words,
    hom_sets,
    is_loop_free,
    path_category,
)
from quasicat.simplicial import make_subcomplex, product

PRODUCT_CELL_LIMIT = 400


def enumerated_hom_sets(P) -> HomSetTable:
    """Every path of every hom-set, closed under single relation substitutions."""
    paths = {(x, y): [] for x in P.objects for y in P.objects}
    for x in P.objects:
        stack = [((), x)]
        while stack:
            word, at = stack.pop()
            paths[(x, at)].append(word)
            stack.extend((word + (g,), P.gen_tgt[g]) for g in P.out_edges(at))
    entries = {}
    for (x, y), words in paths.items():
        classes, class_of = _close_words(P, x, words)
        entries[(x, y)] = HomEntry(x, y, classes, False, class_of)
    return HomSetTable(P, entries)


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
            prod = product(FIXTURES[a], FIXTURES[b], dim_bound=2)
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
