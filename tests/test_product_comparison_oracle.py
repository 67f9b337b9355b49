"""Criterion 2, `product_tables_agree`, `product_comparison` and
`path_category` against the code they replaced.

The oracles are the previous `product_tables_agree`, which walked both
projected words of every class through `HomEntry.class_of`, and the
previous `path_category`, which read a triangle's ends from its vertex
ids.  Criterion 2 now checks each distinct ordered pair of complexes once,
keyed by content; its per-name verdicts are checked against a fresh
comparison of every pair it counts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from quasicat import acceptance, pathcat
from quasicat.cat import nerve, preorder_category
from quasicat.corpus import corpus_complexes, loop_free_corpus_complexes, quasi_category_corpus
from quasicat.pathcat import (
    PresentedCategory,
    Relation,
    hom_sets,
    path_category,
    product_comparison,
    product_tables_agree,
)
from quasicat.simplicial import (
    SimplexExpr,
    SimplicialSet,
    make_subcomplex,
    product,
    product_cell_count,
    standard_simplex,
)

from helpers import corpus_nerves, validate_presentation

CELL_LIMIT = 200  # criterion 2's default


def old_product_tables_agree(prod, TX, TY) -> bool:
    PXY = path_category(prod.complex)
    TXY = hom_sets(PXY)
    vertex_pair = {v: (prod.pairs[v][0].base, prod.pairs[v][1].base) for v in PXY.objects}

    def project(word, side):
        out = []
        for e in word:
            comp = prod.pairs[e][side]
            if not comp.is_degenerate:
                out.append(comp.base)
        return tuple(out)

    for a in PXY.objects:
        for b in PXY.objects:
            (x1, y1), (x2, y2) = vertex_pair[a], vertex_pair[b]
            exy = TXY.entry(a, b)
            ex = TX.entry(x1, x2)
            ey = TY.entry(y1, y2)
            if len(exy) != len(ex) * len(ey):
                return False
            seen = set()
            for c in exy.classes:
                pair = (ex.class_of(project(c.rep, 0)), ey.class_of(project(c.rep, 1)))
                if pair in seen:
                    return False
                seen.add(pair)
    return True


def old_path_category(X: SimplicialSet) -> PresentedCategory:
    objects = X.vertices()
    generators = X.nondegenerate[1] if X.dim_bound >= 1 else ()
    gen_src = {}
    gen_tgt = {}
    for e in generators:
        fs = X.faces[e]
        gen_src[e] = fs[1].base
        gen_tgt[e] = fs[0].base
    relations = []
    if X.dim_bound >= 2:
        for s in X.nondegenerate[2]:
            d0, d1, d2 = X.faces[s]
            lhs = tuple(e.base for e in (d2, d0) if not e.is_degenerate)
            rhs = (d1.base,) if not d1.is_degenerate else ()
            verts = X.vertex_ids(X.expr(s))
            relations.append(Relation(lhs, rhs, verts[0], verts[2]))
    return validate_presentation(PresentedCategory(objects, tuple(generators), gen_src, gen_tgt, tuple(relations)))


def outcome(agree, *args):
    """The verdict, or "KeyError" where the comparison raises one."""
    try:
        return agree(*args)
    except KeyError:
        return "KeyError"


LOOP_FREE = loop_free_corpus_complexes()
NAMES = sorted(LOOP_FREE)
TABLES = {name: hom_sets(path_category(X)) for name, X in LOOP_FREE.items()}
CHECKED_PAIRS = [
    (a, b) for a in NAMES for b in NAMES if product_cell_count(LOOP_FREE[a], LOOP_FREE[b], 2) <= CELL_LIMIT
]


# -- criterion 2 ------------------------------------------------------------------


def test_criterion_2_verdicts_equal_a_fresh_comparison_of_every_pair():
    result = acceptance.criterion_2_products()
    assert len(CHECKED_PAIRS) == 796
    assert result.counts == {"checked": 796, "skipped": len(NAMES) ** 2 - 796}
    # no pair is listed as a failure, so every fresh comparison must agree
    assert result.ok
    for a, b in CHECKED_PAIRS:
        prod = product(LOOP_FREE[a], LOOP_FREE[b], dim_bound=2)
        assert product_tables_agree(prod, TABLES[a], TABLES[b]) is True, (a, b)


def counting_products(monkeypatch):
    built = []

    def counted(X, Y, dim_bound=None):
        built.append((X, Y))
        return product(X, Y, dim_bound)

    monkeypatch.setattr(acceptance, "product", counted)
    return built


def test_criterion_2_builds_one_product_per_distinct_pair(monkeypatch):
    built = counting_products(monkeypatch)
    acceptance.criterion_2_products()
    keys = {name: acceptance._content_key(X) for name, X in LOOP_FREE.items()}
    assert len(set(keys.values())) == 19
    assert len(built) == len({(keys[a], keys[b]) for a, b in CHECKED_PAIRS}) == 796 - 478


def test_criterion_2_reports_a_shared_failing_verdict_under_every_name(monkeypatch):
    # one-vertex factors fail: every checked pair with such a left factor
    # is listed, in order, though each distinct pair was compared once
    def agree(prod, TX, TY):
        return prod.left.n_cells != 1

    monkeypatch.setattr(acceptance, "product_tables_agree", agree)
    result = acceptance.criterion_2_products()
    expected = [(a, b) for a, b in CHECKED_PAIRS if LOOP_FREE[a].n_cells == 1]
    assert len({a for a, _ in expected}) == 6
    assert not result.ok
    assert result.detail == f"failures: {expected}"
    assert result.counts["checked"] == len(CHECKED_PAIRS)


def triangle_over_two_composites(d1: int) -> SimplicialSet:
    """Vertices 0, 1, 2; edges a: 0->1, b: 1->2 and c, d: 0->2; one
    triangle with faces (b, d1, a), d1 one of c and d."""
    v = [SimplexExpr((), i, 0) for i in range(3)]
    a, b, c, d = 3, 4, 5, 6
    faces = {a: (v[1], v[0]), b: (v[2], v[1]), c: (v[2], v[0]), d: (v[2], v[0])}
    faces[7] = (SimplexExpr((), b, 1), SimplexExpr((), d1, 1), SimplexExpr((), a, 1))
    labels = {s: ("cell", s) for s in range(8)}
    return SimplicialSet(2, [[0, 1, 2], [a, b, c, d], [7]], faces, None, labels)


def test_criterion_2_shares_checks_across_labels_but_not_across_faces(monkeypatch):
    X = triangle_over_two_composites(5)
    relabelled = SimplicialSet(
        2, [list(level) for level in X.nondegenerate], X.faces, None, {s: ("other", s) for s in X.cells()}
    )
    changed = triangle_over_two_composites(6)
    assert path_category(changed).relations != path_category(X).relations
    complexes = {"x": X, "x_relabelled": relabelled, "x_changed": changed}
    monkeypatch.setattr(acceptance, "loop_free_corpus_complexes", lambda: complexes)
    built = counting_products(monkeypatch)
    monkeypatch.setattr(acceptance, "PRODUCT_CELL_LIMIT", 10**6)
    result = acceptance.criterion_2_products()
    assert result.ok and result.counts == {"checked": 9, "skipped": 0}
    # two distinct complexes, so four ordered pairs, not nine
    assert len(built) == 4
    assert {L.labels[0] for L, _ in built} | {R.labels[0] for _, R in built} == {("cell", 0)}
    assert len({(L.faces[7], R.faces[7]) for L, R in built}) == 4


# -- product_tables_agree -----------------------------------------------------------


def test_corpus_pairs_agree_with_the_word_walking_comparison():
    for a, b in CHECKED_PAIRS[::7]:
        prod = product(LOOP_FREE[a], LOOP_FREE[b], dim_bound=2)
        assert product_tables_agree(prod, TABLES[a], TABLES[b]) is True
        assert old_product_tables_agree(prod, TABLES[a], TABLES[b]) is True


def test_mismatched_tables_fail_as_before():
    # every product of two small corpus complexes, compared against the
    # tables of every pair of small corpus complexes, the wrong ones included
    small = {n: X for n, X in corpus_complexes().items() if X.n_cells <= 7 and X.dim_bound <= 2}
    tables = {n: hom_sets(path_category(X)) for n, X in small.items()}
    seen = {}
    for left in sorted(small):
        for right in sorted(small):
            prod = product(small[left], small[right], dim_bound=2)
            for tx in sorted(small):
                for ty in sorted(small):
                    args = prod, tables[tx], tables[ty]
                    got = outcome(product_tables_agree, *args)
                    assert got == outcome(old_product_tables_agree, *args), (left, right, tx, ty)
                    seen[got] = seen.get(got, 0) + 1
    assert seen.keys() == {True, False, "KeyError"}


@st.composite
def thinned_poset_nerves(draw):
    """Nerve of a random poset, with some non-degenerate 2-simplices dropped,
    so that hom-sets may have more than one class."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    le = {(i, i) for i in range(n)} | {p for p in pairs if draw(st.booleans())}
    while True:
        extra = {(a, d) for a, b in le for c, d in le if b == c} - le
        if not extra:
            break
        le |= extra
    N = nerve(preorder_category(range(n), le), 2)
    dropped = {t for t in N.nondegenerate[2] if draw(st.booleans())}
    sub, _ = make_subcomplex(N, set(N.cells()) - dropped)
    return sub


@settings(max_examples=150, deadline=None)
@given(thinned_poset_nerves(), thinned_poset_nerves(), thinned_poset_nerves(), st.integers(0, 2))
def test_comparison_agrees_with_the_word_walking_one(X, Y, Z, mismatch):
    # mismatch 1 and 2 pass the table of Z for one factor: some draws
    # fail a count, some a projected word, some still agree
    if product_cell_count(X, Y, 2) > 300:
        return
    prod = product(X, Y, dim_bound=2)
    TX, TY, TZ = (hom_sets(path_category(K)) for K in (X, Y, Z))
    args = (prod, TZ if mismatch == 1 else TX, TZ if mismatch == 2 else TY)
    got = outcome(product_tables_agree, *args)
    assert got == outcome(old_product_tables_agree, *args)


# -- product_comparison -----------------------------------------------------------


def test_product_comparison_refuses_an_oversized_pair_without_building_it(monkeypatch):
    X, Y = standard_simplex(2), standard_simplex(3)
    cells = product(X, Y, dim_bound=2).complex.n_cells
    assert cells == product_cell_count(X, Y, 2)

    def no_build(*args, **kwargs):
        raise AssertionError("product built")

    monkeypatch.setattr(pathcat, "product", no_build)
    monkeypatch.setattr(pathcat, "COMPARISON_CELL_LIMIT", cells - 1)
    with pytest.raises(ValueError, match=rf"^product too large \({cells} cells\)$"):
        product_comparison(X, Y)
    monkeypatch.setattr(pathcat, "COMPARISON_CELL_LIMIT", cells)
    with pytest.raises(AssertionError, match="product built"):
        product_comparison(X, Y)


# -- path_category ----------------------------------------------------------------


def assert_presentation_matches_oracle(X):
    got, want = path_category(X), old_path_category(X)
    assert got.objects == want.objects
    assert got.generators == want.generators
    assert got.gen_src == want.gen_src and got.gen_tgt == want.gen_tgt
    assert got.relations == want.relations


def test_path_category_matches_oracle_on_the_corpus():
    complexes = {
        **corpus_complexes(),
        **corpus_nerves(),
        **quasi_category_corpus(3),
        **{f"B2({n})": X for n, X in LOOP_FREE.items()},
    }
    for name, X in complexes.items():
        assert_presentation_matches_oracle(X)


def test_path_category_matches_oracle_on_corpus_products():
    complexes = {**corpus_complexes(), **LOOP_FREE}
    names = sorted(complexes)
    checked = 0
    for a in names:
        for b in names:
            if product_cell_count(complexes[a], complexes[b], 2) <= CELL_LIMIT:
                assert_presentation_matches_oracle(product(complexes[a], complexes[b], dim_bound=2).complex)
                checked += 1
    assert checked >= 796
