"""Cross-module property tests from the design invariants."""

import pytest

from quasicat.anodyne import prism_certificate
from quasicat.cat import Groupoid, iso_subgroupoid, nerve
from quasicat.corpus import corpus_categories, quasi_category_corpus
from quasicat.equivalence import criterion_presentations
from quasicat.pathcat import hom_sets, path_category
from quasicat.quasi import (
    certify_quasi_category,
    has_right_homotopy,
    right_homotopy_classes,
)
from quasicat.simplicial import SimplicialMap, build_standard, make_subcomplex, standard_simplex

from helpers import category_iso, compose, functor_category, has_left_homotopy, push, validate_map


def pushforward_generator_word(f: SimplicialMap, e: int):
    img = push(f, f.source.expr(e))
    return () if img.is_degenerate else (img.base,)


def collapse_map(D2, D1):
    # Delta^2 -> Delta^1 sending vertices (0, 1, 2) to (0, 0, 1)
    from quasicat.simplicial import SimplexExpr

    by_label2 = {D2.labels[s]: s for s in D2.cells()}
    by_label1 = {D1.labels[s]: s for s in D1.cells()}
    e01 = by_label1[(0, 1)]
    return validate_map(SimplicialMap(
        D2,
        D1,
        {
            by_label2[(0,)]: D1.expr(by_label1[(0,)]),
            by_label2[(1,)]: D1.expr(by_label1[(0,)]),
            by_label2[(2,)]: D1.expr(by_label1[(1,)]),
            by_label2[(0, 1)]: SimplexExpr((0,), by_label1[(0,)], 1),
            by_label2[(0, 2)]: D1.expr(e01),
            by_label2[(1, 2)]: D1.expr(e01),
            by_label2[(0, 1, 2)]: SimplexExpr((0,), e01, 2),
        },
    ))


def test_path_functoriality_on_generators():
    # P(g . f) = P(g) . P(f) on generators, through maps that collapse
    # edges to identities
    H, incl = build_standard("horn", 2, 1)
    D2 = standard_simplex(2)
    D1 = standard_simplex(1)
    g = collapse_map(D2, D1)
    gf = compose(g, incl)
    for e in H.nondegenerate[1]:
        word_direct = pushforward_generator_word(gf, e)
        step = pushforward_generator_word(incl, e)
        word_composed = ()
        for gen in step:
            img = push(g, D2.expr(gen))
            word_composed += () if img.is_degenerate else (img.base,)
        assert word_direct == word_composed
    # the (0,1) edge collapses: its generator word is empty
    by_label = {H.labels[s]: s for s in H.cells()}
    assert pushforward_generator_word(gf, by_label[(0, 1)]) == ()


def test_iso_subgroupoid_is_groupoid_on_corpus():
    for C in corpus_categories().values():
        G = iso_subgroupoid(C)
        assert isinstance(G, Groupoid)
        # re-validate the inverse table explicitly
        Groupoid(
            G.objects, G.arrows, G.src, G.tgt, G.identity, G.compose_table,
            inverse=G.inverse, check=True,
        )


def test_functor_category_over_terminal_shape_is_the_category():
    P = dict(criterion_presentations())["P(Delta^0)"]
    for name in ["z2", "chain2", "idempotent"]:
        C = corpus_categories()[name]
        assert category_iso(functor_category(C, P), C) is not None


@pytest.mark.parametrize("n,k,m", [(2, 1, 0), (2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 2, 1)])
def test_prism_cert_source_inclusion_is_path_iso(n, k, m):
    # the composite property: the source inclusion of a product certificate
    # induces an isomorphism of path categories (inner-anodyne maps do)
    cert = prism_certificate(n, k, m)
    sub, incl = make_subcomplex(cert.target, cert.source_ids)
    Tsub = hom_sets(path_category(sub))
    Tamb = hom_sets(path_category(cert.target))
    vmap = {v: incl.assignment[v].base for v in sub.vertices()}
    emap = {e: incl.assignment[e].base for e in sub.nondegenerate[1]}
    assert sorted(vmap.values()) == sorted(cert.target.vertices())
    for x in sub.vertices():
        for y in sub.vertices():
            esub = Tsub.entry(x, y)
            eamb = Tamb.entry(vmap[x], vmap[y])
            assert len(esub) == len(eamb)
            images = {eamb.class_of(tuple(emap[g] for g in c.rep)) for c in esub.classes}
            assert len(images) == len(esub)


def test_homotopy_coherence_across_corpus():
    # homotopic edges admit right and left homotopy witnesses in both
    # directions (the four equivalent conditions), exhaustively
    for name, X in quasi_category_corpus(dim_bound=3).items():
        assert certify_quasi_category(X).is_quasi
        classes, _ = right_homotopy_classes(X)
        for members in classes.values():
            for a in members:
                for b in members:
                    assert has_right_homotopy(X, a, b)
                    assert has_left_homotopy(X, a, b)


def test_nerve_certifies_across_corpus():
    for name, C in corpus_categories().items():
        assert certify_quasi_category(nerve(C, 3)).is_quasi
