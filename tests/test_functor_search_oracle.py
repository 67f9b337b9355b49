"""The functor search and `core` against the code they replaced.

The oracles are the previous implementations, unchanged but for
`X.edge_at(e, p, q)`, which was `X.restrict(e, (p, q))`, written out:
- `enumerate_functors` backtracked over the non-identity arrows of C and
  rescanned every assigned arrow after each assignment;
- `functors_from_presentation` scanned every arrow for candidates and tested
  the relations only at the leaves;
- `functor_category` composed transformations over all pairs of arrows;
- `core` kept a cell when each of its edges, found by restriction, was a
  quasi-isomorphism or degenerate.

`enumerate_functors` now runs `functors_from_presentation` over C's
composition presentation, and `core` closes the kept cells under faces.
The answers, and the order they come in, must not change.
"""

from itertools import product as iproduct

import pytest

from quasicat.cat import (
    FiniteCategory,
    FiniteFunctor,
    disjoint_union_category,
    nerve,
    product_category,
)
from quasicat.corpus import (
    corpus_categories,
    quasi_category_corpus,
    small_corpus_categories,
    walking_homotopy,
)
from quasicat.equivalence import (
    PresentedFunctor,
    criterion_presentations,
    enumerate_functors,
    functors_from_presentation,
)
from quasicat.jsonio import sset_to_json
from quasicat.quasi import certify_quasi_category, core, quasi_iso_edges
from quasicat.simplicial import SimplicialMap, SimplicialSet, make_subcomplex

from helpers import corpus_nerves, functor_category

# -- oracle: the previous code -----------------------------------------------------


def old_functors_from_presentation(P, C):
    results = []
    obj_index = {x: i for i, x in enumerate(P.objects)}
    for obj_images in iproduct(C.objects, repeat=len(P.objects)):
        candidates = [
            [
                f
                for f in C.arrows
                if C.src[f] == obj_images[obj_index[P.gen_src[g]]]
                and C.tgt[f] == obj_images[obj_index[P.gen_tgt[g]]]
            ]
            for g in P.generators
        ]
        gen_index = {g: i for i, g in enumerate(P.generators)}

        def word_value(word, at, gen_images):
            value = C.identity[obj_images[obj_index[at]]]
            for g in word:
                value = C.compose_table[(gen_images[gen_index[g]], value)]
            return value

        def rec(i, gen_images):
            if i == len(P.generators):
                for rel in P.relations:
                    if word_value(rel.lhs, rel.src, gen_images) != word_value(rel.rhs, rel.src, gen_images):
                        return
                results.append(PresentedFunctor(tuple(obj_images), tuple(gen_images)))
                return
            for f in candidates[i]:
                gen_images.append(f)
                rec(i + 1, gen_images)
                gen_images.pop()

        rec(0, [])
    return results


def old_functor_category(C, P):
    functors = old_functors_from_presentation(P, C)
    objects = tuple(functors)
    obj_index = {x: i for i, x in enumerate(P.objects)}
    gen_index = {g: i for i, g in enumerate(P.generators)}
    arrows = []
    src = {}
    tgt = {}
    for F in functors:
        for G in functors:
            for comps in iproduct(
                *[C.hom(F.objects[i], G.objects[i]) for i in range(len(P.objects))]
            ):
                natural = all(
                    C.compose_table[(G.generators[gen_index[g]], comps[obj_index[P.gen_src[g]]])]
                    == C.compose_table[(comps[obj_index[P.gen_tgt[g]]], F.generators[gen_index[g]])]
                    for g in P.generators
                )
                if natural:
                    a = (F, G, tuple(comps))
                    arrows.append(a)
                    src[a] = F
                    tgt[a] = G
    identity = {
        F: (F, F, tuple(C.identity[x] for x in F.objects)) for F in functors
    }
    compose = {}
    for b in arrows:
        for a in arrows:
            if a[1] == b[0]:
                comps = tuple(
                    C.compose_table[(b[2][i], a[2][i])] for i in range(len(P.objects))
                )
                compose[(b, a)] = (a[0], b[1], comps)
    return FiniteCategory(objects, tuple(arrows), src, tgt, identity, compose, check=False)


def old_enumerate_functors(C, D):
    nonid = C.nonidentity_arrows()
    results = []
    for obj_images in iproduct(D.objects, repeat=len(C.objects)):
        obj_map = dict(zip(C.objects, obj_images))
        arrow_map = {C.identity[x]: D.identity[obj_map[x]] for x in C.objects}
        candidates = [
            [
                g
                for g in D.arrows
                if D.src[g] == obj_map[C.src[f]] and D.tgt[g] == obj_map[C.tgt[f]]
            ]
            for f in nonid
        ]

        def consistent(i):
            f = nonid[i]
            assigned = list(arrow_map)
            for g in assigned:
                for a, b in ((g, f), (f, g)):
                    if (a, b) in C.compose_table:
                        ab = C.compose_table[(a, b)]
                        if ab in arrow_map and (
                            D.compose_table[(arrow_map[a], arrow_map[b])] != arrow_map[ab]
                        ):
                            return False
            for a in assigned:
                for b in assigned:
                    if C.compose_table.get((a, b)) == f and (
                        D.compose_table[(arrow_map[a], arrow_map[b])] != arrow_map[f]
                    ):
                        return False
            return True

        def rec(i):
            if i == len(nonid):
                results.append(FiniteFunctor(C, D, dict(obj_map), dict(arrow_map)))
                return
            for g in candidates[i]:
                arrow_map[nonid[i]] = g
                if consistent(i):
                    rec(i + 1)
                del arrow_map[nonid[i]]

        rec(0)
    return results


def old_core(X, report=None):
    if report is None:
        report = certify_quasi_category(X)
    witnesses = quasi_iso_edges(X, report)
    good_edges = {e.base for e in witnesses if not e.is_degenerate}
    keep = []
    for s in X.cells():
        d = X.dim_of[s]
        e = X.expr(s)
        ok = True
        for p in range(d + 1):
            for q in range(p + 1, d + 1):
                edge = X.restrict(e, (p, q))
                if not edge.is_degenerate and edge.base not in good_edges:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            keep.append(s)
    sub, incl = make_subcomplex(X, keep)
    flag = max(X.coskeletal_at, 1) if X.coskeletal_at is not None else None
    sub = SimplicialSet(
        sub.dim_bound,
        [list(level) for level in sub.nondegenerate],
        sub.faces,
        flag,
        sub.labels,
        check=False,
    )
    return sub, SimplicialMap(sub, X, incl.assignment)


# -- functor search -------------------------------------------------------------------


def maps_in_order(F):
    return list(F.object_map.items()), list(F.arrow_map.items())


def test_enumerate_functors_matches_oracle_on_every_small_corpus_pair():
    cats = small_corpus_categories()
    total = 0
    for C in cats.values():
        for D in cats.values():
            got, want = enumerate_functors(C, D), old_enumerate_functors(C, D)
            assert [maps_in_order(F) for F in got] == [maps_in_order(F) for F in want]
            assert all(F.source is C and F.target is D for F in got)
            total += len(got)
    assert total > 0


def test_functors_from_presentation_matches_oracle_on_criterion_shapes():
    for C in corpus_categories().values():
        for _name, P in criterion_presentations():
            got, want = functors_from_presentation(P, C), old_functors_from_presentation(P, C)
            assert got == want
            assert all(type(F) is PresentedFunctor for F in got)


def test_functor_category_matches_oracle_on_small_categories():
    shapes = dict(criterion_presentations())
    for C in corpus_categories().values():
        if len(C.arrows) > 6:
            continue
        for name in ("P(Delta^0)", "P(Delta^1)"):
            got, want = functor_category(C, shapes[name]), old_functor_category(C, shapes[name])
            assert got.objects == want.objects and got.arrows == want.arrows
            assert (got.src, got.tgt, got.identity) == (want.src, want.tgt, want.identity)
            assert got.compose_table == want.compose_table


# -- core -------------------------------------------------------------------------------


def certified_complexes():
    cats = corpus_categories()
    out = dict(corpus_nerves())
    out.update(quasi_category_corpus(4))
    out["walking_homotopy"] = walking_homotopy()
    out["B((z2)x(chain1))"] = nerve(product_category(cats["z2"], cats["chain1"]), 3)
    out["B((pi_interval)x(chain1))"] = nerve(product_category(cats["pi_interval"], cats["chain1"]), 3)
    out["B((z3)+(chain2))"] = nerve(disjoint_union_category(cats["z3"], cats["chain2"]), 3)
    return out


@pytest.mark.parametrize("name", sorted(certified_complexes()))
def test_core_matches_oracle(name):
    X = certified_complexes()[name]
    report = certify_quasi_category(X)
    assert report.is_quasi
    (got, got_incl), (want, want_incl) = core(X, report), old_core(X, report)
    assert sset_to_json(got) == sset_to_json(want)
    assert got.labels == want.labels
    assert got.coskeletal_at == want.coskeletal_at
    assert got_incl.assignment == want_incl.assignment
    assert got_incl.source is got and got_incl.target is X
