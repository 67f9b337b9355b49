"""`nerve_equivalence_criterion` against the full-groupoid criterion it
replaced.

The oracle is the earlier code, unchanged but for being module functions:
`old_iso_functor_groupoid` builds Iso(C^P) with its whole composition
table, `old_induced_iso_functor` pushes every arrow of it through F, and
`is_equivalence_of_groupoids` decides the induced functor.  The criterion
now reads the isomorphism classes and the automorphisms of one functor per
class off the functor search, and compares their counts.
"""

from itertools import product as iproduct

from quasicat.cat import CategoryError, FiniteFunctor, Groupoid, iso_subgroupoid
from quasicat.corpus import small_corpus_categories
from quasicat.equivalence import (
    PresentedFunctor,
    criterion_presentations,
    enumerate_functors,
    functors_from_presentation,
    nerve_equivalence_criterion,
)

from helpers import functor_category, is_equivalence_of_groupoids

# -- oracle: the previous code -----------------------------------------------------


def old_iso_functor_groupoid(C, P) -> Groupoid:
    functors = functors_from_presentation(P, C)
    inv = C.invertible_arrows()
    inv_out = {x: [f for f in inv if C.src[f] == x] for x in C.objects}
    obj_index = {x: i for i, x in enumerate(P.objects)}
    gen_index = {g: i for i, g in enumerate(P.generators)}
    functor_set = set(functors)
    arrows = []
    src = {}
    tgt = {}
    inverse = {}
    for F in functors:
        for comps in iproduct(*[inv_out[F.objects[i]] for i in range(len(P.objects))]):
            g_objects = tuple(C.tgt[a] for a in comps)
            g_generators = tuple(
                C.compose_table[
                    (
                        C.compose_table[(comps[obj_index[P.gen_tgt[g]]], F.generators[gen_index[g]])],
                        inv[comps[obj_index[P.gen_src[g]]]],
                    )
                ]
                for g in P.generators
            )
            G = PresentedFunctor(g_objects, g_generators)
            if G not in functor_set:
                raise CategoryError("conjugate functor escaped the enumeration")
            a = (F, G, tuple(comps))
            arrows.append(a)
            src[a] = F
            tgt[a] = G
            inverse[a] = (G, F, tuple(inv[c] for c in comps))
    identity = {F: (F, F, tuple(C.identity[x] for x in F.objects)) for F in functors}
    compose = {}
    by_src: dict = {}
    for a in arrows:
        by_src.setdefault(a[0], []).append(a)
    for a in arrows:
        for b in by_src.get(a[1], ()):
            comps = tuple(C.compose_table[(b[2][i], a[2][i])] for i in range(len(P.objects)))
            compose[(b, a)] = (a[0], b[1], comps)
    return Groupoid(
        tuple(functors), tuple(arrows), src, tgt, identity, compose,
        inverse=inverse, check=False,
    )


def old_induced_iso_functor(F, P, GC, GD) -> FiniteFunctor:
    def push_functor(H):
        return PresentedFunctor(
            tuple(F.object_map[x] for x in H.objects),
            tuple(F.arrow_map[f] for f in H.generators),
        )

    object_map = {H: push_functor(H) for H in GC.objects}
    arrow_map = {
        a: (push_functor(a[0]), push_functor(a[1]), tuple(F.arrow_map[c] for c in a[2]))
        for a in GC.arrows
    }
    return FiniteFunctor(GC, GD, object_map, arrow_map)


def old_nerve_equivalence_criterion(F, groupoid):
    """The verbose form: every shape is tested."""
    results = {}
    verdict = True
    for name, P in criterion_presentations():
        GC = groupoid(F.source, name, P)
        GD = groupoid(F.target, name, P)
        ok, _w = is_equivalence_of_groupoids(old_induced_iso_functor(F, P, GC, GD))
        results[name] = ok
        verdict = verdict and ok
    return verdict, results


# -- the criterion-9 sweep ---------------------------------------------------------------


def criterion_9_sweep():
    cats = small_corpus_categories()
    names = sorted(cats)
    return [F for a in names for b in names for F in enumerate_functors(cats[a], cats[b])]


def test_criterion_matches_full_groupoid_oracle_on_criterion_9_sweep():
    built = {}

    def groupoid(C, name, P):
        # categories hash by identity; the sweep keeps each one alive
        key = (C, name)
        if key not in built:
            built[key] = old_iso_functor_groupoid(C, P)
        return built[key]

    verdicts = set()
    shape_results = set()
    for F in criterion_9_sweep():
        want = old_nerve_equivalence_criterion(F, groupoid)
        assert nerve_equivalence_criterion(F, verbose=True) == want
        assert nerve_equivalence_criterion(F) == want[0]
        verdicts.add(want[0])
        shape_results.update(want[1].values())
    # the sweep reaches both verdicts
    assert verdicts == shape_results == {True, False}


def test_iso_functor_groupoid_matches_oracle_on_criterion_9_categories():
    # Iso(C^P) is the groupoid of invertible natural transformations; the
    # functor category lists its arrows in another order
    for C in small_corpus_categories().values():
        for _name, P in criterion_presentations():
            got, want = iso_subgroupoid(functor_category(C, P)), old_iso_functor_groupoid(C, P)
            assert got.objects == want.objects and set(got.arrows) == set(want.arrows)
            assert (got.src, got.tgt, got.identity) == (want.src, want.tgt, want.identity)
            assert got.compose_table == want.compose_table
            assert got.inverse == want.inverse
