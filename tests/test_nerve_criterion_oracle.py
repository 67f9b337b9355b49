"""`nerve_equivalence_criterion` against the full-groupoid criterion it
replaced.

The oracle is the earlier code, unchanged but for being module functions:
`old_iso_functor_groupoid` (in `helpers`, built once per category and
shape for both oracles here) builds Iso(C^P) with its whole composition
table, `old_induced_iso_functor` pushes every arrow of it through F, and
`is_equivalence_of_groupoids` decides the induced functor.  The criterion
now reads the isomorphism classes and the automorphisms of one functor per
class off the functor search, and compares their counts.
"""

from quasicat.cat import FiniteFunctor, iso_subgroupoid
from quasicat.corpus import small_corpus_categories
from quasicat.equivalence import (
    PresentedFunctor,
    criterion_presentations,
    enumerate_functors,
    nerve_equivalence_criterion,
)

from helpers import functor_category, is_equivalence_of_groupoids, old_iso_functor_groupoid

# -- oracle: the previous code -----------------------------------------------------


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
    def groupoid(C, name, P):
        # categories and shapes hash by identity; the corpus and the shapes are cached
        return old_iso_functor_groupoid(C, P)

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
