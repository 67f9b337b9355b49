import copy
import gc
import pickle
import weakref

import pytest

from quasicat import equivalence
from quasicat.cat import (
    CategoryError,
    FiniteFunctor,
    cyclic_group_category,
    discrete_category,
    free_iso_groupoid,
    idempotent_monoid_category,
    _iso_classes,
    is_equivalence_of_categories,
    iso_subgroupoid,
    poset_category,
)
from quasicat.equivalence import (
    PresentedFunctor,
    _iso_summary,
    criterion_presentations,
    enumerate_functors,
    nerve_equivalence_criterion,
    functors_from_presentation,
)

from helpers import functor_category, identity_functor


def shape(name):
    return dict(criterion_presentations())[name]


# -- functor categories ---------------------------------------------------------


def test_functors_from_terminal_shape():
    P = shape("P(Delta^0)")
    C = cyclic_group_category(2)
    Cs = functor_category(C, P)
    assert len(Cs.objects) == 1 and len(Cs.arrows) == 2
    Cs.validate()


def test_arrow_category_of_chain():
    # chain^{P(Delta^1)}: objects are the three monotone maps of the 2-chain
    P = shape("P(Delta^1)")
    C = poset_category(1)
    Cs = functor_category(C, P)
    assert len(Cs.objects) == 3
    assert len(Cs.arrows) == 6  # thin: one arrow per pointwise-comparable pair
    Cs.validate()


def test_free_boundary_square_count():
    # (Z/2)^{P(bd Delta^2)}: 3 free generators into the 2-element arrow set
    P = shape("P(bdDelta^2)")
    C = cyclic_group_category(2)
    assert len(functors_from_presentation(P, C)) == 8


def test_composable_pair_shape_counts():
    # chain functors from P(Delta^2) are the composable pairs
    P = shape("P(Delta^2)")
    C = poset_category(1)
    fs = functors_from_presentation(P, C)
    assert len(fs) == 4  # monotone maps of a 3-chain into the 2-chain


def test_iso_functor_groupoid_matches_full_construction():
    # the criterion's summary of Iso(C^P) against the groupoid itself
    for C in [poset_category(1), cyclic_group_category(2), idempotent_monoid_category()]:
        for name in ["P(Delta^0)", "P(Delta^1)", "P(bdDelta^1)"]:
            P = shape(name)
            key, aut = _iso_summary(C, name, P)
            full = iso_subgroupoid(functor_category(C, P))
            assert set(key) == set(full.objects)
            classes, rep_of = _iso_classes(full)
            assert set(aut) == set(key.values()) and len(aut) == len(classes)
            for H, k in key.items():
                assert rep_of[H] == rep_of[k]
                assert len(full.hom(k, k)) == len(aut[k])
                assert {a[2] for a in full.hom(k, k)} == set(aut[k])


# -- functor enumeration -----------------------------------------------------------


def test_enumerate_functors_validates():
    C, D = cyclic_group_category(2), cyclic_group_category(2)
    fs = enumerate_functors(C, D)
    assert len(fs) == 2  # trivial and identity
    for F in fs:
        F.validate()


def test_enumerate_functors_thin_to_monoid():
    C, D = poset_category(1), idempotent_monoid_category()
    fs = enumerate_functors(C, D)
    for F in fs:
        F.validate()
    assert len(fs) == 2  # the generator maps to 1 or to e


# -- the criterion -------------------------------------------------------------------


def test_identity_passes():
    for C in [poset_category(2), cyclic_group_category(3), idempotent_monoid_category()]:
        assert nerve_equivalence_criterion(identity_functor(C))


def test_equivalence_iff_criterion_small():
    pairs = [
        (free_iso_groupoid(), cyclic_group_category(1)),
        (cyclic_group_category(2), cyclic_group_category(2)),
        (poset_category(1), poset_category(1)),
        (discrete_category(2), poset_category(1)),
        (idempotent_monoid_category(), cyclic_group_category(1)),
    ]
    for C, D in pairs:
        for F in enumerate_functors(C, D):
            assert nerve_equivalence_criterion(F) == is_equivalence_of_categories(F)


def test_iso_inclusion_into_poset_fails():
    # B(Iso C) -> BC for the chain: discrete two objects into the 2-chain
    C = poset_category(1)
    D2 = discrete_category(2)
    F = FiniteFunctor(D2, C, {0: 0, 1: 1}, {("id", 0): (0, 0), ("id", 1): (1, 1)}).validate()
    ok, results = nerve_equivalence_criterion(F, verbose=True)
    assert not ok
    assert not all(results.values())


def test_skeleton_passes():
    P = free_iso_groupoid()
    T = cyclic_group_category(1)
    F = FiniteFunctor(T, P, {"*": 0}, {"g0": "id0"}).validate()
    assert nerve_equivalence_criterion(F)


def test_a_conjugate_outside_the_enumeration_is_refused(monkeypatch):
    # the functor 1 of P(Delta^0) -> pi(Delta^1) is the conjugate of 0 by eta
    search = equivalence.functors_from_presentation
    monkeypatch.setattr(equivalence, "functors_from_presentation", lambda P, C: search(P, C)[:1])
    with pytest.raises(CategoryError, match="^conjugate functor escaped the enumeration$"):
        nerve_equivalence_criterion(identity_functor(free_iso_groupoid()))


def test_criterion_keeps_no_category_alive():
    # the per-category groupoid and iso-class caches live on the category
    C = poset_category(2)
    ref = weakref.ref(C)
    assert nerve_equivalence_criterion(identity_functor(C))
    del C
    gc.collect()
    assert ref() is None


def test_presented_functor_value_semantics():
    F = PresentedFunctor(("a", "b"), ("f",))
    assert (F.objects, F.generators) == (("a", "b"), ("f",))
    # a tuple of its two fields: it hashes in C and equals the plain tuple
    assert F == PresentedFunctor(("a", "b"), ("f",)) == (("a", "b"), ("f",))
    assert hash(F) == hash((("a", "b"), ("f",)))
    assert F != PresentedFunctor(("a", "b"), ("g",))
    assert repr(F) == "PresentedFunctor(objects=('a', 'b'), generators=('f',))"
    for name in ("objects", "generators", "other"):
        with pytest.raises(AttributeError):
            setattr(F, name, ())
    assert copy.deepcopy(F) == F and pickle.loads(pickle.dumps(F)) == F
