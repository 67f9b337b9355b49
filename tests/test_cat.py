import pytest
from hypothesis import given, settings, strategies as st

from quasicat.cat import (
    CategoryError,
    FiniteCategory,
    FiniteFunctor,
    Groupoid,
    cyclic_group_category,
    discrete_category,
    disjoint_union_category,
    free_iso_groupoid,
    idempotent_monoid_category,
    is_equivalence_of_categories,
    iso_subgroupoid,
    nerve,
    poset_category,
    product_category,
)
from quasicat.corpus import corpus_categories
from quasicat.simplicial import iso_check, product, standard_simplex

from helpers import category_iso, identity_functor, is_equivalence_of_groupoids, old_category_validate, truncate


def test_constructors_validate():
    for C in [poset_category(3), cyclic_group_category(2), free_iso_groupoid(), idempotent_monoid_category()]:
        C.validate()


def test_bad_category_rejected():
    with pytest.raises(CategoryError):
        # missing identity composite
        from quasicat.cat import FiniteCategory

        FiniteCategory(("x",), ("1",), {"1": "x"}, {"1": "x"}, {"x": "1"}, {})


# -- nerve ---------------------------------------------------------------------


def test_nerve_of_chain_is_simplex():
    N = nerve(poset_category(2), 3)
    N.validate()
    assert N.coskeletal_at == 2
    D2 = standard_simplex(2)
    assert iso_check(truncate(N, 2), truncate(D2, 2)) is not None
    assert N.counts() == (3, 3, 1, 0)


def test_nerve_of_z2_counts():
    # strings of the unique non-identity element: one per dimension
    N = nerve(cyclic_group_category(2), 4)
    N.validate()
    assert N.counts() == (1, 1, 1, 1, 1)


def test_nerve_of_free_iso_counts():
    # alternating eta / etainv strings: two per dimension >= 1
    N = nerve(free_iso_groupoid(), 3)
    N.validate()
    assert N.counts() == (2, 2, 2, 2)


def test_nerve_inner_face_composes():
    C = cyclic_group_category(2)
    N = nerve(C, 2)
    (two,) = N.nondegenerate[2]
    assert N.labels[two] == ("string", ("g1", "g1"))
    d1 = N.faces[two][1]
    # g1.g1 = identity: the inner face is the degenerate edge at the object
    assert d1.is_degenerate and d1.word == (0,)


def test_nerve_preserves_products_up_to_iso():
    C = poset_category(1)
    D = cyclic_group_category(2)
    N = nerve(product_category(C, D), 2)
    P = product(nerve(C, 2), nerve(D, 2), dim_bound=2)
    assert iso_check(truncate(N, 2), truncate(P.complex, 2), limit=128) is not None


# -- iso subgroupoid ------------------------------------------------------------


def test_iso_of_poset_is_discrete():
    G = iso_subgroupoid(poset_category(1))
    assert len(G.objects) == 2
    assert all(G.is_identity(f) for f in G.arrows)


def test_iso_of_groupoid_is_itself():
    P = free_iso_groupoid()
    G = iso_subgroupoid(P)
    assert set(G.arrows) == set(P.arrows)


def test_iso_of_idempotent_is_discrete():
    G = iso_subgroupoid(idempotent_monoid_category())
    assert set(G.arrows) == {"1"}


# -- groupoid equivalence --------------------------------------------------------


def test_contractible_groupoid_to_point():
    P = free_iso_groupoid()
    T = cyclic_group_category(1)
    F = FiniteFunctor(P, T, {0: "*", 1: "*"}, {a: "g0" for a in P.arrows}).validate()
    ok, witness = is_equivalence_of_groupoids(F)
    assert ok and witness.class_map is not None


def test_discrete_two_to_point_fails():
    D2 = discrete_category(2)
    T = cyclic_group_category(1)
    F = FiniteFunctor(D2, T, {0: "*", 1: "*"}, {a: "g0" for a in D2.arrows}).validate()
    ok, witness = is_equivalence_of_groupoids(F)
    assert not ok and "injective" in witness.reason


def _discrete_groupoid(objects):
    arrows = tuple(("id", x) for x in objects)
    ends = {a: a[1] for a in arrows}
    return Groupoid(objects, arrows, ends, ends, {x: ("id", x) for x in objects}, {(a, a): a for a in arrows})


def test_objects_that_print_alike_stay_in_separate_classes():
    # 1 and "1" print alike; their iso classes must not share a key
    D = _discrete_groupoid((1, "1"))
    T = cyclic_group_category(1)
    F = FiniteFunctor(D, T, {1: "*", "1": "*"}, {a: "g0" for a in D.arrows}).validate()
    ok, witness = is_equivalence_of_groupoids(F)
    assert not ok and "injective" in witness.reason
    assert not is_equivalence_of_categories(F)
    back = FiniteFunctor(T, D, {"*": 1}, {"g0": ("id", 1)}).validate()
    assert not is_equivalence_of_categories(back)
    assert not is_equivalence_of_groupoids(back)[0]


def test_z2_to_z3_fails():
    Z2, Z3 = cyclic_group_category(2), cyclic_group_category(3)
    # only group homomorphism Z/2 -> Z/3 is trivial
    F = FiniteFunctor(Z2, Z3, {"*": "*"}, {"g0": "g0", "g1": "g0"}).validate()
    ok, _ = is_equivalence_of_groupoids(F)
    assert not ok


def test_nontrivial_automorphism_map_detected():
    Z2 = cyclic_group_category(2)
    # the trivial endomorphism of Z/2 has abstractly isomorphic automorphism
    # groups on both sides but is not an equivalence
    F = FiniteFunctor(Z2, Z2, {"*": "*"}, {"g0": "g0", "g1": "g0"}).validate()
    ok, _ = is_equivalence_of_groupoids(F)
    assert not ok
    assert not is_equivalence_of_categories(F)


# -- category equivalence ---------------------------------------------------------


def test_identity_is_equivalence():
    for C in [poset_category(2), cyclic_group_category(3)]:
        assert is_equivalence_of_categories(identity_functor(C))


def test_skeleton_inclusion_is_equivalence():
    P = free_iso_groupoid()
    T = cyclic_group_category(1)
    F = FiniteFunctor(T, P, {"*": 0}, {"g0": "id0"}).validate()
    assert is_equivalence_of_categories(F)


def test_iso_inclusion_not_equivalence_for_poset():
    # discrete two objects into the chain 0 <= 1
    C = poset_category(1)
    D2 = discrete_category(2)
    F = FiniteFunctor(
        D2, C, {0: 0, 1: 1}, {("id", 0): (0, 0), ("id", 1): (1, 1)}
    ).validate()
    assert not is_equivalence_of_categories(F)


def test_groupoid_and_category_equivalence_agree_on_groupoids():
    pairs = [
        (free_iso_groupoid(), cyclic_group_category(1)),
        (cyclic_group_category(2), cyclic_group_category(2)),
    ]
    for C, D in pairs:
        for F in enumerate_functors(C, D):
            ok, _ = is_equivalence_of_groupoids(F)
            assert ok == is_equivalence_of_categories(F)


def enumerate_functors(C, D):
    # brute-force functor enumeration used as a local oracle
    from itertools import product as iproduct

    results = []
    for obj_images in iproduct(D.objects, repeat=len(C.objects)):
        obj_map = dict(zip(C.objects, obj_images))
        nonid = C.nonidentity_arrows()
        candidates = [
            [g for g in D.arrows if D.src[g] == obj_map[C.src[f]] and D.tgt[g] == obj_map[C.tgt[f]]]
            for f in nonid
        ]

        def rec(i, arrow_map):
            if i == len(nonid):
                F = FiniteFunctor(C, D, dict(obj_map), dict(arrow_map))
                try:
                    F.validate()
                except CategoryError:
                    return
                results.append(F)
                return
            for g in candidates[i]:
                arrow_map[nonid[i]] = g
                rec(i + 1, arrow_map)
                del arrow_map[nonid[i]]

        rec(0, {C.identity[x]: D.identity[obj_map[x]] for x in C.objects})
    return results


def test_category_iso_search():
    C = poset_category(2)
    assert category_iso(C, poset_category(2)) is not None
    assert category_iso(C, poset_category(1)) is None
    assert category_iso(cyclic_group_category(2), cyclic_group_category(2)) is not None
    assert category_iso(cyclic_group_category(2), idempotent_monoid_category()) is None


def test_disjoint_union_and_product_sizes():
    C = disjoint_union_category(poset_category(1), discrete_category(1))
    assert len(C.objects) == 3
    C.validate()
    P = product_category(poset_category(1), cyclic_group_category(2))
    assert len(P.objects) == 2 and len(P.arrows) == 6
    P.validate()


# -- validation against the scan over every pair and triple of arrows ----------


def rebuilt(C, compose):
    return FiniteCategory(C.objects, C.arrows, C.src, C.tgt, C.identity, compose, check=False)


def first_failure(validate, C):
    try:
        validate(C)
    except CategoryError as exc:
        return str(exc)
    return None


@st.composite
def corrupted_tables(draw):
    """A corpus category with one to three entries of its composition table
    deleted, replaced by another arrow, or added on a pair of arrows."""
    C = draw(st.sampled_from(sorted(corpus_categories().items())))[1]
    compose = dict(C.compose_table)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "replace", "add"]))
        if kind == "add":
            compose[draw(st.sampled_from(C.arrows)), draw(st.sampled_from(C.arrows))] = draw(st.sampled_from(C.arrows))
        elif compose:
            key = draw(st.sampled_from(sorted(compose, key=repr)))
            if kind == "delete":
                del compose[key]
            else:
                compose[key] = draw(st.sampled_from(C.arrows))
    return rebuilt(C, compose)


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
def test_validate_raises_the_oracle_first_message(C):
    assert first_failure(FiniteCategory.validate, C) == first_failure(old_category_validate, C)


def test_validate_matches_oracle_on_corpus_and_on_each_failure_kind():
    for C in corpus_categories().values():
        assert first_failure(FiniteCategory.validate, C) is None is first_failure(old_category_validate, C)
    # chain2 is 0 -> 1 -> 2; f: 0 -> 1, g: 1 -> 2, gf: 0 -> 2
    C = poset_category(2)
    f, g, gf = ((0, 1), (1, 2), (0, 2))
    cases = [
        (C, {k: v for k, v in C.compose_table.items() if k != (g, f)}, f"composition table wrong on ({g}, {f})"),
        (C, {**C.compose_table, (f, g): f}, f"composition table wrong on ({f}, {g})"),
        (C, {**C.compose_table, (g, f): f}, f"composite ({g}, {f}) ill-typed"),
        (C, {**C.compose_table, (f, (0, 0)): gf}, f"composite ({f}, {(0, 0)}) ill-typed"),
        (C, {**C.compose_table, (f, (0, 0)): "x"}, f"composite ({f}, {(0, 0)}) ill-typed"),
    ]
    # Z/3 on g0 (the identity), g1 and g2
    Z = cyclic_group_category(3)
    cases += [
        (Z, {**Z.compose_table, ("g1", "g0"): "g0"}, "right unit law fails at g1"),
        (Z, {**Z.compose_table, ("g1", "g1"): "g0"}, "associativity fails at (g1, g1, g2)"),
    ]
    for B, compose, message in cases:
        D = rebuilt(B, compose)
        assert first_failure(FiniteCategory.validate, D) == first_failure(old_category_validate, D) == message


def test_validate_ignores_table_keys_that_name_no_arrow():
    # a key naming something that is not an arrow takes part in no
    # composite; the scan over pairs of arrows never read it, and the
    # count of composable pairs reads only keys naming two arrows
    C = poset_category(2)
    f = C.arrows[0]
    for junk in [("nope", f), (f, "nope"), "ab", ("x", "y", "z")]:
        D = rebuilt(C, {**C.compose_table, junk: f})
        assert first_failure(FiniteCategory.validate, D) is None is first_failure(old_category_validate, D)
