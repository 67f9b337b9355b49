import pytest

from quasicat.cat import (
    cyclic_group_category,
    free_iso_groupoid,
    nerve,
    poset_category,
)
from quasicat.pathcat import (
    NotLoopFreeError,
    bounded_hom_classes,
    counit_check,
    hom_sets,
    is_loop_free,
    path_category,
    product_comparison,
)
from quasicat.simplicial import (
    SimplexExpr,
    SimplicialMap,
    SimplicialSet,
    build_standard,
    product,
    standard_simplex,
)

from helpers import compose, homotopy_to_nat_transformation, identity_map, projections, truncate, validate_map


# -- presentations ------------------------------------------------------------


def test_presentation_of_delta2():
    P = path_category(standard_simplex(2))
    assert len(P.objects) == 3
    assert len(P.generators) == 3
    assert len(P.relations) == 1
    rel = P.relations[0]
    assert len(rel.lhs) == 2 and len(rel.rhs) == 1


def test_presentation_of_horn21():
    H, _ = build_standard("horn", 2, 1)
    P = path_category(H)
    assert len(P.objects) == 3 and len(P.generators) == 2 and not P.relations


def test_sk2_stability():
    for X in [standard_simplex(3), nerve(cyclic_group_category(2), 4)]:
        P_full = path_category(X)
        P_sk2 = path_category(truncate(X, 2))
        assert P_full.objects == P_sk2.objects
        assert P_full.generators == P_sk2.generators
        assert P_full.relations == P_sk2.relations


def test_degenerate_edges_compiled_away():
    # relation of the Z/2 square (g, g): lhs (g, g), rhs empty word
    N = nerve(cyclic_group_category(2), 2)
    P = path_category(N)
    (rel,) = P.relations
    assert len(rel.lhs) == 2 and rel.rhs == ()


# -- loop-freeness -------------------------------------------------------------


def test_loop_free_examples():
    assert is_loop_free(path_category(standard_simplex(3)))
    B, _ = build_standard("boundary", 3)
    assert is_loop_free(path_category(B))
    assert not is_loop_free(path_category(truncate(nerve(cyclic_group_category(2), 2), 2)))


def spine(n, closed=False):
    """Edges i -> i+1 on vertices 0..n, plus n -> 0 when closed."""
    v = lambda i: SimplexExpr((), i, 0)
    arrows = [(i, i + 1) for i in range(n)] + ([(n, 0)] if closed else [])
    faces = {n + 1 + k: (v(b), v(a)) for k, (a, b) in enumerate(arrows)}
    return SimplicialSet(1, [list(range(n + 1)), sorted(faces)], faces)


def test_loop_free_deep_spine():
    # deeper than the interpreter's recursion limit
    assert is_loop_free(path_category(spine(1500)))
    assert not is_loop_free(path_category(spine(1500, closed=True)))
    P = path_category(spine(1500))
    assert bounded_hom_classes(P, 0, 1, 1).partial  # the longest path has 1500 edges
    entry = bounded_hom_classes(P, 0, 1500, 1500)
    assert not entry.partial and [c.size for c in entry.classes] == [1]


# -- hom sets -------------------------------------------------------------------


def test_hom_sets_boundary2():
    B, _ = build_standard("boundary", 2)
    T = hom_sets(path_category(B))
    assert len(T.entry(0, 2).classes) == 2  # {02} and {12 . 01} stay distinct
    assert [c.size for c in T.entry(0, 2).classes] == [1, 1]
    assert len(T.entry(0, 1).classes) == 1
    assert len(T.entry(0, 0).classes) == 1  # identity only


def test_hom_sets_delta2():
    T = hom_sets(path_category(standard_simplex(2)))
    for x in range(3):
        for y in range(3):
            assert len(T.entry(x, y).classes) == (1 if x <= y else 0)
    assert T.entry(0, 2).classes[0].size == 2  # 02 and 01 . 12


def test_class_of_reduces_paths_and_rejects_others():
    P = path_category(standard_simplex(2))
    (rel,) = P.relations
    entry = hom_sets(P).entry(0, 2)
    assert entry.class_of(rel.lhs) == entry.class_of(rel.rhs) == entry.classes[0].rep
    with pytest.raises(KeyError):
        entry.class_of(rel.lhs[:1])  # a path 0 -> 1
    with pytest.raises(KeyError):
        entry.class_of(rel.lhs[::-1])  # not composable


def test_hom_sets_horn20():
    H, _ = build_standard("horn", 2, 0)
    T = hom_sets(path_category(H))
    assert len(T.entry(1, 2).classes) == 0
    assert len(T.entry(0, 2).classes) == 1
    assert len(T.entry(0, 1).classes) == 1


def test_hom_sets_refuses_loops():
    N = nerve(cyclic_group_category(2), 2)
    with pytest.raises(NotLoopFreeError):
        hom_sets(path_category(N))


def test_bounded_matches_exact_when_bound_dominates():
    B, _ = build_standard("boundary", 2)
    P = path_category(B)
    T = hom_sets(P)
    entry = bounded_hom_classes(P, 0, 2, 5)
    assert not entry.partial
    assert {c.rep for c in entry.classes} == {c.rep for c in T.entry(0, 2).classes}


def test_bounded_z2_classes():
    P = path_category(nerve(cyclic_group_category(2), 2))
    (v,) = P.objects
    entry = bounded_hom_classes(P, v, v, 3)
    assert entry.partial
    reps = {c.rep for c in entry.classes}
    assert len(reps) == 2  # identity and g, since g.g ~ identity
    assert () in reps
    assert [c.size for c in entry.classes] == [2, 2]  # {(), gg} and {g, ggg}


def test_bounded_empty_graph():
    P = path_category(standard_simplex(0))
    entry = bounded_hom_classes(P, 0, 0, 3)
    assert len(entry.classes) == 1 and entry.classes[0].rep == ()


# -- horn inclusions and path category hom tables --------------------------------


def hom_tables_agree_under_inclusion(sub, incl, ambient):
    """Hom tables of P(sub) and P(ambient) correspond bijectively under the
    inclusion-induced functor (generators map along incl)."""
    Psub = path_category(sub)
    Pamb = path_category(ambient)
    Tsub = hom_sets(Psub)
    Tamb = hom_sets(Pamb)
    vmap = {v: incl.assignment[v].base for v in sub.vertices()}
    emap = {e: incl.assignment[e].base for e in Psub.generators}
    for x in Psub.objects:
        for y in Psub.objects:
            esub = Tsub.entry(x, y)
            eamb = Tamb.entry(vmap[x], vmap[y])
            if len(esub) != len(eamb):
                return False
            images = {eamb.class_of(tuple(emap[g] for g in c.rep)) for c in esub.classes}
            if len(images) != len(esub):
                return False
    return True


@pytest.mark.parametrize("n", range(2, 6))
def test_inner_horn_path_iso(n):
    for k in range(1, n):
        H, incl = build_standard("horn", n, k)
        assert hom_tables_agree_under_inclusion(H, incl, standard_simplex(n))


def test_outer_horn_path_not_iso():
    for k in (0, 2):
        H, incl = build_standard("horn", 2, k)
        assert not hom_tables_agree_under_inclusion(H, incl, standard_simplex(2))


# -- counit ----------------------------------------------------------------------


def test_counit_for_chains():
    for n in range(5):
        assert counit_check(poset_category(n)).ok


def test_counit_for_z2():
    rep = counit_check(cyclic_group_category(2))
    assert rep.ok and not rep.inconclusive


def test_counit_for_free_iso():
    assert counit_check(free_iso_groupoid()).ok


# -- product comparison ------------------------------------------------------------


def test_product_comparison_interval_square():
    assert product_comparison(standard_simplex(1), standard_simplex(1))


def test_product_comparison_boundary_times_edge():
    B, _ = build_standard("boundary", 2)
    assert product_comparison(B, standard_simplex(1))


def test_product_comparison_point():
    B, _ = build_standard("boundary", 3)
    assert product_comparison(standard_simplex(0), B)


def test_product_comparison_refuses_loops():
    N = nerve(cyclic_group_category(2), 2)
    with pytest.raises(NotLoopFreeError):
        product_comparison(N, standard_simplex(1))


# -- homotopies ----------------------------------------------------------------------


def test_constant_homotopy_gives_identity_components():
    X = standard_simplex(1)
    I = standard_simplex(1)
    prod = product(X, I)
    h = projections(prod)[0]  # constant homotopy from id to id
    data = homotopy_to_nat_transformation(h, prod)
    assert data.natural
    for x, comp in data.components.items():
        assert comp.is_degenerate and comp.base == x


def test_projection_homotopy_components():
    # X x Delta^1 -> Delta^1 -> nerve(chain) picked out by the generator:
    # every component is that arrow's edge
    X, _ = build_standard("boundary", 2)
    I = standard_simplex(1)
    prod = product(X, I)
    N = nerve(poset_category(1), 2)
    edge = N.nondegenerate[1][0]
    to_N = validate_map(SimplicialMap(I, N, {0: N.expr(0), 1: N.expr(1), I.nondegenerate[1][0]: N.expr(edge)}))
    h = compose(to_N, projections(prod)[1])
    data = homotopy_to_nat_transformation(h, prod)
    assert data.natural
    assert all(c.base == edge for c in data.components.values())


def test_prism_over_edge_instantiates_triangle_relation():
    X = standard_simplex(1)
    prod = product(X, standard_simplex(1))
    data = homotopy_to_nat_transformation(identity_map(prod.complex), prod)
    assert data.natural
    (e,) = X.nondegenerate[1]
    t_bottom, t_top = data.square_witnesses[e]
    # the two prisms share their diagonal and are the two non-degenerate
    # 2-cells of the square
    assert not t_bottom.is_degenerate and not t_top.is_degenerate
    assert t_bottom != t_top
    assert prod.complex.face(t_bottom, 1) == prod.complex.face(t_top, 1)
