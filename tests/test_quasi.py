import pytest

from quasicat.cat import (
    cyclic_group_category,
    free_iso_groupoid,
    idempotent_monoid_category,
    iso_subgroupoid,
    nerve,
    poset_category,
)
from quasicat.pathcat import bounded_hom_classes, path_category
from quasicat.quasi import (
    CertificationError,
    HornMap,
    certify_quasi_category,
    core,
    enumerate_horns,
    find_filler,
    has_right_homotopy,
    ho_category_data,
    quasi_iso_edges,
    right_homotopy_classes,
    saturation_step,
    tau0,
)
from quasicat.simplicial import (
    SimplexExpr,
    SimplicialSet,
    build_standard,
    closure_ids,
    iso_check,
    make_subcomplex,
    product,
    standard_simplex,
    with_coskeletal,
)

from helpers import category_iso, function_complex, has_left_homotopy, truncate, validate_horn, validate_map


def composable_pair_oracle(X):
    """#(2,1)-horn maps = composable pairs of edge exprs (incl. degenerate)."""
    edges = [e for e in X.all_exprs(1)]
    count = 0
    for a in edges:
        for b in edges:
            if X.vertex_ids(a)[1] == X.vertex_ids(b)[0]:
                count += 1
    return count


# -- horn enumeration ----------------------------------------------------------


def test_enumerate_horns_on_point():
    X = standard_simplex(0)
    for n, k in [(2, 1), (3, 1), (3, 2)]:
        assert len(enumerate_horns(X, n, k)) == 1


def test_enumerate_horns_identity_present():
    H, _ = build_standard("horn", 2, 1)
    horns = enumerate_horns(H, 2, 1)
    assert len(horns) == composable_pair_oracle(H) == 8
    tops = {(h.top[0], h.top[2]) for h in horns}
    e01, e12 = (H.expr(s) for s in H.nondegenerate[1])
    assert (e12, e01) in tops  # the identity horn


def test_enumerate_horns_boundary2():
    B, _ = build_standard("boundary", 2)
    horns = enumerate_horns(B, 2, 1)
    assert len(horns) == composable_pair_oracle(B) == 10
    nondeg_hits = [
        h
        for h in horns
        if not h.top[0].is_degenerate
        and not h.top[2].is_degenerate
        and h.top[0] != h.top[2]
    ]
    assert len(nondeg_hits) == 1  # only 0->1->2 is composable among edges


def test_horn_validation():
    X = standard_simplex(2)
    for h in enumerate_horns(X, 2, 1):
        validate_horn(h, X)


# -- fillers ---------------------------------------------------------------------


def test_fillers_in_nerve():
    N = nerve(cyclic_group_category(3), 3)
    for k in (1, 2):
        for h in enumerate_horns(N, 3, k):
            assert find_filler(N, h) is not None


def test_missing_filler_in_horn():
    H, _ = build_standard("horn", 2, 1)
    e01, e12 = (H.expr(s) for s in H.nondegenerate[1])
    identity_horn = validate_horn(HornMap(2, 1, (e12, None, e01)), H)
    assert find_filler(H, identity_horn) is None


def test_outer_horn_fills_in_groupoid_nerve():
    N = nerve(cyclic_group_category(2), 3)
    for h in enumerate_horns(N, 2, 0):
        assert find_filler(N, h) is not None


# -- certification ----------------------------------------------------------------


def test_certify_nerves():
    for C in [poset_category(2), cyclic_group_category(2), free_iso_groupoid(), idempotent_monoid_category()]:
        rep = certify_quasi_category(nerve(C, 3))
        assert rep.is_quasi
        assert rep.certified_up_to == 3


def test_certify_horn_counterexample():
    H, _ = build_standard("horn", 2, 1)
    rep = certify_quasi_category(H)
    assert rep.verdict == "counterexample"
    assert rep.counterexample.n == 2 and rep.counterexample.k == 1


def test_certify_square():
    P = product(standard_simplex(1), standard_simplex(1))
    rep = certify_quasi_category(P.complex)
    assert rep.is_quasi


def test_certify_missing_flag_inconclusive():
    P = product(standard_simplex(1), standard_simplex(1))
    rep = certify_quasi_category(with_coskeletal(P.complex, None))
    assert rep.verdict == "inconclusive"


def test_certify_truncation_at_flag_uses_shell_check():
    # stored only to dimension 2, but the 2-coskeletal declaration decides
    # the 3-horns by their missing face
    rep = certify_quasi_category(nerve(poset_category(2), 2))
    assert rep.is_quasi


def test_certify_below_flag_inconclusive():
    X = with_coskeletal(truncate(nerve(poset_category(2), 2), 1), 2)
    rep = certify_quasi_category(X)
    assert rep.verdict == "inconclusive"


def test_certify_boundary3_with_face_removed():
    D3 = standard_simplex(3)
    by_label = {D3.labels[s]: s for s in D3.cells()}
    seeds = [by_label[(1, 2, 3)], by_label[(0, 1, 3)], by_label[(0, 1, 2)]]
    sub, _ = make_subcomplex(D3, closure_ids(D3, seeds))
    sub = with_coskeletal(sub, 3)
    rep = certify_quasi_category(sub)
    assert rep.verdict == "counterexample"
    assert rep.counterexample.is_inner


# -- quasi-isomorphism witnesses ----------------------------------------------------


def test_poset_nerve_has_only_degenerate_quasi_isos():
    N = nerve(poset_category(2), 3)
    witnesses = quasi_iso_edges(N)
    assert all(e.is_degenerate for e in witnesses)
    assert len([e for e in witnesses]) == 3  # one degenerate edge per vertex


def test_interval_nerve_every_edge_quasi_iso():
    I = nerve(free_iso_groupoid(), 3)
    witnesses = quasi_iso_edges(I)
    nondeg = {e.base for e in witnesses if not e.is_degenerate}
    assert nondeg == set(I.nondegenerate[1])


def test_idempotent_monoid_edge_not_quasi_iso():
    N = nerve(idempotent_monoid_category(), 3)
    witnesses = quasi_iso_edges(N)
    assert all(e.is_degenerate for e in witnesses)


def test_witness_boundaries():
    N = nerve(cyclic_group_category(2), 3)
    witnesses = quasi_iso_edges(N)
    for alpha, w in witnesses.items():
        x, y = N.vertex_ids(alpha)
        assert N.face(w.sigma, 0) == w.beta
        assert N.face(w.sigma, 1) == SimplexExpr((0,), x, 1)
        assert N.face(w.sigma, 2) == alpha
        assert N.face(w.sigma_prime, 0) == alpha
        assert N.face(w.sigma_prime, 1) == SimplexExpr((0,), y, 1)
        assert N.face(w.sigma_prime, 2) == w.beta


def test_quasi_iso_refuses_uncertified():
    H, _ = build_standard("horn", 2, 1)
    with pytest.raises(CertificationError):
        quasi_iso_edges(H)


def test_quasi_iso_agrees_with_path_invertibility():
    # on a certified nerve, witnesses exist exactly for edges invertible in P
    for C in [poset_category(1), cyclic_group_category(2), idempotent_monoid_category(), free_iso_groupoid()]:
        N = nerve(C, 3)
        witnesses = quasi_iso_edges(N)
        P = path_category(N)
        for e in N.nondegenerate[1]:
            expr = N.expr(e)
            x, y = N.vertex_ids(expr)
            entry_back = bounded_hom_classes(P, y, x, 3)
            entry_loop_x = bounded_hom_classes(P, x, x, 4)
            invertible = False
            for c in entry_back.classes:
                w = c.rep
                loop = (e,) + w
                if entry_loop_x.class_of(loop) == entry_loop_x.class_of(()):
                    # also check the other composite
                    entry_loop_y = bounded_hom_classes(P, y, y, 4)
                    if entry_loop_y.class_of(w + (e,)) == entry_loop_y.class_of(()):
                        invertible = True
                        break
            assert (expr in witnesses) == invertible


# -- core -----------------------------------------------------------------------------


def test_core_of_nerve_is_iso_nerve():
    for C in [poset_category(1), poset_category(2), cyclic_group_category(2), idempotent_monoid_category(), free_iso_groupoid()]:
        N = nerve(C, 3)
        J, incl = core(N)
        validate_map(incl)
        target = nerve(iso_subgroupoid(C), 3)
        assert iso_check(J, target, limit=128) is not None


def test_core_of_groupoid_nerve_is_everything():
    N = nerve(cyclic_group_category(3), 3)
    J, _ = core(N)
    assert J.counts() == N.counts()


def test_core_of_poset_nerve_is_vertices():
    N = nerve(poset_category(1), 3)
    J, _ = core(N)
    assert J.counts() == (2, 0, 0, 0)


def test_core_certifies_and_is_kan_at_small_dims():
    N = nerve(cyclic_group_category(2), 3)
    J, _ = core(N)
    rep = certify_quasi_category(J)
    assert rep.is_quasi
    witnesses = quasi_iso_edges(J, rep)
    nondeg = {e.base for e in witnesses if not e.is_degenerate}
    assert nondeg == set(J.nondegenerate[1])
    # outer horns fill in dims 2..3 (Kan direction)
    for n in (2, 3):
        for k in (0, n):
            for h in enumerate_horns(J, n, k):
                assert find_filler(J, h) is not None


# -- homotopy category -----------------------------------------------------------------


def test_ho_of_nerve_is_category_itself():
    for C in [poset_category(2), cyclic_group_category(2), free_iso_groupoid()]:
        N = nerve(C, 3)
        ho = ho_category_data(N)
        assert category_iso(ho.category, C) is not None


def test_ho_of_square_is_product_poset():
    P = product(standard_simplex(1), standard_simplex(1))
    ho = ho_category_data(P.complex)
    from quasicat.cat import product_category

    target = product_category(poset_category(1), poset_category(1))
    assert category_iso(ho.category, target) is not None


def test_ho_of_point():
    ho = ho_category_data(with_coskeletal(standard_simplex(0), 0))
    assert len(ho.category.objects) == 1 and len(ho.category.arrows) == 1


def test_ho_composition_filler_independent():
    N = nerve(cyclic_group_category(2), 3)
    ho = ho_category_data(N)
    edge_class = ho.edge_class
    for alpha in N.all_exprs(1):
        for beta in N.all_exprs(1):
            if N.vertex_ids(alpha)[1] != N.vertex_ids(beta)[0]:
                continue
            composites = set()
            for tau in N.all_exprs(2):
                if N.face(tau, 2) == alpha and N.face(tau, 0) == beta:
                    composites.add(edge_class[N.face(tau, 1)])
            assert len(composites) == 1


def test_homotopy_left_right_coherence():
    N = nerve(cyclic_group_category(2), 3)
    classes, _ = right_homotopy_classes(N)
    for members in classes.values():
        for a in members:
            for b in members:
                assert has_right_homotopy(N, a, b)
                assert has_right_homotopy(N, b, a)
                assert has_left_homotopy(N, a, b)
                assert has_left_homotopy(N, b, a)


# -- function complexes ------------------------------------------------------------------


def test_function_complex_from_point():
    X = nerve(poset_category(1), 2)
    H = function_complex(standard_simplex(0), X, 2)
    assert iso_check(H, X) is not None


def test_function_complex_interval_vertices():
    D1 = standard_simplex(1)
    H = function_complex(D1, with_coskeletal(D1, 1), 1)
    assert len(H.vertices()) == 3  # monotone maps of the 2-chain to itself


def test_function_complex_from_two_points():
    B, _ = build_standard("boundary", 1)
    X = nerve(poset_category(1), 2)
    H = function_complex(B, X, 2)
    P = product(X, X, dim_bound=2)
    assert iso_check(H, P.complex, limit=128) is not None


def test_tau0_of_nerve_counts_iso_classes():
    pt = standard_simplex(0)
    assert len(tau0(pt, nerve(poset_category(2), 3))) == 3
    assert len(tau0(pt, nerve(free_iso_groupoid(), 3))) == 1
    assert len(tau0(pt, nerve(cyclic_group_category(2), 3))) == 1


def test_tau0_into_point():
    B, _ = build_standard("boundary", 1)
    assert len(tau0(B, with_coskeletal(standard_simplex(0), 0))) == 1


def test_tau0_pairs_of_classes():
    B, _ = build_standard("boundary", 1)
    assert len(tau0(B, nerve(poset_category(2), 3))) == 9


def test_tau0_refuses_a_0_coskeletal_x_stored_without_its_edges():
    # cosk_0 of two points joins them by an edge that a dim_bound of 0 does
    # not store, so the maps read off X would miss it
    two = SimplicialSet(0, [[0, 1]], {}, 0)
    assert certify_quasi_category(two).is_quasi
    with pytest.raises(CertificationError, match="^tau0 needs X through dimension 1: coskeletal_at 0 joins its 2 vertices$"):
        tau0(standard_simplex(0), two)


def test_function_complex_interval_into_chain_nerve():
    # hom(B(chain0->1), B(chain)) is the nerve of the arrow category, which
    # for the 2-chain is again a chain with three objects
    H = function_complex(standard_simplex(1), nerve(poset_category(1), 3), 2)
    assert iso_check(H, nerve(poset_category(2), 2)) is not None


# -- saturation ------------------------------------------------------------------------


def test_saturation_of_horn_contains_simplex():
    H, _ = build_standard("horn", 2, 1)
    res = saturation_step(H, 2)
    res.complex.validate()
    validate_map(res.inclusion)
    assert res.horns_attached == 8  # one per composable pair of edge exprs
    assert res.cells_added == 16
    # the filler for the identity horn is among the attached cells
    e01, e12 = (H.expr(s) for s in H.nondegenerate[1])
    filled = [
        s
        for s in res.complex.nondegenerate[2]
        if res.complex.faces[s][2] == e01 and res.complex.faces[s][0] == e12
    ]
    assert filled


def test_saturation_counts_boundary2():
    B, _ = build_standard("boundary", 2)
    res = saturation_step(B, 2)
    res.complex.validate()
    assert res.horns_attached == 10
    assert res.cells_added == 20


def test_saturation_attaches_even_when_fillable():
    N = nerve(poset_category(1), 2)
    horn_count = len(enumerate_horns(N, 2, 1))
    res = saturation_step(N, 2)
    assert res.horns_attached == horn_count
    assert res.complex.n_cells == N.n_cells + 2 * horn_count


def test_saturation_through_dimension_three():
    N = nerve(poset_category(1), 2)
    expected = sum(
        len(enumerate_horns(N, n, k)) for n in (2, 3) for k in range(1, n)
    )
    res = saturation_step(N, 3)
    assert res.horns_attached == expected
    # exhaustive simplicial-identity check over all attached cells
    res.complex.validate()
    validate_map(res.inclusion)
