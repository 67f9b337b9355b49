import itertools

import pytest

from quasicat.simplicial import (
    SimplicialError,
    SizeLimitError,
    build_standard,
    closure_ids,
    degeneracy_expr,
    iso_check,
    make_subcomplex,
    product,
    standard_simplex,
)

from helpers import projections, truncate, validate_map


# -- independent oracles -----------------------------------------------------


def oracle_simplex_counts(n):
    # monotone injections {0..d} -> {0..n}
    return tuple(
        len(list(itertools.combinations(range(n + 1), d + 1))) for d in range(n + 1)
    )


def oracle_chain_counts(r, s, top):
    # strictly increasing chains in the grid poset (r+1) x (s+1), by length,
    # counted by dynamic programming (independent of the product construction)
    points = [(i, j) for i in range(r + 1) for j in range(s + 1)]
    below = {
        p: [q for q in points if q != p and q[0] <= p[0] and q[1] <= p[1]]
        for p in points
    }
    f = {p: 1 for p in points}
    counts = [len(points)]
    for _ in range(top):
        f = {p: sum(f[q] for q in below[p]) for p in points}
        counts.append(sum(f.values()))
    return tuple(counts)


def test_oracle_sanity():
    assert oracle_simplex_counts(2) == (3, 3, 1)
    assert oracle_chain_counts(1, 1, 2) == (4, 5, 2)


# -- standard complexes ------------------------------------------------------


def test_standard_simplex_counts():
    for n in range(5):
        X = standard_simplex(n)
        assert X.counts() == oracle_simplex_counts(n)
        X.validate()


def test_simplex2_counts_trivial():
    assert standard_simplex(2).counts() == (3, 3, 1)


def test_horn21_counts_and_missing_edge():
    H, incl = build_standard("horn", 2, 1)
    assert H.counts() == (3, 2, 0)
    validate_map(incl)
    present = {H.labels[s] for s in H.nondegenerate[1]}
    assert present == {(0, 1), (1, 2)}  # {0,2} is the deleted face


def test_boundary3_counts_derived():
    B, incl = build_standard("boundary", 3)
    assert B.counts() == (4, 6, 4, 0)
    assert B.counts()[:3] == oracle_simplex_counts(3)[:3]
    validate_map(incl)


def test_horn_errors():
    with pytest.raises(SimplicialError):
        build_standard("horn", 2, 5)
    with pytest.raises(SimplicialError):
        build_standard("horn", 2, -1)


# -- face/degeneracy words ---------------------------------------------------


def test_face_degeneracy_identities_on_point():
    X = standard_simplex(0)
    v = X.expr(0)
    sv = degeneracy_expr(v, 0)
    assert X.face(sv, 0) == v  # d0 s0 = id
    assert X.face(sv, 1) == v  # d1 s0 = id


def test_face_degeneracy_identities_on_edge():
    X = standard_simplex(1)
    e = X.expr(X.nondegenerate[1][0])
    se = degeneracy_expr(e, 0)
    assert X.face(se, 1) == e  # d1 s0 = id
    assert X.face(se, 2) == degeneracy_expr(X.face(e, 1), 0)  # d2 s0 = s0 d1


def test_degeneracy_word_normalization():
    X = standard_simplex(0)
    v = X.expr(0)
    # s0 s0 = s1 s0
    a = degeneracy_expr(degeneracy_expr(v, 0), 0)
    assert a.word == (1, 0)
    # s0 s1 = s2 s0 would arise from composing in the other order
    b = degeneracy_expr(degeneracy_expr(v, 0), 1)
    assert b.word == (1, 0)


def test_simplicial_identities_exhaustive_on_degenerate_exprs():
    X = standard_simplex(2)
    for e in X.all_exprs(3):
        for j in range(1, 4):
            for i in range(j):
                assert X.face(X.face(e, j), i) == X.face(X.face(e, i), j - 1)


def test_vertex_ids():
    X = standard_simplex(3)
    top = X.expr(X.nondegenerate[3][0])
    assert X.vertex_ids(top) == (0, 1, 2, 3)
    s1top = degeneracy_expr(top, 1)
    assert X.vertex_ids(s1top) == (0, 1, 1, 2, 3)
    assert X.vertex_ids(X.restrict(top, (0, 2))) == (0, 2)


# -- products ----------------------------------------------------------------


def test_product_square_counts_derived():
    P = product(standard_simplex(1), standard_simplex(1))
    assert P.complex.counts() == (4, 5, 2)
    assert P.complex.counts() == oracle_chain_counts(1, 1, 2)
    P.complex.validate()
    for pr in projections(P):
        validate_map(pr)


def test_product_delta2_delta2_counts_derived():
    P = product(standard_simplex(2), standard_simplex(2))
    assert P.complex.counts() == oracle_chain_counts(2, 2, 4)
    assert P.complex.counts()[4] == 6  # lattice paths (0,0) -> (2,2)
    P.complex.validate()


def test_product_with_point_is_iso():
    X, _ = build_standard("boundary", 2)
    P = product(X, standard_simplex(0))
    assert iso_check(P.complex, X) is not None


@pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4)])
def test_product_top_dimension_counts(r, s):
    # Non-degenerate cells of maximal dimension have dimension exactly r+s,
    # counted by the lattice-path oracle.
    P = product(standard_simplex(r), standard_simplex(s))
    counts = P.complex.counts()
    assert len(counts) - 1 == r + s
    assert counts == oracle_chain_counts(r, s, r + s)
    assert counts[r + s] > 0


def test_product_delta3_delta2_validates():
    # exhaustive simplicial-identity check over a product with deeper
    # degeneracy-word interaction
    P = product(standard_simplex(3), standard_simplex(2))
    P.complex.validate()
    assert P.complex.counts() == oracle_chain_counts(3, 2, 5)


def test_product_truncation_flag():
    P = product(standard_simplex(2), standard_simplex(2), dim_bound=2)
    assert P.complex.coskeletal_at is None  # truncated: flag dropped
    Q = product(standard_simplex(1), standard_simplex(1))
    assert Q.complex.coskeletal_at == 1


# -- subcomplexes ------------------------------------------------------------


def test_subcomplex_horn_from_faces():
    D2 = standard_simplex(2)
    by_label = {D2.labels[s]: s for s in D2.cells()}
    sub, incl = make_subcomplex(D2, closure_ids(D2, [by_label[(1, 2)], by_label[(0, 1)]]))
    validate_map(incl)
    H, _ = build_standard("horn", 2, 1)
    assert iso_check(sub, H) is not None


def test_subcomplex_of_all_top_cells_is_whole():
    B, _ = build_standard("boundary", 3)
    sub, _ = make_subcomplex(B, closure_ids(B, list(B.nondegenerate[2])))
    assert sub.counts() == B.counts()


def test_subcomplex_delta3_two_faces_counts():
    D3 = standard_simplex(3)
    by_label = {D3.labels[s]: s for s in D3.cells()}
    sub, _ = make_subcomplex(D3, closure_ids(D3, [by_label[(1, 2, 3)], by_label[(0, 1, 2)]]))
    assert sub.counts() == (4, 5, 2, 0)


def test_subcomplex_unknown_seed():
    with pytest.raises(SimplicialError):
        closure_ids(standard_simplex(1), [99])


# -- iso_check ---------------------------------------------------------------


def test_iso_check_identity():
    D2 = standard_simplex(2)
    phi = iso_check(D2, standard_simplex(2))
    assert phi is not None
    validate_map(phi)


def test_iso_check_direction_sensitive():
    # Lambda^2_0 (two edges out of one vertex) and Lambda^2_1 (a directed
    # path) have matching cell counts but no face-commuting bijection.
    H0, _ = build_standard("horn", 2, 0)
    H1, _ = build_standard("horn", 2, 1)
    assert iso_check(H0, H1) is None


def test_iso_check_cardinality_mismatch():
    B, _ = build_standard("boundary", 2)
    H, _ = build_standard("horn", 2, 1)
    assert iso_check(B, H) is None


def test_iso_check_size_limit():
    with pytest.raises(SizeLimitError):
        iso_check(standard_simplex(3), standard_simplex(3), limit=3)


# -- inner horn inclusions are bijective on vertices ---------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_inner_horn_vertex_bijection(n):
    for k in range(1, n):
        H, incl = build_standard("horn", n, k)
        assert len(H.vertices()) == n + 1
        images = {incl.assignment[v].base for v in H.vertices()}
        assert images == set(standard_simplex(n).vertices())


def test_truncate():
    D3 = standard_simplex(3)
    sk2 = truncate(D3, 2)
    assert sk2.counts() == (4, 6, 4)
    assert sk2.coskeletal_at is None
