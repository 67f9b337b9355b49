"""`product` and `SimplicialSet.validate` against the loops they replaced.

`old_product` normalizes every distinct face pair of a cell with
`_pair_expr`; `product` reads a face pair that is a cell of the build from
a table seeded as the cells are made, and normalizes only degenerate face
pairs.  Every product must keep its ids, `pairs`, `pair_id`, face rows and
flag.  Singular factors (`walking_homotopy`, B(Z/2)) have degenerate faces,
so their products take the table's fallback.

A factor keeps its component expressions and keys through `KEPT_DIM`
across products.  A product must match the oracle whatever its factors
served in before: nothing, other products on either side, or X x X.  A
component's key is its expression's index in `all_exprs`, and its face keys
those of its face row one dimension down, cold or read from the memo.

`old_validate` compares the faces of faces pair by pair; `validate` checks
a dimension's identities by gathers over its columns of faces.  On a face
table with one entry replaced, both must raise the same first message.
"""

from hypothesis import assume, given, settings, strategies as st

from quasicat.cat import cyclic_group_category, nerve, poset_category
from quasicat.corpus import corpus_complexes, walking_homotopy
from quasicat.simplicial import (
    KEPT_DIM,
    _components,
    SimplexExpr,
    SimplicialError,
    SimplicialSet,
    build_standard,
    product,
    product_cell_count,
    standard_simplex,
)

from helpers import old_product, old_validate, tiny_complexes

CELL_LIMIT = 1500

FACTORS = {
    **{f"Delta{n}": standard_simplex(n) for n in range(4)},
    "horn_2_1": build_standard("horn", 2, 1)[0],
    "boundary_2": build_standard("boundary", 2)[0],
    "walking_homotopy_r": walking_homotopy("r"),
    "walking_homotopy_rrll": walking_homotopy("rrll"),
    "B(Z/2)": nerve(cyclic_group_category(2), 3),
    "B(chain2)": nerve(poset_category(2), 3),
    **corpus_complexes(),
}
NAMES = sorted(FACTORS)


def assert_same_product(X, Y, dim_bound):
    got, want = product(X, Y, dim_bound), old_product(X, Y, dim_bound)
    assert got.complex.nondegenerate == want.complex.nondegenerate
    assert list(got.complex.faces.items()) == list(want.complex.faces.items())
    assert list(got.pairs.items()) == list(want.pairs.items())
    assert list(got.pair_id.items()) == list(want.pair_id.items())
    assert got.complex.coskeletal_at == want.complex.coskeletal_at
    assert got.complex.labels == want.complex.labels
    return got


def test_singular_products_have_degenerate_face_pairs():
    # the fallback is reached: some face of a cell is a degenerate pair
    P = assert_same_product(FACTORS["B(Z/2)"], FACTORS["walking_homotopy_r"], 3).complex
    assert any(e.is_degenerate for fs in P.faces.values() for e in fs)


def test_products_of_simplices_match_oracle():
    for a in range(5):
        for b in range(5 - a):
            assert_same_product(standard_simplex(a), standard_simplex(b), None)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(NAMES), st.integers(0, 4))
def test_product_matches_oracle(a, b, dim_bound):
    X, Y = FACTORS[a], FACTORS[b]
    assume(product_cell_count(X, Y, dim_bound) <= CELL_LIMIT)
    assert_same_product(X, Y, dim_bound)


@settings(max_examples=60, deadline=None)
@given(tiny_complexes((3, 4, 3)), st.sampled_from(NAMES), st.integers(0, 3))
def test_product_with_drawn_complexes_matches_oracle(X, b, dim_bound):
    Y = FACTORS[b]
    assume(product_cell_count(X, Y, dim_bound) <= CELL_LIMIT)
    assert_same_product(X, Y, dim_bound)
    assert_same_product(Y, X, dim_bound)


def fresh(X):
    """X as a new complex, whose component memo is empty."""
    return SimplicialSet(X.dim_bound, [list(level) for level in X.nondegenerate], X.faces, X.coskeletal_at, X.labels)


def test_a_cold_product_matches_oracle():
    for a, b in [("B(Z/2)", "walking_homotopy_r"), ("boundary_2", "Delta2"), ("horn_2_1", "horn_2_1")]:
        X, Y = fresh(FACTORS[a]), fresh(FACTORS[b])
        assert not X._components and not Y._components
        assert_same_product(X, Y, 3)


def test_a_factor_that_served_elsewhere_matches_oracle():
    X, Y, Z = (fresh(FACTORS[name]) for name in ("B(Z/2)", "boundary_2", "walking_homotopy_r"))
    product(X, Z, 2)  # X on the left
    product(Z, X, 3)  # X on the right
    product(X, X, 2)  # X on both sides
    assert X._components
    assert_same_product(X, Y, 3)
    assert_same_product(Y, X, 3)
    assert_same_product(X, X, 3)


POOL = ["B(Z/2)", "B(chain2)", "boundary_2", "horn_2_1", "walking_homotopy_r", "Delta1", "Delta2"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL), st.integers(0, 4)), min_size=1, max_size=6))
def test_products_sharing_factors_match_oracle(builds):
    # each build meets the memos the builds before it left on the same factors
    pool = {name: fresh(FACTORS[name]) for name in POOL}
    for a, b, dim_bound in builds:
        if product_cell_count(pool[a], pool[b], dim_bound) <= CELL_LIMIT:
            assert_same_product(pool[a], pool[b], dim_bound)


def test_components_above_the_kept_dimension_are_dropped_with_the_build():
    X, Y = fresh(standard_simplex(2)), fresh(standard_simplex(3))
    assert_same_product(X, Y, None)
    kept = {key if isinstance(key, int) else key[0] for Z in (X, Y) for key in Z._components}
    assert kept == set(range(KEPT_DIM + 1))


def assert_components_rank(Z):
    """Keys and face keys of every (d, p) through 4, cold and then from the
    memo, against the indexes of `all_exprs` and the face rows."""
    local: dict = {}
    for d in range(5):
        index = {e: r for r, e in enumerate(Z.all_exprs(d))}
        face_index = {e: r for r, e in enumerate(Z.all_exprs(d - 1))} if d else {}
        assert len(index) == Z.n_exprs(d)  # the expressions are distinct, so a dict holds their indexes
        for p in range(min(d, Z.dim) + 1):
            for _ in ("cold", "warm"):
                block = _components(Z, d, p, local)
                assert len(block) == len(Z.nondegenerate[p])
                for z, es in zip(Z.nondegenerate[p], block):
                    for e, key, face_keys in es:
                        assert e.base == z and e.dim == d
                        assert key == index[e], (d, p, e)
                        assert face_keys == tuple(face_index[f] for f in (Z.face_row(e) if d else ())), (d, p, e)


def test_component_keys_are_all_exprs_ranks():
    for name in NAMES:
        assert_components_rank(fresh(FACTORS[name]))


@settings(max_examples=60, deadline=None)
@given(tiny_complexes((3, 4, 3)))
def test_component_keys_are_all_exprs_ranks_on_drawn_complexes(X):
    assert_components_rank(X)


def test_the_fallback_memoizes_only_the_rows_it_normalizes():
    # a face pair that is a cell is one read; the first cell of a dimension
    # that meets a degenerate face pair not yet normalized reads both of its
    # components' rows, and only a degenerate component's row is memoized
    X, Y = fresh(FACTORS["B(Z/2)"]), fresh(FACTORS["walking_homotopy_r"])
    before = (set(X._rows), set(Y._rows))  # the rows `validate` read
    P = product(X, Y, 3)
    read: tuple[set, set] = (set(), set())
    normalized: set = set()
    for e1, e2 in P.pairs.values():
        d = e1.dim
        face_pairs = {(X.face(e1, i), Y.face(e2, i)) for i in range(d + 1 if d else 0)}
        new = {(f1, f2) for f1, f2 in face_pairs if set(f1.word) & set(f2.word)} - normalized
        if new:
            normalized |= new
            read[0].update([e1] if e1.is_degenerate else [])
            read[1].update([e2] if e2.is_degenerate else [])
    assert read[0] - before[0] and read[1] - before[1]
    assert (set(X._rows), set(Y._rows)) == (before[0] | read[0], before[1] | read[1])


def first_failure(check, X):
    try:
        check(X)
    except SimplicialError as err:
        return str(err)
    return None


VALIDATED = {
    **FACTORS,
    "Delta2 x Delta2": product(standard_simplex(2), standard_simplex(2)).complex,
    "B(Z/2) x walking_homotopy_r": product(FACTORS["B(Z/2)"], FACTORS["walking_homotopy_r"], 3).complex,
}


@st.composite
def one_face_replaced(draw):
    """A complex of `VALIDATED` with one face entry replaced, most often by
    an expression of the right dimension, so that the identities decide."""
    X = VALIDATED[draw(st.sampled_from(sorted(VALIDATED)))]
    cells = [s for d in range(1, X.dim_bound + 1) for s in X.nondegenerate[d]]
    assume(cells)
    s = draw(st.sampled_from(cells))
    d = X.dim_of[s]
    i = draw(st.integers(0, d))
    right_dim = X.all_exprs(d - 1)
    e = draw(
        st.one_of(
            st.sampled_from(right_dim),
            st.sampled_from(X.all_exprs(max(d - 2, 0))),
            st.just(SimplexExpr((), max(X.dim_of) + 1, d - 1)),
        )
        if draw(st.integers(0, 4)) == 0
        else st.sampled_from(right_dim)
    )
    faces = dict(X.faces)
    faces[s] = faces[s][:i] + (e,) + faces[s][i + 1 :]
    return SimplicialSet(X.dim_bound, [list(level) for level in X.nondegenerate], faces, check=False)


def test_unchanged_complexes_validate():
    for X in VALIDATED.values():
        assert first_failure(old_validate, X) is None
        assert first_failure(SimplicialSet.validate, X) is None


@settings(max_examples=300, deadline=None)
@given(one_face_replaced())
def test_validate_raises_the_oracle_first_message(X):
    assert first_failure(SimplicialSet.validate, X) == first_failure(old_validate, X)


def test_validate_names_the_first_failing_cell_and_pair():
    # d_0 of every 2-cell of Delta^2 x Delta^1 replaced: the first 2-cell
    # fails first, at its first (i, j) in (j, i) order
    P = product(standard_simplex(2), standard_simplex(1)).complex
    faces = dict(P.faces)
    for s in P.nondegenerate[2]:
        row = faces[s]
        faces[s] = (row[1],) + row[1:]
    X = SimplicialSet(P.dim_bound, [list(level) for level in P.nondegenerate], faces, check=False)
    message = first_failure(SimplicialSet.validate, X)
    assert message == first_failure(old_validate, X)
    assert message.startswith(f"simplicial identity fails at {P.nondegenerate[2][0]}, ")


def raised(check, X):
    try:
        check(X)
    except Exception as err:  # noqa: BLE001 - an entry that is no expression raises alike
        return type(err), str(err)
    return None


def test_validate_names_the_first_cell_with_a_bad_face_row():
    # face counts and face targets are checked per level, once per distinct
    # face expression; only a failing level is scanned, in cell order
    P = product(standard_simplex(2), standard_simplex(1)).complex
    first, second = P.nondegenerate[2][:2]
    stranger = SimplexExpr((), max(P.dim_of) + 1, 1)
    cases = [
        {second: P.faces[second][:2], first: P.faces[first][:1]},
        {second: (stranger,) + P.faces[second][1:]},
        {second: (stranger,) + P.faces[second][1:], first: P.faces[first][:2] + (SimplexExpr((0,), 0, 1),)},
        {first: P.faces[first][:2] + (SimplexExpr((), P.nondegenerate[1][0], 0),)},
        {P.nondegenerate[0][1]: (SimplexExpr((), 0, 0),)},
        {second: P.faces[second][:2] + (None,)},
    ]
    for changed in cases:
        faces = {**P.faces, **changed}
        X = SimplicialSet(P.dim_bound, [list(level) for level in P.nondegenerate], faces, check=False)
        assert raised(SimplicialSet.validate, X) == raised(old_validate, X)
    X = SimplicialSet(P.dim_bound, [list(level) for level in P.nondegenerate], {**P.faces, first: None}, check=False)
    assert first_failure(SimplicialSet.validate, X) == f"simplex {first} needs 3 faces"


def test_an_unchecked_complex_keeps_the_dicts_it_is_given():
    # a product's labels are its pairs, held once
    pc = product(standard_simplex(2), standard_simplex(2))
    assert pc.complex.labels is pc.pairs
    faces = dict(pc.complex.faces)
    X = SimplicialSet(pc.complex.dim_bound, [list(level) for level in pc.complex.nondegenerate], faces)
    assert X.faces == faces and X.faces is not faces
