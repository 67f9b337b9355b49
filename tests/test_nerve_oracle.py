"""`cat.nerve` against the code it replaced.

The oracle is the previous `nerve`: it scanned every non-identity arrow
for each string it extended, and built a face with identities through a
recursion that stripped the first identity and applied its degeneracy.
The nerves are compared cell by cell, face by face and label by label, on
every corpus category at dimensions 0 to 5 and on products and disjoint
unions of small groupoids, monoids and posets, as the `*.sset.json`
inputs of the benchmark are built, fixed and drawn.  `nerve` builds its
complex unchecked, with faces made by the trusted constructor, so the
added comparisons also validate every nerve they build.
"""

import pytest
from hypothesis import given, settings, strategies as st

from quasicat.cat import (
    cyclic_group_category,
    disjoint_union_category,
    free_iso_groupoid,
    idempotent_monoid_category,
    nerve,
    poset_category,
    product_category,
)
from quasicat.corpus import corpus_categories, random_categories
from quasicat.simplicial import SimplexExpr, SimplicialSet, degeneracy_expr


def old_nerve(C, dim_bound: int) -> SimplicialSet:
    obj_vertex = {x: i for i, x in enumerate(C.objects)}
    nondeg = [[] for _ in range(dim_bound + 1)]
    labels = {}
    string_id = {}
    next_id = 0
    for x in C.objects:
        nondeg[0].append(next_id)
        labels[next_id] = ("object", x)
        next_id += 1
    strings = [()]
    for d in range(1, dim_bound + 1):
        new = []
        for s in strings:
            for f in C.nonidentity_arrows():
                if s and C.src[f] != C.tgt[s[-1]]:
                    continue
                new.append(s + (f,))
        strings = new
        for t in strings:
            string_id[t] = next_id
            nondeg[d].append(next_id)
            labels[next_id] = ("string", t)
            next_id += 1

    def string_to_expr(t, at):
        for j, a in enumerate(t):
            if C.is_identity(a):
                return degeneracy_expr(string_to_expr(t[:j] + t[j + 1 :], at), j)
        if len(t) == 0:
            return SimplexExpr((), obj_vertex[at], 0)
        return SimplexExpr((), string_id[t], len(t))

    faces = {}
    for t, s in string_id.items():
        d = len(t)
        fs = []
        for i in range(d + 1):
            if i == 0:
                u, at = t[1:], C.tgt[t[0]]
            elif i == d:
                u, at = t[:-1], C.src[t[0]]
            else:
                u = t[: i - 1] + (C.compose_table[(t[i], t[i - 1])],) + t[i + 1 :]
                at = C.src[t[0]]
            fs.append(string_to_expr(u, at))
        faces[s] = tuple(fs)
    return SimplicialSet(dim_bound, nondeg, faces, 2, labels, check=False)


def assert_nerve_matches_oracle(C, dim_bound):
    got, want = nerve(C, dim_bound), old_nerve(C, dim_bound)
    assert got.dim_bound == want.dim_bound and got.coskeletal_at == want.coskeletal_at
    assert got.nondegenerate == want.nondegenerate
    assert got.faces == want.faces
    assert got.labels == want.labels
    return got


@pytest.mark.parametrize("dim_bound", [2, 3, 4])
def test_corpus_nerves_match_oracle(dim_bound):
    for C in corpus_categories().values():
        assert_nerve_matches_oracle(C, dim_bound)


def primitive_categories():
    z2, z3, pi = cyclic_group_category(2), cyclic_group_category(3), free_iso_groupoid()
    idem, chain1, chain2 = idempotent_monoid_category(), poset_category(1), poset_category(2)
    return {"z2": z2, "z3": z3, "pi": pi, "idem": idem, "chain1": chain1, "chain2": chain2}


def mixed_categories():
    z2, z3, pi, idem, chain1, chain2 = primitive_categories().values()
    return {
        "z2 x chain2": product_category(z2, chain2),
        "pi x idem": product_category(pi, idem),
        "idem x chain1": product_category(idem, chain1),
        "z3 + chain2": disjoint_union_category(z3, chain2),
        "(z2 x chain1) + pi": disjoint_union_category(product_category(z2, chain1), pi),
        "idem + idem": disjoint_union_category(idem, idem),
    }


@pytest.mark.parametrize("name", sorted(mixed_categories()))
def test_products_and_unions_match_oracle(name):
    assert_nerve_matches_oracle(mixed_categories()[name], 3)


# -- the extension rule: first levels, dimension 5, drawn categories ---------------

SMALL_NERVE = 20_000  # cells up to which the oracle stays cheap


def assert_valid_nerve_matches_oracle(C, dim_bound):
    got = assert_nerve_matches_oracle(C, dim_bound)
    got.validate()
    return got


def nerve_cell_count(C, dim_bound: int) -> int:
    """Composable strings of non-identity arrows of length <= dim_bound,
    counted by their last object."""
    ends, total = dict.fromkeys(C.objects, 1), len(C.objects)
    for _ in range(dim_bound):
        step = dict.fromkeys(C.objects, 0)
        for f in C.nonidentity_arrows():
            step[C.tgt[f]] += ends[C.src[f]]
        ends = step
        total += sum(ends.values())
    return total


@pytest.mark.parametrize("dim_bound", [0, 1])
def test_first_levels_match_oracle(dim_bound):
    # level 1 is read off the arrows, not extended from level 0
    for C in corpus_categories().values():
        assert_valid_nerve_matches_oracle(C, dim_bound)


def test_dimension_5_matches_oracle_where_small():
    checked = 0
    for C in [*corpus_categories().values(), *mixed_categories().values()]:
        cells = nerve_cell_count(C, 5)
        if cells <= SMALL_NERVE:
            assert assert_valid_nerve_matches_oracle(C, 5).n_cells == cells
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("dim_bound", range(6))
def test_random_categories_match_oracle(dim_bound):
    for C in random_categories():
        assert_valid_nerve_matches_oracle(C, dim_bound)


def test_identity_composites_give_degenerate_faces_over_a_vertex():
    # in Z/2 the string (g, g) composes to the identity: its inner face is s_0 of the vertex
    N = assert_valid_nerve_matches_oracle(cyclic_group_category(2), 3)
    assert any(e[0] and N.dim_of[e[1]] == 0 for row in N.faces.values() for e in row)


@st.composite
def mixed_category_draws(draw):
    """A disjoint union of one or two products of one or two primitives."""
    primitives = primitive_categories()
    names = st.sampled_from(sorted(primitives))
    summands = []
    for factors in draw(st.lists(st.lists(names, min_size=1, max_size=2), min_size=1, max_size=2)):
        C = primitives[factors[0]]
        for name in factors[1:]:
            C = product_category(C, primitives[name])
        summands.append(C)
    C = summands[0]
    for D in summands[1:]:
        C = disjoint_union_category(C, D)
    return C


@settings(deadline=None)
@given(mixed_category_draws(), st.integers(0, 4))
def test_drawn_products_and_unions_match_oracle(C, dim_bound):
    assert_valid_nerve_matches_oracle(C, dim_bound)
