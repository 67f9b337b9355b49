"""`jsonio.sset_to_json` against the writer it replaced.

The oracle, `helpers.old_sset_to_json`, wrote each face through
`expr_to_json` and two properties of the expression; the writer now
unpacks each face as a (word, base, dim) triple.  The serialized bytes
must be the same on every corpus complex, on the corpus nerves, on a
product whose face rows hold degenerate pairs, on a complex with empty
levels below its `dim_bound`, and on one whose face words have two
letters, which no nerve or product here has.
"""

import pytest

from quasicat.cat import cyclic_group_category, nerve, poset_category
from quasicat.corpus import corpus_categories, corpus_complexes
from quasicat.jsonio import dumps, sset_to_json
from quasicat.simplicial import SimplexExpr, SimplicialSet, product, standard_simplex

from helpers import old_sset_to_json


def assert_writes_as_oracle(X):
    assert dumps(sset_to_json(X)) == dumps(old_sset_to_json(X))


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_corpus_complexes_write_as_oracle(name):
    assert_writes_as_oracle(corpus_complexes()[name])


@pytest.mark.parametrize("dim_bound", [2, 3, 4])
def test_corpus_nerves_write_as_oracle(dim_bound):
    for C in corpus_categories().values():
        assert_writes_as_oracle(nerve(C, dim_bound))


def test_product_with_degenerate_faces_writes_as_oracle():
    X = product(nerve(cyclic_group_category(2), 2), standard_simplex(1)).complex
    assert any(e[0] for row in X.faces.values() for e in row)
    assert_writes_as_oracle(X)


def test_empty_levels_write_as_oracle():
    # chain1 has one non-identity arrow, so no string of two arrows
    X = nerve(poset_category(1), 4)
    assert X.dim == 1 < X.dim_bound
    assert_writes_as_oracle(X)
    assert sset_to_json(X)["simplices"][2:] == [[], [], []]


def test_two_letter_face_words_write_as_oracle():
    # Delta^3 with its face {1,2,3} collapsed to the vertex b: d_0 of the
    # 3-simplex is s_1 s_0 b
    a, b, x, y, z, t2, t3, t4, top = range(9)
    vertex = {s: SimplexExpr((), s, 0) for s in (a, b)}
    edge = {s: SimplexExpr((), s, 1) for s in (x, y, z)}
    s0b = SimplexExpr((0,), b, 1)
    faces = {
        **{s: (vertex[b], vertex[a]) for s in (x, y, z)},
        t2: (s0b, edge[y], edge[x]),
        t3: (s0b, edge[z], edge[x]),
        t4: (s0b, edge[z], edge[y]),
        top: (SimplexExpr((1, 0), b, 2), *(SimplexExpr((), s, 2) for s in (t4, t3, t2))),
    }
    X = SimplicialSet(3, [[a, b], [x, y, z], [t2, t3, t4], [top]], faces)
    assert_writes_as_oracle(X)
