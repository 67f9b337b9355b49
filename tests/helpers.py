"""Fixtures shared by several test modules."""

from itertools import product as cartesian

from hypothesis import strategies as st

from quasicat.simplicial import ProductComplex, SimplexExpr, SimplicialMap, SimplicialSet


def projections(prod: ProductComplex) -> tuple[SimplicialMap, SimplicialMap]:
    """The projections X x Y -> X and X x Y -> Y, read off `prod.pairs`."""
    pairs = prod.pairs
    return (
        SimplicialMap(prod.complex, prod.left, {s: e1 for s, (e1, _e2) in pairs.items()}),
        SimplicialMap(prod.complex, prod.right, {s: e2 for s, (_e1, e2) in pairs.items()}),
    )


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """g after f (f's target must be g's source)."""
    assert f.target is g.source
    return SimplicialMap(f.source, g.target, {s: g.push(img) for s, img in f.assignment.items()})


def relabel(X, rng):
    """X with fresh ids, and each level listed in a shuffled order."""
    new = list(range(100, 100 + X.n_cells))
    rng.shuffle(new)
    m = dict(zip(X.cells(), new))
    levels = [[m[s] for s in level] for level in X.nondegenerate]
    for level in levels:
        rng.shuffle(level)
    faces = {
        m[s]: tuple(SimplexExpr(e.word, m[e.base], e.dim) for e in X.faces[s])
        for s in X.cells()
        if X.dim_of[s]
    }
    return SimplicialSet(X.dim_bound, levels, faces, X.coskeletal_at)


@st.composite
def tiny_complexes(draw, counts):
    """A 2-dimensional complex with the given numbers of vertices, edges and
    at most the given number of triangles, drawn from the compatible shells."""
    n_v, n_e, n_t = counts
    v = lambda i: SimplexExpr((), i, 0)
    ends = draw(st.lists(st.tuples(st.integers(0, n_v - 1), st.integers(0, n_v - 1)), min_size=n_e, max_size=n_e))
    edges = list(range(n_v, n_v + n_e))
    faces = {s: (v(b), v(a)) for s, (a, b) in zip(edges, ends)}
    X1 = SimplicialSet(1, [list(range(n_v)), edges], faces)
    d = X1.face
    shells = [
        (f0, f1, f2)
        for f0, f1, f2 in cartesian(X1.all_exprs(1), repeat=3)
        if d(f1, 0) == d(f0, 0) and d(f2, 0) == d(f0, 1) and d(f2, 1) == d(f1, 1)
    ]
    chosen = draw(st.lists(st.sampled_from(shells), max_size=n_t)) if shells else []
    triangles = list(range(n_v + n_e, n_v + n_e + len(chosen)))
    faces.update(zip(triangles, chosen))
    return SimplicialSet(2, [list(range(n_v)), edges, triangles], faces)
