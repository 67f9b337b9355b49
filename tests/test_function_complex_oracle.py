"""`function_complex` and its map search against the implementations they
replaced.

The oracle below is the earlier code: it scans every n-expr of X for each
candidate cell of a map, and rebuilds the product map 1_K x delta on each
precomposition.  Its output must match the current `function_complex` byte
for byte (`sset_to_json`) and label for label.  The explicit-stack
backtracker that `map_search` replaced is kept as the oracle of
`_enumerate_maps` on fixed cases.  Drawn cases are compared with a second
oracle, written apart from both, that chooses the images of the maximal
cells and reads the lower cells off them, so that its cost follows the
maps it finds; it is checked against the backtracker on the fixed cases.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quasicat.cat import (
    cyclic_group_category,
    free_iso_groupoid,
    nerve,
    poset_category,
    preorder_category,
    product_category,
)
from quasicat import quasi
from quasicat.corpus import corpus_categories, corpus_complexes, loop_free_corpus_complexes
from quasicat.jsonio import dumps, sset_to_json
from quasicat.quasi import CertificationError, certify_quasi_category
from quasicat.simplicial import (
    ProductComplex,
    SimplexExpr,
    SimplicialMap,
    SimplicialSet,
    SizeLimitError,
    build_standard,
    degenerate,
    product,
    standard_simplex,
    with_coskeletal,
)

import helpers
from helpers import function_complex, identity_map, pair_expr, push, tiny_complexes


# -- the oracle, as it stood before function_complex was rebuilt on compose -----


def _map_key(assignment: dict) -> tuple:
    return tuple(sorted(assignment.items(), key=lambda kv: kv[0]))


def _enumerate_maps(P: SimplicialSet, X: SimplicialSet) -> list[dict]:
    """All simplicial maps P -> X as assignment dicts (backtracking by cell)."""
    order = [s for level in P.nondegenerate for s in level]
    results: list[dict] = []
    assignment: dict[int, SimplexExpr] = {}

    def push(expr: SimplexExpr) -> SimplexExpr:
        from quasicat.simplicial import degeneracy_expr

        res = assignment[expr.base]
        for j in reversed(expr.word):
            res = degeneracy_expr(res, j)
        return res

    def assign(i: int):
        if i == len(order):
            results.append(dict(assignment))
            return
        s = order[i]
        d = P.dim_of[s]
        if d == 0:
            candidates = [X.expr(v) for v in X.vertices()]
        else:
            want = tuple(push(e) for e in P.faces[s])
            candidates = [
                e for e in X.all_exprs(d)
                if tuple(X.face(e, t) for t in range(d + 1)) == want
            ]
        for e in candidates:
            assignment[s] = e
            assign(i + 1)
            del assignment[s]

    assign(0)
    return results


def product_map(
    prodA: ProductComplex, prodB: ProductComplex, f: SimplicialMap, g: SimplicialMap
) -> SimplicialMap:
    """f x g : A1 x A2 -> B1 x B2 on materialized products."""
    assignment = {}
    for s, (e1, e2) in prodA.pairs.items():
        assignment[s] = pair_expr(prodB, push(f, e1), push(g, e2))
    return SimplicialMap(prodA.complex, prodB.complex, assignment)


def oracle_function_complex(K: SimplicialSet, X: SimplicialSet, dim_bound: int, limit: int = 24) -> SimplicialSet:
    """hom(K, X) through dimension dim_bound: n-simplices are maps
    K x Delta^n -> X, with faces and degeneracies by precomposition."""
    if K.n_cells > limit:
        raise SizeLimitError(f"function complex needs |K| <= {limit}")
    prods = [product(K, standard_simplex(n)) for n in range(dim_bound + 1)]
    simplex_maps: list[list[dict]] = [_enumerate_maps(p.complex, X) for p in prods]

    def precompose(f: dict, n_from: int, delta_map: SimplicialMap) -> dict:
        # delta_map: Delta^{n_from} -> Delta^{n_to}; pull f along 1 x delta
        pm = product_map(prods[n_from], prods[delta_map.target.dim], identity_map(K), delta_map)
        out = {}
        for s in prods[n_from].complex.cells():
            img = pm.assignment[s]
            res = f[img.base]
            from quasicat.simplicial import degeneracy_expr

            for j in reversed(img.word):
                res = degeneracy_expr(res, j)
            out[s] = res
        return out

    def delta_face(n: int, i: int) -> SimplicialMap:
        D_from, D_to = standard_simplex(n - 1), standard_simplex(n)
        keep = tuple(v for v in range(n + 1) if v != i)
        ids_to = {D_to.labels[s]: s for s in D_to.cells()}
        return SimplicialMap(
            D_from, D_to,
            {
                s: D_to.expr(ids_to[tuple(keep[v] for v in D_from.labels[s])])
                for s in D_from.cells()
            },
        )

    def delta_degeneracy(n: int, j: int) -> SimplicialMap:
        # surjection Delta^{n+1} -> Delta^n repeating vertex j
        from quasicat.simplicial import degeneracy_expr

        D_from, D_to = standard_simplex(n + 1), standard_simplex(n)
        collapse = [v if v <= j else v - 1 for v in range(n + 2)]
        ids_to = {D_to.labels[s]: s for s in D_to.cells()}

        def image(vs):
            out = tuple(collapse[v] for v in vs)
            dedup = tuple(sorted(set(out)))
            pos_of = {val: i for i, val in enumerate(dedup)}
            expr = D_to.expr(ids_to[dedup])
            # duplicates, rightmost first: each inserts a degeneracy at the
            # duplicated vertex's position in the base
            for p in range(len(out) - 1, 0, -1):
                if out[p] == out[p - 1]:
                    expr = degeneracy_expr(expr, pos_of[out[p]])
            return expr

        return SimplicialMap(D_from, D_to, {s: image(D_from.labels[s]) for s in D_from.cells()})

    # identify non-degenerate n-simplices: maps not of the form g . (1 x s_j)
    nondeg_maps: list[list[dict]] = [[] for _ in range(dim_bound + 1)]
    nondeg_ids: list[dict] = [{} for _ in range(dim_bound + 1)]
    nondeg: list[list[int]] = [[] for _ in range(dim_bound + 1)]
    labels = {}
    next_id = 0

    # degeneracy detection: f is s_j(g) iff precomposing with the collapse
    # reproduces f, where g = f . (1 x d^{j})
    def im_sj(n: int, f: dict, j: int):
        g = precompose(f, n - 1, delta_face(n, j))
        fj = precompose(g, n, delta_degeneracy(n - 1, j))
        return g if _map_key(fj) == _map_key(f) else None

    for n in range(dim_bound + 1):
        for f in simplex_maps[n]:
            if n >= 1 and any(im_sj(n, f, j) is not None for j in range(n)):
                continue
            k = _map_key(f)
            nondeg_ids[n][k] = next_id
            nondeg[n].append(next_id)
            nondeg_maps[n].append(f)
            labels[next_id] = ("map", n, k)
            next_id += 1

    def normalize(n: int, f: dict) -> SimplexExpr:
        word = []
        while n >= 1:
            hit = None
            for j in range(n - 1, -1, -1):
                g = im_sj(n, f, j)
                if g is not None:
                    hit = (j, g)
                    break
            if hit is None:
                break
            word.append(hit[0])
            f = hit[1]
            n -= 1
        from quasicat.simplicial import degeneracy_expr

        res = SimplexExpr((), nondeg_ids[n][_map_key(f)], n)
        for j in reversed(word):
            res = degeneracy_expr(res, j)
        return res

    faces = {}
    for n in range(1, dim_bound + 1):
        for f in nondeg_maps[n]:
            s = nondeg_ids[n][_map_key(f)]
            faces[s] = tuple(
                normalize(n - 1, precompose(f, n - 1, delta_face(n, i))) for i in range(n + 1)
            )
    return SimplicialSet(dim_bound, nondeg, faces, X.coskeletal_at, labels, check=False)


# -- comparisons ---------------------------------------------------------------------


def assert_matches_oracle(K, X, dim_bound):
    got = function_complex(K, X, dim_bound)
    want = oracle_function_complex(K, X, dim_bound)
    assert dumps(sset_to_json(got)) == dumps(sset_to_json(want))
    assert got.labels == want.labels
    return got


def _boundary1():
    return build_standard("boundary", 1)[0]


SOURCES = {"delta0": lambda: standard_simplex(0), "delta1": lambda: standard_simplex(1), "boundary1": _boundary1}


# the function complexes built by test_quasi, tau0's among them (dim_bound is
# the target's coskeletal bound plus one there), and tau0(Delta^1, B(chain2))
CASES = {
    "point_into_chain1": (lambda: standard_simplex(0), lambda: nerve(poset_category(1), 2), 2),
    "interval_into_interval": (
        lambda: standard_simplex(1), lambda: with_coskeletal(standard_simplex(1), 1), 1,
    ),
    "two_points_into_chain1": (_boundary1, lambda: nerve(poset_category(1), 2), 2),
    "interval_into_chain1": (lambda: standard_simplex(1), lambda: nerve(poset_category(1), 3), 2),
    "point_into_chain2": (lambda: standard_simplex(0), lambda: nerve(poset_category(2), 3), 3),
    "point_into_free_iso": (lambda: standard_simplex(0), lambda: nerve(free_iso_groupoid(), 3), 3),
    "point_into_z2": (lambda: standard_simplex(0), lambda: nerve(cyclic_group_category(2), 3), 3),
    "two_points_into_point": (_boundary1, lambda: with_coskeletal(standard_simplex(0), 1), 2),
    "two_points_into_chain2": (_boundary1, lambda: nerve(poset_category(2), 3), 3),
    "interval_into_chain2": (lambda: standard_simplex(1), lambda: nerve(poset_category(2), 3), 3),
    # two objects with parallel arrows: a search that assigns an edge before
    # the last vertex finds the maps in another order than the oracle
    "interval_into_chain1_times_z2": (
        lambda: standard_simplex(1),
        lambda: nerve(product_category(poset_category(1), cyclic_group_category(2)), 3),
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_oracle(name):
    K, X, dim_bound = CASES[name]
    assert_matches_oracle(K(), X(), dim_bound)


@st.composite
def tiny_poset_nerves(draw):
    """Nerve of a random poset on at most three elements, through dimension 3."""
    n = draw(st.integers(1, 3))
    le = {(i, i) for i in range(n)}
    le |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    while True:
        extra = {(a, d) for a, b in le for c, d in le if b == c} - le
        if not extra:
            break
        le |= extra
    return nerve(preorder_category(range(n), le), 3)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["delta0", "delta1", "boundary1"]),
    tiny_poset_nerves(),
    st.integers(1, 2),
)
def test_poset_nerves_match_oracle(k_name, X, dim_bound):
    K = _boundary1() if k_name == "boundary1" else standard_simplex(int(k_name[-1]))
    assert_matches_oracle(K, X, dim_bound)


def test_size_limit():
    with pytest.raises(SizeLimitError):
        function_complex(standard_simplex(2), standard_simplex(0), 1, limit=3)
    with pytest.raises(SizeLimitError):
        oracle_function_complex(standard_simplex(2), standard_simplex(0), 1, limit=3)


# -- tau0 against the function-complex route -----------------------------------------


def tau0_or_refusal(f, K, X):
    try:
        return f(K, X)
    except CertificationError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(SOURCES)),
    st.one_of(
        tiny_poset_nerves(),
        st.sampled_from(["z2", "pi_interval", "idempotent"]).map(lambda name: nerve(corpus_categories()[name], 3)),
        st.tuples(tiny_complexes((2, 3, 2)), st.integers(1, 2)).map(lambda xd: with_coskeletal(*xd)),
    ),
)
def test_tau0_matches_the_function_complex_route(k_name, X):
    # where the old route answers, the classes and their vertex ids are the
    # same; where it refuses, the pointwise route refuses an X that is not
    # a quasi-category and answers the rest
    K = SOURCES[k_name]()
    want = tau0_or_refusal(helpers.old_tau0, K, X)
    got = tau0_or_refusal(quasi.tau0, K, X)
    if isinstance(want, str):
        assert isinstance(got, str) == (not certify_quasi_category(X).is_quasi)
    else:
        assert got == want


def test_tau0_from_the_empty_complex():
    # hom(empty, X) is a point, so one class with one object, for any
    # quasi-category X; an X that is not one is refused, as for every K,
    # where the function-complex route answered [(0,)] for it
    empty = SimplicialSet(0, [[]], {})
    for X in [nerve(poset_category(2), 3), nerve(cyclic_group_category(2), 3), with_coskeletal(standard_simplex(0), 0)]:
        assert quasi.tau0(empty, X) == helpers.old_tau0(empty, X) == [(0,)]
    horn = build_standard("horn", 2, 1)[0]
    assert helpers.old_tau0(empty, horn) == [(0,)]
    with pytest.raises(CertificationError, match=r"^quasi_iso_edges needs a certified quasi-category \(counterexample\)$"):
        quasi.tau0(empty, horn)


# -- the map search ------------------------------------------------------------------


def backtrack_enumerate_maps(P: SimplicialSet, X: SimplicialSet) -> list[dict]:
    """The explicit-stack backtracker `_enumerate_maps` ran before
    `map_search`, verbatim: each cell is assigned right after its last
    vertex, its candidates read from X's face index at all positions."""
    cells = [s for level in P.nondegenerate for s in level]
    if not cells:
        return [{}]
    vertex_rank = {v: r for r, v in enumerate(P.vertices())}
    order = sorted(
        cells, key=lambda s: (max(map(vertex_rank.__getitem__, P.vertex_ids(P.expr(s)))), P.dim_of[s])
    )
    index = [X.face_index(d, tuple(range(d + 1)) if d else ()) for d in range(P.dim_bound + 1)]
    results: list[dict] = []
    assignment: dict[int, SimplexExpr] = {}

    def candidates(s: int):
        want = tuple(degenerate(assignment[e.base], e.word) for e in P.faces.get(s, ()))
        return iter(index[P.dim_of[s]].get(want, ()))

    stack = [candidates(order[0])]
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            continue
        assignment[order[len(stack) - 1]] = e
        if len(stack) == len(order):
            results.append({s: assignment[s] for s in cells})
        else:
            stack.append(candidates(order[len(stack)]))
    rank = [{e: r for r, e in enumerate(X.all_exprs(d))} for d in range(P.dim_bound + 1)]
    cell_ranks = [(s, rank[P.dim_of[s]]) for s in cells]
    results.sort(key=lambda a: [r[a[s]] for s, r in cell_ranks])
    return results


def top_down_enumerate_maps(P: SimplicialSet, X: SimplicialSet) -> list[dict]:
    """Every simplicial map P -> X, written apart from `map_search` and the
    backtracker: a map is fixed by the images of P's maximal cells, since
    every cell is an iterated face of one.  So only those images are
    chosen, each from all exprs of its dimension, and the image of every
    expression below a maximal cell is read off its image along the faces.
    A choice is refused when two readings of one expression of P differ,
    when a degenerate expression's reading is not its base's reading
    degenerated, or when a cell read off an earlier choice reads otherwise
    now.  Each chosen cell shares cells with those before it where it can,
    so a wrong choice is refused as soon as it is made, and no lower cell
    is ever guessed.  Sorted as `backtrack_enumerate_maps` sorts."""
    cells = [s for level in P.nondegenerate for s in level]
    if not cells:
        return [{}]
    below = {e.base for fs in P.faces.values() for e in fs}
    maximal = [s for s in reversed(cells) if s not in below]

    def read_off(s: int, x: SimplexExpr) -> dict | None:
        # expr of P -> its image, over the closure of s under faces
        image = {P.expr(s): x}
        todo = [P.expr(s)]
        while todo:
            e = todo.pop()
            for i in range(e.dim + 1) if e.dim else ():
                f, y = P.face(e, i), X.face(image[e], i)
                if f not in image:
                    image[f] = y
                    todo.append(f)
                elif image[f] != y:
                    return None
        read = {e.base: y for e, y in image.items() if not e.word}
        if any(degenerate(read[e.base], e.word) != y for e, y in image.items()):
            return None
        return read

    options = {s: [r for x in X.all_exprs(P.dim_of[s]) if (r := read_off(s, x)) is not None] for s in maximal}
    if not all(options.values()):
        return []
    order, seen, left = [], set(), list(maximal)
    while left:
        s = max(left, key=lambda s: len(seen & options[s][0].keys()))
        left.remove(s)
        order.append(s)
        seen |= options[s][0].keys()
    results: list[dict] = []
    assignment: dict[int, SimplexExpr] = {}

    def extend(i: int):
        if i == len(order):
            results.append({s: assignment[s] for s in cells})
            return
        for read in options[order[i]]:
            if all(assignment.get(s, y) == y for s, y in read.items()):
                new = [s for s in read if s not in assignment]
                assignment.update((s, read[s]) for s in new)
                extend(i + 1)
                for s in new:
                    del assignment[s]

    extend(0)
    rank = [{e: r for r, e in enumerate(X.all_exprs(d))} for d in range(P.dim_bound + 1)]
    cell_ranks = [(s, rank[P.dim_of[s]]) for s in cells]
    results.sort(key=lambda a: [r[a[s]] for s, r in cell_ranks])
    return results


def assert_same_maps(P, X, oracles=(backtrack_enumerate_maps,)):
    got = quasi._enumerate_maps(P, X)
    for oracle in oracles:
        assert got == oracle(P, X), oracle.__name__
    assert [list(a) for a in got] == [list(P.cells())] * len(got)


def non_poset_nerve(name):
    return nerve(corpus_categories()[name], 3)


NON_POSETS = ("idempotent", "z2", "z3")


@pytest.mark.parametrize("x_name", NON_POSETS)
@pytest.mark.parametrize("k_name", sorted(SOURCES))
def test_map_search_matches_backtracker_on_non_poset_nerves(k_name, x_name):
    # the top-down oracle of the drawn cases is checked here too
    X = non_poset_nerve(x_name)
    for n in range(3):
        assert_same_maps(
            product(SOURCES[k_name](), standard_simplex(n)).complex, X, (backtrack_enumerate_maps, top_down_enumerate_maps)
        )


@st.composite
def tiny(draw):
    counts = (draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    return draw(tiny_complexes(counts))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from(sorted(SOURCES)).map(lambda name: SOURCES[name]()), tiny()),
    st.integers(0, 2),
    st.one_of(tiny(), st.sampled_from(NON_POSETS).map(non_poset_nerve)),
)
def test_map_search_matches_top_down_oracle_on_tiny_complexes(K, n, X):
    # drawn sources have loops, parallel edges and degenerate faces, whose
    # bases the search derives through their degeneracies.  The backtracker
    # guesses every edge before a triangle prunes it, which took seconds on
    # some draws (1.5M tries for 67 maps of a (2, 10, 6)-cell product)
    if K.dim > 0:
        n = min(n, 1)
    assert_same_maps(product(K, standard_simplex(n)).complex, X, (top_down_enumerate_maps,))


def test_map_search_refuses_a_loop_for_a_degenerate_face():
    # K: an edge a: 0 -> 1 and a triangle (s0 1, a, a).  X has the same and
    # also a loop l at 1 and a triangle (l, a, a): d_0 of that triangle is
    # not s0 of any vertex, so no map sends K's triangle to it
    v = lambda i: SimplexExpr((), i, 0)
    a = SimplexExpr((), 2, 1)
    s0 = SimplexExpr((0,), 1, 1)
    K = SimplicialSet(2, [[0, 1], [2], [3]], {2: (v(1), v(0)), 3: (s0, a, a)})
    loop = SimplexExpr((), 3, 1)
    X = SimplicialSet(2, [[0, 1], [2, 3], [4, 5]], {2: (v(1), v(0)), 3: (v(1), v(1)), 4: (s0, a, a), 5: (loop, a, a)})
    assert_same_maps(K, X, (backtrack_enumerate_maps, top_down_enumerate_maps))
    images = {m[3] for m in quasi._enumerate_maps(K, X)}
    assert SimplexExpr((), 4, 2) in images and SimplexExpr((), 5, 2) not in images


def count_tries(monkeypatch) -> dict:
    """Counts the candidates `map_search` is given and the maps it yields,
    until the test ends."""
    counts = {"tries": 0, "maps": 0}
    search = quasi.map_search

    def counting_search(P, Y, order, lookup, injective=False):
        def counted(*args):
            found = lookup(*args)
            counts["tries"] += len(found)
            return found

        for img in search(P, Y, order, counted, injective):
            counts["maps"] += 1
            yield img

    monkeypatch.setattr(quasi, "map_search", counting_search)
    return counts


def test_map_search_tries_a_small_multiple_of_the_maps(monkeypatch):
    # the backtracker guessed every composite edge of Delta^1 x Delta^n and
    # refused a wrong guess only at the triangle above it: 3,589,966
    # candidates for the 1,436 maps of function_complex(Delta^1, B(rand06), 3)
    counts = count_tries(monkeypatch)
    H = function_complex(standard_simplex(1), nerve(corpus_categories()["rand06"], 3), 3)
    assert H.counts() == (3, 24, 192, 512)
    assert counts["maps"] == 1436
    assert counts["tries"] * 20 <= 3_589_966, counts


def test_map_search_takes_the_top_cell_with_most_faces_covered_first(monkeypatch):
    # Lambda^2_1 x Delta^3 -> B(chain3): choosing the top cells in id order
    # tried 64,791 candidates for the 4,116 maps, because a top cell that
    # shares no facet with the ones before it is guessed from all 4-exprs
    counts = count_tries(monkeypatch)
    P = product(build_standard("horn", 2, 1)[0], standard_simplex(3)).complex
    quasi._enumerate_maps(P, nerve(poset_category(3), 3))
    assert counts["maps"] == 4116
    assert counts["tries"] * 5 <= 64_791, counts


# -- the face index ----------------------------------------------------------------


def brute_force_face_index(X, n, positions):
    out = {}
    for e in X.all_exprs(n):
        out.setdefault(tuple(X.face(e, i) for i in positions), []).append(e)
    return {key: tuple(exprs) for key, exprs in out.items()}


def boundary_fixtures():
    out = dict(corpus_complexes())
    out.update(loop_free_corpus_complexes())
    out["delta1_x_boundary2"] = product(standard_simplex(1), build_standard("boundary", 2)[0]).complex
    return out


@pytest.mark.parametrize("name", sorted(boundary_fixtures()))
def test_exprs_with_boundary_matches_scan(name):
    # `face_index` at every subset of positions, the full boundary and a
    # horn's slots among them, against a scan of all n-exprs
    X = boundary_fixtures()[name]
    for n in range(X.dim_bound + 2):
        for r in range(n + 2 if n else 1):
            for positions in combinations(range(n + 1), r):
                assert X.face_index(n, positions) == brute_force_face_index(X, n, positions), (n, positions)
