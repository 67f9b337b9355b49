"""Certification by horn counts, and face rows, against the per-horn loop.

`old_certify_quasi_category` is the certification loop that looked each
horn up with `find_filler`; `old_enumerate_horns` and `old_has_shell_filler`
compute horn keys and the missing face's boundary with `SimplicialSet.face`.
The current certification counts the horns without building them, compares
the number of distinct keys of the n-expressions with them, and builds only
the first horn with no key, so every report must be equal: verdict, bound,
counterexample and reason.

The keys are counted from the non-degenerate cells: degenerate
n-expressions have keys of their own, each with a degenerate face, and a
cell's key is shared with one exactly when `_degenerate_key` finds it.
Those facts are checked against `old_face_index`, and a spy on
`SimplicialSet.face_index` pins what certification and the flag check
index.
"""

import pickle
from dataclasses import make_dataclass
from itertools import combinations

from hypothesis import given, settings, strategies as st

from quasicat.cat import cyclic_group_category, idempotent_monoid_category, nerve, poset_category
from quasicat.corpus import corpus_categories, corpus_complexes, quasi_category_corpus, walking_homotopy
from quasicat import quasi
from quasicat.quasi import (
    CertReport,
    HornMap,
    _false_flag,
    certify_quasi_category,
    enumerate_horns,
    find_filler,
)
from quasicat.simplicial import (
    SimplexExpr,
    SimplicialError,
    SimplicialSet,
    closure_ids,
    make_subcomplex,
    product,
    standard_simplex,
    with_coskeletal,
)

from helpers import corpus_nerves, old_false_flag
from helpers import tiny_complexes as tiny_2_complexes


def old_enumerate_horns(X: SimplicialSet, n: int, k: int) -> list[HornMap]:
    if n < 2:
        raise SimplicialError("horns need n >= 2")
    slots = tuple(i for i in range(n + 1) if i != k)
    index = [X.face_index(n - 1, slots[:pos]) for pos in range(len(slots))]
    results: list[HornMap] = []
    chosen: dict[int, SimplexExpr] = {}

    def assign(pos: int):
        if pos == len(slots):
            top = tuple(chosen.get(i) for i in range(n + 1))
            results.append(HornMap(n, k, top))
            return
        j = slots[pos]
        key = tuple(X.face(chosen[i], j - 1) for i in slots[:pos])
        for e in index[pos].get(key, ()):
            chosen[j] = e
            assign(pos + 1)
            del chosen[j]

    assign(0)
    return results


# the dataclass HornMap was before it became a tuple
OldHornMap = make_dataclass("HornMap", ["n", "k", "top"], frozen=True)


def old_face_index(X: SimplicialSet, n: int, positions: tuple[int, ...]) -> dict:
    groups: dict = {}
    for e in X.all_exprs(n):
        groups.setdefault(tuple(X.face(e, i) for i in positions), []).append(e)
    return {key: tuple(es) for key, es in groups.items()}


def assert_horns_match_oracle(X: SimplicialSet):
    """Every horn shape through dim_bound + 1, outer ones too, in order."""
    for n in range(2, X.dim_bound + 2):
        for k in range(n + 1):
            old = old_enumerate_horns(with_coskeletal(X, X.coskeletal_at), n, k)
            new = enumerate_horns(with_coskeletal(X, X.coskeletal_at), n, k)
            assert new == old, (n, k)
            assert all(type(h) is HornMap for h in new)


def old_has_shell_filler(X: SimplicialSet, h: HornMap) -> bool:
    k = h.k
    boundary = tuple(
        X.face(h.top[m], k - 1) if m < k else X.face(h.top[m + 1], k)
        for m in range(h.n)
    )
    return boundary in X.face_index(h.n - 1, tuple(range(h.n)))


def old_certify_quasi_category(X: SimplicialSet) -> CertReport:
    d = X.coskeletal_at
    if d is None:
        return CertReport("inconclusive", None, None, reason="no coskeletal bound declared")
    if X.dim_bound < d:
        return CertReport(
            "inconclusive", d, None,
            reason=f"dim_bound {X.dim_bound} below coskeletal bound {d}",
        )
    top = d + 1
    for n in range(2, top + 1):
        for k in range(1, n):
            for h in old_enumerate_horns(X, n, k):
                if n <= X.dim_bound:
                    filled = find_filler(X, h) is not None
                else:
                    filled = old_has_shell_filler(X, h)
                if not filled:
                    return CertReport("counterexample", d, n - 1, counterexample=h)
    return CertReport("quasi-category", d, top)


# -- brute force: the coskeletal extension, from every tuple of faces ------------


def compatible_tuples(X: SimplicialSet, n: int, skip=None) -> list[tuple]:
    """Every (f_0, ..., f_n) of (n-1)-expressions, slot `skip` left None,
    with d_i f_j = d_{j-1} f_i for i < j: each tuple of faces is scanned,
    and dropped at its first clash."""
    if n == 1:
        return [(b, a) for a in X.all_exprs(0) for b in X.all_exprs(0)]
    partial = [()]
    for j in range(n + 1):
        if j == skip:
            partial = [p + (None,) for p in partial]
            continue
        partial = [
            p + (e,)
            for p in partial
            for e in X.all_exprs(n - 1)
            if all(i == skip or X.face(e, i) == X.face(p[i], j - 1) for i in range(j))
        ]
    return partial


def flag_holds(X: SimplicialSet) -> bool:
    """The n-expressions of X are its compatible boundaries of Delta^n, one
    each, for n from coskeletal_at + 1 through dim_bound."""
    for n in range(X.coskeletal_at + 1, X.dim_bound + 1):
        rows = sorted(tuple(X.face(e, i) for i in range(n + 1)) for e in X.all_exprs(n))
        if rows != sorted(compatible_tuples(X, n)):
            return False
    return True


def brute_force_is_quasi(X: SimplicialSet) -> bool:
    """X's flag holds, and every inner horn through dimension
    coskeletal_at + 1 of its coskeletal extension fills; one dimension above
    dim_bound the extension's cells are the compatible boundaries."""
    d = X.coskeletal_at
    if d is None or X.dim_bound < d or not flag_holds(X):
        return False
    for n in range(2, d + 2):
        if n <= X.dim_bound:
            filled = {tuple(X.face(e, i) for i in range(n + 1)) for e in X.all_exprs(n)}
        else:
            filled = set(compatible_tuples(X, n))
        for k in range(1, n):
            fills = {row[:k] + (None,) + row[k + 1 :] for row in filled}
            if any(h not in fills for h in compatible_tuples(X, n, skip=k)):
                return False
    return True


def assert_certify_matches_oracle(X: SimplicialSet):
    # fresh copies, so neither side reads an index the other one built
    new = certify_quasi_category(with_coskeletal(X, X.coskeletal_at))
    old = old_certify_quasi_category(with_coskeletal(X, X.coskeletal_at))
    if old.is_quasi and not flag_holds(X):
        # the oracle believed the flag; the certification checks it
        assert new.verdict == "inconclusive" and new.certified_up_to is None
        assert new.reason.startswith(f"coskeletal_at {X.coskeletal_at} is false: ")
        return
    assert (new.verdict, new.certified_up_to, new.counterexample) == (
        old.verdict, old.certified_up_to, old.counterexample
    )
    assert new == old


def every_flag(X: SimplicialSet):
    for flag in [None, *range(X.dim_bound + 1)]:
        yield with_coskeletal(X, flag)


def test_corpus_complexes_and_nerves_match_oracle():
    named = {**corpus_complexes(), **corpus_nerves(), **quasi_category_corpus(4)}
    verdicts = set()
    for name, X in named.items():
        for Y in every_flag(X):
            assert_certify_matches_oracle(Y)
            verdicts.add(certify_quasi_category(Y).verdict)
    assert verdicts == {"quasi-category", "counterexample", "inconclusive"}


def test_nerves_minus_one_3_cell_match_oracle():
    refuted = 0
    for C in [poset_category(2), poset_category(3), cyclic_group_category(2), idempotent_monoid_category()]:
        N = nerve(C, 3)
        for cell in N.nondegenerate[3]:
            sub, _ = make_subcomplex(N, set(N.cells()) - {cell})
            X = with_coskeletal(sub, N.coskeletal_at)
            assert_certify_matches_oracle(X)
            refuted += certify_quasi_category(X).verdict == "counterexample"
    assert refuted > 0


@st.composite
def broken_nerves(draw):
    """A small corpus nerve without a drawn set of its 2- and 3-cells and
    every cell above them, at a drawn flag."""
    N = draw(st.sampled_from(SMALL_NERVES))
    drop = draw(st.sets(st.sampled_from([*N.nondegenerate[2], *N.nondegenerate[3]]), min_size=1, max_size=4))
    keep = {s for s in N.cells() if not drop & closure_ids(N, (s,))}
    sub, _ = make_subcomplex(N, keep)
    return with_coskeletal(sub, draw(st.sampled_from([None, 1, 2, 3])))


SMALL_NERVES = [nerve(C, 3) for C in (poset_category(2), cyclic_group_category(2), idempotent_monoid_category())]


@settings(max_examples=100, deadline=None)
@given(broken_nerves())
def test_broken_nerves_match_oracle(X):
    assert_certify_matches_oracle(X)


def test_certification_builds_horns_only_under_the_first_mismatch(monkeypatch):
    # a quasi-category stored through its flag + 1 is certified with no horn
    # built; a nerve without a 3-cell builds the horns of one partial horn
    built = []
    make = quasi._horn

    def counted(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(quasi, "_horn", counted)
    assert certify_quasi_category(nerve(poset_category(3), 3)).is_quasi
    assert built == []
    N = nerve(cyclic_group_category(3), 3)
    sub, _ = make_subcomplex(N, set(N.cells()) - {N.nondegenerate[3][-1]})
    X = with_coskeletal(sub, 2)
    report = certify_quasi_category(X)
    assert report.verdict == "counterexample"
    assert len(built) == 1 and report == old_certify_quasi_category(with_coskeletal(sub, 2))


def compatible_boundary(draw, exprs, face, n):
    """A drawn (f_0, ..., f_n) of (n-1)-expressions with d_i f_j = d_{j-1} f_i
    for i < j, or None when the draw runs out of candidates."""
    chosen = []
    for j in range(n + 1):
        fits = [e for e in exprs if n < 2 or all(face(e, i) == face(chosen[i], j - 1) for i in range(j))]
        if not fits:
            return None
        chosen.append(draw(st.sampled_from(fits)))
    return tuple(chosen)


@st.composite
def tiny_complexes(draw):
    """A complex of at most 12 cells through dimension 3, each cell on a
    drawn compatible boundary, with a drawn dim_bound up to 3."""
    n_v = draw(st.integers(1, 3))
    nondeg = [list(range(n_v))]
    faces = {}
    X = SimplicialSet(0, [list(level) for level in nondeg], faces)
    for d, most in ((1, 4), (2, 3), (3, 2)):
        level = []
        for _ in range(draw(st.integers(0, most))):
            row = compatible_boundary(draw, X.all_exprs(d - 1), X.face, d)
            if row is not None:
                s = len(faces) + n_v
                faces[s] = row
                level.append(s)
        nondeg.append(level)
        X = SimplicialSet(d, [list(lv) for lv in nondeg], faces)
    dim_bound = draw(st.integers(max(X.dim, 1), 3))
    return SimplicialSet(dim_bound, [list(lv) for lv in nondeg], faces)


@settings(max_examples=150, deadline=None)
@given(tiny_complexes())
def test_drawn_complexes_match_oracle_at_every_flag(X):
    for Y in every_flag(X):
        assert_certify_matches_oracle(Y)


@settings(max_examples=150, deadline=None)
@given(tiny_complexes())
def test_quasi_category_verdict_matches_brute_force_at_every_flag(X):
    for Y in every_flag(X):
        assert certify_quasi_category(Y).is_quasi == brute_force_is_quasi(Y)


def assert_flag_check_matches_oracle(X: SimplicialSet):
    # the flag check reads, at n = d+1, the number of Lambda^n_1 horns
    # certification counted, and is called with every flag d through dim_bound
    for d in range(X.dim_bound + 1):
        top_count = len(old_enumerate_horns(X, d + 1, 1)) if d >= 1 else None
        assert _false_flag(X, d, top_count) == old_false_flag(X, d, top_count), d


def test_flag_check_matches_oracle_on_corpus():
    named = {**corpus_complexes(), **corpus_nerves(), **quasi_category_corpus(4)}
    for X in named.values():
        assert_flag_check_matches_oracle(X)


@settings(max_examples=150, deadline=None)
@given(tiny_complexes())
def test_flag_check_matches_oracle_at_every_flag(X):
    assert_flag_check_matches_oracle(X)


def test_face_rows_match_faces():
    for X in [*corpus_complexes().values(), *corpus_nerves().values()]:
        for d in range(1, X.dim_bound + 2):
            for e in X.all_exprs(d):
                row = X.face_row(e)
                assert row == tuple(X.face(e, i) for i in range(e.dim + 1))
                assert X.face_row(e) is row


def test_horn_join_matches_oracle_on_corpus():
    for X in [*corpus_complexes().values(), *corpus_nerves().values()]:
        assert_horns_match_oracle(X)


@settings(max_examples=150, deadline=None)
@given(tiny_complexes())
def test_horn_join_matches_oracle_on_drawn_complexes(X):
    assert_horns_match_oracle(X)


def test_face_index_matches_oracle_at_every_positions():
    empty = SimplicialSet(1, [], {})
    for X in [*corpus_complexes().values(), *corpus_nerves().values(), empty]:
        X = with_coskeletal(X, X.coskeletal_at)
        for n in range(4):
            for size in range(n + 2 if n else 1):
                for positions in combinations(range(n + 1), size):
                    new, old = X.face_index(n, positions), old_face_index(X, n, positions)
                    assert list(new.items()) == list(old.items()), (n, positions)
            exprs = X.all_exprs(n)
            assert X.face_index(n, ()) == ({(): exprs} if exprs else {})
            assert not exprs or X.face_index(n, ())[()] is exprs


def test_horn_map_keeps_the_dataclass_semantics():
    X = corpus_nerves()["B(z3)"]
    horns = enumerate_horns(X, 3, 1) + enumerate_horns(X, 2, 0)
    assert horns
    for h in horns:
        old = OldHornMap(h.n, h.k, h.top)
        assert repr(h) == repr(old)
        assert hash(h) == hash(old)
        copy = pickle.loads(pickle.dumps(h))
        assert type(copy) is HornMap and copy == h and (copy.n, copy.k, copy.top) == (h.n, h.k, h.top)
        twin = HornMap(h.n, h.k, tuple(list(h.top)))
        assert twin == h and hash(twin) == hash(h)


# -- degenerate n-expressions have keys of their own --------------------------------


SINGULAR = {
    **{f"walking_homotopy_{w}": walking_homotopy(w) for w in ("r", "rr", "rrll")},
    "B(Z/2)": nerve(cyclic_group_category(2), 3),
    # its cells have degenerate face pairs
    "B(Z/2) x walking_homotopy_r": product(nerve(cyclic_group_category(2), 3), walking_homotopy("r"), 3).complex,
}


def key_slots(n: int) -> list[tuple]:
    """The slots of every inner horn of Delta^n, and the whole boundary."""
    return [tuple(i for i in range(n + 1) if i != k) for k in range(1, n)] + [tuple(range(n + 1))]


def assert_degenerate_keys_are_counted(X: SimplicialSet) -> int:
    """For n = 2 .. dim_bound + 1 and each key shape: the degenerate
    n-expressions restrict injectively, each restriction has a degenerate
    face and is found by `_degenerate_key`, which finds a cell's key
    exactly when a degenerate expression shares it, and the counted keys
    are those of `old_face_index`.  Returns how many cell keys were
    shared."""
    shared = 0
    for n in range(2, X.dim_bound + 2):
        degenerate = [e for e in X.all_exprs(n) if e.is_degenerate]
        for slots in key_slots(n):
            keys = [tuple(X.face(e, i) for i in slots) for e in degenerate]
            assert len(set(keys)) == len(keys), (n, slots)
            assert all(any(f.is_degenerate for f in key) for key in keys), (n, slots)
            assert all(quasi._degenerate_key(X, slots, key) for key in keys), (n, slots)
            want = len(old_face_index(X, n, slots))
            if n > X.dim_bound:  # no cell: every n-expression is degenerate
                assert X.n_exprs(n) == want, (n, slots)
                continue
            count, cell_keys = quasi._key_count(X, n, slots)
            assert count == want, (n, slots)
            both = cell_keys & set(keys)
            assert {key for key in cell_keys if quasi._degenerate_key(X, slots, key)} == both, (n, slots)
            shared += len(both)
    return shared


def test_degenerate_keys_are_counted_on_singular_complexes():
    shared = {name: assert_degenerate_keys_are_counted(X) for name, X in SINGULAR.items()}
    # a right-homotopy witness shares its (2, 1)-key with s_1 of an edge
    assert shared["walking_homotopy_r"] > 0
    for X in corpus_complexes().values():
        assert_degenerate_keys_are_counted(X)


@settings(max_examples=150, deadline=None)
@given(st.one_of(tiny_complexes(), st.sampled_from([(1, 2, 3), (2, 3, 3), (3, 4, 4)]).flatmap(tiny_2_complexes)))
def test_degenerate_keys_are_counted_on_drawn_complexes(X):
    assert_degenerate_keys_are_counted(X)


def test_singular_complexes_match_oracles_at_every_flag():
    for X in SINGULAR.values():
        for Y in every_flag(X):
            assert_certify_matches_oracle(Y)
            assert certify_quasi_category(Y).is_quasi == brute_force_is_quasi(Y)
        assert_flag_check_matches_oracle(X)


def test_top_dimensions_build_no_index_over_their_expressions(monkeypatch):
    # certification counts keys and the flag check counts boundaries from
    # the cells; the horn join reads indexes one dimension down
    built = []
    index = SimplicialSet.face_index

    def spied(X, n, positions):
        built.append((n, positions))
        return index(X, n, positions)

    monkeypatch.setattr(SimplicialSet, "face_index", spied)
    for C in corpus_categories().values():
        N = nerve(C, 3)
        assert certify_quasi_category(N).is_quasi
        assert built and all(n <= N.coskeletal_at for n, _ in built)
        built.clear()
    for a in range(1, 4):
        for b in range(1, 5 - a):
            P = product(standard_simplex(a), standard_simplex(b)).complex
            d = P.coskeletal_at
            top_count = sum(map(len, quasi._join(P, d + 1, 1)[1]))
            built.clear()
            assert _false_flag(P, d, top_count) is None
            # of the m-expressions with m > d, only the Lambda^(m+1)_1 join
            # reads any, by its slots before m+1, (0, 2, ..., m)
            for n, positions in built:
                if n > d:
                    assert n < P.dim_bound and positions == (0, *range(2, n + 1))[: len(positions)], (a, b, n, positions)
