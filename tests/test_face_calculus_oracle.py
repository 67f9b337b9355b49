"""The memoized `product`, the face-base index and the tuple-backed
`SimplexExpr` against the code they replaced.

The oracles are the previous `SimplicialSet.face`, `ProductComplex.pair_expr`
and `product` (every component face and pair normal form recomputed for
every cell), and the previous `verify_certificate` (face closure of the
source tested cell by cell with a generator over its faces, and horn
compatibility tested pairwise on every step).  `SimplicialSet.expr_at`,
the indexed draw of criterion 4's face corruption, is checked against
`all_exprs`.
"""

import copy
import pickle
import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quasicat.acceptance import MUTATION_SEED, _all_facet_parameters, _mutations
from quasicat.anodyne import AnodyneCertificate, CertStep, facet_certificate, prism_certificate
from quasicat.cat import nerve, preorder_category
from quasicat.corpus import loop_free_corpus_complexes
from quasicat.jsonio import dumps, sset_to_json
from quasicat.simplicial import (
    GLOBAL_DIM_BOUND,
    ProductComplex,
    SimplexExpr,
    SimplicialError,
    SimplicialMap,
    SimplicialSet,
    degenerate,
    make_subcomplex,
    product,
    product_cell_count,
    standard_simplex,
)
from quasicat.verify import VerifyResult, verify_certificate

# -- oracles: the previous code, unchanged but for being module functions ------


def old_face(X: SimplicialSet, expr: SimplexExpr, i: int) -> SimplexExpr:
    if expr.dim < 1 or not 0 <= i <= expr.dim:
        raise SimplicialError(f"face index {i} out of range for dim {expr.dim}")
    out = []
    word = expr.word
    for pos, j in enumerate(word):
        if i < j:
            out.append(j - 1)
        elif i <= j + 1:
            res = SimplexExpr(word[pos + 1 :], expr.base, X.dim_of[expr.base] + len(word) - pos - 1)
            break
        else:
            out.append(j)
            i -= 1
    else:
        res = X.faces[expr.base][i]
    return degenerate(res, out)


def old_pair_expr(prod: ProductComplex, e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
    word = []
    while True:
        common = set(e1.word) & set(e2.word)
        if not common:
            break
        i = max(common)
        word.append(i)
        e1 = old_face(prod.left, e1, i + 1)
        e2 = old_face(prod.right, e2, i + 1)
    return degenerate(prod.complex.expr(prod.pair_id[(e1, e2)]), word)


def old_product(X: SimplicialSet, Y: SimplicialSet, dim_bound: int | None = None) -> ProductComplex:
    full = X.dim + Y.dim
    if dim_bound is None:
        dim_bound = min(full, GLOBAL_DIM_BOUND) if full >= 0 else 0
    dim_bound = max(dim_bound, 0)
    pair_id = {}
    pairs = {}
    nondeg = [[] for _ in range(dim_bound + 1)]
    labels = {}
    next_id = 0
    for d in range(dim_bound + 1):
        for p in range(min(d, X.dim) + 1):
            for q in range(min(d, Y.dim) + 1):
                if p + q < d:
                    continue
                for x in X.nondegenerate[p]:
                    for y in Y.nondegenerate[q]:
                        for w1 in combinations(range(d - 1, -1, -1), d - p):
                            rest = [i for i in range(d - 1, -1, -1) if i not in w1]
                            for w2 in combinations(rest, d - q):
                                e1 = SimplexExpr(w1, x, d)
                                e2 = SimplexExpr(w2, y, d)
                                pair_id[(e1, e2)] = next_id
                                pairs[next_id] = (e1, e2)
                                nondeg[d].append(next_id)
                                labels[next_id] = (e1, e2)
                                next_id += 1
    P = SimplicialSet(dim_bound, nondeg, {}, None, labels, check=False)
    prod = ProductComplex(P, X, Y, None, None, pairs, pair_id)
    faces = {}
    for s, (e1, e2) in pairs.items():
        d = e1.dim
        if d >= 1:
            faces[s] = tuple(
                old_pair_expr(prod, old_face(X, e1, i), old_face(Y, e2, i)) for i in range(d + 1)
            )
    flag = None
    if (
        X.coskeletal_at is not None
        and Y.coskeletal_at is not None
        and full >= 0
        and dim_bound >= full
    ):
        flag = max(X.coskeletal_at, Y.coskeletal_at)
    P = SimplicialSet(dim_bound, nondeg, faces, flag, labels, check=False)
    pr_left = SimplicialMap(P, X, {s: e1 for s, (e1, e2) in pairs.items()})
    pr_right = SimplicialMap(P, Y, {s: e2 for s, (e1, e2) in pairs.items()})
    return ProductComplex(P, X, Y, pr_left, pr_right, pairs, pair_id)


def old_verify_certificate(cert) -> VerifyResult:
    X = cert.target
    try:
        X.ensure_validated()
    except Exception as exc:  # noqa: BLE001 - any malformed target is a refusal
        return VerifyResult(False, None, f"target complex invalid: {exc}")
    current = set(cert.source_ids)
    for s in current:
        if s not in X.dim_of:
            return VerifyResult(False, None, f"source id {s} not in target")
    for s in current:
        if X.dim_of[s] >= 1 and any(e.base not in current for e in X.faces[s]):
            return VerifyResult(False, None, f"source not face-closed at {s}")
    for step_no, step in enumerate(cert.steps):
        n, k = step.n, step.k
        if not 0 < k < n:
            return VerifyResult(False, step_no, f"horn index {k} not inner for n={n}")
        if len(step.top) != n + 1 or step.top[k] is not None:
            return VerifyResult(False, step_no, "malformed top assignment")
        for i in range(n + 1):
            if i == k:
                continue
            e = step.top[i]
            if e is None or e.dim != n - 1:
                return VerifyResult(False, step_no, f"face {i} missing or of wrong dimension")
            if e.base not in X.dim_of:
                return VerifyResult(False, step_no, f"face {i} references unknown id")
            if e.base not in current:
                return VerifyResult(False, step_no, f"face {i} not in the current stage")
        for j in range(n + 1):
            for i in range(j):
                if i == k or j == k:
                    continue
                if old_face(X, step.top[j], i) != old_face(X, step.top[i], j - 1):
                    return VerifyResult(False, step_no, f"horn faces disagree at ({i},{j})")
        tau = step.attached
        if tau not in X.dim_of or X.dim_of[tau] != n:
            return VerifyResult(False, step_no, "attached id missing or of wrong dimension")
        if tau in current:
            return VerifyResult(False, step_no, "attached simplex already present")
        tau_faces = X.faces[tau]
        for i in range(n + 1):
            if i != k and tau_faces[i] != step.top[i]:
                return VerifyResult(False, step_no, f"attached simplex does not fill the horn at {i}")
        missing = tau_faces[k]
        if missing.is_degenerate:
            return VerifyResult(False, step_no, "missing face is degenerate: not a free pushout")
        if missing.base in current:
            return VerifyResult(False, step_no, "missing face already present: not a free pushout")
        current.add(missing.base)
        current.add(tau)
    if current != set(X.dim_of):
        return VerifyResult(False, None, "replay does not reach the declared target")
    return VerifyResult(True)


def old_first_unclosed(X: SimplicialSet, ids):
    for s in ids:
        if X.dim_of[s] >= 1 and any(e.base not in ids for e in X.faces[s]):
            return s
    return None


# -- product -------------------------------------------------------------------

CORPUS = loop_free_corpus_complexes()
CORPUS_PAIRS = [(a, b) for a in sorted(CORPUS) for b in sorted(CORPUS)]


def assert_product_matches_oracle(X, Y, dim_bound=None):
    got, want = product(X, Y, dim_bound), old_product(X, Y, dim_bound)
    assert dumps(sset_to_json(got.complex)) == dumps(sset_to_json(want.complex))
    assert got.pairs == want.pairs
    assert got.pair_id == want.pair_id
    assert got.complex.labels == want.complex.labels
    assert got.pr_left.assignment == want.pr_left.assignment
    assert got.pr_right.assignment == want.pr_right.assignment


def test_corpus_products_match_oracle():
    for a, b in CORPUS_PAIRS:
        assert_product_matches_oracle(CORPUS[a], CORPUS[b], 2)


@pytest.mark.parametrize("a, b", [(0, 3), (2, 2), (3, 1), (2, 3)])
def test_full_simplex_products_match_oracle(a, b):
    assert_product_matches_oracle(standard_simplex(a), standard_simplex(b))


@st.composite
def poset_nerves(draw):
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    le = {(i, i) for i in range(n)} | {p for p in pairs if draw(st.booleans())}
    while True:
        extra = {(a, d) for a, b in le for c, d in le if b == c} - le
        if not extra:
            break
        le |= extra
    return nerve(preorder_category(range(n), le), draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(poset_nerves(), poset_nerves(), st.sampled_from([None, 2, 3]))
def test_poset_nerve_products_match_oracle(X, Y, dim_bound):
    if product_cell_count(X, Y, X.dim + Y.dim if dim_bound is None else dim_bound) <= 3000:
        assert_product_matches_oracle(X, Y, dim_bound)


def test_cell_count_matches_corpus_products():
    # every pair criterion 2 visits, at its dim_bound of 2
    for a, b in CORPUS_PAIRS:
        X, Y = CORPUS[a], CORPUS[b]
        assert product_cell_count(X, Y, 2) == product(X, Y, dim_bound=2).complex.n_cells, (a, b)


@pytest.mark.parametrize("a", range(5))
@pytest.mark.parametrize("b", range(5))
def test_cell_count_matches_simplex_products(a, b):
    X, Y = standard_simplex(a), standard_simplex(b)
    assert product_cell_count(X, Y, a + b) == product(X, Y).complex.n_cells


# -- verify_certificate and face closure ------------------------------------------


def drop_source_cell(cert, rng):
    """Remove one source cell: face closure fails unless the cell was a
    maximal one, which the replay then misses."""
    s = rng.choice(sorted(cert.source_ids))
    return AnodyneCertificate(cert.target, cert.source_ids - {s}, cert.steps)


def test_verify_matches_oracle_on_mutants():
    rng = random.Random(MUTATION_SEED)
    certs = [facet_certificate(n, S) for n, S in _all_facet_parameters(5)]
    certs += [prism_certificate(n, k, m) for n, k, m in [(2, 1, 2), (3, 1, 2), (3, 2, 3), (4, 2, 1)]]
    reasons = set()
    for cert in certs:
        ops = _mutations(cert, rng) + [lambda c: drop_source_cell(c, rng)]
        for mutated in [cert] + [rng.choice(ops)(cert) for _ in range(40)]:
            got, want = verify_certificate(mutated), old_verify_certificate(mutated)
            assert (got.ok, got.failed_step, got.reason) == (want.ok, want.failed_step, want.reason)
            reasons.add(want.reason.split(" at")[0] if want.reason else None)
    # the sample reaches acceptance, the source check and the step checks
    assert None in reasons and "source not face-closed" in reasons and len(reasons) > 4


def test_make_subcomplex_closure_matches_oracle():
    rng = random.Random(7)
    X = product(standard_simplex(2), standard_simplex(2)).complex
    cells = sorted(X.cells())
    for _ in range(200):
        ids = frozenset(rng.sample(cells, rng.randrange(len(cells) + 1)))
        bad = old_first_unclosed(X, ids)
        assert X.first_unclosed(ids) == bad
        if bad is None:
            make_subcomplex(X, ids)
        else:
            with pytest.raises(SimplicialError, match=f"cell set not face-closed at {bad}$"):
                make_subcomplex(X, ids)


# -- the filler-first replay ---------------------------------------------------------


@lru_cache(maxsize=None)
def replay_certificates():
    certs = [facet_certificate(n, S) for n, S in _all_facet_parameters(4)]
    return tuple(certs + [prism_certificate(n, k, m) for n, k, m in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 2)]])


def replace_step(cert, i, step):
    return AnodyneCertificate(cert.target, cert.source_ids, cert.steps[:i] + (step,) + cert.steps[i + 1 :])


def assert_verify_matches_oracle(cert):
    got, want = verify_certificate(cert), old_verify_certificate(cert)
    assert (got.ok, got.failed_step, got.reason) == (want.ok, want.failed_step, want.reason)
    return want


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_verify_matches_oracle_under_one_corruption(data):
    cert = data.draw(st.sampled_from(replay_certificates()))
    X = cert.target
    i = data.draw(st.integers(0, len(cert.steps) - 1))
    s = cert.steps[i]
    kind = data.draw(st.sampled_from(["horn face", "attached id", "horn index", "source cell"]))
    if kind == "source cell":
        # verified first, the source is the one its target last accepted; a
        # source with one cell dropped must still be checked in full
        assert verify_certificate(cert).ok
        dropped = data.draw(st.sampled_from(sorted(cert.source_ids)))
        assert_verify_matches_oracle(AnodyneCertificate(X, cert.source_ids - {dropped}, cert.steps))
        return
    if kind == "horn face":
        # any expression of the right dimension, the step's own included
        j = data.draw(st.sampled_from([j for j in range(s.n + 1) if j != s.k]))
        exprs = X.all_exprs(s.n - 1)
        top = list(s.top)
        top[j] = exprs[data.draw(st.integers(0, len(exprs) - 1))]
        step = CertStep(s.n, s.k, tuple(top), s.attached)
    elif kind == "attached id":
        step = CertStep(s.n, s.k, s.top, data.draw(st.sampled_from(sorted(X.dim_of))))
    else:
        # the horn at another index k, filled by the same simplex
        k = data.draw(st.sampled_from([k for k in range(s.n + 1) if k != s.k]))
        top = list(s.top)
        top[s.k] = X.faces[s.attached][s.k]
        top[k] = None
        step = CertStep(s.n, k, tuple(top), s.attached)
    assert_verify_matches_oracle(replace_step(cert, i, step))


def test_incompatible_horn_without_filler_reports_disagreement():
    # Lambda^2_1 -> Delta^2 with the edge 01 in both slots: d_0 y_2 = 1 but
    # d_1 y_0 = 0, and the attached 2-simplex does not fill that horn
    cert = facet_certificate(2, {0, 2})
    (s,) = cert.steps
    step = CertStep(s.n, s.k, (s.top[2], None, s.top[2]), s.attached)
    want = assert_verify_matches_oracle(replace_step(cert, 0, step))
    assert (want.ok, want.failed_step, want.reason) == (False, 0, "horn faces disagree at (0,2)")


# -- the indexed expression draw -------------------------------------------------------


def test_expr_at_matches_all_exprs_on_criterion_4_targets():
    certs = [facet_certificate(n, S) for n, S in _all_facet_parameters(5)]
    certs += [prism_certificate(n, k, m) for n in range(2, 5) for k in range(1, n) for m in range(4)]
    # expr_at and all_exprs read only dim_bound and the non-degenerate
    # levels, so each distinct pair of those is checked once
    targets = {(c.target.dim_bound, c.target.nondegenerate): c.target for c in certs}
    for X in targets.values():
        for d in range(X.dim_bound + 2):
            want = X.all_exprs(d)
            assert X.n_exprs(d) == len(want)
            assert [X.expr_at(d, r) for r in range(len(want))] == list(want), d
            with pytest.raises(IndexError):
                X.expr_at(d, len(want))
            with pytest.raises(IndexError):
                X.expr_at(d, -1)


# -- SimplexExpr ------------------------------------------------------------------


@pytest.mark.parametrize("word", [(0, 0), (1, 2), (3, 1, 1), (2, 0, 1)])
def test_simplex_expr_rejects_non_decreasing_word(word):
    with pytest.raises(SimplicialError, match="strictly decreasing"):
        SimplexExpr(word, 0, len(word))


def test_simplex_expr_is_immutable():
    e = SimplexExpr((1, 0), 4, 3)
    for name in ("word", "base", "dim", "other"):
        with pytest.raises(AttributeError):
            setattr(e, name, 0)
    assert (e.word, e.base, e.dim, e.is_degenerate) == ((1, 0), 4, 3, True)


def test_simplex_expr_value_semantics():
    e = SimplexExpr((2, 0), 5, 4)
    same = SimplexExpr((2, 0), 5, 4)
    assert e == same and hash(e) == hash(same) == hash(((2, 0), 5, 4))
    assert len({e, same}) == 1
    for other in (SimplexExpr((2,), 5, 4), SimplexExpr((2, 0), 6, 4), SimplexExpr((2, 0), 5, 3)):
        assert e != other
    assert repr(e) == "SimplexExpr(word=(2, 0), base=5, dim=4)"
    assert copy.deepcopy(e) == e and pickle.loads(pickle.dumps(e)) == e
    assert not SimplexExpr((), 5, 2).is_degenerate
