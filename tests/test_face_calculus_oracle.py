"""The face calculus, `product`, `validate`, the prism builder, the
face-base index and the tuple-backed `SimplexExpr` against the code they
replaced.

The oracles are the previous per-letter `degenerate`, `SimplicialSet.face`
and `ProductComplex.pair_expr` (one expression per degeneracy letter),
`product` (every component face and pair normal form recomputed for every
cell), the `validate` identity loop (two full faces per pair (i, j)), the
prism and facet builders on vertex chains, with the prism's
subset-by-subset intersection check, which the builders' id check must
match, and the previous `verify_certificate` (face closure of the source tested cell by
cell with a generator over its faces, and horn compatibility tested
pairwise on every step), which also checks replays that resume on a
target's slot: criterion 4's own sequence, interleaved certificates of
one target with sources and step lists edited in place between calls, and
certificates with two adjacent commuting steps swapped, whose resumed
replay attaches ids the slot holds past the point it resumes from.  A
refused source names the id that a set copy of it meets first, as the
oracle's does, also when the source's own order differs.  Threads that
replay certificates of one target at once reach the oracle's verdicts.
`product` is checked with one factor, and its memoized face rows, reused
across several products.  The word tables are checked exhaustively
through dimension 9 (pairs through 7), the word ranks and disjoint-word
lists against `tuple.index` and a test of every pair, and the expressions of every corpus
complex with degenerate faces one by one.  `SimplicialSet.expr_at`, the
indexed draw of criterion 4's face corruption, is checked against
`all_exprs`, and the expressions `face` and `all_exprs` build without the
word check against the checked constructor.  The prism builder is checked
on its own product and on a target shared by every k of a shape, and on
corrupted shared targets, which it must refuse or turn into certificates
that do not verify.
"""

import copy
import pickle
import random
import sys
import threading
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quasicat import acceptance
from quasicat.acceptance import MUTATION_SEED, _all_facet_parameters, _mutations
from quasicat.anodyne import (
    AnodyneCertificate,
    CertificateError,
    CertStep,
    _assert_intersection_generated,
    _facet_decomposition,
    _sub_faces,
    facet_certificate,
    find_descending_segment,
    prism_certificate,
    shuffles,
)
from quasicat.cat import nerve, preorder_category
from quasicat.corpus import corpus_complexes, loop_free_corpus_complexes
from quasicat.jsonio import certificate_to_json, dumps, sset_to_json
from quasicat.simplicial import (
    GLOBAL_DIM_BOUND,
    ProductComplex,
    SimplexExpr,
    SimplicialError,
    SimplicialSet,
    _disjoint_words,
    _word_rank,
    _words,
    closure_ids,
    degeneracy_expr,
    degenerate,
    make_subcomplex,
    product,
    product_cell_count,
    standard_simplex,
    with_coskeletal,
)
from quasicat.verify import VerifyResult, verify_certificate

from helpers import corpus_nerves, corpus_products, pair_expr

# -- oracles: the previous code, unchanged but for being module functions ------


def old_degenerate(expr: SimplexExpr, word) -> SimplexExpr:
    for j in reversed(word):
        expr = degeneracy_expr(expr, j)
    return expr


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
    return old_degenerate(res, out)


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
    return old_degenerate(prod.complex.expr(prod.pair_id[(e1, e2)]), word)


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
    prod = ProductComplex(P, X, Y, pairs, pair_id)
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
    return ProductComplex(P, X, Y, pairs, pair_id)


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


def old_validate(X: SimplicialSet):
    for d, level in enumerate(X.nondegenerate):
        for s in level:
            if d == 0:
                if s in X.faces and X.faces[s]:
                    raise SimplicialError(f"vertex {s} has faces")
                continue
            fs = X.faces.get(s)
            if fs is None or len(fs) != d + 1:
                raise SimplicialError(f"simplex {s} needs {d + 1} faces")
            for e in fs:
                if e.base not in X.dim_of:
                    raise SimplicialError(f"face of {s} has unknown base {e.base}")
                if X.dim_of[e.base] + len(e.word) != d - 1 or e.dim != d - 1:
                    raise SimplicialError(f"face of {s} has wrong dimension")
    for d, level in enumerate(X.nondegenerate):
        if d < 2:
            continue
        for s in level:
            fs = X.faces[s]
            for j in range(1, d + 1):
                for i in range(j):
                    if old_face(X, fs[j], i) != old_face(X, fs[i], j - 1):
                        raise SimplicialError(f"simplicial identity fails at {s}, (i,j)=({i},{j})")


def vertex_subsets(n: int):
    out = []
    for d in range(n + 1):
        out.extend(combinations(range(n + 1), d + 1))
    return out


def old_steps_for_cells(X: SimplicialSet, id_of_vs, cell_steps):
    """Materialize (vertex tuple, k) steps as CertSteps over the target."""
    out = []
    for vs, k in cell_steps:
        d = len(vs) - 1
        attached = id_of_vs[vs]
        top = tuple(
            None if i == k else X.expr(id_of_vs[vs[:i] + vs[i + 1 :]])
            for i in range(d + 1)
        )
        out.append(CertStep(d, k, top, attached))
    return out


def old_facet_certificate(n: int, S) -> AnodyneCertificate:
    S = frozenset(S)
    D = standard_simplex(n)
    id_of_vs = {D.labels[s]: s for s in D.cells()}
    full = tuple(range(n + 1))
    seeds = [id_of_vs[full[:i] + full[i + 1 :]] for i in sorted(S)]
    source_ids = closure_ids(D, seeds)
    steps = old_steps_for_cells(D, id_of_vs, _facet_decomposition(full, S))
    return AnodyneCertificate(D, source_ids, tuple(steps), f"<S> in Delta^{n}, S={sorted(S)}")


def old_assert_intersection_generated(chain, stage, faces_present):
    N = len(chain) - 1
    for positions in vertex_subsets(N):
        if len(positions) == N + 1:
            continue
        sub = tuple(chain[v] for v in positions)
        in_stage = sub in stage
        covered = any(
            i in faces_present and i not in positions for i in range(N + 1)
        )
        if in_stage != covered:
            raise CertificateError(
                f"intersection with the stage is not generated in codimension one at {sub}"
            )


def old_vertex_pair_chain(prod: ProductComplex, s: int):
    e1, e2 = prod.pairs[s]
    v1 = prod.left.vertex_ids(e1)
    v2 = prod.right.vertex_ids(e2)
    return tuple(zip(v1, v2))


def old_prism_certificate(n: int, k: int, m: int) -> AnodyneCertificate:
    if not 0 < k < n:
        raise CertificateError("need an inner index 0 < k < n")
    if m < 0:
        raise CertificateError("need m >= 0")
    prod = old_product(standard_simplex(n), standard_simplex(m))
    X = prod.complex
    id_of_chain = {old_vertex_pair_chain(prod, s): s for s in X.cells()}

    def in_source(chain) -> bool:
        avs = {p[0] for p in chain}
        bvs = {p[1] for p in chain}
        in_horn = avs != set(range(n + 1)) and avs != set(range(n + 1)) - {k}
        in_bd = bvs != set(range(m + 1))
        return in_horn or in_bd

    source_chains = {c for c in id_of_chain if in_source(c)}
    source_ids = frozenset(id_of_chain[c] for c in source_chains)
    desc = f"(Lambda^{n}_{k} x Delta^{m}) u (Delta^{n} x bd Delta^{m})"
    if m == 0:
        steps = old_steps_for_cells(
            X, {vs: id_of_chain[tuple((i, 0) for i in vs)] for vs in vertex_subsets(n)},
            [(tuple(range(n + 1)), k)],
        )
        return AnodyneCertificate(X, source_ids, tuple(steps), desc)

    stage = set(source_chains)
    all_steps = []
    order = shuffles(n, m)
    for idx, sigma in enumerate(order):
        chain = sigma.points
        N = n + m
        faces_present = frozenset(
            i for i in range(N + 1) if chain[:i] + chain[i + 1 :] in stage
        )
        old_assert_intersection_generated(chain, stage, faces_present)
        if not {0, N} <= faces_present:
            raise CertificateError("outer faces of a shuffle must already be present")
        if idx == len(order) - 1:
            if faces_present != frozenset(range(N + 1)) - {k}:
                raise CertificateError(
                    f"maximal shuffle should be missing exactly d^{k}, got {sorted(faces_present)}"
                )
        else:
            t = find_descending_segment(sigma, variant=1)
            if t is None:
                raise CertificateError("non-maximal shuffle without an up-right corner")
            if t + 1 in faces_present:
                raise CertificateError(f"face d^{t + 1} unexpectedly present")
        cell_steps = _facet_decomposition(tuple(range(N + 1)), faces_present)
        for vs, kk in cell_steps:
            sub_chain = tuple(chain[v] for v in vs)
            d = len(vs) - 1
            top = tuple(
                None
                if i == kk
                else X.expr(id_of_chain[sub_chain[:i] + sub_chain[i + 1 :]])
                for i in range(d + 1)
            )
            all_steps.append(CertStep(d, kk, top, id_of_chain[sub_chain]))
            stage.add(sub_chain[:kk] + sub_chain[kk + 1 :])
            stage.add(sub_chain)
    if len(stage) != len(id_of_chain):
        raise CertificateError("certificate does not exhaust the product")
    return AnodyneCertificate(X, source_ids, tuple(all_steps), desc)


# -- product -------------------------------------------------------------------

CORPUS = loop_free_corpus_complexes()
CORPUS_PAIRS = [(a, b) for a in sorted(CORPUS) for b in sorted(CORPUS)]


def assert_product_matches_oracle(X, Y, dim_bound=None, got=None):
    got = product(X, Y, dim_bound) if got is None else got
    want = old_product(X, Y, dim_bound)
    assert dumps(sset_to_json(got.complex)) == dumps(sset_to_json(want.complex))
    assert got.pairs == want.pairs
    assert got.pair_id == want.pair_id
    assert got.complex.labels == want.complex.labels


def test_corpus_products_match_oracle():
    for a, b in CORPUS_PAIRS:
        prod = corpus_products()[a, b]
        assert_product_matches_oracle(prod.left, prod.right, 2, got=prod)


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


def test_products_reusing_one_factor_match_oracle():
    # a fresh copy of each factor has no face rows yet; the rows memoized
    # by its first product serve the later ones
    for name, Y in sorted(degenerate_faced_complexes().items()):
        X = with_coskeletal(Y, Y.coskeletal_at)
        assert not X._rows
        for Z in (standard_simplex(1), standard_simplex(2), Y, X):
            if product_cell_count(X, Z, 2) <= 3000:
                assert_product_matches_oracle(X, Z, 2)
                assert_product_matches_oracle(Z, X, 2)
        # a face pair that is a cell is read off the build's table: only the
        # components of a cell with a degenerate face pair may have their rows
        # memoized, so products whose face pairs are all cells memoize none
        normalized = {
            e
            for Z in (standard_simplex(1), standard_simplex(2), Y, X)
            if product_cell_count(X, Z, 2) <= 3000
            for P in (product(X, Z, 2), product(Z, X, 2))
            for s, pair in P.pairs.items()
            if any(f.is_degenerate for f in P.complex.faces.get(s, ()))
            for e in pair
        }
        assert set(X._rows) <= normalized and (name != "Delta^2 x Delta^2" or not normalized), name


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


def test_source_refusal_names_the_id_a_set_copy_meets_first():
    # a frozenset grown one id at a time can iterate in another order than
    # its set copy, which a fresh replay iterates: the source check must
    # name the id that copy meets first, for ids outside the target and for
    # cells with a face outside the source
    cert = prism_certificate(2, 1, 2)
    X = cert.target
    cells, n = sorted(X.dim_of), len(X.dim_of)
    rng = random.Random(31)
    kinds = set()
    for _ in range(100):
        outside = sorted(cert.source_ids) + [n + rng.randrange(300) for _ in range(2)]
        for ids in (outside, rng.sample(cells, rng.randrange(5, 40))):
            rng.shuffle(ids)
            source = frozenset(x for x in ids)
            want = assert_verify_matches_oracle(AnodyneCertificate(X, source, cert.steps))
            # the refusal the frozenset's own order would give
            s = next((s for s in source if s not in X.dim_of), None)
            own = f"source id {s} not in target" if s is not None else f"source not face-closed at {X.first_unclosed(source)}"
            if want.reason.startswith("source") and want.reason != own:
                kinds.add(want.reason.split()[1])
    # both refusals met sources whose own order names another id
    assert kinds == {"id", "not"}


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


def test_first_unclosed_matches_oracle_on_single_cell_deletions():
    # a deleted cell is named through the cells it is a face of; a deleted top cell leaves a closed set
    rng = random.Random(30)
    sources = [
        product(standard_simplex(3), standard_simplex(2)).complex,
        product(standard_simplex(1), standard_simplex(4)).complex,
        corpus_nerves()["B(pi_interval)"],
    ]
    found = set()
    for _ in range(60):
        X = rng.choice(sources)
        ids = set(X.cells()) - {rng.choice(sorted(X.cells()))}
        bad = old_first_unclosed(X, ids)
        assert X.first_unclosed(ids) == bad
        found.add(bad is None)
    assert found == {True, False}


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


# -- replays that resume after an accepted prefix ---------------------------------------


def test_criterion_4_replays_match_oracle(monkeypatch):
    # criterion 4's own sequence: its 50 builds, then 100 mutants of each in
    # MUTATION_SEED order, each replay resuming on its target's slot
    verdicts = []

    def both(cert):
        got, want = verify_certificate(cert), old_verify_certificate(cert)
        verdicts.append(((got.ok, got.failed_step, got.reason), (want.ok, want.failed_step, want.reason)))
        return got

    monkeypatch.setattr(acceptance, "verify_certificate", both)
    result = acceptance.criterion_4_certificates()
    assert result.ok and len(verdicts) == 5050
    assert [got for got, _ in verdicts] == [want for _, want in verdicts]
    assert len({want[2].split(" at")[0] for _, want in verdicts if want[2]}) > 4


@lru_cache(maxsize=None)
def shared_target_families() -> tuple:
    """Certificates sharing one target: the k's of a prism shape, and the
    facet certificates of one n."""
    families = []
    for n, m in [(3, 1), (3, 2), (4, 1)]:
        first = prism_certificate(n, 1, m)
        families.append((first, *(prism_certificate(n, k, m, first.target) for k in range(2, n))))
    families += [tuple(facet_certificate(n, S) for n, S in _all_facet_parameters(4) if n == d) for d in (3, 4)]
    return tuple(families)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interleaved_replays_on_a_shared_target_match_oracle(data):
    family = data.draw(st.sampled_from(shared_target_families()))
    X = family[0].target
    assert all(c.target is X for c in family)
    family_steps = [s for c in family for s in c.steps]
    # one mutable source set and one step list, edited in place between calls
    base = data.draw(st.sampled_from(family))
    source, steps = set(base.source_ids), list(base.steps)
    live = AnodyneCertificate(X, source, steps)
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(["certificate", "restore", "step", "truncate", "duplicate", "source"]))
        cert = live
        if op == "certificate":
            c = data.draw(st.sampled_from(family))
            cert = c if data.draw(st.booleans()) else AnodyneCertificate(X, set(c.source_ids), list(c.steps))
        elif op == "restore":
            c = data.draw(st.sampled_from(family))
            source.clear()
            source.update(c.source_ids)
            steps[:] = c.steps
        elif op == "source":
            source ^= {data.draw(st.sampled_from(sorted(X.dim_of)))}
        elif steps:
            i = data.draw(st.integers(0, len(steps) - 1))
            if op == "truncate":
                del steps[i:]
            elif op == "duplicate":
                steps.insert(i, steps[i])
            else:
                # a step of any certificate of the family, a copy of the
                # step there, or that step with one horn face replaced
                s = data.draw(st.sampled_from(family_steps + [steps[i]]))
                top = list(s.top)
                if data.draw(st.booleans()):
                    j = data.draw(st.sampled_from([j for j in range(s.n + 1) if j != s.k]))
                    top[j] = data.draw(st.sampled_from(X.all_exprs(s.n - 1)))
                steps[i] = data.draw(st.sampled_from([s, CertStep(s.n, s.k, top, s.attached)]))
        slot = X._replay
        held = dict(slot[3])
        assert_verify_matches_oracle(cert)
        # a slot is replaced whole, never changed; its dict places each added id
        assert slot[3] == held
        _, done, added, at = X._replay
        assert at == {x: i for i, x in enumerate(added)} and len(added) == 2 * len(done)


def test_swapped_commuting_steps_replay_past_the_slot_prefix():
    # two adjacent steps that commute, swapped: the replay resumes at step
    # i on the slot of the certificate, and the step it meets there attaches
    # the ids that the slot placed at 2i + 2 and 2i + 3, which are not on
    # the resumed stage
    swaps = 0
    for cert in replay_certificates():
        X = cert.target
        for i in range(len(cert.steps) - 1):
            steps = list(cert.steps)
            steps[i], steps[i + 1] = steps[i + 1], steps[i]
            assert verify_certificate(cert).ok and X._replay[1] == cert.steps
            at = X._replay[3]
            assert at[steps[i].attached] == 2 * i + 3
            swaps += assert_verify_matches_oracle(AnodyneCertificate(X, cert.source_ids, tuple(steps))).ok
    assert swaps


def test_threads_replaying_on_a_shared_target_match_oracle():
    # more threads than cores verify the certificates of one target and
    # their mutants in different orders, switching often: each reads the
    # slot whole, so each verdict is the oracle's
    rng = random.Random(MUTATION_SEED)
    certs = []
    for c in shared_target_families()[2]:
        ops = _mutations(c, rng)
        certs += [c] + [rng.choice(ops)(c) for _ in range(15)]
    want = [old_verify_certificate(c) for c in certs]
    mismatches, done = [], []

    def work(seed):
        order = list(range(len(certs)))
        random.Random(seed).shuffle(order)
        for i in order * 5:
            got = verify_certificate(certs[i])
            if (got.ok, got.failed_step, got.reason) != (want[i].ok, want[i].failed_step, want[i].reason):
                mismatches.append(i)
        done.append(seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(8)) and mismatches == []


def test_step_edited_in_place_after_an_accepted_replay():
    cert = prism_certificate(3, 2, 1)
    X = cert.target
    i = len(cert.steps) // 2
    s = cert.steps[i]
    top = list(s.top)
    step = CertStep(s.n, s.k, top, s.attached)
    steps = list(cert.steps)
    steps[i] = step
    edited = AnodyneCertificate(X, cert.source_ids, steps)
    assert assert_verify_matches_oracle(edited).ok
    # the caller's list changes after the accepted replay: the step keeps
    # its own top, and is still accepted
    j = next(j for j in range(s.n + 1) if j != s.k)
    top[j] = next(e for e in X.all_exprs(s.n - 1) if e != s.top[j])
    assert type(step.top) is tuple and step.top == s.top
    assert assert_verify_matches_oracle(edited).ok
    # a new step object in its place is replayed and refused there
    steps[i] = CertStep(s.n, s.k, top, s.attached)
    want = assert_verify_matches_oracle(edited)
    assert (want.ok, want.failed_step) == (False, i)


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



def test_face_and_all_exprs_build_checked_expressions():
    # face and all_exprs build their words unchecked; each must pass the check
    for X in {**corpus_complexes(), **corpus_nerves()}.values():
        for d in range(X.dim_bound + 2):
            for e in X.all_exprs(d):
                assert type(e) is SimplexExpr and e == SimplexExpr(*e)
                for i in range(d + 1 if d else 0):
                    f = X.face(e, i)
                    assert type(f) is SimplexExpr and f == SimplexExpr(*f), (e, i)

# -- the word tables, exhaustively through dimension 9 -------------------------------

MAX_WORD_DIM = 9
MAX_PAIR_DIM = 7


def words(d: int) -> list[tuple[int, ...]]:
    """Every strictly decreasing word over range(d)."""
    return [w for n in range(d + 1) for w in combinations(range(d - 1, -1, -1), n)]


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle must raise alike
        return type(exc), str(exc)


class WordComplex:
    """A stand-in complex in which base b has dimension b, so every word
    over range(d) is the word of a d-expression, on base d - len(word).
    The face d_j of base b is a degenerate expression on an opaque base,
    so letters that pass a face are composed with a word of its own."""

    def __init__(self, top: int):
        self.dim_of = {b: b for b in range(top + 1)}
        self.faces = {}
        for b in range(1, top + 1):
            inner = words(b - 1)
            self.faces[b] = tuple(
                SimplexExpr(inner[j % len(inner)], ("face", b, j), b - 1) for j in range(b + 1)
            )


class EchoPairs(dict):
    """pair_id of a stand-in product: every pair is its own id."""

    def __missing__(self, pair):
        return pair


class PairProduct:
    def __init__(self, top: int):
        self.left = self.right = WordComplex(top)
        self.pair_id = EchoPairs()
        # the old pair_expr reads the id's dimension off the complex
        self.complex = self

    def expr(self, pair):
        return SimplexExpr((), pair, pair[0].dim)


def test_face_words_match_oracle():
    X = WordComplex(MAX_WORD_DIM)
    for d in range(MAX_WORD_DIM + 1):
        for w in words(d):
            e = SimplexExpr(w, d - len(w), d)
            for i in range(-1, d + 2):
                assert outcome(SimplicialSet.face, X, e, i) == outcome(old_face, X, e, i), (w, i)


def test_degenerate_words_match_oracle():
    # outer words over range(D + 1) include letters out of range, which
    # must raise the same error
    for D in range(MAX_WORD_DIM + 1):
        for d in range(D + 1):
            for inner in words(d):
                e = SimplexExpr(inner, "x", d)
                for outer in combinations(range(D, -1, -1), D - d):
                    assert outcome(degenerate, e, outer) == outcome(old_degenerate, e, outer), (inner, outer)


def test_pair_words_match_oracle():
    # 4^d pairs in dimension d: every pair through dimension 7 (22k pairs)
    # runs in about a second, through 9 it would take fifteen
    prod = PairProduct(MAX_PAIR_DIM)
    for d in range(MAX_PAIR_DIM + 1):
        ws = words(d)
        for w1 in ws:
            e1 = SimplexExpr(w1, d - len(w1), d)
            for w2 in ws:
                e2 = SimplexExpr(w2, d - len(w2), d)
                assert pair_expr(prod, e1, e2) == old_pair_expr(prod, e1, e2), (w1, w2)


def test_word_ranks_and_disjoint_words_match_brute_force():
    # `_word_rank` against `tuple.index`, and `_disjoint_words` against a
    # disjointness test of every pair of words, through dimension 9
    for d in range(MAX_WORD_DIM + 1):
        for p in range(d + 1):
            ws = _words(d, p)
            assert _word_rank(d, p) == {w: ws.index(w) for w in ws}, (d, p)
            for q in range(d + 1):
                vs = _words(d, q)
                want = tuple(tuple(j for j, v in enumerate(vs) if set(w).isdisjoint(v)) for w in ws)
                assert _disjoint_words(d, p, q) == want, (d, p, q)


# -- expressions of complexes with degenerate faces ---------------------------------------


@lru_cache(maxsize=None)
def degenerate_faced_complexes() -> dict:
    table = {**corpus_complexes(), **corpus_nerves()}
    out = {
        name: X for name, X in table.items() if any(e.word for fs in X.faces.values() for e in fs)
    }
    out["Delta^2 x Delta^2"] = product(standard_simplex(2), standard_simplex(2)).complex
    return out


def test_corpus_has_degenerate_faced_complexes():
    assert len(degenerate_faced_complexes()) > 10


@pytest.mark.parametrize("name", sorted(degenerate_faced_complexes()))
def test_expressions_match_oracle(name):
    X = degenerate_faced_complexes()[name]
    for d in range(X.dim_bound + 2):
        for e in X.all_exprs(d):
            for i in range(d + 1 if d else 0):
                assert X.face(e, i) == old_face(X, e, i), (e, i)
            for j in range(d + 1):
                assert degenerate(e, [j]) == old_degenerate(e, [j]), (e, j)
                assert degenerate(e, (j + 1, j)) == old_degenerate(e, (j + 1, j)), (e, j)


def test_pair_expr_matches_oracle_on_every_pair():
    # through two dimensions above the product's, where every pair peels
    prod = product(standard_simplex(2), standard_simplex(2))
    for d in range(prod.complex.dim_bound + 3):
        for e1 in prod.left.all_exprs(d):
            for e2 in prod.right.all_exprs(d):
                assert outcome(pair_expr, prod, e1, e2) == outcome(old_pair_expr, prod, e1, e2), (e1, e2)


# -- validate -----------------------------------------------------------------------------


def with_face(X: SimplicialSet, s: int, t: int, e: SimplexExpr) -> SimplicialSet:
    """X with face t of cell s replaced by e, unchecked."""
    faces = dict(X.faces)
    faces[s] = faces[s][:t] + (e,) + faces[s][t + 1 :]
    return SimplicialSet(X.dim_bound, [list(level) for level in X.nondegenerate], faces, None, X.labels, check=False)


def assert_validate_matches_oracle(X: SimplicialSet):
    got, want = outcome(X.validate), outcome(old_validate, X)
    assert got == want
    return want


def corruptions(X: SimplicialSet, rng: random.Random, per_cell: int):
    """Cells of dimension >= 1 with one face replaced: by random
    expressions of the right dimension and by one of the wrong dimension."""
    for d in range(1, X.dim_bound + 1):
        for s in X.nondegenerate[d]:
            for _ in range(per_cell):
                t = rng.randrange(d + 1)
                yield with_face(X, s, t, X.expr_at(d - 1, rng.randrange(X.n_exprs(d - 1))))
    s = X.nondegenerate[X.dim][0]
    yield with_face(X, s, 0, X.expr_at(X.dim, 0))


@pytest.mark.parametrize("name", sorted(degenerate_faced_complexes()))
def test_validate_matches_oracle_on_corpus_corruptions(name):
    rng = random.Random(name)
    messages = set()
    for Y in corruptions(degenerate_faced_complexes()[name], rng, per_cell=3):
        want = assert_validate_matches_oracle(Y)
        messages.add(want[1].split(" at")[0].split(" of")[0] if want else None)
    assert "simplicial identity fails" in messages and "face" in messages


def c4_targets():
    return {(n, m): prism_certificate(n, 1, m).target for n in range(2, 5) for m in range(4)}


def test_validate_matches_oracle_on_c4_prism_corruptions():
    rng = random.Random(MUTATION_SEED)
    failures = 0
    for (n, m), X in sorted(c4_targets().items()):
        assert_validate_matches_oracle(X)
        for _ in range(4):
            d = rng.randrange(1, X.dim + 1)
            s = rng.choice(X.nondegenerate[d])
            t = rng.randrange(d + 1)
            e = X.expr_at(d - 1, rng.randrange(X.n_exprs(d - 1)))
            failures += assert_validate_matches_oracle(with_face(X, s, t, e)) is not None
    assert failures > 24


# -- the builders ---------------------------------------------------------------------

INTERSECTION_SHAPES = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2), (4, 2, 1)]


@lru_cache(maxsize=None)
def intersection_calls() -> tuple:
    """Every (shape, chain, stage, faces_present) the old builder checks on
    a few prisms, the stage frozen as it stood."""
    module = sys.modules[__name__]
    check = module.old_assert_intersection_generated
    calls = []
    for shape in INTERSECTION_SHAPES:

        def record(chain, stage, faces_present):
            calls.append((shape, chain, frozenset(stage), faces_present))
            check(chain, stage, faces_present)

        module.old_assert_intersection_generated = record
        try:
            old_prism_certificate(*shape)
        finally:
            module.old_assert_intersection_generated = check
    return tuple(calls)


def test_intersection_check_matches_oracle_with_one_chain_changed():
    # the id check reads the shuffle's faces through the target's face rows
    # and the stage by id; it must raise exactly when the chain check does
    products = {}
    raised = passed = 0
    for (n, _, m), chain, stage, present in intersection_calls():
        if (n, m) not in products:
            prod = old_product(standard_simplex(n), standard_simplex(m))
            products[n, m] = prod.complex, {old_vertex_pair_chain(prod, s): s for s in prod.complex.cells()}
        X, id_of_chain = products[n, m]
        N = len(chain) - 1
        sub = _sub_faces(X, id_of_chain[chain], N)
        assert [sub[sum(1 << v for v in positions)] for positions in vertex_subsets(N)] == [
            id_of_chain[tuple(chain[v] for v in positions)] for positions in vertex_subsets(N)
        ]
        stage_ids = {id_of_chain[c] for c in stage}
        assert _assert_intersection_generated(sub, stage_ids, present) is None
        for positions in vertex_subsets(N):
            cell = tuple(chain[v] for v in positions)
            changed, changed_ids = stage ^ {cell}, stage_ids ^ {id_of_chain[cell]}
            refreshed = frozenset(i for i in range(N + 1) if chain[:i] + chain[i + 1 :] in changed)
            for faces_present in (present, refreshed):
                want = outcome(old_assert_intersection_generated, chain, changed, faces_present)
                got = outcome(_assert_intersection_generated, sub, changed_ids, faces_present)
                assert (got is None) == (want is None)
                assert got is None or got[0] is CertificateError
                raised += want is not None
                passed += want is None
    assert raised and passed


def benchmark_band_prisms():
    """One prism (k = n // 2) per shape Delta^n x Delta^m, 2 <= n, 1 <= m
    <= 7, with 3000 to 10500 cells: the shapes the certificate benchmark
    draws from."""
    return [
        (n, n // 2, m)
        for n in range(2, 8)
        for m in range(1, 8)
        if 3000 <= product_cell_count(standard_simplex(n), standard_simplex(m), n + m) <= 10500
    ]


C4_PRISMS = [(n, k, m) for n in range(2, 5) for k in range(1, n) for m in range(4)]


@lru_cache(maxsize=1)
def shared_target(n: int, m: int) -> SimplicialSet:
    """The target that every k of the shape shares, as criterion 4 shares
    it: the one the certificate for k = 1 built."""
    return prism_certificate(n, 1, m).target


# ordered by shape, so that each shared target is built once
@pytest.mark.parametrize("n, k, m", sorted(C4_PRISMS + benchmark_band_prisms(), key=lambda p: (p[0], p[2], p[1])))
def test_prism_certificate_matches_old_builder(n, k, m):
    want = old_prism_certificate(n, k, m)
    expected = dumps(certificate_to_json(want))
    # built on its own product, and on the target shared by every k of the shape
    for got in (prism_certificate(n, k, m), prism_certificate(n, k, m, shared_target(n, m))):
        assert dumps(certificate_to_json(got)) == expected
        # the same set, built in the same order
        assert list(got.source_ids) == list(want.source_ids)


def test_facet_certificates_match_old_builder():
    for n, S in _all_facet_parameters(7):
        got, want = facet_certificate(n, S), old_facet_certificate(n, S)
        assert dumps(certificate_to_json(got)) == dumps(certificate_to_json(want)), (n, S)
        assert list(got.source_ids) == list(want.source_ids)


def test_prism_certificate_on_a_corrupted_shared_target_is_refused():
    # a target given to the builder is read, not trusted: with one face entry
    # replaced, it is refused, or the certificate built on it does not verify
    rng = random.Random(MUTATION_SEED)
    X = prism_certificate(3, 1, 2).target
    refused = rejected = 0
    for _ in range(60):
        d = rng.randrange(1, X.dim + 1)
        s = rng.choice(X.nondegenerate[d])
        t = rng.randrange(d + 1)
        e = X.faces[s][t]
        while e == X.faces[s][t]:
            e = X.expr_at(d - 1, rng.randrange(X.n_exprs(d - 1)))
        Y = with_face(X, s, t, e)
        for k in (1, 2):
            try:
                cert = prism_certificate(3, k, 2, Y)
            except CertificateError:
                refused += 1
                continue
            assert not verify_certificate(cert)
            rejected += 1
    assert refused and rejected
