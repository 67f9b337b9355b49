import math
import random

import pytest

from quasicat import anodyne
from quasicat.anodyne import (
    AnodyneCertificate,
    CertStep,
    CertificateError,
    corner_swap,
    find_descending_segment,
    facet_certificate,
    shuffle_leq,
    shuffles,
    prism_certificate,
)
from quasicat.cli import main
from quasicat.simplicial import GLOBAL_DIM_BOUND, SimplicialError, SimplicialSet, iso_check, standard_simplex
from quasicat.verify import verify_certificate


def path_count_oracle(r, s):
    # memoized lattice-path counter, independent of the enumeration
    memo = {}

    def count(a, b):
        if a == 0 or b == 0:
            return 1
        if (a, b) not in memo:
            memo[(a, b)] = count(a - 1, b) + count(a, b - 1)
        return memo[(a, b)]

    return count(r, s)


# -- shuffles -------------------------------------------------------------------


def test_shuffle_counts_against_oracle():
    for r in range(0, 6):
        for s in range(0, 6):
            if r + s <= 10:
                got = len(shuffles(r, s))
                assert got == path_count_oracle(r, s) == math.comb(r + s, r)


def test_shuffles_1_1():
    assert len(shuffles(1, 1)) == 2


def test_shuffles_r_0():
    assert len(shuffles(4, 0)) == 1


def test_shuffles_2_2_minimal_first():
    paths = shuffles(2, 2)
    assert len(paths) == 6
    assert paths[0].points == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))
    assert paths[-1].points == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))


def test_diagonal_coordinate_sum():
    for r, s in [(2, 3), (3, 3), (1, 4)]:
        for p in shuffles(r, s):
            assert all(a + b == t for t, (a, b) in enumerate(p.points))


# -- the order -------------------------------------------------------------------


def test_shuffle_leq_reflexive():
    for p in shuffles(2, 1):
        assert shuffle_leq(p, p)


def test_shuffle_leq_extrema():
    for r, s in [(2, 1), (2, 2), (3, 2)]:
        ps = shuffles(r, s)
        bottom, top = ps[0], ps[-1]
        assert all(shuffle_leq(bottom, p) and shuffle_leq(p, top) for p in ps)


def test_shuffle_leq_partial_order():
    for r, s in [(2, 2), (3, 2), (4, 2), (3, 3), (2, 4)]:
        if r + s > 8:
            continue
        ps = shuffles(r, s)
        for a in ps:
            for b in ps:
                if shuffle_leq(a, b) and shuffle_leq(b, a):
                    assert a == b
                for c in ps:
                    if shuffle_leq(a, b) and shuffle_leq(b, c):
                        assert shuffle_leq(a, c)


def test_11_shuffles_comparable():
    lo, hi = shuffles(1, 1)
    assert lo.i_sequence() == (0, 0, 1) and hi.i_sequence() == (0, 1, 1)
    assert shuffle_leq(lo, hi) and not shuffle_leq(hi, lo)


def test_shuffle_shape_mismatch():
    with pytest.raises(SimplicialError):
        shuffle_leq(shuffles(1, 1)[0], shuffles(2, 1)[0])


# -- corners -----------------------------------------------------------------------


def test_maximal_has_no_up_right_corner():
    top = shuffles(2, 1)[-1]
    assert find_descending_segment(top, variant=1) is None


def test_minimal_11_corner_at_zero():
    lo = shuffles(1, 1)[0]
    assert find_descending_segment(lo, variant=1) == 0


def test_corner_detection_exhaustive():
    for r, s in [(2, 2), (3, 2), (3, 4), (2, 5), (4, 3)]:
        if r + s > 7:
            continue
        ps = shuffles(r, s)
        for p in ps:
            t1 = find_descending_segment(p, variant=1)
            assert (t1 is None) == (p == ps[-1])
            t2 = find_descending_segment(p, variant=2)
            assert (t2 is None) == (p == ps[0])


def test_corner_swap_monotone():
    for r, s in [(2, 2), (3, 2)]:
        for p in shuffles(r, s):
            t = find_descending_segment(p, variant=2)
            if t is None:
                continue
            swapped = corner_swap(p, t)
            assert shuffle_leq(swapped, p)
            assert swapped.points[: t + 1] == p.points[: t + 1]


# -- facet certificates -------------------------------------------------------------


def test_facet_cert_single_horn():
    cert = facet_certificate(2, {0, 2})
    assert len(cert.steps) == 1
    assert (cert.steps[0].n, cert.steps[0].k) == (2, 1)
    assert verify_certificate(cert)


def test_facet_cert_two_faces_of_delta3():
    cert = facet_certificate(3, {0, 3})
    assert verify_certificate(cert)
    assert len(cert.steps) == 2  # one face and the top cell


def test_facet_cert_horn_case_delta3():
    cert = facet_certificate(3, {0, 1, 3})
    assert len(cert.steps) == 1
    assert (cert.steps[0].n, cert.steps[0].k) == (3, 2)
    assert verify_certificate(cert)


def all_facet_parameters(max_n):
    for n in range(2, max_n + 1):
        inner = range(1, n)
        for bits in range(2 ** (n - 1)):
            S = {0, n} | {i for i in inner if bits & (1 << (i - 1))}
            if len(S) <= n:
                yield n, frozenset(S)


def test_facet_cert_all_parameters_verify():
    for n, S in all_facet_parameters(5):
        cert = facet_certificate(n, S)
        assert verify_certificate(cert), (n, sorted(S))
        for step in cert.steps:
            assert 0 < step.k < step.n
        # step count: two fresh cells per step fill the complement of <S>
        missing = cert.target.n_cells - len(cert.source_ids)
        assert missing == 2 * len(cert.steps)


def test_facet_cert_rejects_bad_parameters():
    with pytest.raises(CertificateError):
        facet_certificate(2, {0, 1, 2})  # not proper
    with pytest.raises(CertificateError):
        facet_certificate(3, {1, 3})  # missing the bottom face
    with pytest.raises(CertificateError):
        facet_certificate(3, {0, 5})


# -- prism certificates -----------------------------------------------------------


def test_prism_cert_m0_degenerate_case():
    cert = prism_certificate(2, 1, 0)
    assert len(cert.steps) == 1
    assert verify_certificate(cert)
    assert iso_check(cert.target, standard_simplex(2)) is not None


def test_prism_cert_211():
    cert = prism_certificate(2, 1, 1)
    assert verify_certificate(cert)
    tops = [s for s in cert.steps if s.n == 3]
    assert len(tops) == 3  # all three shuffles attached
    assert len(cert.steps) == 4


def test_prism_cert_outer_rejected():
    for n, k in [(2, 0), (2, 2), (3, 0), (3, 3)]:
        with pytest.raises(CertificateError):
            prism_certificate(n, k, 1)


@pytest.mark.parametrize("n,k,m", [(3, 1, 1), (3, 2, 2), (2, 1, 2), (4, 2, 1)])
def test_prism_cert_verifies(n, k, m):
    cert = prism_certificate(n, k, m)
    res = verify_certificate(cert)
    assert res, res.reason
    for step in cert.steps:
        assert 0 < step.k < step.n


@pytest.mark.parametrize("n,k,m", [(5, 2, 2), (3, 1, 4)])
def test_prism_cert_beyond_desk_scale(n, k, m):
    # the runtime assertions inside the builder hold well past the sizes
    # the battery exercises
    cert = prism_certificate(n, k, m)
    assert verify_certificate(cert)


def test_prism_certificates_of_one_shape_share_their_target(monkeypatch):
    # Delta^4 x Delta^3 is built once for both k, so verifying two of its
    # certificates validates it once
    standard_simplex(4), standard_simplex(3)
    calls = []
    validate = SimplicialSet.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SimplicialSet, "validate", counting)
    a = prism_certificate(4, 1, 3)
    b = prism_certificate(4, 3, 3, a.target)
    assert a.target is b.target
    assert a.source_ids != b.source_ids
    assert verify_certificate(a) and verify_certificate(b)
    assert calls == [a.target]
    assert b.steps == prism_certificate(4, 3, 3).steps


def test_prism_certificates_of_distinct_calls_build_their_own_target():
    # only a target passed in is shared: a lone call builds a fresh product
    a, b = prism_certificate(3, 1, 2), prism_certificate(3, 2, 2)
    assert a.target is not b.target


@pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 2), (2, 3)])
def test_prism_certificate_refuses_a_target_of_another_shape(n, m):
    # Delta^2 x Delta^3 has the dimension and the cell counts of Delta^3 x Delta^2
    other = prism_certificate(3, 1, 2).target
    with pytest.raises(CertificateError, match=f"target is not Delta\\^{n} x Delta\\^{m}"):
        prism_certificate(n, 1, m, other)


# -- shapes above the dimension bound ------------------------------------------------


@pytest.fixture
def no_building(monkeypatch):
    # a refusal must come before any complex is built
    def refuse(*args, **kwargs):
        raise AssertionError("built a complex for a shape above the dimension bound")

    monkeypatch.setattr(anodyne, "product", refuse)
    monkeypatch.setattr(anodyne, "standard_simplex", refuse)


@pytest.mark.parametrize("n,k,m", [(7, 1, 6), (12, 1, 12), (GLOBAL_DIM_BOUND, 1, 1)])
def test_prism_cert_refuses_shapes_above_dim_bound(no_building, n, k, m):
    with pytest.raises(CertificateError, match=f"needs n \\+ m <= {GLOBAL_DIM_BOUND}"):
        prism_certificate(n, k, m)


@pytest.mark.parametrize("n", [GLOBAL_DIM_BOUND + 1, 40])
def test_facet_cert_refuses_dimension_above_dim_bound(no_building, n):
    with pytest.raises(CertificateError, match=f"needs n <= {GLOBAL_DIM_BOUND}"):
        facet_certificate(n, {0, n})


@pytest.mark.parametrize("r,s", [(7, 6), (GLOBAL_DIM_BOUND + 1, 0)])
def test_shuffles_refuse_shapes_above_dim_bound(r, s):
    with pytest.raises(SimplicialError, match=f"need r \\+ s <= {GLOBAL_DIM_BOUND}"):
        shuffles(r, s)


def test_shapes_at_dim_bound_still_accepted():
    assert len(shuffles(GLOBAL_DIM_BOUND, 0)) == 1
    assert len(shuffles(6, 6)) == math.comb(12, 6)


@pytest.mark.parametrize(
    "argv",
    [
        ["cert-build", "--prism", "12", "1", "12"],
        ["cert-build", "--prism", "7", "1", "6"],
        ["cert-build", "--facets", "40", "0", "40"],
        ["shuffles", "7", "6"],
    ],
)
def test_cli_refuses_shapes_above_dim_bound(no_building, capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and f"<= {GLOBAL_DIM_BOUND}" in line


# -- verifier rejections ----------------------------------------------------------------


def mutate_outer_k(cert, rng):
    i = rng.randrange(len(cert.steps))
    s = cert.steps[i]
    new = CertStep(s.n, 0, (s.top[s.k],) + s.top[1:], s.attached)
    # keep slot structure: place None at 0, old missing face arbitrary
    top = list(s.top)
    top[s.k] = top[0]
    top[0] = None
    new = CertStep(s.n, 0, tuple(top), s.attached)
    return AnodyneCertificate(cert.target, cert.source_ids, cert.steps[:i] + (new,) + cert.steps[i + 1 :])


def mutate_attached(cert, rng):
    i = rng.randrange(len(cert.steps))
    s = cert.steps[i]
    wrong = next(iter(cert.source_ids))
    new = CertStep(s.n, s.k, s.top, wrong)
    return AnodyneCertificate(cert.target, cert.source_ids, cert.steps[:i] + (new,) + cert.steps[i + 1 :])


def mutate_corrupt_face(cert, rng):
    i = rng.randrange(len(cert.steps))
    s = cert.steps[i]
    slots = [j for j in range(s.n + 1) if j != s.k]
    j = rng.choice(slots)
    X = cert.target
    candidates = [e for e in X.all_exprs(s.n - 1) if e != s.top[j]]
    top = list(s.top)
    top[j] = rng.choice(candidates)
    new = CertStep(s.n, s.k, tuple(top), s.attached)
    return AnodyneCertificate(cert.target, cert.source_ids, cert.steps[:i] + (new,) + cert.steps[i + 1 :])


def mutate_drop_last(cert, rng):
    return AnodyneCertificate(cert.target, cert.source_ids, cert.steps[:-1])


def mutate_duplicate_step(cert, rng):
    i = rng.randrange(len(cert.steps))
    s = cert.steps[i]
    return AnodyneCertificate(
        cert.target, cert.source_ids, cert.steps[: i + 1] + (s,) + cert.steps[i + 1 :]
    )


MUTATIONS = [mutate_outer_k, mutate_attached, mutate_corrupt_face, mutate_drop_last, mutate_duplicate_step]


def test_mutations_rejected():
    rng = random.Random(7)
    certs = [
        facet_certificate(3, {0, 3}),
        facet_certificate(4, {0, 2, 4}),
        prism_certificate(2, 1, 1),
        prism_certificate(3, 2, 1),
    ]
    for cert in certs:
        assert verify_certificate(cert)
        for _ in range(25):
            mut = rng.choice(MUTATIONS)(cert, rng)
            assert not verify_certificate(mut), mut.description


def test_reordering_detected_when_dependencies_break():
    cert = prism_certificate(2, 1, 1)
    # moving the first step to the end breaks face-closure of later stages
    reordered = AnodyneCertificate(cert.target, cert.source_ids, cert.steps[1:] + cert.steps[:1])
    assert not verify_certificate(reordered)


def test_source_not_face_closed_rejected():
    cert = facet_certificate(3, {0, 3})
    top_edge = max(cert.source_ids, key=lambda s: cert.target.dim_of[s])
    bad = AnodyneCertificate(cert.target, frozenset({top_edge}), cert.steps)
    res = verify_certificate(bad)
    assert not res and "face-closed" in res.reason


def test_invalid_target_rejected():
    from quasicat.simplicial import SimplexExpr, SimplicialSet

    # an edge whose faces point at a missing id
    broken = SimplicialSet(
        1, [[0], [1]], {1: (SimplexExpr((), 0, 0), SimplexExpr((), 9, 0))}, check=False
    )
    cert = AnodyneCertificate(broken, frozenset({0, 1, 9}), ())
    res = verify_certificate(cert)
    assert not res and "invalid" in res.reason
