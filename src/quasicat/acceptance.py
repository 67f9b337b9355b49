"""Acceptance battery: one runner per criterion, exact verdicts only.

Each runner returns a CriterionResult with a boolean verdict and enough
counts to audit what was actually exercised.  `run_all` executes the whole
battery; the pytest acceptance module and the `corpus-run` subcommand both
call into this file, so the shipped CLI reproduces the gate exactly.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .anodyne import (
    AnodyneCertificate,
    CertStep,
    corner_swap,
    find_descending_segment,
    facet_certificate,
    shuffle_leq,
    shuffles,
    prism_certificate,
)
from .cat import is_equivalence_of_categories, iso_subgroupoid, nerve
from .corpus import (
    corpus_categories,
    corpus_complexes,
    loop_free_corpus_complexes,
    quasi_category_corpus,
    small_corpus_categories,
)
from .equivalence import enumerate_functors, nerve_equivalence_criterion
from .pathcat import bounded_hom_classes, counit_check, hom_sets, path_category, product_tables_agree
from .quasi import (
    certify_quasi_category,
    core,
    enumerate_horns,
    find_filler,
    ho_category_data,
    quasi_iso_edges,
)
from .simplicial import build_standard, iso_check, product, product_cell_count, standard_simplex
from .verify import verify_certificate

MUTATIONS_PER_CERTIFICATE = 100
MUTATION_SEED = 20260809
PRODUCT_CELL_LIMIT = 200  # criterion 2 skips larger products


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)
    seconds: float | None = None  # wall time, set by run_all; kept out of reports


def criterion_1_counit() -> CriterionResult:
    cats = corpus_categories()
    failures = []
    for name, C in cats.items():
        rep = counit_check(C)
        if not rep.ok or rep.inconclusive:
            failures.append(name)
    return CriterionResult(
        1, "counit P(BC) -> C is an isomorphism on the corpus",
        not failures,
        f"failures: {failures}" if failures else f"{len(cats)} categories",
        {"categories": len(cats)},
    )


def _content_key(X):
    # product, path_category, hom_sets and the comparison never read a
    # factor's labels, so complexes equal in everything else share checks
    return X.dim_bound, X.nondegenerate, tuple(sorted(X.faces.items())), X.coskeletal_at


def criterion_2_products() -> CriterionResult:
    complexes = loop_free_corpus_complexes()
    names = sorted(complexes)
    key = {name: _content_key(X) for name, X in complexes.items()}
    factor = {}  # content key -> (complex, its exact table), one per distinct complex
    for name in names:
        if key[name] not in factor:
            factor[key[name]] = complexes[name], hom_sets(path_category(complexes[name]))
    # ordered pair of content keys -> verdict, or None for a product over
    # PRODUCT_CELL_LIMIT; the content fixes the cell count, so each distinct
    # pair is counted and compared once
    verdicts = {}
    checked = 0
    skipped = 0
    failures = []
    for a in names:
        for b in names:
            pair = key[a], key[b]
            if pair not in verdicts:
                (X, TX), (Y, TY) = factor[pair[0]], factor[pair[1]]
                if product_cell_count(X, Y, 2) > PRODUCT_CELL_LIMIT:
                    verdicts[pair] = None
                else:
                    verdicts[pair] = product_tables_agree(product(X, Y, dim_bound=2), TX, TY)
            if verdicts[pair] is None:
                skipped += 1
                continue
            checked += 1
            if not verdicts[pair]:
                failures.append((a, b))
    return CriterionResult(
        2, "P(X x Y) = P(X) x P(Y) on loop-free corpus pairs",
        not failures,
        f"failures: {failures}" if failures else f"{checked} pairs checked, {skipped} over the cell limit",
        {"checked": checked, "skipped": skipped},
    )


def _horn_path_tables_agree(n: int, k: int) -> bool:
    H, incl = build_standard("horn", n, k)
    Psub = path_category(H)
    Pamb = path_category(standard_simplex(n))
    Tsub = hom_sets(Psub)
    Tamb = hom_sets(Pamb)
    vmap = {v: incl.assignment[v].base for v in H.vertices()}
    emap = {e: incl.assignment[e].base for e in Psub.generators}
    for x in Psub.objects:
        for y in Psub.objects:
            esub = Tsub.entry(x, y)
            eamb = Tamb.entry(vmap[x], vmap[y])
            if len(esub) != len(eamb):
                return False
            images = {eamb.class_of(tuple(emap[g] for g in c.rep)) for c in esub.classes}
            if len(images) != len(esub):
                return False
    return True


def criterion_3_inner_horns() -> CriterionResult:
    inner_ok = all(
        _horn_path_tables_agree(n, k) for n in range(2, 6) for k in range(1, n)
    )
    outer_fail = not _horn_path_tables_agree(2, 0) and not _horn_path_tables_agree(2, 2)
    ok = inner_ok and outer_fail
    return CriterionResult(
        3, "P(Lambda^n_k) = P(Delta^n) inner, fails outer",
        ok,
        "inner 2<=n<=5 isomorphic; (2,0) and (2,2) recorded as failures" if ok else "mismatch",
    )


def _all_facet_parameters(max_n: int):
    for n in range(2, max_n + 1):
        for bits in range(2 ** (n - 1)):
            S = frozenset({0, n} | {i for i in range(1, n) if bits & (1 << (i - 1))})
            if len(S) <= n:
                yield n, S


def _mutations(cert: AnodyneCertificate, rng: random.Random):
    """Structurally invalid variants; every operator must be rejected."""
    lowest = min(cert.source_ids)  # the source cell every wrong_attached draw attaches

    def at_random_step(change):
        # the variant replaces one step, drawn first, by change(c, step)
        def mutate(c):
            i = rng.randrange(len(c.steps))
            new = change(c, c.steps[i])
            return AnodyneCertificate(c.target, c.source_ids, c.steps[:i] + (new,) + c.steps[i + 1 :])

        return mutate

    @at_random_step
    def outer_k(c, s):
        top = list(s.top)
        top[s.k] = top[0 if s.k != 0 else 1]
        top[0] = None
        return CertStep(s.n, 0, tuple(top), s.attached)

    @at_random_step
    def wrong_attached(c, s):
        return CertStep(s.n, s.k, s.top, lowest)

    @at_random_step
    def corrupt_face(c, s):
        slots = [j for j in range(s.n + 1) if j != s.k]
        j = rng.choice(slots)
        X, d = c.target, s.n - 1
        alt = X.expr_at(d, rng.randrange(X.n_exprs(d)))
        if alt == s.top[j]:
            # on a collision, the first expression that differs
            alt = X.expr_at(d, 0)
            if alt == s.top[j]:
                alt = X.expr_at(d, 1)
        top = list(s.top)
        top[j] = alt
        return CertStep(s.n, s.k, tuple(top), s.attached)

    def drop_last(c):
        return AnodyneCertificate(c.target, c.source_ids, c.steps[:-1])

    def duplicate(c):
        i = rng.randrange(len(c.steps))
        return AnodyneCertificate(
            c.target, c.source_ids, c.steps[: i + 1] + (c.steps[i],) + c.steps[i + 1 :]
        )

    return [outer_k, wrong_attached, corrupt_face, drop_last, duplicate]


def criterion_4_certificates(mutations: int = MUTATIONS_PER_CERTIFICATE) -> CriterionResult:
    rng = random.Random(MUTATION_SEED)
    certs = []
    for n, S in _all_facet_parameters(5):
        certs.append(facet_certificate(n, S))
    targets = {}  # every k of one shape shares its Delta^n x Delta^m
    for n in range(2, 5):
        for k in range(1, n):
            for m in range(0, 4):
                certs.append(prism_certificate(n, k, m, targets.get((n, m))))
                targets[n, m] = certs[-1].target
    bad_builds = [c.description for c in certs if not verify_certificate(c)]
    surviving = 0
    total_mutations = 0
    for cert in certs:
        ops = _mutations(cert, rng)
        for _ in range(mutations):
            mutated = rng.choice(ops)(cert)
            total_mutations += 1
            if verify_certificate(mutated):
                surviving += 1
    ok = not bad_builds and surviving == 0
    return CriterionResult(
        4, "anodyne certificates verify; mutations rejected",
        ok,
        f"{len(certs)} certificates, {total_mutations} mutations, {surviving} survived"
        + (f", failed builds: {bad_builds}" if bad_builds else ""),
        {"certificates": len(certs), "mutations": total_mutations},
    )


def criterion_5_shuffles() -> CriterionResult:
    ok = True
    detail = []
    for r in range(0, 11):
        for s in range(0, 11 - r):
            expected = math.comb(r + s, r)
            if len(shuffles(r, s)) != expected:
                ok = False
                detail.append(f"count({r},{s})")
    for r in range(1, 7):
        for s in range(1, 8 - r):
            ps = shuffles(r, s)
            bottom, top = ps[0], ps[-1]
            if not all(shuffle_leq(bottom, p) and shuffle_leq(p, top) for p in ps):
                ok = False
                detail.append(f"extrema({r},{s})")
            for p in ps:
                if (find_descending_segment(p, 1) is None) != (p == top):
                    ok = False
                    detail.append(f"corner1({r},{s})")
                if (find_descending_segment(p, 2) is None) != (p == bottom):
                    ok = False
                    detail.append(f"corner2({r},{s})")
                t = find_descending_segment(p, 2)
                if t is not None and not shuffle_leq(corner_swap(p, t), p):
                    ok = False
                    detail.append(f"swap({r},{s})")
    square = product(standard_simplex(1), standard_simplex(1)).complex
    if square.counts() != (4, 5, 2):
        ok = False
        detail.append("square counts")
    return CriterionResult(
        5, "shuffle counts, extrema, and corner detection",
        ok,
        "; ".join(detail) if detail else "binomial counts r+s<=10, corners exhaustive r+s<=7",
    )


def criterion_6_certification() -> CriterionResult:
    failures = []
    for name, C in corpus_categories().items():
        if not certify_quasi_category(nerve(C, 3)).is_quasi:
            failures.append(f"B({name})")
    for n in range(0, 5):
        for m in range(0, 5 - n):
            P = product(standard_simplex(n), standard_simplex(m))
            if not certify_quasi_category(P.complex).is_quasi:
                failures.append(f"Delta^{n}xDelta^{m}")
    horn = corpus_complexes()["horn_2_1"]
    rep_horn = certify_quasi_category(horn)
    if rep_horn.verdict != "counterexample" or not rep_horn.counterexample.is_inner:
        failures.append("horn_2_1 not refuted")
    broken = corpus_complexes()["boundary3_minus_face"]
    rep_broken = certify_quasi_category(broken)
    if rep_broken.verdict != "counterexample" or not rep_broken.counterexample.is_inner:
        failures.append("boundary3_minus_face not refuted")
    return CriterionResult(
        6, "certification passes on nerves/products, locates broken horns",
        not failures,
        f"failures: {failures}" if failures else "all corpus nerves, products n+m<=4, two refutations",
    )


def criterion_7_cores() -> CriterionResult:
    failures = []
    for name, C in corpus_categories().items():
        N = nerve(C, 3)
        report = certify_quasi_category(N)
        J, _incl = core(N, report)
        target = nerve(iso_subgroupoid(C), 3)
        if iso_check(J, target, limit=512) is None:
            failures.append(f"core(B({name})) != B(Iso)")
            continue
        iso_is_all = len(iso_subgroupoid(C).arrows) == len(C.arrows)
        if iso_is_all and J.counts() != N.counts():
            failures.append(f"core of groupoid nerve B({name}) shrank")
        wits = quasi_iso_edges(J, certify_quasi_category(J))
        missing = [e for e in J.nondegenerate[1] if J.expr(e) not in wits]
        if missing:
            failures.append(f"core edge without witness in B({name})")
    return CriterionResult(
        7, "core(BC) = B(Iso C); groupoid cores are everything; edges witnessed",
        not failures,
        f"failures: {failures}" if failures else f"{len(corpus_categories())} categories",
    )


def _quotient_category_via_bounded(X):
    """Materialized P(X) quotient: arrows are bounded word classes."""
    P = path_category(X)
    entries = {}
    for x in P.objects:
        for y in P.objects:
            entries[(x, y)] = bounded_hom_classes(P, x, y, 3)
    return P, entries


def criterion_8_ho() -> CriterionResult:
    failures = []
    complexes = quasi_category_corpus(dim_bound=3)
    for name, X in complexes.items():
        report = certify_quasi_category(X)
        ho = ho_category_data(X, report)
        P, entries = _quotient_category_via_bounded(X)

        def word_of(edge_expr):
            return () if edge_expr.is_degenerate else (edge_expr.base,)

        # bijectivity hom by hom via the canonical comparison
        for x in ho.category.objects:
            for y in ho.category.objects:
                arrows = [a for a in ho.category.arrows if ho.category.src[a] == x and ho.category.tgt[a] == y]
                classes = entries[(x, y)].classes
                images = {entries[(x, y)].class_of(word_of(ho.rep_of_arrow[a])) for a in arrows}
                if len(images) != len(arrows) or len(arrows) != len(classes):
                    failures.append(f"{name}: hom({x},{y}) mismatch")
        # composition compatibility
        for (b, a), ba in ho.category.compose_table.items():
            x = ho.category.src[a]
            z = ho.category.tgt[b]
            word = word_of(ho.rep_of_arrow[a]) + word_of(ho.rep_of_arrow[b])
            if entries[(x, z)].class_of(word) != entries[(x, z)].class_of(word_of(ho.rep_of_arrow[ba])):
                failures.append(f"{name}: composition mismatch")
                break
        # filler independence, exhausted over all 2-simplices: the fillers
        # of one composable pair (d_2, d_0) all have homotopic d_1
        for fillers in X.face_index(2, (0, 2)).values():
            if len({ho.edge_class[X.face(tau, 1)] for tau in fillers}) > 1:
                failures.append(f"{name}: filler-dependent composition")
                break
    return CriterionResult(
        8, "ho(X) = materialized P(X) quotient; composition filler-independent",
        not failures,
        f"failures: {failures}" if failures else f"{len(complexes)} certified complexes",
    )


def criterion_9_nerve_equivalence() -> CriterionResult:
    cats = small_corpus_categories()
    names = sorted(cats)
    functors = 0
    disagreements = []
    for a in names:
        for b in names:
            for F in enumerate_functors(cats[a], cats[b]):
                functors += 1
                if nerve_equivalence_criterion(F) != is_equivalence_of_categories(F):
                    disagreements.append((a, b))
    return CriterionResult(
        9, "nerve-equivalence criterion agrees with categorical equivalence",
        not disagreements,
        f"disagreements: {disagreements[:5]}" if disagreements else
        f"{functors} functors over {len(names)}^2 category pairs",
        {"functors": functors},
    )


def criterion_10_outer_horns() -> CriterionResult:
    failures = []
    exhibited = False
    for name, X in quasi_category_corpus(dim_bound=4).items():
        report = certify_quasi_category(X)
        wits = quasi_iso_edges(X, report)
        top_dim = min(4, X.dim_bound)
        for n in range(2, top_dim + 1):
            for k, lead_positions in (
                (0, (0, 1)),
                (n, (n - 1, n)),
            ):
                for h in enumerate_horns(X, n, k):
                    invertible = h.face_image(X, lead_positions) in wits
                    filled = find_filler(X, h) is not None
                    if invertible and not filled:
                        failures.append(f"{name}: invertible-edge horn ({n},{k}) unfilled")
                    if name == "B(chain2)" and n == 2 and k == 0 and not invertible and not filled:
                        exhibited = True
    if not exhibited:
        failures.append("no non-filling Lambda^2_0 horn with non-invertible edge exhibited")
    return CriterionResult(
        10, "outer horns with quasi-iso leading edge fill; a non-example exists",
        not failures,
        f"failures: {failures[:5]}" if failures else "outer horns n<=4 over the certified corpus",
    )


RUNNERS = [
    criterion_1_counit,
    criterion_2_products,
    criterion_3_inner_horns,
    criterion_4_certificates,
    criterion_5_shuffles,
    criterion_6_certification,
    criterion_7_cores,
    criterion_8_ho,
    criterion_9_nerve_equivalence,
    criterion_10_outer_horns,
]


def run_all(mutations: int = MUTATIONS_PER_CERTIFICATE) -> list[CriterionResult]:
    results = []
    for runner in RUNNERS:
        started = time.perf_counter()
        result = runner(mutations) if runner is criterion_4_certificates else runner()
        result.seconds = time.perf_counter() - started
        results.append(result)
    return results
