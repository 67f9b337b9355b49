"""The paper's system of groupoids, computed by two routes that share only
`nerve`.

The simplicial route counts tau0(Delta^n, BC): the isomorphism classes of
objects of the function complex hom(Delta^n, BC), found in `quasi`.  The
categorical route counts the isomorphism classes of Iso(C^P(Delta^n)), which
the nerve-equivalence criterion reads off the functor search in
`equivalence`.  Neither route is the expected value of the other, so a
wrong answer in either layer shows.
"""

import pytest

from quasicat.corpus import corpus_categories
from quasicat.equivalence import _iso_summary, criterion_presentations
from quasicat.quasi import CertificationError, tau0
from quasicat.simplicial import standard_simplex

from helpers import corpus_nerves

# tau0(Delta^1, BC) refuses these: Delta^1 x Delta^3 has cells above BC's
# dim_bound, so the function complex loses its top cells and fails
# certification
REFUSED_AT_1 = {
    "chain4", "z2", "z3", "pi_interval", "idempotent",
    "rand06", "rand08", "rand09", "rand10", "rand14", "rand16", "rand17",
}


def iso_class_count(C, n: int) -> int:
    name = f"P(Delta^{n})"
    _key, aut = _iso_summary(C, name, dict(criterion_presentations())[name])
    return len(aut)


@pytest.mark.parametrize("n", [0, 1])
def test_tau0_of_a_simplex_counts_the_iso_classes_of_functors(n):
    nerves = corpus_nerves()
    compared = 0
    for name, C in corpus_categories().items():
        K, X = standard_simplex(n), nerves[f"B({name})"]
        if n == 1 and name in REFUSED_AT_1:
            with pytest.raises(CertificationError):
                tau0(K, X)
            continue
        assert len(tau0(K, X)) == iso_class_count(C, n), name
        compared += 1
    assert compared == (29 if n == 0 else 17)
