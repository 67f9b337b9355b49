"""The paper's system of groupoids, computed by two routes that share only
`nerve`.

The simplicial route counts tau0(K, BC): the isomorphism classes of objects
of the function complex hom(K, BC), read off maps K x Delta^0 -> BC and
pointwise-invertible maps K x Delta^1 -> BC in `quasi`.  The categorical
route counts the isomorphism classes of Iso(C^P(K)), which the
nerve-equivalence criterion reads off the functor search in `equivalence`.
Neither route is the expected value of the other, so a wrong answer in
either layer shows.  K runs over the criterion's five shapes and the
horns Lambda^2_k.
"""

import pytest

from quasicat.corpus import corpus_categories
from quasicat.equivalence import _iso_summary, criterion_presentations
from quasicat.pathcat import path_category
from quasicat.quasi import tau0
from quasicat.simplicial import build_standard, standard_simplex

from helpers import corpus_nerves


def iso_class_count(C, name: str, P=None) -> int:
    _key, aut = _iso_summary(C, name, P or dict(criterion_presentations())[name])
    return len(aut)


def assert_counts_match(K, name: str, P=None):
    nerves = corpus_nerves()
    compared = 0
    for cat_name, C in corpus_categories().items():
        assert len(tau0(K, nerves[f"B({cat_name})"])) == iso_class_count(C, name, P), cat_name
        compared += 1
    assert compared == 29


# tau0(Delta^1, BC) through the function complex refused 12 of these, whose
# Delta^1 x Delta^3 has cells above BC's dim_bound; the pointwise route
# answers all 29
@pytest.mark.parametrize("n", [0, 1])
def test_tau0_of_a_simplex_counts_the_iso_classes_of_functors(n):
    assert_counts_match(standard_simplex(n), f"P(Delta^{n})")


@pytest.mark.parametrize(
    "name, K",
    [
        ("P(Delta^2)", lambda: standard_simplex(2)),
        ("P(bdDelta^1)", lambda: build_standard("boundary", 1)[0]),
        ("P(bdDelta^2)", lambda: build_standard("boundary", 2)[0]),
    ],
)
def test_tau0_of_the_other_shapes_counts_the_iso_classes_of_functors(name, K):
    assert_counts_match(K(), name)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_tau0_of_a_horn_counts_the_iso_classes_of_functors_from_its_path_category(k):
    # the function-complex route refused 36 of these 87 pairs or ran past
    # 30 s on them; the shape is P(Lambda^2_k), a free category
    K = build_standard("horn", 2, k)[0]
    assert_counts_match(K, f"P(Lambda^2_{k})", path_category(K))
