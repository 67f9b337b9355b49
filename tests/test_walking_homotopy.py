"""The walking homotopy: the smallest corpus quasi-category with a
non-singleton homotopy class of edges."""

import pytest

from quasicat.cat import poset_category
from quasicat.corpus import walking_homotopy
from quasicat.pathcat import bounded_hom_classes, path_category
from quasicat.quasi import (
    certify_quasi_category,
    has_right_homotopy,
    ho_category_data,
    quasi_iso_edges,
)

from helpers import category_iso, has_left_homotopy


def test_full_witness_set_certifies():
    X = walking_homotopy()
    X.validate()
    assert certify_quasi_category(X).is_quasi


@pytest.mark.parametrize("witnesses", ["r", "rr"])
def test_partial_witness_sets_refuted(witnesses):
    # a single homotopy triangle forces the other three: certification
    # locates an inner 3-horn whose shell cannot be completed
    rep = certify_quasi_category(walking_homotopy(witnesses))
    assert rep.verdict == "counterexample"
    assert rep.counterexample.n == 3 and rep.counterexample.is_inner


def test_parallel_edges_merge_in_ho():
    X = walking_homotopy()
    ho = ho_category_data(X)
    f, g = (X.expr(s) for s in X.nondegenerate[1])
    assert ho.edge_class[f] == ho.edge_class[g]
    assert len(ho.category.arrows) == 3  # two identities and one merged class
    assert category_iso(ho.category, poset_category(1)) is not None


def test_merged_class_has_all_four_witnesses():
    X = walking_homotopy()
    f, g = (X.expr(s) for s in X.nondegenerate[1])
    for a, b in [(f, g), (g, f)]:
        assert has_right_homotopy(X, a, b)
        assert has_left_homotopy(X, a, b)


def test_path_quotient_also_merges():
    X = walking_homotopy()
    P = path_category(X)
    entry = bounded_hom_classes(P, 0, 1, 3)
    assert len(entry.classes) == 1


def test_edges_are_not_quasi_isos():
    X = walking_homotopy()
    wits = quasi_iso_edges(X)
    assert all(e.is_degenerate for e in wits)
