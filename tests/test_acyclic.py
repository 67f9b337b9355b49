"""The bulk builders run with the cyclic collector paused, and leave it as
they found it.

`simplicial.acyclic` pauses the collector while a builder runs.  That is
safe only because the builders make no reference cycles: reference counting
then frees everything they drop, and the pause defers no collection that
could free anything.  So with the collector off, each build, its result
dropped, leaves `gc.collect()` nothing to find.  The collector's state after
a build is the state before it, whether the build returns or raises, and a
collector that the caller paused stays paused through nested builders.
"""

import gc
from contextlib import contextmanager
from itertools import islice, product as pairs

import pytest

from quasicat import anodyne, cat, jsonio, simplicial
from quasicat.anodyne import facet_certificate, prism_certificate
from quasicat.cat import nerve
from quasicat.corpus import corpus_categories, corpus_complexes
from quasicat.jsonio import MalformedInputError, dumps, loads, sset_from_json, sset_to_json
from quasicat.simplicial import SimplicialError, acyclic, make_subcomplex, product, standard_simplex

BUILDERS = [
    (jsonio, "loads"),
    (jsonio, "sset_from_json"),
    (simplicial, "product"),
    (simplicial, "make_subcomplex"),
    (simplicial.SimplicialSet, "validate"),
    (cat, "nerve"),
    (anodyne, "prism_certificate"),
    (anodyne, "facet_certificate"),
]
PRISMS = [(n, k, m) for n in (2, 3, 4) for k in range(1, n) for m in (0, 1, 2)]
# a triangle whose faces d_0 and d_2 are swapped: the loader reads it, and
# the validation nested in the load refuses it
MALFORMED = dumps(
    {
        "dim_bound": 2,
        "simplices": [
            [{"id": v, "faces": []} for v in range(3)],
            [{"id": 3 + i, "faces": [{"word": [], "base": t}, {"word": [], "base": s}]} for i, (s, t) in enumerate([(0, 1), (1, 2), (0, 2)])],
            [{"id": 6, "faces": [{"word": [], "base": b} for b in (3, 5, 4)]}],
        ],
    }
)


@contextmanager
def collector(enabled: bool):
    """The collector on or off for the block, and as it was after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def load_fails(text: str) -> bool:
    # no name is bound to the exception: a bound one would make a cycle
    # through its traceback and this frame
    try:
        sset_from_json(loads(text))
    except MalformedInputError:
        return True
    return False


def cycles_left(build) -> int:
    """What `gc.collect()` finds after `build()` runs with the collector
    off and its result is dropped; the caches it fills are warmed first."""
    with collector(False):
        build()
        gc.collect()
        build()
        return gc.collect()


def test_the_probe_finds_a_dropped_cycle():
    def build():
        loop = []
        loop.append(loop)

    assert cycles_left(build) == 1


@pytest.mark.parametrize("owner, name", BUILDERS, ids=[name for _owner, name in BUILDERS])
def test_each_builder_is_paused(owner, name):
    assert getattr(owner, name).__wrapped__.__name__ == name


def test_corpus_products_leave_no_cycles():
    complexes = list(corpus_complexes().values())
    chosen = list(islice(pairs(complexes, complexes), 100))
    assert len(chosen) == 100
    assert cycles_left(lambda: [product(X, Y, 2) for X, Y in chosen]) == 0


def test_simplex_products_leave_no_cycles():
    simplices = [standard_simplex(a) for a in range(5)]
    assert cycles_left(lambda: [product(A, B) for A, B in pairs(simplices, simplices)]) == 0


def test_corpus_round_trips_leave_no_cycles():
    complexes = corpus_complexes()
    texts = [dumps(sset_to_json(X)) for X in complexes.values()]
    assert cycles_left(lambda: [sset_from_json(loads(t)) for t in texts]) == 0
    assert cycles_left(lambda: [X.validate() for X in complexes.values()]) == 0


def test_subcomplexes_leave_no_cycles():
    complexes = corpus_complexes().values()
    D = standard_simplex(4)
    boundary = set(D.cells()) - set(D.nondegenerate[4])
    assert cycles_left(lambda: [make_subcomplex(X, X.cells()) for X in complexes] + [make_subcomplex(D, boundary)]) == 0


def test_nerves_leave_no_cycles():
    categories = corpus_categories()
    assert cycles_left(lambda: [nerve(C, 3) for C in categories.values()]) == 0


def test_certificates_leave_no_cycles():
    assert len(PRISMS) == 18
    assert cycles_left(lambda: [prism_certificate(*p) for p in PRISMS]) == 0
    assert cycles_left(lambda: facet_certificate(6, {0, 2, 6})) == 0


def test_a_malformed_load_leaves_no_cycles():
    assert cycles_left(lambda: load_fails(MALFORMED)) == 0
    assert load_fails(MALFORMED)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_after_a_build(enabled):
    with collector(enabled):
        product(standard_simplex(2), standard_simplex(1))
        assert gc.isenabled() is enabled
        prism_certificate(3, 1, 1)  # nested: prism, product
        assert gc.isenabled() is enabled
        assert load_fails(MALFORMED)  # raised inside the nested validate
        assert gc.isenabled() is enabled


def test_collector_is_paused_inside_and_restored_after_a_raise():
    seen = []

    @acyclic
    def build(fail: bool):
        seen.append(gc.isenabled())
        if fail:
            raise SimplicialError("refused")
        return "built"

    with collector(True):
        assert build(False) == "built"
        with pytest.raises(SimplicialError, match="refused"):
            build(True)
        assert gc.isenabled()
    with collector(False):
        assert build(False) == "built"
        assert not gc.isenabled()
    assert seen == [False, False, False]
