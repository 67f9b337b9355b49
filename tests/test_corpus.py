from pathlib import Path

from quasicat.corpus import (
    MAX_ARROWS,
    MAX_OBJECTS,
    corpus_categories,
    corpus_complexes,
    loop_free_corpus_complexes,
    materialize_corpus,
    random_categories,
    small_corpus_categories,
)
from quasicat.jsonio import cat_from_json, loads, sset_from_json
from quasicat.pathcat import is_loop_free, path_category


def test_corpus_composition():
    cats = corpus_categories()
    assert {f"chain{n}" for n in range(5)} <= set(cats)
    assert {"z2", "z3", "pi_interval", "idempotent"} <= set(cats)
    assert len(random_categories()) == 20
    assert len(small_corpus_categories()) >= 20


def test_random_categories_within_caps_and_valid():
    for C in random_categories():
        assert len(C.objects) <= MAX_OBJECTS
        assert len(C.arrows) <= MAX_ARROWS
        C.validate()


def test_random_categories_deterministic():
    # the seeded sampler must reproduce the same shapes run to run
    shapes = [(len(C.objects), len(C.arrows)) for C in random_categories()]
    assert shapes == [
        (2, 3), (3, 6), (2, 3), (1, 1), (1, 1), (2, 3), (1, 3), (1, 1), (2, 4), (2, 6),
        (3, 5), (2, 2), (1, 1), (2, 3), (3, 6), (2, 3), (1, 2), (1, 2), (2, 2), (3, 6),
    ]


def test_complex_fixtures_valid():
    for name, X in corpus_complexes().items():
        X.validate()


def test_loop_free_selection():
    for name, X in loop_free_corpus_complexes().items():
        assert is_loop_free(path_category(X)), name


def test_materialized_corpus_roundtrips(tmp_path):
    files = materialize_corpus(tmp_path)
    assert files == sorted(files)
    for name in files:
        obj = loads((tmp_path / name).read_text())
        if name.endswith(".cat.json"):
            cat_from_json(obj).validate()
        else:
            sset_from_json(obj).validate()


COMMITTED_CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_materialization_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    files = materialize_corpus(a)
    assert materialize_corpus(b) == files
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # and it regenerates the committed corpus/ byte for byte
    assert sorted(p.name for p in COMMITTED_CORPUS.iterdir()) == files
    for name in files:
        assert (a / name).read_bytes() == (COMMITTED_CORPUS / name).read_bytes(), name
