"""The hash-consing `sset_from_json` against the record-by-record loader.

`old_sset_from_json` validates and builds every face record on its own.
The current loader builds each distinct (base, word) pair once per load,
so on every corpus file it must give the same complex, on corrupted
documents the same error, and equal records must load as one object.
"""

import copy
import json
from pathlib import Path

import pytest

from quasicat.jsonio import MalformedInputError, _expr, _field, _int, _list, sset_from_json, sset_to_json
from quasicat.simplicial import GLOBAL_DIM_BOUND, SimplicialError, SimplicialSet

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def old_sset_from_json(obj: dict) -> SimplicialSet:
    dim_bound = _int(_field(obj, "dim_bound", "complex"), "dim_bound")
    if dim_bound > GLOBAL_DIM_BOUND:
        raise MalformedInputError(f"dim_bound {dim_bound} above the limit {GLOBAL_DIM_BOUND}")
    levels = _list(_field(obj, "simplices", "complex"), "simplices")
    nondeg: list[list[int]] = [[] for _ in range(dim_bound + 1)]
    dims: dict[int, int] = {}
    for d, level in enumerate(levels):
        for entry in _list(level, f"simplices[{d}]"):
            s = _int(_field(entry, "id", f"simplices[{d}]"), f"simplices[{d}]")
            if s in dims:
                raise MalformedInputError(f"duplicate simplex id {s}")
            if d > dim_bound:
                raise MalformedInputError(f"simplex {s} of dimension {d} above dim_bound {dim_bound}")
            nondeg[d].append(s)
            dims[s] = d
    faces = {}
    for d, level in enumerate(levels):
        if d >= 1:
            for entry in level:
                s = int(entry["id"])
                where = f"face of {s}"
                faces[s] = tuple(_expr(f, dims, where) for f in _list(_field(entry, "faces", where), where))
    flag = obj.get("coskeletal_at")
    try:
        return SimplicialSet(dim_bound, nondeg, faces, None if flag is None else _int(flag, "coskeletal_at"))
    except SimplicialError as exc:
        raise MalformedInputError(str(exc)) from exc


def corpus_documents() -> dict[str, dict]:
    return {p.name: json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.sset.json"))}


def test_every_corpus_file_loads_as_before():
    docs = corpus_documents()
    assert len(docs) > 30
    for name, doc in docs.items():
        new = sset_to_json(sset_from_json(doc))
        assert new == sset_to_json(old_sset_from_json(doc)), name
        assert new == doc, name


def records(doc):
    """Every face record with its place (dimension, entry, face)."""
    for d, level in enumerate(doc["simplices"]):
        for e, entry in enumerate(level):
            for i, rec in enumerate(entry["faces"]):
                yield (d, e, i), rec


def later_copy(doc, accept):
    """The place of a record that `accept`s and equals an earlier record."""
    seen = set()
    for place, rec in records(doc):
        key = (rec["base"], tuple(rec["word"]))
        if key in seen and accept(rec):
            return place
        seen.add(key)
    raise AssertionError("no repeated record of that kind")


def corrupt(doc, place, change):
    """A copy of doc with `change(entry, i)` applied at the place's entry
    and face."""
    bad = copy.deepcopy(doc)
    d, e, i = place
    change(bad["simplices"][d][e], i)
    return bad


def on_record(change):
    """The change of an entry that changes its i-th face record in place."""
    return lambda entry, i: change(entry["faces"][i])


def set_letter(value):
    def change(rec):
        rec["word"][rec["word"].index(1)] = value
    return change


def set_base(value):
    def change(rec):
        rec["base"] = value
    return change


def first_letter_out_of_range(rec):
    rec["word"][0] = 9


def word_as_string(rec):
    rec["word"] = "".join(map(str, rec["word"]))


def record_as_list(entry, i):
    rec = entry["faces"][i]
    entry["faces"][i] = [rec["word"], rec["base"]]


def drop_faces(entry, i):
    del entry["faces"]


def faces_as_object(entry, i):
    entry["faces"] = {str(j): rec for j, rec in enumerate(entry["faces"])}


def empty_word_on(base):
    return lambda rec: not rec["word"] and rec["base"] == base


CORRUPTIONS = {
    "letter 1.0": (lambda rec: 1 in rec["word"], on_record(set_letter(1.0))),
    "letter true": (lambda rec: 1 in rec["word"], on_record(set_letter(True))),
    "letter '1'": (lambda rec: 1 in rec["word"], on_record(set_letter("1"))),
    "base 1.0": (lambda rec: rec["base"] == 1, on_record(set_base(1.0))),
    "base true": (lambda rec: rec["base"] == 1, on_record(set_base(True))),
    "letter out of range": (lambda rec: bool(rec["word"]), on_record(first_letter_out_of_range)),
    "word a string": (lambda rec: bool(rec["word"]), on_record(word_as_string)),
    "empty word, base 1.0": (empty_word_on(1), on_record(set_base(1.0))),
    "empty word, base true": (empty_word_on(1), on_record(set_base(True))),
    "record a list": (lambda rec: bool(rec["word"]), record_as_list),
    "faces missing": (lambda rec: bool(rec["word"]), drop_faces),
    "faces an object": (lambda rec: bool(rec["word"]), faces_as_object),
}


@pytest.mark.parametrize("name", ["B_z3.sset.json", "B_rand06.sset.json", "B_rand09.sset.json"])
@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_bad_copy_after_good_copies_raises_as_before(name, kind):
    doc = corpus_documents()[name]
    accept, change = CORRUPTIONS[kind]
    bad = corrupt(doc, later_copy(doc, accept), change)
    with pytest.raises(MalformedInputError) as old:
        old_sset_from_json(bad)
    with pytest.raises(MalformedInputError) as new:
        sset_from_json(bad)
    assert str(new.value) == str(old.value)


def test_equal_records_load_as_one_object():
    for name in ["B_z3.sset.json", "B_rand09.sset.json", "walking_homotopy.sset.json"]:
        X = sset_from_json(corpus_documents()[name])
        by_value: dict = {}
        for row in X.faces.values():
            for e in row:
                by_value.setdefault(e, set()).add(id(e))
        assert any(e.is_degenerate for e in by_value)
        assert all(len(ids) == 1 for ids in by_value.values()), name
