"""The CLI on adversarial input files, in process through
`quasicat.cli.main`: `cert-verify` on certificates, `certify`, `core`,
`ho`, `saturate`, `pathcat --homsets`, `homset` and `tau0` (on either
side) on complexes, and `nerve-equiv` on functors.

Each example takes one file of its kind (a `cert-build` output, a corpus
`*.sset.json` under 20 KB, or a `*.fun.json` that `functor_to_json` wrote
for a criterion-9 functor) and applies one to three mutations of two
families:

- structural: a value anywhere in the file replaced by a scalar from a
  fixed pool, an integer moved by one, an entry deleted or duplicated;
- schema-preserving, for certificates: a step's n, k or attached id, a
  horn face's index, base or word changed, two steps swapped, a step
  dropped or duplicated, a source id added or removed;
- schema-preserving, for complexes: a face rebased, made degenerate or
  given another word, two faces of a cell swapped, a top cell dropped or
  duplicated under a new id, the coskeletal flag reset;
- schema-preserving, for functors: an object or arrow image changed, or
  one composition entry of either category.

Whatever the file, `main` raises nothing and exits 0, 1, 2 or 3; an exit 2
prints exactly one line, and it starts with `error:`.  Every verdict on a
file that loads is re-derived by an oracle: a certificate's, "verified"
included, is the one the previous verifier `old_verify_certificate`
reaches; a "quasi-category" verdict is confirmed by `brute_force_is_quasi`,
as is an exit 0 of `core`, `ho` or `tau0` into the file, which certify it
first; a file that does not load is refused by every command; an
"equivalence" verdict, true or false, is `is_equivalence_of_categories`
of the loaded functor.
"""

import copy
import io
import json
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from quasicat.cat import is_equivalence_of_categories
from quasicat.cli import main
from quasicat.corpus import small_corpus_categories
from quasicat.equivalence import enumerate_functors
from quasicat.jsonio import (
    MalformedInputError,
    certificate_from_json,
    functor_from_json,
    functor_to_json,
    loads,
    sset_from_json,
)

from test_certify_oracle import brute_force_is_quasi
from test_cli_answers import CORPUS
from test_face_calculus_oracle import old_verify_certificate

BUILDS = (
    ("--prism", "2", "1", "1"),
    ("--prism", "2", "1", "2"),
    ("--prism", "3", "1", "1"),
    ("--prism", "3", "2", "1"),
    ("--facets", "4", "0", "4"),
)
POOL = (0, 1, -1, 2, 10**6, -(10**6), None, True, False, "0", "x", 0.5, [], {})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("certificates")


@pytest.fixture(scope="module")
def builds(workdir):
    out = []
    for argv in BUILDS:
        path = workdir / "built.json"
        assert main(["cert-build", *argv, "--out", str(path)]) == 0
        out.append(json.loads(path.read_text()))
    return out


def nodes(obj, path=()):
    """(path, value) of every entry below the root of a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def structural(draw, obj):
    op = draw(st.sampled_from(["scalar", "shift", "delete", "duplicate"]))
    if op == "shift":
        paths = [p for p, v in nodes(obj) if type(v) is int]
    elif op == "duplicate":
        paths = [p for p, _ in nodes(obj) if isinstance(at(obj, p[:-1]), list)]
    else:
        paths = [p for p, _ in nodes(obj)]
    if not paths:
        return
    path = draw(st.sampled_from(paths))
    parent, key = at(obj, path[:-1]), path[-1]
    if op == "scalar":
        parent[key] = draw(st.sampled_from(POOL))
    elif op == "shift":
        parent[key] += draw(st.sampled_from([-1, 1]))
    elif op == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))


def certificate_schema(draw, obj):
    """A change that keeps the certificate's schema; nothing when an
    earlier mutation broke the parts it changes."""
    c = obj.get("certificate")
    steps = c.get("steps") if isinstance(c, dict) else None
    if not (isinstance(steps, list) and steps and all(isinstance(s, dict) for s in steps)):
        return
    sources = c.get("source_ids")
    ids = st.integers(-1, 1 + max((x for x in sources if type(x) is int), default=0)) if isinstance(sources, list) else st.integers(-1, 40)
    op = draw(st.sampled_from(["n", "k", "attached", "face", "base", "word", "swap", "drop", "duplicate", "source"]))
    i = draw(st.integers(0, len(steps) - 1))
    step = steps[i]
    horn = step.get("horn")
    if op in ("n", "k"):
        step[op] = (step[op] if type(step.get(op)) is int else 0) + draw(st.sampled_from([-2, -1, 1, 2]))
    elif op == "attached":
        step[op] = draw(ids)
    elif op in ("face", "base", "word"):
        if not (isinstance(horn, list) and horn and all(isinstance(f, dict) for f in horn)):
            return
        face = horn[draw(st.integers(0, len(horn) - 1))]
        face[op] = draw(st.lists(st.integers(0, 4), max_size=3)) if op == "word" else draw(st.integers(-1, 5) if op == "face" else ids)
    elif op == "swap":
        j = draw(st.integers(0, len(steps) - 1))
        steps[i], steps[j] = steps[j], steps[i]
    elif op == "drop":
        del steps[i]
    elif op == "duplicate":
        steps.insert(i, copy.deepcopy(step))
    elif isinstance(sources, list):
        if sources and draw(st.booleans()):
            del sources[draw(st.integers(0, len(sources) - 1))]
        else:
            sources.append(draw(ids))


def sset_schema(draw, obj):
    """A change that keeps the complex's schema; nothing when an earlier
    mutation broke the parts it changes."""
    levels = obj.get("simplices")
    if not (isinstance(levels, list) and all(isinstance(level, list) for level in levels)):
        return
    cells = [(d, c) for d, level in enumerate(levels) for c in level if isinstance(c, dict)]
    ids = {d: [c["id"] for e, c in cells if e == d and type(c.get("id")) is int] for d in range(len(levels))}
    every = [i for level in ids.values() for i in level]
    faces = [(d, f) for d, c in cells if isinstance(c.get("faces"), list) for f in c["faces"] if isinstance(f, dict)]
    op = draw(st.sampled_from(["rebase", "degenerate", "word", "swap", "drop", "duplicate", "flag"]))
    if op == "flag":
        obj["coskeletal_at"] = draw(st.sampled_from([None, *range(len(levels) + 1)]))
    elif op in ("rebase", "degenerate", "word"):
        if not faces:
            return
        d, face = draw(st.sampled_from(faces))
        if op == "rebase" and every:
            face["base"] = draw(st.sampled_from(every))
        elif op == "degenerate" and d >= 2 and ids[d - 2]:
            face["base"], face["word"] = draw(st.sampled_from(ids[d - 2])), [draw(st.integers(0, d - 2))]
        elif op == "word":
            face["word"] = draw(st.lists(st.integers(0, 3), max_size=2))
    elif op == "swap":
        rows = [c["faces"] for _, c in cells if isinstance(c.get("faces"), list) and len(c["faces"]) > 1]
        if rows:
            row = draw(st.sampled_from(rows))
            i, j = draw(st.integers(0, len(row) - 1)), draw(st.integers(0, len(row) - 1))
            row[i], row[j] = row[j], row[i]
    else:
        top = next((level for level in reversed(levels) if level), None)
        if top is None:
            return
        i = draw(st.integers(0, len(top) - 1))
        if op == "drop":
            del top[i]
        else:
            twin = copy.deepcopy(top[i])
            if isinstance(twin, dict):
                twin["id"] = 1 + max(every, default=0)
            top.append(twin)


def functor_schema(draw, obj):
    """A change that keeps the functor's schema; nothing when an earlier
    mutation broke the parts it changes."""
    op = draw(st.sampled_from(["object_map", "arrow_map", "compose"]))
    if op == "compose":
        side = obj.get(draw(st.sampled_from(["source", "target"])))
        table = side.get("compose") if isinstance(side, dict) else None
        arrows = side.get("arrows") if isinstance(side, dict) else None
        if not (isinstance(table, list) and table and isinstance(arrows, list) and all(isinstance(a, dict) for a in arrows)):
            return
        rec = table[draw(st.integers(0, len(table) - 1))]
        if isinstance(rec, list) and rec and arrows:
            rec[-1] = draw(st.sampled_from([a.get("id") for a in arrows]))
        return
    images, target = obj.get(op), obj.get("target")
    names = target.get("objects" if op == "object_map" else "arrows") if isinstance(target, dict) else None
    if not (isinstance(images, dict) and images and isinstance(names, list) and names):
        return
    key = draw(st.sampled_from(sorted(images)))
    if op == "arrow_map":
        # an arrow parallel to the old image, when the target has one
        ends = {a.get("id"): (a.get("src"), a.get("tgt")) for a in names if isinstance(a, dict)}
        names = [a for a, e in ends.items() if e == ends.get(images[key])] or list(ends)
    if names:
        images[key] = draw(st.sampled_from(names))


def mutated(data, files, schema):
    """A deep copy of one of `files` after one to three mutations."""
    obj = copy.deepcopy(data.draw(st.sampled_from(files)))
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from([structural, schema]))(data.draw, obj)
    return obj


def run(argv) -> int:
    """`main`'s exit code; a refusal (exit 2) prints one `error:` line."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    return code


@settings(max_examples=150)
@given(data=st.data())
def test_cert_verify_on_mutated_cert_build_outputs(builds, workdir, data):
    obj = mutated(data, builds, certificate_schema)
    path, out = workdir / "mutated.json", workdir / "verdict.json"
    path.write_text(json.dumps(obj))
    code = run(["cert-verify", str(path), "--out", str(out)])
    if code == 2:
        return
    got = json.loads(out.read_text())["verification"]
    # the file as the CLI reads it: a cert-build report or a bare certificate
    cert = loads(path.read_text())
    want = old_verify_certificate(certificate_from_json(cert.get("certificate", cert)))
    assert (code == 0) == got["ok"]
    assert (got["ok"], got["failed_step"], got["reason"]) == (want.ok, want.failed_step, want.reason)


COMPLEXES = [json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.sset.json")) if p.stat().st_size < 20_000]


@settings(max_examples=150)
@given(data=st.data())
def test_certify_on_mutated_corpus_complexes(workdir, data):
    obj = mutated(data, COMPLEXES, sset_schema)
    path, out = workdir / "mutated.sset.json", workdir / "certify.json"
    path.write_text(json.dumps(obj))
    code = run(["certify", str(path), "--out", str(out)])
    if code == 2:
        return
    verdict = json.loads(out.read_text())["certification"]["verdict"]
    assert code == {"quasi-category": 0, "counterexample": 1, "inconclusive": 3}[verdict], verdict
    if verdict == "quasi-category":
        assert brute_force_is_quasi(sset_from_json(loads(path.read_text())))


@settings(max_examples=150)
@given(data=st.data())
def test_other_commands_on_mutated_corpus_complexes(workdir, data):
    obj = mutated(data, COMPLEXES, sset_schema)
    path, out = workdir / "mutated.sset.json", workdir / "report.json"
    path.write_text(json.dumps(obj))
    try:
        X = sset_from_json(loads(path.read_text()))
    except MalformedInputError:
        X = None
    vertices = X.vertices() if X is not None else ()
    ends = (str(vertices[0]), str(vertices[-1])) if vertices else ("0", "0")
    x, delta1, chain2 = str(path), str(CORPUS / "delta1.sset.json"), str(CORPUS / "B_chain2.sset.json")
    # core, ho and tau0 into X certify X first
    certifying = (["core", x], ["ho", x], ["tau0", delta1, x])
    others = (["saturate", x], ["pathcat", x, "--homsets"], ["homset", x, *ends, "--max-len", "3"], ["tau0", x, chain2])
    passed = []
    for argv in certifying + others:
        code = run([*argv, "--out", str(out)])
        # every command loads X first, and refuses a file that does not load
        assert X is not None or code == 2, argv
        if code == 0 and argv in certifying:
            passed.append(argv[0])
    if passed:
        assert brute_force_is_quasi(X), passed


@pytest.fixture(scope="module")
def functors():
    """The criterion-9 functors as files: the equivalences, and the rest."""
    cats = small_corpus_categories()
    every = [F for a in sorted(cats) for b in sorted(cats) for F in enumerate_functors(cats[a], cats[b])]
    kinds = ([], [])
    for F in every:
        kinds[is_equivalence_of_categories(F)].append(functor_to_json(F))
    return kinds


@settings(max_examples=150)
@given(data=st.data())
def test_nerve_equiv_on_mutated_functors(functors, workdir, data):
    obj = mutated(data, data.draw(st.sampled_from(functors)), functor_schema)
    path, out = workdir / "mutated.fun.json", workdir / "equivalence.json"
    path.write_text(json.dumps(obj))
    code = run(["nerve-equiv", str(path), "--out", str(out)])
    if code == 2:
        return
    verdict = json.loads(out.read_text())["equivalence"]["verdict"]
    assert code == (0 if verdict else 1)
    assert verdict == is_equivalence_of_categories(functor_from_json(loads(path.read_text())))
