"""`cert-verify` on adversarial certificate files, in process through
`quasicat.cli.main`.

Each example takes one `cert-build` output and applies one to three
mutations of two families:

- structural: a value anywhere in the file replaced by a scalar from a
  fixed pool, an integer moved by one, an entry deleted or duplicated;
- schema-preserving: a step's n, k or attached id, a horn face's index,
  base or word changed, two steps swapped, a step dropped or duplicated, a
  source id added or removed.

Whatever the file, `main` raises nothing and exits 0, 1 or 2; an exit 2
prints exactly one line, and it starts with `error:`.  Every verdict on a
certificate that loads, "verified" included, is the one the previous
verifier `old_verify_certificate` reaches on the same file.
"""

import copy
import io
import json
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from quasicat.cli import main
from quasicat.jsonio import certificate_from_json, loads

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


def schema_preserving(draw, obj):
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


@settings(max_examples=150)
@given(data=st.data())
def test_cert_verify_on_mutated_cert_build_outputs(builds, workdir, data):
    obj = copy.deepcopy(data.draw(st.sampled_from(builds)))
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from([structural, schema_preserving]))(data.draw, obj)
    path, out = workdir / "mutated.json", workdir / "verdict.json"
    path.write_text(json.dumps(obj))
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["cert-verify", str(path), "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        return
    got = json.loads(out.read_text())["verification"]
    # the file as the CLI reads it: a cert-build report or a bare certificate
    cert = loads(path.read_text())
    want = old_verify_certificate(certificate_from_json(cert.get("certificate", cert)))
    assert (code == 0) == got["ok"]
    assert (got["ok"], got["failed_step"], got["reason"]) == (want.ok, want.failed_step, want.reason)
