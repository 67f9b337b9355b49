import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quasicat.cli import build_parser, main
from quasicat.jsonio import dumps, functor_to_json, sset_to_json
from quasicat.cat import cyclic_group_category, nerve, poset_category
from quasicat.corpus import walking_homotopy
from quasicat.simplicial import (
    GLOBAL_DIM_BOUND,
    SimplexExpr,
    SimplicialSet,
    build_standard,
    product,
    standard_simplex,
    with_coskeletal,
)

from helpers import identity_functor, truncate


@pytest.fixture
def delta2(tmp_path):
    p = tmp_path / "delta2.sset.json"
    p.write_text(dumps(sset_to_json(standard_simplex(2))))
    return str(p)


@pytest.fixture
def horn21(tmp_path):
    p = tmp_path / "horn21.sset.json"
    p.write_text(dumps(sset_to_json(build_standard("horn", 2, 1)[0])))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_pathcat_homsets(capsys, delta2):
    code, rep = run(capsys, ["pathcat", delta2, "--homsets"])
    assert code == 0
    entry = [e for e in rep["presentation"]["homsets"] if e["src"] == "0" and e["tgt"] == "2"]
    assert len(entry) == 1 and len(entry[0]["classes"]) == 1


def test_pathcat_builds_presentation_once(capsys, delta2, monkeypatch):
    import quasicat.cli
    import quasicat.pathcat

    calls = []
    build = quasicat.pathcat.path_category

    def counting(X):
        calls.append(X)
        return build(X)

    monkeypatch.setattr(quasicat.pathcat, "path_category", counting)
    monkeypatch.setattr(quasicat.cli, "path_category", counting)
    code, _rep = run(capsys, ["pathcat", delta2, "--homsets"])
    assert code == 0 and len(calls) == 1


def test_pathcat_deep_spine(capsys, tmp_path):
    # edges 0 -> 1 -> ... -> 1200, deeper than the interpreter's recursion limit
    v = lambda i: SimplexExpr((), i, 0)
    faces = {1201 + i: (v(i + 1), v(i)) for i in range(1200)}
    p = tmp_path / "spine.sset.json"
    p.write_text(dumps(sset_to_json(SimplicialSet(1, [list(range(1201)), sorted(faces)], faces))))
    code, rep = run(capsys, ["pathcat", str(p)])
    assert code == 0 and rep["presentation"]["loop_free"] is True


def test_homset_bounded(capsys, tmp_path):
    N = nerve(cyclic_group_category(2), 2)
    p = tmp_path / "bz2.sset.json"
    p.write_text(dumps(sset_to_json(N)))
    code, rep = run(capsys, ["homset", str(p), "0", "0", "--max-len", "3"])
    assert code == 0
    assert rep["homset"]["partial"] is True
    assert len(rep["homset"]["classes"]) == 2


def test_homset_complete_exits_0(capsys, delta2):
    code, rep = run(capsys, ["homset", delta2, "0", "2"])
    assert code == 0
    assert rep["homset"]["partial"] is False and len(rep["homset"]["classes"]) == 1
    assert rep["verdicts"] == {}


def test_certify_exit_codes(capsys, delta2, horn21):
    code, rep = run(capsys, ["certify", delta2])
    assert code == 0 and rep["certification"]["verdict"] == "quasi-category"
    code, rep = run(capsys, ["certify", horn21])
    assert code == 1 and rep["certification"]["verdict"] == "counterexample"
    assert rep["certification"]["counterexample"]["k"] == 1


def test_core_and_ho(capsys, tmp_path):
    N = nerve(poset_category(1), 3)
    p = tmp_path / "bchain1.sset.json"
    p.write_text(dumps(sset_to_json(N)))
    code, rep = run(capsys, ["core", str(p)])
    assert code == 0
    assert sum(len(level) for level in rep["core"]["simplices"]) == 2
    code, rep = run(capsys, ["ho", str(p)])
    assert code == 0
    assert len(rep["ho"]["objects"]) == 2 and len(rep["ho"]["arrows"]) == 3


def test_tau0_cli(capsys, tmp_path, delta2):
    pt = tmp_path / "pt.sset.json"
    pt.write_text(dumps(sset_to_json(standard_simplex(0))))
    N = nerve(poset_category(2), 3)
    x = tmp_path / "bchain2.sset.json"
    x.write_text(dumps(sset_to_json(N)))
    code, rep = run(capsys, ["tau0", str(pt), str(x)])
    assert code == 0 and rep["counts"]["classes"] == 3


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_tau0_maps_from_delta3_into_b_chain1(capsys):
    # Delta^3 x Delta^3 has 1007 cells, more than the recursion limit; the
    # five classes are the five monotone maps [3] -> [1]
    code, rep = run(capsys, ["tau0", str(CORPUS / "delta3.sset.json"), str(CORPUS / "B_chain1.sset.json")])
    assert code == 0
    assert rep["tau0"] == [[0], [1], [2], [3], [4]]


def test_tau0_refuses_coskeletal_flag_above_dim_bound(capsys, tmp_path):
    obj = json.loads((CORPUS / "B_chain1.sset.json").read_text())
    assert obj["dim_bound"] == 3
    obj["coskeletal_at"] = 4
    x = tmp_path / "flag4.sset.json"
    x.write_text(dumps(obj))
    assert main(["tau0", str(CORPUS / "delta1.sset.json"), str(x)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tau0 needs X's coskeletal_at 4 <= its dim_bound 3\n"


def test_tau0_refuses_x_without_a_coskeletal_flag(capsys, tmp_path):
    obj = json.loads((CORPUS / "B_chain1.sset.json").read_text())
    del obj["coskeletal_at"]
    x = tmp_path / "noflag.sset.json"
    x.write_text(dumps(obj))
    assert main(["tau0", str(CORPUS / "delta1.sset.json"), str(x)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tau0 needs a coskeletal bound on X\n"


def test_tau0_limit_bounds_k(capsys):
    argv = ["tau0", str(CORPUS / "delta2.sset.json"), str(CORPUS / "B_chain1.sset.json")]
    assert main([*argv, "--limit", "6"]) == 2
    assert capsys.readouterr().err == "error: tau0 needs |K| <= 6\n"
    code, rep = run(capsys, [*argv, "--limit", "7"])
    assert code == 0 and rep["counts"]["classes"] == 4


def test_shuffles_cli(capsys):
    code, rep = run(capsys, ["shuffles", "2", "2"])
    assert code == 0 and rep["counts"]["count"] == 6


def test_cert_build_verify_roundtrip(capsys, tmp_path):
    out = tmp_path / "cert.cert.json"
    code, _ = run(capsys, ["cert-build", "--prism", "2", "1", "1", "--verify", "--out", str(out)])
    assert code == 0
    code, rep = run(capsys, ["cert-verify", str(out)])
    assert code == 0 and rep["verification"]["ok"] is True


def test_cert_verify_refuses_a_face_given_twice(capsys, tmp_path):
    # step 0 lists face 0 twice, a wrong record first: keeping either record
    # would let an ambiguous file verify, so the loader refuses it
    out = tmp_path / "cert.cert.json"
    assert main(["cert-build", "--prism", "2", "1", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    horn = doc["certificate"]["steps"][0]["horn"]
    right = next(f for f in horn if f["face"] == 0)
    wrong = next(f for f in horn if f["face"] != 0)
    horn.insert(0, {**wrong, "face": 0})
    assert wrong["base"] != right["base"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["cert-verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: step 0: face 0 given twice\n"


def test_cert_build_facets(capsys):
    code, rep = run(capsys, ["cert-build", "--facets", "3", "0", "3", "--verify"])
    assert code == 0
    assert rep["counts"]["steps"] == 2


def test_cert_build_refuses_a_face_index_given_twice(capsys):
    # read as a set, the repeated 3 would build <{0, 3}> without a word
    assert main(["cert-build", "--facets", "3", "0", "3", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --facets: face index 3 given twice\n"


def test_equiv40_cli(capsys, tmp_path):
    F = identity_functor(cyclic_group_category(2))
    p = tmp_path / "f.fun.json"
    p.write_text(dumps(functor_to_json(F)))
    code, rep = run(capsys, ["equiv40", str(p)])
    assert code == 0 and rep["equivalence"]["verdict"] is True


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["certify", "/nonexistent/file.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["certify", "{dir}"], ["tau0", "{file}", "{dir}"], ["cert-verify", "{dir}"]],
)
def test_directory_input_exits_2_with_one_line(capsys, tmp_path, delta2, argv):
    assert main([a.format(dir=tmp_path, file=delta2) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_out_into_missing_directory_exits_2_with_one_line(capsys, tmp_path, delta2):
    assert main(["certify", delta2, "--out", str(tmp_path / "missing" / "report.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_saturate_cli(capsys, horn21):
    code, rep = run(capsys, ["saturate", horn21, "--dim-bound", "2"])
    assert code == 0
    assert rep["saturation"]["horns_attached"] == 8


@pytest.mark.parametrize("wrapper", [{"saturation": {}}, {"saturation": [3]}])
def test_malformed_report_wrapper_exits_2(capsys, tmp_path, wrapper):
    p = tmp_path / "wrapped.json"
    p.write_text(json.dumps(wrapper))
    assert main(["certify", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_saturate_refuses_dimension_above_the_global_bound(capsys, monkeypatch, tmp_path):
    import quasicat.quasi

    def no_horns(*args):
        raise AssertionError("horns enumerated before the bound was checked")

    monkeypatch.setattr(quasicat.quasi, "enumerate_horns", no_horns)
    p = tmp_path / "square.sset.json"
    p.write_text(dumps(sset_to_json(product(standard_simplex(1), standard_simplex(1)).complex)))
    assert main(["saturate", str(p), "--dim-bound", str(GLOBAL_DIM_BOUND + 1)]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_determinism(capsys, delta2, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", delta2, "--out", str(out1)]) == 0
    assert main(["certify", delta2, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_certify_inconclusive_exits_3(capsys, tmp_path):
    # no coskeletal flag: neither a certificate nor a counterexample
    p = tmp_path / "noflag.sset.json"
    p.write_text(dumps(sset_to_json(truncate(standard_simplex(2), 1))))
    code, rep = run(capsys, ["certify", str(p)])
    assert code == 3
    assert rep["verdicts"]["quasi_category"] is None
    assert rep["certification"]["verdict"] == "inconclusive"


@pytest.mark.parametrize("flag, code", [(-1, 2), (1, 1)])
def test_certify_refuses_a_negative_coskeletal_flag(capsys, tmp_path, flag, code):
    # two composable edges 0 -> 1 -> 2 and no composite: refuted at the
    # (2,1)-horn, so a negative flag must not certify it
    v = lambda i: {"word": [], "base": i}
    doc = {
        "dim_bound": 1,
        "coskeletal_at": flag,
        "simplices": [
            [{"id": i, "faces": []} for i in range(3)],
            [{"id": 3, "faces": [v(1), v(0)]}, {"id": 4, "faces": [v(2), v(1)]}],
        ],
    }
    p = tmp_path / "chain.sset.json"
    p.write_text(json.dumps(doc))
    assert main(["certify", str(p)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert not captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    else:
        assert json.loads(captured.out)["certification"]["verdict"] == "counterexample"


def lying_flags():
    # walking_homotopy("r") is refuted at a Lambda^3_1 horn with its true
    # flag 2; the chain of two edges with no composite at a (2,1)-horn with
    # flag 1.  Flagged one lower, neither has a horn to refute, and the flag
    # is what is false
    v = lambda i: SimplexExpr((), i, 0)
    chain = SimplicialSet(1, [[0, 1, 2], [3, 4]], {3: (v(1), v(0)), 4: (v(2), v(1))})
    return [
        (with_coskeletal(walking_homotopy("r"), 1), "coskeletal_at 1 is false: 3 boundaries in dimension 2 have no filler"),
        (with_coskeletal(chain, 0), "coskeletal_at 0 is false: 4 boundaries in dimension 1 have no filler"),
    ]


@pytest.mark.parametrize("case", range(2))
def test_certify_does_not_believe_a_lying_coskeletal_flag(capsys, tmp_path, case):
    X, reason = lying_flags()[case]
    p = tmp_path / "lying.sset.json"
    p.write_text(dumps(sset_to_json(X)))
    code, rep = run(capsys, ["certify", str(p)])
    assert code == 3
    assert rep["verdicts"] == {"quasi_category": None, "verdict": "inconclusive"}
    assert rep["certification"]["reason"] == reason
    # core and ho read certify's verdict
    for command in ("core", "ho"):
        assert main([command, str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case", range(2))
def test_tau0_does_not_believe_a_lying_coskeletal_flag(capsys, tmp_path, case):
    # tau0 certifies X itself, so a lying flag is refused, not answered
    X, _reason = lying_flags()[case]
    p = tmp_path / "lying.sset.json"
    p.write_text(dumps(sset_to_json(X)))
    assert main(["tau0", str(CORPUS / "delta1.sset.json"), str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: quasi_iso_edges needs a certified quasi-category (inconclusive)\n"


def test_corpus_run_report_matches_expected(capsys, tmp_path):
    # the "same behaviour" bar: the battery report is byte-identical to the
    # one the benchmark compares against
    expected = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "battery_report.json"
    out = tmp_path / "report.json"
    assert main(["corpus-run", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert out.read_bytes() == expected.read_bytes()
    # a second run in the same process reads warm caches (prism targets,
    # replay slots, factor face rows) and must still write the same bytes
    again = tmp_path / "again.json"
    assert main(["corpus-run", "--out", str(again)]) == 0
    capsys.readouterr()
    assert again.read_bytes() == expected.read_bytes()
    # per-criterion wall times go to stderr only, one line each
    timed = [line for line in err if re.fullmatch(r"criterion \d+: \d+\.\d{3}s", line)]
    assert [line.split(":")[0] for line in timed] == [f"criterion {n}" for n in range(1, 11)]


REPO = Path(__file__).resolve().parent.parent
# subcommands, a usage error (exit 2), a refutation (exit 1) and --version
FRESH_ARGVS = [
    ["shuffles", "1", "2"],
    ["certify", str(REPO / "corpus" / "horn_2_1.sset.json")],
    ["shuffles", "1"],
    ["pathcat", str(REPO / "corpus" / "delta2.sset.json"), "--homsets"],
    ["--version"],
    ["certify", str(REPO / "corpus" / "B_chain2.sset.json")],
]


def test_main_run_many_times_answers_as_a_fresh_interpreter(capsys, monkeypatch):
    # the parser is built once per process; each call must still give the
    # exit code, stdout and stderr (its timing aside) of a fresh `quasicat`
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(REPO / "src"))
    timing = re.compile(r"[0-9.]+s$", re.M)
    fresh = {}
    for argv in FRESH_ARGVS:
        done = subprocess.run([sys.executable, "-m", "quasicat.cli", *argv], capture_output=True, text=True, env=env)
        fresh[tuple(argv)] = done.returncode, done.stdout, timing.sub("", done.stderr)
    assert [fresh[tuple(argv)][0] for argv in FRESH_ARGVS] == [0, 1, 2, 0, 0, 0]
    for argv in FRESH_ARGVS * 2:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, timing.sub("", captured.err)) == fresh[tuple(argv)], argv
    assert build_parser() is build_parser()
