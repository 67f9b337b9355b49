"""The answer checks of the CI workflow's `answers` job, run in process
through `quasicat.cli.main`, each writing its files under `tmp_path`.

Each test here is one CLI step of that job, with the same commands and
assertions; the job runs them through the installed `quasicat` script, and
each of its steps names this module.  The report half of the corpus-run
step is `tests/test_cli.py::test_corpus_run_report_matches_expected`.

`product` has two paths.  A face pair that is a cell of the build is one
table read; a degenerate face pair is normalized from its components' face
rows.  The benchmark-band prism Delta^4 x Delta^4 takes only the first,
since every face pair of a product of simplices is a cell.  tau0 of B(Z/2)
into B(chain2) builds products K x Delta^n of a singular K, whose degenerate
face pairs take the second.
"""

import json
from pathlib import Path

import pytest

from quasicat.cat import (
    FiniteFunctor,
    cyclic_group_category,
    discrete_category,
    free_iso_groupoid,
    poset_category,
)
from quasicat.cli import main
from quasicat.corpus import walking_homotopy
from quasicat.jsonio import dumps, functor_to_json, sset_to_json
from quasicat.simplicial import with_coskeletal

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def answer(tmp_path, argv) -> tuple[int, dict]:
    """main's exit code and the report it writes for `argv`."""
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_benchmark_band_prism_through_the_cli_and_json(tmp_path):
    # Delta^4 x Delta^4 (10271 cells) is built, written, read back and
    # replayed; cert-verify exits 0 only on a verified certificate
    cert, verdict = tmp_path / "c.json", tmp_path / "verdict.json"
    assert main(["cert-build", "--prism", "4", "2", "4", "--out", str(cert)]) == 0
    target = json.loads(cert.read_text())["certificate"]["target"]
    assert sum(map(len, target["simplices"])) == 10271
    assert main(["cert-verify", str(cert), "--out", str(verdict)]) == 0
    assert json.loads(verdict.read_text())["verdicts"]["verified"] is True


def test_cert_verify_refuses_a_prism_certificate_cut_short_or_with_a_step_repeated(tmp_path):
    # the cert-build output for (Lambda^3_1 x Delta^2) u (Delta^3 x bd
    # Delta^2): without its last step the replay misses that step's two
    # cells, and with step 3 given twice its copy attaches a simplex
    # already present
    built = tmp_path / "prism.json"
    assert main(["cert-build", "--prism", "3", "1", "2", "--out", str(built)]) == 0
    report = json.loads(built.read_text())
    steps = report["certificate"]["steps"]
    cases = {
        "dropped": (steps[:-1], None, "replay does not reach the declared target"),
        "repeated": (steps[:4] + steps[3:], 4, "attached simplex already present"),
    }
    for name, (edited, failed_step, reason) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**report, "certificate": {**report["certificate"], "steps": edited}}))
        code, verdict = answer(tmp_path, ["cert-verify", str(path)])
        v = verdict["verification"]
        assert code == 1 and (v["ok"], v["failed_step"], v["reason"]) == (False, failed_step, reason), name


def test_tau0_of_a_singular_complex_through_the_cli_and_json(tmp_path):
    # a functor from Z/2 to a poset sends the generator to an identity, so
    # the classes are the 3 constant functors, one per object
    out = tmp_path / "tau0_z2.json"
    assert main(["tau0", str(CORPUS / "B_z2.sset.json"), str(CORPUS / "B_chain2.sset.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["counts"]["classes"] == 3 and report["tau0"] == [[0], [1], [2]]


def test_pathcat_homsets_on_two_corpus_complexes(tmp_path):
    # in Delta^3, hom(i, j) is one class of the 2^(j-i-1) paths for i < j,
    # the identity for i = j and empty for i > j; the boundary of Delta^2
    # has no relation, so hom(0, 2) is two classes of one path each
    code, report = answer(tmp_path, ["pathcat", str(CORPUS / "delta3.sset.json"), "--homsets"])
    hs = report["presentation"]["homsets"]
    want = lambda i, j: [2 ** (j - i - 1)] if i < j else [1] if i == j else []
    assert code == 0 and len(hs) == 16
    assert all([c["size"] for c in e["classes"]] == want(int(e["src"]), int(e["tgt"])) for e in hs)
    code, report = answer(tmp_path, ["pathcat", str(CORPUS / "boundary2.sset.json"), "--homsets"])
    (e,) = [e for e in report["presentation"]["homsets"] if (e["src"], e["tgt"]) == ("0", "2")]
    assert code == 0 and e["classes"] == [{"rep": ["4"], "size": 1}, {"rep": ["3", "5"], "size": 1}]


def test_corpus_run_regenerates_the_corpus(tmp_path):
    out_dir = tmp_path / "corpus"
    assert main(["corpus-run", "--out-dir", str(out_dir), "--out", str(tmp_path / "report.json")]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(p.name for p in CORPUS.iterdir())
    for path in CORPUS.iterdir():
        assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize(
    "k, x, classes",
    [
        # maps Delta^1 x Delta^n -> B(chain3): the classes are the 10 arrows of chain3
        ("delta1", "B_chain3", 10),
        # Lambda^2_1 x Delta^n -> B(chain3), top cells meeting only in
        # vertices: the classes are the 20 composable pairs of chain3
        ("horn_2_1", "B_chain3", 20),
        # pairs the function-complex route refused: the class counts are
        # those of the isomorphism classes of functors
        ("delta1", "B_z2", 1),
        ("boundary2", "B_z3", 3),
        ("horn_2_1", "B_rand09", 2),
    ],
)
def test_tau0_through_the_cli_and_json(tmp_path, k, x, classes):
    code, report = answer(tmp_path, ["tau0", str(CORPUS / f"{k}.sset.json"), str(CORPUS / f"{x}.sset.json")])
    assert code == 0 and report["counts"]["classes"] == classes == len(report["tau0"])


def test_certify_on_the_corpus_nerves_and_two_refutations(tmp_path):
    # every corpus nerve is a quasi-category (exit 0); horn_2_1 and
    # boundary3_minus_face each have an unfilled inner horn (exit 1), which
    # is reported as the counterexample
    nerves = sorted(CORPUS.glob("B_*.sset.json"))
    assert nerves
    for path in nerves:
        code, report = answer(tmp_path, ["certify", str(path)])
        assert code == 0 and report["certification"]["verdict"] == "quasi-category", path.name
    for name in ("horn_2_1", "boundary3_minus_face"):
        code, report = answer(tmp_path, ["certify", str(CORPUS / f"{name}.sset.json")])
        c = report["certification"]
        assert code == 1 and c["verdict"] == "counterexample", name
        assert 0 < c["counterexample"]["k"] < c["counterexample"]["n"], name


def test_a_directory_as_input_exits_2_with_one_line(capsys):
    # an I/O error is malformed input, not a false verdict (exit 1)
    assert main(["certify", str(CORPUS)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_lying_coskeletal_flag_is_not_believed(tmp_path, capsys):
    # walking_homotopy("r") flagged 1, and two composable edges with no
    # composite flagged 0: neither has a horn to refute below its flag, and
    # the stored cells contradict each flag, so certify is inconclusive
    # (exit 3) and names the dimension and the count, and tau0 into either
    # refuses it (exit 2)
    v = lambda i: {"word": [], "base": i}
    lying = {
        "lying_homotopy": sset_to_json(with_coskeletal(walking_homotopy("r"), 1)),
        "lying_chain": {
            "dim_bound": 1,
            "coskeletal_at": 0,
            "simplices": [[{"id": i, "faces": []} for i in range(3)], [{"id": 3, "faces": [v(1), v(0)]}, {"id": 4, "faces": [v(2), v(1)]}]],
        },
    }
    for name, obj in lying.items():
        path = tmp_path / f"{name}.sset.json"
        path.write_text(dumps(obj))
        code, report = answer(tmp_path, ["certify", str(path)])
        c = report["certification"]
        assert code == 3 and c["verdict"] == "inconclusive", name
        assert c["reason"].startswith("coskeletal_at ") and "\n" not in c["reason"], name
        capsys.readouterr()
        assert main(["tau0", str(CORPUS / "delta1.sset.json"), str(path), "--out", str(tmp_path / "lying.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, name


def test_nerve_equiv_on_functors_written_by_functor_to_json(tmp_path):
    # Z/1 -> pi(Delta^1) is an equivalence, so every shape holds (exit 0);
    # discrete2 -> chain1 is not (exit 1)
    skeleton = FiniteFunctor(cyclic_group_category(1), free_iso_groupoid(), {"*": 0}, {"g0": "id0"})
    discrete = FiniteFunctor(
        discrete_category(2), poset_category(1), {0: 0, 1: 1}, {("id", 0): (0, 0), ("id", 1): (1, 1)}
    )
    for F, verdict, want_code in ((skeleton, True, 0), (discrete, False, 1)):
        path = tmp_path / "functor.fun.json"
        path.write_text(dumps(functor_to_json(F)))
        code, report = answer(tmp_path, ["nerve-equiv", str(path)])
        e = report["equivalence"]
        assert code == want_code and e["verdict"] is verdict, e
        if verdict:
            assert len(e["shapes"]) == 5 and all(e["shapes"].values()), e
