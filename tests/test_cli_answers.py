"""Two answer checks of the CI workflow, run in process through
`quasicat.cli.main`, each writing its files under `tmp_path`.

`product` has two paths.  A face pair that is a cell of the build is one
table read; a degenerate face pair is normalized from its components' face
rows.  The benchmark-band prism Delta^4 x Delta^4 takes only the first,
since every face pair of a product of simplices is a cell.  tau0 of B(Z/2)
into B(chain2) builds products K x Delta^n of a singular K, whose degenerate
face pairs take the second.  The workflow's `answers` job runs the same
commands through the installed `quasicat` script.
"""

import json
from pathlib import Path

from quasicat.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_benchmark_band_prism_through_the_cli_and_json(tmp_path):
    # Delta^4 x Delta^4 (10271 cells) is built, written, read back and
    # replayed; cert-verify exits 0 only on a verified certificate
    cert, verdict = tmp_path / "c.json", tmp_path / "verdict.json"
    assert main(["cert-build", "--prism", "4", "2", "4", "--out", str(cert)]) == 0
    target = json.loads(cert.read_text())["certificate"]["target"]
    assert sum(map(len, target["simplices"])) == 10271
    assert main(["cert-verify", str(cert), "--out", str(verdict)]) == 0
    assert json.loads(verdict.read_text())["verdicts"]["verified"] is True


def test_tau0_of_a_singular_complex_through_the_cli_and_json(tmp_path):
    # a functor from Z/2 to a poset sends the generator to an identity, so
    # the classes are the 3 constant functors, one per object
    out = tmp_path / "tau0_z2.json"
    assert main(["tau0", str(CORPUS / "B_z2.sset.json"), str(CORPUS / "B_chain2.sset.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["counts"]["classes"] == 3 and report["tau0"] == [[0], [1], [2]]
