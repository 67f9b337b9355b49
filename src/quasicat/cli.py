"""Batch command-line interface.

Every subcommand reads JSON, writes a JSON report (stdout or --out), and
exits 0 on success/true verdicts, 1 on false verdicts, 2 on usage errors
and malformed input, and 3 on an inconclusive verdict (reported as null).
Reports are byte-identical across runs on identical inputs: the timing
field is always null in the report (wall time goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache
from pathlib import Path

from . import __version__
from .acceptance import run_all
from .anodyne import facet_certificate, shuffles, prism_certificate
from .corpus import materialize_corpus
from .equivalence import nerve_equivalence_criterion
from .jsonio import (
    _field,
    certificate_from_json,
    certificate_to_json,
    cat_to_json,
    dumps,
    functor_from_json,
    loads,
    presentation_to_json,
    sset_from_json,
    sset_to_json,
)
from .pathcat import NotLoopFreeError, bounded_hom_classes, hom_sets, is_loop_free, path_category
from .quasi import CertificationError, certify_quasi_category, core, ho_category, saturation_step, tau0
from .verify import verify_certificate


class UsageError(Exception):
    pass


def _report(command: str, inputs, verdicts: dict, counts: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "counts": counts,
        "timing": None,
        "version": __version__,
    }


def _load_sset(path: str):
    obj = loads(Path(path).read_text())
    # accept bare complexes and reports produced by `core` / `saturate`
    if isinstance(obj, dict) and "simplices" not in obj:
        if "core" in obj:
            obj = obj["core"]
        elif "saturation" in obj:
            obj = _field(obj["saturation"], "complex", "saturation report")
    return sset_from_json(obj)


def _emit(report: dict, out: str | None) -> None:
    text = dumps(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _exit_code(verdicts: dict) -> int:
    if any(v is False for v in verdicts.values()):
        return 1
    return 3 if any(v is None for v in verdicts.values()) else 0


# -- subcommand handlers ---------------------------------------------------------


def cmd_pathcat(args) -> tuple[dict, dict]:
    X = _load_sset(args.complex)
    P = path_category(X)
    table = None
    loop_free = is_loop_free(P)
    if args.homsets:
        if not loop_free:
            raise UsageError("--homsets needs a loop-free complex; use homset with --max-len")
        table = hom_sets(P)
    payload = presentation_to_json(P, table)
    payload["loop_free"] = loop_free
    counts = {
        "objects": len(P.objects),
        "generators": len(P.generators),
        "relations": len(P.relations),
    }
    return {"presentation": payload}, ({"computed": True}, counts)


def cmd_homset(args) -> tuple[dict, dict]:
    X = _load_sset(args.complex)
    P = path_category(X)
    objects = {str(x): x for x in P.objects}
    if args.src not in objects or args.tgt not in objects:
        raise UsageError(f"unknown vertex; have {sorted(objects)}")
    entry = bounded_hom_classes(P, objects[args.src], objects[args.tgt], args.max_len)
    payload = {
        "src": args.src,
        "tgt": args.tgt,
        "partial": entry.partial,
        "classes": [{"rep": [str(g) for g in c.rep], "size": c.size} for c in entry.classes],
    }
    # a partial answer is a bounded one, not a false one: no verdict
    return {"homset": payload}, ({}, {"classes": len(entry.classes)})


def cmd_certify(args) -> tuple[dict, dict]:
    X = _load_sset(args.complex)
    rep = certify_quasi_category(X)
    # an inconclusive verdict is neither true nor false
    quasi = None if rep.verdict == "inconclusive" else rep.is_quasi
    verdicts = {"quasi_category": quasi, "verdict": rep.verdict}
    payload = {
        "verdict": rep.verdict,
        "coskeletal_at": rep.coskeletal_at,
        "certified_up_to": rep.certified_up_to,
        "reason": rep.reason,
    }
    if rep.counterexample is not None:
        h = rep.counterexample
        payload["counterexample"] = {
            "n": h.n,
            "k": h.k,
            "faces": [
                None if e is None else {"word": list(e.word), "base": e.base} for e in h.top
            ],
        }
    return {"certification": payload}, (verdicts, {"cells": X.n_cells})


def cmd_core(args) -> tuple[dict, dict]:
    X = _load_sset(args.complex)
    J, _incl = core(X)
    payload = sset_to_json(J)
    return {"core": payload}, ({"computed": True}, {"cells": J.n_cells})


def cmd_ho(args) -> tuple[dict, dict]:
    X = _load_sset(args.complex)
    C = ho_category(X)
    return {"ho": cat_to_json(C)}, (
        {"computed": True},
        {"objects": len(C.objects), "arrows": len(C.arrows)},
    )


def cmd_tau0(args) -> tuple[dict, dict]:
    K = _load_sset(args.k_complex)
    X = _load_sset(args.complex)
    classes = tau0(K, X, limit=args.limit)
    payload = [list(members) for members in classes]
    return {"tau0": payload}, ({"computed": True}, {"classes": len(classes)})


def cmd_saturate(args) -> tuple[dict, dict]:
    X = _load_sset(args.complex)
    res = saturation_step(X, args.dim_bound if args.dim_bound is not None else max(2, X.dim_bound))
    payload = {
        "complex": sset_to_json(res.complex),
        "horns_attached": res.horns_attached,
        "cells_added": res.cells_added,
    }
    return {"saturation": payload}, (
        {"computed": True},
        {"horns": res.horns_attached, "cells_added": res.cells_added},
    )


def cmd_shuffles(args) -> tuple[dict, dict]:
    paths = shuffles(args.r, args.s)
    payload = [[list(p) for p in path.points] for path in paths]
    return {"shuffles": payload}, ({"computed": True}, {"count": len(paths)})


def cmd_cert_build(args) -> tuple[dict, dict]:
    if args.facets is not None:
        n, *faces = args.facets
        repeated = next((i for i in faces if faces.count(i) > 1), None)
        if repeated is not None:
            raise UsageError(f"--facets: face index {repeated} given twice")
        cert = facet_certificate(n, set(faces))
    else:
        n, k, m = args.prism
        cert = prism_certificate(n, k, m)
    verdicts = {}
    if args.verify:
        res = verify_certificate(cert)
        verdicts["verified"] = bool(res)
    payload = certificate_to_json(cert)
    return {"certificate": payload}, (verdicts, {"steps": len(cert.steps)})


def cmd_cert_verify(args) -> tuple[dict, dict]:
    obj = loads(Path(args.certificate).read_text())
    # accept a bare certificate and the report produced by `cert-build`
    if isinstance(obj, dict) and "certificate" in obj:
        obj = obj["certificate"]
    cert = certificate_from_json(obj)
    res = verify_certificate(cert)
    payload = {"ok": bool(res), "failed_step": res.failed_step, "reason": res.reason}
    return {"verification": payload}, ({"verified": bool(res)}, {"steps": len(cert.steps)})


def cmd_nerve_equiv(args) -> tuple[dict, dict]:
    F = functor_from_json(loads(Path(args.functor).read_text()))
    verdict, results = nerve_equivalence_criterion(F, verbose=True)
    return {"equivalence": {"verdict": verdict, "shapes": results}}, (
        {"equivalence": verdict},
        {"shapes": len(results)},
    )


def cmd_corpus_run(args) -> tuple[dict, dict]:
    written = []
    if args.out_dir:
        written = materialize_corpus(args.out_dir)
    results = run_all(mutations=args.mutations)
    for r in results:
        print(f"criterion {r.number}: {r.seconds:.3f}s", file=sys.stderr)
    payload = [
        {"criterion": r.number, "name": r.name, "ok": r.ok, "detail": r.detail, "counts": r.counts}
        for r in results
    ]
    verdicts = {f"criterion_{r.number}": r.ok for r in results}
    extra = {"acceptance": payload}
    if written:
        extra["corpus_files"] = written
    return extra, (verdicts, {"criteria": len(results), "corpus_files": len(written)})


HANDLERS = {
    "pathcat": cmd_pathcat,
    "homset": cmd_homset,
    "certify": cmd_certify,
    "core": cmd_core,
    "ho": cmd_ho,
    "tau0": cmd_tau0,
    "saturate": cmd_saturate,
    "shuffles": cmd_shuffles,
    "cert-build": cmd_cert_build,
    "cert-verify": cmd_cert_verify,
    "nerve-equiv": cmd_nerve_equiv,
    "equiv40": cmd_nerve_equiv,
    "corpus-run": cmd_corpus_run,
}


@lru_cache(maxsize=None)  # built once per process: main may run many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasicat",
        description="Exact computation with finite simplicial sets and finite categories.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        return p

    p = common(sub.add_parser("pathcat", help="path category presentation of a complex"))
    p.add_argument("complex", help="*.sset.json input")
    p.add_argument("--homsets", action="store_true", help="materialize exact hom-sets (loop-free only)")

    p = common(sub.add_parser("homset", help="bounded hom classes between two vertices"))
    p.add_argument("complex")
    p.add_argument("src")
    p.add_argument("tgt")
    p.add_argument("--max-len", type=int, default=6)

    p = common(sub.add_parser("certify", help="certify a complex as a quasi-category"))
    p.add_argument("complex")

    p = common(sub.add_parser("core", help="maximal Kan subcomplex of a certified quasi-category"))
    p.add_argument("complex")

    p = common(sub.add_parser("ho", help="homotopy category of a certified quasi-category"))
    p.add_argument("complex")

    p = common(sub.add_parser("tau0", help="strong homotopy classes tau0(K, X)"))
    p.add_argument("k_complex")
    p.add_argument("complex")
    p.add_argument("--limit", type=int, default=24)

    p = common(sub.add_parser("saturate", help="attach a simplex along every inner horn"))
    p.add_argument("complex")
    p.add_argument("--dim-bound", type=int, default=None)

    p = common(sub.add_parser("shuffles", help="maximal cells of Delta^r x Delta^s"))
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)

    p = common(sub.add_parser("cert-build", help="build an inner-anodyne certificate"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--facets", type=int, nargs="+", metavar="N S...",
                       help="dimension followed by the face indices of <S>")
    group.add_argument("--prism", type=int, nargs=3, metavar=("N", "K", "M"))
    p.add_argument("--verify", action="store_true")

    p = common(sub.add_parser("cert-verify", help="replay and check a certificate"))
    p.add_argument("certificate")

    p = common(
        sub.add_parser(
            "nerve-equiv",
            aliases=["equiv40"],
            help="nerve-equivalence criterion for a functor",
        )
    )
    p.add_argument("functor", help="*.fun.json input")

    p = common(sub.add_parser("corpus-run", help="run the acceptance battery over the bundled corpus"))
    p.add_argument("--mutations", type=int, default=100)
    p.add_argument("--out-dir", help="also materialize the corpus as JSON files here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    started = time.monotonic()
    inputs = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"command", "out"} and value is not None
    }
    try:
        payload, (verdicts, counts) = HANDLERS[args.command](args)
        report = _report(args.command, inputs, verdicts, counts)
        report.update(payload)
        _emit(report, args.out)
    except (UsageError, OSError, NotLoopFreeError, CertificationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return _exit_code(verdicts)


if __name__ == "__main__":
    sys.exit(main())
