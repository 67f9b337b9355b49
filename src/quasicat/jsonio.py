"""JSON serialization for complexes, maps, categories, functors,
presentations, and certificates.

`*.sset.json` uses the fixed schema
    {"dim_bound": n, "coskeletal_at": n|null,
     "simplices": [per-dimension arrays of {"id", "faces": [{"word", "base"}]}]}

Loading canonicalizes: object and arrow names of categories are strings,
ids are ints.  dump(load(x)) == load-parsed input for files produced here,
which is what the round-trip invariant of the CLI checks.
"""

from __future__ import annotations

import json

from .anodyne import AnodyneCertificate, CertStep
from .cat import FiniteCategory, FiniteFunctor
from .pathcat import HomSetTable, PresentedCategory, Relation
from .simplicial import SimplexExpr, SimplicialError, SimplicialMap, SimplicialSet


class MalformedInputError(ValueError):
    """JSON input that does not follow its schema or describes no valid
    complex; the CLI reports it as a usage error."""


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInputError(f"{where}: missing {key!r}")
    return obj[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise MalformedInputError(f"{where}: expected a list, got {value!r}")
    return value


def _int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise MalformedInputError(f"{where}: expected an integer, got {value!r}") from None


def _expr(obj, dims: dict[int, int], where: str) -> SimplexExpr:
    """A {"word", "base"} record over simplices of the given dimensions."""
    base = _int(_field(obj, "base", where), where)
    if base not in dims:
        raise MalformedInputError(f"{where}: unknown base {base}")
    word = tuple(_int(i, where) for i in _list(_field(obj, "word", where), where))
    dim = dims[base] + len(word)
    try:
        expr = SimplexExpr(word, base, dim)
    except SimplicialError as exc:
        raise MalformedInputError(f"{where}: {exc}") from exc
    # the word decreases, so word[0] is the largest index; s_j yields a
    # dim-simplex only for 0 <= j < dim
    if word and (word[-1] < 0 or word[0] >= dim):
        raise MalformedInputError(f"{where}: degeneracy index out of range in word {list(word)}")
    return expr


def expr_to_json(e: SimplexExpr) -> dict:
    return {"word": list(e.word), "base": e.base}


def expr_from_json(obj: dict, X: SimplicialSet) -> SimplexExpr:
    return _expr(obj, X.dim_of, "expression")


def sset_to_json(X: SimplicialSet) -> dict:
    simplices = []
    for d, level in enumerate(X.nondegenerate):
        entries = []
        for s in level:
            faces = [expr_to_json(e) for e in X.faces[s]] if d >= 1 else []
            entries.append({"id": s, "faces": faces})
        simplices.append(entries)
    return {
        "dim_bound": X.dim_bound,
        "coskeletal_at": X.coskeletal_at,
        "simplices": simplices,
    }


def sset_from_json(obj: dict) -> SimplicialSet:
    """Load and validate a complex; raises MalformedInputError on anything
    that is not a well-formed `*.sset.json` complex."""
    dim_bound = _int(_field(obj, "dim_bound", "complex"), "dim_bound")
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


def smap_to_json(f: SimplicialMap) -> dict:
    return {
        "source": sset_to_json(f.source),
        "target": sset_to_json(f.target),
        "assignment": [
            {"id": s, "image": expr_to_json(e)} for s, e in sorted(f.assignment.items())
        ],
    }


def smap_from_json(obj: dict) -> SimplicialMap:
    source = sset_from_json(obj["source"])
    target = sset_from_json(obj["target"])
    assignment = {
        int(rec["id"]): expr_from_json(rec["image"], target) for rec in obj["assignment"]
    }
    return SimplicialMap(source, target, assignment).validate()


def cat_to_json(C: FiniteCategory) -> dict:
    name = {x: str(x) for x in C.objects}
    aname = {f: str(f) for f in C.arrows}
    return {
        "objects": [name[x] for x in C.objects],
        "arrows": [
            {"id": aname[f], "src": name[C.src[f]], "tgt": name[C.tgt[f]]} for f in C.arrows
        ],
        "identities": {name[x]: aname[C.identity[x]] for x in C.objects},
        "compose": sorted(
            [aname[g], aname[f], aname[gf]] for (g, f), gf in C.compose_table.items()
        ),
    }


def cat_from_json(obj: dict, name: str | None = None) -> FiniteCategory:
    objects = tuple(obj["objects"])
    arrows = tuple(rec["id"] for rec in obj["arrows"])
    src = {rec["id"]: rec["src"] for rec in obj["arrows"]}
    tgt = {rec["id"]: rec["tgt"] for rec in obj["arrows"]}
    identity = dict(obj["identities"])
    compose = {(g, f): gf for g, f, gf in obj["compose"]}
    return FiniteCategory(objects, arrows, src, tgt, identity, compose, name=name)


def functor_to_json(F: FiniteFunctor) -> dict:
    return {
        "source": cat_to_json(F.source),
        "target": cat_to_json(F.target),
        "object_map": {str(x): str(y) for x, y in F.object_map.items()},
        "arrow_map": {str(f): str(g) for f, g in F.arrow_map.items()},
    }


def functor_from_json(obj: dict) -> FiniteFunctor:
    source = cat_from_json(obj["source"])
    target = cat_from_json(obj["target"])
    return FiniteFunctor(
        source, target, dict(obj["object_map"]), dict(obj["arrow_map"])
    ).validate()


def presentation_to_json(P: PresentedCategory, table: HomSetTable | None = None) -> dict:
    out = {
        "objects": [str(x) for x in P.objects],
        "generators": [
            {"id": str(g), "src": str(P.gen_src[g]), "tgt": str(P.gen_tgt[g])}
            for g in P.generators
        ],
        "relations": [
            {
                "lhs": [str(g) for g in rel.lhs],
                "rhs": [str(g) for g in rel.rhs],
                "src": str(rel.src),
                "tgt": str(rel.tgt),
            }
            for rel in P.relations
        ],
    }
    if table is not None:
        out["homsets"] = [
            {
                "src": str(x),
                "tgt": str(y),
                "partial": entry.partial,
                "classes": [
                    {"rep": [str(g) for g in c.rep], "size": c.size}
                    for c in entry.classes
                ],
            }
            for (x, y), entry in sorted(table.entries.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
        ]
    return out


def presentation_from_json(obj: dict) -> PresentedCategory:
    gens = tuple(rec["id"] for rec in obj["generators"])
    return PresentedCategory(
        tuple(obj["objects"]),
        gens,
        {rec["id"]: rec["src"] for rec in obj["generators"]},
        {rec["id"]: rec["tgt"] for rec in obj["generators"]},
        tuple(
            Relation(tuple(rec["lhs"]), tuple(rec["rhs"]), rec["src"], rec["tgt"])
            for rec in obj["relations"]
        ),
    ).validate()


def certificate_to_json(cert: AnodyneCertificate) -> dict:
    return {
        "target": sset_to_json(cert.target),
        "source_ids": sorted(cert.source_ids),
        "description": cert.description,
        "steps": [
            {
                "n": st.n,
                "k": st.k,
                "attached": st.attached,
                "horn": [
                    {"face": i, **expr_to_json(st.top[i])}
                    for i in range(st.n + 1)
                    if i != st.k
                ],
            }
            for st in cert.steps
        ],
    }


def certificate_from_json(obj: dict) -> AnodyneCertificate:
    target = sset_from_json(obj["target"])
    steps = []
    for rec in obj["steps"]:
        n, k = int(rec["n"]), int(rec["k"])
        top: list = [None] * (n + 1)
        for f in rec["horn"]:
            top[int(f["face"])] = expr_from_json(f, target)
        steps.append(CertStep(n, k, tuple(top), int(rec["attached"])))
    return AnodyneCertificate(
        target,
        frozenset(int(s) for s in obj["source_ids"]),
        tuple(steps),
        obj.get("description", ""),
    )


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)
