"""JSON serialization for complexes, categories, functors and
certificates, and the output-only form of path category presentations.

`*.sset.json` uses the fixed schema
    {"dim_bound": n, "coskeletal_at": n|null,
     "simplices": [per-dimension arrays of {"id", "faces": [{"word", "base"}]}]}

Names of objects, arrows and generators are strings, ids are ints.  Every
loader checks its input against the schema and raises MalformedInputError
on a missing field, a wrong type, an unknown name or id, or a value that
fails its own validation.  For the formats that load (complexes,
categories, functors, certificates), dump(load(x)) == x on files produced
here.  A presentation (`*.pcat.json`) is written by `pathcat` and never
read back.

`sset_from_json` requires a vertex's "faces" to be [], and handles each
face record of a higher simplex inline: one of exact ints is
validated and built once per distinct (base, word) per load and shares the
SimplexExpr (hash-consing), any other goes through the full check; a
negative `coskeletal_at` is refused.
"""

from __future__ import annotations

import json

from .anodyne import AnodyneCertificate, CertStep
from .cat import CategoryError, FiniteCategory, FiniteFunctor
from .pathcat import HomSetTable, PresentedCategory
from .simplicial import GLOBAL_DIM_BOUND, SimplexExpr, SimplicialError, SimplicialSet, acyclic


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
    # int() would truncate 0.5 and parse "1", and True is an int
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{where}: expected an integer, got {value!r}")
    return value


def _name(value, where: str, among=None) -> str:
    """An object, arrow or generator name: a string, one of `among` if given."""
    if not isinstance(value, str):
        raise MalformedInputError(f"{where}: expected a name, got {value!r}")
    if among is not None and value not in among:
        raise MalformedInputError(f"{where}: unknown name {value!r}")
    return value


def _name_map(obj, keys, images, where: str) -> dict:
    """A JSON object sending each of `keys` to one of `images`."""
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{where}: expected an object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise MalformedInputError(f"{where}: missing entry for {key!r}")
    return {key: _name(obj[key], f"{where}[{key!r}]", images) for key in keys}


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


def sset_to_json(X: SimplicialSet) -> dict:
    faces, (vertices, *levels) = X.faces, X.nondegenerate
    simplices = [[{"id": s, "faces": []} for s in vertices]]
    for level in levels:  # a face row is a tuple of (word, base, dim) triples
        simplices.append([{"id": s, "faces": [{"word": list(w), "base": b} for w, b, _ in faces[s]]} for s in level])
    return {
        "dim_bound": X.dim_bound,
        "coskeletal_at": X.coskeletal_at,
        "simplices": simplices,
    }


@acyclic
def sset_from_json(obj: dict) -> SimplicialSet:
    """Load and validate a complex; raises MalformedInputError on anything
    that is not a well-formed `*.sset.json` complex."""
    dim_bound = _int(_field(obj, "dim_bound", "complex"), "dim_bound")
    # checked before the levels are allocated: the bound sizes them
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
            if d == 0 and _field(entry, "faces", f"vertex {s}") != []:
                raise MalformedInputError(f"vertex {s}: faces must be [], got {entry['faces']!r}")
            nondeg[d].append(s)
            dims[s] = d
    faces = {}
    # one SimplexExpr per distinct (base, word) of exact ints; 1.0, True and "1" are not 1
    shared: dict[tuple, SimplexExpr] = {}
    for level in levels[1:]:
        for entry in level:
            s = entry["id"]
            records = entry.get("faces")
            if type(records) is not list:
                records = _list(_field(entry, "faces", f"face of {s}"), f"face of {s}")
            row = []
            for f in records:
                base, word = (f.get("base"), f.get("word")) if type(f) is dict else (None, None)
                if type(base) is int and type(word) is list and (not word or set(map(type, word)) <= {int}):
                    key = base, tuple(word)
                    e = shared.get(key)
                    if e is None:
                        e = shared[key] = _expr(f, dims, f"face of {s}")
                else:
                    e = _expr(f, dims, f"face of {s}")
                row.append(e)
            faces[s] = tuple(row)
    flag = obj.get("coskeletal_at")
    if flag is not None and _int(flag, "coskeletal_at") < 0:
        raise MalformedInputError(f"coskeletal_at {flag} is negative")
    try:
        return SimplicialSet(dim_bound, nondeg, faces, flag)
    except SimplicialError as exc:
        raise MalformedInputError(str(exc)) from exc


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


def cat_from_json(obj: dict) -> FiniteCategory:
    objects = tuple(_name(x, "objects") for x in _list(_field(obj, "objects", "category"), "objects"))
    arrows, src, tgt = [], {}, {}
    for rec in _list(_field(obj, "arrows", "category"), "arrows"):
        f = _name(_field(rec, "id", "arrows"), "arrows")
        arrows.append(f)
        src[f] = _name(_field(rec, "src", f"arrow {f}"), f"arrow {f}", objects)
        tgt[f] = _name(_field(rec, "tgt", f"arrow {f}"), f"arrow {f}", objects)
    identity = _name_map(_field(obj, "identities", "category"), objects, src, "identities")
    compose = {}
    for rec in _list(_field(obj, "compose", "category"), "compose"):
        if len(_list(rec, "compose")) != 3:
            raise MalformedInputError(f"compose: expected [g, f, g.f], got {rec!r}")
        g, f, gf = (_name(a, "compose", src) for a in rec)
        compose[g, f] = gf
    try:
        return FiniteCategory(objects, arrows, src, tgt, identity, compose)
    except CategoryError as exc:
        raise MalformedInputError(str(exc)) from exc


def functor_to_json(F: FiniteFunctor) -> dict:
    return {
        "source": cat_to_json(F.source),
        "target": cat_to_json(F.target),
        "object_map": {str(x): str(y) for x, y in F.object_map.items()},
        "arrow_map": {str(f): str(g) for f, g in F.arrow_map.items()},
    }


def functor_from_json(obj: dict) -> FiniteFunctor:
    source = cat_from_json(_field(obj, "source", "functor"))
    target = cat_from_json(_field(obj, "target", "functor"))
    object_map = _name_map(_field(obj, "object_map", "functor"), source.objects, target.objects, "object_map")
    arrow_map = _name_map(_field(obj, "arrow_map", "functor"), source.arrows, target.src, "arrow_map")
    try:
        return FiniteFunctor(source, target, object_map, arrow_map).validate()
    except CategoryError as exc:
        raise MalformedInputError(str(exc)) from exc


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
    """Load a certificate's schema; whether its steps are sound is for
    `verify_certificate` to decide."""
    target = sset_from_json(_field(obj, "target", "certificate"))
    source_ids = _list(_field(obj, "source_ids", "certificate"), "source_ids")
    steps = []
    for no, rec in enumerate(_list(_field(obj, "steps", "certificate"), "steps")):
        where = f"step {no}"
        n, k, attached = (_int(_field(rec, key, where), where) for key in ("n", "k", "attached"))
        # an n-simplex is attached, so n is at most the target's dim_bound
        if not 0 <= n <= target.dim_bound:
            raise MalformedInputError(f"{where}: dimension {n} outside 0..{target.dim_bound}")
        top: list = [None] * (n + 1)
        for f in _list(_field(rec, "horn", where), where):
            i = _int(_field(f, "face", where), where)
            if not 0 <= i <= n:
                raise MalformedInputError(f"{where}: face index {i} outside 0..{n}")
            if top[i] is not None:
                raise MalformedInputError(f"{where}: face {i} given twice")
            top[i] = _expr(f, target.dim_of, where)
        steps.append(CertStep(n, k, top, attached))
    return AnodyneCertificate(
        target,
        frozenset(_int(s, "source_ids") for s in source_ids),
        tuple(steps),
        obj.get("description", ""),
    )


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@acyclic
def loads(text: str) -> dict:
    return json.loads(text)
