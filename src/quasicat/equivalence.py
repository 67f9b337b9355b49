"""Functors from presented shapes and the decidable
nerve-equivalence criterion.

The criterion tests that Iso(C^P) -> Iso(D^P) is an equivalence of
groupoids for P among the path presentations of Delta^0, Delta^1, Delta^2,
bd Delta^1 and bd Delta^2; beyond that the boundary inclusions induce
isomorphisms of path categories, so nothing new is tested.  This decides
whether the induced map of nerves is a categorical weak equivalence, and
agrees with plain equivalence of categories (a tested property over the
corpus).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from typing import NamedTuple

from .cat import CategoryError, FiniteCategory, FiniteFunctor
from .pathcat import PresentedCategory, Relation, path_category
from .simplicial import build_standard, standard_simplex


class PresentedFunctor(NamedTuple):
    """A functor from a presented category: object and generator images.

    An immutable (objects, generators) pair, where `objects` lists the
    images of P.objects and `generators` those of P.generators, in order.
    It is a named tuple, so it hashes and compares in C, and equals the
    plain tuple of its two fields.
    """

    objects: tuple
    generators: tuple


def functors_from_presentation(P: PresentedCategory, C: FiniteCategory) -> list[PresentedFunctor]:
    """All functors P -> C: object assignments plus generator assignments
    with matching endpoints, satisfying the relations of P.

    A generator's candidates are C's arrows between the images of its ends;
    each relation is tested as soon as the last generator it names is
    assigned, so a failing branch is cut at once.
    """
    results = []
    obj_index = {x: i for i, x in enumerate(P.objects)}
    gen_index = {g: i for i, g in enumerate(P.generators)}
    ends = [(obj_index[P.gen_src[g]], obj_index[P.gen_tgt[g]]) for g in P.generators]
    # due[i]: the relations whose last named generator is i, as (source
    # position, lhs positions, rhs positions); a relation naming none holds
    due: list[list] = [[] for _ in P.generators]
    for rel in P.relations:
        lhs = [gen_index[g] for g in rel.lhs]
        rhs = [gen_index[g] for g in rel.rhs]
        if lhs or rhs:
            due[max(lhs + rhs)].append((obj_index[rel.src], lhs, rhs))
    compose = C.compose_table
    for obj_images in iproduct(C.objects, repeat=len(P.objects)):
        candidates = [C.hom(obj_images[a], obj_images[b]) for a, b in ends]
        gen_images: list = []

        def word_value(word, at):
            value = C.identity[obj_images[at]]
            for i in word:
                value = compose[(gen_images[i], value)]
            return value

        def rec(i):
            if i == len(candidates):
                results.append(PresentedFunctor(obj_images, tuple(gen_images)))
                return
            for f in candidates[i]:
                gen_images.append(f)
                if all(word_value(lhs, at) == word_value(rhs, at) for at, lhs, rhs in due[i]):
                    rec(i + 1)
                gen_images.pop()

        rec(0)
    return results


def _iso_summary(C: FiniteCategory, shape_name: str, P: PresentedCategory) -> tuple[dict, dict]:
    """Iso(C^P) as the criterion reads it, built once per category and
    shape and kept on C: (key, aut), where key sends each functor P -> C to
    the key of its isomorphism class, the first of its class enumerated,
    and aut sends each key to the invertible component tuples that fix it.

    An invertible natural transformation out of H has invertible
    components, and its target is the conjugate of H by them.  Every member
    of H's class is such a conjugate of H, so a class is read off its key's
    conjugates alone, and the cost is the isomorphisms out of the keys.
    """
    cache = getattr(C, "_iso_shape_cache", None)
    if cache is None:
        cache = C._iso_shape_cache = {}
    hit = cache.get(shape_name)
    if hit is not None:
        return hit
    functors = functors_from_presentation(P, C)
    functor_set = set(functors)
    inv = C.invertible_arrows()
    inv_out = {x: [f for f in inv if C.src[f] == x] for x in C.objects}
    obj_index = {x: i for i, x in enumerate(P.objects)}
    ends = [(obj_index[P.gen_src[g]], obj_index[P.gen_tgt[g]]) for g in P.generators]
    compose = C.compose_table
    key: dict = {}
    aut: dict = {}
    for H in functors:
        if H in key:
            continue
        fixing = aut[H] = []
        for comps in iproduct(*[inv_out[x] for x in H.objects]):
            G = PresentedFunctor(
                tuple(C.tgt[a] for a in comps),
                tuple(compose[(compose[(comps[t], f)], inv[comps[s]])] for f, (s, t) in zip(H.generators, ends)),
            )
            if G not in functor_set:
                raise CategoryError("conjugate functor escaped the enumeration")
            key[G] = H
            if G == H:
                fixing.append(comps)
    hit = cache[shape_name] = key, aut
    return hit


def _induces_equivalence(F: FiniteFunctor, source: tuple[dict, dict], target: tuple[dict, dict]) -> bool:
    """Iso(C^P) -> Iso(D^P), postcomposition with F, is an equivalence of
    groupoids: it maps each class into one class, bijectively, and the
    automorphisms of each class key H injectively onto those of FH, whose
    group has as many elements as that of FH's key."""
    (key_C, aut_C), (key_D, aut_D) = source, target
    obj, arr = F.object_map, F.arrow_map
    class_map: dict = {}
    for H, k in key_C.items():
        image = key_D[PresentedFunctor(tuple(obj[x] for x in H.objects), tuple(arr[f] for f in H.generators))]
        if class_map.setdefault(k, image) != image:
            return False
    if not len(class_map) == len(set(class_map.values())) == len(aut_D):
        return False
    for k, fixing in aut_C.items():
        images = {tuple(arr[c] for c in comps) for comps in fixing}
        if not len(fixing) == len(images) == len(aut_D[class_map[k]]):
            return False
    return True


@lru_cache(maxsize=None)
def criterion_presentations() -> tuple[tuple[str, PresentedCategory], ...]:
    """The five shapes the criterion ranges over; for dimensions >= 3 the
    boundary inclusion already induces an isomorphism of path categories."""
    shapes = []
    for n in range(3):
        shapes.append((f"P(Delta^{n})", path_category(standard_simplex(n))))
    for n in (1, 2):
        B, _ = build_standard("boundary", n)
        shapes.append((f"P(bdDelta^{n})", path_category(B)))
    return tuple(shapes)


def enumerate_functors(C: FiniteCategory, D: FiniteCategory) -> list[FiniteFunctor]:
    """Every functor C -> D: the functors from C's composition presentation,
    whose generators are the non-identity arrows, with one relation per
    composable pair of them.  Arrow maps list the identities first."""
    nonid = C.nonidentity_arrows()
    relations = []
    for f in nonid:
        for g in nonid:
            gf = C.compose_table.get((g, f))
            if gf is not None:
                rhs = () if C.is_identity(gf) else (gf,)
                relations.append(Relation((f, g), rhs, C.src[f], C.tgt[g]))
    P = PresentedCategory(C.objects, nonid, C.src, C.tgt, tuple(relations))
    results = []
    for H in functors_from_presentation(P, D):
        arrow_map = {C.identity[x]: D.identity[y] for x, y in zip(C.objects, H.objects)}
        arrow_map.update(zip(nonid, H.generators))
        results.append(FiniteFunctor(C, D, dict(zip(C.objects, H.objects)), arrow_map))
    return results


def nerve_equivalence_criterion(F: FiniteFunctor, verbose: bool = False):
    """True iff Iso(C^P) -> Iso(D^P) is an equivalence of groupoids for all
    five criterion shapes; decides whether the nerve map is a categorical
    weak equivalence."""
    results = {}
    verdict = True
    for name, P in criterion_presentations():
        ok = _induces_equivalence(F, _iso_summary(F.source, name, P), _iso_summary(F.target, name, P))
        results[name] = ok
        if not ok:
            verdict = False
            if not verbose:
                break
    return (verdict, results) if verbose else verdict
