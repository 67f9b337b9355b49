"""Path category presentations and exact hom-sets for loop-free complexes.

The presentation of P(X) is read off the 2-skeleton: vertices are objects,
non-degenerate edges generate (src = d1, tgt = d0), and each non-degenerate
2-simplex contributes the relation d1 = d0 . d2, with degenerate edges
compiled away as identities.  A `Relation` is a named tuple, and
`path_category` trusts the simplicial identities of its complex instead of
validating the presentation.  Exact hom-sets are computed only when the
edge graph is acyclic; the word problem is undecidable in general, and
loop-freeness covers the intended use.  They come from one forward walk
per source over a topological order, on class ids, without listing paths:
the cost grows with classes times generators, not with the number of
paths, which grows exponentially with depth, and the relations into an
object stop once its candidates are one class.  `hom_sets` dresses the
walk in `HomEntry`s; the product comparison reads it bare.  For complexes
with loops, `bounded_hom_classes` gives a sound partial answer flagged as
such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .cat import FiniteCategory, nerve
from .simplicial import SimplicialSet, UnionFind, product, product_cell_count


class NotLoopFreeError(ValueError):
    pass


class Relation(NamedTuple):
    """lhs = rhs between two paths src -> tgt, each a tuple of generator ids
    in path order (first arrow first).  An immutable (lhs, rhs, src, tgt)
    named tuple, like `SimplexExpr`."""

    lhs: tuple
    rhs: tuple
    src: object
    tgt: object


@dataclass(frozen=True, eq=False)
class PresentedCategory:
    objects: tuple
    generators: tuple
    gen_src: dict = field(compare=False)
    gen_tgt: dict = field(compare=False)
    relations: tuple = ()


def path_category(X: SimplicialSet) -> PresentedCategory:
    """Presentation of P(X), read off sk_2(X) only.

    A relation runs between the ends of its triangle's d1 face: the
    endpoints of that generator, or its base vertex twice when d1 is
    degenerate.  The presentation is not validated: X is validated or
    built by the library, and its simplicial identities imply that every
    generator's ends are objects and every relation's words compose
    between its ends.  An edge's faces are vertices, so its ends are
    objects; a triangle's d0 d2 = d1 d0, d1 d2 = d1 d1 and d0 d1 = d0 d0
    say that d2 then d0 composes and runs between the ends of d1.
    """
    faces = X.faces
    generators = X.nondegenerate[1] if X.dim_bound >= 1 else ()
    gen_src = {}
    gen_tgt = {}
    for e in generators:
        fs = faces[e]
        gen_src[e] = fs[1][1]  # d1 = source
        gen_tgt[e] = fs[0][1]  # d0 = target
    relations = []
    if X.dim_bound >= 2:
        new = tuple.__new__
        for s in X.nondegenerate[2]:
            (w0, b0, _), (w1, b1, _), (w2, b2, _) = faces[s]
            lhs = (() if w2 else (b2,)) + (() if w0 else (b0,))
            if w1:  # a degenerate d1 is the identity of its base vertex
                relations.append(new(Relation, (lhs, (), b1, b1)))
            else:
                relations.append(new(Relation, (lhs, (b1,), gen_src[b1], gen_tgt[b1])))
    return PresentedCategory(X.vertices(), tuple(generators), gen_src, gen_tgt, tuple(relations))


def is_loop_free(P: PresentedCategory) -> bool:
    """No directed cycle through generators (the non-degenerate edges of the
    complex P presents), no self-loop generator."""
    return len(_topological_order(P)) == len(P.objects)


def _topological_order(P: PresentedCategory) -> list:
    """Kahn's order of the objects along the generators.

    Objects on or behind a cycle (a self-loop included) never reach in-degree
    zero, so the order is shorter than `P.objects` exactly when the
    presentation has a loop.
    """
    indegree = {x: 0 for x in P.objects}
    succ = {x: [] for x in P.objects}
    for g in P.generators:
        succ[P.gen_src[g]].append(P.gen_tgt[g])
        indegree[P.gen_tgt[g]] += 1
    order = [x for x in P.objects if indegree[x] == 0]
    for x in order:  # grows while it is walked
        for y in succ[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                order.append(y)
    return order


# -- hom-set tables -----------------------------------------------------------


def _word_key(word):
    # shortest, then lexicographic; generator ids within one presentation
    # are homogeneous (ints for complex edges, strings after a JSON round
    # trip), so the raw tuple is comparable
    return (len(word), tuple(word))


@dataclass(frozen=True)
class HomClass:
    rep: tuple
    size: int  # number of paths (or, for a bounded entry, of bounded words) in the class


@dataclass
class HomEntry:
    src: object
    tgt: object
    classes: tuple[HomClass, ...]
    partial: bool
    # a bounded entry maps each word to its rep; an exact one reduces a word
    # to a class id through `_step`, the transitions of `_walk`, starting
    # from `_start`, the id of the identity of src, and `_ids` holds the ids
    # of its classes, in the order of `classes`
    _class_of: dict = field(default_factory=dict, repr=False)
    _step: dict | None = field(default=None, repr=False)
    _start: int = field(default=0, repr=False)
    _ids: range = field(default=range(0), repr=False)

    def class_of(self, word):
        """Rep of the class of `word`; KeyError unless it is a path src -> tgt."""
        word = tuple(word)
        if self._step is None:
            return self._class_of[word]
        at = self._start
        try:
            for g in word:
                at = self._step[at, g]
        except KeyError:
            raise KeyError(word) from None
        if at not in self._ids:
            raise KeyError(word)
        return self.classes[at - self._ids.start].rep

    def __len__(self):
        return len(self.classes)


def _rules(P: PresentedCategory):
    """Each relation as one rule, from its longer side to its shorter one
    (a relation with equal sides says nothing and is dropped): the longer
    sides, each with its shorter sides, and their distinct lengths."""
    rules: dict = {}
    for rel in P.relations:
        lhs, rhs = (rel.lhs, rel.rhs) if len(rel.lhs) >= len(rel.rhs) else (rel.rhs, rel.lhs)
        if lhs != rhs:
            rules.setdefault(lhs, []).append(rhs)
    return rules, sorted({len(lhs) for lhs in rules})


def _close_words(rules: dict, lengths: list, words):
    """Union-find closure of a word set under single relation substitutions.

    The rules of `_rules` are indexed by their left side, so at each
    position a word looks up one slice per distinct left-side length: the
    cost is words times length times lengths, plus the substitutions that
    fire, not words times relations times length.

    One direction is enough: two words that differ by one substitution are
    found from the one that holds the longer side.  So no rule has an empty
    left side, and no position needs its vertex, which inserting a side
    that composes to an identity would.  Every result must be in the word
    universe.  It is a path with the word's ends and no longer than the
    word, so the full path set of a DAG and the length-bounded walk set
    both qualify.
    """
    universe = set(words)
    uf = UnionFind(universe)
    for w in universe:
        for i in range(len(w)):
            for n in lengths:
                if i + n > len(w):
                    break
                for rhs in rules.get(w[i : i + n], ()):
                    uf.union(w, w[:i] + rhs + w[i + n :])
    classes = []
    class_of = {}
    for members in uf.groups().values():
        rep = min(members, key=_word_key)
        classes.append(HomClass(rep, len(members)))
        for w in members:
            class_of[w] = rep
    classes.sort(key=lambda c: _word_key(c.rep))
    return tuple(classes), class_of


@dataclass
class HomSetTable:
    entries: dict  # (x, y) -> HomEntry

    def entry(self, x, y) -> HomEntry:
        return self.entries[(x, y)]


@dataclass
class _Walk:
    homs: dict  # x -> {y: range of the ids of hom(x, y)}; empty hom-sets are absent
    step: dict  # (id of a class of hom(x, y), g: y -> z) -> id of its class in hom(x, z)
    parent: list  # id -> id of the class of its rep's prefix; -1 for an identity
    last: list  # id -> last generator of its rep; None for an identity
    size: list  # id -> number of paths in the class


def _walk(P: PresentedCategory) -> _Walk:
    """The classes of a loop-free presentation, by integer id.

    One forward pass per source x over a topological order.  A path x -> z
    is a path x -> y followed by a generator g: y -> z, so the candidates for
    the classes of hom(x, z) are the pairs (class of hom(x, y), g); two paths
    in one candidate are equal because the prefixes are.  By the time z is
    reached, every hom(x, y) with y earlier in the order is final, so the
    relations ending at z only have to union candidates, named through the
    transition map (id, g) -> id.  No fixpoint is needed.  The relations
    stop once the candidates are one class: k candidates allow k - 1
    unions.  The cost grows with classes times generators plus classes
    times relations, never with the number of paths.

    A class's rep, shortest then lexicographic, is the least rep(p) + (g,)
    over its candidates (p, g), compared as numerals whose digits are the
    generators' ranks 1..n in base n + 1; its size is the sum of the sizes
    of those p.  The ids of hom(x, z) are handed out together, in rep
    order, so each hom-set is a range and a rep's prefix has a smaller id.
    """
    order = _topological_order(P)
    if len(order) < len(P.objects):
        raise NotLoopFreeError("exact hom-sets need a loop-free complex; use bounded_hom_classes")
    into = {z: [] for z in P.objects}
    for g in P.generators:
        into[P.gen_tgt[g]].append((P.gen_src[g], g))
    relations_into = {z: [] for z in P.objects}
    for lhs, rhs, src, tgt in P.relations:
        # a side that is the empty word forces src == tgt; without loops the
        # other side is empty too, and the relation says nothing.  Each side
        # is kept as its prefix and its last generator
        if lhs and rhs:
            relations_into[tgt].append((src, lhs[:-1], lhs[-1], rhs[:-1], rhs[-1]))
    rank = {g: i for i, g in enumerate(sorted(P.generators), 1)}
    base = len(rank) + 1
    position = {x: i for i, x in enumerate(order)}
    walk = _Walk({}, {}, [], [], [])
    step, parent, last, size = walk.step, walk.parent, walk.last, walk.size
    numeral = []  # id -> numeral of its rep
    for x in P.objects:
        homs = walk.homs[x] = {x: range(len(parent), len(parent) + 1)}
        parent.append(-1)
        last.append(None)
        size.append(1)
        numeral.append(0)
        for z in order[position[x] + 1 :]:
            keys = [(c, g) for y, g in into[z] if y in homs for c in homs[y]]
            if not keys:
                continue
            left = len(keys) - 1  # unions that could still merge candidates
            if left:
                uf = UnionFind(keys)
                for src, lhs, lg, rhs, rg in relations_into[z]:
                    for c in homs.get(src, ()):
                        a = b = c
                        for g in lhs:
                            a = step[a, g]
                        for g in rhs:
                            b = step[b, g]
                        if uf.union((a, lg), (b, rg)):
                            left -= 1
                            if not left:
                                break
                    if not left:
                        break
            if left:
                groups = sorted(
                    (min((numeral[c] * base + rank[g], c, g) for c, g in group), group)
                    for group in uf.groups().values()
                )
            else:  # one class, whatever the relations not yet applied say
                groups = [(min((numeral[c] * base + rank[g], c, g) for c, g in keys), keys)]
            first = len(parent)
            for (n, c, g), group in groups:
                for key in group:
                    step[key] = len(parent)
                parent.append(c)
                last.append(g)
                size.append(sum(size[p] for p, _ in group))
                numeral.append(n)
            homs[z] = range(first, len(parent))
    return walk


def hom_sets(P: PresentedCategory) -> HomSetTable:
    """Exact hom-sets of a loop-free presentation: `_walk`, with each class
    spelled out as a `HomClass` and each pair (x, y) as a `HomEntry` that
    reduces words through the walk's transitions.  The identity class of
    hom(x, x) is ((), 1)."""
    walk = _walk(P)
    reps = []
    for p, g in zip(walk.parent, walk.last):
        reps.append(() if p < 0 else reps[p] + (g,))
    classes = list(map(HomClass, reps, walk.size))
    entries = {}
    none = range(0)
    for x, homs in walk.homs.items():
        start = homs[x].start
        for y in P.objects:
            ids = homs.get(y, none)
            entries[(x, y)] = HomEntry(x, y, tuple(classes[ids.start : ids.stop]), False, {}, walk.step, start, ids)
    return HomSetTable(entries)


def bounded_hom_classes(P: PresentedCategory, x, y, max_len: int) -> HomEntry:
    """Classes among words of length <= max_len; sound but possibly partial.

    The result is flagged partial unless the presentation is loop-free and
    the bound dominates the longest path, in which case it coincides with
    the exact table.  Callers ask for every y, so the walks from x of
    length <= max_len are listed once per (x, max_len), by their ends, and
    kept on P with its out-edges, longest path and rules, which are read
    once per P.  The words ending at y are closed by `_close_words`, at the
    cost of the rules that can fire in them, not of every relation at
    every position.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    memo = P.__dict__.get("_bounded")
    if memo is None:
        out = {v: [] for v in P.objects}
        for g in P.generators:
            out[P.gen_src[g]].append((g, P.gen_tgt[g]))
        order = _topological_order(P)
        longest = _longest_path(P, order) if len(order) == len(P.objects) else None
        memo = P.__dict__["_bounded"] = (out, longest, _rules(P), {})  # the dataclass is frozen
    out, longest, (rules, lengths), walks = memo
    ends = walks.get((x, max_len))
    if ends is None:
        ends = walks[x, max_len] = {}
        stack = [((), x)]
        while stack:
            word, at = stack.pop()
            ends.setdefault(at, []).append(word)
            if len(word) < max_len:
                stack.extend((word + (g,), z) for g, z in out[at])
    classes, class_of = _close_words(rules, lengths, ends.get(y, ()))
    partial = longest is None or max_len < longest
    return HomEntry(x, y, classes, partial, class_of)


def _longest_path(P: PresentedCategory, order) -> int:
    """Length of the longest path, by a DP backwards along a topological order."""
    out = {x: [] for x in P.objects}
    for g in P.generators:
        out[P.gen_src[g]].append(P.gen_tgt[g])
    depth = {}
    for x in reversed(order):
        depth[x] = max((1 + depth[y] for y in out[x]), default=0)
    return max(depth.values(), default=0)


# -- counit P(BC) -> C ---------------------------------------------------------


@dataclass
class CounitReport:
    ok: bool
    inconclusive: bool
    reason: str | None


def counit_check(C: FiniteCategory) -> CounitReport:
    """Verify that the evaluation functor P(BC) -> C is an isomorphism.

    Materializes the quotient of P(nerve(C, 2)), which carries every
    relation, through bounded_hom_classes with bound |arrows| + 1, and
    checks that classes biject with hom-sets of C.  A class count that
    differs is inconclusive: the bound may have missed a merge.
    """
    N = nerve(C, 2)
    P = path_category(N)
    label_of = {s: N.labels[s] for s in N.cells()}
    eps_obj = {v: label_of[v][1] for v in P.objects}
    eps_gen = {e: label_of[e][1][0] for e in P.generators}
    section = {}
    gen_of_arrow = {label_of[e][1][0]: e for e in P.generators}
    for f in C.arrows:
        section[f] = () if C.is_identity(f) else (gen_of_arrow[f],)
    bound = len(C.arrows) + 1

    def eps_word(word, at):
        return C.compose_word([eps_gen[g] for g in word], at=eps_obj[at])

    for x in P.objects:
        for y in P.objects:
            entry = bounded_hom_classes(P, x, y, bound)
            arrows = C.hom(eps_obj[x], eps_obj[y])
            images = [eps_word(c.rep, x) for c in entry.classes]
            if len(set(images)) != len(images):
                return CounitReport(False, False, f"eps not injective on hom({x},{y})")
            if len(entry.classes) != len(arrows):
                # classes can only over-count when merges were missed
                return CounitReport(False, True, f"class count {len(entry.classes)} != {len(arrows)} at ({x},{y})")
            # section followed by eps must land back in the same class
            for c in entry.classes:
                arrow = eps_word(c.rep, x)
                if entry.class_of(section[arrow]) != c.rep:
                    return CounitReport(False, False, f"section misses class {c.rep}")
    return CounitReport(True, False, None)


# -- product comparison ----------------------------------------------------------


COMPARISON_CELL_LIMIT = 400  # product_comparison refuses larger products


def product_comparison(X: SimplicialSet, Y: SimplicialSet) -> bool:
    """P(X x Y) -> P(X) x P(Y) is bijective on objects and all hom-sets."""
    PX, PY = path_category(X), path_category(Y)
    if not is_loop_free(PX) or not is_loop_free(PY):
        raise NotLoopFreeError("product comparison needs loop-free factors")
    cells = product_cell_count(X, Y, 2)
    if cells > COMPARISON_CELL_LIMIT:
        raise ValueError(f"product too large ({cells} cells)")
    return product_tables_agree(product(X, Y, dim_bound=2), hom_sets(PX), hom_sets(PY))


def product_tables_agree(prod, TX: HomSetTable, TY: HomSetTable) -> bool:
    """`product_comparison` for a built product and the exact tables of its factors.

    Callers that compare many pairs build each product and each factor's
    table once and pass them here.  The product is walked but not dressed.
    Each class costs O(1): its rep is its parent's followed by its last
    generator, so the factor class ids of its projections are its parent's,
    advanced through the factor tables' transitions along that generator's
    components.  Every source is checked over every target in object
    order, and classes in rep order, the order of their ids; one whose
    projection leaves the factor's hom-set raises KeyError.
    """
    walk = _walk(path_category(prod.complex))
    pairs = prod.pairs
    projected = [None] * len(walk.parent)  # id -> factor class ids of its projections (None off the tables)
    for a, homs in walk.homs.items():
        ea, fa = pairs[a]
        for b in walk.homs:
            eb, fb = pairs[b]
            ex, ey = TX.entries[ea.base, eb.base], TY.entries[fa.base, fb.base]
            ids = homs.get(b, ())
            if len(ids) != len(ex.classes) * len(ey.classes):
                return False
            if projected[homs[a].start] is None:  # the ids of source a, each after its parent's
                projected[homs[a].start] = ex._start, ey._start
                for i in range(homs[a].start + 1, max(r.stop for r in homs.values())):
                    (wx, gx, _), (wy, gy, _) = pairs[walk.last[i]]
                    px, py = projected[walk.parent[i]]
                    projected[i] = (px if wx else ex._step.get((px, gx)), py if wy else ey._step.get((py, gy)))
            seen = set()
            for p in map(projected.__getitem__, ids):
                if p[0] not in ex._ids or p[1] not in ey._ids:
                    raise KeyError((a, b))
                if p in seen:
                    return False
                seen.add(p)
    return True
