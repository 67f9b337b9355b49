"""Finite categories, groupoids, functors, and nerves.

Categories are given by explicit composition tables and validated
exhaustively (associativity, units, closure).  Equality of categories is
object identity; corpus constructors reuse instances so caches keyed on
category objects behave predictably.

The nerve is built one arrow at a time.  The d-strings t + (f,) are
named in the order of their prefixes t, and each face row is read off
t's: faces 0..d-2 of t each followed by f, t's last face (t without its
last arrow) followed by f after that arrow, then t itself.  A
k-expression followed by an identity gains s_k, its new last position,
as its outermost degeneracy; followed by any other arrow g, its word
stays and its base b moves to the string b + (g,).  No string is sliced
or hashed, and no face word is re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .simplicial import SimplexExpr, SimplicialSet, UnionFind, acyclic


class CategoryError(ValueError):
    pass


class FiniteCategory:
    """Objects, arrows with src/tgt, identities, and a composition table.

    compose[(g, f)] = g after f, defined exactly when tgt(f) == src(g).
    """

    def __init__(self, objects, arrows, src, tgt, identity, compose, name=None, check=True):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.identity = dict(identity)
        self.compose_table = dict(compose)
        self.name = name
        if check:
            self.validate()

    def __repr__(self):
        tag = self.name or f"{len(self.objects)} objects, {len(self.arrows)} arrows"
        return f"FiniteCategory({tag})"

    def is_identity(self, f) -> bool:
        return self.identity.get(self.src[f]) == f

    def hom(self, x, y):
        idx = getattr(self, "_hom_cache", None)
        if idx is None:
            idx = {}
            for f in self.arrows:
                idx.setdefault((self.src[f], self.tgt[f]), []).append(f)
            self._hom_cache = idx
        return tuple(idx.get((x, y), ()))

    def nonidentity_arrows(self):
        return tuple(f for f in self.arrows if not self.is_identity(f))

    def compose_word(self, word, at=None):
        """Composite of a path word (first arrow first); empty word needs `at`."""
        if not word:
            return self.identity[at]
        acc = word[0]
        for f in word[1:]:
            acc = self.compose_table[(f, acc)]
        return acc

    def invertible_arrows(self):
        cached = getattr(self, "_inv_cache", None)
        if cached is not None:
            return cached
        inv = getattr(self, "inverse", None)
        if inv is None:
            inv = {}
            for f in self.arrows:
                for g in self.hom(self.tgt[f], self.src[f]):
                    if (
                        self.compose_table[(g, f)] == self.identity[self.src[f]]
                        and self.compose_table[(f, g)] == self.identity[self.tgt[f]]
                    ):
                        inv[f] = g
                        break
        else:
            inv = dict(inv)
        self._inv_cache = inv
        return inv

    def validate(self):
        """Exhaustive check of endpoints, identities, the composition table,
        the unit laws and associativity, raising the first failure in the
        order (g, f), then (h, g, f), of the arrows.

        The table is checked on the composable pairs, in that order, and by
        a count: the keys naming two arrows must be exactly as many, so no
        other pair of arrows has a composite.  Keys naming non-arrows are
        ignored.  Only a failing table is scanned over every pair of arrows,
        to name the first failure.  Associativity runs over the arrows into
        each source, which visits the composable triples in order."""
        arrows = set(self.arrows)
        if len(arrows) != len(self.arrows):
            raise CategoryError("duplicate arrow ids")
        src, tgt, table = self.src, self.tgt, self.compose_table
        for f in self.arrows:
            if src[f] not in self.objects or tgt[f] not in self.objects:
                raise CategoryError(f"arrow {f} has unknown endpoints")
        for x in self.objects:
            i = self.identity.get(x)
            if i not in arrows or src[i] != x or tgt[i] != x:
                raise CategoryError(f"bad identity at {x}")
        into = {x: [] for x in self.objects}
        for f in self.arrows:
            into[tgt[f]].append(f)
        composable = [(g, f) for g in self.arrows for f in into[src[g]]]
        keys = sum(isinstance(k, tuple) and len(k) == 2 and k[0] in arrows and k[1] in arrows for k in table)
        missing = object()
        if keys != len(composable) or not all(
            table.get(gf, missing) in arrows and src[table[gf]] == src[gf[1]] and tgt[table[gf]] == tgt[gf[0]]
            for gf in composable
        ):
            for g in self.arrows:  # scanned only to name the first failure
                for f in self.arrows:
                    defined = (g, f) in table
                    if defined != (tgt[f] == src[g]):
                        raise CategoryError(f"composition table wrong on ({g}, {f})")
                    gf = table.get((g, f))
                    if defined and (gf not in arrows or src[gf] != src[f] or tgt[gf] != tgt[g]):
                        raise CategoryError(f"composite ({g}, {f}) ill-typed")
        for f in self.arrows:
            if table[(f, self.identity[src[f]])] != f:
                raise CategoryError(f"right unit law fails at {f}")
            if table[(self.identity[tgt[f]], f)] != f:
                raise CategoryError(f"left unit law fails at {f}")
        for h, g in composable:
            hg = table[(h, g)]
            for f in into[src[g]]:
                if table[(hg, f)] != table[(h, table[(g, f)])]:
                    raise CategoryError(f"associativity fails at ({h}, {g}, {f})")
        return self


class Groupoid(FiniteCategory):
    """Finite category with a two-sided inverse for every arrow."""

    def __init__(self, objects, arrows, src, tgt, identity, compose, inverse=None, name=None, check=True):
        super().__init__(objects, arrows, src, tgt, identity, compose, name=name, check=check)
        if inverse is None:
            inverse = self.invertible_arrows()
        self.inverse = dict(inverse)
        if check:
            for f in self.arrows:
                g = self.inverse.get(f)
                if g is None:
                    raise CategoryError(f"arrow {f} has no inverse")
                if (
                    self.compose_table[(g, f)] != self.identity[self.src[f]]
                    or self.compose_table[(f, g)] != self.identity[self.tgt[f]]
                ):
                    raise CategoryError(f"inverse table wrong at {f}")


@dataclass(frozen=True, eq=False)
class FiniteFunctor:
    source: FiniteCategory
    target: FiniteCategory
    object_map: dict = field(default_factory=dict)
    arrow_map: dict = field(default_factory=dict)

    def validate(self):
        for x in self.source.objects:
            if self.object_map[x] not in self.target.objects:
                raise CategoryError(f"object map misses {x}")
        for f in self.source.arrows:
            ff = self.arrow_map[f]
            if self.target.src[ff] != self.object_map[self.source.src[f]]:
                raise CategoryError(f"functor breaks src at {f}")
            if self.target.tgt[ff] != self.object_map[self.source.tgt[f]]:
                raise CategoryError(f"functor breaks tgt at {f}")
        for x in self.source.objects:
            if self.arrow_map[self.source.identity[x]] != self.target.identity[self.object_map[x]]:
                raise CategoryError(f"functor breaks identity at {x}")
        for (g, f), gf in self.source.compose_table.items():
            if self.target.compose_table[(self.arrow_map[g], self.arrow_map[f])] != self.arrow_map[gf]:
                raise CategoryError(f"functor breaks composition at ({g}, {f})")
        return self


# -- nerve -------------------------------------------------------------------


@acyclic
def nerve(C: FiniteCategory, dim_bound: int) -> SimplicialSet:
    """Nerve of C through dimension `dim_bound`, flagged 2-coskeletal.

    Non-degenerate n-cells are composable strings of non-identity arrows,
    level d >= 2 extended from level d-1 by the extension rule of the
    module docstring; `then[g][b]` is the id of the string b + (g,), and
    of (g,) for a vertex b, filled as the strings are named.  Faces are
    built unchecked: the rule keeps every word normal.
    """
    new, vertex = tuple.__new__, {x: i for i, x in enumerate(C.objects)}
    arrows = C.nonidentity_arrows()
    identities = set(C.arrows) - set(arrows)
    leaving = {x: [] for x in C.objects}  # object -> the non-identity arrows out of it, in order
    for f in arrows:
        leaving[C.src[f]].append(f)
    nondeg = [list(vertex.values())]
    labels = {i: ("object", x) for x, i in vertex.items()}
    faces, then = {}, {f: {} for f in arrows}
    for d in range(1, dim_bound + 1):
        level = []
        if d == 1:
            for f in arrows:
                s = then[f][vertex[C.src[f]]] = len(labels)
                faces[s] = (new(SimplexExpr, ((), vertex[C.tgt[f]], 0)), new(SimplexExpr, ((), vertex[C.src[f]], 0)))
                labels[s] = ("string", (f,))
                level.append(s)
        else:
            for s in nondeg[-1]:
                t = labels[s][1]
                *head, (_, base, _) = faces[s]  # t minus its last arrow: a string or a vertex
                last, top = t[-1], new(SimplexExpr, ((), s, d - 1))
                for f in leaving[C.tgt[last]]:
                    g, after = C.compose_table[f, last], then[f]
                    n = after[s] = len(labels)
                    faces[n] = (
                        *[new(SimplexExpr, (w, after[b], d - 1)) for w, b, _ in head],
                        new(SimplexExpr, ((d - 2,), base, d - 1) if g in identities else ((), then[g][base], d - 1)),
                        top,
                    )
                    labels[n] = ("string", t + (f,))
                    level.append(n)
        nondeg.append(level)
    return SimplicialSet(dim_bound, nondeg, faces, 2, labels, check=False)


# -- groupoid of isomorphisms -------------------------------------------------


def iso_subgroupoid(C: FiniteCategory) -> Groupoid:
    """Groupoid of invertible arrows of C, on the same objects."""
    inv = C.invertible_arrows()
    arrows = tuple(f for f in C.arrows if f in inv)
    compose = {
        (g, f): gf
        for (g, f), gf in C.compose_table.items()
        if g in inv and f in inv
    }
    return Groupoid(
        C.objects,
        arrows,
        {f: C.src[f] for f in arrows},
        {f: C.tgt[f] for f in arrows},
        C.identity,
        compose,
        inverse={f: inv[f] for f in arrows},
        name=f"Iso({C.name})" if C.name else None,
        check=False,
    )


# -- equivalence checks --------------------------------------------------------


def _iso_classes(C: FiniteCategory):
    """Partition of objects by isomorphism, computed once per category:
    (classes, rep_of), each class keyed by its first member, the members
    sorted by str, and rep_of sending each object to its class's key."""
    cached = getattr(C, "_iso_class_cache", None)
    if cached is not None:
        return cached
    uf = UnionFind(C.objects)
    for f in C.invertible_arrows():
        uf.union(C.src[f], C.tgt[f])
    classes = {}
    rep_of = {}
    for v in uf.groups().values():
        members = sorted(v, key=str)
        classes[members[0]] = members
        rep_of.update(dict.fromkeys(members, members[0]))
    C._iso_class_cache = classes, rep_of
    return classes, rep_of


def is_equivalence_of_categories(F: FiniteFunctor) -> bool:
    """Fully faithful and essentially surjective, checked exhaustively."""
    C, D = F.source, F.target
    for x in C.objects:
        for y in C.objects:
            images = [F.arrow_map[f] for f in C.hom(x, y)]
            if len(set(images)) != len(images):
                return False
            if set(images) != set(D.hom(F.object_map[x], F.object_map[y])):
                return False
    cls_D, rep_of_D = _iso_classes(D)
    hit_classes = {rep_of_D[F.object_map[x]] for x in C.objects}
    return hit_classes == set(cls_D)


# -- small constructors --------------------------------------------------------


def poset_category(n: int) -> FiniteCategory:
    """The chain 0 <= 1 <= ... <= n as a category."""
    le = {(i, j) for i in range(n + 1) for j in range(i, n + 1)}
    return preorder_category(range(n + 1), le, name=f"chain{n}")


def preorder_category(objects, le, name=None) -> FiniteCategory:
    """Thin category of a reflexive-transitive relation `le` (set of pairs)."""
    arrows = tuple(sorted(le))
    compose = {}
    for g in arrows:
        for f in arrows:
            if f[1] == g[0]:
                compose[(g, f)] = (f[0], g[1])
    return FiniteCategory(
        tuple(objects),
        arrows,
        {a: a[0] for a in arrows},
        {a: a[1] for a in arrows},
        {x: (x, x) for x in objects},
        compose,
        name=name,
    )


def cyclic_group_category(n: int) -> Groupoid:
    """Z/n as a one-object groupoid."""
    objects = ("*",)
    arrows = tuple(f"g{i}" for i in range(n))
    compose = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    return Groupoid(
        objects,
        arrows,
        {a: "*" for a in arrows},
        {a: "*" for a in arrows},
        {"*": "g0"},
        compose,
        inverse={f"g{i}": f"g{(n - i) % n}" for i in range(n)},
        name=f"Z/{n}",
    )


def free_iso_groupoid() -> Groupoid:
    """The groupoid freely generated by one isomorphism 0 -> 1."""
    objects = (0, 1)
    arrows = ("id0", "id1", "eta", "etainv")
    src = {"id0": 0, "id1": 1, "eta": 0, "etainv": 1}
    tgt = {"id0": 0, "id1": 1, "eta": 1, "etainv": 0}
    compose = {}
    for g in arrows:
        for f in arrows:
            if src[g] != tgt[f]:
                continue
            if f in ("id0", "id1"):
                compose[(g, f)] = g
            elif g in ("id0", "id1"):
                compose[(g, f)] = f
            elif g == "eta" and f == "etainv":
                compose[(g, f)] = "id1"
            elif g == "etainv" and f == "eta":
                compose[(g, f)] = "id0"
    return Groupoid(
        objects,
        arrows,
        src,
        tgt,
        {0: "id0", 1: "id1"},
        compose,
        inverse={"id0": "id0", "id1": "id1", "eta": "etainv", "etainv": "eta"},
        name="pi(Delta1)",
    )


def idempotent_monoid_category() -> FiniteCategory:
    """One object with a single non-trivial idempotent e, e.e = e."""
    objects = ("*",)
    arrows = ("1", "e")
    compose = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return FiniteCategory(
        objects,
        arrows,
        {a: "*" for a in arrows},
        {a: "*" for a in arrows},
        {"*": "1"},
        compose,
        name="idempotent",
    )


def discrete_category(k: int) -> FiniteCategory:
    objects = tuple(range(k))
    arrows = tuple(("id", x) for x in objects)
    return FiniteCategory(
        objects,
        arrows,
        {a: a[1] for a in arrows},
        {a: a[1] for a in arrows},
        {x: ("id", x) for x in objects},
        {(a, a): a for a in arrows},
        name=f"discrete{k}",
    )


def product_category(C: FiniteCategory, D: FiniteCategory) -> FiniteCategory:
    objects = tuple((x, y) for x in C.objects for y in D.objects)
    arrows = tuple((f, g) for f in C.arrows for g in D.arrows)
    compose = {}
    for (f2, g2) in arrows:
        for (f1, g1) in arrows:
            if C.tgt[f1] == C.src[f2] and D.tgt[g1] == D.src[g2]:
                compose[((f2, g2), (f1, g1))] = (
                    C.compose_table[(f2, f1)],
                    D.compose_table[(g2, g1)],
                )
    return FiniteCategory(
        objects,
        arrows,
        {(f, g): (C.src[f], D.src[g]) for (f, g) in arrows},
        {(f, g): (C.tgt[f], D.tgt[g]) for (f, g) in arrows},
        {(x, y): (C.identity[x], D.identity[y]) for (x, y) in objects},
        compose,
        name=f"({C.name})x({D.name})" if C.name and D.name else None,
        check=False,
    )


def disjoint_union_category(C: FiniteCategory, D: FiniteCategory) -> FiniteCategory:
    objects = tuple((0, x) for x in C.objects) + tuple((1, y) for y in D.objects)
    arrows = tuple((0, f) for f in C.arrows) + tuple((1, g) for g in D.arrows)
    src = {(0, f): (0, C.src[f]) for f in C.arrows}
    src.update({(1, g): (1, D.src[g]) for g in D.arrows})
    tgt = {(0, f): (0, C.tgt[f]) for f in C.arrows}
    tgt.update({(1, g): (1, D.tgt[g]) for g in D.arrows})
    identity = {(0, x): (0, C.identity[x]) for x in C.objects}
    identity.update({(1, y): (1, D.identity[y]) for y in D.objects})
    compose = {((0, g), (0, f)): (0, gf) for (g, f), gf in C.compose_table.items()}
    compose.update({((1, g), (1, f)): (1, gf) for (g, f), gf in D.compose_table.items()})
    return FiniteCategory(
        objects, arrows, src, tgt, identity, compose,
        name=f"({C.name})+({D.name})" if C.name and D.name else None,
        check=False,
    )
