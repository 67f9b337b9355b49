"""Finite simplicial sets in Eilenberg-Zilber normal form.

A complex stores only its non-degenerate simplices, one integer id each,
together with a face table.  Every simplex (degenerate or not) is written
uniquely as a degeneracy word applied to a non-degenerate base, the word
having strictly decreasing indices; `face` and `degeneracy` rewrite such
expressions back into normal form using the simplicial identities

    d_i s_j = s_{j-1} d_i   (i < j)
    d_i s_j = id            (i = j, j+1)
    d_i s_j = s_j d_{i-1}   (i > j+1)
    s_i s_j = s_{j+1} s_i   (i <= j)

A `SimplexExpr` is an immutable (word, base, dim) tuple: equality and
hashing are the tuple's own, computed in C, and the constructor checks that
the word strictly decreases.  `face` of a non-degenerate expression is a
lookup in the face table.  `product` computes each component face and each
pair normal form once per distinct argument, in dicts local to one build,
so nothing outlives it.

Construction order fixes the ids, so equal inputs always produce the same
complex; all values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from operator import itemgetter

GLOBAL_DIM_BOUND = 12


class SimplicialError(ValueError):
    pass


class SizeLimitError(SimplicialError):
    pass


class SimplexExpr(tuple):
    """A possibly-degenerate simplex: degeneracy word applied to a base id.

    An immutable (word, base, dim) triple; equality and hashing are those
    of the triple.
    """

    __slots__ = ()

    def __new__(cls, word: tuple[int, ...], base: int, dim: int):
        if len(word) > 1:
            for a, b in zip(word, word[1:]):
                if a <= b:
                    raise SimplicialError(f"degeneracy word not strictly decreasing: {word}")
        return tuple.__new__(cls, (word, base, dim))

    word = property(itemgetter(0))
    base = property(itemgetter(1))
    dim = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"SimplexExpr(word={self[0]!r}, base={self[1]!r}, dim={self[2]!r})"

    @property
    def is_degenerate(self) -> bool:
        return bool(self[0])


def degeneracy_expr(expr: SimplexExpr, i: int) -> SimplexExpr:
    """Apply s_i to an expression, renormalizing the word.

    Pure word rewriting: pushes s_i inward past larger indices with
    s_i s_j = s_{j+1} s_i until it can be inserted keeping the word
    strictly decreasing.
    """
    word, base, dim = expr
    if not 0 <= i <= dim:
        raise SimplicialError(f"degeneracy index {i} out of range for dim {dim}")
    out = []
    for pos, j in enumerate(word):
        if i > j:
            return SimplexExpr(tuple(out) + (i,) + word[pos:], base, dim + 1)
        out.append(j + 1)
    return SimplexExpr(tuple(out) + (i,), base, dim + 1)


def degenerate(expr: SimplexExpr, word) -> SimplexExpr:
    """Apply a degeneracy word (outermost first, as in `SimplexExpr.word`)."""
    for j in reversed(word):
        expr = degeneracy_expr(expr, j)
    return expr


class UnionFind:
    """Disjoint sets over a fixed item list, with path halving."""

    def __init__(self, items):
        self.parent = {w: w for w in items}

    def find(self, w):
        p = self.parent
        while p[w] != w:
            p[w] = p[p[w]]
            w = p[w]
        return w

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> dict:
        """Root -> members; members, and classes by their first member, in
        the order the items were given."""
        out: dict = {}
        for w in self.parent:
            out.setdefault(self.find(w), []).append(w)
        return out


class SimplicialSet:
    """Finite dimension-bounded simplicial set with stable integer ids.

    `nondegenerate[d]` lists the ids of the non-degenerate d-simplices,
    `faces[s]` gives, for a simplex of dimension n >= 1, the tuple
    (d_0 s, ..., d_n s) of SimplexExprs.  `coskeletal_at = d` declares
    that the complex represents the d-coskeletal object generated by the
    stored truncation; consumers that rely on the flag (certification)
    document how they use it.
    """

    def __init__(
        self,
        dim_bound: int,
        nondegenerate: list[list[int]],
        faces: dict[int, tuple[SimplexExpr, ...]],
        coskeletal_at: int | None = None,
        labels: dict[int, object] | None = None,
        check: bool = True,
    ):
        if dim_bound < 0:
            raise SimplicialError("dim_bound must be >= 0")
        while len(nondegenerate) <= dim_bound:
            nondegenerate.append([])
        self.dim_bound = dim_bound
        self.nondegenerate = tuple(tuple(level) for level in nondegenerate[: dim_bound + 1])
        self.faces = dict(faces)
        self.coskeletal_at = coskeletal_at
        self.labels = dict(labels or {})
        self.dim_of = {}
        for d, level in enumerate(self.nondegenerate):
            for s in level:
                if s in self.dim_of:
                    raise SimplicialError(f"duplicate simplex id {s}")
                self.dim_of[s] = d
        self._vertex_cache: dict[int, tuple[int, ...]] = {}
        self._face_base_index: dict[int, tuple[int, ...]] | None = None
        self._expr_cache: dict[int, tuple[SimplexExpr, ...]] = {}
        self._face_index: dict = {}
        self._checked_source: frozenset[int] | None = None  # last source verify_certificate accepted
        if check:
            self.validate()

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Largest dimension carrying a non-degenerate simplex (-1 if empty)."""
        for d in range(self.dim_bound, -1, -1):
            if self.nondegenerate[d]:
                return d
        return -1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.nondegenerate)

    def cells(self):
        for level in self.nondegenerate:
            yield from level

    @property
    def n_cells(self) -> int:
        return sum(len(level) for level in self.nondegenerate)

    def vertices(self) -> tuple[int, ...]:
        return self.nondegenerate[0]

    def expr(self, s: int) -> SimplexExpr:
        return SimplexExpr((), s, self.dim_of[s])

    def __repr__(self):
        flag = f", coskeletal_at={self.coskeletal_at}" if self.coskeletal_at is not None else ""
        return f"SimplicialSet(counts={self.counts()}{flag})"

    # -- face/degeneracy calculus ----------------------------------------

    def face(self, expr: SimplexExpr, i: int) -> SimplexExpr:
        """d_i of an expression, in normal form."""
        word, base, dim = expr
        if dim < 1 or not 0 <= i <= dim:
            raise SimplicialError(f"face index {i} out of range for dim {dim}")
        if not word:
            return self.faces[base][i]
        out = []
        for pos, j in enumerate(word):
            if i < j:
                out.append(j - 1)
            elif i <= j + 1:
                res = SimplexExpr(word[pos + 1 :], base, self.dim_of[base] + len(word) - pos - 1)
                break
            else:
                out.append(j)
                i -= 1
        else:
            res = self.faces[base][i]
        return degenerate(res, out)

    def vertex_ids(self, expr: SimplexExpr) -> tuple[int, ...]:
        """Vertex ids of an expression, in simplex order (length dim+1)."""
        base = expr.base
        vs = self._vertex_cache.get(base)
        if vs is None:
            d = self.dim_of[base]
            if d == 0:
                vs = (base,)
            else:
                rest = self.vertex_ids(self.faces[base][0])
                first = self.vertex_ids(self.faces[base][d])[0]
                vs = (first,) + rest
            self._vertex_cache[base] = vs
        for j in reversed(expr.word):
            vs = vs[: j + 1] + (vs[j],) + vs[j + 1 :]
        return vs

    def restrict(self, expr: SimplexExpr, positions: tuple[int, ...]) -> SimplexExpr:
        """Sub-simplex spanned by the given (strictly increasing) positions."""
        res = expr
        for p in range(expr.dim, -1, -1):
            if p not in positions:
                res = self.face(res, p)
        return res

    def edge_at(self, expr: SimplexExpr, p: int, q: int) -> SimplexExpr:
        return self.restrict(expr, (p, q))

    def all_exprs(self, d: int) -> tuple[SimplexExpr, ...]:
        """Every d-dimensional expression (non-degenerate first, then by base/word)."""
        cached = self._expr_cache.get(d)
        if cached is not None:
            return cached
        result = tuple(
            SimplexExpr(w, s, d)
            for p, bases in self._expr_blocks(d)
            for s in bases
            for w in combinations(range(d - 1, -1, -1), d - p)
        )
        self._expr_cache[d] = result
        return result

    def _expr_blocks(self, d: int):
        """The order of `all_exprs(d)`: consecutive blocks (p, bases) of
        the p-dimensional bases, each base followed by its comb(d, d - p)
        degeneracy words; the non-degenerate d-cells (p = d) come first."""
        if d <= self.dim_bound:
            yield d, self.nondegenerate[d]
        for p in range(min(d - 1, self.dim_bound), -1, -1):
            yield p, self.nondegenerate[p]

    def n_exprs(self, d: int) -> int:
        """len(all_exprs(d)), without building the expressions."""
        return sum(len(bases) * comb(d, d - p) for p, bases in self._expr_blocks(d))

    def expr_at(self, d: int, r: int) -> SimplexExpr:
        """all_exprs(d)[r] for 0 <= r < n_exprs(d), built alone: the base
        is found by block, and the word by unranking `all_exprs`'s
        lexicographic combinations of range(d - 1, -1, -1)."""
        if r < 0:
            raise IndexError(f"expression index {r} out of range")
        for p, bases in self._expr_blocks(d):
            per_base = comb(d, d - p)
            if r >= len(bases) * per_base:
                r -= len(bases) * per_base
                continue
            base, r = divmod(r, per_base)
            word = []
            m = d - p
            for letter in range(d - 1, -1, -1):
                if not m:
                    break
                # words whose next letter is `letter`: pick m - 1 below it
                below = comb(letter, m - 1)
                if r < below:
                    word.append(letter)
                    m -= 1
                else:
                    r -= below
            return SimplexExpr(tuple(word), bases[base], d)
        raise IndexError(f"expression index out of range for dimension {d}")

    # -- validation --------------------------------------------------------

    def ensure_validated(self):
        """Validate once; later calls are free (values are immutable)."""
        if not getattr(self, "_validated", False):
            self.validate()
            self._validated = True
        return self

    def validate(self):
        """Exhaustive well-formedness check: face targets and d_i d_j identities."""
        for d, level in enumerate(self.nondegenerate):
            for s in level:
                if d == 0:
                    if s in self.faces and self.faces[s]:
                        raise SimplicialError(f"vertex {s} has faces")
                    continue
                fs = self.faces.get(s)
                if fs is None or len(fs) != d + 1:
                    raise SimplicialError(f"simplex {s} needs {d + 1} faces")
                for e in fs:
                    if e.base not in self.dim_of:
                        raise SimplicialError(f"face of {s} has unknown base {e.base}")
                    if self.dim_of[e.base] + len(e.word) != d - 1 or e.dim != d - 1:
                        raise SimplicialError(f"face of {s} has wrong dimension")
        for d, level in enumerate(self.nondegenerate):
            if d < 2:
                continue
            for s in level:
                fs = self.faces[s]
                for j in range(1, d + 1):
                    for i in range(j):
                        if self.face(fs[j], i) != self.face(fs[i], j - 1):
                            raise SimplicialError(f"simplicial identity fails at {s}, (i,j)=({i},{j})")

    # -- indexes by faces (face closure, horn filling, boundary lookups) -----

    def first_unclosed(self, ids: set[int] | frozenset[int]) -> int | None:
        """First id of the set `ids`, in its iteration order, with a face
        base outside `ids`; None when `ids` is face-closed."""
        index = self._face_base_index
        if index is None:
            # each cell's face base ids, () for a vertex, built once
            index = self._face_base_index = {
                s: tuple(e.base for e in self.faces[s]) if d else () for s, d in self.dim_of.items()
            }
        if ids.issuperset(chain.from_iterable(map(index.__getitem__, ids))):
            return None
        return next(s for s in ids if not ids.issuperset(index[s]))

    def face_index(self, n: int, positions: tuple[int, ...]) -> dict[tuple, tuple[SimplexExpr, ...]]:
        """Every n-expr grouped by its faces at `positions`: the dict from
        (d_i e for i in positions) to the n-exprs e with those faces, in
        `all_exprs` order.  Built once per (n, positions); a vertex's
        positions are (), and a horn's free face is a missing position."""
        idx = self._face_index.get((n, positions))
        if idx is None:
            groups: dict = {}
            for e in self.all_exprs(n):
                groups.setdefault(tuple(self.face(e, i) for i in positions), []).append(e)
            idx = self._face_index[n, positions] = {key: tuple(es) for key, es in groups.items()}
        return idx


@dataclass(frozen=True)
class SimplicialMap:
    """Simplicial map given on non-degenerate simplices of the source."""

    source: SimplicialSet
    target: SimplicialSet
    assignment: dict[int, SimplexExpr] = field(compare=False)

    def push(self, expr: SimplexExpr) -> SimplexExpr:
        return degenerate(self.assignment[expr.base], expr.word)

    def validate(self):
        for s, img in self.assignment.items():
            if img.dim != self.source.dim_of[s]:
                raise SimplicialError(f"map changes dimension at {s}")
        for d in range(1, self.source.dim_bound + 1):
            for s in self.source.nondegenerate[d]:
                e = self.source.expr(s)
                img = self.assignment[s]
                for i in range(d + 1):
                    if self.target.face(img, i) != self.push(self.source.face(e, i)):
                        raise SimplicialError(f"map does not commute with d_{i} at {s}")
        return self

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other (other.target must be self.source)."""
        if other.target is not self.source:
            raise SimplicialError("maps not composable")
        return SimplicialMap(
            other.source,
            self.target,
            {s: self.push(img) for s, img in other.assignment.items()},
        )


# -- standard complexes ----------------------------------------------------


def empty_complex() -> SimplicialSet:
    return SimplicialSet(0, [[]], {})


def _subsets_complex(n: int, keep, coskeletal_at: int | None) -> SimplicialSet:
    """Complex whose cells are the vertex subsets of {0..n} accepted by `keep`."""
    ids: dict[tuple[int, ...], int] = {}
    nondeg: list[list[int]] = [[] for _ in range(n + 1)]
    labels: dict[int, object] = {}
    next_id = 0
    for d in range(n + 1):
        for vs in combinations(range(n + 1), d + 1):
            if keep(vs):
                ids[vs] = next_id
                nondeg[d].append(next_id)
                labels[next_id] = vs
                next_id += 1
    faces = {}
    for vs, s in ids.items():
        d = len(vs) - 1
        if d >= 1:
            faces[s] = tuple(
                SimplexExpr((), ids[vs[:i] + vs[i + 1 :]], d - 1) for i in range(d + 1)
            )
    return SimplicialSet(n if n >= 0 else 0, nondeg, faces, coskeletal_at, labels)


@lru_cache(maxsize=None)
def standard_simplex(n: int) -> SimplicialSet:
    # memoized: complexes are immutable, and callers rely on a single
    # Delta^n instance so that maps into it compose by identity
    return _subsets_complex(n, lambda vs: True, coskeletal_at=min(n, 1))


def simplex_map(vertex_map, n: int) -> SimplicialMap:
    """Delta^m -> Delta^n sending vertex v to vertex_map[v] (monotone), with
    m = len(vertex_map) - 1: a face inclusion, degeneracy or composite."""
    source, target = standard_simplex(len(vertex_map) - 1), standard_simplex(n)
    ids = {target.labels[t]: t for t in target.cells()}
    assignment = {}
    for s in source.cells():
        vs = tuple(vertex_map[v] for v in source.labels[s])
        # a repeated vertex at positions j, j+1 is s_j, applied to the
        # simplex on the distinct vertices
        word = tuple(j for j in range(len(vs) - 2, -1, -1) if vs[j] == vs[j + 1])
        assignment[s] = SimplexExpr(word, ids[tuple(sorted(set(vs)))], len(vs) - 1)
    return SimplicialMap(source, target, assignment)


def build_standard(kind: str, n: int, k: int | None = None):
    """Delta^n, its boundary, or the horn Lambda^n_k.

    Returns the complex for `simplex`, and (complex, inclusion into Delta^n)
    for `boundary` and `horn`.  Ids are assigned along monotone injections
    into {0..n}, dimension by dimension.
    """
    if kind == "simplex":
        if n < 0:
            raise SimplicialError("n must be >= 0")
        return standard_simplex(n)
    if n < 1:
        raise SimplicialError("boundary/horn need n >= 1")
    full = range(n + 1)
    if kind == "boundary":
        sub = _subsets_complex(n, lambda vs: len(vs) <= n, coskeletal_at=n)
    elif kind == "horn":
        if k is None or not 0 <= k <= n:
            raise SimplicialError(f"horn index {k} outside 0..{n}")
        missing = tuple(v for v in full if v != k)
        sub = _subsets_complex(
            n, lambda vs: len(vs) <= n and vs != missing, coskeletal_at=n
        )
    else:
        raise SimplicialError(f"unknown kind {kind!r}")
    simplex = standard_simplex(n)
    target_ids = {simplex.labels[s]: s for s in simplex.cells()}
    incl = SimplicialMap(
        sub,
        simplex,
        {
            s: SimplexExpr((), target_ids[sub.labels[s]], sub.dim_of[s])
            for s in sub.cells()
        },
    )
    return sub, incl


def with_coskeletal(X: SimplicialSet, d: int | None) -> SimplicialSet:
    """Copy of X with the declared coskeletal bound replaced."""
    return SimplicialSet(
        X.dim_bound,
        [list(level) for level in X.nondegenerate],
        X.faces,
        d,
        X.labels,
        check=False,
    )


def truncate(X: SimplicialSet, d: int) -> SimplicialSet:
    """Dimension truncation sk_d; drops the coskeletal flag."""
    nondeg = [list(level) for level in X.nondegenerate[: d + 1]]
    keep = {s for level in nondeg for s in level}
    faces = {s: fs for s, fs in X.faces.items() if s in keep}
    labels = {s: l for s, l in X.labels.items() if s in keep}
    return SimplicialSet(d, nondeg, faces, None, labels, check=False)


# -- subcomplexes ------------------------------------------------------------


def closure_ids(X: SimplicialSet, seeds) -> frozenset[int]:
    """Smallest face-closed set of non-degenerate ids containing the seeds."""
    seen = set()
    stack = list(seeds)
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        if s not in X.dim_of:
            raise SimplicialError(f"unknown simplex id {s}")
        seen.add(s)
        if X.dim_of[s] >= 1:
            stack.extend(e.base for e in X.faces[s])
    return frozenset(seen)


def make_subcomplex(X: SimplicialSet, cell_ids) -> tuple[SimplicialSet, SimplicialMap]:
    """Subcomplex on a face-closed id set, with its inclusion into X."""
    cell_ids = frozenset(cell_ids)
    s = X.first_unclosed(cell_ids)
    if s is not None:
        raise SimplicialError(f"cell set not face-closed at {s}")
    old_by_dim = [sorted(s for s in cell_ids if X.dim_of[s] == d) for d in range(X.dim_bound + 1)]
    new_of_old = {}
    nondeg: list[list[int]] = [[] for _ in range(X.dim_bound + 1)]
    labels = {}
    next_id = 0
    for d, level in enumerate(old_by_dim):
        for s in level:
            new_of_old[s] = next_id
            nondeg[d].append(next_id)
            labels[next_id] = X.labels.get(s, s)
            next_id += 1
    faces = {}
    for s, new in new_of_old.items():
        d = X.dim_of[s]
        if d >= 1:
            faces[new] = tuple(
                SimplexExpr(e.word, new_of_old[e.base], e.dim) for e in X.faces[s]
            )
    sub = SimplicialSet(X.dim_bound, nondeg, faces, None, labels, check=False)
    incl = SimplicialMap(sub, X, {new: X.expr(s) for s, new in new_of_old.items()})
    return sub, incl


def subcomplex_generated(X: SimplicialSet, seeds) -> tuple[SimplicialSet, SimplicialMap]:
    return make_subcomplex(X, closure_ids(X, seeds))


# -- products ----------------------------------------------------------------


@dataclass(frozen=True)
class ProductComplex:
    """X x Y with projections; `pairs` records each cell's component exprs."""

    complex: SimplicialSet
    left: SimplicialSet
    right: SimplicialSet
    pr_left: SimplicialMap
    pr_right: SimplicialMap
    pairs: dict[int, tuple[SimplexExpr, SimplexExpr]] = field(compare=False)
    pair_id: dict[tuple[SimplexExpr, SimplexExpr], int] = field(compare=False)

    def pair_expr(self, e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
        """Normal form of a componentwise pair of equal-dimension exprs.

        Peels common degeneracy indices (largest first); a pair is
        non-degenerate exactly when the component words are disjoint.
        """
        word = []
        while True:
            common = set(e1.word) & set(e2.word)
            if not common:
                break
            i = max(common)
            word.append(i)
            e1 = self.left.face(e1, i + 1)
            e2 = self.right.face(e2, i + 1)
        return degenerate(self.complex.expr(self.pair_id[(e1, e2)]), word)

    def vertex_pair_chain(self, s: int) -> tuple[tuple[int, int], ...]:
        e1, e2 = self.pairs[s]
        v1 = self.left.vertex_ids(e1)
        v2 = self.right.vertex_ids(e2)
        return tuple(zip(v1, v2))


def product_cell_count(X: SimplicialSet, Y: SimplicialSet, dim_bound: int) -> int:
    """Number of non-degenerate cells of `product(X, Y, dim_bound)`, from
    the factors' counts alone: a d-cell pairs a p-cell and a q-cell
    (p + q >= d) with disjoint words of d - p and d - q indices below d."""
    return sum(
        len(X.nondegenerate[p]) * len(Y.nondegenerate[q]) * comb(d, d - p) * comb(p, d - q)
        for d in range(max(dim_bound, 0) + 1)
        for p in range(min(d, X.dim) + 1)
        for q in range(d - p, min(d, Y.dim) + 1)
    )


def product(X: SimplicialSet, Y: SimplicialSet, dim_bound: int | None = None) -> ProductComplex:
    """Binary product, materialized through dimension `dim_bound`.

    Non-degenerate n-cells are pairs of n-dimensional expressions with
    disjoint degeneracy words; faces are computed componentwise and
    renormalized.
    """
    full = X.dim + Y.dim
    if dim_bound is None:
        dim_bound = min(full, GLOBAL_DIM_BOUND) if full >= 0 else 0
    dim_bound = max(dim_bound, 0)
    pair_id: dict[tuple[SimplexExpr, SimplexExpr], int] = {}
    pairs: dict[int, tuple[SimplexExpr, SimplexExpr]] = {}
    nondeg: list[list[int]] = [[] for _ in range(dim_bound + 1)]
    labels = {}
    next_id = 0
    for d in range(dim_bound + 1):
        for p in range(min(d, X.dim) + 1):
            for q in range(min(d, Y.dim) + 1):
                if p + q < d:
                    continue
                for x in X.nondegenerate[p]:
                    for y in Y.nondegenerate[q]:
                        for w1 in combinations(range(d - 1, -1, -1), d - p):
                            e1 = SimplexExpr(w1, x, d)
                            rest = [i for i in range(d - 1, -1, -1) if i not in w1]
                            for w2 in combinations(rest, d - q):
                                pair = (e1, SimplexExpr(w2, y, d))
                                pair_id[pair] = next_id
                                pairs[next_id] = pair
                                nondeg[d].append(next_id)
                                labels[next_id] = pair
                                next_id += 1
    P = SimplicialSet(dim_bound, nondeg, {}, None, labels, check=False)
    prod = ProductComplex(P, X, Y, None, None, pairs, pair_id)  # type: ignore[arg-type]
    # many cells share a component and many faces share a pair, so each
    # component face and each pair normal form is computed once per build
    x_faces: dict[SimplexExpr, tuple[SimplexExpr, ...]] = {}
    y_faces: dict[SimplexExpr, tuple[SimplexExpr, ...]] = {}
    pair_exprs: dict[tuple[SimplexExpr, SimplexExpr], SimplexExpr] = {}
    faces = {}
    for s, (e1, e2) in pairs.items():
        d = e1.dim
        if d < 1:
            continue
        f1 = x_faces.get(e1)
        if f1 is None:
            f1 = x_faces[e1] = tuple(X.face(e1, i) for i in range(d + 1))
        f2 = y_faces.get(e2)
        if f2 is None:
            f2 = y_faces[e2] = tuple(Y.face(e2, i) for i in range(d + 1))
        fs = []
        for pair in zip(f1, f2):
            f = pair_exprs.get(pair)
            if f is None:
                f = pair_exprs[pair] = prod.pair_expr(*pair)
            fs.append(f)
        faces[s] = tuple(fs)
    flag = None
    if (
        X.coskeletal_at is not None
        and Y.coskeletal_at is not None
        and full >= 0
        and dim_bound >= full
    ):
        flag = max(X.coskeletal_at, Y.coskeletal_at)
    P = SimplicialSet(dim_bound, nondeg, faces, flag, labels, check=False)
    pr_left = SimplicialMap(P, X, {s: e1 for s, (e1, e2) in pairs.items()})
    pr_right = SimplicialMap(P, Y, {s: e2 for s, (e1, e2) in pairs.items()})
    return ProductComplex(P, X, Y, pr_left, pr_right, pairs, pair_id)


def product_map(
    prodA: ProductComplex, prodB: ProductComplex, f: SimplicialMap, g: SimplicialMap
) -> SimplicialMap:
    """f x g : A1 x A2 -> B1 x B2 on materialized products."""
    assignment = {}
    for s, (e1, e2) in prodA.pairs.items():
        assignment[s] = prodB.pair_expr(f.push(e1), g.push(e2))
    return SimplicialMap(prodA.complex, prodB.complex, assignment)


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, {s: X.expr(s) for s in X.cells()})


# -- joins -------------------------------------------------------------------


def join(X: SimplicialSet, Y: SimplicialSet) -> SimplicialSet:
    """Join X * Y: cells are pairs (sigma, tau) with sigma from X or absent,
    tau from Y or absent, of total dimension p + q + 1."""
    dim_bound = X.dim + Y.dim + 1 if X.dim >= 0 and Y.dim >= 0 else max(X.dim, Y.dim)
    if dim_bound < 0:
        return empty_complex()
    ids: dict[tuple[int | None, int | None], int] = {}
    nondeg: list[list[int]] = [[] for _ in range(dim_bound + 1)]
    labels = {}
    next_id = 0
    for d in range(dim_bound + 1):
        if d <= X.dim:
            for x in X.nondegenerate[d]:
                ids[(x, None)] = next_id
                nondeg[d].append(next_id)
                labels[next_id] = (x, None)
                next_id += 1
        if d <= Y.dim:
            for y in Y.nondegenerate[d]:
                ids[(None, y)] = next_id
                nondeg[d].append(next_id)
                labels[next_id] = (None, y)
                next_id += 1
        for p in range(d):
            q = d - p - 1
            if p > X.dim or q > Y.dim:
                continue
            for x in X.nondegenerate[p]:
                for y in Y.nondegenerate[q]:
                    ids[(x, y)] = next_id
                    nondeg[d].append(next_id)
                    labels[next_id] = (x, y)
                    next_id += 1

    def join_expr(e1: SimplexExpr | None, e2: SimplexExpr | None) -> SimplexExpr:
        if e1 is None:
            return degenerate(SimplexExpr((), ids[(None, e2.base)], Y.dim_of[e2.base]), e2.word)
        if e2 is None:
            return degenerate(SimplexExpr((), ids[(e1.base, None)], X.dim_of[e1.base]), e1.word)
        p = X.dim_of[e1.base]
        base = SimplexExpr((), ids[(e1.base, e2.base)], p + Y.dim_of[e2.base] + 1)
        # the Y-word acts on the positions after the p + 1 vertices of e1
        return degenerate(base, e1.word + tuple(j + p + 1 for j in e2.word))

    faces = {}
    for (x, y), s in ids.items():
        p = X.dim_of[x] if x is not None else -1
        q = Y.dim_of[y] if y is not None else -1
        d = p + q + 1
        if d < 1:
            continue
        fs = []
        for i in range(d + 1):
            if i <= p:
                left = X.face(X.expr(x), i) if p >= 1 else None
                fs.append(join_expr(left, Y.expr(y) if y is not None else None))
            else:
                right = Y.face(Y.expr(y), i - p - 1) if q >= 1 else None
                fs.append(join_expr(X.expr(x) if x is not None else None, right))
        faces[s] = tuple(fs)
    return SimplicialSet(dim_bound, nondeg, faces, None, labels, check=False)


# -- isomorphism search ------------------------------------------------------


def iso_check(X: SimplicialSet, Y: SimplicialSet, limit: int = 64) -> SimplicialMap | None:
    """Exact isomorphism search by backtracking over cells in dimension order.

    A cell's candidates are the unused non-degenerate cells of Y whose
    faces are the images of its faces.  Returns a dimension-preserving,
    face-commuting bijection as a SimplicialMap, or None.  Both complexes
    must have at most `limit` non-degenerate simplices in total.
    """
    if X.n_cells > limit or Y.n_cells > limit:
        raise SizeLimitError(f"iso_check limit {limit} exceeded")
    top = max(X.dim, Y.dim, 0)
    cx = tuple(len(X.nondegenerate[d]) if d <= X.dim_bound else 0 for d in range(top + 1))
    cy = tuple(len(Y.nondegenerate[d]) if d <= Y.dim_bound else 0 for d in range(top + 1))
    if cx != cy:
        return None
    order = list(X.cells())
    index = [Y.face_index(d, tuple(range(d + 1)) if d else ()) for d in range(X.dim + 1)]
    phi: dict[int, int] = {}
    used: set[int] = set()

    def candidates(s: int):
        want = tuple(SimplexExpr(e.word, phi[e.base], e.dim) for e in X.faces.get(s, ()))
        return iter([e.base for e in index[X.dim_of[s]].get(want, ()) if not e.word and e.base not in used])

    # stack[i] holds the untried candidates for order[i]; an explicit stack,
    # since a complex may have more cells than the recursion limit
    stack = [candidates(order[0])] if order else []
    while len(phi) < len(order):
        if not stack:
            return None
        s = order[len(stack) - 1]
        used.discard(phi.pop(s, None))
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        phi[s] = t
        used.add(t)
        if len(stack) < len(order):
            stack.append(candidates(order[len(stack)]))
    return SimplicialMap(X, Y, {s: Y.expr(t) for s, t in phi.items()})
