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

A `SimplexExpr` is an immutable (word, base, dim) named tuple: equality
and hashing are the tuple's own, computed in C, and the constructor
checks that the word strictly decreases.  `face` of a non-degenerate
expression is a lookup in the face table.

The rewriting reads three memoized word tables, pure functions of words
and dimensions that never see a complex: `_degenerate_word` (the normal
form of s_outer s_inner, built letter by letter with `degeneracy_expr`),
`_face_word` (d_i s_word is s_out d_j, or s_rest when the face cancels a
letter) and `_peel_words` (the common letters peeled from a product pair).
So the face of a degenerate expression costs one `_face_word` read, at most
one face-table and one `_degenerate_word` read, and one `SimplexExpr`,
whatever the length of its word.  With complexes as keys the tables would
grow with the cells; with words they grow with the dimensions in use, 2^d
words below d, and `jsonio`, `product` and the certificate builders stop
at `GLOBAL_DIM_BOUND`.  `product` keys a factor's expressions by their
`all_exprs` indexes, and their faces by theirs, each one addition off the
`_face_slots` word table, on the factor through `KEPT_DIM`; a face pair
that is a cell is one read, and only a degenerate one is normalized.  A
word's index is a `_word_rank` read, and the words disjoint from one are
the combinations of its complement (`_disjoint_words`).  The bulk builders,
here and in `jsonio`, `cat` and `anodyne`, run under `acyclic`: they make
no reference cycles, so the cyclic collector, paused while they allocate,
would find nothing to free.

Construction order fixes the ids, so equal inputs always produce the same
complex; all values are immutable after construction.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from itertools import chain, combinations, repeat
from math import comb
from operator import itemgetter

GLOBAL_DIM_BOUND = 12


class SimplicialError(ValueError):
    pass


class SizeLimitError(SimplicialError):
    pass


def acyclic(builder):
    """Run a builder with the cyclic collector paused, unless it already is."""

    @wraps(builder)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return builder(*args, **kwargs)
        gc.disable()
        try:
            return builder(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class SimplexExpr(namedtuple("SimplexExpr", "word base dim")):
    """A possibly-degenerate simplex: degeneracy word applied to a base id.

    An immutable (word, base, dim) named tuple; equality and hashing are
    those of the triple.  `_make` and `_replace` skip the word check.
    """

    __slots__ = ()

    def __new__(cls, word: tuple[int, ...], base: int, dim: int):
        if len(word) > 1:
            for a, b in zip(word, word[1:]):
                if a <= b:
                    raise SimplicialError(f"degeneracy word not strictly decreasing: {word}")
        return tuple.__new__(cls, (word, base, dim))

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
    if not word:
        return expr
    inner, base, dim = expr
    word = tuple(word)
    # the word table returns normal words, so the result skips the check
    return tuple.__new__(SimplexExpr, (_degenerate_word(word, inner, dim), base, dim + len(word)))


# -- word tables: pure functions of words and dimensions, memoized -------------


@lru_cache(maxsize=None)
def _degenerate_word(outer: tuple[int, ...], inner: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """The word of s_outer s_inner x for a dim-dimensional s_inner x,
    raising as `degeneracy_expr` does for a letter out of range."""
    expr = SimplexExpr(inner, 0, dim)
    for j in reversed(outer):
        expr = degeneracy_expr(expr, j)
    return expr[0]


@lru_cache(maxsize=None)
def _face_word(word: tuple[int, ...], i: int, dim: int) -> tuple[tuple[int, ...], int | None]:
    """d_i s_word on a dim-dimensional expression: (out, j) when
    d_i s_word = s_out d_j, and (rest, None) when the face cancels a letter
    and d_i s_word = s_rest, `rest` in normal form."""
    out = []
    for pos, j in enumerate(word):
        if i < j:
            out.append(j - 1)
        elif i <= j + 1:
            return _degenerate_word(tuple(out), word[pos + 1 :], dim - pos - 1), None
        else:
            out.append(j)
            i -= 1
    return tuple(out), i


@lru_cache(maxsize=None)
def _peel_words(w1: tuple[int, ...], w2: tuple[int, ...], dim: int):
    """Peel the common letters of a pair of dim-dimensional words, largest
    first, each by the face d_{i+1} it cancels: (word, v1, v2) with
    (s_w1 x, s_w2 y) = s_word (s_v1 x, s_v2 y), `word` in normal form and
    v1, v2 disjoint."""
    word = []
    while True:
        common = set(w1) & set(w2)
        if not common:
            break
        i = max(common)
        word.append(i)
        w1 = _face_word(w1, i + 1, dim)[0]
        w2 = _face_word(w2, i + 1, dim)[0]
        dim -= 1
    return _degenerate_word(tuple(word), (), dim), w1, w2


@lru_cache(maxsize=None)
def _words(d: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The degeneracy words of a d-expression on a p-cell, in the order of
    combinations of range(d - 1, -1, -1); each strictly decreases."""
    return tuple(combinations(range(d - 1, -1, -1), d - p))


@lru_cache(maxsize=None)
def _word_rank(d: int, p: int) -> dict[tuple[int, ...], int]:
    """Each word of `_words(d, p)` -> its index there."""
    return {w: r for r, w in enumerate(_words(d, p))}


@lru_cache(maxsize=None)
def _disjoint_words(d: int, p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """For each word of `_words(d, p)`, the indexes in `_words(d, q)` of the
    combinations of its complement, which come out in `_words` order."""
    rank, letters = _word_rank(d, q), range(d - 1, -1, -1)
    return tuple(tuple(rank[w] for w in combinations([i for i in letters if i not in w1], d - q)) for w1 in _words(d, p))


@lru_cache(maxsize=None)
def _face_slots(d: int, p: int, us: tuple) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Where the faces d_i s_w z of a p-cell z lie, for each word w of
    `_words(d, p)`, z's face row having the words `us`: (0, r) when d_i
    cancels a letter, giving s_v z, and (j + 1, r) when it gives s_v of the
    base of d_j z; r is v's index among that base's words in dimension d - 1."""

    def slot(w, i):
        v, j = _face_word(w, i, d)
        if j is None:
            return 0, _word_rank(d - 1, p)[v]
        return j + 1, _word_rank(d - 1, p - 1 - len(us[j]))[_degenerate_word(v, us[j], p - 1)]

    return tuple(tuple(slot(w, i) for i in range(d + 1 if d else 0)) for w in _words(d, p))


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

    def union(self, a, b) -> bool:
        """Join the sets of a and b; True when they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

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
        # an unchecked caller hands over dicts it built and no longer changes
        self.faces = dict(faces) if check else faces
        self.coskeletal_at = coskeletal_at
        self.labels = dict(labels or {}) if check else ({} if labels is None else labels)
        self.dim_of = {}
        for d, level in enumerate(self.nondegenerate):
            for s in level:
                if s in self.dim_of:
                    raise SimplicialError(f"duplicate simplex id {s}")
                self.dim_of[s] = d
        self._vertex_cache: dict[int, tuple[int, ...]] = {}
        self._expr_cache: dict[int, tuple[SimplexExpr, ...]] = {}
        self._face_index: dict = {}
        self._rows: dict[SimplexExpr, tuple[SimplexExpr, ...]] = {}  # face rows of degenerate exprs
        self._components: dict = {}  # product's component blocks (`_components`)
        self._replay: tuple = (None, (), (), {})  # verify_certificate's accepted prefix: source, steps, added ids, their positions
        self._validated = False
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
        # the word tables return normal words, so the result skips the check
        out, j = _face_word(word, i, dim)
        if j is None:
            return tuple.__new__(SimplexExpr, (out, base, dim - 1))
        inner, fbase, fdim = self.faces[base][j]
        return tuple.__new__(SimplexExpr, (_degenerate_word(out, inner, fdim), fbase, dim - 1))

    def face_row(self, expr: SimplexExpr) -> tuple[SimplexExpr, ...]:
        """(d_0 expr, ..., d_n expr): a non-degenerate expression's row of
        the face table, a degenerate one's computed once and memoized."""
        if not expr[0]:
            return self.faces[expr[1]]
        row = self._rows.get(expr)
        if row is None:
            row = self._rows[expr] = tuple(self.face(expr, i) for i in range(expr[2] + 1))
        return row

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

    def all_exprs(self, d: int) -> tuple[SimplexExpr, ...]:
        """Every d-dimensional expression (non-degenerate first, then by base/word)."""
        cached = self._expr_cache.get(d)
        if cached is not None:
            return cached
        # the words are normal: combinations of a descending range
        new = tuple.__new__
        result = tuple(
            new(SimplexExpr, (w, s, d)) for p, bases, _, _ in self._expr_blocks(d) for s in bases for w in _words(d, p)
        )
        self._expr_cache[d] = result
        return result

    def _expr_blocks(self, d: int):
        """The order of `all_exprs(d)`: blocks (p, bases, start, per_base) of
        the p-dimensional bases from p = d down, each block from index
        `start`, each base followed by its comb(d, d - p) = per_base words."""
        start = 0
        for p in range(min(d, self.dim_bound), -1, -1):
            bases, per_base = self.nondegenerate[p], comb(d, d - p)
            yield p, bases, start, per_base
            start += len(bases) * per_base

    def n_exprs(self, d: int) -> int:
        """len(all_exprs(d)), without building the expressions."""
        return sum(len(bases) * per_base for _, bases, _, per_base in self._expr_blocks(d))

    def expr_at(self, d: int, r: int) -> SimplexExpr:
        """all_exprs(d)[r] for 0 <= r < n_exprs(d), built alone from its block."""
        if r < 0:
            raise IndexError(f"expression index {r} out of range")
        for p, bases, start, per_base in self._expr_blocks(d):
            if r < start + len(bases) * per_base:
                base, w = divmod(r - start, per_base)
                return tuple.__new__(SimplexExpr, (_words(d, p)[w], bases[base], d))
        raise IndexError(f"expression index out of range for dimension {d}")

    @cached_property
    def _positions(self) -> dict[int, int]:  # each cell's position in its level, for `_components`
        return {s: n for level in self.nondegenerate for n, s in enumerate(level)}

    # -- validation --------------------------------------------------------

    def ensure_validated(self):
        """Validate once; later calls are free (values are immutable)."""
        if not self._validated:
            self.validate()
        return self

    @acyclic
    def validate(self):
        """Exhaustive well-formedness check: face targets, then d_i d_j =
        d_{j-1} d_i (i < j) as two gathers over columns j and i of a level,
        d_j of every cell and its face row.  Face counts are checked once
        per level, and face targets once per distinct face expression of a
        level; a failing level is scanned, cell by cell and for the
        identities in (j, i) order, only to name its first failure."""
        faces, dim_of = self.faces, self.dim_of
        for d, level in enumerate(self.nondegenerate):
            rows = list(map(faces.get, level))
            if d == 0:
                ok = not any(rows)
            else:
                try:
                    ok = None not in rows and set(map(len, rows)) <= {d + 1} and all(
                        base in dim_of and dim_of[base] + len(word) == d - 1 and dim == d - 1
                        for word, base, dim in set().union(*rows)
                    )
                except (TypeError, ValueError):  # no expression: the scan raises where it meets it
                    ok = False
            for s in () if ok else level:  # scanned only to name the first failure
                if d == 0:
                    if s in faces and faces[s]:
                        raise SimplicialError(f"vertex {s} has faces")
                    continue
                fs = faces.get(s)
                if fs is None or len(fs) != d + 1:
                    raise SimplicialError(f"simplex {s} needs {d + 1} faces")
                for word, base, dim in fs:
                    if base not in dim_of:
                        raise SimplicialError(f"face of {s} has unknown base {base}")
                    if dim_of[base] + len(word) != d - 1 or dim != d - 1:
                        raise SimplicialError(f"face of {s} has wrong dimension")
        row, word, base = self.face_row, itemgetter(0), itemgetter(1)
        gather = lambda i, col: list(map(itemgetter(i), col))
        for d, level in enumerate(self.nondegenerate[2:], 2):
            # a column of non-degenerate faces reads its rows by base, with no call
            cols = [
                list(map(row, F) if any(map(word, F)) else map(faces.__getitem__, map(base, F)))
                for F in zip(*map(faces.__getitem__, level))
            ]
            ij = [(i, j) for j in range(1, d + 1) for i in range(j)]
            if not cols or all(gather(i, cols[j]) == gather(j - 1, cols[i]) for i, j in ij):
                continue
            for n, s in enumerate(level):
                for i, j in ij:
                    if cols[j][n][i] != cols[i][n][j - 1]:
                        raise SimplicialError(f"simplicial identity fails at {s}, (i,j)=({i},{j})")
        self._validated = True

    # -- indexes by faces (face closure, horn filling, boundary lookups) -----

    def first_unclosed(self, ids: set[int] | frozenset[int]) -> int | None:
        """First id of the set `ids`, in its iteration order, with a face
        base outside `ids`; None when `ids` is face-closed."""
        faces = self.faces
        if ids.issuperset(map(itemgetter(1), chain.from_iterable(map(faces.get, ids, repeat(()))))):
            return None
        return next(s for s in ids if not ids.issuperset(e.base for e in faces.get(s, ())))

    def face_index(self, n: int, positions: tuple[int, ...]) -> dict[tuple, tuple[SimplexExpr, ...]]:
        """Every n-expr grouped by its faces at `positions`: the dict from
        (d_i e for i in positions) to the n-exprs e with those faces, in
        `all_exprs` order.  Built once per (n, positions); a vertex's
        positions are (), and a horn's free face is a missing position."""
        idx = self._face_index.get((n, positions))
        if idx is None:
            exprs = self.all_exprs(n)
            if not positions:
                idx = {(): exprs} if exprs else {}
            else:
                # a one-position getter slices, so that it too returns a tuple
                key = itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(positions[0], positions[0] + 1))
                groups: dict = {}
                for e in exprs:
                    groups.setdefault(key(self.face_row(e)), []).append(e)
                idx = {k: tuple(es) for k, es in groups.items()}
            self._face_index[n, positions] = idx
        return idx


@dataclass(frozen=True)
class SimplicialMap:
    """Simplicial map given on non-degenerate simplices of the source."""

    source: SimplicialSet
    target: SimplicialSet
    assignment: dict[int, SimplexExpr] = field(compare=False)


# -- standard complexes ----------------------------------------------------


@lru_cache(maxsize=None)
def standard_simplex(n: int) -> SimplicialSet:
    # memoized: complexes are immutable, and callers rely on a single
    # Delta^n instance so that maps into it compose by identity
    ids: dict[tuple[int, ...], int] = {}
    nondeg: list[list[int]] = [[] for _ in range(n + 1)]
    labels: dict[int, object] = {}
    next_id = 0
    for d in range(n + 1):
        for vs in combinations(range(n + 1), d + 1):
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
    return SimplicialSet(n if n >= 0 else 0, nondeg, faces, min(n, 1), labels)


def build_standard(kind: str, n: int, k: int | None = None):
    """The boundary of Delta^n, or the horn Lambda^n_k, with its inclusion
    into Delta^n: (complex, inclusion), the subcomplex of Delta^n without
    its top cell, and for a horn also without the face d_k of it, flagged
    n-coskeletal.  Ids follow Delta^n's.
    """
    if n < 1:
        raise SimplicialError("boundary/horn need n >= 1")
    simplex = standard_simplex(n)
    top = simplex.nondegenerate[n][0]
    if kind == "boundary":
        dropped = {top}
    elif kind == "horn":
        if k is None or not 0 <= k <= n:
            raise SimplicialError(f"horn index {k} outside 0..{n}")
        dropped = {top, simplex.faces[top][k].base}
    else:
        raise SimplicialError(f"unknown kind {kind!r}")
    sub, incl = make_subcomplex(simplex, (s for s in simplex.cells() if s not in dropped))
    sub = with_coskeletal(sub, n)
    return sub, SimplicialMap(sub, simplex, incl.assignment)


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


@acyclic
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
    # the words come from X's own face table, so they are already normal
    trusted = tuple.__new__
    faces = {}
    for s, new in new_of_old.items():
        if X.dim_of[s] >= 1:
            faces[new] = tuple(trusted(SimplexExpr, (w, new_of_old[b], d)) for w, b, d in X.faces[s])
    sub = SimplicialSet(X.dim_bound, nondeg, faces, None, labels, check=False)
    incl = SimplicialMap(sub, X, {new: X.expr(s) for s, new in new_of_old.items()})
    return sub, incl


# -- products ----------------------------------------------------------------


@dataclass(frozen=True)
class ProductComplex:
    """X x Y; `pairs` records each cell's component exprs, the projections."""

    complex: SimplicialSet
    left: SimplicialSet
    right: SimplicialSet
    pairs: dict[int, tuple[SimplexExpr, SimplexExpr]] = field(compare=False)
    pair_id: dict[tuple[SimplexExpr, SimplexExpr], int] = field(compare=False)


def _pair_expr(pair_id: dict, e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
    """Normal form of a componentwise pair of equal-dimension exprs.

    Peels common degeneracy indices (largest first); a pair is
    non-degenerate exactly when the component words are disjoint.
    """
    w1, b1, dim = e1
    w2, b2, _ = e2
    word, w1, w2 = _peel_words(w1, w2, dim)
    if not word:
        return SimplexExpr((), pair_id[(e1, e2)], dim)
    d = dim - len(word)
    return SimplexExpr(word, pair_id[(SimplexExpr(w1, b1, d), SimplexExpr(w2, b2, d))], dim)


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


KEPT_DIM = 2  # `product` keeps its factors' components through this dimension


def _components(Z: SimplicialSet, d: int, p: int, local: dict) -> list[list[tuple]]:
    """(expression, key, face keys) for each word on each p-cell of Z in
    dimension d, one list per cell.  A key is the expression's index in
    `Z.all_exprs(d)`: its block's start, plus its cell's position in the
    level times the words per cell, plus its word's index in `_words(d, p)`.
    A face key is the face's index in `Z.all_exprs(d - 1)`, one addition to
    the first key of the base that `_face_slots` names; no face is built.

    Through dimension `KEPT_DIM` the blocks, per (d, p), are kept on Z, so
    a factor used in many products, on either side, pays for its components
    once; there they grow with Z's cells.  Above it they grow with
    comb(d, p) words per cell, and live in `local`, a memo of one build."""
    memo = Z._components if d <= KEPT_DIM else local
    block = memo.get((d, p))
    if block is None:
        at, dim_of, new, block = Z._positions, Z.dim_of, tuple.__new__, []
        start, per_base = next((s, c) for q, _, s, c in Z._expr_blocks(d) if q == p)
        down = {q: (s, c) for q, _, s, c in Z._expr_blocks(d - 1)}
        first = lambda z, q: down[q][0] + at[z] * down[q][1]  # the key of z's first word one dimension down
        for n, z in enumerate(Z.nondegenerate[p]):
            row = Z.faces.get(z, ())  # none on a vertex, whose every face cancels a letter
            firsts = [first(z, p) if p < d else None] + [first(b, dim_of[b]) for _, b, _ in row]
            k, slots = start + n * per_base, _face_slots(d, p, tuple([u for u, _, _ in row]))
            es = [new(SimplexExpr, (w, z, d)) for w in _words(d, p)]  # normal words, as in `all_exprs`
            block.append([(e, k + r, tuple([firsts[j] + i for j, i in f])) for r, (e, f) in enumerate(zip(es, slots))])
        memo[d, p] = block
    return block


@acyclic
def product(X: SimplicialSet, Y: SimplicialSet, dim_bound: int | None = None) -> ProductComplex:
    """Binary product, materialized through dimension `dim_bound`.

    Non-degenerate n-cells are pairs of n-dimensional expressions with
    disjoint degeneracy words, made in a fixed order that sets the ids.
    Each (d-1)-cell is entered in a table by the keys of its components,
    their `all_exprs` indexes, as it is made; a cell's faces pair its
    components' face keys, so a face pair that is a cell is one read, and
    only a degenerate one reads the components' face rows and goes through
    `_pair_expr`, once per build.  The table holds one dimension at a time.
    `_components` computes the keys, and keeps them on the factors through
    `KEPT_DIM`, so a factor used in many products pays for them once.
    """
    full = X.dim + Y.dim
    if dim_bound is None:
        dim_bound = min(full, GLOBAL_DIM_BOUND) if full >= 0 else 0
    dim_bound = max(dim_bound, 0)
    pair_id: dict[tuple[SimplexExpr, SimplexExpr], int] = {}
    pairs: dict[int, tuple[SimplexExpr, SimplexExpr]] = {}
    nondeg: list[list[int]] = [[] for _ in range(dim_bound + 1)]
    faces = {}
    below: dict[tuple, SimplexExpr] = {}  # pair of keys -> normal form, one dimension down
    next_id = 0
    for d in range(dim_bound + 1):
        made: dict[tuple, SimplexExpr] = {}  # this dimension's cells, by the pair of their components' keys
        level, read, new = nondeg[d], below.__getitem__, tuple.__new__
        local: dict = {X: {}, Y: {}}  # each factor's components above KEPT_DIM, for this dimension
        for p in range(max(d - Y.dim, 0), min(d, X.dim) + 1):
            xs = _components(X, d, p, local[X])
            for q in range(d - p, min(d, Y.dim) + 1):
                ys = _components(Y, d, q, local[Y])
                disjoint = _disjoint_words(d, p, q)  # the non-degenerate pairs
                for e1s in xs:
                    for e2s in ys:
                        for (e1, k1, g1), js in zip(e1s, disjoint):
                            for j in js:
                                e2, k2, g2 = e2s[j]
                                pair = (e1, e2)
                                pair_id[pair] = next_id
                                pairs[next_id] = pair
                                level.append(next_id)
                                if d < dim_bound:  # no top cell is a face
                                    made[k1, k2] = new(SimplexExpr, ((), next_id, d))
                                if d:
                                    try:
                                        faces[next_id] = tuple(map(read, zip(g1, g2)))
                                    except KeyError:  # a degenerate face pair, normalized once per build
                                        for k, a, b in zip(zip(g1, g2), X.face_row(e1), Y.face_row(e2)):
                                            if k not in below:
                                                below[k] = _pair_expr(pair_id, a, b)
                                        faces[next_id] = tuple(map(read, zip(g1, g2)))
                                next_id += 1
        below = made
    flag = None
    if X.coskeletal_at is not None and Y.coskeletal_at is not None and 0 <= full <= dim_bound:
        flag = max(X.coskeletal_at, Y.coskeletal_at)
    P = SimplicialSet(dim_bound, nondeg, faces, flag, pairs, check=False)
    return ProductComplex(P, X, Y, pairs, pair_id)


# -- map search ----------------------------------------------------------------


def _search_plan(P: SimplicialSet, order) -> list[tuple]:
    """One step per cell of `order` not covered by an earlier step: (dim,
    positions, key faces, ops, new cells).  An op (c, i, w, b, fresh)
    derives a fresh b from d_i of c's image, or checks it against b's."""
    covered: set[int] = set()
    steps = []
    for s in order:
        if s in covered:
            continue
        covered.add(s)
        faces = P.faces.get(s, ())
        positions = tuple([i for i, e in enumerate(faces) if e[1] in covered])
        if len(positions) == len(faces):  # looked up whole, as every cell of iso_check
            steps.append((P.dim_of[s], positions, faces, (), (s,)))
            continue
        new, ops = [s], []
        for c in new:  # grows as faces are derived
            for i, (w, b, _) in enumerate(P.faces.get(c, ())):
                if c == s and i in positions:
                    continue
                fresh = b not in covered
                if fresh:
                    covered.add(b)
                    new.append(b)
                ops.append((c, i, w, b, fresh))
        steps.append((P.dim_of[s], positions, tuple([faces[i] for i in positions]), ops, new))
    return steps


def map_search(P: SimplicialSet, Y: SimplicialSet, order, lookup, injective: bool = False):
    """Every simplicial map P -> Y, each yielded as the live assignment dict,
    which the search goes on to change.

    Backtracking with arc consistency, on an explicit stack (P may have
    more cells than the recursion limit).  Cells are chosen in `order`,
    skipping those already assigned.  A chosen d-cell tries the candidates
    `lookup(d, positions, key)`, `key` being the images of its faces already
    assigned at `positions`.  Its other faces, and theirs, are read off the
    candidate (d_i of it, degeneracies stripped) or checked against the
    image there, and undone on backtrack: a triangle whose two legs are
    assigned fixes its third edge.  `injective` refuses an image in use.
    """
    steps = _search_plan(P, order)
    if not steps:
        yield {}
        return
    face, face_row = Y.face, Y.face_row
    img: dict[int, SimplexExpr] = {}
    used: set[SimplexExpr] = set()  # read only when injective, where images are distinct

    def candidates(t: int):
        d, positions, faces, _ops, _new = steps[t]
        return iter(lookup(d, positions, tuple([degenerate(img[b], w) if w else img[b] for w, b, _ in faces])))

    stack = [candidates(0)]
    while stack:
        _d, _positions, _faces, ops, new = steps[len(stack) - 1]
        for b in new:
            if b in img:
                used.discard(img.pop(b))
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            continue
        if injective and e in used:
            continue
        img[new[0]] = e
        used.add(e)
        for c, i, w, b, fresh in ops:
            y = face_row(img[c])[i]
            if not fresh:
                if (degenerate(img[b], w) if w else img[b]) != y:
                    break
                continue
            x = y
            for j in w:
                x = face(x, j)
            if (w and degenerate(x, w) != y) or (injective and x in used):
                break
            img[b] = x
            used.add(x)
        else:
            if len(stack) == len(steps):
                yield img
            else:
                stack.append(candidates(len(stack)))


def iso_check(X: SimplicialSet, Y: SimplicialSet, limit: int = 64) -> SimplicialMap | None:
    """Exact isomorphism search: an injective `map_search` over the cells
    of X in dimension order, so every face of a cell is assigned first,
    each cell's candidates read from an index of Y's non-degenerate cells
    keyed by their own face rows, in `nondegenerate` order.  Returns the
    first face-commuting bijection in that order, or None; the cell counts
    per dimension are compared first.  Both complexes must have at most
    `limit` non-degenerate simplices in total.
    """
    if X.n_cells > limit or Y.n_cells > limit:
        raise SizeLimitError(f"iso_check limit {limit} exceeded")
    top = max(X.dim, Y.dim, 0)
    cx = tuple(len(X.nondegenerate[d]) if d <= X.dim_bound else 0 for d in range(top + 1))
    cy = tuple(len(Y.nondegenerate[d]) if d <= Y.dim_bound else 0 for d in range(top + 1))
    if cx != cy:
        return None
    index: dict[tuple, list[SimplexExpr]] = {}
    for d, level in enumerate(Y.nondegenerate):
        for t in level:
            index.setdefault(Y.faces.get(t, ()), []).append(tuple.__new__(SimplexExpr, ((), t, d)))
    phi = next(map_search(X, Y, X.cells(), lambda _d, _positions, key: index.get(key, ()), True), None)
    return None if phi is None else SimplicialMap(X, Y, {s: phi[s] for s in X.cells()})
