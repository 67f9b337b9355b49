"""Span tracer that measures quasicat's layers from outside the package.

`Tracer.install()` replaces each public function listed in `TARGETS` by a
wrapper, in the module that defines it and in every quasicat module that
imported it by name, so calls made inside the package are traced too.  A
wrapper records one span (name, start, end, parent) in memory; spans are
written out only when the pass ends.  A layer's self time is its spans'
duration minus the time covered by their child spans.

Counters are computed in the wrappers from the arguments and results, with
the benchmark's own code (the generator-path count is a DP over the
presentation, not a number read from inside `hom_sets`).  The time a
wrapper spends counting is recorded as a `trace` span under the caller, so
it is charged to tracing overhead and not to the caller's self time.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# -- counters ------------------------------------------------------------------


def generator_paths(P) -> int:
    """Number of generator paths of a loop-free presentation, empty paths included."""
    succ = {x: [] for x in P.objects}
    for g in P.generators:
        succ[P.gen_src[g]].append(P.gen_tgt[g])
    memo: dict = {}

    def from_(x):
        hit = memo.get(x)
        if hit is None:
            hit = 1 + sum(from_(y) for y in succ[x])
            memo[x] = hit
        return hit

    return sum(from_(x) for x in P.objects)


def bounded_walks(P, x, y, max_len: int) -> int:
    """Number of generator walks x -> y of length <= max_len."""
    out = {v: [] for v in P.objects}
    for g in P.generators:
        out[P.gen_src[g]].append(P.gen_tgt[g])
    layer = {x: 1}
    total = 1 if x == y else 0
    for _ in range(max_len):
        nxt: dict = {}
        for v, c in layer.items():
            for w in out[v]:
                nxt[w] = nxt.get(w, 0) + c
        layer = nxt
        total += layer.get(y, 0)
    return total


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_hom_sets(counts, args, kwargs, table):
    counts["pathcat.paths"] += generator_paths(_arg(args, kwargs, 0, "P"))
    counts["pathcat.classes"] += sum(len(entry) for entry in table.entries.values())


def _count_bounded(counts, args, kwargs, entry):
    P = _arg(args, kwargs, 0, "P")
    x, y = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "y")
    counts["pathcat.bounded_words"] += bounded_walks(P, x, y, _arg(args, kwargs, 3, "max_len"))


def _count_product(counts, args, kwargs, prod):
    counts["simplicial.product_cells"] += prod.complex.n_cells


def _count_nerve(counts, args, kwargs, N):
    counts["cat.nerve_cells"] += N.n_cells


def _count_certificate(counts, args, kwargs, cert):
    counts["anodyne.steps"] += len(cert.steps)
    counts["anodyne.target_cells"] += cert.target.n_cells


def _count_verify(counts, args, kwargs, res):
    counts["verify.replays"] += 1
    if res:
        counts["verify.steps_replayed"] += len(_arg(args, kwargs, 0, "cert").steps)
        return "verify.accept"
    counts["verify.rejected"] += 1
    return "verify.reject"


def _count_functors(counts, args, kwargs, functors):
    counts["equivalence.functors"] += len(functors)


def _count_loads(counts, args, kwargs, obj):
    counts["jsonio.bytes_loaded"] += len(_arg(args, kwargs, 0, "text"))


def _count_horns(counts, args, kwargs, horns):
    counts["quasi.horns"] += len(horns)


# (defining module, function, span name or None for count-only, counter)
TARGETS = [
    ("quasicat.pathcat", "hom_sets", "pathcat.hom_sets", _count_hom_sets),
    ("quasicat.pathcat", "path_category", "pathcat.path_category", None),
    ("quasicat.pathcat", "product_comparison", "pathcat.product_comparison", None),
    ("quasicat.pathcat", "bounded_hom_classes", "pathcat.bounded_hom_classes", _count_bounded),
    ("quasicat.pathcat", "counit_check", "pathcat.counit_check", None),
    ("quasicat.simplicial", "product", "simplicial.product", _count_product),
    ("quasicat.simplicial", "iso_check", "simplicial.iso_check", None),
    ("quasicat.cat", "nerve", "cat.nerve", _count_nerve),
    ("quasicat.cat", "is_equivalence_of_categories", "cat.is_equivalence_of_categories", None),
    ("quasicat.quasi", "certify_quasi_category", "quasi.certify", None),
    ("quasicat.quasi", "enumerate_horns", None, _count_horns),
    ("quasicat.quasi", "core", "quasi.core", None),
    ("quasicat.quasi", "ho_category_data", "quasi.ho_category", None),
    ("quasicat.quasi", "quasi_iso_edges", "quasi.quasi_iso_edges", None),
    ("quasicat.quasi", "tau0", "quasi.tau0", None),
    ("quasicat.anodyne", "prism_certificate", "anodyne.prism_certificate", _count_certificate),
    ("quasicat.anodyne", "facet_certificate", "anodyne.facet_certificate", _count_certificate),
    ("quasicat.verify", "verify_certificate", "verify.replay", _count_verify),
    ("quasicat.equivalence", "enumerate_functors", "equivalence.enumerate_functors", _count_functors),
    ("quasicat.equivalence", "nerve_equivalence_criterion", "equivalence.nerve_equivalence_criterion", None),
    ("quasicat.jsonio", "loads", "jsonio.load", _count_loads),
    ("quasicat.jsonio", "sset_from_json", "jsonio.load", None),
]

ACCEPTANCE_RUNNERS = 10

SPAN_METRICS = sorted(
    {f"{name}_s" for _m, _f, name, _c in TARGETS if name and name != "verify.replay"}
    | {"verify.accept_s", "verify.reject_s"}
    | {f"acceptance.c{i}_s" for i in range(1, ACCEPTANCE_RUNNERS + 1)}
)
COUNT_METRICS = [
    "anodyne.steps",
    "anodyne.target_cells",
    "cat.nerve_cells",
    "equivalence.functors",
    "jsonio.bytes_loaded",
    "pathcat.bounded_words",
    "pathcat.classes",
    "pathcat.paths",
    "quasi.horns",
    "simplicial.product_cells",
    "verify.replays",
    "verify.steps_replayed",
]
RATIO_METRICS = ["pathcat.classes_per_path", "verify.rejected_ratio"]


class Tracer:
    """Spans and counters of one pass; nothing is shared between passes."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, fn, name, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        if name is None:

            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(counts, args, kwargs, result)
                return result

            count_only.__wrapped__ = fn
            return count_only

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if counter is not None:
                label = counter(counts, args, kwargs, result)
                if label:
                    spans[idx] = (label, t0, t1, parent)
                spans.append(("trace", t1, perf_counter(), parent))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "quasicat" or name.startswith("quasicat."))
        }

        def replace_everywhere(orig, wrapper):
            for mod in modules.values():
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapper)

        for modname, fname, name, counter in TARGETS:
            orig = getattr(modules[modname], fname)
            replace_everywhere(orig, self.wrap(orig, name, counter))
        # run_all iterates this list, and compares entries with the module
        # globals by identity, so both get the same wrapper
        runners = modules["quasicat.acceptance"].RUNNERS
        if len(runners) != ACCEPTANCE_RUNNERS:
            raise RuntimeError(f"expected {ACCEPTANCE_RUNNERS} acceptance runners, found {len(runners)}")
        for i, orig in enumerate(list(runners)):
            wrapper = self.wrap(orig, f"acceptance.c{i + 1}")
            replace_everywhere(orig, wrapper)
            runners[i] = wrapper
        return self

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = Counter()
        for (name, t0, t1, _parent), child in zip(self.spans, covered):
            out[name] += (t1 - t0) - child
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the pass; idle layers read 0."""
        selfs = self.self_times()
        out = {m: selfs.get(m[: -len("_s")], 0.0) for m in SPAN_METRICS}
        for m in COUNT_METRICS:
            out[m] = self.counts[m]
        paths = self.counts["pathcat.paths"]
        replays = self.counts["verify.replays"]
        out["pathcat.classes_per_path"] = self.counts["pathcat.classes"] / paths if paths else 0.0
        out["verify.rejected_ratio"] = self.counts["verify.rejected"] / replays if replays else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def face_us(repeats: int = 5) -> float:
    """Median microseconds per `face()` call over every expression of
    Delta^3 x Delta^3 (all dimensions, all face indices)."""
    import quasicat.simplicial as simplicial

    # the untraced product, so the sweep adds no span and no count
    product = getattr(simplicial.product, "__wrapped__", simplicial.product)
    X = product(simplicial.standard_simplex(3), simplicial.standard_simplex(3)).complex
    work = [(e, i) for d in range(1, X.dim_bound + 1) for e in X.all_exprs(d) for i in range(d + 1)]
    face = X.face
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for e, i in work:
            face(e, i)
        samples.append((perf_counter() - t0) / len(work) * 1e6)
    return statistics.median(samples)
