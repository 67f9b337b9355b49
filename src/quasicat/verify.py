"""Independent replay verifier for inner-anodyne certificates.

Replays the pushout steps of a certificate against its target complex,
knowing nothing about how certificates are built: each step must be an
inner horn, its horn map must be a coherent assignment landing in the
current stage, and the attached simplex must restrict to the horn map and
contribute exactly two fresh cells (itself and its missing face).  The
final stage must equal the target on the nose.

Coherence of the horn map (d_i y_j = d_{j-1} y_i for i < j, both != k)
is tested pairwise only when the attached simplex does not fill the horn.
When it does, y_i = d_i tau for every i != k, and each pair agrees by the
simplicial identity d_i d_j tau = d_{j-1} d_i tau, which the target's
validation has already checked on every cell; the verdict and the reason
are the same either way.

A target keeps one replay slot, the longest replay prefix accepted on it:
a frozen copy of the source, the accepted step objects, the ids they
added, and each added id's position.  A certificate with an equal source
skips the source check and resumes after its leading steps that are the
slot's very objects (steps are immutable, so they would be accepted
again).  Criterion 4's mutants share their certificate's source and a
prefix of its steps, so each replays from its change on, reading the slot
without copying it; any other source is checked in full.  Only accepted
prefixes are kept, and a slot is replaced whole, so every verdict, failed
step and reason is that of a fresh replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import is_not


@dataclass
class VerifyResult:
    ok: bool
    failed_step: int | None = None  # 0-based; None for source/global failures
    reason: str | None = None

    def __bool__(self):
        return self.ok


def verify_certificate(cert) -> VerifyResult:
    """Replay `cert` on its target: the first refusal, or acceptance.

    The last check counts: the source lies in the target, and every added
    id is a cell of the target checked absent before it was added (a
    step's two ids differ in dimension), so no id is counted twice, and
    the stage is the target exactly when the counts agree."""
    X = cert.target
    try:
        X.ensure_validated()
    except Exception as exc:  # noqa: BLE001 - any malformed target is a refusal
        return VerifyResult(False, None, f"target complex invalid: {exc}")
    dim_of = X.dim_of
    steps = tuple(cert.steps)
    source, done, added, at = X._replay
    # the identity test spares the set comparison for the very same set
    if source is not cert.source_ids and source != cert.source_ids:
        # a frozen source is kept as is, so its own mutants take the identity test
        source = frozenset(cert.source_ids)
        if not source <= dim_of.keys() or X.first_unclosed(source) is not None:
            # the id is named in the order a fresh replay meets it, a set copy's
            ids = set(cert.source_ids)
            s = next((s for s in ids if s not in dim_of), None)
            if s is not None:
                return VerifyResult(False, None, f"source id {s} not in target")
            return VerifyResult(False, None, f"source not face-closed at {X.first_unclosed(ids)}")
        done, added, at = (), (), {}
    start = next(compress(count(), map(is_not, done, steps)), min(len(done), len(steps)))
    new: dict = {}
    failure = _replay(X, steps, start, source, at, new)
    accepted = len(steps) if failure is None else failure.failed_step
    if accepted > len(done) or source is not X._replay[0]:
        added = added[: 2 * start] + tuple(new)
        X._replay = (source, steps[:accepted], added, dict(zip(added, count())))
    if failure is not None:
        return failure
    if len(source) + 2 * start + len(new) != len(dim_of):
        return VerifyResult(False, None, "replay does not reach the declared target")
    return VerifyResult(True)


def _replay(X, steps, start, source, at, new):
    """Replay steps[start:] on the stage made of `source`, the ids that
    `at` places before 2 * start, and the keys of `new`, adding each step's
    two ids to `new`; the refusal of the first step that fails."""
    limit = 2 * start
    at = at.get
    dim_of = X.dim_of
    for step_no in range(start, len(steps)):
        step = steps[step_no]
        n, k, top, tau = step.n, step.k, step.top, step.attached
        if not 0 < k < n:
            return VerifyResult(False, step_no, f"horn index {k} not inner for n={n}")
        if len(top) != n + 1 or top[k] is not None:
            return VerifyResult(False, step_no, "malformed top assignment")
        for i in range(n + 1):
            if i == k:
                continue
            e = top[i]
            if e is None or e.dim != n - 1:
                return VerifyResult(False, step_no, f"face {i} missing or of wrong dimension")
            b = e.base
            if b not in dim_of:
                return VerifyResult(False, step_no, f"face {i} references unknown id")
            if not (b in source or b in new or at(b, limit) < limit):
                return VerifyResult(False, step_no, f"face {i} not in the current stage")
        faces = X.faces[tau] if dim_of.get(tau) == n else None
        fills = faces is not None and faces[:k] == top[:k] and faces[k + 1 :] == top[k + 1 :]
        if not fills:
            for j in range(n + 1):
                for i in range(j):
                    if i == k or j == k:
                        continue
                    if X.face(top[j], i) != X.face(top[i], j - 1):
                        return VerifyResult(False, step_no, f"horn faces disagree at ({i},{j})")
            if faces is None:
                return VerifyResult(False, step_no, "attached id missing or of wrong dimension")
        if tau in source or tau in new or at(tau, limit) < limit:
            return VerifyResult(False, step_no, "attached simplex already present")
        if not fills:
            i = next(i for i, (f, e) in enumerate(zip(faces, top)) if i != k and f != e)
            return VerifyResult(False, step_no, f"attached simplex does not fill the horn at {i}")
        missing = faces[k]
        if missing.is_degenerate:
            return VerifyResult(False, step_no, "missing face is degenerate: not a free pushout")
        m = missing.base
        if m in source or m in new or at(m, limit) < limit:
            return VerifyResult(False, step_no, "missing face already present: not a free pushout")
        new[m] = new[tau] = None
