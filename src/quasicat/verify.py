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
a frozen copy of the source, the accepted step objects, and the ids they
added.  A certificate with an equal source skips the source check and
resumes after its leading steps that are the slot's very objects (steps
are immutable, so they would be accepted again).  Criterion 4's mutants
share their certificate's source and a prefix of its steps, so each
replays from its change on; any other source is checked in full.  Only
accepted prefixes are kept, so every verdict, failed step and reason is
that of a fresh replay.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VerifyResult:
    ok: bool
    failed_step: int | None = None  # 0-based; None for source/global failures
    reason: str | None = None

    def __bool__(self):
        return self.ok


def verify_certificate(cert) -> VerifyResult:
    X = cert.target
    try:
        X.ensure_validated()
    except Exception as exc:  # noqa: BLE001 - any malformed target is a refusal
        return VerifyResult(False, None, f"target complex invalid: {exc}")
    dim_of = X.dim_of
    steps = tuple(cert.steps)
    source, done, added = X._replay
    # the identity test spares the set comparison for the very same set
    if source is not cert.source_ids and source != cert.source_ids:
        current = set(cert.source_ids)
        if not current <= dim_of.keys():
            s = next(s for s in current if s not in dim_of)
            return VerifyResult(False, None, f"source id {s} not in target")
        s = X.first_unclosed(current)
        if s is not None:
            return VerifyResult(False, None, f"source not face-closed at {s}")
        # a frozen source is kept as is, so its own mutants take the identity test
        source, done, added = frozenset(cert.source_ids), (), ()
    start = min(len(done), len(steps))
    start = next((i for i in range(start) if done[i] is not steps[i]), start)
    added = list(added[: 2 * start])
    current = {*source, *added}
    failure = _replay(X, steps, start, current, added)
    accepted = len(steps) if failure is None else failure.failed_step
    if accepted > len(done) or source is not X._replay[0]:
        X._replay = (source, steps[:accepted], tuple(added))
    if failure is not None:
        return failure
    if current != dim_of.keys():
        return VerifyResult(False, None, "replay does not reach the declared target")
    return VerifyResult(True)


def _replay(X, steps, start, current, added):
    """Replay steps[start:] on the stage `current`, adding each step's two
    ids to it and to `added`; the refusal of the first step that fails."""
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
            if e.base not in dim_of:
                return VerifyResult(False, step_no, f"face {i} references unknown id")
            if e.base not in current:
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
        if tau in current:
            return VerifyResult(False, step_no, "attached simplex already present")
        if not fills:
            i = next(i for i, (f, e) in enumerate(zip(faces, top)) if i != k and f != e)
            return VerifyResult(False, step_no, f"attached simplex does not fill the horn at {i}")
        missing = faces[k]
        if missing.is_degenerate:
            return VerifyResult(False, step_no, "missing face is degenerate: not a free pushout")
        if missing.base in current:
            return VerifyResult(False, step_no, "missing face already present: not a free pushout")
        current.add(missing.base)
        current.add(tau)
        added += (missing.base, tau)
