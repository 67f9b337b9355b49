"""Independent replay verifier for inner-anodyne certificates.

Replays the pushout steps of a certificate against its target complex,
knowing nothing about how certificates are built: each step must be an
inner horn, its horn map must be a coherent assignment landing in the
current stage, and the attached simplex must restrict to the horn map and
contribute exactly two fresh cells (itself and its missing face).  The
final stage must equal the target on the nose.
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
    current = set(cert.source_ids)
    for s in current:
        if s not in X.dim_of:
            return VerifyResult(False, None, f"source id {s} not in target")
    s = X.first_unclosed(current)
    if s is not None:
        return VerifyResult(False, None, f"source not face-closed at {s}")
    for step_no, step in enumerate(cert.steps):
        n, k = step.n, step.k
        if not 0 < k < n:
            return VerifyResult(False, step_no, f"horn index {k} not inner for n={n}")
        if len(step.top) != n + 1 or step.top[k] is not None:
            return VerifyResult(False, step_no, "malformed top assignment")
        for i in range(n + 1):
            if i == k:
                continue
            e = step.top[i]
            if e is None or e.dim != n - 1:
                return VerifyResult(False, step_no, f"face {i} missing or of wrong dimension")
            if e.base not in X.dim_of:
                return VerifyResult(False, step_no, f"face {i} references unknown id")
            if e.base not in current:
                return VerifyResult(False, step_no, f"face {i} not in the current stage")
        for j in range(n + 1):
            for i in range(j):
                if i == k or j == k:
                    continue
                if X.face(step.top[j], i) != X.face(step.top[i], j - 1):
                    return VerifyResult(False, step_no, f"horn faces disagree at ({i},{j})")
        tau = step.attached
        if tau not in X.dim_of or X.dim_of[tau] != n:
            return VerifyResult(False, step_no, "attached id missing or of wrong dimension")
        if tau in current:
            return VerifyResult(False, step_no, "attached simplex already present")
        tau_faces = X.faces[tau]
        for i in range(n + 1):
            if i != k and tau_faces[i] != step.top[i]:
                return VerifyResult(False, step_no, f"attached simplex does not fill the horn at {i}")
        missing = tau_faces[k]
        if missing.is_degenerate:
            return VerifyResult(False, step_no, "missing face is degenerate: not a free pushout")
        if missing.base in current:
            return VerifyResult(False, step_no, "missing face already present: not a free pushout")
        current.add(missing.base)
        current.add(tau)
    if current != set(X.dim_of):
        return VerifyResult(False, None, "replay does not reach the declared target")
    return VerifyResult(True)
