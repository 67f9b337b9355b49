"""quasicat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a quasicat checkout; it imports the package from
`src/` and writes only under `.perfbench_work/`.  Workloads and metrics are
described in perfbench/README.md and listed in BENCHMARK.json.

Every pass runs in a fresh interpreter (perfbench/child.py), one at a time,
so no process-global cache carries over between passes.

--trace 0: a few set-up-only children, then passes until --seconds is used
  up (a pass is not started if the last one would not fit; at least one
  runs).  Prints the end-to-end metrics: medians over the run's samples.
--trace 1: one untraced pass and two traced passes, whatever --seconds
  says.  Prints the per-layer metrics; checks that tracing changes no
  output and that the counts agree between the two traced passes.

The last line of stdout is the result, preceded by a line recording the
seed, the Python version, nproc, the load average at start, the commit and
a digest of `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("battery", "wordproblem", "certificates", "qcat-json")
SETUP_SAMPLES = 5  # set-up-only children per run, on top of one per pass
CHILD_TIMEOUT_S = 170
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
}


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, trace: int = 0, tag: str = "") -> dict:
    wdir = WORK / workload
    wdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--trace", str(trace), "--work", str(wdir / "io"),
        "--spans", str(wdir / f"spans{tag}.json"),
    ]
    errpath = wdir / "child.stderr"
    with open(errpath, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT, env=env
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed(f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S}s") from exc
            raise
    if proc.returncode != 0 or not out.strip():
        tail = errpath.read_text()[-3000:]
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float):
    deadline = time.monotonic() + seconds
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        started = time.monotonic()
        passes.append(spawn(workload, seed, "pass"))
        setups.append(passes[-1])
        # start another pass only if at least half of it fits
        if time.monotonic() + (time.monotonic() - started) / 2 > deadline:
            break
    checked = sum(p["checked"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] * s["setup_speed"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "correct_ratio": (checked - failed) / checked,
    }
    samples = {
        "passes": len(passes),
        "raw_wall_s": [p["wall_s"] for p in passes],
        "raw_cpu_s": [p["cpu_s"] for p in passes],
        "speed": [p["speed"] for p in passes],
        "raw_setup_s": [s["setup_s"] for s in setups],
        "setup_speed": [s["setup_speed"] for s in setups],
        "failures": [f for p in passes for f in p["failures"]][:20],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return checked, failed, metrics, samples


def measure_traced(workload: str, seed: int):
    import spans

    plain = spawn(workload, seed, "pass")
    traced = [spawn(workload, seed, "pass", trace=1, tag=str(i)) for i in range(2)]
    runs = [plain] + traced
    checked = sum(p["checked"] for p in runs) + 2
    failed = sum(p["failed"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    if len({p["digest"] for p in runs}) != 1:
        failed += 1
        failures.append("outputs differ between the untraced and the traced passes")
    counts = [{m: p["layers"][m] for m in spans.COUNT_METRICS} for p in traced]
    if counts[0] != counts[1]:
        failed += 1
        failures.append("counts differ between the two traced passes")
    # self times and the overhead are rescaled like wall_s
    values = {m: statistics.mean(p["layers"][m] * p["speed"] for p in traced) for m in spans.SPAN_METRICS}
    values.update(counts[0])
    values.update({m: traced[0]["layers"][m] for m in spans.RATIO_METRICS})
    values["simplicial.face_us"] = statistics.mean(p["face_us"] for p in traced)
    values["trace.overhead_s"] = statistics.mean(p["wall_s"] * p["speed"] for p in traced) - plain["wall_s"] * plain["speed"]
    units = {m: "s" for m in spans.SPAN_METRICS}
    units.update({m: "count" for m in spans.COUNT_METRICS})
    units.update({m: "ratio" for m in spans.RATIO_METRICS})
    units.update({"simplicial.face_us": "us", "trace.overhead_s": "s"})
    metrics = {m: {"value": values[m], "unit": units[m]} for m in sorted(values)}
    samples = {
        "raw_wall_s": [p["wall_s"] for p in runs],
        "speed": [p["speed"] for p in runs],
        "failures": failures[:20],
    }
    return checked, failed, metrics, samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "quasicat" / "__init__.py").is_file():
        print(f"error: no quasicat sources under {ROOT / 'src'}; run from a quasicat checkout", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    try:
        if args.trace:
            checked, failed, metrics, samples = measure_traced(args.workload, args.seed)
        else:
            checked, failed, metrics, samples = measure(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in samples["failures"]:
        print(f"wrong answer: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta, "samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": checked, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
