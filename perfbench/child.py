"""One pass of one workload, in a fresh interpreter started by run.py.

Set-up is interpreter start, `import quasicat`, and the seeded generation and
serialization of the workload's inputs; `--spawned` carries the parent's
CLOCK_MONOTONIC reading at spawn, so set-up time includes interpreter start.
In `setup` mode the child stops there.  In `pass` mode it then runs the
timed pass, checks the answers outside the timed region, and prints one
JSON line.  With `--trace 1` the tracer is installed after set-up, and the
per-layer metrics and the `face()` sweep are added to the line.

A SpeedProbe runs through set-up and through the pass, and the line carries
its speed for each, so the parent can rescale both times to a reference
interpreter speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time
from pathlib import Path

PROBE_LOOP = 400  # additions per probe sample
PROBE_INTERVAL_S = 0.005  # of process CPU time between samples
PROBE_REF_S = 20e-6  # time of one sample at the reference speed


class SpeedProbe:
    """How fast this interpreter runs while a phase runs.

    The vCPUs of a shared host slow down by up to 2x for tens of seconds
    when neighbours are busy, and Python code slows with them.  Every
    PROBE_INTERVAL_S of CPU time a SIGPROF handler times a fixed loop; the
    phase's speed is PROBE_REF_S over the median sample, so a phase's
    time multiplied by its speed is that time at the reference speed.  The
    samples cost about 0.5% of the phase.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        while len(self.samples) < 5:
            self._sample()
        return PROBE_REF_S / statistics.median(self.samples)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for generated inputs and outputs")
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()
    probe = SpeedProbe()
    probe.start()

    import workloads

    setup, run, check, digest = workloads.WORKLOADS[args.workload]
    wdir = Path(args.work)
    wdir.mkdir(parents=True, exist_ok=True)
    inputs = setup(args.seed, wdir)
    result = {"setup_s": time.monotonic() - args.spawned, "setup_speed": probe.stop()}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer().install()
        probe.start()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        outputs = run(inputs)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        speed = probe.stop()
        checked, failures = check(inputs, outputs)
        result.update(
            speed=speed,
            wall_s=t1 - t0,
            cpu_s=(r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
            peak_rss_mb=r1.ru_maxrss / 1024,
            checked=checked,
            failed=len(failures),
            failures=failures[:20],
            digest=digest(inputs, outputs),
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["face_us"] = spans.face_us()
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
