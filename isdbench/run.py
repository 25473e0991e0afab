"""Benchmark of the isdtest package: one workload per process.

    python3 isdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's ops until S seconds of wall time have
passed, checks every output, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a traced phase that follows an untraced
one of equal length.  A failed output check prints ``"correct": false`` and
exits with code 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import benchenv

benchenv.prepare()
benchenv.import_package()

import checks  # noqa: E402  (after prepare: numpy must see the thread settings)
import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


class Phase:
    """Ops timed in one phase of a run, with their results for the checks.

    ``scaled`` holds each op's wall time at the reference speed of
    :mod:`hostspeed`; ``intervals`` the raw start and end, for the tracer.
    """

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.scaled: list[float] = []
        self.outcomes: list = []
        self.reps = 0
        self.attempted = 0
        self.failed = 0

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.scaled) * 1e3

    @property
    def busy_s(self) -> float:
        return sum(self.scaled)


def run_phase(workload, data, seconds: float, first_round: int,
              reference: hostspeed.HostReference) -> tuple[Phase, int]:
    """Repeat whole rounds of ops until ``seconds`` of wall time have passed,
    timing the host reference before the first op and after every op."""
    phase = Phase()
    k = first_round
    before = reference.time()
    began = perf_counter()
    while True:
        for op in workload.round(data, k):
            phase.attempted += 1
            start = perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # an op that raises is counted, not fatal
                print(f"op {op.label} failed: {exc!r}", file=sys.stderr)
                phase.failed += 1
                before = reference.time()
                continue
            end = perf_counter()
            after = reference.time()
            phase.intervals.append((start, end))
            phase.scaled.append((end - start) * hostspeed.NOMINAL_S / ((before + after) / 2))
            before = after
            phase.reps += op.reps
            phase.outcomes.append((op, op.collect(value)))
        k += 1
        if perf_counter() - began >= seconds:
            return phase, k


def probe_setup(name: str, seed: int, short: bool) -> float:
    """Set-up time of a fresh process: interpreter start, package import,
    ingestion and one warm-up op, less the probe's own input generation."""
    argv = [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)]
    if short:
        argv.append("--short")
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            ready = perf_counter()
            child.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            child.kill()  # then the with block waits for it
            raise
    code = child.returncode
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {name} exited with code {code}")
    return ready - start - json.loads(line)["generate_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Stopped from outside, still remove the work directory and reap a probe.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=benchenv.OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.short, workdir)
        data = workload.ingest(workload.generate())
        warm = workload.round(data, 0)[0]
        warm.collect(warm.call())
        correct = True
        reference = hostspeed.HostReference()
        if args.trace == 0:
            phase, _ = run_phase(workload, data, args.seconds, 0, reference)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            phases = [phase]
            raw_p50_ms = statistics.median(end - start for start, end in phase.intervals) * 1e3
            print(f"raw op p50 {raw_p50_ms:.1f} ms, scaled {phase.p50_ms:.1f} ms", file=sys.stderr)
        else:
            plain, k = run_phase(workload, data, args.seconds / 2, 0, reference)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _ = run_phase(workload, data, args.seconds / 2, k, reference)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        try:
            workload.check(data, [o for p in phases for o in p.outcomes])
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        if args.trace == 0:
            setup = statistics.median(probe_setup(args.workload, args.seed, args.short)
                                      for _ in range(SETUP_PROBES))
            metrics = {
                "setup_s": (setup, "s"),
                "op_p50_ms": (phase.p50_ms, "ms"),
                "reps_per_s": (phase.reps / phase.busy_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            metrics = tracer.layer_stats(traced.intervals)
            metrics["trace.overhead_ms"] = (traced.p50_ms - plain.p50_ms, "ms")
            tracer.write(benchenv.OUT / f"trace-{args.workload}-seed{args.seed}.json.gz",
                         traced.intervals, {"workload": args.workload, "seed": args.seed})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
