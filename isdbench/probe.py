"""Set-up probe: one fresh process that imports the package, ingests a
workload's inputs and runs one warm-up op, then prints one JSON line with
the time it spent generating the inputs, which is the benchmark's own work.
``run.py`` times it from spawn to that line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import benchenv

benchenv.prepare()
benchenv.import_package()

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()

    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{args.workload}-", dir=benchenv.OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.short, workdir)
        start = perf_counter()
        raw = workload.generate()
        generate_s = perf_counter() - start
        data = workload.ingest(raw)
        warm = workload.round(data, 0)[0]
        warm.collect(warm.call())
        print(json.dumps({"generate_s": generate_s}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
