"""One round of one workload, in a fresh interpreter so every cache starts cold.

Run by run.py; prints one JSON object on its last stdout line:

    python3 perfbench/worker.py --workload power-stream --seed 1 [--trace] [--setup-only]

The library is imported from the src/ directory next to perfbench/ and
nowhere else.  The ready timestamp (time.monotonic, a system-wide clock
on Linux) marks the end of set-up: library imported, inputs built.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A fixed pure-Python loop, timed each round as a machine-speed diagnostic.
CALIB_N = 400_000


def calibrate() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_N):
        total += i * i % 7
    return time.perf_counter() - start


def import_library():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    pkg = importlib.import_module("orbitmoments")
    origin = os.path.dirname(os.path.abspath(pkg.__file__))
    if os.path.commonpath([origin, SRC]) != SRC:
        raise ImportError(f"orbitmoments was imported from {origin}, not from {SRC}")
    for name in (
        "core_arith",
        "residue_algebra",
        "closed_forms",
        "local_counts",
        "orbit_engine",
        "moment_lab",
    ):
        importlib.import_module(f"orbitmoments.{name}")
    return pkg


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="write the spans of a traced round here")
    args = parser.parse_args()

    pkg = import_library()
    import numpy
    import workloads
    from tracer import Tracer

    ops = workloads.build_operations(
        pkg, args.workload, args.seed, workloads.load_expected()
    )
    ready = time.monotonic()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    calib_s = calibrate()
    tracer = Tracer(pkg) if args.trace else None
    failures = []
    streamed = 0
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        for op in ops:
            try:
                with tracer.span("op:" + op.label) if tracer else nullcontext():
                    result = op.run()
                    problem = op.check(result)
                streamed += workloads.primes_streamed(result)
            except Exception:
                problem = f"{op.label} raised:\n{traceback.format_exc()}"
            if problem:
                failures.append(problem)
    finally:
        wall_s = time.perf_counter() - start
        if tracer:
            tracer.uninstall()

    out.update(
        wall_s=wall_s,
        calib_s=calib_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:5],
        variant=workloads.variant_key(args.workload, args.seed),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if tracer:
        out["layers"] = tracer.layer_metrics(streamed)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.span_records(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
