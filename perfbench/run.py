"""Benchmark driver: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload power-stream --seed 1 --seconds 20 --trace 0

Each round is one fresh interpreter (worker.py) that imports the library
from src/, builds the seeded inputs and runs the workload's operations one
after another on one thread: a closed loop with a single client.  Rounds
repeat until the next one would overrun --seconds (at least one runs).
A few extra interpreters only set up, so set-up time is a median too.

--trace 0 reports the end-to-end metrics, medians over rounds:
  wall_s       time of the operations, tracing off
  setup_s      process spawn until library imported and inputs built
  peak_rss_mb  ru_maxrss of the round's own process
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds, plus trace_overhead_s (traced minus
untraced wall time).  Failed operations (wrong exact output or an
exception) are counted in "failed"; the error rate is failed/attempted.

The last stdout line is one JSON object; earlier lines are for people.
The environment, every round and (traced) the spans go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# Every run, including its last round, ends well inside this.
HARD_LIMIT_S = 170


class RoundFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py; return its JSON result and the monotonic spawn time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"worker {args} did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RoundFailed(f"worker {args} exited {proc.returncode}:\n{stderr.strip()}")
    try:
        return json.loads(stdout.strip().splitlines()[-1]), spawned
    except (IndexError, ValueError):
        raise RoundFailed(f"worker {args} printed no result:\n{stdout[-500:]}")


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        result, spawned = spawn(base + ["--setup-only"], hard_deadline)
        setups.append(result["ready"] - spawned)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    spans_path = os.path.join(OUT, f"spans-{tag}.json")
    modes = [False, True] if trace else [False]
    rounds = {False: [], True: []}
    durations = {False: [], True: []}
    deadline = started + seconds
    turn = 0
    while True:
        traced = modes[turn % len(modes)]
        if all(rounds[m] for m in modes):
            if time.monotonic() + max(durations[traced]) > deadline:
                break
        args = base + (["--trace", "--spans-out", spans_path] if traced else [])
        begun = time.monotonic()
        result, spawned = spawn(args, hard_deadline)
        durations[traced].append(time.monotonic() - begun)
        setups.append(result["ready"] - spawned)
        rounds[traced].append(result)
        turn += 1

    every = rounds[False] + rounds[True]
    untraced = rounds[False]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    wall_s = statistics.median(r["wall_s"] for r in untraced)
    if trace:
        traced_rounds = rounds[True]
        metrics = {
            name: {
                "value": statistics.median(r["layers"][name] for r in traced_rounds),
                "unit": unit,
            }
            for name, unit in LAYER_METRICS
            if name != "trace_overhead_s"
        }
        metrics["trace_overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced_rounds) - wall_s,
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in untraced),
                "unit": "MB",
            },
        }
    first = every[0]
    report = {
        "workload": workload,
        "seed": seed,
        "variant": first["variant"],
        "trace": int(trace),
        "environment": {
            "git_sha": git_sha(),
            "python": first["python"],
            "numpy": first["numpy"],
            "nproc": os.cpu_count(),
        },
        "calib_s": statistics.median(r["calib_s"] for r in every),
        "rounds": {
            "untraced": [
                {k: r[k] for k in ("wall_s", "peak_rss_mb", "calib_s")} for r in untraced
            ],
            "traced": [r["wall_s"] for r in rounds[True]],
            "setup_s": setups,
        },
        "error_rate": failed / attempted,
        "failures": [f for r in every for f in r["failures"]][:5],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict):
    result = report["result"]
    env = report["environment"]
    print(
        f"{report['workload']} seed={report['seed']} variant={report['variant']} "
        f"git={env['git_sha']} python={env['python']} numpy={env['numpy']} "
        f"nproc={env['nproc']} calib_s={report['calib_s']:.4f}"
    )
    print(
        f"rounds: {len(report['rounds']['untraced'])} untraced, "
        f"{len(report['rounds']['traced'])} traced"
    )
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"error_rate = {report['error_rate']:.6g} ratio "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        try:
            report = run(workload, args.seed, args.seconds, bool(args.trace))
        except RoundFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
