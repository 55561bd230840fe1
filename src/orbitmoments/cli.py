"""Command-line interface.

Exact rationals are printed as "num/den" (plain integer when den = 1) by
default; --format json emits numerator/denominator fields that round-trip,
and --format human renders decimals.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction

from .closed_forms import dk, mk
from .core_arith import CapacityError
from .local_counts import PowerEquation, parse_curve
from .moment_lab import (
    PowerCounter,
    PowerProductCounter,
    SplitFilter,
    TorsionCounter,
    convergence_trace,
    empirical_distribution,
    empirical_moment,
    trace_to_csv,
)
from .orbit_engine import build_action, burnside_moment, orbit_count_oracle
from .residue_algebra import QuadOrderSpec
from .verify import SUITES, run_suite

FORMATS = ("text", "json", "human")


def _fmt_rational(value: Fraction, fmt: str) -> str:
    if fmt == "human":
        return f"{float(value):.10g}"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _emit(payload: dict, value: Fraction | int | None, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif value is not None:
        print(_fmt_rational(Fraction(value), fmt))


def _build_counter(args):
    if args.scenario == "power":
        counter = PowerCounter(PowerEquation(args.n, args.a))
    elif args.scenario == "product":
        counter = PowerProductCounter(PowerEquation(args.n, args.a), args.k1, args.k2)
    elif args.scenario == "torsion":
        if not args.curve:
            raise ValueError("torsion scenario needs --curve")
        counter = TorsionCounter(parse_curve(args.curve), args.ell)
    else:
        raise ValueError(f"unknown scenario {args.scenario!r}")
    if args.filter:
        if args.scenario == "product":
            raise ValueError("splitting filters apply to power and torsion scenarios")
        curve = getattr(counter, "curve", None)
        spec = curve.cm if curve is not None else None
        if args.filter_d is not None:
            spec = QuadOrderSpec(args.filter_d)
        if spec is None:
            raise ValueError("no CM field to filter by; pass --filter-d")
        counter = replace(counter, split_filter=SplitFilter(spec, args.filter == "split"))
    return counter


def _cmd_mk(args, fmt: str) -> int:
    value = mk(args.n, args.k)
    _emit(
        {"n": args.n, "k": args.k, "value_num": value.numerator, "value_den": value.denominator},
        value,
        fmt,
    )
    return 0


def _cmd_dk(args, fmt: str) -> int:
    value = dk(args.n, QuadOrderSpec(args.d))
    _emit({"n": args.n, "d": args.d, "value": value}, value, fmt)
    return 0


def _cmd_orbits(args, fmt: str) -> int:
    action = build_action(args.action)
    moment = burnside_moment(action, args.k)
    payload = {
        "action": args.action,
        "k": args.k,
        "moment": moment,
        "group_order": action.group_order,
        "set_size": action.size,
    }
    if action.size**args.k <= 10**6:
        # burnside_moment already ran the oracle on a generator-only action
        payload["oracle"] = (
            orbit_count_oracle(action, args.k) if action.materialized else moment
        )
    _emit(payload, moment, fmt)
    if fmt != "json" and "oracle" in payload:
        print(f"oracle: {payload['oracle']}", file=sys.stderr)
    return 0


def _cmd_moment(args, fmt: str) -> int:
    counter = _build_counter(args)
    report = empirical_moment(counter, args.k, args.x, good_only=args.good_only)
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        return 0
    print(f"scenario:  {report.scenario}")
    print(
        f"k={report.k}  x={report.x}  pi(x)={report.pi_x}  "
        f"excluded={report.excluded}  filtered={report.filtered}  "
        f"zero_valued={report.zero_valued}"
    )
    print(f"empirical: {_fmt_rational(report.empirical, fmt)}")
    if report.predicted is not None:
        print(f"predicted: {_fmt_rational(report.predicted, fmt)}")
        print(f"rel_err:   {report.rel_err:.6%}")
    return 0


def _cmd_dist(args, fmt: str) -> int:
    counter = _build_counter(args)
    dist = empirical_distribution(counter, args.x, t_values=tuple(args.t or ()))
    if fmt == "json":
        payload = {
            "scenario": dist.scenario,
            "x": dist.x,
            "pi_x": dist.pi_x,
            "masses": {
                str(v): [m.numerator, m.denominator] for v, m in dist.masses.items()
            },
            "cdf": [[v, c.numerator, c.denominator] for v, c in dist.cdf],
            "predicted": None
            if dist.predicted_masses is None
            else {
                str(v): [m.numerator, m.denominator]
                for v, m in dist.predicted_masses.items()
            },
            "char_samples": {
                str(t): [z.real, z.imag] for t, z in dist.char_samples.items()
            },
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"scenario: {dist.scenario}   x={dist.x}  pi(x)={dist.pi_x}")
    predicted = dist.predicted_masses or {}
    for v in sorted(dist.masses.keys() | predicted.keys()):
        note = f"   predicted {_fmt_rational(predicted[v], fmt)}" if v in predicted else ""
        print(f"  N_p={v}: mass {_fmt_rational(dist.mass(v), fmt)}{note}")
    for t, z in dist.char_samples.items():
        print(f"  phi({t}) ~ {z.real:.8f}{z.imag:+.8f}i")
    return 0


def _cmd_trace(args, fmt: str) -> int:
    counter = _build_counter(args)
    checkpoints = [int(v) for v in args.checkpoints.split(",")]
    reports = convergence_trace(counter, args.k, checkpoints)
    if fmt == "json":
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))
    else:
        sys.stdout.write(trace_to_csv(reports))
    return 0


def _cmd_verify(args, fmt: str) -> int:
    checks = failures = 0
    for name in SUITES if args.suite == "all" else [args.suite]:
        start = time.perf_counter()
        results = run_suite(name, tol=args.tol)
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            if not r.ok:
                failures += 1
            detail = f"  ({r.detail})" if r.detail and not r.ok else ""
            print(f"{status}  {r.name}{detail}")
        print(f"{name}: {time.perf_counter() - start:.2f} s")
        checks += len(results)
    print(f"{checks - failures}/{checks} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitmoments",
        description="Exact orbit counts for finite group actions, and prime averages "
        "of solution counts mod p compared against their limits.",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=os.environ.get("ORBITMOMENTS_FORMAT", "text"),
        help="output format (env ORBITMOMENTS_FORMAT sets the default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mk", help="generalized divisor function M_k(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_mk)

    p = sub.add_parser("dk", help="ideal divisor count d_K(n) for Q(sqrt(d))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_dk)

    p = sub.add_parser("orbits", help="number of orbits on k-tuples under an action")
    p.add_argument(
        "--action",
        required=True,
        help="units:N | glm:N,M | semidirect:N | quad:N,D | gl2:L",
    )
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_orbits)

    def add_scenario_args(p):
        p.add_argument(
            "--scenario", required=True, choices=("power", "product", "torsion")
        )
        p.add_argument("--n", type=int, default=1, help="exponent for power scenarios")
        p.add_argument("--a", type=int, default=1, help="constant for power scenarios")
        p.add_argument("--k1", type=int, default=1)
        p.add_argument("--k2", type=int, default=1)
        p.add_argument("--curve", help="preset (17a3, 11a2, cm:-1, cm:-3) or 'a,b'")
        p.add_argument("--ell", type=int, default=3)
        p.add_argument("--filter", choices=("split", "nonsplit"))
        p.add_argument(
            "--filter-d", type=int, help="quadratic field for the filter (default: curve CM field)"
        )

    p = sub.add_parser("moment", help="empirical k-th moment up to x")
    add_scenario_args(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--x", type=int, required=True)
    p.add_argument(
        "--good-only",
        action="store_true",
        help="normalize by the count of non-excluded primes",
    )
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("dist", help="empirical value distribution up to x")
    add_scenario_args(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--t", type=float, action="append", help="characteristic samples")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("trace", help="CSV convergence trace at checkpoints")
    add_scenario_args(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--checkpoints", required=True, help="ascending, comma-separated")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all", help=f"one of: {', '.join(SUITES)}, all")
    p.add_argument("--tol", type=float, help="tolerance of every scenario row, a finite number >= 0")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format not in FORMATS:
        # argparse checks --format against choices, but not the default it took from the environment
        parser.error(f"ORBITMOMENTS_FORMAT must be one of {', '.join(FORMATS)}, got {args.format!r}")
    try:
        return args.func(args, args.format)
    except (ValueError, CapacityError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
