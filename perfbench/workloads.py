"""The three workloads: seeded inputs, their operations and exact checks.

Operations call only stable entry points (empirical_moment,
convergence_trace, build_action, burnside_moment, orbit_count_oracle and
the closed forms), always through the module attribute, so that the
tracer's patches are seen and internal refactors do not break the
benchmark.

The seed selects one variant from a small pool per workload.  Variants of
a workload have the same shape and, as far as the seed code shows, the
same cost; each has exact outputs stored in expected.json.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("power-stream", "torsion-stream", "exact-limits")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

POWER_X = 10**7
POWER_CHECKPOINTS = [10**5, 10**6, 10**7]
# The constant a of x^8 - a: square-free, and none divides 8, so every
# choice passes the side conditions and costs one pow_mod per prime.
POWER_A = (3, 5, 7, 11, 13, 17, 19, 23)

TORSION_X = 10**5
TORSION_CM_X = 5 * 10**4
# (curve for the two ell = 3 operations, CM curve, ell for the CM operation).
# The point-count kernel costs O(p) per prime whatever the curve, and both
# CM fields split about half of the primes.
TORSION = (
    ("17a3", "cm:-1", 5),
    ("11a2", "cm:-1", 5),
    ("17a3", "cm:-3", 7),
    ("11a2", "cm:-3", 7),
)

# Fields d in which 5 splits, so quad:5,d has 16 units (the generators the
# oracle walks) for every choice.
EXACT_QUAD_D = (-1, -11, -19)
PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is exact


def variant_key(workload: str, seed: int) -> str:
    if workload == "power-stream":
        return f"a={POWER_A[seed % len(POWER_A)]}"
    if workload == "torsion-stream":
        curve, cm, ell = TORSION[seed % len(TORSION)]
        return f"{curve}/{cm}/ell={ell}"
    if workload == "exact-limits":
        return f"d={EXACT_QUAD_D[seed % len(EXACT_QUAD_D)]}"
    raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")


def all_variant_keys(workload: str) -> list[str]:
    pool = {"power-stream": POWER_A, "torsion-stream": TORSION, "exact-limits": EXACT_QUAD_D}
    return [variant_key(workload, i) for i in range(len(pool[workload]))]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def build_operations(pkg, workload: str, seed: int, expected: dict | None) -> list[Operation]:
    """Inputs and operations for one run; expected None builds them unchecked."""
    key = variant_key(workload, seed)
    stored = None if expected is None else expected[workload][key]
    if workload == "power-stream":
        ops = _power_ops(pkg, POWER_A[seed % len(POWER_A)])
    elif workload == "torsion-stream":
        ops = _torsion_ops(pkg, *TORSION[seed % len(TORSION)])
    else:
        return _exact_ops(pkg, EXACT_QUAD_D[seed % len(EXACT_QUAD_D)], stored)
    return [
        Operation(label, run, _stored_check(label, stored)) for label, run in ops
    ]


# ---------------------------------------------------------------------------
# Prime streams: outputs compared with the values stored from the seed code.


def summarize(result) -> dict | list:
    """The exact parts of a report that the benchmark pins.

    Excluded primes and hist[0] are left out on purpose: how excluded,
    filtered and zero-valued primes are booked may change without the
    moments changing.
    """
    if isinstance(result, list):
        return [summarize(r) for r in result]
    predicted = result.predicted
    return {
        "x": result.x,
        "pi_x": result.pi_x,
        "empirical": [result.empirical.numerator, result.empirical.denominator],
        "predicted": None if predicted is None else [predicted.numerator, predicted.denominator],
        "atoms": {str(v): c for v, c in sorted(result.histogram.items()) if v >= 1},
    }


def primes_streamed(result) -> int:
    """Primes one prime-stream operation walked through (its last pi_x)."""
    if isinstance(result, list) and result:
        result = result[-1]
    return getattr(result, "pi_x", 0)


def _stored_check(label: str, stored: dict | None):
    def check(result) -> str | None:
        if stored is None:
            return None
        if label not in stored:
            return f"no stored output for {label}"
        got = json.loads(json.dumps(summarize(result)))
        if got != stored[label]:
            return f"{label}: output differs from the stored value"
        return None

    return check


def _power_ops(pkg, a: int):
    ml, lc = pkg.moment_lab, pkg.local_counts
    sextic = ml.PowerCounter(lc.PowerEquation(6, 1))
    octic = ml.PowerCounter(lc.PowerEquation(8, a))
    return [
        ("x^6-1,k=2", lambda: pkg.moment_lab.empirical_moment(sextic, 2, POWER_X)),
        (f"x^8-{a},k=2", lambda: pkg.moment_lab.empirical_moment(octic, 2, POWER_X)),
        (
            "trace x^6-1,k=2",
            lambda: pkg.moment_lab.convergence_trace(sextic, 2, list(POWER_CHECKPOINTS)),
        ),
    ]


def _torsion_ops(pkg, curve_name: str, cm_name: str, ell: int):
    ml, lc = pkg.moment_lab, pkg.local_counts
    curve = lc.parse_curve(curve_name)
    cm_curve = lc.parse_curve(cm_name)
    gl2 = ml.TorsionCounter(curve, 3)
    cm = ml.TorsionCounter(cm_curve, ell, ml.SplitFilter.split(cm_curve.cm))
    return [
        (f"{curve_name},ell=3,k=1", lambda: pkg.moment_lab.empirical_moment(gl2, 1, TORSION_X)),
        (f"{curve_name},ell=3,k=2", lambda: pkg.moment_lab.empirical_moment(gl2, 2, TORSION_X)),
        (
            f"{cm_name},ell={ell},split,k=1",
            lambda: pkg.moment_lab.empirical_moment(cm, 1, TORSION_CM_X),
        ),
    ]


# ---------------------------------------------------------------------------
# Exact limits: Burnside against the closed forms, and the oracle against
# Burnside.  Generator-only actions have no Burnside path of their own (it
# falls back to the oracle), so their counts are compared with stored values.


def oracle_catalog(quad_d: int) -> list[tuple[str, int]]:
    return [
        ("glm:6,3", 2),
        ("glm:12,3", 1),
        ("gl2:5", 4),
        (f"quad:5,{quad_d}", 4),
    ]


def _exact_ops(pkg, quad_d: int, stored: dict | None) -> list[Operation]:
    ra = pkg.residue_algebra
    ops = []

    def closed_form_op(descriptor, ks, want):
        def run():
            action = pkg.orbit_engine.build_action(descriptor)
            return [pkg.orbit_engine.burnside_moment(action, k) for k in ks]

        def check(got):
            expect = [want(k) for k in ks]
            if got != expect:
                return f"{descriptor}: burnside {got} != closed form {expect}"
            return None

        return Operation(descriptor, run, check)

    for d in ra.CLASS_NUMBER_ONE_D:
        spec = ra.QuadOrderSpec(d)
        for n in range(1, 17):
            want = lambda k, n=n, spec=spec: pkg.closed_forms.dk(n, spec)
            ops.append(closed_form_op(f"quad:{n},{d}", [1], want))
    for m in (1, 2, 3):
        for n in range(1, 13):
            want = lambda k, n=n: pkg.closed_forms.mk(n, 1)
            ops.append(closed_form_op(f"glm:{n},{m}", [1], want))
    for ell in PRIMES_TO_13:
        want = lambda k, ell=ell: pkg.closed_forms.gl2_moment(ell, k)
        ops.append(closed_form_op(f"gl2:{ell}", [1, 2, 3, 4], want))
    for n in range(1, 61):
        want = lambda k, n=n: pkg.closed_forms.mk(n, k)
        ops.append(closed_form_op(f"units:{n}", list(range(1, 7)), want))
    for descriptor, k in oracle_catalog(quad_d):
        ops.append(_oracle_op(pkg, descriptor, k, stored))
    return ops


def _oracle_op(pkg, descriptor: str, k: int, stored: dict | None) -> Operation:
    label = f"oracle {descriptor} k={k}"

    def run():
        action = pkg.orbit_engine.build_action(descriptor)
        oracle = pkg.orbit_engine.orbit_count_oracle(action, k)
        burnside = (
            pkg.orbit_engine.burnside_moment(action, k)
            if getattr(action, "perms", None) is not None
            else None
        )
        return oracle, burnside

    def check(result) -> str | None:
        oracle, burnside = result
        if burnside is not None and burnside != oracle:
            return f"{label}: oracle {oracle} != burnside {burnside}"
        if stored is not None and stored.get(label) != oracle:
            return f"{label}: oracle {oracle} != stored {stored.get(label)}"
        return None

    return Operation(label, run, check)
