"""Named verification suites: exact identities and convergence checks.

Each suite returns CheckResult rows; a suite passes when every row does.
Tolerances for the empirical suites are pinned here and may be overridden
(e.g. from the command line) but default to the documented values:
relative 2% for the Dirichlet-density scenarios at x = 10**6, 5% for the
elliptic scenarios at x = 10**5, 1% absolute for the distribution atoms.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .closed_forms import (
    cm_moment,
    dk,
    gl2_densities,
    gl2_moment,
    inert_partial_moment,
    mk,
    mk_divisor_sum,
    mk_euler_product,
    noncm_moment,
    split_densities,
)
from .core_arith import divisor_count, divisors
from .local_counts import CURVE_PRESETS, PowerEquation
from .moment_lab import (
    PowerCounter,
    PowerProductCounter,
    SplitFilter,
    TorsionCounter,
    characteristic_function,
    empirical_distribution,
    empirical_moment,
)
from .orbit_engine import (
    build_action,
    burnside_moment,
    fixed_point_histogram,
    orbit_count_oracle,
    orbit_size,
)
from .residue_algebra import CLASS_NUMBER_ONE_D, QuadOrderSpec, psi

X_POWER = 10**6
X_ELLIPTIC = 10**5
TOL_POWER = 0.02
TOL_ELLIPTIC = 0.05
TOL_ATOM = 0.01


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def _moment_row(label: str, report, tol: float) -> CheckResult:
    """A moment report within relative tol of its prediction; no prediction fails."""
    rel = report.rel_err
    rel_text = "none" if rel is None else f"{rel:.4%}"
    return _check(
        f"{label}: within {tol:.0%} of {report.predicted}",
        rel is not None and rel <= tol,
        f"empirical={float(report.empirical):.6f} rel_err={rel_text}",
    )


# ---------------------------------------------------------------------------

def suite_orbit_vs_closed_form() -> list[CheckResult]:
    """Exact orbit identities for the unit, affine, and GL2 actions."""
    results = []
    bad = []
    for n in range(1, 61):
        action = build_action(f"units:{n}")
        for k in range(1, 7):
            if burnside_moment(action, k) != mk(n, k):
                bad.append(("units", n, k))
    results.append(
        _check("units(n) moments equal M_k(n) for n<=60, k<=6", not bad, str(bad[:3]))
    )
    bad = []
    for n in range(1, 31):
        action = build_action(f"semidirect:{n}")
        for k in range(1, 4):
            if burnside_moment(action, k) != mk(n, 2 * k - 1):
                bad.append((n, k))
    results.append(
        _check(
            "semidirect(n) moments equal M_(2k-1)(n) for n<=30, k<=3",
            not bad,
            str(bad[:3]),
        )
    )
    bad = []
    for ell in (2, 3, 5, 7, 11, 13):
        action = build_action(f"gl2:{ell}")
        for k in range(1, 5):
            if burnside_moment(action, k) != gl2_moment(ell, k):
                bad.append((ell, k))
    results.append(
        _check(
            "gl2(ell) moments match the closed form for ell in {2..13}, k<=4",
            not bad,
            str(bad[:3]),
        )
    )
    return results


def suite_number_field_orbits() -> list[CheckResult]:
    """Orbit counts equal divisor counts: d(n) for GL_m, d_K(n) for units of O_K/n."""
    results = []
    bad = []
    for m in (1, 2, 3):
        for n in range(1, 13):
            if burnside_moment(build_action(f"glm:{n},{m}"), 1) != divisor_count(n):
                bad.append((n, m))
    results.append(
        _check("glm(n,m) orbit count equals d(n) for n<=12, m<=3", not bad, str(bad[:3]))
    )
    bad = []
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for n in range(1, 21):
            if burnside_moment(build_action(f"quad:{n},{d}"), 1) != dk(n, spec):
                bad.append((n, d))
    results.append(
        _check(
            "quad-unit orbit count equals d_K(n) for n<=20, all nine fields",
            not bad,
            str(bad[:3]),
        )
    )
    return results


def suite_gl2_fixed_points() -> list[CheckResult]:
    """Histogram of fixed-point counts over GL2(F_ell)."""
    results = []
    for ell in (2, 3, 5, 7):
        hist = fixed_point_histogram(build_action(f"gl2:{ell}"))
        want_line = ell**3 - 2 * ell - 1
        ok = hist.get(ell, 0) == want_line and hist.get(ell * ell, 0) == 1
        results.append(
            _check(
                f"gl2({ell}): {want_line} elements fix exactly {ell} points, 1 fixes {ell * ell}",
                ok,
                f"hist={hist}",
            )
        )
    return results


def suite_psi_partition() -> list[CheckResult]:
    """Primitive-vector counts partition (Z/nZ)**m, and appear as glm orbit sizes."""
    results = []
    bad = [
        (n, m)
        for m in (1, 2, 3)
        for n in range(1, 201)
        if sum(psi(n // r, m) for r in divisors(n)) != n**m
    ]
    results.append(
        _check("sum of psi(n/r) over r|n equals n**m for n<=200, m<=3", not bad, str(bad[:3]))
    )
    bad = []
    for n in range(1, 11):
        action = build_action(f"glm:{n},2")
        for r in divisors(n):
            if orbit_size(action, r % n) != psi(n // r, 2):
                bad.append((n, r))
    results.append(
        _check("glm(n,2) orbit of r*e1 has size psi(n/r) for n<=10", not bad, str(bad[:3]))
    )
    return results


def suite_formula_identities() -> list[CheckResult]:
    """Cross-identities between independently published forms of the same value."""
    results = []
    bad = [
        (n, k)
        for n in range(1, 2001)
        for k in range(9)
        if mk_divisor_sum(n, k) != mk_euler_product(n, k)
    ]
    results.append(
        _check("M_k divisor sum equals Euler product for n<=2000, k<=8", not bad, str(bad[:3]))
    )
    bad = [
        (ell, k)
        for ell in (2, 3, 5, 7, 11, 13)
        for k in range(1, 7)
        if gl2_moment(ell, k) != noncm_moment(ell, k)
    ]
    results.append(
        _check("gl2_moment equals the noncm ell-factor for ell<=13, k<=6", not bad, str(bad))
    )
    bad = []
    for ell in (3, 5, 7, 11, 13):
        for k in range(7):
            for d in (2, 4):
                closed = cm_moment(ell, k, d)  # internally cross-checks both forms
                if k == 0 and closed != 1:
                    bad.append((ell, k, d))
    results.append(
        _check("cm_moment two forms agree (ell<=13, k<=6, d_K in {2,4})", not bad, str(bad))
    )
    bad = []
    for n in range(1, 501):
        if mk(n, 1) != divisor_count(n):
            bad.append(n)
    for ell in (3, 5, 7, 11, 13):
        if gl2_moment(ell, 1) != 2:
            bad.append(("gl2", ell))
        for d in (2, 4):
            if cm_moment(ell, 1, d) != Fraction(d + 2, 2):
                bad.append(("cm", ell, d))
    for spec_d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(spec_d)
        for n in range(1, 31):
            if dk(n, spec) < 1:
                bad.append(("dk", n, spec_d))
    results.append(
        _check(
            "k=1 specializations reproduce d(n), 2, and (d_K+2)/2",
            not bad,
            str(bad[:3]),
        )
    )
    bad = []
    for ell in (3, 5, 7, 11, 13, 17):
        for d in (2, 4):
            if sum(split_densities(ell, d)) != Fraction(1, 2):
                bad.append((ell, d))
        if sum(gl2_densities(ell)) != 1:
            bad.append(("gl2", ell))
        for k in range(7):
            if inert_partial_moment(ell, k) != mk(ell, k) / 2:
                bad.append(("inert", ell, k))
    results.append(
        _check("density partitions and the half-M_k identity hold", not bad, str(bad[:3]))
    )
    return results


def suite_power_moments(tol: float = TOL_POWER, x: int = X_POWER) -> list[CheckResult]:
    """Convergence of prime averages for the power-equation scenarios."""
    results = []
    for n, a, k in ((4, 1, 1), (4, 1, 2), (6, 1, 2), (3, 2, 1), (8, 3, 2)):
        report = empirical_moment(PowerCounter(PowerEquation(n, a)), k, x)
        results.append(_moment_row(f"power n={n} a={a} k={k}", report, tol))
    report = empirical_moment(PowerProductCounter(PowerEquation(6, 2), 1, 1), 1, x)
    results.append(_moment_row("product n=6 a=2 k1=k2=1", report, tol))
    return results


def suite_torsion_gl2(tol: float = TOL_ELLIPTIC, x: int = X_ELLIPTIC) -> list[CheckResult]:
    """Full-image torsion scenario: curve 17a3 at ell = 3."""
    results = []
    curve = CURVE_PRESETS["17a3"]
    for k in (1, 2):
        report = empirical_moment(TorsionCounter(curve, 3), k, x)
        results.append(_moment_row(f"17a3 ell=3 k={k}", report, tol))
    dist = empirical_distribution(TorsionCounter(curve, 3), x)
    predicted = dist.predicted_masses or {}
    for value in (1, 3, 9):
        got, want = dist.mass(value), predicted.get(value)
        results.append(
            _check(
                f"17a3 ell=3 mass at {value}: within {tol:.0%} absolute of {want}",
                want is not None and abs(float(got - want)) <= tol,
                f"empirical={float(got):.5f} predicted={want}",
            )
        )
    return results


def suite_torsion_cm(tol: float = TOL_ELLIPTIC, x: int = X_ELLIPTIC) -> list[CheckResult]:
    """CM scenarios: y**2 = x**3 - x unconditioned and splitting-conditioned at
    k = 1, and both CM models at k = 2 and a split ell, where the masses of
    a split Cartan subgroup first part from those of an inert one."""
    results = []
    for name, ell in (("cm:-1", 5), ("cm:-3", 7)):
        report = empirical_moment(TorsionCounter(CURVE_PRESETS[name], ell), 2, x)
        results.append(_moment_row(f"{name} ell={ell} k=2", report, tol))
    curve = CURVE_PRESETS["cm:-1"]
    spec = curve.cm
    for ell in (5, 3):
        report = empirical_moment(TorsionCounter(curve, ell), 1, x)
        results.append(_moment_row(f"cm:-1 ell={ell} k=1", report, tol))
        for part, filt in (("inert+ramified", SplitFilter.nonsplit), ("split", SplitFilter.split)):
            report = empirical_moment(TorsionCounter(curve, ell, filt(spec)), 1, x)
            results.append(_moment_row(f"cm:-1 ell={ell} {part} part", report, tol))
    return results


def suite_distribution(tol_atom: float = TOL_ATOM, x: int = X_POWER) -> list[CheckResult]:
    """Value distribution of the n=4 cyclotomic scenario, plus the series check."""
    results = []
    dist = empirical_distribution(PowerCounter(PowerEquation(4, 1)), x)
    for value in (2, 4):
        got = dist.mass(value)
        results.append(
            _check(
                f"power n=4 mass at {value}: within {tol_atom:.0%} absolute of 1/2",
                abs(float(got) - 0.5) <= tol_atom,
                f"empirical={float(got):.5f}",
            )
        )
    atoms = dist.predicted_masses or {}
    moments = [Fraction(1)] + [mk(4, k) for k in range(1, 26)]
    for t in (0.1, 0.5, 0.9):
        series, tail = characteristic_function(moments, t, value_bound=4)
        direct = sum(float(m) * cmath.exp(1j * t * v) for v, m in atoms.items())
        results.append(
            _check(
                f"characteristic function at t={t}: series within tail bound of atom sum",
                abs(series - direct) <= tail + 1e-12,
                f"|diff|={abs(series - direct):.3e} tail={tail:.3e}",
            )
        )
    return results


def suite_oracle_equivalence() -> list[CheckResult]:
    """Burnside evaluation against direct orbit counting on tuple spaces.

    Two independent derivations: the fixed-point histogram (invariant
    factors of g - I for matrix actions, the gcd(d - 1, n) closed form for
    semidirect) against orbit labels propagated over the generators alone.
    """
    catalog = (
        [f"units:{n}" for n in range(1, 25)]
        + [f"semidirect:{n}" for n in range(1, 9)]
        + ["gl2:2", "gl2:3", "gl2:5"]
        + [f"glm:{n},2" for n in range(1, 7)]
        + [f"glm:{n},3" for n in range(1, 5)]
        + [f"quad:{n},{d}" for d in CLASS_NUMBER_ONE_D for n in range(1, 9)]
    )
    bad = []
    compared = 0
    for desc in catalog:
        action = build_action(desc)
        for k in range(1, 7):
            work = action.size**k
            if work > 10**6 or work * len(action.generators) > 3 * 10**6:
                break
            compared += 1
            if burnside_moment(action, k) != orbit_count_oracle(action, k):
                bad.append((desc, k))
    return [
        _check(
            f"burnside equals orbit oracle on {compared} (action, k) pairs",
            not bad,
            str(bad[:3]),
        )
    ]


SUITES = {
    "orbit-vs-closed-form": suite_orbit_vs_closed_form,
    "number-field-orbits": suite_number_field_orbits,
    "gl2-fixed-points": suite_gl2_fixed_points,
    "psi-partition": suite_psi_partition,
    "formula-identities": suite_formula_identities,
    "power-moments": suite_power_moments,
    "torsion-gl2": suite_torsion_gl2,
    "torsion-cm": suite_torsion_cm,
    "distribution": suite_distribution,
    "oracle-equivalence": suite_oracle_equivalence,
}


def run_suite(name: str, tol: float | None = None) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(run_suite(suite_name, tol))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}, all")
    suite = SUITES[name]
    tolerant = ("power-moments", "torsion-gl2", "torsion-cm", "distribution")
    if tol is not None and name in tolerant:
        return suite(tol)
    return suite()
