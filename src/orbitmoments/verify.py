"""Named verification suites: exact identities and convergence checks.

run_suite gives a suite's CheckResult rows, and the suite passes when
every row does: first its rows of the scenario table SCENARIOS, then the
exact checks of its SUITES entry.  Each scenario has its x and its
default tolerance: relative 2% for the Dirichlet-density scenarios at
x = 10**6, 5% for the elliptic scenarios at x = 10**5 (absolute for
their masses), 1% absolute for the distribution atoms.  A tolerance
passed to run_suite (verify --tol), a finite number >= 0, replaces every
default.  A row whose computation raises ArithmeticError fails with its
message, as does a suite that raises one outside its rows.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .closed_forms import (
    cm_masses,
    cm_moment,
    dk,
    gl2_masses,
    gl2_moment,
    mk,
    mk_divisor_sum,
    mk_euler_product,
    moment_of,
    noncm_moment,
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
from .orbit_engine import build_action, burnside_moment, fixed_point_histogram
from .orbit_oracle import orbit_count_oracle, orbit_size
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


def _every(name: str, cases, holds) -> CheckResult:
    """One row: holds(*case) for every case; the detail names the first failures."""
    try:
        bad = [case for case in cases if not holds(*case)]
    except ArithmeticError as exc:
        return _check(name, False, str(exc))
    return _check(name, not bad, str(bad[:3]))


# ---------------------------------------------------------------------------

def suite_orbit_vs_closed_form() -> list[CheckResult]:
    """Exact orbit identities for the unit, affine, and GL2 actions."""
    units = {n: build_action(f"units:{n}") for n in range(1, 61)}
    semidirect = {n: build_action(f"semidirect:{n}") for n in range(1, 31)}
    gl2 = {ell: build_action(f"gl2:{ell}") for ell in (2, 3, 5, 7, 11, 13)}
    return [
        _every(
            "units(n) moments equal M_k(n) for n<=60, k<=6",
            [(n, k) for n in units for k in range(1, 7)],
            lambda n, k: burnside_moment(units[n], k) == mk(n, k),
        ),
        _every(
            "semidirect(n) moments equal M_(2k-1)(n) for n<=30, k<=3",
            [(n, k) for n in semidirect for k in range(1, 4)],
            lambda n, k: burnside_moment(semidirect[n], k) == mk(n, 2 * k - 1),
        ),
        _every(
            "gl2(ell) moments match the closed form for ell in {2..13}, k<=4",
            [(ell, k) for ell in gl2 for k in range(1, 5)],
            lambda ell, k: burnside_moment(gl2[ell], k) == gl2_moment(ell, k),
        ),
    ]


def suite_number_field_orbits() -> list[CheckResult]:
    """Orbit counts equal divisor counts: d(n) for GL_m, d_K(n) for units of O_K/n."""
    return [
        _every(
            "glm(n,m) orbit count equals d(n) for n<=12, m<=3",
            [(n, m) for m in (1, 2, 3) for n in range(1, 13)],
            lambda n, m: burnside_moment(build_action(f"glm:{n},{m}"), 1) == divisor_count(n),
        ),
        _every(
            "quad-unit orbit count equals d_K(n) for n<=20, all nine fields",
            [(n, d) for d in CLASS_NUMBER_ONE_D for n in range(1, 21)],
            lambda n, d: burnside_moment(build_action(f"quad:{n},{d}"), 1)
            == dk(n, QuadOrderSpec(d)),
        ),
    ]


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
    glm = {n: build_action(f"glm:{n},2") for n in range(1, 11)}
    return [
        _every(
            "sum of psi(n/r) over r|n equals n**m for n<=200, m<=3",
            [(n, m) for m in (1, 2, 3) for n in range(1, 201)],
            lambda n, m: sum(psi(n // r, m) for r in divisors(n)) == n**m,
        ),
        _every(
            "glm(n,2) orbit of r*e1 has size psi(n/r) for n<=10",
            [(n, r) for n in glm for r in divisors(n)],
            lambda n, r: orbit_size(glm[n], r % n) == psi(n // r, 2),
        ),
    ]


def suite_formula_identities() -> list[CheckResult]:
    """Cross-identities between independently published forms of the same value."""
    ells = (3, 5, 7, 11, 13)
    k1 = {
        "mk": lambda n: mk(n, 1) == divisor_count(n),
        "gl2": lambda ell: gl2_moment(ell, 1) == 2,
        "cm": lambda ell, d: cm_moment(ell, 1, d) == Fraction(d + 2, 2),
        "dk": lambda n, d: dk(n, QuadOrderSpec(d)) >= 1,
    }
    return [
        _every(
            "M_k divisor sum equals Euler product for n<=2000, k<=8",
            [(n, k) for n in range(1, 2001) for k in range(9)],
            lambda n, k: mk_divisor_sum(n, k) == mk_euler_product(n, k),
        ),
        _every(
            "gl2_moment equals the noncm ell-factor for ell<=13, k<=6",
            [(ell, k) for ell in (2,) + ells for k in range(1, 7)],
            lambda ell, k: gl2_moment(ell, k) == noncm_moment(ell, k),
        ),
        _every(
            "cm_moment two forms agree (ell<=13, k<=6, d_K in {2,4})",
            [(ell, k, d) for ell in ells for k in range(7) for d in (2, 4)],
            lambda ell, k, d: cm_moment(ell, k, d) == moment_of(cm_masses(ell, d), k),
        ),
        _every(
            "k=1 specializations reproduce d(n), 2, and (d_K+2)/2",
            [("mk", n) for n in range(1, 501)]
            + [("gl2", ell) for ell in ells]
            + [("cm", ell, d) for ell in ells for d in (2, 4)]
            + [("dk", n, d) for d in CLASS_NUMBER_ONE_D for n in range(1, 31)],
            lambda form, *args: k1[form](*args),
        ),
        _every(
            "density partitions and the half-M_k identity hold",
            [(ell, d) for ell in ells + (17,) for d in (2, 4)],
            lambda ell, d: sum(cm_masses(ell, d, True).values()) == Fraction(1, 2)
            and sum(gl2_masses(ell).values()) == 1
            and all(moment_of(cm_masses(ell, d, False), k) == mk(ell, k) / 2 for k in range(7)),
        ),
    ]


# The empirical suites, one row each: (suite, label, counter, k or the atom
# values, x, default tol).  A k gives a moment row, within relative tol of
# its limit; atom values give one mass row each, within absolute tol of
# counter.masses().  The CM rows at k = 2 sit at a split ell, where the
# masses of a split Cartan subgroup first part from those of an inert one.
_POWER, _ELLIPTIC = (X_POWER, TOL_POWER), (X_ELLIPTIC, TOL_ELLIPTIC)
_17A3, _CM1 = CURVE_PRESETS["17a3"], CURVE_PRESETS["cm:-1"]
_SPLIT, _NONSPLIT = SplitFilter.split(_CM1.cm), SplitFilter.nonsplit(_CM1.cm)
SCENARIOS = (
    ("power-moments", "power n=4 a=1 k=1", PowerCounter(PowerEquation(4, 1)), 1, *_POWER),
    ("power-moments", "power n=4 a=1 k=2", PowerCounter(PowerEquation(4, 1)), 2, *_POWER),
    ("power-moments", "power n=6 a=1 k=2", PowerCounter(PowerEquation(6, 1)), 2, *_POWER),
    ("power-moments", "power n=3 a=2 k=1", PowerCounter(PowerEquation(3, 2)), 1, *_POWER),
    ("power-moments", "power n=8 a=3 k=2", PowerCounter(PowerEquation(8, 3)), 2, *_POWER),
    ("power-moments", "product n=6 a=2 k1=k2=1",
     PowerProductCounter(PowerEquation(6, 2), 1, 1), 1, *_POWER),
    ("torsion-gl2", "17a3 ell=3 k=1", TorsionCounter(_17A3, 3), 1, *_ELLIPTIC),
    ("torsion-gl2", "17a3 ell=3 k=2", TorsionCounter(_17A3, 3), 2, *_ELLIPTIC),
    ("torsion-gl2", "17a3 ell=3", TorsionCounter(_17A3, 3), (1, 3, 9), *_ELLIPTIC),
    ("torsion-cm", "cm:-1 ell=5 k=2", TorsionCounter(_CM1, 5), 2, *_ELLIPTIC),
    ("torsion-cm", "cm:-3 ell=7 k=2", TorsionCounter(CURVE_PRESETS["cm:-3"], 7), 2, *_ELLIPTIC),
    ("torsion-cm", "cm:-1 ell=5 k=1", TorsionCounter(_CM1, 5), 1, *_ELLIPTIC),
    ("torsion-cm", "cm:-1 ell=5 inert+ramified part", TorsionCounter(_CM1, 5, _NONSPLIT), 1,
     *_ELLIPTIC),
    ("torsion-cm", "cm:-1 ell=5 split part", TorsionCounter(_CM1, 5, _SPLIT), 1, *_ELLIPTIC),
    ("torsion-cm", "cm:-1 ell=3 k=1", TorsionCounter(_CM1, 3), 1, *_ELLIPTIC),
    ("torsion-cm", "cm:-1 ell=3 inert+ramified part", TorsionCounter(_CM1, 3, _NONSPLIT), 1,
     *_ELLIPTIC),
    ("torsion-cm", "cm:-1 ell=3 split part", TorsionCounter(_CM1, 3, _SPLIT), 1, *_ELLIPTIC),
    ("distribution", "power n=4", PowerCounter(PowerEquation(4, 1)), (2, 4), X_POWER, TOL_ATOM),
)


def _moment_row(label: str, report, tol: float) -> CheckResult:
    """A moment report within relative tol of its prediction; no prediction fails."""
    rel = report.rel_err
    rel_text = "none" if rel is None else f"{rel:.4%}"
    return _check(
        f"{label}: within {tol:.0%} of {report.predicted}",
        rel is not None and rel <= tol,
        f"empirical={float(report.empirical):.6f} rel_err={rel_text}",
    )


def _scenario_rows(suite: str, tol: float | None = None) -> list[CheckResult]:
    """The checks of the SCENARIOS rows of one suite, at tol or each row's default."""
    results = []
    for name, label, counter, k, x, default in SCENARIOS:
        if name != suite:
            continue
        row_tol = default if tol is None else tol
        if isinstance(k, int):
            results.append(_moment_row(label, empirical_moment(counter, k, x), row_tol))
            continue
        dist, predicted = empirical_distribution(counter, x), counter.masses() or {}
        for value in k:
            got, want = dist.mass(value), predicted.get(value)
            results.append(
                _check(
                    f"{label} mass at {value}: within {row_tol:.0%} absolute of {want}",
                    want is not None and abs(float(got - want)) <= row_tol,
                    f"empirical={float(got):.5f} predicted={want}",
                )
            )
    return results


def suite_distribution() -> list[CheckResult]:
    """The characteristic-function series of the n=4 cyclotomic scenario against its atoms."""
    results = []
    atoms = PowerCounter(PowerEquation(4, 1)).masses()
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
    actions = {desc: build_action(desc) for desc in catalog}
    cases = [
        (desc, k)
        for desc, action in actions.items()
        for k in range(1, 7)
        if action.size**k <= 10**6 and action.size**k * len(action.generators) <= 3 * 10**6
    ]
    return [
        _every(
            f"burnside equals orbit oracle on {len(cases)} (action, k) pairs",
            cases,
            lambda desc, k: burnside_moment(actions[desc], k)
            == orbit_count_oracle(actions[desc], k),
        )
    ]


# The exact checks of each suite, which run_suite gives after its SCENARIOS rows.
SUITES = {
    "orbit-vs-closed-form": suite_orbit_vs_closed_form,
    "number-field-orbits": suite_number_field_orbits,
    "gl2-fixed-points": suite_gl2_fixed_points,
    "psi-partition": suite_psi_partition,
    "formula-identities": suite_formula_identities,
    "power-moments": lambda: [],
    "torsion-gl2": lambda: [],
    "torsion-cm": lambda: [],
    "distribution": suite_distribution,
    "oracle-equivalence": suite_oracle_equivalence,
}


def run_suite(name: str, tol: float | None = None) -> list[CheckResult]:
    """The rows of one suite, named as in SUITES."""
    if tol is not None and not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}")
    try:
        return _scenario_rows(name, tol) + SUITES[name]()
    except ArithmeticError as exc:
        return [_check(name, False, str(exc))]
