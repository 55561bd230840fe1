"""Acceptance suite: one test per criterion, one printed line per check.

The empirical criteria run at their documented sizes (x = 10**6 for the
power scenarios, x = 10**5 for the elliptic ones) and tolerances (2%
relative, 5% relative/absolute for elliptic, 1% absolute for the
distribution atoms).  The slow-marked checks repeat the full-image torsion
moment at x = 10**6 and x = 10**7, the x^6 - 1 power moment at x = 10**8,
and pin the exact x^8 - 3 moment at x = 10**8 (deselect them with
-m "not slow").
"""

from fractions import Fraction

import pytest

from orbitmoments.closed_forms import gl2_moment, mk
from orbitmoments.local_counts import CURVE_PRESETS, PowerEquation
from orbitmoments.moment_lab import PowerCounter, TorsionCounter, empirical_moment
from orbitmoments.verify import TOL_ELLIPTIC, TOL_POWER, run_suite


def _run(results):
    failed = []
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}" + (f"  [{r.detail}]" if r.detail and not r.ok else ""))
        if not r.ok:
            failed.append(r)
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_criterion_1_orbit_identities():
    _run(run_suite("orbit-vs-closed-form"))


def test_criterion_2_number_field_orbits():
    _run(run_suite("number-field-orbits"))


def test_criterion_3_gl2_fixed_point_counts():
    _run(run_suite("gl2-fixed-points"))


def test_criterion_4_psi_partition():
    _run(run_suite("psi-partition"))


def test_criterion_5_formula_cross_identities():
    _run(run_suite("formula-identities"))


def test_criterion_6_power_moment_convergence():
    _run(run_suite("power-moments"))


@pytest.mark.slow
def test_criterion_6_power_moment_at_1e8():
    report = empirical_moment(PowerCounter(PowerEquation(6, 1)), 2, 10**8)
    assert report.predicted == mk(6, 2)
    print(f"x^6-1 k=2 x=10**8: empirical={float(report.empirical):.6f} rel_err={report.rel_err:.2e}")
    assert report.rel_err <= TOL_POWER
    # the sums the prime stream gave, pi(10**8) = 5761455 = 3 * 1920485
    assert (report.pi_x, report.empirical) == (5761455, Fraction(38407452, 1920485))
    octic = empirical_moment(PowerCounter(PowerEquation(8, 1)), 2, 10**8)
    assert octic.empirical == Fraction(126730424, 5761455)


@pytest.mark.slow
def test_criterion_6_power_moment_pinned_at_1e8():
    # x^8 - 3 takes Euler's criterion through pow_mod_array on a quarter of its primes
    report = empirical_moment(PowerCounter(PowerEquation(8, 3)), 2, 10**8)
    print(f"x^8-3 k=2 x=10**8: empirical={report.empirical} predicted={report.predicted}")
    assert report.predicted == 4
    assert report.empirical == Fraction(23042308, 5761455)


def test_criterion_7_torsion_full_image():
    _run(run_suite("torsion-gl2"))


@pytest.mark.slow
def test_criterion_7_torsion_full_image_at_1e6():
    report = empirical_moment(TorsionCounter(CURVE_PRESETS["17a3"], 3), 1, 10**6)
    assert report.predicted == gl2_moment(3, 1)
    print(f"17a3 ell=3 k=1 x=10**6: empirical={float(report.empirical):.6f} rel_err={report.rel_err:.4%}")
    assert report.rel_err <= TOL_ELLIPTIC


@pytest.mark.slow
def test_criterion_7_torsion_full_image_at_1e7():
    report = empirical_moment(TorsionCounter(CURVE_PRESETS["17a3"], 3), 1, 10**7)
    assert report.predicted == gl2_moment(3, 1)
    print(f"17a3 ell=3 k=1 x=10**7: empirical={float(report.empirical):.6f} rel_err={report.rel_err:.4%}")
    assert report.rel_err <= TOL_ELLIPTIC


def test_criterion_8_torsion_cm():
    _run(run_suite("torsion-cm"))


def test_criterion_9_distribution():
    _run(run_suite("distribution"))


def test_criterion_10_oracle_equivalence():
    _run(run_suite("oracle-equivalence"))
