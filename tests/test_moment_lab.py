import cmath
import json
from fractions import Fraction

import pytest

from orbitmoments.closed_forms import mk
from orbitmoments.core_arith import sieve_primes
from orbitmoments.local_counts import CURVE_PRESETS, PowerEquation
from orbitmoments.moment_lab import (
    PowerCounter,
    PowerProductCounter,
    SplitFilter,
    TorsionCounter,
    characteristic_function,
    conditioned_moment,
    convergence_trace,
    empirical_distribution,
    empirical_moment,
    predicted_moment,
    report_from_json_dict,
    trace_to_csv,
)
from orbitmoments.orbit_engine import build_units

X_SMALL = 30_000


def test_power_counter_side_conditions():
    PowerCounter(PowerEquation(3, 2))  # odd n: any square-free positive a
    PowerCounter(PowerEquation(8, 3))  # even n with a not dividing n
    with pytest.raises(ValueError):
        PowerCounter(PowerEquation(6, 2))  # a divides even n
    with pytest.raises(ValueError):
        PowerCounter(PowerEquation(3, 4))  # not square-free
    with pytest.raises(ValueError):
        PowerCounter(PowerEquation(3, -2))


def test_product_counter_validation():
    PowerProductCounter(PowerEquation(6, 2), PowerEquation(6, 1), 1, 1)
    with pytest.raises(ValueError):
        PowerProductCounter(PowerEquation(6, 2), PowerEquation(5, 1), 1, 1)
    with pytest.raises(ValueError):
        PowerProductCounter(PowerEquation(6, 2), PowerEquation(6, 2), 1, 1)
    with pytest.raises(ValueError):
        PowerProductCounter(PowerEquation(6, 2), PowerEquation(6, 1), 0, 1)


def test_torsion_counter_validation():
    with pytest.raises(ValueError):
        TorsionCounter(CURVE_PRESETS["17a3"], 4)


def test_empirical_exact_average():
    # average of gcd(p-1, 4) over odd primes <= 100, p = 2 excluded
    counter = PowerCounter(PowerEquation(4, 1))
    report = empirical_moment(counter, 1, 100)
    primes = [p for p in sieve_primes(100)]
    total = sum(0 if p == 2 else __import__("math").gcd(p - 1, 4) for p in primes)
    assert report.empirical == Fraction(total, len(primes))
    assert report.excluded == 1
    assert report.pi_x == len(primes)


def test_k_zero_reads_excluded_bookkeeping():
    counter = PowerCounter(PowerEquation(4, 1))
    report = empirical_moment(counter, 0, X_SMALL)
    assert report.empirical == Fraction(report.pi_x - report.excluded, report.pi_x)
    assert report.predicted == 1


def test_good_only_normalization():
    counter = PowerCounter(PowerEquation(4, 1))
    report = empirical_moment(counter, 0, X_SMALL, good_only=True)
    assert report.empirical == 1


def test_histogram_totals():
    counter = PowerCounter(PowerEquation(4, 1))
    report = empirical_moment(counter, 1, X_SMALL)
    assert sum(report.histogram.values()) == report.pi_x
    assert set(report.histogram) <= {0, 1, 2, 4}


def test_power_moment_convergence_small():
    for n, a, k, want in ((4, 1, 1, mk(4, 1)), (3, 2, 1, mk(3, 0)), (6, 1, 2, mk(6, 2))):
        report = empirical_moment(PowerCounter(PowerEquation(n, a)), k, X_SMALL)
        assert report.predicted == want
        assert report.rel_err < 0.05, (n, a, k, report.rel_err)


def test_product_moment_prediction():
    counter = PowerProductCounter(PowerEquation(6, 2), PowerEquation(6, 1), 1, 1)
    report = empirical_moment(counter, 1, X_SMALL)
    assert report.predicted == mk(6, 1)
    assert report.rel_err < 0.05
    assert predicted_moment(counter, 2) == mk(6, 3)


def test_threads_do_not_change_results():
    counter = PowerCounter(PowerEquation(8, 3))
    single = empirical_moment(counter, 2, X_SMALL)
    sharded = empirical_moment(counter, 2, X_SMALL, threads=4)
    assert single.empirical == sharded.empirical
    assert single.histogram == sharded.histogram
    assert single.pi_x == sharded.pi_x


def test_torsion_moment_structure():
    counter = TorsionCounter(CURVE_PRESETS["cm:-1"], 3)
    report = empirical_moment(counter, 1, 3000)
    assert set(report.histogram) <= {0, 1, 3, 9}
    assert report.predicted == 2  # (d_K(3) + 2)/2 with 3 inert in Q(i)
    assert report.rel_err < 0.15


def test_torsion_gl2_prediction():
    counter = TorsionCounter(CURVE_PRESETS["17a3"], 3)
    from orbitmoments.closed_forms import gl2_moment

    assert predicted_moment(counter, 2) == gl2_moment(3, 2)


def test_conditioned_partition_is_exact():
    curve = CURVE_PRESETS["cm:-1"]
    spec = curve.cm
    x = 3000
    plain = empirical_moment(TorsionCounter(curve, 3), 1, x)
    split = conditioned_moment(TorsionCounter(curve, 3, SplitFilter.split(spec)), 1, x)
    nonsplit = conditioned_moment(
        TorsionCounter(curve, 3, SplitFilter.nonsplit(spec)), 1, x
    )
    assert split.empirical + nonsplit.empirical == plain.empirical
    assert split.predicted + nonsplit.predicted == plain.predicted


def test_conditioned_requires_filter():
    with pytest.raises(ValueError):
        conditioned_moment(TorsionCounter(CURVE_PRESETS["cm:-1"], 3), 1, 100)


def test_conditioned_k0_densities():
    curve = CURVE_PRESETS["cm:-1"]
    spec = curve.cm
    report = conditioned_moment(
        TorsionCounter(curve, 5, SplitFilter.split(spec)), 0, X_SMALL
    )
    assert report.predicted == Fraction(1, 2)
    assert abs(float(report.empirical) - 0.5) < 0.02


def test_histogram_support_within_action_fixed_point_set():
    # nonzero empirical values must be fixed-point counts of the action
    from orbitmoments.orbit_engine import build_action, fixed_point_histogram

    pairs = (
        (PowerCounter(PowerEquation(4, 1)), "units:4"),
        (PowerCounter(PowerEquation(6, 1)), "units:6"),
        (TorsionCounter(CURVE_PRESETS["17a3"], 3), "gl2:3"),
    )
    for counter, descriptor in pairs:
        report = empirical_moment(counter, 1, 5000)
        support = set(fixed_point_histogram(build_action(descriptor)))
        assert set(report.histogram) - {0} <= support, (counter.scenario, descriptor)


def test_distribution_report():
    counter = PowerCounter(PowerEquation(4, 1))
    action = build_units(4)
    dist = empirical_distribution(counter, X_SMALL, action=action, t_values=(0.5,))
    assert dist.predicted_masses == {4: Fraction(1, 2), 2: Fraction(1, 2)}
    assert sum(dist.masses.values()) == 1
    assert dist.cdf[-1][1] == 1
    values = [v for v, _ in dist.cdf]
    assert values == sorted(values)
    phi = dist.char_samples[0.5]
    direct = sum(float(m) * cmath.exp(0.5j * v) for v, m in dist.masses.items())
    assert abs(phi - direct) < 1e-12


def test_characteristic_function_basics():
    moments = [Fraction(1)] + [mk(4, k) for k in range(1, 21)]
    value, tail = characteristic_function(moments, 0.0, value_bound=4)
    assert value == 1
    plus, _ = characteristic_function(moments, 0.5, value_bound=4)
    minus, _ = characteristic_function(moments, -0.5, value_bound=4)
    assert abs(plus - minus.conjugate()) < 1e-12


def test_characteristic_function_matches_atoms():
    moments = [Fraction(1)] + [mk(4, k) for k in range(1, 21)]
    atoms = {4: Fraction(1, 2), 2: Fraction(1, 2)}
    for t in (0.1, 0.5, 0.9):
        value, tail = characteristic_function(moments, t, value_bound=4)
        direct = sum(float(m) * cmath.exp(1j * t * v) for v, m in atoms.items())
        assert abs(value - direct) <= tail + 1e-12


def test_characteristic_function_rejects_large_t():
    with pytest.raises(ValueError):
        characteristic_function([Fraction(1)], 1.0, value_bound=4)


def test_convergence_trace():
    counter = PowerCounter(PowerEquation(6, 1))
    checkpoints = [1000, 5000, 20000]
    reports = convergence_trace(counter, 2, checkpoints)
    assert [r.x for r in reports] == checkpoints
    for r in reports:
        assert r.pi_x == sum(1 for _ in sieve_primes(r.x))
        assert r.predicted == mk(6, 2)
    # one-pass snapshots must equal independent runs
    for r in reports:
        fresh = empirical_moment(counter, 2, r.x)
        assert r.empirical == fresh.empirical


def test_trace_checkpoint_beyond_last_prime():
    counter = PowerCounter(PowerEquation(4, 1))
    reports = convergence_trace(counter, 1, [23, 24])
    assert [r.x for r in reports] == [23, 24]
    assert reports[0].empirical == reports[1].empirical


def test_trace_csv_columns():
    counter = PowerCounter(PowerEquation(6, 1))
    csv = trace_to_csv(convergence_trace(counter, 1, [1000, 2000]))
    lines = csv.strip().split("\n")
    assert lines[0] == "x,pi_x,empirical,predicted,rel_err"
    assert len(lines) == 3
    assert lines[1].startswith("1000,168,")


def test_report_json_roundtrip():
    # x^3 = 2 has no root for about a third of the primes, so hist[0] holds
    # far more than the two excluded primes (2 and 3)
    cases = ((PowerEquation(8, 3), 2, 5000), (PowerEquation(3, 2), 1, 10**4))
    for eq, k, x in cases:
        report = empirical_moment(PowerCounter(eq), k, x)
        blob = json.dumps(report.to_json_dict())
        back = report_from_json_dict(json.loads(blob))
        assert back.empirical == report.empirical
        assert back.predicted == report.predicted
        assert back.histogram == report.histogram
        assert back.scenario == report.scenario
        assert back.excluded == report.excluded
    assert report.excluded == 2
    assert report.histogram[0] > report.excluded
