import cmath
import functools
import json
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import primes_between
from orbitmoments import moment_lab, orbit_engine
from orbitmoments.closed_forms import (
    cm_moment,
    dk,
    gl2_moment,
    mk,
)
from orbitmoments.core_arith import (
    POW_ARRAY_LIMIT,
    SIEVE_SEGMENT,
    kronecker_symbol,
    prime_segments,
    value_counts,
)
from orbitmoments.local_counts import (
    CURVE_PRESETS,
    BadPrimes,
    PowerEquation,
    WeierstrassCurve,
    count_roots_array,
    count_roots_formula,
    ec_torsion_count_array,
    parse_curve,
)
from orbitmoments.moment_lab import (
    MomentReport,
    PowerCounter,
    PowerProductCounter,
    SplitFilter,
    TorsionCounter,
    characteristic_function,
    clear_stream_memo,
    convergence_trace,
    empirical_distribution,
    empirical_moment,
    predicted_moment,
    report_from_json_dict,
    trace_to_csv,
)
from orbitmoments.residue_algebra import QuadOrderSpec

X_SMALL = 30_000


def reference_moments(counter, ks, x):
    """The per-prime loop the segment accumulator replaces.

    Returns ({k: sum of N_p**k}, histogram, excluded, filtered, zero_valued,
    pi(x)), with the exclusion rule and the filter written out one prime at
    a time.  Power values come from count_roots_formula one prime at a
    time, torsion values from one ec_torsion_count_array call over every
    valued prime.
    """
    primes = primes_between(2, x + 1)
    valued = []
    excluded = filtered = 0
    filt = getattr(counter, "split_filter", None)
    for p in primes:
        if isinstance(counter, TorsionCounter):
            bad = p < 5 or (counter.ell * counter.curve.discriminant) % p == 0
        else:
            bad = math.gcd(p, counter.eq.n * counter.eq.a) != 1
        if bad:
            excluded += 1
        elif filt is not None and filt.keep_split != (
            kronecker_symbol(filt.spec.discriminant, p) == 1
        ):
            filtered += 1
        else:
            valued.append(p)
    if isinstance(counter, TorsionCounter):
        lanes = np.array(valued, dtype=np.int64)
        values = ec_torsion_count_array(counter.curve, lanes, counter.ell).tolist()
    elif isinstance(counter, PowerCounter):
        values = [count_roots_formula(counter.eq, p) for p in valued]
    else:
        values = [
            count_roots_formula(counter.eq, p) ** counter.k1
            * count_roots_formula(PowerEquation(counter.eq.n, 1), p) ** counter.k2
            for p in valued
        ]
    hist = Counter(values)
    if excluded + filtered:
        hist[0] += excluded + filtered
    totals = {k: sum(v**k for v in values) for k in ks}
    return totals, dict(hist), excluded, filtered, values.count(0), len(primes)


def assert_matches_reference(report, reference):
    totals, hist, excluded, filtered, zero_valued, pi_x = reference
    assert report.empirical == Fraction(totals[report.k], pi_x), report.scenario
    assert report.histogram == hist, report.scenario
    assert (report.excluded, report.filtered, report.zero_valued, report.pi_x) == (
        excluded,
        filtered,
        zero_valued,
        pi_x,
    )
    assert sum(report.histogram.values()) == report.pi_x
    assert report.histogram.get(0, 0) == report.excluded + report.filtered + report.zero_valued


def valid_power_counters(ns, avals):
    counters = []
    for n in ns:
        for a in avals:
            try:
                counters.append(PowerCounter(PowerEquation(n, a)))
            except ValueError:
                pass
    return counters


STREAM_COUNTERS = (
    PowerCounter(PowerEquation(8, 3)),
    PowerProductCounter(PowerEquation(6, 2), 2, 1),
    TorsionCounter(CURVE_PRESETS["cm:-1"], 5, SplitFilter.split(CURVE_PRESETS["cm:-1"].cm)),
    # a discriminant beyond int64, so the exclusion mask takes its exact path
    TorsionCounter(parse_curve("123456789012,987654321098"), 3),
)


def test_power_counter_side_conditions():
    PowerCounter(PowerEquation(3, 2))  # odd n: any square-free positive a
    PowerCounter(PowerEquation(8, 3))  # even n with a not dividing n
    PowerCounter(PowerEquation(6, 2))  # a divides even n, but disc Q(sqrt 2) = 8 does not
    with pytest.raises(ValueError, match="discriminant"):
        PowerCounter(PowerEquation(8, 2))  # sqrt(2) lies in Q(zeta_8)
    with pytest.raises(ValueError):
        PowerCounter(PowerEquation(3, 4))  # not square-free
    with pytest.raises(ValueError):
        PowerCounter(PowerEquation(3, -2))


def test_square_free_check_matches_trial_division():
    for a in range(1, 3000):
        square_free = all(a % (q * q) for q in range(2, math.isqrt(a) + 1))
        try:
            PowerCounter(PowerEquation(3, a))
        except ValueError:
            assert not square_free, a
        else:
            assert square_free, a


def test_square_free_check_on_large_a():
    # factorize splits a large cofactor by Pollard-Brent rho, not by trial division
    start = time.perf_counter()
    PowerCounter(PowerEquation(3, 2**61 - 1))
    assert time.perf_counter() - start < 1
    PowerCounter(PowerEquation(3, 1_000_003 * 1_000_033))
    for a in ((2**31 - 1) ** 2, 2 * 1_000_003**2, 1_000_003**3, 12):
        with pytest.raises(ValueError, match="square-free"):
            PowerCounter(PowerEquation(3, a))


def test_product_counter_validation():
    PowerProductCounter(PowerEquation(6, 2), 1, 1)
    PowerProductCounter(PowerEquation(6, 2), 1, 0)
    for k1, k2 in ((0, 1), (1, -1)):
        with pytest.raises(ValueError, match="k1 >= 1 and k2 >= 0"):
            PowerProductCounter(PowerEquation(6, 2), k1, k2)
    for a in (4, -2):  # not square-free, not positive
        with pytest.raises(ValueError):
            PowerProductCounter(PowerEquation(6, a), 1, 1)


def test_product_counter_refuses_even_n_divisible_by_the_discriminant_of_a():
    # sqrt(a) then lies in Q(zeta_n), and the empirical moment misses
    # mk(n, k1 + k2 - 1) by 11-49% at x = 3 * 10**6
    for n, a in ((8, 2), (10, 5), (12, 3), (16, 2), (20, 5), (24, 6)):
        with pytest.raises(ValueError, match="discriminant"):
            PowerProductCounter(PowerEquation(n, a), 1, 1)
    # a = 1 squares x**n - 1, whose moments are mk(n, k), for odd n too
    for n in (3, 6):
        with pytest.raises(ValueError, match="a = 1"):
            PowerProductCounter(PowerEquation(n, 1), 1, 1)
    # odd n, or a discriminant (a, or 4a unless a = 1 mod 4) that does not divide n
    for n, a in ((4, 2), (6, 2), (6, 3), (8, 3), (12, 5), (5, 5), (15, 5)):
        counter = PowerProductCounter(PowerEquation(n, a), 1, 1)
        report = empirical_moment(counter, 1, 10**6)
        assert report.predicted == mk(n, 1)
        assert report.rel_err < 0.02, (n, a, report.rel_err)


def test_power_and_product_counters_share_the_kummer_rule():
    # with k1 = 1 and k2 = 0 the product is N_p(x**n - a) itself, so the two
    # counters must accept the same (n, a) and agree wherever they do
    square_free = [a for a in range(2, 31) if all(a % (q * q) for q in (2, 3, 5))]
    refused = set()
    for n in range(1, 25):
        for a in square_free:
            eq = PowerEquation(n, a)
            built = []
            for make in (lambda: PowerCounter(eq), lambda: PowerProductCounter(eq, 1, 0)):
                try:
                    built.append(make())
                except ValueError as exc:
                    assert "discriminant" in str(exc), (n, a, exc)
            assert len(built) in (0, 2), (n, a)
            if not built:
                refused.add((n, a))
                continue
            power, product = built
            for k in range(4):
                got, want = empirical_moment(power, k, 10**5), empirical_moment(product, k, 10**5)
                assert (got.empirical, got.predicted, got.histogram) == (
                    want.empirical,
                    want.predicted,
                    want.histogram,
                ), (n, a, k)
    # exactly where disc Q(sqrt(a)) (a for a = 1 mod 4, else 4a) divides an even n
    assert refused == {(8, 2), (16, 2), (24, 2), (12, 3), (24, 3), (24, 6), (10, 5), (20, 5)}


def test_torsion_counter_validation():
    with pytest.raises(ValueError):
        TorsionCounter(CURVE_PRESETS["17a3"], 4)


def test_empirical_exact_average():
    # average of gcd(p-1, 4) over odd primes <= 100, p = 2 excluded
    counter = PowerCounter(PowerEquation(4, 1))
    report = empirical_moment(counter, 1, 100)
    primes = primes_between(2, 101)
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
    counter = PowerProductCounter(PowerEquation(6, 2), 1, 1)
    report = empirical_moment(counter, 1, X_SMALL)
    assert report.predicted == mk(6, 1)
    assert report.rel_err < 0.05
    assert predicted_moment(counter, 2) == mk(6, 3)


def test_stream_counters_match_reference_loop():
    # x = 300,000 spans two sieve segments; 3,000 keeps the torsion kernel quick
    for counter, x in zip(STREAM_COUNTERS, (300_000, 300_000, 3000, 3000)):
        report = empirical_moment(counter, 2, x)
        assert_matches_reference(report, reference_moments(counter, (2,), x))
    assert STREAM_COUNTERS[2].split_filter is not None
    assert empirical_moment(STREAM_COUNTERS[2], 1, 3000).filtered > 0


def test_torsion_trace_across_lane_blocks():
    # checkpoints inside and across the first two sieve segments, so the
    # batched kernel sees its lane blocks cut at different primes
    counters = (TorsionCounter(CURVE_PRESETS["17a3"], 3), TorsionCounter(CURVE_PRESETS["11a2"], 2))
    checkpoints = [30_000, 200_000, 262_139, 300_000]
    for counter in counters:
        reports = convergence_trace(counter, 2, checkpoints)
        assert [r.x for r in reports] == checkpoints
        for r in reports:
            clear_stream_memo()  # a separate run streams afresh
            assert r == empirical_moment(counter, 2, r.x), (counter.scenario, r.x)


def test_accumulator_matches_reference_loop():
    x = 20_000
    counters = valid_power_counters(range(1, 13), (1, 2, 3, 5, 6, 7, 10))
    counters.append(PowerProductCounter(PowerEquation(6, 2), 1, 1))
    counters.append(PowerProductCounter(PowerEquation(12, 5), 2, 3))
    assert len(counters) > 60
    for counter in counters:
        reference = reference_moments(counter, (0, 1, 3), x)
        for k in (0, 1, 3):
            assert_matches_reference(empirical_moment(counter, k, x), reference)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    a=st.sampled_from((1, 2, 3, 5, 6, 7, 10, 11, 13, 15)),
    checkpoints=st.lists(st.integers(2, 5000), min_size=1, max_size=4).map(sorted),
)
def test_shard_invariance_property(n, a, checkpoints):
    # cutting the stream at checkpoints changes no report: each equals a separate run
    counters = valid_power_counters((n,), (a,))
    if not counters:
        return
    counter = counters[0]
    reports = convergence_trace(counter, 2, checkpoints)
    assert [r.x for r in reports] == checkpoints
    for r in reports:
        clear_stream_memo()  # a separate run streams afresh
        assert r == empirical_moment(counter, 2, r.x)
        assert_matches_reference(r, reference_moments(counter, (2,), r.x))


@pytest.mark.parametrize(
    "values, counted",
    [
        ([], False),
        ([0], True),
        ([3, 1, 1, 0], True),
        ([2, 2, 2], True),
        ([4, 1, 1, 2], False),  # 4 is not below the number of values
        ([-1, 0, 2], False),
        ([5], False),
        ([2**40, 7, 7], False),
    ],
)
def test_histogram_equals_np_unique(values, counted, monkeypatch):
    values = np.array(values, dtype=np.int64)
    keys, counts = np.unique(values, return_counts=True)
    want = list(zip(keys.tolist(), counts.tolist()))
    if counted:  # np.bincount alone, with no sorted copy
        monkeypatch.setattr(np, "unique", None)
    got = value_counts(values)
    assert list(got.items()) == want
    assert all(type(v) is int and type(c) is int for v, c in got.items())


def test_tally_masks_exactly_the_segments_a_rule_can_reach(monkeypatch):
    # the mask runs on a segment whose first prime is at most the rule's
    # bound, and on every segment under modulus 0; the excluded count is
    # the rule's, one prime at a time
    x = 3 * SIEVE_SEGMENT
    segments = list(prime_segments(2, x))
    torsion = CURVE_PRESETS["17a3"].bad_primes(5)
    assert torsion.bound > x  # |5 * disc| keeps every segment masked
    # 300,007 lies in the second segment, so the third one skips the mask
    rules = (BadPrimes(0), torsion, BadPrimes(300_007), BadPrimes(12))
    real_mask = BadPrimes.mask
    for rule in rules:
        masked = []

        def mask(self, primes):
            masked.append(primes.size)
            return real_mask(self, primes)

        monkeypatch.setattr(BadPrimes, "mask", mask)
        counter = SimpleNamespace(
            bad_primes=rule,
            split_filter=None,
            values=lambda primes: value_counts(np.ones_like(primes)),
        )
        tally = moment_lab._Tally()
        for primes in [*segments, np.empty(0, dtype=np.int64)]:
            tally.add_primes(counter, primes)
        reach = [s for s in segments if rule.bound is None or s[0] <= rule.bound]
        assert masked == [s.size for s in reach], rule
        assert tally.excluded == sum(p in rule for s in segments for p in s.tolist()), rule
        assert tally.hist[0] == tally.excluded and sum(tally.hist.values()) == tally.pi_x
        if rule.bound is None:
            assert tally.excluded == tally.pi_x  # every prime divides 0


def test_stream_from_2_books_the_excluded_primes_of_later_segments(monkeypatch):
    # x**2 - q excludes 2 and q, which lies in the second sieve segment; the
    # stream is cut at 2q + 1 inside the third, and only the primes up to 2q
    # reach the mask
    q = 300_007
    counter = PowerCounter(PowerEquation(2, q))
    x = 5 * SIEVE_SEGMENT
    masked = []
    real_mask = BadPrimes.mask
    monkeypatch.setattr(BadPrimes, "mask", lambda self, p: masked.append(p) or real_mask(self, p))
    clear_stream_memo()
    report = empirical_moment(counter, 2, x)
    assert_matches_reference(report, reference_moments(counter, (2,), x))
    assert report.excluded == 2
    assert [int(p[-1]) for p in masked] == [262_139, 524_287, 600_011]  # last primes below each cut


def test_power_kernel_across_int64_limit():
    # the segment reaching past 2**31 takes the per-prime builtin pow path;
    # the primes below 2**31 alone take the int64 path at its largest products
    segments = list(prime_segments(POW_ARRAY_LIMIT - 200, POW_ARRAY_LIMIT + 2000))
    assert len(segments) == 1
    primes = segments[0]
    below = primes[primes < POW_ARRAY_LIMIT]
    assert 0 < below.size < primes.size
    # near 2**32 an int64 product of two residues would overflow
    (top,) = prime_segments(2**32 - 3000, 2**32)
    equations = [PowerEquation(n, a) for n, a in ((8, 3), (6, 5), (3, 2), (12, 7))]
    for eq in equations:
        for chunk in (primes, below, top):
            want = [count_roots_formula(eq, p) for p in chunk.tolist()]
            assert count_roots_array(eq, chunk).tolist() == want, eq


def test_stream_memory_stays_bounded(monkeypatch):
    monkeypatch.setattr(moment_lab, "_class_runs", lambda counter, xs: None)
    tracemalloc.start()
    try:
        empirical_moment(PowerCounter(PowerEquation(6, 1)), 2, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_character_stream_memory_stays_bounded():
    # x^8 - 3 reads (3|p) from its character table and takes pow_mod_array
    # on a quarter of each segment
    tracemalloc.start()
    try:
        report = empirical_moment(PowerCounter(PowerEquation(8, 3)), 2, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert report.zero_valued > report.pi_x // 3


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


@pytest.mark.parametrize("a, b, preset, ell, want", [(-1, 0, "cm:-1", 5, 28), (0, 1, "cm:-3", 7, 45)])
def test_untagged_cm_models_predict_their_cm_limit(a, b, preset, ell, want):
    # a CM model built from its coefficients alone predicts what its preset does
    counter = TorsionCounter(WeierstrassCurve(a, b), ell)
    assert predicted_moment(counter, 2) == want != gl2_moment(ell, 2)
    assert counter.masses() == TorsionCounter(CURVE_PRESETS[preset], ell).masses()


def test_conditioned_partition_is_exact():
    curve = CURVE_PRESETS["cm:-1"]
    spec = curve.cm
    x = 3000
    plain = empirical_moment(TorsionCounter(curve, 3), 1, x)
    split = empirical_moment(TorsionCounter(curve, 3, SplitFilter.split(spec)), 1, x)
    nonsplit = empirical_moment(TorsionCounter(curve, 3, SplitFilter.nonsplit(spec)), 1, x)
    assert split.empirical + nonsplit.empirical == plain.empirical
    assert split.predicted + nonsplit.predicted == plain.predicted


def test_conditioned_k0_densities():
    curve = CURVE_PRESETS["cm:-1"]
    spec = curve.cm
    report = empirical_moment(TorsionCounter(curve, 5, SplitFilter.split(spec)), 0, X_SMALL)
    assert report.predicted == Fraction(1, 2)
    assert abs(float(report.empirical) - 0.5) < 0.02


def hand_formula(counter, k):
    """The limit each counter predicted before its masses, from the moment formulas."""
    filt = counter.split_filter
    if k == 0 and filt is None:
        return Fraction(1)
    if isinstance(counter, PowerCounter):
        if filt is not None:
            return None
        return mk(counter.eq.n, k) if counter.eq.a == 1 else mk(counter.eq.n, k - 1)
    if isinstance(counter, PowerProductCounter):
        return mk(counter.eq.n, k * (counter.k1 + counter.k2) - 1)
    curve, ell = counter.curve, counter.ell
    if curve.cm is None:
        return gl2_moment(ell, k) if filt is None else None
    d = dk(ell, curve.cm)
    if ell == 2 or d == 3:
        return None
    if filt is None:
        return cm_moment(ell, k, d)
    # the nonsplit coset carries half of M_k(ell), the split coset the rest of the CM moment
    if not filt.keep_split:
        return mk(ell, k) / 2
    return cm_moment(ell, k, d) - mk(ell, k) / 2


GAUSS = QuadOrderSpec(-1)
CM_CURVES = [CURVE_PRESETS[name] for name in ("cm:-1", "cm:-3")]
HAND_FORMULA_COUNTERS = (
    [PowerCounter(PowerEquation(n, 1)) for n in (1, 2, 4, 6, 12, 30, 64)]
    + [PowerCounter(PowerEquation(n, a)) for n, a in ((1, 2), (3, 2), (6, 2), (8, 3), (12, 5))]
    + [PowerCounter(PowerEquation(4, 1), SplitFilter.split(GAUSS))]
    + [
        PowerProductCounter(PowerEquation(n, a), k1, k2)
        for n, a, k1, k2 in ((6, 2, 1, 1), (12, 5, 2, 3), (6, 2, 1, 0))
    ]
    + [TorsionCounter(CURVE_PRESETS["17a3"], ell) for ell in (2, 3, 5, 7)]
    + [TorsionCounter(CURVE_PRESETS["17a3"], 3, SplitFilter.split(GAUSS))]
    # ell = 2 and the ramified cm:-3 at ell = 3 predict only k = 0
    + [TorsionCounter(curve, ell) for curve in CM_CURVES for ell in (2, 3, 5, 7, 13)]
    + [
        TorsionCounter(curve, ell, filt(curve.cm))
        for curve in CM_CURVES
        for ell in (3, 5, 7, 13)
        for filt in (SplitFilter.split, SplitFilter.nonsplit)
    ]
)


@pytest.mark.parametrize("counter", HAND_FORMULA_COUNTERS, ids=lambda c: c.scenario)
def test_predicted_moment_equals_the_hand_formula(counter):
    for k in range(7):
        assert predicted_moment(counter, k) == hand_formula(counter, k), k


def test_ramified_ell_predicts_only_k_0():
    # cm:-3 at ell = 3: no image is known, but every prime is counted at k = 0
    counter = TorsionCounter(CURVE_PRESETS["cm:-3"], 3)
    assert counter.masses() is None
    assert predicted_moment(counter, 0) == 1
    assert predicted_moment(counter, 1) is None


def test_split_filter_by_a_foreign_field_predicts_nothing():
    curve = CURVE_PRESETS["cm:-1"]
    for filt in (SplitFilter.split, SplitFilter.nonsplit):
        counter = TorsionCounter(curve, 5, filt(QuadOrderSpec(-3)))
        assert counter.masses() is None
        assert [predicted_moment(counter, k) for k in range(3)] == [None] * 3


def test_distribution_masses_give_the_predicted_moments():
    # dist and moment read the same masses, for every scenario with a limit
    counters = (
        PowerCounter(PowerEquation(8, 3)),
        PowerProductCounter(PowerEquation(6, 2), 2, 1),
        TorsionCounter(CURVE_PRESETS["cm:-1"], 5, SplitFilter.split(GAUSS)),
    )
    for counter in counters:
        dist = empirical_distribution(counter, 2000)
        for k in range(4):
            want = predicted_moment(counter, k)
            assert sum(m * v**k for v, m in dist.predicted_masses.items()) == want


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


def test_semidirect_is_the_image_of_the_product_scenario():
    # Galois acts on the pairs of roots of x**n - a and x**n - 1 through
    # Z/n x| (Z/n)^x, so the product N_p(x**n - a) * N_p(x**n - 1) has the
    # orbit counts of semidirect:n as its moments
    from orbitmoments.orbit_engine import build_action, burnside_moment

    for n in range(1, 31):
        action = build_action(f"semidirect:{n}")
        counter = PowerProductCounter(PowerEquation(n, 11), 1, 1)
        for k in (1, 2, 3):
            assert burnside_moment(action, k) == predicted_moment(counter, k), (n, k)


def test_distribution_report():
    counter = PowerCounter(PowerEquation(4, 1))
    dist = empirical_distribution(counter, X_SMALL, t_values=(0.5,))
    assert dist.predicted_masses == {4: Fraction(1, 2), 2: Fraction(1, 2)}
    assert sum(dist.masses.values()) == 1
    assert dist.cdf[-1][1] == 1
    values = [v for v, _ in dist.cdf]
    assert values == sorted(values)
    phi = dist.char_samples[0.5]
    direct = sum(float(m) * cmath.exp(0.5j * v) for v, m in dist.masses.items())
    assert abs(phi - direct) < 1e-12


def test_distribution_books_excluded_and_filtered_primes_as_the_moment_does():
    curve = CURVE_PRESETS["cm:-1"]
    for counter in (TorsionCounter(curve, 5), TorsionCounter(curve, 5, SplitFilter.split(curve.cm))):
        dist = empirical_distribution(counter, 3000)
        report = empirical_moment(counter, 1, 3000)
        assert (dist.excluded, dist.filtered) == (report.excluded, report.filtered)
        assert dist.mass(0) * dist.pi_x == report.histogram[0]
    assert dist.filtered > 0 and dist.excluded == 3  # 2, 3 and 5


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
        assert r.pi_x == len(primes_between(2, r.x + 1))
        assert r.predicted == mk(6, 2)
    # one-pass snapshots must equal independent runs
    for r in reports:
        clear_stream_memo()
        fresh = empirical_moment(counter, 2, r.x)
        assert r.empirical == fresh.empirical


def test_trace_checkpoints_around_segment_boundary():
    # The sieve's first segment is [2, 2 + 2**18): its last prime is 262139,
    # and 262147 opens the second.
    assert [s[-1] for s in prime_segments(2, 262_148)] == [262_139, 262_147]
    counter = PowerCounter(PowerEquation(8, 3))
    checkpoints = [1000, 262_139, 262_145, 262_146, 262_147, 280_000]
    reports = convergence_trace(counter, 2, checkpoints)
    assert [r.x for r in reports] == checkpoints
    for r in reports:
        assert_matches_reference(r, reference_moments(counter, (2,), r.x))
    assert reports[1].pi_x == reports[0].pi_x + len(primes_between(1001, 262_140))
    assert reports[1].pi_x == reports[2].pi_x == reports[3].pi_x == reports[4].pi_x - 1


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
    cases = (
        (PowerCounter(PowerEquation(8, 3)), 2, 5000),
        (STREAM_COUNTERS[2], 1, 2000),
        (PowerCounter(PowerEquation(3, 2)), 1, 10**4),
    )
    for counter, k, x in cases:
        report = empirical_moment(counter, k, x)
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert report_from_json_dict(blob) == report
    assert report.excluded == 2
    assert report.histogram[0] == report.excluded + report.zero_valued
    assert report.zero_valued > 0
    # JSON written before `filtered` existed reads it back as 0; zero_valued
    # is derived from the histogram, so JSON without that key loses nothing
    del blob["filtered"]
    assert report_from_json_dict(blob) == report
    del blob["zero_valued"]
    back = report_from_json_dict(blob)
    assert back == report and back.zero_valued == report.zero_valued > 0


COUNTERS = st.one_of(
    st.builds(
        lambda n, a: valid_power_counters((n,), (a,)) or [PowerCounter(PowerEquation(n))],
        st.integers(1, 12),
        st.sampled_from((1, 2, 3, 5, 6, 7)),
    ).map(lambda counters: counters[0]),
    st.sampled_from(STREAM_COUNTERS),
    st.builds(
        TorsionCounter,
        st.sampled_from(list(CURVE_PRESETS.values())),
        st.sampled_from((2, 3, 5, 7)),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    counter=COUNTERS,
    k=st.integers(0, 6),
    x=st.integers(2, 10**12),
    valued=st.dictionaries(st.integers(1, 10**4), st.integers(1, 10**9), max_size=6),
    excluded=st.integers(0, 10**6),
    filtered=st.integers(0, 10**6),
    zero_valued=st.integers(0, 10**6),
    good_only=st.booleans(),
)
def test_report_json_roundtrip_property(
    counter, k, x, valued, excluded, filtered, zero_valued, good_only
):
    hist = dict(valued)
    if excluded + filtered + zero_valued:
        hist[0] = excluded + filtered + zero_valued
    pi_x = sum(hist.values())
    denom = pi_x - excluded if good_only else pi_x
    assume(denom > 0)
    report = MomentReport(
        scenario=counter.scenario,
        k=k,
        x=x,
        pi_x=pi_x,
        empirical=Fraction(sum(c * v**k for v, c in valued.items()), denom),
        predicted=predicted_moment(counter, k),
        histogram=hist,
        excluded=excluded,
        filtered=filtered,
    )
    assert report.zero_valued == zero_valued
    blob = json.loads(json.dumps(report.to_json_dict()))
    assert blob["zero_valued"] == zero_valued
    assert report_from_json_dict(blob) == report


# ---------------------------------------------------------------------------
# The stream memo: pieces of the segment grid, valued once per process.

MEMO_COUNTERS = (
    # (counter, largest checkpoint): power streams cross two grid edges
    (STREAM_COUNTERS[0], 600_000),
    (PowerCounter(PowerEquation(4, 1), SplitFilter.nonsplit(CURVE_PRESETS["cm:-1"].cm)), 600_000),
    (STREAM_COUNTERS[1], 600_000),
    (TorsionCounter(CURVE_PRESETS["17a3"], 3), 20_000),
    (STREAM_COUNTERS[2], 20_000),  # cm:-1 at ell = 5, split primes only
)


def _stream_reports(counter, k, checkpoints):
    return (
        convergence_trace(counter, k, checkpoints),
        empirical_moment(counter, k, checkpoints[-1]),
        empirical_distribution(counter, checkpoints[-1]),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(0, 3), warm_k=st.integers(0, 3))
def test_warm_memo_reports_equal_cold_ones(data, k, warm_k):
    counter, top = data.draw(st.sampled_from(MEMO_COUNTERS))
    points = st.lists(st.integers(2, top), min_size=1, max_size=4).map(sorted)
    checkpoints, warm_points = data.draw(points), data.draw(points)
    clear_stream_memo()
    cold = _stream_reports(counter, k, checkpoints)
    clear_stream_memo()
    # warm with another k, other cut points, and the same x
    convergence_trace(counter, warm_k, warm_points)
    empirical_moment(counter, warm_k, checkpoints[-1])
    warm = _stream_reports(counter, k, checkpoints)
    assert warm == cold
    (cold_trace, cold_moment, _), (warm_trace, warm_moment, _) = cold, warm
    for got, want in zip([*warm_trace, warm_moment], [*cold_trace, cold_moment]):
        assert got.to_json_dict() == want.to_json_dict()


def _spy_on_kernels(monkeypatch) -> list[np.ndarray]:
    """Record the primes each per-segment kernel call of moment_lab values."""
    valued = []
    for name in ("ec_torsion_count_array", "count_roots_array"):
        kernel = getattr(moment_lab, name)

        def spy(first, primes, *rest, kernel=kernel):
            valued.append(primes)
            return kernel(first, primes, *rest)

        monkeypatch.setattr(moment_lab, name, spy)
    return valued


def test_memo_hit_does_no_kernel_work(monkeypatch):
    valued = _spy_on_kernels(monkeypatch)
    torsion = TorsionCounter(CURVE_PRESETS["17a3"], 3)
    empirical_moment(torsion, 1, 20_000)
    assert valued
    valued.clear()
    warm = empirical_moment(torsion, 2, 20_000)
    assert valued == []
    clear_stream_memo()
    assert warm == empirical_moment(torsion, 2, 20_000)

    # a trace after a moment to the same x values only the pieces cut at its
    # marks: [25, 1001) and [1001, edge) of the first segment, and the second
    # segment cut at 300,001; both streams cut [2, 25) at the exclusion bound
    # 24, and the third segment ends at x + 1 both times
    power = PowerCounter(PowerEquation(8, 3))
    edge = 2 + SIEVE_SEGMENT
    empirical_moment(power, 2, 600_000)
    valued.clear()
    convergence_trace(power, 2, [1000, 300_000, 600_000])
    assert len(valued) == 4
    assert max(int(primes.max()) for primes in valued) < edge + SIEVE_SEGMENT
    assert sum(primes.size for primes in valued) == sum(
        1 for p in primes_between(25, edge + SIEVE_SEGMENT) if 24 % p
    )


def test_memo_holds_at_most_its_bound(monkeypatch):
    counter = PowerCounter(PowerEquation(8, 3))
    x = 1 + 40 * SIEVE_SEGMENT  # 40 segments of the grid from 2
    checkpoints = [10**5, 5 * 10**6, x]
    cold = (empirical_moment(counter, 2, x), convergence_trace(counter, 1, checkpoints))
    monkeypatch.setattr(moment_lab, "_piece", functools.lru_cache(8)(moment_lab._piece.__wrapped__))
    bounded = (empirical_moment(counter, 2, x), convergence_trace(counter, 1, checkpoints))
    assert moment_lab._piece.cache_info().currsize <= 8
    assert bounded == cold


@pytest.mark.slow
def test_memo_of_a_stream_to_1e8_stays_small():
    tracemalloc.start()
    try:
        empirical_moment(PowerCounter(PowerEquation(8, 3)), 2, 10**8)
        pieces = moment_lab._piece.cache_info().currsize
        held, _ = tracemalloc.get_traced_memory()
        clear_stream_memo()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # [2, 25) up to the exclusion bound 24, then the 382 segments of the grid
    # that reach 10**8 + 1, the first of them from 25
    assert pieces == 383 <= moment_lab.STREAM_MEMO_PIECES
    assert 0 < freed < 4 * 2**20, freed


# ---------------------------------------------------------------------------
# Class counts: counters whose N_p is read off p mod L, with the stream as the oracle.


def _on_both_paths(monkeypatch, run):
    """run() with the class counts forced, then with the stream forced."""
    with monkeypatch.context() as patch:
        patch.setattr(moment_lab, "_class_cost", lambda x, phi: 0)
        classes = run()
    clear_stream_memo()
    with monkeypatch.context() as patch:
        patch.setattr(moment_lab, "_class_runs", lambda counter, xs: None)
        stream = run()
    return classes, stream


def _assert_paths_agree(classes, stream):
    classes, stream = list(classes), list(stream)
    assert [r.path for r in classes] == ["classes"] * len(classes)
    assert [r.path for r in stream] == ["stream"] * len(stream)
    assert [replace(r, path="stream") for r in classes] == stream


def _class_modulus_of(counter) -> int:
    return moment_lab._class_values(counter)[0]


def test_class_path_equals_the_stream_for_x_n_minus_1(monkeypatch):
    for n in range(1, 31):
        counter = PowerCounter(PowerEquation(n, 1))
        m = _class_modulus_of(counter)
        assert m == n
        for x in sorted({2, 3, m - 1, m, m + 1, 10**4, 10**6} - {0, 1}):
            reports = _on_both_paths(monkeypatch, lambda: [empirical_moment(counter, 2, x)])
            _assert_paths_agree(*reports)


def test_class_path_equals_the_stream_for_x2_minus_a(monkeypatch):
    # the split filters fold in as classes mod lcm(M, 4|disc|)
    filters = (None,) + tuple(
        f(QuadOrderSpec(d)) for d in (-1, -3) for f in (SplitFilter.split, SplitFilter.nonsplit)
    )
    counters = [PowerCounter(PowerEquation(2, a), f) for a in (2, 3, 5, 6, 7, 10) for f in filters]
    counters.append(PowerProductCounter(PowerEquation(2, 5), 2, 1))
    for counter in counters:
        m = _class_modulus_of(counter)
        for x in (2, 3, m - 1, m, m + 1, 10**4, 10**6):
            for k in (0, 2):
                reports = _on_both_paths(monkeypatch, lambda: [empirical_moment(counter, k, x)])
                _assert_paths_agree(*reports)
    assert {_class_modulus_of(c) for c in counters} >= {8, 12, 24, 40, 120}


def test_class_path_books_good_only_and_distributions_as_the_stream(monkeypatch):
    counter = PowerCounter(PowerEquation(2, 5), SplitFilter.nonsplit(GAUSS))
    reports = _on_both_paths(monkeypatch, lambda: [empirical_moment(counter, 3, 10**5, True)])
    _assert_paths_agree(*reports)
    assert reports[0][0].excluded == 2 and reports[0][0].filtered > 0
    dists = _on_both_paths(monkeypatch, lambda: empirical_distribution(counter, 10**5, (0.5,)))
    _assert_paths_agree([dists[0]], [dists[1]])


def test_class_trace_reads_checkpoints_on_and_off_the_grid(monkeypatch):
    # 10**5 = 10**6 // 10 lies on the grid of the run at 10**6, and 5001 does
    # not, so it takes a run of its own, which holds 1000 = 5001 // 5
    counter = PowerCounter(PowerEquation(8, 1))
    checkpoints = [1000, 5001, 10**5, 10**6]
    runs = []

    def trace():
        misses = moment_lab.class_prime_counts.cache_info().misses
        reports = convergence_trace(counter, 2, checkpoints)
        runs.append(moment_lab.class_prime_counts.cache_info().misses - misses)
        return reports

    _assert_paths_agree(*_on_both_paths(monkeypatch, trace))
    assert runs == [2, 0]
    monkeypatch.setattr(moment_lab, "_class_cost", lambda x, phi: 0)
    _, _, tops = moment_lab._class_runs(counter, checkpoints)
    assert tops == [(1000, 5001), (5001, 5001), (10**5, 10**6), (10**6, 10**6)]


def test_class_trace_after_a_moment_to_its_bound_runs_nothing_again():
    counter = PowerCounter(PowerEquation(6, 1))
    moment = empirical_moment(counter, 2, 10**7)
    misses = moment_lab.class_prime_counts.cache_info().misses
    trace = convergence_trace(counter, 2, [10**5, 10**6, 10**7])
    assert moment_lab.class_prime_counts.cache_info().misses == misses == 1
    assert moment.path == "classes" and trace[-1] == moment
    assert [r.pi_x for r in trace] == [9592, 78498, 664579]
    clear_stream_memo()
    assert moment_lab.class_prime_counts.cache_info().currsize == 0


def test_rule_sends_only_class_determined_counters_to_the_classes():
    def path(counter, x):
        return "stream" if moment_lab._class_runs(counter, [x]) is None else "classes"

    cheap = (
        PowerCounter(PowerEquation(6, 1)),
        PowerCounter(PowerEquation(8, 1)),
        PowerCounter(PowerEquation(2, 5), SplitFilter.split(GAUSS)),
        PowerProductCounter(PowerEquation(2, 3), 1, 2),
    )
    assert [path(c, 10**8) for c in cheap] == ["classes"] * 4
    # below the crossover the stream is cheaper, and so it is for a modulus
    # with many classes
    assert [path(c, 10**4) for c in cheap] == ["stream"] * 4
    assert path(PowerCounter(PowerEquation(6, 1)), 10**7) == "classes"
    assert path(PowerCounter(PowerEquation(240, 1)), 10**7) == "stream"
    # x**8 - 3 needs Euler's criterion where (3|p) = 1, x**3 - 2 where p = 1
    # mod 3, x - 5 excludes 5, which divides no modulus, and torsion is no class count
    others = (
        PowerCounter(PowerEquation(8, 3)),
        PowerCounter(PowerEquation(3, 2)),
        PowerCounter(PowerEquation(1, 5)),
        PowerCounter(PowerEquation(10**12 + 39, 1)),
        TorsionCounter(CURVE_PRESETS["17a3"], 3),
    )
    assert [moment_lab._class_values(c) for c in others] == [None] * len(others)


def test_entry_budget_sends_the_counter_to_the_stream(monkeypatch):
    counter = PowerCounter(PowerEquation(6, 1))
    classes = empirical_moment(counter, 2, 10**7)
    clear_stream_memo()
    # phi(6) = 2 rows of 3162 + 1 + 3161 columns
    monkeypatch.setattr(orbit_engine, "ENTRY_BUDGET", 2 * 6324 - 1)
    stream = empirical_moment(counter, 2, 10**7)
    _assert_paths_agree([classes], [stream])
    monkeypatch.setattr(orbit_engine, "ENTRY_BUDGET", 2 * 6324)
    assert empirical_moment(counter, 2, 10**7).path == "classes"


def test_report_path_roundtrips_through_json():
    report = empirical_moment(PowerCounter(PowerEquation(6, 1)), 2, 10**7)
    blob = json.loads(json.dumps(report.to_json_dict()))
    assert blob["path"] == "classes"
    assert report_from_json_dict(blob) == report
    # JSON written before the path existed reads back as a stream
    del blob["path"]
    assert report_from_json_dict(blob) == replace(report, path="stream")
