import re
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitmoments import local_counts
from orbitmoments.core_arith import POW_ARRAY_LIMIT, prime_segments, primes_in_range
from orbitmoments.local_counts import (
    CURVE_PRESETS,
    TORSION_ARRAY_LIMIT,
    TORSION_ARRAY_MAX_DEGREE,
    BadPrimes,
    PowerEquation,
    SplittingType,
    WeierstrassCurve,
    count_roots_brute,
    count_roots_formula,
    division_polynomial,
    ec_group_data,
    ec_mul,
    ec_point_count,
    ec_points,
    ec_torsion_count,
    ec_torsion_count_array,
    ec_torsion_count_enum,
    parse_curve,
    splitting_mask,
    splitting_type,
)
from orbitmoments.residue_algebra import CLASS_NUMBER_ONE_D, QuadOrderSpec


def test_count_roots_brute_examples():
    assert count_roots_brute(PowerEquation(4, 1), 5) == 4
    assert count_roots_brute(PowerEquation(2, 2), 7) == 2  # x = 3, 4
    assert count_roots_brute(PowerEquation(2, 2), 5) == 0  # 2 is a nonresidue mod 5


def test_count_roots_formula_examples():
    assert count_roots_formula(PowerEquation(3, 1), 7) == gcd(6, 3) == 3
    assert count_roots_formula(PowerEquation(4, 2), 73) == 4
    assert pow(2, 18, 73) == 1  # the criterion behind the previous line


def test_count_roots_formula_matches_brute():
    for p in primes_in_range(2, 2001):
        for n in range(1, 13):
            for a in (1, 2, 3, 5, 6):
                if p % (n * a) == 0 or gcd(p, n * a) != 1:
                    continue
                assert count_roots_formula(PowerEquation(n, a), p) == count_roots_brute(
                    PowerEquation(n, a), p
                ), (p, n, a)


def test_count_roots_formula_falls_back_on_shared_factor():
    eq = PowerEquation(4, 2)
    assert count_roots_formula(eq, 2) == count_roots_brute(eq, 2)


def test_product_system_multiplies():
    for p in primes_in_range(2, 101):
        for n in (2, 3, 6):
            for a in (2, 5):
                if gcd(p, n * a) != 1:
                    continue
                pairs = sum(
                    1
                    for x in range(p)
                    for y in range(p)
                    if pow(x, n, p) == a % p and pow(y, n, p) == 1
                )
                na = count_roots_brute(PowerEquation(n, a), p)
                n1 = count_roots_brute(PowerEquation(n, 1), p)
                assert pairs == na * n1


def test_curve_presets():
    c = CURVE_PRESETS["17a3"]
    assert (c.a, c.b) == (-7371, -240570)
    assert {p for p in primes_in_range(2, 31) if c.discriminant % p == 0} == {2, 3, 17}
    c = CURVE_PRESETS["11a2"]
    assert {p for p in primes_in_range(2, 31) if c.discriminant % p == 0} == {2, 3, 11}
    assert CURVE_PRESETS["cm:-1"].cm == QuadOrderSpec(-1)
    assert CURVE_PRESETS["cm:-3"].cm == QuadOrderSpec(-3)


def test_parse_curve():
    assert parse_curve("17a3") is CURVE_PRESETS["17a3"]
    c = parse_curve("-1,0")
    assert (c.a, c.b) == (-1, 0)
    with pytest.raises(ValueError):
        parse_curve("nonsense")
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0)


def test_point_count_brute_agreement():
    for curve in (CURVE_PRESETS["cm:-1"], CURVE_PRESETS["cm:-3"], WeierstrassCurve(3, 5)):
        for p in primes_in_range(2, 201):
            if not curve.is_good_prime(p):
                continue
            assert ec_point_count(curve, p) == len(ec_points(curve, p)) + 1, (
                curve,
                p,
            )


def test_point_count_supersingular_identity():
    curve = CURVE_PRESETS["cm:-1"]
    for p in (7, 11, 19, 23):
        assert ec_point_count(curve, p) == p + 1


def test_point_count_rejects_bad_prime():
    with pytest.raises(ValueError):
        ec_point_count(CURVE_PRESETS["cm:-1"], 2)
    with pytest.raises(ValueError):
        ec_point_count(CURVE_PRESETS["17a3"], 17)


def test_hasse_bound():
    for curve in (CURVE_PRESETS["17a3"], CURVE_PRESETS["cm:-1"]):
        for p in primes_in_range(2, 10**4 + 1):
            if curve.is_good_prime(p):
                assert abs(ec_point_count(curve, p) - p - 1) <= 2 * isqrt(p) + 1


def test_ec_mul_small():
    # y^2 = x^3 - x over F_5 has points of order dividing 4
    curve = CURVE_PRESETS["cm:-1"]
    pts = ec_points(curve, 5)
    assert len(pts) + 1 == ec_point_count(curve, 5)
    for P in pts:
        assert ec_mul(P, ec_point_count(curve, 5), curve.a % 5, 5) is None


def test_full_two_torsion_of_cm_curve():
    # x^3 - x = x(x-1)(x+1) splits over every F_p
    curve = CURVE_PRESETS["cm:-1"]
    for p in primes_in_range(2, 501):
        if curve.is_good_prime(p):
            assert ec_torsion_count(curve, p, 2) == 4


def test_torsion_count_excluded_primes():
    curve = CURVE_PRESETS["17a3"]
    assert ec_torsion_count(curve, 2, 3) == 0
    assert ec_torsion_count(curve, 3, 5) == 0
    assert ec_torsion_count(curve, 17, 3) == 0
    assert ec_torsion_count(curve, 7, 7) == 0  # p = ell excluded


def test_torsion_fast_matches_enumeration():
    curves = (
        CURVE_PRESETS["cm:-1"],
        CURVE_PRESETS["cm:-3"],
        CURVE_PRESETS["17a3"],
        CURVE_PRESETS["11a2"],
        WeierstrassCurve(3, 5),
    )
    for curve in curves:
        for p in primes_in_range(2, 401):
            for ell in (2, 3, 5, 7):
                assert ec_torsion_count(curve, p, ell) == ec_torsion_count_enum(
                    curve, p, ell
                ), (curve, p, ell)


def test_torsion_ambiguous_branch_against_enumeration():
    # primes where ell | p - 1 and ell^2 | |E(F_p)|, forcing the
    # division-polynomial root count to decide between ell and ell^2
    curves = (CURVE_PRESETS["17a3"], CURVE_PRESETS["cm:-1"], WeierstrassCurve(3, 5))
    outcomes = set()
    hits = 0
    for curve in curves:
        for ell in (3, 5):
            for p in primes_in_range(2, 1501):
                if p < 5 or (ell * curve.discriminant) % p == 0:
                    continue
                m, _ = ec_group_data(curve.a, curve.b, p)
                if m % (ell * ell) == 0 and (p - 1) % ell == 0:
                    hits += 1
                    fast = ec_torsion_count(curve, p, ell)
                    assert fast == ec_torsion_count_enum(curve, p, ell), (curve, p, ell)
                    outcomes.add(fast == ell * ell)
    assert hits > 10
    assert outcomes == {True, False}  # both resolutions exercised


def test_torsion_against_character_sum_near_1e6():
    # The enumeration oracle is too slow this far out; the character sum
    # still gives |E(F_p)| and the cubic's root count.  The second half of
    # the sample has p = 1 mod 105, where full ell-torsion is possible.
    primes = list(primes_in_range(10**6, 10**6 + 400))[:6]
    primes += [p for p in primes_in_range(10**6, 10**6 + 40000) if p % 105 == 1][:6]
    full = set()
    for curve in CURVE_PRESETS.values():
        for p in primes:
            m, cubic_roots = ec_group_data(curve.a, curve.b, p)
            assert ec_torsion_count(curve, p, 2) == 1 + cubic_roots, (curve, p)
            for ell in (3, 5, 7):
                n = ec_torsion_count(curve, p, ell)
                assert (n > 1) == (m % ell == 0), (curve, p, ell)
                if n == ell * ell:
                    assert m % (ell * ell) == 0 and p % ell == 1, (curve, p, ell)
                    full.add(ell)
    assert full == {3, 5}  # the ell**2 case is exercised


def test_torsion_value_set_and_weil_constraint():
    curve = CURVE_PRESETS["17a3"]
    for ell in (3, 5, 7):
        for p in primes_in_range(2, 10**4 + 1):
            n = ec_torsion_count(curve, p, ell)
            assert n in (0, 1, ell, ell * ell)
            if n == ell * ell:
                assert p % ell == 1, (p, ell)


def test_cm_supersingular_torsion_is_gcd():
    curve = CURVE_PRESETS["cm:-1"]
    spec = curve.cm
    for p in primes_in_range(2, 10**4 + 1):
        if not curve.is_good_prime(p):
            continue
        if splitting_type(p, spec) is not SplittingType.SPLIT:
            assert ec_point_count(curve, p) == p + 1
            for ell in (3, 5, 7):
                if p != ell:
                    assert ec_torsion_count(curve, p, ell) == gcd(ell, p + 1)


def test_division_polynomial_roots_match_torsion_x_coords():
    curve = WeierstrassCurve(3, 5)
    for p in (11, 13, 23, 37):
        for ell in (3, 5):
            poly = division_polynomial(ell, curve.a, curve.b, p)
            assert len(poly) - 1 == (ell * ell - 1) // 2
            roots = {x for x in range(p) if _peval(poly, x, p) == 0}
            torsion_x = {
                P[0]
                for P in ec_points(curve, p)
                if ec_mul(P, ell, curve.a % p, p) is None
            }
            assert torsion_x <= roots


def _peval(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def test_splitting_type():
    gauss = QuadOrderSpec(-1)
    assert splitting_type(5, gauss) is SplittingType.SPLIT
    assert splitting_type(7, gauss) is SplittingType.INERT
    assert splitting_type(2, gauss) is SplittingType.RAMIFIED
    eisenstein = QuadOrderSpec(-3)
    assert splitting_type(3, eisenstein) is SplittingType.RAMIFIED
    assert splitting_type(7, eisenstein) is SplittingType.SPLIT
    assert splitting_type(5, eisenstein) is SplittingType.INERT


def test_bad_primes_mask_matches_rule():
    huge = 2**70 * 7 * 999_983 * 1_000_003  # does not fit int64
    big_curve = parse_curve("123456789012,987654321098")
    assert abs(big_curve.discriminant) >= 2**63
    rules = (
        BadPrimes(huge),
        BadPrimes(12),
        big_curve.bad_primes(3),
        CURVE_PRESETS["17a3"].bad_primes(5),
    )
    for bad in rules:
        for segment in prime_segments(2, 2 * 10**6):
            assert segment[bad.mask(segment)].tolist() == [p for p in segment.tolist() if p in bad]
    assert [p for p in primes_in_range(2, 2 * 10**6) if p in BadPrimes(huge)] == [
        2,
        7,
        999_983,
        1_000_003,
    ]
    assert [p for p in primes_in_range(2, 31) if p in CURVE_PRESETS["17a3"].bad_primes(5)] == [2, 3, 5, 17]


def _good_primes(curve, ell, lo, hi):
    primes = np.concatenate([np.empty(0, dtype=np.int64), *prime_segments(lo, hi)])
    return primes[~curve.bad_primes(ell).mask(primes)]


def _batched(curve, primes, ell):
    """The batched Schoof step alone, at any degree, in lane blocks of 256."""
    starts = range(0, primes.size, 256)
    blocks = [local_counts._torsion_lanes(curve, primes[i : i + 256], ell) for i in starts]
    return np.concatenate(blocks).tolist()


@pytest.mark.parametrize("name", ["17a3", "11a2", "cm:-1", "cm:-3"])
def test_torsion_array_matches_per_prime(name):
    curve = CURVE_PRESETS[name]
    for ell in (2, 3, 5, 7):
        primes = _good_primes(curve, ell, 2, 10**4)
        want = [ec_torsion_count(curve, p, ell) for p in primes.tolist()]
        assert ec_torsion_count_array(curve, primes, ell).tolist() == want, ell
        # degree 24 (ell = 7) is left to the per-prime kernel, but the batch is exact there too
        assert _batched(curve, primes, ell) == want, ell
    assert TORSION_ARRAY_MAX_DEGREE < 24


def test_torsion_array_across_its_limit():
    # the segment reaching past 2**28 takes the per-prime kernel; the primes
    # below 2**28 alone take the batch at its largest products; near 2**32
    # the batch's int64 sums would overflow
    for name, ell in (("17a3", 3), ("cm:-1", 2), ("11a2", 5)):
        curve = CURVE_PRESETS[name]
        primes = _good_primes(curve, ell, TORSION_ARRAY_LIMIT - 1200, TORSION_ARRAY_LIMIT + 600)
        below = primes[primes < TORSION_ARRAY_LIMIT]
        assert 0 < below.size < primes.size
        top = _good_primes(curve, ell, 2**32 - 600, 2**32)
        want = [ec_torsion_count(curve, p, ell) for p in primes.tolist()]
        assert ec_torsion_count_array(curve, primes, ell).tolist() == want, name
        assert ec_torsion_count_array(curve, below, ell).tolist() == want[: below.size], name
        assert ec_torsion_count_array(curve, top, ell).tolist() == [
            ec_torsion_count(curve, p, ell) for p in top.tolist()
        ], name


@settings(max_examples=25, deadline=None)
@given(
    a=st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30)),
    b=st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30)),
    ell=st.sampled_from((2, 3, 5)),
    lo=st.integers(2, 2 * 10**5),
)
def test_torsion_array_on_random_curves(a, b, ell, lo):
    assume(4 * a**3 + 27 * b**2 != 0)
    curve = WeierstrassCurve(a, b)
    primes = _good_primes(curve, ell, lo, lo + 1500)
    want = [ec_torsion_count(curve, p, ell) for p in primes.tolist()]
    assert ec_torsion_count_array(curve, primes, ell).tolist() == want


def test_torsion_array_rejects_impossible_counts(monkeypatch):
    curve = CURVE_PRESETS["17a3"]
    primes = _good_primes(curve, 3, 2, 200)
    # 2 is never a 3-torsion count, and 9 needs p = 1 mod 3
    cases = ((2, primes[3]), (9, next(p for p in primes[3:].tolist() if p % 3 != 1)))
    for injected, first_bad in cases:

        def lanes(curve, p, ell, injected=injected):
            counts = np.ones(p.size, dtype=np.int64)
            counts[3:] = injected
            return counts

        monkeypatch.setattr(local_counts, "_torsion_lanes", lanes)
        message = f"torsion count {injected} for {curve} at p={first_bad}, ell=3 is impossible"
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            ec_torsion_count_array(curve, primes, 3)
    # the per-prime branch, which takes deg g = 24, checks its counts the same way
    primes = _good_primes(curve, 7, 2, 200)
    injected = lambda curve, p, ell: 1 if p < primes[3] else 5
    monkeypatch.setattr(local_counts, "_schoof_count", injected)
    message = f"torsion count 5 for {curve} at p={primes[3]}, ell=7 is impossible"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        ec_torsion_count_array(curve, primes, 7)


def test_splitting_mask_matches_splitting_type():
    small = np.concatenate(list(prime_segments(2, 10**4)))
    (near,) = prime_segments(POW_ARRAY_LIMIT - 3000, POW_ARRAY_LIMIT + 3000)
    assert near.min() < POW_ARRAY_LIMIT < near.max()
    # near 2**32 an int64 product of two residues would overflow
    (top,) = prime_segments(2**32 - 3000, 2**32)
    keeps = (
        {SplittingType.SPLIT},
        {SplittingType.INERT, SplittingType.RAMIFIED},
        {SplittingType.RAMIFIED},
    )
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for primes in (small, near, top):
            types = [splitting_type(p, spec) for p in primes.tolist()]
            for keep in keeps:
                want = [t in keep for t in types]
                assert splitting_mask(primes, spec, keep).tolist() == want, (d, keep)
