import dataclasses
import re
import tracemalloc
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    count_roots_brute,
    ec_group_data,
    ec_mul,
    ec_point_count,
    ec_points,
    ec_torsion_count_enum,
    pgcd,
    pmod,
    primes_between,
    ptrim,
    torsion_by_schoof,
    torsion_from_group_order,
)
from orbitmoments import local_counts
from orbitmoments.core_arith import (
    POW_ARRAY_LIMIT,
    is_prime,
    kronecker_symbol,
    pow_mod_array,
    prime_segments,
)
from orbitmoments.local_counts import (
    CURVE_PRESETS,
    BadPrimes,
    PowerEquation,
    WeierstrassCurve,
    count_roots_array,
    count_roots_formula,
    division_polynomial,
    ec_torsion_count_array,
    parse_curve,
)
from orbitmoments.moment_lab import SplitFilter
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
    for p in primes_between(2, 2001):
        for n in range(1, 13):
            for a in (1, 2, 3, 5, 6):
                if p % (n * a) == 0 or gcd(p, n * a) != 1:
                    continue
                assert count_roots_formula(PowerEquation(n, a), p) == count_roots_brute(
                    PowerEquation(n, a), p
                ), (p, n, a)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 24),
    a=st.integers(-(10**4), 10**4).filter(bool),
    lo=st.integers(2, 10**6),
    width=st.integers(1, 3000),
)
# lcm(n, 4|a|) past the class table's bound of 2**17, so every lane with
# gcd(p - 1, n) > 1 takes the criterion
@example(n=8, a=40_009, lo=2, width=3000)
@example(n=12, a=-32_771, lo=999_000, width=3000)
# n past the class table's bound of 2**17, so d comes from np.gcd
@example(n=(1 << 17) + 6, a=5, lo=2, width=3000)
# a = 5 and 23 around p = isqrt(2**63 - 1) / a: pow_mod_array folds each set
# bit's factor into the next square below it, and takes % p twice per bit above
@example(n=8, a=5, lo=607_397_000, width=3000)
@example(n=8, a=5, lo=607_399_000, width=3000)
@example(n=8, a=23, lo=132_040_500, width=3000)
@example(n=8, a=23, lo=132_042_000, width=3000)
# M = lcm(512, 4a) = 130,560 reads the class table, 131,584 is past its bound
@example(n=512, a=255, lo=2, width=3000)
@example(n=512, a=255, lo=10**6, width=3000)
@example(n=512, a=257, lo=2, width=3000)
@example(n=512, a=257, lo=10**6, width=3000)
# a negative a, and an odd n with a != 1 (M = n)
@example(n=24, a=-15, lo=2, width=3000)
@example(n=15, a=7, lo=2, width=3000)
def test_count_roots_array_matches_formula_property(n, a, lo, width):
    eq = PowerEquation(n, a)
    primes = np.concatenate([np.empty(0, dtype=np.int64), *prime_segments(lo, lo + width)])
    primes = primes[~eq.bad_primes.mask(primes)]
    want = [count_roots_formula(eq, p) for p in primes.tolist()]
    assert count_roots_array(eq, primes).tolist() == want


def test_class_table_matches_formula_on_a_full_sieve_segment():
    # the first segment from 2 spans 2**18 integers, so its primes leave
    # every residue mod M <= 64 * 28 that a prime can leave, 0 included
    # (p = M); with a = 1 the table is exact at every prime, p | n included
    primes = next(prime_segments(2, 10**6))
    for n in range(1, 65):
        for a in (1, (2, -3, 7, -1, 6, 5, -14)[n % 7]):
            eq = PowerEquation(n, a)
            if a == 1:  # count_roots_formula at a = 1 is gcd(p - 1, n) at every prime
                valued, want = primes, np.gcd(primes - 1, n)
            else:
                valued = primes[~eq.bad_primes.mask(primes)]
                want = np.array([count_roots_formula(eq, p) for p in valued.tolist()])
            m = local_counts._class_modulus(eq)
            assert m == (n if a == 1 or n % 2 else lcm(n, 4 * abs(a))), (n, a)
            entry = local_counts._class_table(eq)[valued % m]
            # an entry is the count, or -d where the criterion decides between d and 0
            d = np.gcd(valued - 1, n)
            criterion = entry < 0
            assert np.array_equal(entry[~criterion], want[~criterion]), (n, a)
            assert np.array_equal(-entry[criterion], d[criterion]), (n, a)
            assert ((want == 0) | (want == d))[criterion].all(), (n, a)
            assert np.array_equal(count_roots_array(eq, valued), want), (n, a)


def test_count_roots_formula_falls_back_on_shared_factor():
    eq = PowerEquation(4, 2)
    assert count_roots_formula(eq, 2) == count_roots_brute(eq, 2)


def test_count_roots_formula_matches_brute_at_primes_dividing_na():
    # p | a leaves the root 0 alone; p | n alone leaves Euler's criterion
    cases = 0
    for n in range(1, 13):
        for a in (-30, -6, -1, 1, 2, 3, 5, 6, 30, 77):
            eq = PowerEquation(n, a)
            for p in primes_between(2, 200):
                if p in eq.bad_primes:
                    cases += 1
                    assert count_roots_formula(eq, p) == count_roots_brute(eq, p), (p, n, a)
    assert cases == 262


def test_count_roots_formula_at_a_prime_no_scan_could_finish():
    p = 2**61 - 1
    assert count_roots_formula(PowerEquation(5, p), p) == 1
    # p | n, p odd: d = gcd(p - 1, 2p) = 2, so the count is 1 + (3|p)
    assert count_roots_formula(PowerEquation(2 * p, 3), p) == 1 + kronecker_symbol(3, p)


def test_product_system_multiplies():
    for p in primes_between(2, 101):
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
    assert {p for p in primes_between(2, 31) if c.discriminant % p == 0} == {2, 3, 17}
    c = CURVE_PRESETS["11a2"]
    assert {p for p in primes_between(2, 31) if c.discriminant % p == 0} == {2, 3, 11}
    # CM is read off the coefficients, so the presets carry no tag
    assert CURVE_PRESETS["cm:-1"].cm == QuadOrderSpec(-1)
    assert CURVE_PRESETS["cm:-3"].cm == QuadOrderSpec(-3)
    assert CURVE_PRESETS["17a3"].cm is None and CURVE_PRESETS["11a2"].cm is None


def test_curve_has_no_cm_field():
    assert [f.name for f in dataclasses.fields(WeierstrassCurve)] == ["a", "b", "label"]
    with pytest.raises(TypeError):
        WeierstrassCurve(-1, 0, cm=QuadOrderSpec(-1))
    assert WeierstrassCurve(-1, 0).cm == QuadOrderSpec(-1)
    assert WeierstrassCurve(0, 1).cm == QuadOrderSpec(-3)


def test_parse_curve():
    assert parse_curve("17a3") is CURVE_PRESETS["17a3"]
    c = parse_curve("-1,0")
    assert (c.a, c.b, c.cm, c.label) == (-1, 0, QuadOrderSpec(-1), "-1,0")
    assert parse_curve("0,1").cm == QuadOrderSpec(-3)
    # only the two CM models have a CM field, not yet their twists -4,0 and 0,2
    for text in ("3,5", "-1,1", "0,2", "-4,0"):
        assert parse_curve(text).cm is None, text
    for text in ("nonsense", "1.5,2", "1,2,3", "1,"):
        with pytest.raises(ValueError, match="unknown curve"):
            parse_curve(text)
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0)


def test_point_count_brute_agreement():
    for curve in (CURVE_PRESETS["cm:-1"], CURVE_PRESETS["cm:-3"], WeierstrassCurve(3, 5)):
        for p in primes_between(2, 201):
            if p in curve.bad_primes():
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
        for p in primes_between(2, 10**4 + 1):
            if p not in curve.bad_primes():
                assert abs(ec_point_count(curve, p) - p - 1) <= 2 * isqrt(p) + 1


def test_ec_mul_small():
    # y^2 = x^3 - x over F_5 has points of order dividing 4
    curve = CURVE_PRESETS["cm:-1"]
    pts = ec_points(curve, 5)
    assert len(pts) + 1 == ec_point_count(curve, 5)
    for P in pts:
        assert ec_mul(P, ec_point_count(curve, 5), curve.a % 5, 5) is None


def _counts_at(curve, primes, ell):
    """{p: |E(F_p)[ell]|}: one array call over the good primes, 0 at the rest."""
    primes = np.array(list(primes), dtype=np.int64)
    counts = np.zeros(primes.size, dtype=np.int64)
    good = ~curve.bad_primes(ell).mask(primes)
    counts[good] = ec_torsion_count_array(curve, primes[good], ell)
    return dict(zip(primes.tolist(), counts.tolist()))


def test_full_two_torsion_of_cm_curve():
    # x^3 - x = x(x-1)(x+1) splits over every F_p
    curve = CURVE_PRESETS["cm:-1"]
    primes = np.array([p for p in primes_between(2, 501) if p not in curve.bad_primes()])
    assert ec_torsion_count_array(curve, primes, 2).tolist() == [4] * primes.size


def test_torsion_fast_matches_enumeration():
    curves = (
        CURVE_PRESETS["cm:-1"],
        CURVE_PRESETS["cm:-3"],
        CURVE_PRESETS["17a3"],
        CURVE_PRESETS["11a2"],
        WeierstrassCurve(3, 5),
    )
    for curve in curves:
        for ell in (2, 3, 5, 7):
            for p, count in _counts_at(curve, primes_between(2, 401), ell).items():
                assert count == ec_torsion_count_enum(curve, p, ell), (curve, p, ell)


def test_torsion_ambiguous_branch_against_enumeration():
    # primes where ell | p - 1 and ell^2 | |E(F_p)|, forcing the
    # division-polynomial root count to decide between ell and ell^2
    curves = (CURVE_PRESETS["17a3"], CURVE_PRESETS["cm:-1"], WeierstrassCurve(3, 5))
    outcomes = set()
    hits = 0
    for curve in curves:
        for ell in (3, 5):
            for p in primes_between(2, 1501):
                if p < 5 or (ell * curve.discriminant) % p == 0:
                    continue
                m, _ = ec_group_data(curve.a, curve.b, p)
                if m % (ell * ell) == 0 and (p - 1) % ell == 0:
                    hits += 1
                    fast = _counts_at(curve, [p], ell)[p]
                    assert fast == ec_torsion_count_enum(curve, p, ell), (curve, p, ell)
                    outcomes.add(fast == ell * ell)
    assert hits > 10
    assert outcomes == {True, False}  # both resolutions exercised


def test_torsion_against_character_sum_near_1e6():
    # The enumeration oracle is too slow this far out; the character sum
    # still gives |E(F_p)| and the cubic's root count.  The second half of
    # the sample has p = 1 mod 105, where full ell-torsion is possible.
    primes = primes_between(10**6, 10**6 + 400)[:6]
    primes += [p for p in primes_between(10**6, 10**6 + 40000) if p % 105 == 1][:6]
    full = set()
    for curve in CURVE_PRESETS.values():
        counts = {ell: _counts_at(curve, primes, ell) for ell in (2, 3, 5, 7)}
        for p in primes:
            m, cubic_roots = ec_group_data(curve.a, curve.b, p)
            assert counts[2][p] == 1 + cubic_roots, (curve, p)
            for ell in (3, 5, 7):
                n = counts[ell][p]
                assert (n > 1) == (m % ell == 0), (curve, p, ell)
                if n == ell * ell:
                    assert m % (ell * ell) == 0 and p % ell == 1, (curve, p, ell)
                    full.add(ell)
    assert full == {3, 5}  # the ell**2 case is exercised


def test_torsion_value_set_and_weil_constraint():
    curve = CURVE_PRESETS["17a3"]
    for ell in (3, 5, 7):
        for p, n in _counts_at(curve, primes_between(2, 10**4 + 1), ell).items():
            assert n in (0, 1, ell, ell * ell)
            if n == ell * ell:
                assert p % ell == 1, (p, ell)


def test_cm_supersingular_torsion_is_gcd():
    curve = CURVE_PRESETS["cm:-1"]
    spec = curve.cm
    supersingular = [
        p
        for p in primes_between(2, 10**4 + 1)
        if p not in curve.bad_primes() and kronecker_symbol(spec.discriminant, p) != 1
    ]
    for p in supersingular:
        assert ec_point_count(curve, p) == p + 1
    for ell in (3, 5, 7):
        primes = np.array([p for p in supersingular if p != ell])
        want = [gcd(ell, p + 1) for p in primes.tolist()]
        assert ec_torsion_count_array(curve, primes, ell).tolist() == want, ell


def test_division_polynomial_roots_match_torsion_x_coords():
    curve = WeierstrassCurve(3, 5)
    for p in (11, 13, 23, 37):
        for ell in (3, 5):
            poly = ptrim([c % p for c in division_polynomial(ell, curve.a, curve.b)])
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
    # the split filter keeps the split primes; the nonsplit one keeps inert and ramified
    primes = np.array([2, 3, 5, 7], dtype=np.int64)
    for d, split in ((-1, [False, False, True, False]), (-3, [False, False, False, True])):
        spec = QuadOrderSpec(d)
        assert SplitFilter.split(spec).mask(primes).tolist() == split, d
        assert SplitFilter.nonsplit(spec).mask(primes).tolist() == [not s for s in split], d


def test_bad_primes_mask_matches_rule():
    huge = 2**70 * 7 * 999_983 * 1_000_003  # does not fit int64
    top = next(p for p in range(2**32 - 1, 2**31, -2) if is_prime(p))  # a prime past 2**31
    big_curve = parse_curve("123456789012,987654321098")
    assert abs(big_curve.discriminant) >= 2**63
    rules = (
        BadPrimes(huge),
        BadPrimes(huge * top),
        BadPrimes(0),  # every prime divides 0
        BadPrimes(12),
        big_curve.bad_primes(3),
        CURVE_PRESETS["17a3"].bad_primes(5),
    )
    rng = np.random.default_rng(11)
    segments = [*prime_segments(2, 2 * 10**6), *prime_segments(2**32 - 3000, 2**32)]
    for bad in rules:
        for segment in segments + [rng.permutation(segments[0])]:  # and unsorted
            assert segment[bad.mask(segment)].tolist() == [p for p in segment.tolist() if p in bad]
    assert [p for p in primes_between(2, 2 * 10**6) if p in BadPrimes(huge)] == [
        2,
        7,
        999_983,
        1_000_003,
    ]
    assert BadPrimes(huge * top).mask(segments[-1]).tolist().count(True) == 1
    assert [p for p in primes_between(2, 31) if p in CURVE_PRESETS["17a3"].bad_primes(5)] == [2, 3, 5, 17]


def _good_primes(curve, ell, lo, hi):
    primes = np.concatenate([np.empty(0, dtype=np.int64), *prime_segments(lo, hi)])
    return primes[~curve.bad_primes(ell).mask(primes)]


def _degree(ell):
    """deg g for the lanes: the cubic for ell = 2, else psi_ell."""
    return 3 if ell == 2 else (ell * ell - 1) // 2


def _int64_switch(d):
    """The least p whose lanes of degree d take Python ints, by bisection."""
    lo, hi = 2, 1 << 32
    assert local_counts._lane_dtype(d, hi) is object
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if local_counts._lane_dtype(d, mid) is object:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("name", ["17a3", "11a2", "cm:-1", "cm:-3"])
def test_torsion_array_matches_per_prime(name):
    curve = CURVE_PRESETS[name]
    for ell in (2, 3, 5, 7):
        primes = _good_primes(curve, ell, 2, 10**4)
        want = [torsion_from_group_order(curve, p, ell) for p in primes.tolist()]
        assert ec_torsion_count_array(curve, primes, ell).tolist() == want, ell


@pytest.mark.parametrize("name", ["17a3", "cm:-3"])
def test_torsion_array_matches_reference_at_large_ell(name):
    # ell = 17 and 19 have deg g = 144 and 180
    curve = CURVE_PRESETS[name]
    for ell, hi in ((7, 3000), (11, 1500), (13, 700), (17, 400), (19, 400)):
        primes = _good_primes(curve, ell, 2, hi)
        want = [torsion_from_group_order(curve, p, ell) for p in primes.tolist()]
        assert ec_torsion_count_array(curve, primes, ell).tolist() == want, ell


def _linear_product(roots, p):
    out = [1]
    for root in roots:
        out = [c % p for c in local_counts._pmul(out, [-root % p, 1])]
    return out


def _gcd_lanes(rng, d, p):
    """(p, g, r) with g monic of degree d and r of degree < d, in four kinds."""
    g = rng.integers(0, p, d).tolist() + [1]
    yield p, g, rng.integers(0, p, d).tolist()
    yield p, g, []
    # g fully split; r a multiple of some of its linear factors, reduced mod g
    roots = rng.integers(0, p, d).tolist()
    split = _linear_product(roots, p)
    shared = _linear_product(roots[: rng.integers(0, d + 1)], p)
    multiple = local_counts._pmul(shared, rng.integers(0, p, 3).tolist())
    yield p, split, pmod(multiple, split, p)
    # g = h * r with r = h * (x - c)**(d % 2): repeated roots, and r shares every one
    if d > 1:
        h = _linear_product(rng.integers(0, p, d // 2).tolist(), p)
        r = local_counts._pmul(h, _linear_product(rng.integers(0, p, d % 2).tolist(), p))
        yield p, [c % p for c in local_counts._pmul(h, r)], [c % p for c in r]


def test_lane_gcd_degree_matches_pgcd():
    rng = np.random.default_rng(7)
    # the largest primes int64 lanes take at d = 60, and so at every smaller d
    top = _int64_switch(60)
    primes = primes_between(5, 200) + primes_between(top - 400, top)
    for d in (1, 2, 3, 4, 12, 24, 60):
        lanes = [lane for p in rng.choice(primes, 120).tolist() for lane in _gcd_lanes(rng, d, p)]
        p = np.array([q for q, _, _ in lanes], dtype=np.int64)
        g_low = np.array([g[:d] for _, g, _ in lanes], dtype=np.int64).T
        r = np.array([r + [0] * (d - len(r)) for _, _, r in lanes], dtype=np.int64).T
        ring = local_counts._LaneRing.modulo(g_low, p)
        gcds = [pgcd(g, ptrim(list(r)), q) for q, g, r in lanes]
        want = [len(w) - 1 for w in gcds]
        assert {0, d} <= set(want), d  # r = 0 gives d
        for keep in (0, d // 2 + 1, d + 1):
            degree, low = ring.gcd_degree(r, keep)
            assert degree.tolist() == want, (d, keep)
            assert low.shape == (keep, p.size), (d, keep)
            # below keep, x**deg * f(1/x) / f(0) is the monic gcd
            for lane, (q, w) in enumerate(zip(p.tolist(), gcds)):
                if len(w) <= keep:
                    f = low[: len(w), lane].tolist()
                    monic = [c * pow(f[0], -1, q) % q for c in reversed(f)]
                    assert monic == [c * pow(w[-1], -1, q) % q for c in w], (d, keep, q)


def test_lane_product_at_its_exactness_limit():
    # the largest p int64 lanes take, with coefficients near p - 1 and
    # g = x**d + ... + x + 1, so the int64 sums come near their bound of
    # 2d * p**2, which every degree shares
    rng = np.random.default_rng(3)
    for d in (64, 127):
        top = _int64_switch(d)
        p = np.array(primes_between(top - 200, top))
        ring = local_counts._LaneRing.modulo(np.ones((d, p.size), dtype=np.int64), p)
        a = p - 1 - rng.integers(0, 4096, (d, p.size))
        got = ring.square(a)
        for lane, q in enumerate(p.tolist()):
            coeffs = a[:, lane].tolist()
            want = pmod(local_counts._pmul(coeffs, coeffs), [1] * (d + 1), q)
            assert got[:, lane].tolist() == want + [0] * (d - len(want)), (d, q)


def test_monic_modulus_inverts_ell_from_a_table():
    # 1/ell = (1 + m*p)/ell with m = -1/p mod ell equals ell**(p-2), on int64
    # and on Python-int lanes, up to the largest int64 lanes and past them
    curve = CURVE_PRESETS["17a3"]
    for ell in (3, 5, 7, 13):
        switch = _int64_switch(_degree(ell))
        for primes in (_good_primes(curve, ell, 2, 3000), _good_primes(curve, ell, switch - 300, switch + 300)):
            for p in (primes, primes.astype(object)):
                psi = local_counts._residues(local_counts._integer_division_polynomial(ell, curve.a, curve.b), p)
                assert (psi[-1] == ell % p).all()
                want = psi[:-1] * pow_mod_array(psi[-1], p - 2, p) % p
                got = local_counts._monic_modulus(curve, ell, p)
                assert got.dtype == p.dtype and got.tolist() == want.tolist(), (ell, p.dtype)


def _spy_degrees(monkeypatch):
    """(dtype, deg h) of every lane whose h the second stage reads, in call order."""
    seen = []
    gcd_degree = local_counts._LaneRing.gcd_degree

    def spy(ring, r, keep=0):
        degree, low = gcd_degree(ring, r, keep)
        if keep:
            seen.extend((ring.p.dtype, deg) for deg in degree.tolist())
        return degree, low

    monkeypatch.setattr(local_counts._LaneRing, "gcd_degree", spy)
    return seen


def test_second_stage_by_deg_h_matches_group_order(monkeypatch):
    # deg h is 0, e, 2e or d = (ell + 1)*e; each class occurs for each ell
    # across the two curves (11a2 has Frobenius = +-I on a quarter of its
    # primes at ell = 3, and no lane with deg h = e there)
    seen = _spy_degrees(monkeypatch)
    for ell in (3, 5, 7):
        seen.clear()
        for name in ("17a3", "11a2"):
            curve = CURVE_PRESETS[name]
            primes = _good_primes(curve, ell, 2, 2 * 10**4)
            want = [torsion_from_group_order(curve, p, ell) for p in primes.tolist()]
            assert ec_torsion_count_array(curve, primes, ell).tolist() == want, (name, ell)
        e = (ell - 1) // 2
        assert {deg for _, deg in seen} == {0, e, 2 * e, (ell + 1) * e}, ell


def test_second_stage_across_the_int64_switch(monkeypatch):
    # at ell = 3 every deg h class occurs on int64 lanes and on Python-int lanes
    switch = _int64_switch(_degree(3))
    seen = _spy_degrees(monkeypatch)
    for name in ("17a3", "11a2"):
        curve = CURVE_PRESETS[name]
        primes = _good_primes(curve, 3, switch - 2000, switch + 2000)
        below = primes[primes < switch]
        want = [torsion_by_schoof(curve, p, 3) for p in primes.tolist()]
        assert ec_torsion_count_array(curve, below, 3).tolist() == want[: below.size], name
        assert ec_torsion_count_array(curve, primes, 3).tolist() == want, name
    for dtype in (np.int64, object):
        assert {deg for t, deg in seen if t == dtype} == {0, 1, 2, 4}, dtype


def test_torsion_lanes_reject_an_impossible_deg_h(monkeypatch):
    curve = CURVE_PRESETS["17a3"]
    primes = _good_primes(curve, 5, 2, 200)
    gcd_degree = local_counts._LaneRing.gcd_degree

    def shifted(ring, r, keep=0):
        degree, low = gcd_degree(ring, r, keep)
        degree[4] = 3  # at ell = 5, deg h is 0, 2, 4 or 12
        return degree, low

    monkeypatch.setattr(local_counts._LaneRing, "gcd_degree", shifted)
    message = f"deg gcd(g, x**p - x) = 3 for {curve} at p={primes[4]}, ell=5 is impossible"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        ec_torsion_count_array(curve, primes, 5)


def test_torsion_array_memory_stays_per_block():
    curve = CURVE_PRESETS["17a3"]
    (segment,) = prime_segments(10**5, 10**5 + 2**18)  # one whole sieve segment
    primes = segment[~curve.bad_primes(7).mask(segment)]
    tracemalloc.start()
    try:
        counts = ec_torsion_count_array(curve, primes, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert primes.size > 10**4 and set(counts.tolist()) == {1, 7, 49}
    # a block's (2d - 1, L) product buffer and its few (d, L) elements,
    # however many primes the segment holds
    assert peak < 8 * 8 * local_counts._LANE_ENTRIES, peak


def test_torsion_array_across_its_limit():
    # one array straddling the prime where lanes switch from int64 to Python
    # ints: both sides equal the reference, and the int64 side also equals
    # the same primes on Python-int lanes
    straddles = (("cm:-1", 2, 1200), ("17a3", 3, 1200), ("11a2", 11, 200), ("17a3", 13, 200))
    for name, ell, width in straddles:
        curve = CURVE_PRESETS[name]
        switch = _int64_switch(_degree(ell))
        primes = _good_primes(curve, ell, switch - width, switch + width)
        below = primes[primes < switch]
        assert 0 < below.size < primes.size
        want = [torsion_by_schoof(curve, p, ell) for p in primes.tolist()]
        assert ec_torsion_count_array(curve, primes, ell).tolist() == want, name
        assert ec_torsion_count_array(curve, below, ell).tolist() == want[: below.size], name
        on_objects = local_counts._torsion_lanes(curve, below.astype(object), ell)
        assert on_objects.tolist() == want[: below.size], name
    # near 2**32, and past 2**64 one prime at a time, only Python ints are exact
    huge = next(p for p in range(2**64 + 1, 2**64 + 10**4, 2) if is_prime(p))
    for name, ell in (("17a3", 3), ("cm:-1", 2), ("11a2", 5)):
        curve = CURVE_PRESETS[name]
        top = _good_primes(curve, ell, 2**32 - 600, 2**32)
        want = [torsion_by_schoof(curve, p, ell) for p in top.tolist()]
        assert ec_torsion_count_array(curve, top, ell).tolist() == want, name
        got = ec_torsion_count_array(curve, np.array([huge], dtype=object), ell)
        assert got.tolist() == [torsion_by_schoof(curve, huge, ell)], name


@settings(max_examples=25, deadline=None)
@given(
    a=st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30)),
    b=st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30)),
    ell=st.sampled_from((2, 3, 5, 7)),
    lo=st.integers(2, 2 * 10**5),
)
def test_torsion_array_on_random_curves(a, b, ell, lo):
    assume(4 * a**3 + 27 * b**2 != 0)
    curve = WeierstrassCurve(a, b)
    primes = _good_primes(curve, ell, lo, lo + 1500)
    want = [torsion_by_schoof(curve, p, ell) for p in primes.tolist()]
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
    # a block past the int64 switch runs on Python-int lanes, and its counts
    # are checked the same way
    switch = _int64_switch(_degree(3))
    primes = _good_primes(curve, 3, switch - 200, switch + 200)
    assert primes[3] < switch < primes[-1]
    dtypes = []

    def object_lanes(curve, p, ell):
        dtypes.append(p.dtype)
        counts = np.ones(p.size, dtype=np.int64)
        counts[3:] = 5
        return counts

    monkeypatch.setattr(local_counts, "_torsion_lanes", object_lanes)
    message = f"torsion count 5 for {curve} at p={primes[3]}, ell=3 is impossible"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        ec_torsion_count_array(curve, primes, 3)
    assert dtypes == [object]


def _spy_lanes(monkeypatch):
    """The primes every _torsion_lanes call receives, in call order."""
    seen = []
    lanes = local_counts._torsion_lanes

    def spy(curve, p, ell):
        seen.extend(p.tolist())
        return lanes(curve, p, ell)

    monkeypatch.setattr(local_counts, "_torsion_lanes", spy)
    return seen


@pytest.mark.parametrize("name", ["cm:-1", "cm:-3"])
def test_frobenius_path_matches_the_lanes(name, monkeypatch):
    curve = CURVE_PRESETS[name]
    for ell in (3, 5, 7, 11, 13):
        primes = _good_primes(curve, ell, 2, 3 * 10**4)
        want = local_counts._lane_counts(curve, primes, ell)
        seen = _spy_lanes(monkeypatch)
        got = ec_torsion_count_array(curve, primes, ell)
        monkeypatch.undo()
        assert seen == [], ell  # every count came from Frobenius
        assert got.tolist() == want.tolist(), (name, ell)
        assert {ell, ell * ell} <= set(got.tolist()), (name, ell)  # both nontrivial values


def test_frobenius_path_matches_enumeration():
    for name in ("cm:-1", "cm:-3"):
        curve = CURVE_PRESETS[name]
        D = -local_counts._CM_MODELS[(curve.a, curve.b)].d
        for ell in (3, 5, 7, 11, 13):
            primes = _good_primes(curve, ell, 2, 400)
            got = local_counts._frobenius_counts(D, primes, ell).tolist()
            want = [ec_torsion_count_enum(curve, p, ell) for p in primes.tolist()]
            assert got == want, (name, ell)


def test_frobenius_path_leaves_ell_2_and_large_primes_to_the_lanes(monkeypatch):
    for name in ("cm:-1", "cm:-3"):
        curve = CURVE_PRESETS[name]
        small = _good_primes(curve, 2, 2, 300)
        seen = _spy_lanes(monkeypatch)
        assert ec_torsion_count_array(curve, small, 2).tolist() == [
            torsion_by_schoof(curve, p, 2) for p in small.tolist()
        ]
        assert seen == small.tolist()
        # one array across POW_ARRAY_LIMIT: only the primes past it take the lanes
        primes = _good_primes(curve, 5, POW_ARRAY_LIMIT - 300, POW_ARRAY_LIMIT + 300)
        above = primes[primes >= POW_ARRAY_LIMIT]
        assert 0 < above.size < primes.size
        seen.clear()
        got = ec_torsion_count_array(curve, primes, 5)
        assert seen == above.tolist(), name
        assert got.tolist() == [torsion_by_schoof(curve, p, 5) for p in primes.tolist()], name
        seen.clear()
        p = int(above[0])
        assert _counts_at(curve, [p], 5) == {p: torsion_by_schoof(curve, p, 5)}
        assert seen == [p]
        monkeypatch.undo()


def test_frobenius_path_is_chosen_by_coefficients(monkeypatch):
    for name in ("cm:-1", "cm:-3"):
        # the model without the preset's label has the preset's field
        curve = CURVE_PRESETS[name]
        plain = WeierstrassCurve(curve.a, curve.b)
        assert plain.cm == curve.cm and plain != curve
        primes = _good_primes(curve, 7, 10**6, 10**6 + 20000)
        seen = _spy_lanes(monkeypatch)
        assert (
            ec_torsion_count_array(plain, primes, 7).tolist()
            == ec_torsion_count_array(curve, primes, 7).tolist()
        )
        assert seen == []
        monkeypatch.undo()
    # the same curve with a shifted model is not one of the two, and takes the lanes
    seen = _spy_lanes(monkeypatch)
    ec_torsion_count_array(WeierstrassCurve(-4, 0), np.array([13, 17]), 3)
    assert seen == [13, 17]


def test_split_filter_mask_matches_kronecker_symbol():
    small = np.concatenate(list(prime_segments(2, 10**4)))
    (near,) = prime_segments(POW_ARRAY_LIMIT - 3000, POW_ARRAY_LIMIT + 3000)
    assert near.min() < POW_ARRAY_LIMIT < near.max()
    # near 2**32 an int64 product of two residues would overflow
    (top,) = prime_segments(2**32 - 3000, 2**32)
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for primes in (small, near, top):
            split = [kronecker_symbol(spec.discriminant, p) == 1 for p in primes.tolist()]
            assert SplitFilter.split(spec).mask(primes).tolist() == split, d
            nonsplit = [not s for s in split]
            assert SplitFilter.nonsplit(spec).mask(primes).tolist() == nonsplit, d
