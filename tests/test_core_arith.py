import math

import numpy as np
import pytest

from orbitmoments.core_arith import (
    _SEGMENT,
    POW_ARRAY_LIMIT,
    _simple_sieve,
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    kronecker_array,
    kronecker_symbol,
    mobius,
    pow_mod,
    pow_mod_array,
    prime_segments,
    primes_in_range,
)
from orbitmoments.residue_algebra import CLASS_NUMBER_ONE_D, QuadOrderSpec


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def test_sieve_small():
    assert list(primes_in_range(2, 11)) == [2, 3, 5, 7]
    assert list(primes_in_range(2, 3)) == [2]
    assert list(primes_in_range(2, 2)) == []


def test_sieve_agrees_with_trial_division_up_to_1e5():
    sieved = set(primes_in_range(2, 10**5 + 1))
    for n in range(10**5 + 1):
        assert (n in sieved) == trial_division_prime(n), n


def test_sieve_prime_count_1e6():
    # pi(10**6), frozen from an independent Miller-Rabin loop
    assert sum(1 for _ in primes_in_range(2, 10**6 + 1)) == 78498


def test_sieve_members_pass_primality():
    for p in primes_in_range(2, 10**4 + 1):
        assert is_prime(p)


def test_range_partition_concatenates():
    whole = list(primes_in_range(2, 5001))
    pieces = []
    for lo, hi in ((2, 1300), (1300, 2222), (2222, 5001)):
        pieces.extend(primes_in_range(lo, hi))
    assert pieces == whole


def _stream(lo, hi):
    segments = list(prime_segments(lo, hi))
    for segment in segments:
        assert segment.dtype == np.int64 and segment.size
        assert (np.diff(segment) > 0).all()
    return np.concatenate([np.empty(0, dtype=np.int64), *segments])


def test_prime_segments_match_simple_sieve():
    reference = _simple_sieve(10**6)

    def check(lo, hi):
        want = reference[(reference >= lo) & (reference < hi)]
        assert _stream(lo, hi).tolist() == want.tolist(), (lo, hi)

    edge = 2 + _SEGMENT  # where the second segment of a stream from 2 starts
    his = [0, 1, 2, 3, 4, 5, 6, 1000, 1001, edge - 1, edge, edge + 1, edge + 2, 10**6 - 1, 10**6]
    for lo in (0, 1, 2, 3, 4, 5, 1000, 1001):
        for hi in his:
            check(lo, hi)
    # ranges that start at an edge, and end at or just past the next edge of their own
    for lo in (edge - 1, edge, edge + 1):
        for hi in (lo + _SEGMENT - 1, lo + _SEGMENT, lo + _SEGMENT + 1, lo + 2 * _SEGMENT + 1):
            check(lo, hi)
    assert len(list(prime_segments(2, edge))) == 1
    assert len(list(prime_segments(2, edge + 2))) == 2  # edge + 1 = 262147 is prime


def test_prime_segments_random_partition():
    whole = _simple_sieve(10**6 - 1).tolist()
    rng = np.random.default_rng(7)
    for pieces in (2, 5, 40):
        cuts = np.sort(rng.choice(np.arange(3, 10**6), pieces - 1, replace=False)).tolist()
        bounds = [2, *cuts, 10**6]
        stream = [p for lo, hi in zip(bounds, bounds[1:]) for p in _stream(lo, hi).tolist()]
        assert stream == whole, cuts


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(97) and is_prime(7919)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(561) and not is_prime(341550071728321)  # strong pseudoprimes
    assert is_prime(2**61 - 1)


def test_factorize():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(97) == [(97, 1)]
    for n in range(1, 2000):
        fact = factorize(n)
        assert math.prod(p**e for p, e in fact) == n
        assert all(is_prime(p) for p, _ in fact)
        assert [p for p, _ in fact] == sorted(p for p, _ in fact)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    # direct summation oracle: sum of phi over divisors is n
    for n in range(1, 10**4 + 1):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_mobius():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0
    for n in range(1, 10**4 + 1):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_divisor_count():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    for n in range(1, 500):
        assert divisor_count(n) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_pow_mod_examples():
    assert pow_mod(2, 10, 1000) == 24
    assert pow_mod(5, 0, 7) == 1
    assert pow_mod(-3, 3, 7) == (-27) % 7


def test_pow_mod_against_naive():
    for m in (2, 3, 5, 31, 64, 97):
        for b in range(201):
            acc = 1 % m
            for e in range(201):
                assert pow_mod(b, e, m) == acc
                acc = acc * b % m


def test_pow_mod_fermat():
    for p in primes_in_range(2, 10**4 + 1):
        if p != 3:
            assert pow_mod(3, p - 1, p) == 1


def test_pow_mod_array_against_builtin():
    rng = np.random.default_rng(0)
    mod = np.concatenate(
        [rng.integers(2, 1000, 500), rng.integers(POW_ARRAY_LIMIT - 10**6, POW_ARRAY_LIMIT, 500)]
    )
    base = rng.integers(0, 2**62, mod.size)
    exp = np.concatenate([np.arange(500), rng.integers(0, POW_ARRAY_LIMIT, 500)])
    got = pow_mod_array(base, exp, mod).tolist()
    assert got == [pow(b, e, m) for b, e, m in zip(base.tolist(), exp.tolist(), mod.tolist())]


def test_pow_mod_rejects():
    with pytest.raises(ValueError):
        pow_mod(2, 3, 1)
    with pytest.raises(ValueError):
        pow_mod(2, -1, 7)


def test_kronecker_quadratic_fields():
    # 5 splits in Q(i): x^2 + 1 has a root mod 5
    assert any((x * x + 1) % 5 == 0 for x in range(5))
    assert kronecker_symbol(-4, 5) == 1
    # 7 inert: x^2 + 1 has no root mod 7
    assert not any((x * x + 1) % 7 == 0 for x in range(7))
    assert kronecker_symbol(-4, 7) == -1
    assert kronecker_symbol(-4, 2) == 0


def test_kronecker_matches_euler_criterion():
    for p in primes_in_range(2, 201):
        if p == 2:
            continue
        for a in range(-50, 51):
            want = pow(a, (p - 1) // 2, p)
            want = -1 if want == p - 1 else want
            assert kronecker_symbol(a, p) == want, (a, p)


def test_kronecker_multiplicative():
    for n in range(1, 60):
        for a in range(-20, 21):
            for b in range(-20, 21):
                assert kronecker_symbol(a * b, n) == kronecker_symbol(
                    a, n
                ) * kronecker_symbol(b, n)


def test_kronecker_bottom_multiplicative():
    for a in range(-15, 16):
        for n1 in range(1, 30):
            for n2 in range(1, 30):
                assert kronecker_symbol(a, n1 * n2) == kronecker_symbol(
                    a, n1
                ) * kronecker_symbol(a, n2)


def test_kronecker_rejects_zero():
    with pytest.raises(ValueError):
        kronecker_symbol(3, 0)


def test_kronecker_array_on_class_number_one_discriminants():
    primes = _stream(2, 10**5)
    for d in CLASS_NUMBER_ONE_D:
        disc = QuadOrderSpec(d).discriminant
        want = [kronecker_symbol(disc, p) for p in primes.tolist()]
        assert kronecker_array(disc, primes).tolist() == want, disc


def test_kronecker_array_on_both_sides_of_its_table():
    # the table covers 4|a| <= 2**17, that is |a| <= 32768; past it Euler's
    # criterion runs below POW_ARRAY_LIMIT, and kronecker_symbol above it
    # and for a beyond int64
    chunks = (
        _stream(2, 3000),
        _stream(POW_ARRAY_LIMIT - 3000, POW_ARRAY_LIMIT + 3000),
        _stream(2**32 - 3000, 2**32),
    )
    constants = (1, -1, 2, -3, 12, -385, 32768, -32768, 32769, -32771, 510510, 2**61 - 1, -(2**70) - 1)
    for a in constants:
        for primes in chunks:
            want = [kronecker_symbol(a, p) for p in primes.tolist()]
            assert kronecker_array(a, primes).tolist() == want, a
