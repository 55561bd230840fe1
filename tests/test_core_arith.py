import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import primes_between, simple_sieve
from orbitmoments import core_arith
from orbitmoments.core_arith import (
    POW_ARRAY_LIMIT,
    SIEVE_SEGMENT,
    _odd_base,
    class_prime_counts,
    divisor_count,
    divisors,
    factorize,
    grid_column,
    is_prime,
    kronecker_array,
    kronecker_symbol,
    mobius,
    pow_mod_array,
    prime_segments,
)
from orbitmoments.residue_algebra import CLASS_NUMBER_ONE_D, QuadOrderSpec, glm_order


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def test_sieve_small():
    assert primes_between(2, 11) == [2, 3, 5, 7]
    assert primes_between(2, 3) == [2]
    assert primes_between(2, 2) == []


def test_sieve_agrees_with_trial_division_up_to_1e5():
    sieved = set(primes_between(2, 10**5 + 1))
    for n in range(10**5 + 1):
        assert (n in sieved) == trial_division_prime(n), n


def test_sieve_prime_count_1e6():
    # pi(10**6), frozen from an independent Miller-Rabin loop
    assert len(primes_between(2, 10**6 + 1)) == 78498


def test_sieve_members_pass_primality():
    for p in primes_between(2, 10**4 + 1):
        assert is_prime(p)


def test_range_partition_concatenates():
    whole = primes_between(2, 5001)
    pieces = []
    for lo, hi in ((2, 1300), (1300, 2222), (2222, 5001)):
        pieces.extend(primes_between(lo, hi))
    assert pieces == whole


def _stream(lo, hi):
    segments = list(prime_segments(lo, hi))
    for segment in segments:
        assert segment.dtype == np.int64 and segment.size
        assert (np.diff(segment) > 0).all()
    return np.concatenate([np.empty(0, dtype=np.int64), *segments])


def test_odd_base_matches_simple_sieve():
    # each base is sieved by _odd_segment from the base of half as many bits
    for bits in range(24):
        want = simple_sieve((1 << bits) - 1)[1:]
        assert _odd_base(bits).tolist() == want.tolist(), bits


def test_prime_segments_match_simple_sieve():
    reference = simple_sieve(10**6)

    def check(lo, hi):
        want = reference[(reference >= lo) & (reference < hi)]
        assert _stream(lo, hi).tolist() == want.tolist(), (lo, hi)

    edge = 2 + SIEVE_SEGMENT  # where the second segment of a stream from 2 starts
    his = [0, 1, 2, 3, 4, 5, 6, 1000, 1001, edge - 1, edge, edge + 1, edge + 2, 10**6 - 1, 10**6]
    for lo in (0, 1, 2, 3, 4, 5, 1000, 1001):
        for hi in his:
            check(lo, hi)
    # ranges that start at an edge, and end at or just past the next edge of their own
    step = SIEVE_SEGMENT
    for lo in (edge - 1, edge, edge + 1):
        for hi in (lo + step - 1, lo + step, lo + step + 1, lo + 2 * step + 1):
            check(lo, hi)
    assert len(list(prime_segments(2, edge))) == 1
    assert len(list(prime_segments(2, edge + 2))) == 2  # edge + 1 = 262147 is prime


@pytest.mark.parametrize("x", [2, 3, 4, 5, 10, 11, 97, 100, 1000, 12_345, 10**6])
def test_class_prime_counts_match_the_sieve(x):
    # every column of the grid, against the sieve's primes sorted into classes
    primes = simple_sieve(x)
    grid = {x // i for i in range(1, math.isqrt(x) + 1)} | set(range(math.isqrt(x) + 1))
    grid = np.array(sorted(grid))
    below = np.searchsorted(primes, grid, side="right")  # pi(v) for each v on the grid
    for m in (1, 2, 3, 4, 6, 7, 8, 12, 30, 49, 240):
        residues, counts = class_prime_counts(x, m)
        assert residues.tolist() == [c for c in range(m) if math.gcd(c, m) == 1]
        columns = [grid_column(x, v) for v in grid.tolist()]
        for row, c in zip(counts.tolist(), residues.tolist()):
            in_class = np.concatenate([[0], np.cumsum(primes % m == c)])
            assert [row[j] for j in columns] == in_class[below].tolist(), (m, c)
        # the classes prime to m and the primes dividing m make up pi(x)
        dividing = sum(1 for p, _ in factorize(m) if p <= x)
        assert int(counts[:, grid_column(x, x)].sum()) + dividing == primes.size, m


def test_grid_column_refuses_values_off_the_grid():
    x = 10**6
    # isqrt(x) = 1000 columns past 0, then x // j for j = 999 down to 1
    assert grid_column(x, 1000) == 1000 and grid_column(x, 1001) == 1001
    assert grid_column(x, 5000) is not None and grid_column(x, 5001) is None
    assert grid_column(x, x // 7) is not None and grid_column(x, x // 7 + 1) is None
    assert [grid_column(x, v) for v in (x // 2, x)] == [1998, 1999]


def test_class_prime_counts_at_1e9():
    residues, counts = class_prime_counts(10**9, 8)
    assert residues.tolist() == [1, 3, 5, 7]
    assert int(counts[:, -1].sum()) + 1 == 50_847_534
    assert int(counts[:, grid_column(10**9, 10**8)].sum()) + 1 == 5_761_455


def test_prime_segments_random_partition():
    whole = simple_sieve(10**6 - 1).tolist()
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


@pytest.mark.parametrize(
    "n, want",
    [
        (1_000_000_000_000_037, [(1_000_000_000_000_037, 1)]),
        ((10**9 + 7) * (10**9 + 9), [(10**9 + 7, 1), (10**9 + 9, 1)]),
    ],
)
def test_factorize_splits_large_n_without_trial_division(n, want):
    start = time.perf_counter()
    assert factorize(n) == want
    assert time.perf_counter() - start < 1


def test_factorize_past_the_trial_division_bound():
    for n in (997 * 1009, 1009**2, 2**5 * 1009**3 * 1013, (2**31 - 1) ** 2, 1_000_003**3):
        fact = factorize(n)
        assert math.prod(p**e for p, e in fact) == n
        assert all(is_prime(p) for p, _ in fact)
        assert [p for p, _ in fact] == sorted(p for p, _ in fact)



def test_factorize_replays_a_batch_whose_gcd_overshoots_to_n(monkeypatch):
    # 1009 * 1049 is past trial division, and one batch of rho's products
    # is divisible by both primes, so its gcd is n; the batch is replayed
    # one step at a time, and that splits n
    n = 1009 * 1049
    gcds = []

    def gcd(a, b):
        gcds.append(math.gcd(a, b))
        return gcds[-1]

    with monkeypatch.context() as patch:
        patch.setattr(core_arith, "math", SimpleNamespace(gcd=gcd))
        assert core_arith._rho_factor(n) in (1009, 1049)
    assert n in gcds and gcds[-1] in (1009, 1049)
    assert factorize(n) == [(1009, 1), (1049, 1)]

def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_euler_phi():
    # phi(n) is |(Z/n)^x|, the order of GL_1(Z/n)
    assert glm_order(1, 1) == 1
    assert glm_order(12, 1) == 4
    # direct summation oracle: sum of phi over divisors is n
    for n in range(1, 10**4 + 1):
        assert sum(glm_order(d, 1) for d in divisors(n)) == n


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
    got = pow_mod_array(np.array([2, 5, -3]), np.array([10, 0, 3]), np.array([1000, 7, 7]))
    assert got.tolist() == [24, 1, (-27) % 7]


def test_pow_mod_against_naive():
    for m in (2, 3, 5, 31, 64, 97):
        want = []
        for b in range(201):
            acc = 1 % m
            for e in range(201):
                want.append(acc)
                acc = acc * b % m
        b, e = np.divmod(np.arange(201 * 201), 201)
        assert pow_mod_array(b, e, np.full(b.size, m)).tolist() == want, m


def test_pow_mod_fermat():
    primes = np.array([p for p in primes_between(2, 10**4 + 1) if p != 3])
    assert (pow_mod_array(3, primes - 1, primes) == 1).all()


def test_pow_mod_array_against_builtin():
    rng = np.random.default_rng(0)
    mod = np.concatenate(
        [rng.integers(2, 1000, 500), rng.integers(POW_ARRAY_LIMIT - 10**6, POW_ARRAY_LIMIT, 500)]
    )
    base = rng.integers(0, 2**62, mod.size)
    exp = np.concatenate([np.arange(500), rng.integers(0, POW_ARRAY_LIMIT, 500)])
    got = pow_mod_array(base, exp, mod).tolist()
    assert got == [pow(b, e, m) for b, e, m in zip(base.tolist(), exp.tolist(), mod.tolist())]


# (b*m)**2 < 2**63 exactly when b*m <= _FOLD_EDGE: the bound below which
# pow_mod_array leaves a set bit's factor for the next square to reduce
_FOLD_EDGE = math.isqrt((1 << 63) - 1)


@st.composite
def _pow_lane(draw):
    """(base, exp, mod): a small or large base, shifted by a few multiples of mod."""
    mod = draw(st.one_of(st.integers(2, 100), st.integers(2, POW_ARRAY_LIMIT - 1)))
    base = draw(st.one_of(st.integers(-10, 10), st.integers(-(2**62), 2**62))) + draw(st.integers(-3, 3)) * mod
    exp = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**40)))
    return base, exp, mod


@settings(max_examples=200, deadline=None)
@given(lanes=st.lists(_pow_lane(), max_size=24))
@example(lanes=[])
@example(lanes=[(3, 0, 7), (-3, 1, 7), (10, 1, 7), (7, 5, 7), (14, 0, 7)])
@example(lanes=[(2, 2**40 - 1, POW_ARRAY_LIMIT - 1), (2**62, 2**40 - 1, POW_ARRAY_LIMIT - 1)])
def test_pow_mod_array_matches_builtin_property(lanes):
    base, exp, mod = (np.array([lane[i] for lane in lanes], dtype=np.int64) for i in range(3))
    got = pow_mod_array(base, exp, mod).tolist()
    assert got == [pow(b, e, m) for b, e, m in lanes]


@settings(max_examples=100, deadline=None)
@given(
    b=st.integers(2, 50_000),
    over=st.one_of(st.integers(-1000, 1), st.integers(2, 10**9)),
    seed=st.integers(0, 2**32 - 1),
)
@example(b=5, over=0, seed=0)
@example(b=5, over=1, seed=0)
def test_pow_mod_array_around_the_fold_bound(b, over, seed):
    # largest reduced base b and largest modulus m, with (b*m)**2 below 2**63
    # for over <= 0 (just below at 0) and at or above it otherwise (just above at 1)
    m = min(_FOLD_EDGE // b + over, POW_ARRAY_LIMIT - 1)
    assert ((b * m) ** 2 < 1 << 63) == (over <= 0)
    rng = np.random.default_rng(seed)
    mod = np.concatenate([[m], rng.integers(m - 1000, m, 255)])
    # every base reduces to at most b < mod; the first lane's is b itself, given at or above mod
    base = rng.integers(0, b + 1, mod.size) + rng.integers(-2, 3, mod.size) * mod
    base[0] = b + m
    exp = rng.integers(0, POW_ARRAY_LIMIT, mod.size)
    exp[1:3] = 0, 1
    got = pow_mod_array(base, exp, mod).tolist()
    assert got == [pow(b, e, m) for b, e, m in zip(base.tolist(), exp.tolist(), mod.tolist())]


def test_kronecker_quadratic_fields():
    # 5 splits in Q(i): x^2 + 1 has a root mod 5
    assert any((x * x + 1) % 5 == 0 for x in range(5))
    assert kronecker_symbol(-4, 5) == 1
    # 7 inert: x^2 + 1 has no root mod 7
    assert not any((x * x + 1) % 7 == 0 for x in range(7))
    assert kronecker_symbol(-4, 7) == -1
    assert kronecker_symbol(-4, 2) == 0


def test_kronecker_matches_euler_criterion():
    for p in primes_between(2, 201):
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



def test_kronecker_at_negative_n():
    # (a|-1) is -1 for a < 0 and 1 otherwise, and (a|-n) = (a|-1)(a|n)
    assert [kronecker_symbol(a, -1) for a in (-3, -1, 0, 1, 2)] == [-1, -1, 1, 1, 1]
    for a in range(-30, 31):
        for n in range(1, 60):
            want = kronecker_symbol(a, -1) * kronecker_symbol(a, n)
            assert kronecker_symbol(a, -n) == want, (a, n)

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
    # the table covers 0 < 4|a| <= 2**17, that is |a| <= 32768, the only a
    # its callers pass; it holds for primes below and above POW_ARRAY_LIMIT
    chunks = (
        _stream(2, 3000),
        _stream(POW_ARRAY_LIMIT - 3000, POW_ARRAY_LIMIT + 3000),
        _stream(2**32 - 3000, 2**32),
    )
    constants = (1, -1, 2, -3, 12, -385, -652, 32767, 32768, -32768)
    for a in constants:
        for primes in chunks:
            want = [kronecker_symbol(a, p) for p in primes.tolist()]
            assert kronecker_array(a, primes).tolist() == want, a
