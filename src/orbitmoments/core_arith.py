"""Integer primitives: primes, factorization, multiplicative functions.

Everything here is exact; Python integers never overflow, so values such
as ell**(2k) are handled without promotion tricks.  _odd_segment is the
one sieve, for each segment of prime_segments and for the cached base
primes; ENTRY_BUDGET and trailing_digits are shared with the orbit layer.
"""

import math
from collections import Counter
from functools import lru_cache
from typing import Iterator

import numpy as np


class CapacityError(Exception):
    """An enumeration would exceed its configured budget."""

    def __init__(self, required: int, budget: int, what: str = "elements"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} {what}, budget is {budget}"
        )


# Entries past which a table is not made, read at call time: a permutation table
# and glm's element table (orbit_engine), and a class-count table (moment_lab).
ENTRY_BUDGET = 6 * 10**7


# Deterministic witness set, valid for every n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Integers per sieve segment; the segment's mask holds only its odd half.
# prime_segments(lo, hi) cuts [lo, hi) on the grid lo + j * SIEVE_SEGMENT.
SIEVE_SEGMENT = 1 << 18


@lru_cache(maxsize=8)
def _odd_base(bits: int) -> np.ndarray:
    """The odd primes below 2**bits, read-only: the base of any sieve below
    4**bits, sieved by _odd_segment from the base of half as many bits."""
    # no odd prime squared is below 2**3, so up to there the base may be empty
    half = _odd_base((bits + 1) // 2) if bits > 3 else np.empty(0, dtype=np.int64)
    base = _odd_segment(3, max(3, 1 << bits), half)
    base.flags.writeable = False
    return base


def _odd_segment(first: int, stop: int, odd_base: np.ndarray) -> np.ndarray:
    """The numbers first + 2*i below stop (first odd) that the odd base primes
    leave: the odd primes in [first, stop), and 1 when first is 1."""
    mask = np.ones((stop - first + 1) // 2, dtype=bool)
    base = odd_base[odd_base * odd_base < stop]
    # each p crosses off its odd multiples from max(p*p, first) on
    multiple = np.maximum(base * base, -(-first // base) * base)
    multiple += np.where(multiple % 2 == 0, base, 0)
    for p, i in zip(base.tolist(), ((multiple - first) // 2).tolist()):
        mask[i::p] = False
    survivors = np.flatnonzero(mask).astype(np.int64, copy=False)
    survivors *= 2
    survivors += first
    return survivors


def prime_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as ascending int64 arrays, one per sieve segment.

    Segmented and odd-only: a segment spans 2**18 integers, and its mask
    has one entry per odd number in it (2**17), which the odd base primes
    cross off.  The first segment from 2 sieves from 1 instead, and the
    entry of 1, which no prime crosses off, stands for 2.  Memory stays
    O(sqrt(hi) + segment); the base primes are sieved up to the next power
    of two above sqrt(hi) and cached, so many short calls sieve them once.
    Empty segments are skipped, and disjoint ranges concatenate to the
    full stream, so [2, x] may be partitioned freely.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return
    odd_base = _odd_base(math.isqrt(hi - 1).bit_length())
    for start in range(lo, hi, SIEVE_SEGMENT):
        stop = min(start + SIEVE_SEGMENT, hi)
        primes = _odd_segment(1 if start == 2 else start | 1, stop, odd_base)
        if start == 2:
            primes[0] = 2
        if primes.size:
            yield primes


def grid_column(x: int, v: int) -> int | None:
    """The column of v in class_prime_counts(x, m), or None when v is past
    isqrt(x) and is not x // i for any i."""
    r = math.isqrt(x)
    if v <= r:
        return v
    j = x // v
    return r + 1 + x // (r + 1) - j if x // j == v else None


@lru_cache(maxsize=1)
def class_prime_counts(x: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(residues, counts) with counts[i, grid_column(x, v)] = pi(v; m, residues[i]).

    residues are the classes prime to m, ascending.  The columns run over
    the grid 0, 1, ..., r = isqrt(x), then x // j for j = x // (r + 1) down
    to 1, which holds every x // i.  Lucy's recursion carried per class: a
    row starts as the count of the integers 2 <= k <= v in its class, and
    each prime p <= r that does not divide m takes from the columns v >=
    p*p of class c the numbers p*k with k >= p and no prime factor below
    p, which class c / p holds at v // p less its primes below p.  The
    column of v // p is v // p while that is at most r, and -j*p for v = x
    // j past that.  The primes dividing m lie in no row.  The table holds
    phi(m) * ~2 sqrt(x) entries, int32 below x = 2**31 and int64 from
    there, the sieve stops at r, and the last table is cached.
    """
    r = math.isqrt(x)
    n = r + 1 + x // (r + 1)
    grid = np.arange(n, dtype=np.int32 if x < 1 << 31 else np.int64)
    grid[r + 1 :] = x // grid[n - r - 1 : 0 : -1]
    residues = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
    counts = grid - np.where(residues == 0, m, residues).astype(grid.dtype)[:, None]
    counts //= m
    counts += 1
    counts[residues == 1 % m] -= 1
    counts[:, 0] = 0
    flat = counts.reshape(-1)
    row = np.zeros(m, dtype=np.int64)
    row[residues] = np.arange(0, residues.size * n, n)
    rows_over = {}  # p mod m -> where flat holds the row of class c / p, for each row c
    block = max(1, (1 << 17) // residues.size)  # columns per step: temporaries of ~1 MB
    odd = _odd_base(r.bit_length())
    for p in [2, *odd[odd <= r].tolist()] if r > 1 else ():
        if m % p == 0:
            continue
        over = rows_over.get(p % m)
        if over is None:
            over = rows_over[p % m] = row[residues * pow(p, -1, m) % m][:, None]
        start = p * p if p * p <= r else n - x // (p * p)
        split = max(start, n - x // ((r + 1) * p))  # v // p > r from here on
        # v // p < v, so stepping down the columns, each step reads only
        # columns no earlier step of p has written
        for hi in range(n, start, -block):
            lo = max(start, hi - block)
            mid = min(max(lo, split), hi)
            counts[:, mid:hi] -= flat[over + np.arange(n - p * (n - mid), n - p * (n - hi), p)]
            counts[:, lo:mid] -= flat[over + grid[lo:mid] // p]
        counts[:, start:] += flat[over + (p - 1)]
    return residues, counts


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n, by Pollard-Brent rho.

    Iterates y -> y**2 + c mod n and takes the gcd of a batch of 128
    products |x - y| at a time; a batch that overshoots to n is replayed
    one step at a time, and a c that still finds only n is replaced.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for done in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor of {n} found")


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical factorization of n >= 1 as (prime, exponent) pairs, ascending.

    Trial division by 2 and the odd numbers below 1000 takes out every prime
    factor below 1000, and all of an n below 10**6; a cofactor that is left
    and is not a prime is split by Pollard-Brent rho.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    p = 2
    while p * p <= n and p < 1000:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if p * p > n:
        return out + [(n, 1)] if n > 1 else out
    large, rest = Counter(), [n]
    while rest:
        m = rest.pop()
        if is_prime(m):
            large[m] += 1
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return out + sorted(large.items())


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**j for d in ds for j in range(e + 1)]
    return sorted(ds)


def mobius(n: int) -> int:
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


def divisor_count(n: int) -> int:
    result = 1
    for _, e in factorize(n):
        result *= e + 1
    return result


# pow_mod_array is exact for moduli below this bound.
POW_ARRAY_LIMIT = 1 << 31


def pow_mod_array(base: np.ndarray | int, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp mod m on int64 arrays, by left-to-right square-and-multiply.

    The base, an array or one int, is reduced mod m first.  Each exponent
    bit multiplies the result by the base where it is set, then squares it.
    With B the largest reduced base and M the largest modulus, that product
    is below B*M; while (B*M)**2 < 2**63 the square's % m reduces both, one
    remainder per bit.  Otherwise the product is reduced before the square,
    exact while every modulus is below 2**31.  Exponents must be >= 0.
    """
    step = base % mod
    fold = (int(step.max(initial=1)) * int(mod.max(initial=1))) ** 2 < 1 << 63
    step -= 1
    result = np.ones_like(mod)
    for bit in reversed(range(int(exp.max(initial=0)).bit_length())):
        factor = exp >> bit
        factor &= 1
        factor *= step
        factor += 1
        result *= factor
        if bit:
            if not fold:
                result %= mod
            result *= result
            result %= mod
    return result % mod


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for every nonzero n."""
    if n == 0:
        raise ValueError("kronecker symbol needs n != 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# Per-prime values that depend only on p mod some modulus are read from a
# cached table over the residues while the modulus stays within this bound:
# (a|p) mod 4|a| in kronecker_array, and N_p(x**n - a), or the degree d of
# its criterion, mod n or lcm(n, 4|a|) in count_roots_array.
RESIDUE_TABLE_LIMIT = 1 << 17


@lru_cache(maxsize=32)
def _kronecker_table(a: int) -> np.ndarray:
    """(a|r) at each residue r mod 4|a| that a prime can leave: odd r, and 2."""
    m = 4 * abs(a)
    table = np.zeros(m, dtype=np.int8)
    table[1::2] = [kronecker_symbol(a, r) for r in range(1, m, 2)]
    table[2] = kronecker_symbol(a, 2)
    table.flags.writeable = False
    return table


def kronecker_array(a: int, primes: np.ndarray) -> np.ndarray:
    """kronecker_symbol(a, p) for each entry of an int64 array of primes, as int8.

    For odd p the symbol depends only on p mod 4|a| (quadratic
    reciprocity), so it is read from a cached table over those residues;
    p = 2 leaves the residue 2, whose entry is (a|2).  The caller keeps
    0 < 4|a| <= RESIDUE_TABLE_LIMIT: local_counts.class_table asks only
    while lcm(n, 4|a|) is within it, and SplitFilter passes
    class-number-one discriminants, 4|disc| <= 652.
    """
    return _kronecker_table(a)[primes % (4 * abs(a))]


def value_counts(values: np.ndarray) -> dict[int, int]:
    """{value: count} of an integer array, in ascending order of value.

    np.bincount counts without sorting a copy when every value is >= 0 and
    below the number of values (power counts divide n, torsion counts are
    at most ell**2); other values, such as the divisors of a huge n or the
    kernel sizes of a matrix stack, have no such bound and take np.unique.
    """
    if values.size and values.min() >= 0 and values.max() < values.size:
        counts = np.bincount(values)
        values = np.flatnonzero(counts)
        counts = counts[values]
    else:
        values, counts = np.unique(values, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def trailing_digits(n: int, width: int, chunk: int) -> int:
    """The most trailing digits t <= width of base-n numbers with n**t <= chunk."""
    return next(t for t in range(width, -1, -1) if n**t <= chunk)
