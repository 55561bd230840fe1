"""Integer primitives: primes, factorization, multiplicative functions.

Everything here is exact; Python integers never overflow, so values such
as ell**(2k) are handled without promotion tricks.
"""

import math
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
# A stream from 2 is cut on the grid 2 + j * SIEVE_SEGMENT.
SIEVE_SEGMENT = 1 << 18


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


@lru_cache(maxsize=8)
def _odd_base(bits: int) -> np.ndarray:
    """The odd primes below 2**bits, read-only: the base of any sieve below 4**bits."""
    base = _simple_sieve((1 << bits) - 1)[1:]
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


def primes_in_range(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes in [lo, hi) in ascending order, as Python ints."""
    for segment in prime_segments(lo, hi):
        yield from segment.tolist()


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**j for d in ds for j in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    result = 1
    for p, e in factorize(n):
        result *= p**e - p ** (e - 1)
    return result


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


def pow_mod(b: int, e: int, m: int) -> int:
    """b**e mod m, for m >= 2 and e >= 0."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if e < 0:
        raise ValueError("exponent must be >= 0")
    return pow(b, e, m)


# pow_mod_array is exact for moduli below this bound.
POW_ARRAY_LIMIT = 1 << 31


def pow_mod_array(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp mod m on int64 arrays, by square-and-multiply.

    Exact while every modulus is below 2**31: residues stay below 2**31, so
    each product stays below 2**62.  Exponents must be >= 0.
    """
    result = np.ones_like(mod)
    base = base % mod
    for bit in range(int(exp.max(initial=0)).bit_length()):
        odd = (exp >> bit) & 1 == 1
        result = np.where(odd, result * base % mod, result)
        base = base * base % mod
    return result


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
# (a|p) mod 4|a| in kronecker_array, gcd(p - 1, n) mod n in count_roots_array.
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
    reciprocity), so while 4|a| <= 2**17 it is read from a cached table
    over those residues; p = 2 leaves the residue 2, whose entry is (a|2).
    Larger a take Euler's criterion a**((p-1)/2) mod p through
    pow_mod_array on the odd primes below POW_ARRAY_LIMIT that do not
    divide a, and kronecker_symbol on every other prime.
    """
    m = 4 * abs(a)
    if 0 < m <= RESIDUE_TABLE_LIMIT:
        return _kronecker_table(a)[primes % m]
    symbols = np.empty(primes.shape, dtype=np.int8)
    euler = np.zeros(primes.shape, dtype=bool)
    if abs(a) < 1 << 63:  # a % p on int64
        euler = (primes % 2 == 1) & (primes < POW_ARRAY_LIMIT) & (a % primes != 0)
        q = primes[euler]
        symbols[euler] = np.where(pow_mod_array(a % q, (q - 1) // 2, q) == 1, 1, -1)
    symbols[~euler] = [kronecker_symbol(a, p) for p in primes[~euler].tolist()]
    return symbols
