"""Integer primitives: primes, factorization, multiplicative functions.

Everything here is exact; Python integers never overflow, so values such
as ell**(2k) are handled without promotion tricks.
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
    base = base % mod
    fold = (int(base.max(initial=1)) * int(mod.max(initial=1))) ** 2 < 1 << 63
    step = base - 1
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
        symbols[euler] = np.where(pow_mod_array(a, (q - 1) // 2, q) == 1, 1, -1)
    symbols[~euler] = [kronecker_symbol(a, p) for p in primes[~euler].tolist()]
    return symbols
