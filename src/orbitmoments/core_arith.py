"""Integer primitives: primes, factorization, multiplicative functions.

Everything here is exact; Python integers never overflow, so values such
as ell**(2k) are handled without promotion tricks.
"""

import math
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


_SEGMENT = 1 << 17


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def prime_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as ascending int64 arrays, one per sieve segment.

    Segmented: memory stays O(sqrt(hi) + segment).  Empty segments are
    skipped, and disjoint ranges concatenate to the full stream, so [2, x]
    may be partitioned freely.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return
    base = _simple_sieve(math.isqrt(hi - 1)).tolist()
    for start in range(lo, hi, _SEGMENT):
        stop = min(start + _SEGMENT, hi)
        mask = np.ones(stop - start, dtype=bool)
        for p in base:
            if p * p >= stop:
                break
            mask[max(p * p, -(-start // p) * p) - start :: p] = False
        primes = np.flatnonzero(mask).astype(np.int64, copy=False)
        if primes.size:
            yield primes + start


def primes_in_range(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes in [lo, hi) in ascending order, as Python ints."""
    for segment in prime_segments(lo, hi):
        yield from segment.tolist()


def sieve_primes(x: int) -> Iterator[int]:
    """Yield all primes p <= x in ascending order (empty for x < 2)."""
    yield from primes_in_range(2, x + 1)


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
    """b**e mod m by binary exponentiation, O(log e) multiplications."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if e < 0:
        raise ValueError("exponent must be >= 0")
    result = 1
    b %= m
    while e:
        if e & 1:
            result = result * b % m
        b = b * b % m
        e >>= 1
    return result


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
