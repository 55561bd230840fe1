"""Reference torsion counts for the tests, independent of the lane kernel.

torsion_from_group_order reads |E(F_p)[ell]| off the character-sum group
order, scanning every x in F_p where that order leaves it open; its cost
grows with p, so it serves primes up to ~10**4.  torsion_by_schoof runs the
Schoof step on plain coefficient lists (schoolbook products, long
division, Euclid), at a cost that grows with log p, for primes far out.
Both take psi_ell from division_polynomial, as the lanes do.
"""

from functools import lru_cache

import numpy as np

from orbitmoments.local_counts import division_polynomial, ec_group_data


@lru_cache(maxsize=32)
def _psi(ell, a, b):
    return tuple(division_polynomial(ell, a, b))


def ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def pmod(f, g, p):
    """Remainder of f by a nonzero trimmed g over F_p, by long division."""
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    while len(f) > dg:
        factor = f.pop() * inv_lead % p
        if factor:
            k = len(f) - dg
            f[k:] = [c - factor * d for c, d in zip(f[k:], g)]
    return ptrim([c % p for c in f])


def pgcd(f, g, p):
    """A gcd of f and g over F_p, by Euclid; its length is 1 + its degree."""
    f, g = ptrim([c % p for c in f]), ptrim([c % p for c in g])
    while g:
        f, g = g, pmod(f, g, p)
    return f


def _mulmod(a, b, g, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        prod[i : i + len(b)] = [c + x * y for c, y in zip(prod[i : i + len(b)], b)]
    return pmod(prod, g, p)


def _powmod(base, e, g, p):
    acc = [1]
    for bit in bin(e)[2:]:
        acc = _mulmod(acc, acc, g, p)
        if bit == "1":
            acc = _mulmod(acc, base, g, p)
    return acc


def _minus_monomial(f, k, p):
    """f - x**k over F_p."""
    f = f + [0] * (k + 1 - len(f))
    f[k] -= 1
    return ptrim([c % p for c in f])


def torsion_by_schoof(curve, p, ell):
    """|E(F_p)[ell]| at a good prime p, from h = gcd(psi_ell, x**p - x) (g = f for ell = 2).

    For ell = 2 the count is 1 + deg gcd(f, x**p - x); for odd ell it is
    1 + 2*deg gcd(h, f**((p-1)/2) - 1), as each root of h whose f-value is
    a square gives two points.
    """
    f = [curve.b % p, curve.a % p, 0, 1]
    g = f if ell == 2 else ptrim([c % p for c in _psi(ell, curve.a, curve.b)])
    h = pgcd(g, _minus_monomial(_powmod([0, 1], p, g, p), 1, p), p)
    if ell == 2 or len(h) == 1:
        return len(h)
    half = _powmod(pmod(f, h, p), (p - 1) // 2, h, p)
    return 1 + 2 * (len(pgcd(h, _minus_monomial(half, 0, p), p)) - 1)


def _torsion_by_x(curve, p, ell):
    """1 + the affine points (x, y) with psi_ell(x) = 0, scanning every x in F_p.

    For odd ell and p < 2**31.  At a good prime the roots of psi_ell are
    the x-coordinates of the points of order ell.
    """
    x = np.arange(p, dtype=np.int64)
    psi = np.zeros(p, dtype=np.int64)
    for c in reversed(_psi(ell, curve.a, curve.b)):
        psi = (psi * x + c % p) % p
    count = 1
    for x0 in np.flatnonzero(psi == 0).tolist():
        rhs = (x0**3 + curve.a * x0 + curve.b) % p
        count += 1 if rhs == 0 else 2 * (pow(rhs, (p - 1) // 2, p) == 1)
    return count


def torsion_from_group_order(curve, p, ell):
    """|E(F_p)[ell]| including infinity, 0 at excluded primes, from |E(F_p)|.

    For ell = 2 the nontrivial points are the roots of the cubic.  For odd
    ell the group is trivial when ell does not divide |E(F_p)|, and it is
    all of E[ell] only when ell**2 divides |E(F_p)| and p = 1 mod ell (Weil
    pairing); there, and only there, the x-coordinates are scanned.
    """
    if p in curve.bad_primes(ell):
        return 0
    order, cubic_roots = ec_group_data(curve.a, curve.b, p)
    if ell == 2:
        return 1 + cubic_roots
    if order % ell:
        return 1
    if order % (ell * ell) or p % ell != 1:
        return ell
    return _torsion_by_x(curve, p, ell)
