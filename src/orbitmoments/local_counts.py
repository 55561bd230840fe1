"""Solution counts mod p: roots of x**n - a, and elliptic ell-torsion.

Conventions: excluded primes (bad reduction, p | n*a, p < 5 for curves)
count as 0, and `BadPrimes` is the one rule that names them.  Finitely
many excluded primes never move a prime-average limit, and the uniform
convention keeps the estimators simple.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd

import numpy as np

from .core_arith import POW_ARRAY_LIMIT, kronecker_symbol, pow_mod, pow_mod_array
from .residue_algebra import QuadOrderSpec


_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class BadPrimes:
    """The exclusion rule: p is excluded when p < floor or p divides modulus.

    x**n - a uses the modulus n*a; a curve counting ell-torsion uses
    ell*disc with floor 5.
    """

    modulus: int
    floor: int = 2

    def __contains__(self, p: int) -> bool:
        return p < self.floor or self.modulus % p == 0

    def __str__(self) -> str:
        divides = f"p | {self.modulus}"
        return divides if self.floor <= 2 else f"p < {self.floor} or {divides}"

    def mask(self, primes: np.ndarray) -> np.ndarray:
        """`p in self` for each entry of an int64 array, exact for any modulus."""
        m = abs(self.modulus)
        if m < _INT64_LIMIT:
            divides = m % primes == 0
        else:
            divides = np.array([m % p == 0 for p in primes.tolist()], dtype=bool)
        return (primes < self.floor) | divides


class SplittingType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def splitting_type(p: int, spec: QuadOrderSpec) -> SplittingType:
    """Classify a rational prime in K by the Kronecker symbol of disc(K)."""
    sym = kronecker_symbol(spec.discriminant, p)
    if sym == 1:
        return SplittingType.SPLIT
    if sym == -1:
        return SplittingType.INERT
    return SplittingType.RAMIFIED


_KRONECKER_OF = {SplittingType.SPLIT: 1, SplittingType.INERT: -1, SplittingType.RAMIFIED: 0}


def splitting_mask(primes: np.ndarray, spec: QuadOrderSpec, keep) -> np.ndarray:
    """splitting_type(p, spec) in keep for each entry of an int64 array of primes.

    Odd p not dividing disc(K) and below POW_ARRAY_LIMIT take Euler's
    criterion disc(K)**((p-1)/2) mod p on int64, all in one call; p = 2,
    p | disc(K) and larger p take kronecker_symbol.
    """
    disc = spec.discriminant  # class number one, so |disc| <= 163
    euler = (primes % 2 == 1) & (disc % primes != 0) & (primes < POW_ARRAY_LIMIT)
    symbols = np.empty_like(primes)
    q = primes[euler]
    symbols[euler] = np.where(pow_mod_array(disc % q, (q - 1) // 2, q) == 1, 1, -1)
    symbols[~euler] = [kronecker_symbol(disc, p) for p in primes[~euler].tolist()]
    return np.isin(symbols, [_KRONECKER_OF[t] for t in keep])


@dataclass(frozen=True)
class PowerEquation:
    """The equation x**n = a."""

    n: int
    a: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("exponent n must be >= 1")

    @property
    def bad_primes(self) -> BadPrimes:
        return BadPrimes(self.n * self.a)


def count_roots_brute(eq: PowerEquation, p: int) -> int:
    """#{x in F_p : x**n = a}, by scanning all residues.

    Each residue is multiplied into its power n times, one numpy pass per
    factor, so the scan shares no code with the formula or pow_mod_array.
    Residues go in blocks of 2**20, so memory stays bounded for any p, and
    Python integers take over from int64 where a product could overflow.
    """
    dtype = np.int64 if p < POW_ARRAY_LIMIT else object
    count = 0
    for lo in range(0, p, 1 << 20):
        x = np.arange(lo, min(lo + (1 << 20), p), dtype=dtype)
        y = np.ones_like(x)
        for _ in range(eq.n):
            y = y * x % p
        count += int(np.count_nonzero(y == eq.a % p))
    return count


def count_roots_formula(eq: PowerEquation, p: int) -> int:
    """Root count via the cyclic structure of F_p^x.

    For p coprime to n*a: the count is d = gcd(p-1, n) when
    a**((p-1)/d) = 1 mod p, and 0 otherwise (for a = 1 the criterion
    holds trivially).  Other primes fall back to the brute scan.
    """
    if p in eq.bad_primes:
        return count_roots_brute(eq, p)
    d = gcd(p - 1, eq.n)
    return d if pow_mod(eq.a, (p - 1) // d, p) == 1 else 0


def count_roots_array(eq: PowerEquation, primes: np.ndarray) -> np.ndarray:
    """count_roots_formula for each entry of an int64 array of primes coprime to n*a.

    Vectorized on int64 while every prime is below POW_ARRAY_LIMIT and n
    and a fit int64; otherwise each prime takes the builtin pow.
    """
    n, a = eq.n, eq.a
    fits = n < _INT64_LIMIT and abs(a) < _INT64_LIMIT
    if primes.size and primes.max() < POW_ARRAY_LIMIT and fits:
        d = np.gcd(primes - 1, n)
        if a == 1:
            return d
        return np.where(pow_mod_array(a % primes, (primes - 1) // d, primes) == 1, d, 0)
    counts = []
    for p in primes.tolist():
        d = gcd(p - 1, n)
        counts.append(d if pow(a, (p - 1) // d, p) == 1 else 0)
    return np.array(counts, dtype=np.int64)


@dataclass(frozen=True)
class WeierstrassCurve:
    """y**2 = x**3 + a*x + b over Z, with optional CM field tag."""

    a: int
    b: int
    cm: QuadOrderSpec | None = None
    label: str | None = None

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError("singular curve: discriminant is zero")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    def bad_primes(self, ell: int = 1) -> BadPrimes:
        """Primes excluded when counting ell-torsion: p < 5 or p | ell*disc."""
        return BadPrimes(ell * self.discriminant, 5)

    def is_good_prime(self, p: int) -> bool:
        """Good reduction in the working convention: p >= 5 and p does not divide the discriminant."""
        return p not in self.bad_primes()


# Named models.  The Cremona-label curves are converted to short form
# (good reduction away from 2 and 3 is preserved, and those primes are
# excluded by convention anyway).
CURVE_PRESETS = {
    # y^2 + xy + y = x^3 - x^2 - 6x - 4
    "17a3": WeierstrassCurve(-7371, -240570, label="17a3"),
    # y^2 + y = x^3 - x^2 - 7x + 10
    "11a2": WeierstrassCurve(-9504, 365904, label="11a2"),
    # y^2 = x^3 - x, CM by Z[i]
    "cm:-1": WeierstrassCurve(-1, 0, cm=QuadOrderSpec(-1), label="cm:-1"),
    # y^2 = x^3 + 1, CM by Z[(1+sqrt(-3))/2]
    "cm:-3": WeierstrassCurve(0, 1, cm=QuadOrderSpec(-3), label="cm:-3"),
}


def parse_curve(text: str) -> WeierstrassCurve:
    """Resolve a preset name or an "a,b" pair of short-Weierstrass coefficients."""
    if text in CURVE_PRESETS:
        return CURVE_PRESETS[text]
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"unknown curve {text!r}: expected a preset name or 'a,b'")
    return WeierstrassCurve(int(parts[0]), int(parts[1]), label=text)


# ---------------------------------------------------------------------------
# Affine point arithmetic (used by the enumeration oracle and small cases).

def ec_add(P, Q, a: int, p: int):
    """Add points on y**2 = x**3 + a*x + b over F_p; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    y3 = (slope * (x1 - x3) - y1) % p
    return x3, y3


def ec_mul(P, k: int, a: int, p: int):
    """k*P by double-and-add."""
    result = None
    addend = P
    while k:
        if k & 1:
            result = ec_add(result, addend, a, p)
        addend = ec_add(addend, addend, a, p)
        k >>= 1
    return result


def ec_points(curve: WeierstrassCurve, p: int) -> list[tuple[int, int]]:
    """All affine points, by scanning x against a square table."""
    a, b = curve.a % p, curve.b % p
    roots_of = {}
    for y in range(p):
        roots_of.setdefault(y * y % p, []).append(y)
    pts = []
    for x in range(p):
        rhs = (x * x % p * x + a * x + b) % p
        for y in roots_of.get(rhs, ()):
            pts.append((x, y))
    return pts


# ---------------------------------------------------------------------------
# Group order by the character sum: O(p) per prime, so it serves
# ec_point_count and the tests as an oracle, not the prime stream.

def ec_group_data(a: int, b: int, p: int) -> tuple[int, int]:
    """(|E(F_p)| including infinity, number of roots of x**3 + a*x + b).

    Point count via the quadratic-character sum p + 1 + sum_x chi(f(x)),
    chi(0) = 0, evaluated with a residue table.
    """
    a %= p
    b %= p
    if p < 7:
        count = 0
        roots = 0
        squares = {y * y % p for y in range(p)}
        for x in range(p):
            rhs = (x * x * x + a * x + b) % p
            if rhs == 0:
                count += 1
                roots += 1
            elif rhs in squares:
                count += 2
        return count + 1, roots
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[(x * x) % p] = 1
    chi[0] = 0
    rhs = ((x * x % p + a) * x + b) % p
    return p + 1 + int(chi[rhs].sum()), int((rhs == 0).sum())


def ec_point_count(curve: WeierstrassCurve, p: int) -> int:
    """|E(F_p)| including the point at infinity, for good p >= 5."""
    if not curve.is_good_prime(p):
        raise ValueError(f"p = {p} is a bad prime for {curve}")
    return ec_group_data(curve.a, curve.b, p)[0]


# ---------------------------------------------------------------------------
# Dense polynomials (coefficient lists, index = degree).  Every product is a
# Kronecker substitution: each factor is packed into one int, w bits per
# coefficient, and the product is a single big-int multiply.

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pack(coeffs, w: int) -> int:
    """sum of c_i * 2**(w*i); negative coefficients borrow from the next slot."""
    v = 0
    for c in reversed(coeffs):
        v = (v << w) + c
    return v


def _pmul(f, g):
    """Exact product of two polynomials with integer coefficients."""
    if not f or not g:
        return []
    bound = max(map(abs, f)) * max(map(abs, g)) * min(len(f), len(g))
    w = bound.bit_length() + 1  # every product coefficient is below 2**(w-1) in size
    v = _pack(f, w) * _pack(g, w)
    mask, half, full = (1 << w) - 1, 1 << (w - 1), 1 << w
    out = []
    for _ in range(len(f) + len(g) - 1):
        c = v & mask
        if c >= half:
            c -= full
        out.append(c)
        v = (v - c) >> w
    return _ptrim(out)


def _psub(f, g):
    length = max(len(f), len(g))
    f = f + [0] * (length - len(f))
    g = g + [0] * (length - len(g))
    return _ptrim([x - y for x, y in zip(f, g)])


def _pmod(f, g, p):
    """Remainder of f by a nonzero trimmed g, both reduced mod p."""
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    while len(f) > dg:
        factor = f.pop() * inv_lead % p
        if factor:
            k = len(f) - dg
            f[k:] = [(c - factor * d) % p for c, d in zip(f[k:], g)]
    return _ptrim(f)


def _pgcd(f, g, p):
    while g:
        f, g = g, _pmod(f, g, p)
    return f


def _minus_monomial(f, k: int, p: int):
    """f - x**k over F_p."""
    f = f + [0] * (k + 1 - len(f))
    f[k] = (f[k] - 1) % p
    return _ptrim(f)


def _reciprocal(g, p):
    """floor(x**(2d-2) / g) over F_p for d = deg g: d - 1 coefficients."""
    d = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    top = [0] * (d - 2) + [1]  # top[i]: coefficient of x**(d+i) in the remainder
    quot = [0] * (d - 1)
    for k in range(d - 2, -1, -1):
        c = quot[k] = top[k] * inv_lead % p
        top[:k] = [t - c * gj for t, gj in zip(top[:k], g[d - k : d])]
    return quot


class _QuotientRing:
    """F_p[x]/(g), deg g = d >= 1, with each element packed into one int.

    A product is one big-int multiply.  Its reduction mod g is Barrett
    division: with H the part of degree >= d and mu = floor(x**(2d-2)/g),
    the quotient is floor(H*mu / x**(d-2)) exactly, so the remainder is the
    low d coefficients of A - quotient*g.  Slots are brought below 2p by
    Barrett's integer reduction, applied to every slot at once.  So each
    product costs a fixed number of big-int operations, whatever d is.
    """

    def __init__(self, g, p: int):
        d = len(g) - 1
        # Slots of the values reduced below stay under 6*d*p**2 < 2**bits
        # (inputs under 2p), and a slot must also hold such a value times mu.
        bits = (6 * d * p * p).bit_length()
        w = 2 * bits - p.bit_length() + 1
        self.p, self.d, self.w, self.bits = p, d, w, bits
        self.mu = (1 << bits) // p
        self.quot_mask = _pack([1] * (2 * d - 1), w) * ((1 << (w - bits)) - 1)
        self.low_mask = (1 << (d * w)) - 1
        self.recip = _pack(_reciprocal(g, p), w)
        self.neg_low = _pack([-c % p for c in g[:d]], w)

    def _slots_mod_p(self, v: int) -> int:
        return v - (((v * self.mu) >> self.bits) & self.quot_mask) * self.p

    def _reduce(self, v: int) -> int:
        d, w = self.d, self.w
        high = self._slots_mod_p(v >> (d * w))
        quot = self._slots_mod_p((high * self.recip) >> (max(d - 2, 0) * w))
        low = (v & self.low_mask) + ((quot * self.neg_low) & self.low_mask)
        return self._slots_mod_p(low)

    def pow(self, f, e: int):
        """f**e mod g for e >= 1 and f of degree < d over F_p, as a list."""
        base = _pack(f, self.w)
        acc = base
        for bit in bin(e)[3:]:
            acc = self._reduce(acc * acc)
            if bit == "1":
                acc = self._reduce(acc * base)
        mask = (1 << self.w) - 1
        return _ptrim([(acc >> (i * self.w) & mask) % self.p for i in range(self.d)])


def _rational_root_part(g, p: int):
    """gcd(g, x**p - x) over F_p, for deg g >= 2: one linear factor per distinct root."""
    frobenius = _QuotientRing(g, p).pow([0, 1], p)
    return _pgcd(g, _minus_monomial(frobenius, 1, p), p)


def division_polynomial(ell: int, a: int, b: int, p: int | None = None) -> list[int]:
    """The ell-th division polynomial of y**2 = x**3 + ax + b for odd ell.

    Over Z, or reduced mod p when p is given.  Returned in x alone
    (even-index terms of the standard recurrence carry an implicit factor y
    that cancels); degree (ell**2 - 1)/2 with leading coefficient ell, and
    its roots are the x-coordinates of the nontrivial points with
    ell*P = infinity.
    """
    if ell % 2 == 0:
        raise ValueError("odd ell only")
    curve_poly = [b, a, 0, 1]
    curve_sq = _pmul(curve_poly, curve_poly)
    table = {
        0: [],
        1: [1],
        2: [2],
        3: [-a * a, 12 * b, 6 * a, 0, 3],
        4: [-32 * b * b - 4 * a**3, -16 * a * b, -20 * a * a, 80 * b, 20 * a, 0, 4],
    }

    def psi(k: int):
        if k in table:
            return table[k]
        m, r = divmod(k, 2)
        if r:
            t1 = _pmul(psi(m + 2), _pmul(psi(m), _pmul(psi(m), psi(m))))
            t2 = _pmul(psi(m - 1), _pmul(psi(m + 1), _pmul(psi(m + 1), psi(m + 1))))
            if m % 2 == 0:
                t1 = _pmul(t1, curve_sq)
            else:
                t2 = _pmul(t2, curve_sq)
            out = _psub(t1, t2)
        else:
            t1 = _pmul(psi(m + 2), _pmul(psi(m - 1), psi(m - 1)))
            t2 = _pmul(psi(m - 2), _pmul(psi(m + 1), psi(m + 1)))
            # psi_k has integer coefficients, so the halving is exact
            out = [c // 2 for c in _pmul(psi(m), _psub(t1, t2))]
        table[k] = out
        return out

    poly = list(psi(ell))
    return poly if p is None else _ptrim([c % p for c in poly])


@lru_cache(maxsize=16)
def _integer_division_polynomial(ell: int, a: int, b: int) -> tuple[int, ...]:
    """psi_ell over Z, built once per curve and reduced mod each prime."""
    return tuple(division_polynomial(ell, a, b))


def ec_torsion_count(curve: WeierstrassCurve, p: int, ell: int) -> int:
    """|E(F_p)[ell]| including infinity; 0 for excluded primes (p < 5 or p | ell*disc).

    Read off the action of Frobenius on the roots of the ell-th division
    polynomial (Schoof, Math. Comp. 1985), at a cost that grows with log p
    and ell**2 but not with p.  With f = x**3 + a*x + b:

    - ell = 2: the nontrivial points are (x0, 0) with f(x0) = 0, so the
      count is 1 + deg gcd(f, x**p - x).
    - odd ell: h = gcd(psi_ell, x**p - x) collects the rational
      x-coordinates of the points of order ell, and a root x0 gives the two
      rational points (x0, +-y) exactly when f(x0) is a square, that is a
      root of f**((p-1)/2) - 1.  So the count is
      1 + 2*deg gcd(h, f**((p-1)/2) - 1 mod h).

    h divides x**p - x, so it is squarefree and degrees count roots.
    psi_ell is built over Z once per curve and reduced mod p.
    """
    if p in curve.bad_primes(ell):
        return 0
    count = _schoof_count(curve, p, ell)
    _check_torsion_counts(curve, np.array([p]), ell, np.array([count]))
    return count


def _schoof_count(curve: WeierstrassCurve, p: int, ell: int) -> int:
    """The count of ec_torsion_count at a good prime, before its consistency check."""
    f = [curve.b % p, curve.a % p, 0, 1]
    if ell == 2:
        count = len(_rational_root_part(f, p))  # 1 + deg gcd
    else:
        psi = _ptrim([c % p for c in _integer_division_polynomial(ell, curve.a, curve.b)])
        h = _rational_root_part(psi, p)
        count = 1
        if len(h) > 1:
            half = _QuotientRing(h, p).pow(_pmod(f, h, p), (p - 1) // 2)
            count += 2 * (len(_pgcd(h, _minus_monomial(half, 0, p), p)) - 1)
    return count


def _check_torsion_counts(
    curve: WeierstrassCurve, primes: np.ndarray, ell: int, counts: np.ndarray
):
    """Raise ArithmeticError at the first count that is not 1, ell, or ell**2 with p = 1 mod ell."""
    full = counts == ell * ell
    bad = ~((counts == 1) | (counts == ell) | full) | (full & (primes % ell != 1))
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"torsion count {counts[i]} for {curve} at p={primes[i]}, ell={ell} is impossible: "
            f"expected 1, ell, or ell**2 with p = 1 mod ell"
        )


# ---------------------------------------------------------------------------
# The same Schoof step on a whole segment of primes at once: one int64 lane
# per prime, each lane working in its own F_p[x]/(g) with g monic of degree d.

# The batch is exact for primes below this bound: a product coefficient sums
# at most d < 128 products of residues, each below 2**56, so int64 holds it.
TORSION_ARRAY_LIMIT = 1 << 28
# Largest deg g that the batch takes; above it the per-prime kernel is faster.
TORSION_ARRAY_MAX_DEGREE = 12
# Lanes are taken in blocks whose (2d, d, L) elimination stack, the largest
# temporary, holds about this many int64 entries (256 KB).
_LANE_ENTRIES = 1 << 15
_LIMB_BITS = 30


@lru_cache(maxsize=32)
def _limbs(coeffs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Signs and base-2**30 digits, most significant first, of integer coefficients."""
    width = max(abs(c).bit_length() for c in coeffs) // _LIMB_BITS + 1
    mask = (1 << _LIMB_BITS) - 1
    digits = [
        [abs(c) >> (_LIMB_BITS * k) & mask for k in reversed(range(width))] for c in coeffs
    ]
    signs = np.array([-1 if c < 0 else 1 for c in coeffs], dtype=np.int64)
    return signs[:, None], np.array(digits, dtype=np.int64)


def _residues(coeffs: tuple[int, ...], p: np.ndarray) -> np.ndarray:
    """coeffs mod p exactly, one column per lane, for integers of any size.

    Horner's rule over 30-bit digits: the running value stays below 2**59
    before each % p.
    """
    signs, digits = _limbs(coeffs)
    out = np.zeros((len(coeffs), p.size), dtype=np.int64)
    for k in range(digits.shape[1]):
        out = (out * (1 << _LIMB_BITS) + digits[:, k, None]) % p
    return out * signs % p


def _monic_modulus(curve: WeierstrassCurve, ell: int, p: np.ndarray) -> np.ndarray:
    """The low coefficients of g = psi_ell / ell mod p (g = f for ell = 2), one column per lane."""
    if ell == 2:
        return _residues((curve.b, curve.a, 0), p)
    psi = _residues(_integer_division_polynomial(ell, curve.a, curve.b), p)
    return psi[:-1] * pow_mod_array(psi[-1], p - 2, p) % p


class _LaneRing:
    """F_p[x]/(g) with one prime p and one monic g of degree d per lane.

    An element is a (d, L) int64 array, coefficient by lane, so numpy's
    inner loops run along the lanes.  A product sums its coefficient
    products in int64; the part of degree >= d is taken mod p and folded
    back by one contraction with the per-lane table of x**(d+i) mod g, and
    one % p ends it.
    """

    def __init__(self, p: np.ndarray, table: np.ndarray):
        self.p, self.table, self.d = p, table, table.shape[1]

    @classmethod
    def modulo(cls, g_low: np.ndarray, p: np.ndarray) -> "_LaneRing":
        """The ring for the monic g whose coefficients below x**d are g_low, (d, L)."""
        d, lanes = g_low.shape
        ring = cls(p, np.empty((d - 1, d, lanes), dtype=np.int64))
        ring.table[0] = -g_low % p  # x**d = -(g - x**d)
        for i in range(1, d - 1):
            ring.table[i] = ring.times_x(ring.table[i - 1])
        return ring

    def take(self, lanes: np.ndarray) -> "_LaneRing":
        return _LaneRing(self.p[lanes], self.table[:, :, lanes])

    def monomial(self, k: int) -> np.ndarray:
        out = np.zeros((self.d, self.p.size), dtype=np.int64)
        out[k] = 1
        return out

    def times_x(self, a: np.ndarray) -> np.ndarray:
        out = a[-1] * self.table[0]
        out[1:] += a[:-1]
        return out % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = self.d
        full = np.zeros((2 * d - 1, a.shape[1]), dtype=np.int64)
        for i in range(d):
            full[i : i + d] += a[i] * b
        high = full[d:] % self.p
        return (full[:d] + np.einsum("il,ikl->kl", high, self.table)) % self.p

    def pow(self, times, exp: np.ndarray) -> np.ndarray:
        """base**exp per lane, left to right, where times(acc) = acc * base."""
        acc = self.monomial(0)
        for bit in reversed(range(int(exp.max()).bit_length())):
            acc = self.mul(acc, acc)
            acc = np.where((exp >> bit) & 1 == 1, times(acc), acc)
        return acc

    def multiples(self, *elements: np.ndarray) -> np.ndarray:
        """The rows r * x**j for j < d of each element r, one block per element.

        A block is the matrix of multiplication by r; the stack has shape
        (len(elements) * d, d, L).
        """
        d = self.d
        rows = np.empty((len(elements) * d, d, self.p.size), dtype=np.int64)
        for i, r in enumerate(elements):
            rows[i * d] = r
            for j in range(i * d + 1, (i + 1) * d):
                rows[j] = self.times_x(rows[j - 1])
        return rows


def _rank_mod_p(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rank over F_p of each lane's matrix in an (R, C, L) stack of residues, which it overwrites.

    Gaussian elimination with a pivot row chosen per lane.  A row is cleared
    as pivot*row - entry*pivot_row, which needs no inverse and scales the row
    by a unit; each pass drops the column it cleared.
    """
    lanes = np.arange(rows.shape[2])
    free = np.ones((rows.shape[0], rows.shape[2]), dtype=bool)
    while rows.shape[1]:
        col = rows[:, 0]
        candidates = (col != 0) & free
        has = candidates.any(axis=0)
        piv = candidates.argmax(axis=0)
        free[piv[has], lanes[has]] = False
        pivot = np.where(has, col[piv, lanes], 1)
        factor = np.where(has, col, 0)
        factor[piv, lanes] = 0
        pivot_row = np.take_along_axis(rows[:, 1:], piv[None, None], axis=0)
        rows = rows[:, 1:]
        rows *= pivot
        rows -= factor[:, None] * pivot_row
        rows %= p
    return (~free).sum(axis=0)


def _torsion_lanes(curve: WeierstrassCurve, p: np.ndarray, ell: int) -> np.ndarray:
    """|E(F_p)[ell]| for each prime of an int64 array of good primes below TORSION_ARRAY_LIMIT.

    With r1 = x**p - x and r2 = f**((p-1)/2) - 1 in A = F_p[x]/(g), the gcd
    of g, r1 and r2 has degree d - rank [M_r1; M_r2], where M_r is
    multiplication by r on A: the kernel of the stacked map is the
    annihilator of the ideal (r1, r2).  So the count is 1 + 2*(d - rank) for
    odd ell, and 1 + (d - rank M_r1) for ell = 2 with g = f.  Lanes where
    g has no root in F_p (rank M_r1 = d) skip the f stage.
    """
    ring = _LaneRing.modulo(_monic_modulus(curve, ell, p), p)
    d = ring.d
    r1 = ring.pow(ring.times_x, p)
    r1[1] = (r1[1] - 1) % p
    roots = d - _rank_mod_p(ring.multiples(r1), p)
    if ell == 2:
        return 1 + roots
    counts = np.ones(p.size, dtype=np.int64)
    rooted = np.flatnonzero(roots)
    if rooted.size:
        ring, q, r1 = ring.take(rooted), p[rooted], r1[:, rooted]
        f = ring.monomial(3)
        f[:2] = _residues((curve.b, curve.a), q)
        r2 = ring.pow(lambda acc: ring.mul(acc, f), (q - 1) // 2)
        r2[0] = (r2[0] - 1) % q
        counts[rooted] += 2 * (d - _rank_mod_p(ring.multiples(r1, r2), q))
    return counts


def ec_torsion_count_array(curve: WeierstrassCurve, primes: np.ndarray, ell: int) -> np.ndarray:
    """ec_torsion_count for each entry of an int64 array of non-excluded primes.

    The lanes go through the batched Schoof step while every prime is below
    TORSION_ARRAY_LIMIT and deg g is at most TORSION_ARRAY_MAX_DEGREE;
    otherwise each prime takes the per-prime kernel.
    """
    d = 3 if ell == 2 else (ell * ell - 1) // 2
    if primes.size and d <= TORSION_ARRAY_MAX_DEGREE and primes.max() < TORSION_ARRAY_LIMIT:
        width = max(1, _LANE_ENTRIES // (2 * d * d))
        starts = range(0, primes.size, width)
        counts = np.concatenate([_torsion_lanes(curve, primes[i : i + width], ell) for i in starts])
    else:
        counts = np.array([_schoof_count(curve, p, ell) for p in primes.tolist()], dtype=np.int64)
    _check_torsion_counts(curve, primes, ell, counts)
    return counts


def ec_torsion_count_enum(curve: WeierstrassCurve, p: int, ell: int) -> int:
    """Oracle: enumerate affine points and count those with ell*P = infinity."""
    if p in curve.bad_primes(ell):
        return 0
    a = curve.a % p
    count = 1
    for P in ec_points(curve, p):
        if ec_mul(P, ell, a, p) is None:
            count += 1
    return count
