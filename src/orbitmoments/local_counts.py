"""Solution counts mod p: roots of x**n - a, and elliptic ell-torsion.

Conventions: excluded primes (bad reduction, p | n*a, p < 5 for curves)
count as 0, and `BadPrimes` is the one rule that names them.  Finitely
many excluded primes never move a prime-average limit, and the uniform
convention keeps the estimators simple.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .core_arith import (
    POW_ARRAY_LIMIT,
    RESIDUE_TABLE_LIMIT,
    is_prime,
    kronecker_array,
    pow_mod_array,
)
from .residue_algebra import QuadOrderSpec


_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class BadPrimes:
    """The exclusion rule: p is excluded when p < floor or p divides modulus.

    x**n - a uses the modulus n*a; a curve counting ell-torsion uses
    ell*disc with floor 5.  No prime above bound is excluded, so a stream
    cut after it skips the mask on every piece past it.
    """

    modulus: int
    floor: int = 2

    @property
    def bound(self) -> int | None:
        """max(floor - 1, |modulus|), or None for modulus 0, which every prime divides."""
        return max(self.floor - 1, abs(self.modulus)) if self.modulus else None

    def __contains__(self, p: int) -> bool:
        return p < self.floor or self.modulus % p == 0

    def __str__(self) -> str:
        divides = f"p | {self.modulus}"
        return divides if self.floor <= 2 else f"p < {self.floor} or {divides}"

    def mask(self, primes: np.ndarray) -> np.ndarray:
        """`p in self` for each entry of an int64 array, exact for any modulus.

        An |m| that fits int64 takes m % p on the whole array, exact for
        every p, since a p above a nonzero m leaves m (the stream, cut
        after bound, masks no such p); a larger |m| takes m % p one prime
        at a time.
        """
        m = abs(self.modulus)
        if m >= _INT64_LIMIT:
            divides = np.array([m % p == 0 for p in primes.tolist()], dtype=bool)
        else:
            divides = m % primes == 0
        return (primes < self.floor) | divides


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


def count_roots_formula(eq: PowerEquation, p: int) -> int:
    """#{x in F_p : x**n = a}, via the cyclic structure of F_p^x, at any prime.

    For p | a the only root is 0.  Otherwise every root lies in F_p^x,
    and with d = gcd(p-1, n) the count is d when a**((p-1)/d) = 1 mod p
    (Euler's criterion; for a = 1 it holds trivially) and 0 otherwise,
    whether or not p divides n.
    """
    if eq.a % p == 0:
        return 1
    d = gcd(p - 1, eq.n)
    return d if pow(eq.a, (p - 1) // d, p) == 1 else 0


def _class_modulus(eq: PowerEquation) -> int:
    """The M with N_p(x**n - a) read off p mod M: n for a = 1 or odd n, else lcm(n, 4|a|)."""
    n, a = eq.n, eq.a
    return n if a == 1 or n % 2 else lcm(n, 4 * abs(a))


@lru_cache(maxsize=32)
def _class_table(eq: PowerEquation) -> np.ndarray:
    """N_p at p = r mod M for each residue r, or -d where a**((p-1)/d) = 1 must decide.

    With d = gcd(r - 1, n): d = 1 gives 1, and a = 1 gives d.  For even n
    and a != 1, (a|p) is fixed by r mod 4|a|, and an n-th power is a
    square, so (a|p) = -1 gives 0 and d = 2 with (a|p) = 1 gives 2.  The
    entries at residues that share a factor with M are right for a = 1
    only: for a != 1 a prime dividing M divides n*a and is excluded.
    """
    n, a, m = eq.n, eq.a, _class_modulus(eq)
    r = np.arange(m, dtype=np.int64)
    d = np.gcd(r - 1, n)
    table = d if a == 1 else np.where(d > 1, -d, 1)
    if a != 1 and n % 2 == 0:
        symbol = kronecker_array(a, r)
        table[symbol == -1] = 0
        table[(symbol == 1) & (d == 2)] = 2
    table.flags.writeable = False
    return table


def count_roots_array(eq: PowerEquation, primes: np.ndarray) -> np.ndarray:
    """count_roots_formula for each entry of an int64 array of primes coprime to n*a.

    While M = _class_modulus(eq) <= RESIDUE_TABLE_LIMIT, each prime reads
    one entry of _class_table at p mod M: its count, or -d, and only the
    lanes holding -d take the criterion a**((p-1)/d) = 1 through
    pow_mod_array -- a quarter of the primes for x**8 - a, at one
    remainder per exponent bit for a small a > 0.  Past that bound d =
    gcd(p - 1, n) is computed, and every lane with d > 1 and a != 1 takes
    the criterion.  Vectorized on int64 while every prime is below
    POW_ARRAY_LIMIT and n and a fit int64; otherwise each prime takes
    count_roots_formula.  With a = 1 each count is d, exact at every prime.
    """
    n, a = eq.n, eq.a
    fits = n < _INT64_LIMIT and abs(a) < _INT64_LIMIT
    if primes.size and primes.max() < POW_ARRAY_LIMIT and fits:
        m = _class_modulus(eq)
        if 0 < m <= RESIDUE_TABLE_LIMIT:
            counts = primes % m
            _class_table(eq).take(counts, out=counts, mode="clip")  # in place: no second temporary
        else:
            d = np.gcd(primes - 1, n)
            counts = d if a == 1 else np.where(d > 1, -d, 1)
        rest = np.flatnonzero(counts < 0)
        q, e = primes[rest], -counts[rest]
        counts[rest] = np.where(pow_mod_array(a, (q - 1) // e, q) == 1, e, 0)
        return counts
    return np.array([count_roots_formula(eq, p) for p in primes.tolist()], dtype=np.int64)


# The CM models by (a, b), with their CM field: y**2 = x**3 - x (O_K = Z[i])
# and y**2 = x**3 + 1 (Z[omega]), whose Frobenius is read off p = X**2 - d*Y**2.
_CM_MODELS = {(-1, 0): QuadOrderSpec(-1), (0, 1): QuadOrderSpec(-3)}


@dataclass(frozen=True)
class WeierstrassCurve:
    """y**2 = x**3 + a*x + b over Z."""

    a: int
    b: int
    label: str | None = None

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError("singular curve: discriminant is zero")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    @property
    def cm(self) -> QuadOrderSpec | None:
        """The CM field, read off the coefficients; None unless one of the _CM_MODELS."""
        return _CM_MODELS.get((self.a, self.b))

    def bad_primes(self, ell: int = 1) -> BadPrimes:
        """Primes excluded when counting ell-torsion: p < 5 or p | ell*disc."""
        return BadPrimes(ell * self.discriminant, 5)


# Named models.  The Cremona-label curves are converted to short form
# (good reduction away from 2 and 3 is preserved, and those primes are
# excluded by convention anyway).
CURVE_PRESETS = {
    # y^2 + xy + y = x^3 - x^2 - 6x - 4
    "17a3": WeierstrassCurve(-7371, -240570, label="17a3"),
    # y^2 + y = x^3 - x^2 - 7x + 10
    "11a2": WeierstrassCurve(-9504, 365904, label="11a2"),
    # y^2 = x^3 - x, CM by Z[i]
    "cm:-1": WeierstrassCurve(-1, 0, label="cm:-1"),
    # y^2 = x^3 + 1, CM by Z[(1+sqrt(-3))/2]
    "cm:-3": WeierstrassCurve(0, 1, label="cm:-3"),
}


def parse_curve(text: str) -> WeierstrassCurve:
    """Resolve a preset name or an "a,b" pair of integer short-Weierstrass coefficients.

    A pair keeps the label it was typed with; its CM field, if any, comes
    from its coefficients as a preset's does.
    """
    if text in CURVE_PRESETS:
        return CURVE_PRESETS[text]
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"unknown curve {text!r}: expected a preset name or 'a,b'") from None
    return WeierstrassCurve(a, b, label=text)


# ---------------------------------------------------------------------------
# Dense polynomials (coefficient lists, index = degree) with exact integer
# coefficients: a product is np.convolve on object arrays of Python ints.

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g):
    """Exact product of two polynomials with integer coefficients."""
    if not f or not g:
        return []
    return _ptrim(np.convolve(np.array(f, dtype=object), np.array(g, dtype=object)).tolist())


def _psub(f, g):
    length = max(len(f), len(g))
    f = f + [0] * (length - len(f))
    g = g + [0] * (length - len(g))
    return _ptrim([x - y for x, y in zip(f, g)])


def division_polynomial(ell: int, a: int, b: int) -> list[int]:
    """The ell-th division polynomial of y**2 = x**3 + ax + b over Z, for odd ell.

    Returned in x alone (even-index terms of the standard recurrence carry
    an implicit factor y that cancels); degree (ell**2 - 1)/2 with leading
    coefficient ell, and its roots are the x-coordinates of the nontrivial
    points with ell*P = infinity.
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

    return list(psi(ell))


@lru_cache(maxsize=16)
def _integer_division_polynomial(ell: int, a: int, b: int) -> tuple[int, ...]:
    """psi_ell over Z, built once per curve and reduced mod each prime."""
    return tuple(division_polynomial(ell, a, b))


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
# The Schoof step on a whole segment of primes at once: one lane per prime,
# each lane working in its own F_p[x]/(g) with g monic of degree d.  Lanes
# are int64 where every sum fits (see _lane_dtype) and Python ints otherwise.

# Lanes are taken in blocks whose (2d - 1, L) product buffer, the largest
# temporary, holds about this many entries (256 KB on int64).
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

    Horner's rule over 30-bit digits: the running value stays below
    p * 2**30 + 2**30 before each % p.
    """
    signs, digits = _limbs(coeffs)
    out = np.zeros((len(coeffs), p.size), dtype=p.dtype)
    for k in range(digits.shape[1]):
        out = (out * (1 << _LIMB_BITS) + digits[:, k, None]) % p
    return out * signs % p


def _monic_modulus(curve: WeierstrassCurve, ell: int, p: np.ndarray) -> np.ndarray:
    """The low coefficients of g = psi_ell / ell mod p (g = f for ell = 2), one column per lane.

    psi_ell leads with ell, whose inverse mod p is (1 + m*p) / ell for
    m = -1/p mod ell, read from a table over p mod ell.
    """
    if ell == 2:
        return _residues((curve.b, curve.a, 0), p)
    psi = _residues(_integer_division_polynomial(ell, curve.a, curve.b), p)
    m = np.array([-pow(r, -1, ell) % ell if r else 0 for r in range(ell)], dtype=np.int64)
    inverse = (1 + m[(p % ell).astype(np.int64)] * p) // ell
    return psi[:-1] * inverse % p


class _LaneRing:
    """F_p[x]/(g) with one prime p and one monic g of degree d per lane.

    An element is a (d, L) array in the dtype of p, coefficient by lane, so
    numpy's inner loops run along the lanes; no array holds more than a
    square's (2d - 1, L) buffer.  pow's only product of two elements is a
    square; the others are by x (times_x) or by the cubic of _euler_is_one.
    A square sums its coefficient products and folds its top d - 1
    coefficients, each % p, into the lower ones by x**d = x_d mod g.  A
    coefficient so sums at most 2d - 1 terms below p**2, at every degree.
    """

    def __init__(self, p: np.ndarray, x_d: np.ndarray):
        self.p, self.x_d, self.d = p, x_d, x_d.shape[0]

    @classmethod
    def modulo(cls, g_low: np.ndarray, p: np.ndarray) -> "_LaneRing":
        """The ring for the monic g whose coefficients below x**d are g_low, (d, L)."""
        return cls(p, -g_low % p)

    def times_x(self, a: np.ndarray) -> np.ndarray:
        out = a[-1] * self.x_d
        out[1:] += a[:-1]
        return out % self.p

    def square(self, a: np.ndarray) -> np.ndarray:
        """a * a, with each cross term taken once and doubled."""
        d, p = self.d, self.p
        full = np.zeros((2 * d - 1, a.shape[1]), dtype=p.dtype)
        full[::2] = a * a
        twice = 2 * a
        for i in range(d - 1):
            full[2 * i + 1 : i + d] += twice[i] * a[i + 1 :]
        return self.reduce(full)

    def reduce(self, full: np.ndarray) -> np.ndarray:
        """The element of a (d + j, L) buffer of coefficients, j < d, folding in place."""
        d, p = self.d, self.p
        for k in reversed(range(d, full.shape[0])):
            full[k - d : k] += full[k] % p * self.x_d
        return full[:d] % p

    def pow(self, times, exp: np.ndarray, base_is_x: bool = False) -> np.ndarray:
        """base**exp per lane, left to right, where times(acc) = acc * base.

        For base = x the leading bits of exp give the starting monomial.
        """
        bits = int(exp.max()).bit_length()
        skip = min(bits, self.d.bit_length() - 1) if base_is_x else 0
        acc = np.zeros((self.d, exp.size), dtype=self.p.dtype)
        acc[(exp >> (bits - skip)).astype(np.int64), np.arange(exp.size)] = 1
        for bit in reversed(range(bits - skip)):
            acc = self.square(acc)
            np.copyto(acc, times(acc), where=(exp >> bit) & 1 == 1)
        return acc

    def gcd_degree(self, r: np.ndarray, keep: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(deg gcd(g, r), the low keep coefficients of the final f) per lane, from 2d - 1 divsteps.

        Bernstein and Yang (TCHES 2019, Theorem 6.2): from delta = 1,
        f = x**d * g(1/x) and h = x**(d-1) * r(1/x), each step swaps f and h
        when delta > 0 and h(0) != 0 (delta becomes 1 - delta, else 1 + delta)
        and replaces h by (f(0)*h - h(0)*f)/x; after 2d - 1 steps, deg gcd =
        delta/2, and on a lane where it is below keep, the monic gcd is
        x**deg * f(1/x) / f(0).  Unit factors change neither delta nor which
        h(0) vanish, and no step reads more low coefficients than there are
        steps left plus keep.  _torsion_lanes keeps e + 1 = (ell + 1)/2: it
        reads h only where deg h = e, and where deg h = d it works modulo g.
        """
        d, p = self.d, self.p
        f = np.vstack([np.ones(p.size, dtype=p.dtype), -self.x_d[::-1] % p])
        h = np.zeros_like(f)
        h[:d] = r[::-1]
        delta = np.ones(p.size, dtype=np.int64)
        for left in reversed(range(2 * d - 1)):
            swap = (delta > 0) & (h[0] != 0)
            delta = np.where(swap, 1 - delta, 1 + delta)
            rows = f.shape[0] - 1  # f(0)*h - h(0)*f has constant term 0
            new = np.zeros((min(rows + 1, left + keep), p.size), dtype=p.dtype)
            np.multiply(h[1:], f[0], out=new[:rows])
            new[:rows] -= h[0] * f[1:]
            new[:rows] %= p
            np.copyto(f, h, where=swap)
            f, h = f[: new.shape[0]], new
        return delta // 2, f


def _lane_dtype(d: int, p_max: int):
    """Lane dtype for degree d and primes up to p_max: int64 where every sum fits, else object.

    A _LaneRing square sums fewer than 2d terms below p**2 at every degree,
    so one rule, 2d * p_max**2 < 2**63, serves them all.  The other sums
    are smaller: (p + 1)*p in times_x, 6p**2 in a product by f and 2p**2 in
    a divstep, and as the bound holds only for p < 2**31, Horner's rule in
    _residues stays below 2**61 and pow_mod_array, which inverts the
    leading coefficient of h, is exact.  The ring modulo h has degree
    e < d, so its sums are smaller still.  Object lanes take the same steps
    on Python ints, exact for any p.
    """
    return np.int64 if 2 * d * p_max * p_max < _INT64_LIMIT else object


def _euler_is_one(curve: WeierstrassCurve, ring: _LaneRing) -> np.ndarray:
    """Whether f**((p-1)/2) = 1 in the ring, per lane, for f = x**3 + a*x + b.

    A product by f adds the element shifted by three places, a times it
    shifted by one and b times it, and folds.
    """
    q, d = ring.p, ring.d
    a, b = _residues((curve.a, curve.b), q)

    def times_f(acc):
        full = np.zeros((d + 3, q.size), dtype=q.dtype)
        full[3:] = acc
        full[1 : d + 1] += a * acc
        full[:d] += b * acc
        return ring.reduce(full)

    power = ring.pow(times_f, (q - 1) // 2)
    return (power[0] == 1) & (power[1:] == 0).all(axis=0)


def _torsion_lanes(curve: WeierstrassCurve, p: np.ndarray, ell: int) -> np.ndarray:
    """|E(F_p)[ell]| for each prime of an array of good primes, in lanes of its dtype.

    h = gcd(g, x**p - x) collects the x-coordinates of the points with
    Frob(P) = +-P, and g is squarefree at a good prime, so deg h counts
    them.  For ell = 2 (g = f) the count is 1 + deg h.  For odd ell, each
    line of E[ell] on which Frobenius acts as +1 or -1 gives h exactly
    e = (ell - 1)/2 roots, and two such lines have opposite signs unless
    Frobenius is +-I, so with d = deg g = (ell + 1)*e:

    - deg h = 0: no point is fixed, the count is 1;
    - deg h = 2e: one line of each sign, the count is ell;
    - deg h = e: one line, whose sign f**((p-1)/2) takes on every root of
      h (a root x0 gives the points (x0, +-y) with y**2 = f(x0)), so it is
      read in F_p[x]/(h), of degree e: ell for +1, else 1;
    - deg h = d: Frobenius is +-I, h = g, and the sign is read in the
      full ring F_p[x]/(g): ell**2 for +1, else 1.

    Any other degree raises ArithmeticError.
    """
    ring = _LaneRing.modulo(_monic_modulus(curve, ell, p), p)
    r1 = ring.pow(ring.times_x, p, base_is_x=True)
    r1[1] = (r1[1] - 1) % p
    if ell == 2:
        return 1 + ring.gcd_degree(r1)[0]
    e, d = (ell - 1) // 2, ring.d
    degree, low = ring.gcd_degree(r1, e + 1)
    odd = ~np.isin(degree, (0, e, 2 * e, d))
    if odd.any():
        i = int(np.argmax(odd))
        raise ArithmeticError(
            f"deg gcd(g, x**p - x) = {degree[i]} for {curve} at p={p[i]}, ell={ell} is "
            f"impossible: expected 0, {e}, {2 * e} or {d}"
        )
    counts = np.where(degree == 2 * e, ell, 1)
    line = np.flatnonzero(degree == e)
    if line.size:
        q, low = p[line], low[:, line]
        # monic h: its coefficient of x**j is f_(e-j) / f_0
        h_low = low[e:0:-1] * pow_mod_array(low[0], q - 2, q) % q
        sign = _euler_is_one(curve, _LaneRing.modulo(h_low, q))
        counts[line] = np.where(sign, ell, 1)
    whole = np.flatnonzero(degree == d)
    if whole.size:
        sign = _euler_is_one(curve, _LaneRing(p[whole], ring.x_d[:, whole]))
        counts[whole] = np.where(sign, ell * ell, 1)
    return counts


def _lane_counts(curve: WeierstrassCurve, primes: np.ndarray, ell: int) -> np.ndarray:
    """|E(F_p)[ell]| by the Schoof step, in blocks of lanes of the dtype each block needs."""
    d = 3 if ell == 2 else (ell * ell - 1) // 2
    blocks = np.array_split(primes, -(-primes.size * (2 * d - 1) // _LANE_ENTRIES))
    return np.concatenate(
        [_torsion_lanes(curve, b.astype(_lane_dtype(d, int(b.max()))), ell) for b in blocks]
    )


# ---------------------------------------------------------------------------
# Torsion counts on the _CM_MODELS, from Frobenius in O_K.

def _root_of_unity(p: np.ndarray, m: int) -> np.ndarray:
    """A root of unity of order m (4 or 3) mod each prime p = 1 mod m, p < 2**31.

    c**((p-1)/m) for the first c = 2, 3, 5, ... that gives one, which is a
    quadratic non-residue for m = 4 and a cubic one for m = 3; each prime c
    settles about half or two thirds of the lanes still open.
    """
    root = np.zeros_like(p)
    todo = np.arange(p.size)
    c = 2
    while todo.size:
        q = p[todo]
        r = pow_mod_array(c, (q - 1) // m, q)
        found = (r * r % q if m == 4 else r) != 1
        root[todo[found]] = r[found]
        todo = todo[~found]
        c = next(n for n in range(c + 1, 2 * c + 1) if is_prime(n))  # the next prime
    return root


def _cornacchia(p: np.ndarray, root: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) with x**2 + D*y**2 = p for each prime p, from root**2 = -D mod p.

    Euclid on (p, root), with root taken in (p/2, p), until the remainder
    falls below sqrt(p) (Cornacchia; Cohen, A Course in Computational
    Algebraic Number Theory, 1.5.2), one lane per prime.
    """
    a, b = p.copy(), np.where(2 * root > p, root, p - root)
    todo = np.flatnonzero(b * b > p)
    while todo.size:
        a[todo], b[todo] = b[todo], a[todo] % b[todo]
        todo = todo[b[todo] * b[todo] > p[todo]]
    y = np.rint(np.sqrt((p - b * b) / D)).astype(np.int64)
    wrong = b * b + D * y * y != p
    if wrong.any():
        i = int(np.argmax(wrong))
        raise ArithmeticError(f"Cornacchia found no x**2 + {D}*y**2 = {p[i]}")
    return b, y


def _frobenius_counts(D: int, p: np.ndarray, ell: int) -> np.ndarray:
    """|E(F_p)[ell]| for odd ell on the _CM_MODELS curve of D, each p a good int64 prime below 2**31.

    E[ell] is O_K/ell, and Frobenius acts on it as an element pi of O_K
    with norm p, so the count is |O_K/(pi - 1, ell)|.  p inert in O_K
    (p = 3 mod 4 for D = 1, p = 2 mod 3 for D = 3) makes E supersingular,
    with p + 1 points and a cyclic odd part: the count is gcd(p + 1, ell).
    A split p is X**2 + D*Y**2, and pi = s*(X + Y*sqrt(-D)) for the sign
    s, and the choice of X and Y, that fix the associate (Ireland and
    Rosen, A Classical Introduction to Modern Number Theory, ch. 18):

    - D = 1: pi = 1 mod 2 + 2i, that is X odd, Y even, X + Y = 1 mod 4;
    - D = 3: pi = 1 mod 2*sqrt(-3), since the curve has full 2-torsion at
      a split p and the rational 3-torsion point (0, 1), which
      1 - omega kills; X + Y is odd, so that leaves s*X = 1 mod 3.

    With pi - 1 = g*alpha, g the gcd of its coordinates on an integral
    basis and alpha primitive, O_K/(pi - 1) is Z/g x Z/(g*Norm(alpha)), so
    the count is gcd(g, ell) * gcd(Norm(pi - 1)/g, ell).  Z[sqrt(-D)] has
    index 1 or 2 in O_K, prime to ell, so g may be read on its basis:
    pi - 1 = u + v*sqrt(-D) with g = gcd(u, v).
    """
    m = 4 if D == 1 else 3
    counts = np.gcd(p + 1, ell)
    split = np.flatnonzero(p % m == 1)
    q = p[split]
    root = _root_of_unity(q, m)
    # i, or sqrt(-3) = 2*omega + 1 for omega a cube root of unity
    x, y = _cornacchia(q, root if D == 1 else (2 * root + 1) % q, D)
    if D == 1:
        x, y = np.where(x % 2 == 1, x, y), np.where(x % 2 == 1, y, x)
        s = np.where((x + y) % 4 == 1, 1, -1)
    else:
        s = np.where(x % 3 == 1, 1, -1)
    u, v = s * x - 1, s * y
    g = np.gcd(u, v)
    counts[split] = np.gcd(g, ell) * np.gcd((u * u + D * v * v) // g, ell)
    return counts


def ec_torsion_count_array(curve: WeierstrassCurve, primes: np.ndarray, ell: int) -> np.ndarray:
    """|E(F_p)[ell]| including infinity at each entry of an integer array of non-excluded primes.

    On the two CM models y**2 = x**3 - x and y**2 = x**3 + 1, odd ell and
    p < POW_ARRAY_LIMIT take the Frobenius of p in O_K (_frobenius_counts),
    at a cost that depends on neither ell nor the curve's label: a curve
    typed as "-1,0" takes it as cm:-1 does.  Every other count is read off
    the action of Frobenius on the roots of the ell-th division polynomial
    (Schoof, Math. Comp. 1985), at a cost that grows with log p and ell**2
    but not with p.  With f = x**3 + a*x + b:

    - ell = 2: the nontrivial points are (x0, 0) with f(x0) = 0, so the
      count is 1 + deg gcd(f, x**p - x).
    - odd ell: h = gcd(psi_ell, x**p - x) collects the x-coordinates of
      the points with Frob(P) = +-P, and a root x0 gives the two rational
      points (x0, +-y) exactly when f(x0) is a square.  Those points fill
      the lines of E[ell] on which Frobenius acts as +1 or -1, e = (ell -
      1)/2 roots of h each, so deg h is 0 (count 1), 2e (one line of each
      sign, count ell), e (one line, count ell or 1 by the sign
      f**((p-1)/2) takes in F_p[x]/(h), of degree e) or d = deg psi_ell
      (Frobenius is +-I, count ell**2 or 1 by that sign in the full ring
      F_p[x]/(psi_ell)); any other degree raises ArithmeticError.

    h divides x**p - x, so it is squarefree and degrees count roots.
    psi_ell is built over Z once per curve and reduced mod p.  Every prime
    takes x**p and the gcd, and the lanes of each deg h class the same
    second stage, one lane each, in blocks of lanes: int64 lanes
    while a block's largest prime keeps every sum below 2**63 (one rule,
    2d p_max**2 < 2**63, at every degree d), Python-int lanes otherwise.
    Each count, on either path, is checked against the values ell-torsion
    can take.
    """
    if not primes.size:
        return np.zeros(0, dtype=np.int64)
    counts = np.empty(primes.size, dtype=np.int64)
    # by the exact model, not by curve.cm: the sign rules of _frobenius_counts hold for these alone
    spec = _CM_MODELS.get((curve.a, curve.b)) if ell % 2 else None
    frobenius = primes < POW_ARRAY_LIMIT if spec else np.zeros(primes.size, dtype=bool)
    if frobenius.any():
        counts[frobenius] = _frobenius_counts(-spec.d, primes[frobenius].astype(np.int64), ell)
    if not frobenius.all():
        counts[~frobenius] = _lane_counts(curve, primes[~frobenius], ell)
    _check_torsion_counts(curve, primes, ell, counts)
    return counts
