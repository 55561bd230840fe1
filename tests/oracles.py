"""Reference implementations for the tests; the library imports nothing from here.

Each is independent of the library path it checks, and most scan or
enumerate, at a cost that grows with p or with the group:

- count_roots_brute counts the roots of x**n - a by scanning F_p.
- QuadResidue, quad_mul, quad_norm and quad_unit_elements are elements,
  products, norms and units of O_K/nO_K, one Python object each.
- MatrixModN, det_mod_n (by cofactor expansion) and enumerate_glm, which
  lists GL_m(Z/nZ) by scanning all n**(m*m) matrices.
- kernel_size_by_minors gives |ker(A mod n)| from the invariant factors
  of an integer matrix, every minor a Leibniz sum on Python ints.
- semidirect_table lists Z/n x| (Z/n)^x as one permutation row per
  element, and table_histogram counts fixed points by comparing each row
  of such a table with the identity.
- tuple_orbit_minima labels every k-tuple with the least tuple of its
  orbit, by a breadth-first search from each tuple not yet reached.
- affine_group_masses, matrix_group_masses and cartan_normalizer_cosets
  give the share of the elements of a small group that fix m points, by
  scanning every element and every point: the affine group Z/n x| (Z/n)^x
  on Z/n, a list of matrices on (Z/nZ)**m, and the two cosets of the
  normalizer of the Cartan subgroup (O_K/ell)^x.
- ec_add, ec_mul and ec_points are affine point arithmetic and point
  enumeration; ec_torsion_count_enum counts the points P with
  ell*P = infinity among them.
- ec_group_data gives |E(F_p)| and the cubic's root count by the
  character sum, and ec_point_count the order at a good prime.
- torsion_from_group_order reads |E(F_p)[ell]| off that order, scanning
  every x in F_p where the order leaves it open, so it serves primes up
  to ~10**4.  torsion_by_schoof runs the Schoof step on plain
  coefficient lists (schoolbook products, long division, Euclid), at a
  cost that grows with log p, for primes far out.  Both take psi_ell
  from division_polynomial, as the lanes do.

primes_between is no reference: it lists the library's own prime stream
as Python ints, for tests that loop over a small range of primes.
test_core_arith checks that stream against trial division.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator

import numpy as np

from orbitmoments.core_arith import POW_ARRAY_LIMIT, CapacityError, prime_segments
from orbitmoments.local_counts import PowerEquation, WeierstrassCurve, division_polynomial
from orbitmoments.residue_algebra import QuadOrderSpec, glm_order

def primes_between(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), ascending, from prime_segments."""
    return [p for segment in prime_segments(lo, hi) for p in segment.tolist()]


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


# ---------------------------------------------------------------------------
# Residue rings O_K/nO_K and matrices over Z/nZ, one Python object each.

@dataclass(frozen=True)
class QuadResidue:
    """Element a + b*omega of O_K/nO_K, with 0 <= a, b < n."""

    a: int
    b: int
    n: int
    spec: QuadOrderSpec


def quad_mul(u: QuadResidue, v: QuadResidue) -> QuadResidue:
    """Product in O_K/nO_K, reducing omega**2 = t*omega + s."""
    if u.n != v.n or u.spec != v.spec:
        raise ValueError("operands live in different rings")
    t, s, n = u.spec.t, u.spec.s, u.n
    bb = u.b * v.b
    a = (u.a * v.a + s * bb) % n
    b = (u.a * v.b + u.b * v.a + t * bb) % n
    return QuadResidue(a, b, n, u.spec)


def quad_norm(u: QuadResidue) -> int:
    """Determinant of multiplication-by-u on the basis (1, omega), mod n.

    u is invertible in O_K/nO_K iff gcd(quad_norm(u), n) = 1.
    """
    t, s = u.spec.t, u.spec.s
    return (u.a * u.a + u.a * u.b * t - u.b * u.b * s) % u.n


def quad_unit_elements(n: int, spec: QuadOrderSpec) -> list[QuadResidue]:
    """All invertible elements of O_K/nO_K, ordered by (a, b)."""
    return [
        QuadResidue(a, b, n, spec)
        for a in range(n)
        for b in range(n)
        if gcd(quad_norm(QuadResidue(a, b, n, spec)), n) == 1
    ]


@dataclass(frozen=True)
class MatrixModN:
    """Square matrix over Z/nZ; invertible iff gcd(det, n) = 1."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.entries)


def det_mod_n(A: MatrixModN) -> int:
    """Determinant mod n by cofactor expansion (intended for m <= 4)."""
    return _det(A.entries, A.n)


def _det(rows, n: int) -> int:
    m = len(rows)
    if m == 1:
        return rows[0][0] % n
    if m == 2:
        return (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % n
    total = 0
    sign = 1
    for j in range(m):
        minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
        total += sign * rows[0][j] * _det(minor, n)
        sign = -sign
    return total % n


def kernel_size_by_minors(mat, n: int) -> int:
    """prod gcd(s_i, n) over the invariant factors s_i = D_i / D_(i-1) of mat.

    D_i is the math.gcd of every i x i minor of the entries as given, each
    minor a Leibniz sum on Python ints, so no value has a width to overflow.
    """
    rows = [[int(v) for v in row] for row in mat]
    m = len(rows)
    size, previous = 1, 1
    for i in range(1, m + 1):
        d = 0
        for r in itertools.combinations(range(m), i):
            for c in itertools.combinations(range(m), i):
                d = gcd(d, _leibniz([[rows[x][y] for y in c] for x in r]))
        size *= gcd(d // previous if d else 0, n)
        previous = d
    return size


def _leibniz(rows) -> int:
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


DEFAULT_ENUM_BUDGET = 10**8


def enumerate_glm(
    n: int, m: int, max_elements: int = DEFAULT_ENUM_BUDGET
) -> Iterator[MatrixModN]:
    """Yield every element of GL_m(Z/nZ) exactly once.

    Order is row-major lexicographic over the entries, filtered by
    invertibility, so streams are reproducible.  Raises CapacityError
    (naming the required count) when the group or the n**(m*m) candidate
    scan would exceed the budget.
    """
    if m < 1 or m > 4:
        raise ValueError("matrix dimension must be between 1 and 4")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    order = glm_order(n, m)
    if order > max_elements:
        raise CapacityError(order, max_elements, what="group elements")
    if n ** (m * m) > max_elements:
        raise CapacityError(n ** (m * m), max_elements, what="candidate matrices")
    for flat in itertools.product(range(n), repeat=m * m):
        rows = tuple(flat[i * m : (i + 1) * m] for i in range(m))
        if gcd(_det(rows, n), n) == 1:
            yield MatrixModN(n, rows)


# ---------------------------------------------------------------------------
# Permutation tables, one row per group element.

def semidirect_table(n: int) -> np.ndarray:
    """Row b*phi(n) + t is the pair (b, d), d the t-th unit mod n, acting on
    (i, j) by (b + i*d, j*d); point index = i*n + j."""
    units = np.array([d for d in range(n) if gcd(d, n) == 1])
    i, j = np.divmod(np.arange(n * n), n)
    b, d = np.arange(n)[:, None, None], units[None, :, None]
    return (((b + i * d) % n) * n + (j * d) % n).reshape(-1, n * n)


def table_histogram(table: np.ndarray) -> dict[int, int]:
    """m -> number of rows fixing exactly m points, by comparing each row
    with the identity."""
    fixed = (table == np.arange(table.shape[1])).sum(axis=1)
    values, counts = np.unique(fixed, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def tuple_orbit_minima(generators, size: int, k: int) -> list[int]:
    """For every k-tuple index (digit i has weight size**i), the least index
    in its orbit under the permutations generators, acting digit by digit.

    Tuples are started from in ascending order, and a search reaches the
    whole orbit of its start, since every inverse is a power of its
    element; so each start is the least index of its orbit.
    """
    gens = [[int(v) for v in g] for g in generators]
    weights = [size**i for i in range(k)]
    minima = [-1] * size**k
    for start in range(size**k):
        if minima[start] >= 0:
            continue
        minima[start], queue = start, [start]
        for t in queue:
            digits = [t // w % size for w in weights]
            for g in gens:
                image = sum(g[d] * w for d, w in zip(digits, weights))
                if minima[image] < 0:
                    minima[image] = start
                    queue.append(image)
    return minima


# ---------------------------------------------------------------------------
# Fixed-point masses of small groups, each element and point scanned.

def affine_group_masses(n: int) -> dict[int, Fraction]:
    """m -> share of the maps x -> d*x + b (d a unit mod n) fixing m points of Z/n."""
    units = [d for d in range(n) if gcd(d, n) == 1]
    hist = Counter(
        sum((d * x + b) % n == x for x in range(n)) for d in units for b in range(n)
    )
    return {m: Fraction(c, n * len(units)) for m, c in hist.items()}


def _fixed_vectors(A: MatrixModN) -> int:
    n = A.n
    return sum(
        all(sum(a * x for a, x in zip(row, v)) % n == v_i for row, v_i in zip(A.entries, v))
        for v in itertools.product(range(n), repeat=A.m)
    )


def matrix_group_masses(mats, order: int) -> dict[int, Fraction]:
    """m -> (number of the matrices fixing exactly m vectors of (Z/nZ)**m) / order."""
    hist = Counter(_fixed_vectors(A) for A in mats)
    return {m: Fraction(c, order) for m, c in hist.items()}


def cartan_normalizer_cosets(ell: int, spec: QuadOrderSpec) -> tuple[list, list]:
    """The Cartan subgroup (O_K/ell)^x and its other coset in the normalizer, as matrices.

    Multiplication by u = a + b*omega on the basis (1, omega) is
    [[a, s*b], [b, a + t*b]]; the other coset is those matrices times the
    conjugation omega -> t - omega, [[1, t], [0, -1]].
    """
    t, s = spec.t, spec.s
    cartan, other = [], []
    for u in quad_unit_elements(ell, spec):
        mult = ((u.a, s * u.b % ell), (u.b, (u.a + t * u.b) % ell))
        cartan.append(MatrixModN(ell, mult))
        # mult @ [[1, t], [0, -1]]
        other.append(MatrixModN(ell, tuple((r0, (r0 * t - r1) % ell) for r0, r1 in mult)))
    return cartan, other


# ---------------------------------------------------------------------------
# Affine point arithmetic, for the enumeration oracle and small cases.

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
# Group order by the character sum: O(p) per prime.

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
    if p in curve.bad_primes():
        raise ValueError(f"p = {p} is a bad prime for {curve}")
    return ec_group_data(curve.a, curve.b, p)[0]


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


# ---------------------------------------------------------------------------
# ell-torsion references for the lane kernel.

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
