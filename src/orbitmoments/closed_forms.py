"""Exact evaluation of the limiting moment and density formulas.

Every function returns Fraction (or int where the value is integral by
construction); floating point never enters.  Where two published forms of
the same quantity exist, both are evaluated and cross-checked, and a
mismatch raises ArithmeticError rather than silently picking one.

The *_masses functions give the limiting share of primes at each value of
N_p, |G(m)|/|G| for the Galois image G (Chebotarev); the moment formulas
are their dual evaluations, sum(mass * m**k).
"""

from fractions import Fraction

from .core_arith import (
    factorize,
    is_prime,
    kronecker_symbol,
)
from .residue_algebra import QuadOrderSpec


def p_poly(a: int, b: int, k: int) -> int:
    """P_k(a, b) = (a**k - b**k)/(a - b), evaluated as sum of a**i * b**(k-1-i).

    P_0 = 0 and P_1 = 1; symmetric in a and b.  Requires a != b.
    """
    if a == b:
        raise ValueError("p_poly requires a != b")
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum(a**i * b ** (k - 1 - i) for i in range(k))


def mk_divisor_sum(n: int, k: int) -> Fraction:
    """Divisor form: sum over de | n of d**k * mu(e) / phi(de).

    Terms are grouped by m = de.  phi(m) divides phi(n) for m | n, so each
    term is summed exactly as the integer d**k * mu(e) * (phi(n)/phi(m)),
    and one Fraction divides by phi(n) at the end.  mu and phi are read off
    the one factorization of n.
    """
    # (m, phi(m), [(e, mu(e)) for each square-free e | m]) for every divisor m of n
    divs = [(1, 1, [(1, 1)])]
    for p, a in factorize(n):
        grown = []
        for m, phi, square_free in divs:
            grown.append((m, phi, square_free))
            with_p = square_free + [(e * p, -mu) for e, mu in square_free]
            for j in range(1, a + 1):
                grown.append((m * p**j, phi * (p**j - p ** (j - 1)), with_p))
        divs = grown
    phi_n = divs[-1][1]  # the last divisor built is n itself
    total = sum(
        phi_n // phi * sum(mu * (m // e) ** k for e, mu in square_free)
        for m, phi, square_free in divs
    )
    return Fraction(total, phi_n)


def mk_euler_product(n: int, k: int) -> Fraction:
    """Product form: over ell**s || n, factor 1 + sum_e P_k(ell**e, ell**(e-1))."""
    value = 1
    for ell, s in factorize(n):
        value *= 1 + sum(p_poly(ell**e, ell ** (e - 1), k) for e in range(1, s + 1))
    return Fraction(value)


def mk(n: int, k: int) -> Fraction:
    """Generalized divisor function M_k(n); M_0 = 1 and M_1 = d(n).

    Both the divisor sum and the Euler product are computed; disagreement
    is a hard fault.  The result is always a non-negative integer.
    """
    if n < 1 or k < 0:
        raise ValueError("mk expects n >= 1 and k >= 0")
    a = mk_divisor_sum(n, k)
    b = mk_euler_product(n, k)
    if a != b:
        raise ArithmeticError(f"mk({n}, {k}): divisor sum {a} != euler product {b}")
    return a


def dk(n: int, spec: QuadOrderSpec) -> int:
    """Number of ideal divisors of n*O_K.

    Multiplicative over rational primes: the factor at ell**a || n is
    (a+1)**2, 2a+1, or a+1 according as ell splits, ramifies, or is inert
    in K; at a prime ell this gives 4, 3, 2.
    """
    if n < 1:
        raise ValueError("dk expects n >= 1")
    value = 1
    for ell, a in factorize(n):
        sym = kronecker_symbol(spec.discriminant, ell)
        if sym == 1:
            value *= (a + 1) ** 2
        elif sym == 0:
            value *= 2 * a + 1
        else:
            value *= a + 1
    return value


def moment_of(masses: dict[int, Fraction], k: int) -> Fraction:
    """The k-th moment sum(mass * value**k) of a mass dict: the dual of its masses."""
    return sum((m * v**k for v, m in masses.items()), Fraction(0))


def gl2_masses(ell: int) -> dict[int, Fraction]:
    """Limiting masses of N_p(E[ell]) under the full GL2 image at a prime ell.

    (ell**4 - 2ell**3 - ell**2 + 3ell, ell**3 - 2ell - 1, 1) at 1, ell and
    ell**2, each over (ell**2 - ell)(ell**2 - 1); the three sum to 1.
    """
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    denom = (ell**2 - ell) * (ell**2 - 1)
    return {
        1: Fraction(ell**4 - 2 * ell**3 - ell**2 + 3 * ell, denom),
        ell: Fraction(ell**3 - 2 * ell - 1, denom),
        ell * ell: Fraction(1, denom),
    }


def gl2_moment(ell: int, k: int) -> Fraction:
    """k-th moment for the full GL2 action on pairs mod a prime ell.

    The single-fraction form is cross-checked against moment_of(gl2_masses(ell), k).
    """
    masses = gl2_masses(ell)
    if k < 0:
        raise ValueError("k must be >= 0")
    num = (
        ell**4
        - 2 * ell**3
        - ell**2
        + 3 * ell
        + ell**k * (ell**3 - 2 * ell - 1)
        + ell ** (2 * k)
    )
    closed = Fraction(num, (ell**2 - ell) * (ell**2 - 1))
    by_masses = moment_of(masses, k)
    if closed != by_masses:
        raise ArithmeticError(f"gl2_moment({ell}, {k}): {closed} != {by_masses}")
    return closed


def unit_masses(n: int) -> dict[int, Fraction]:
    """Share of the units u mod n with gcd(u - 1, n) = g, for each g that occurs.

    These are the limiting masses of N_p(x**n - 1) = gcd(p - 1, n).  By CRT
    the share is multiplicative over p**e || n: of the phi(p**e) units mod
    p**e, p**(e-1) (p - 2) have g = 1, p**(e-j) - p**(e-j-1) have g = p**j
    for 0 < j < e, and u = 1 alone has g = p**e.
    """
    if n < 1:
        raise ValueError("unit_masses expects n >= 1")
    counts, phi = {1: 1}, 1
    for p, e in factorize(n):
        local = {1: p ** (e - 1) * (p - 2), p**e: 1}
        local.update({p**j: p ** (e - j) - p ** (e - j - 1) for j in range(1, e)})
        counts = {g * h: c * lc for g, c in counts.items() for h, lc in local.items() if lc}
        phi *= p**e - p ** (e - 1)
    return {g: Fraction(c, phi) for g, c in counts.items()}


def affine_masses(n: int) -> dict[int, Fraction]:
    """Limiting masses of N_p(x**n - a) when Q(zeta_n, a**(1/n)) has degree n*phi(n).

    The Galois group is Z/n x| (Z/n)^x acting on the roots as x -> d*x + b.
    For each unit d, n/g of the n shifts b fix g = gcd(d - 1, n) roots and
    the others fix none, so g carries unit_masses(n)[g]/g and 0 the rest.
    """
    masses = {g: m / g for g, m in unit_masses(n).items()}
    rest = 1 - sum(masses.values())
    return {0: rest, **masses} if rest else masses


def cm_masses(ell: int, dk_ell: int, keep_split: bool | None = None) -> dict[int, Fraction]:
    """Limiting masses of N_p(E[ell]) under the normalizer of the Cartan subgroup.

    dk_ell is 4 or 2 according as ell splits or is inert in K; at a
    ramified ell the image is not a Cartan normalizer.  Each coset carries
    half the primes.  The Cartan subgroup C = (O_K/ell)^x (the split
    primes) has order (ell - 1)**2 or ell**2 - 1: one element fixes all of
    O_K/ell, and at a split ell the 2(ell - 2) elements (1, b) and (b, 1)
    with b != 1 fix a line.  In the other coset (the inert primes) c*sigma,
    sigma the conjugation, has trace 0 and square N(c), so it fixes a line
    when N(c) = 1, which holds for 1/(ell - 1) of the c, and only 0
    otherwise.  keep_split picks one coset, None takes both.
    """
    if not is_prime(ell) or ell == 2:
        raise ValueError("ell must be an odd prime")
    if dk_ell not in (2, 4):
        raise ValueError(
            "dk_ell must be 4 (ell splits) or 2 (ell is inert); "
            "the image at a ramified ell is not a Cartan normalizer"
        )
    order = (ell - 1) ** 2 if dk_ell == 4 else ell**2 - 1
    line = 2 * (ell - 2) if dk_ell == 4 else 0
    split = {
        1: Fraction(order - line - 1, 2 * order),
        ell: Fraction(line, 2 * order),
        ell * ell: Fraction(1, 2 * order),
    }
    inert = {1: Fraction(ell - 2, 2 * (ell - 1)), ell: Fraction(1, 2 * (ell - 1))}
    if keep_split is not None:
        masses = split if keep_split else inert
    else:
        masses = {v: m + inert.get(v, 0) for v, m in split.items()}
    return {v: m for v, m in masses.items() if m}


def cm_moment(ell: int, k: int, dk_ell: int) -> Fraction:
    """k-th moment at an odd prime ell for a curve with CM by the full ring O_K.

    dk_ell is 4 or 2 according as ell splits or is inert in K.  The
    single-fraction form is cross-checked against moment_of(cm_masses(...), k).
    """
    masses = cm_masses(ell, dk_ell)
    if k < 0:
        raise ValueError("k must be >= 0")
    if dk_ell == 4:
        num = ell ** (2 * k) + (3 * ell - 5) * ell**k + (ell - 2) * (2 * ell - 3)
        closed = Fraction(num, 2 * (ell - 1) ** 2)
    else:
        num = ell ** (2 * k) + ell ** (k + 1) + ell**k + 2 * ell**2 - ell - 4
        closed = Fraction(num, 2 * (ell**2 - 1))
    by_masses = moment_of(masses, k)
    if closed != by_masses:
        raise ArithmeticError(f"cm_moment({ell}, {k}, {dk_ell}): {closed} != {by_masses}")
    return closed
