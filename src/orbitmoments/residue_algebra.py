"""Counting data for the residue rings behind the matrix actions.

QuadOrderSpec presents the ring of integers O_K of an imaginary quadratic
field of class number one on the basis (1, omega) with
omega**2 = t*omega + s; quad_unit_order is |(O_K/nO_K)^x|, glm_order is
|GL_m(Z/nZ)| and psi counts the primitive vectors of (Z/nZ)**m.  The
actions themselves are built from integer matrices in orbit_engine.
"""

from dataclasses import dataclass

from .core_arith import factorize, kronecker_symbol

# The nine imaginary quadratic fields of class number one, by square-free d.
CLASS_NUMBER_ONE_D = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


@dataclass(frozen=True)
class QuadOrderSpec:
    """Ring of integers Z[omega] of Q(sqrt(d)), d square-free negative.

    omega = (1 + sqrt(d))/2 when d = 1 mod 4, otherwise omega = sqrt(d);
    in both cases omega**2 = t*omega + s with integer t, s.
    """

    d: int

    def __post_init__(self):
        if self.d not in CLASS_NUMBER_ONE_D:
            raise ValueError(
                f"d must be one of {CLASS_NUMBER_ONE_D} (class number one), got {self.d}"
            )

    @property
    def t(self) -> int:
        return 1 if self.d % 4 == 1 else 0

    @property
    def s(self) -> int:
        return (self.d - 1) // 4 if self.d % 4 == 1 else self.d

    @property
    def discriminant(self) -> int:
        """Field discriminant: d for d = 1 mod 4, else 4d."""
        return self.d if self.d % 4 == 1 else 4 * self.d


def quad_unit_order(n: int, spec: QuadOrderSpec) -> int:
    """|(O_K/nO_K)^x|, multiplicative over the prime powers p**e of n.

    The factor is p**(2(e-1)) times |(O_K/p)^x|: (p - 1)**2 when p splits
    in K, p**2 - 1 when it is inert and p*(p - 1) when it ramifies.
    """
    order = 1
    for p, e in factorize(n):
        sym = kronecker_symbol(spec.discriminant, p)
        order *= p ** (2 * (e - 1)) * (p - 1) * (p - sym)
    return order


def glm_order(n: int, m: int) -> int:
    """|GL_m(Z/nZ)|, multiplicative over the prime powers of n."""
    order = 1
    for p, a in factorize(n):
        local = p ** (m * m * (a - 1))
        for i in range(m):
            local *= p**m - p**i
        order *= local
    return order


def psi(n: int, m: int) -> int:
    """Primitive-vector count: multiplicative, psi(p**a) = p**(a*m) - p**((a-1)*m).

    psi(n/r) is the number of length-m vectors over Z/nZ whose entries
    generate the same ideal as r; summing over r | n partitions n**m.
    """
    if n < 1 or m < 1:
        raise ValueError("psi expects n >= 1 and m >= 1")
    value = 1
    for p, a in factorize(n):
        value *= p ** (a * m) - p ** ((a - 1) * m)
    return value
