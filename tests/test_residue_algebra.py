import random
from math import gcd

import numpy as np
import pytest

from oracles import (
    MatrixModN,
    QuadResidue,
    det_mod_n,
    enumerate_glm,
    quad_mul,
    quad_norm,
    quad_unit_elements,
)
from orbitmoments.core_arith import CapacityError, euler_phi
from orbitmoments.residue_algebra import CLASS_NUMBER_ONE_D, QuadOrderSpec, glm_order, psi


def test_quad_spec_validation():
    QuadOrderSpec(-1)
    QuadOrderSpec(-163)
    with pytest.raises(ValueError):
        QuadOrderSpec(-5)  # class number 2
    with pytest.raises(ValueError):
        QuadOrderSpec(3)


def test_quad_spec_generator_rule():
    gauss = QuadOrderSpec(-1)
    assert (gauss.t, gauss.s) == (0, -1)
    assert gauss.discriminant == -4
    eisenstein = QuadOrderSpec(-3)
    assert (eisenstein.t, eisenstein.s) == (1, -1)
    assert eisenstein.discriminant == -3
    assert QuadOrderSpec(-7).discriminant == -7
    assert QuadOrderSpec(-2).discriminant == -8


def test_quad_mul_split_norm():
    # (2 + i)(2 - i) = 5 = 0 mod 5
    spec = QuadOrderSpec(-1)
    u = QuadResidue(2, 1, 5, spec)
    v = QuadResidue(2, 4, 5, spec)
    prod = quad_mul(u, v)
    assert (prod.a, prod.b) == (0, 0)


def test_quad_mul_identity():
    spec = QuadOrderSpec(-7)
    one = QuadResidue(1, 0, 9, spec)
    for a in range(9):
        for b in range(9):
            v = QuadResidue(a, b, 9, spec)
            assert quad_mul(one, v) == v


def test_quad_mul_associative_random():
    rng = random.Random(7)
    spec = QuadOrderSpec(-3)
    for _ in range(100):
        u, v, w = (
            QuadResidue(rng.randrange(7), rng.randrange(7), 7, spec) for _ in range(3)
        )
        assert quad_mul(quad_mul(u, v), w) == quad_mul(u, quad_mul(v, w))


def test_quad_mul_rejects_mismatch():
    with pytest.raises(ValueError):
        quad_mul(
            QuadResidue(1, 0, 5, QuadOrderSpec(-1)),
            QuadResidue(1, 0, 7, QuadOrderSpec(-1)),
        )


def test_quad_norm_gaussian():
    spec = QuadOrderSpec(-1)
    for n in (3, 7, 10):
        for a in range(n):
            for b in range(n):
                assert quad_norm(QuadResidue(a, b, n, spec)) == (a * a + b * b) % n
    assert quad_norm(QuadResidue(1, 0, 11, spec)) == 1


def brute_invertible(n: int, spec: QuadOrderSpec) -> np.ndarray:
    """invertible[a, b] says whether some v has (a + b*omega) * v = 1 in O_K/nO_K.

    Builds the whole product table of the ring from omega**2 = t*omega + s.
    """
    ua, ub = np.divmod(np.arange(n * n), n)  # row u and column v index a*n + b
    bb = np.multiply.outer(ub, ub)
    real = (np.multiply.outer(ua, ua) + spec.s * bb) % n
    omega = (np.multiply.outer(ua, ub) + np.multiply.outer(ub, ua) + spec.t * bb) % n
    return ((real == 1 % n) & (omega == 0)).any(axis=1).reshape(n, n)


def test_invertibility_matches_norm_criterion():
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for n in range(2, 16):
            invertible = brute_invertible(n, spec)
            for a in range(n):
                for b in range(n):
                    u = QuadResidue(a, b, n, spec)
                    assert (gcd(quad_norm(u), n) == 1) == invertible[a, b], (d, n, a, b)


def test_quad_units_form_group():
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for n in range(2, 13):
            units = set(quad_unit_elements(n, spec))
            for u in units:
                assert any(
                    quad_mul(u, v) == QuadResidue(1, 0, n, spec) for v in units
                )
                for v in units:
                    assert quad_mul(u, v) in units


def test_det_examples():
    assert det_mod_n(MatrixModN(7, ((1, 0), (0, 1)))) == 1
    assert det_mod_n(MatrixModN(5, ((1, 1), (0, 1)))) == 1
    assert det_mod_n(MatrixModN(10, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 1


def permutation_expansion_det(rows, n):
    import itertools

    m = len(rows)
    total = 0
    for perm in itertools.permutations(range(m)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(
            1 for i in range(m) for j in range(i + 1, m) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        term = sign
        for i in range(m):
            term *= rows[i][perm[i]]
        total += term
    return total % n


def test_det_against_permutation_expansion():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.choice((1, 2, 3))
        n = rng.randrange(2, 13)
        rows = tuple(tuple(rng.randrange(n) for _ in range(m)) for _ in range(m))
        assert det_mod_n(MatrixModN(n, rows)) == permutation_expansion_det(rows, n)


def test_glm_order_small():
    assert glm_order(3, 2) == 48
    assert glm_order(4, 2) == 96
    assert glm_order(2, 3) == 168
    for n in range(1, 21):
        assert glm_order(n, 1) == euler_phi(n)


def test_enumerate_glm_counts():
    for n in range(2, 13):
        assert sum(1 for _ in enumerate_glm(n, 1)) == euler_phi(n)
    assert sum(1 for _ in enumerate_glm(3, 2)) == 48
    assert sum(1 for _ in enumerate_glm(4, 2)) == 96


def test_enumerate_glm_exhaustive_membership():
    import itertools

    for n in range(2, 7):
        got = {mat.entries for mat in enumerate_glm(n, 2)}
        expected = set()
        for flat in itertools.product(range(n), repeat=4):
            rows = (flat[:2], flat[2:])
            if gcd(det_mod_n(MatrixModN(n, rows)), n) == 1:
                expected.add(rows)
        assert got == expected


def test_enumerate_glm_budget():
    with pytest.raises(CapacityError) as info:
        list(enumerate_glm(12, 3, max_elements=1000))
    assert str(glm_order(12, 3)) in str(info.value)


def test_enumerate_glm_dimension_cap():
    with pytest.raises(ValueError):
        list(enumerate_glm(2, 5))


def test_psi_values():
    assert psi(1, 2) == 1
    assert psi(4, 2) == 16 - 4
    assert psi(9, 1) == 6
    # brute oracle: count vectors whose gcd with n is 1
    for n in range(1, 30):
        for m in (1, 2):
            count = 0
            import itertools

            for vec in itertools.product(range(n), repeat=m):
                if gcd(gcd(*vec, n) if m > 1 else gcd(vec[0], n), n) == 1:
                    count += 1
            assert psi(n, m) == count, (n, m)


def test_psi_partition():
    from orbitmoments.core_arith import divisors

    for m in (1, 2, 3):
        for n in range(1, 201):
            assert sum(psi(n // r, m) for r in divisors(n)) == n**m
