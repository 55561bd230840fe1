from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    affine_group_masses,
    cartan_normalizer_cosets,
    enumerate_glm,
    matrix_group_masses,
    primes_between,
)
from orbitmoments.closed_forms import (
    affine_masses,
    cm_masses,
    cm_moment,
    dk,
    gl2_masses,
    gl2_moment,
    mk,
    mk_divisor_sum,
    mk_euler_product,
    moment_of,
    noncm_moment,
    p_poly,
    unit_masses,
)
from orbitmoments import closed_forms
from orbitmoments.core_arith import divisor_count
from orbitmoments.local_counts import CURVE_PRESETS
from orbitmoments.moment_lab import TorsionCounter
from orbitmoments.orbit_engine import (
    build_action,
    fixed_point_histogram,
)
from orbitmoments.residue_algebra import CLASS_NUMBER_ONE_D, QuadOrderSpec


def test_p_poly_values():
    assert p_poly(2, 1, 2) == 3
    assert p_poly(4, 2, 3) == (4**3 - 2**3) // (4 - 2) == 28
    assert p_poly(5, 3, 0) == 0
    assert p_poly(5, 3, 1) == 1


def test_p_poly_symmetry():
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a == b:
                continue
            for k in range(6):
                assert p_poly(a, b, k) == p_poly(b, a, k)


def test_p_poly_rejects_equal_args():
    with pytest.raises(ValueError):
        p_poly(3, 3, 2)


def test_mk_basic_values():
    for n in range(1, 101):
        assert mk(n, 0) == 1
    for n in range(1, 501):
        assert mk(n, 1) == divisor_count(n)
    assert mk(12, 1) == 6
    assert mk(4, 2) == 10  # hand expansion: 1 - 1 + 4 - 2 + 8
    assert mk(6, 2) == mk(2, 2) * mk(3, 2) == 4 * 5


def test_mk_dual_evaluation_agrees():
    for n in range(1, 301):
        for k in range(9):
            assert mk_divisor_sum(n, k) == mk_euler_product(n, k)


def test_mk_integer_valued():
    for n in range(1, 200):
        for k in range(6):
            assert mk(n, k).denominator == 1
            assert mk(n, k) >= 1


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10**4), k=st.integers(0, 8))
def test_mk_forms_agree_on_random_n(n, k):
    value = mk(n, k)
    assert value.denominator == 1 and value >= 0
    assert mk_divisor_sum(n, k) == mk_euler_product(n, k) == value


@settings(max_examples=60, deadline=None)
@given(
    ell=st.sampled_from(primes_between(3, 10**4)),
    k=st.integers(0, 8),
    d=st.sampled_from((2, 4)),
)
def test_cm_moment_forms_agree_on_random_ell(ell, k, d):
    value = cm_moment(ell, k, d)  # raises if its closed form and its masses disagree
    assert value == moment_of(cm_masses(ell, d, True), k) + moment_of(cm_masses(ell, d, False), k)


def test_mk_multiplicative():
    for n1 in range(1, 101):
        for n2 in range(1, 101):
            if n1 * n2 <= 100 and gcd(n1, n2) == 1:
                for k in (1, 2, 3):
                    assert mk(n1 * n2, k) == mk(n1, k) * mk(n2, k)


def test_dk_gaussian_primes():
    gauss = QuadOrderSpec(-1)
    assert dk(5, gauss) == 4  # splits
    assert dk(7, gauss) == 2  # inert
    assert dk(2, gauss) == 3  # ramifies


def test_dk_prime_powers_and_multiplicativity():
    gauss = QuadOrderSpec(-1)
    assert dk(25, gauss) == 9  # split: (a+1)^2
    assert dk(49, gauss) == 3  # inert: a+1
    assert dk(8, gauss) == 7  # ramified: 2a+1
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for n1 in range(1, 30):
            for n2 in range(1, 30):
                if gcd(n1, n2) == 1:
                    assert dk(n1 * n2, spec) == dk(n1, spec) * dk(n2, spec)


def test_gl2_moment_values():
    for ell in (2, 3, 5, 7, 11, 13, 17):
        assert gl2_moment(ell, 0) == 1
    assert gl2_moment(3, 1) == 2 == divisor_count(3)
    assert gl2_moment(3, 2) == 6  # the ell-factor ell + 3 at ell = 3
    assert gl2_moment(5, 2) == 8


def test_gl2_moment_rejects_composite():
    with pytest.raises(ValueError):
        gl2_moment(6, 1)


def test_noncm_matches_gl2_at_primes():
    for ell in (2, 3, 5, 7, 11, 13):
        for k in range(1, 7):
            assert noncm_moment(ell, k) == gl2_moment(ell, k)


def test_noncm_values():
    assert noncm_moment(3, 1) == 2
    assert noncm_moment(15, 2) == 6 * 8  # product of (ell + 3) over 3, 5
    assert noncm_moment(1, 3) == 1


def test_noncm_rejects_square_factor():
    with pytest.raises(ValueError):
        noncm_moment(12, 1)


def test_cm_moment_values():
    for ell in (3, 5, 7, 11, 13):
        for d in (2, 4):
            assert cm_moment(ell, 0, d) == 1
            assert cm_moment(ell, 1, d) == Fraction(d + 2, 2)
    # Burnside on the normalizer of the split Cartan subgroup
    assert cm_moment(5, 2, 4) == 28
    assert cm_moment(7, 2, 4) == 45
    assert cm_moment(13, 2, 4) == 120


def test_cm_moment_rejects():
    with pytest.raises(ValueError):
        cm_moment(2, 1, 4)
    with pytest.raises(ValueError):
        cm_moment(5, 1, 5)
    with pytest.raises(ValueError):  # a ramified ell
        cm_moment(3, 2, 3)
    with pytest.raises(ValueError):
        cm_masses(7, 3)


def test_moment_formulas_check_themselves_against_their_masses(monkeypatch):
    assert gl2_moment(5, 2) == 8 and cm_moment(5, 2, 4) == 28
    masses = {"gl2_masses": gl2_masses(5), "cm_masses": cm_masses(5, 4)}
    for name, right in masses.items():
        wrong = {**right, 1: right[1] + Fraction(1, 10**9)}
        monkeypatch.setattr(closed_forms, name, lambda *args, wrong=wrong: wrong)
    with pytest.raises(ArithmeticError, match="gl2_moment"):
        gl2_moment(5, 2)
    with pytest.raises(ArithmeticError, match="cm_moment"):
        cm_moment(5, 2, 4)


def test_cm_masses_inert_coset_is_half_mk():
    assert moment_of(cm_masses(5, 4, False), 0) == Fraction(1, 2)
    assert moment_of(cm_masses(5, 4, False), 1) == 1
    assert moment_of(cm_masses(5, 4, False), 3) == 16
    for ell in (3, 5, 7, 11):
        for d in (2, 4):
            for k in range(7):
                assert moment_of(cm_masses(ell, d, False), k) == mk(ell, k) / 2


def test_cm_masses_split_coset():
    for ell in primes_between(3, 51):
        for d in (2, 4):
            assert sum(cm_masses(ell, d, True).values()) == Fraction(1, 2)
    assert cm_masses(5, 4, True)[5] == Fraction(3, 16)
    assert 7 not in cm_masses(7, 2, True)


def test_cm_masses_split_coset_is_half_the_cartan_histogram():
    # quad:ell,d is the Cartan subgroup (O_K/ell)^x acting on O_K/ell
    for d in (-1, -3, -7):
        spec = QuadOrderSpec(d)
        for ell in (3, 5, 7, 11, 13):
            dk_ell = dk(ell, spec)
            if dk_ell == 3:
                continue
            action = build_action(f"quad:{ell},{d}")
            hist = fixed_point_histogram(action)
            masses = {v: Fraction(c, 2 * action.group_order) for v, c in hist.items()}
            assert cm_masses(ell, dk_ell, True) == masses, (ell, d)


def test_gl2_masses():
    for ell in primes_between(2, 51):
        masses = gl2_masses(ell)
        assert list(masses) == [1, ell, ell * ell]
        assert sum(masses.values()) == 1
        assert all(m > 0 for m in masses.values())
    assert gl2_masses(3)[9] == Fraction(1, 48)
    assert gl2_masses(3)[3] * 48 == 20


def test_cm_zeroth_moments_are_one():
    # zeroth moments are total densities
    for ell in (3, 5, 7):
        for d in (2, 4):
            assert sum(cm_masses(ell, d, True).values()) + sum(cm_masses(ell, d, False).values()) == 1


def test_unit_masses_equal_the_units_histogram():
    for n in range(1, 61):
        action = build_action(f"units:{n}")
        hist = fixed_point_histogram(action)
        assert unit_masses(n) == {m: Fraction(c, action.group_order) for m, c in hist.items()}, n


def test_unit_masses_of_a_primorial_in_closed_form():
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41
    masses = unit_masses(n)
    assert sum(masses.values()) == 1
    assert len(masses) == 2**12  # every g | n is even, and each odd prime may divide g or not
    assert sum(m * g for g, m in masses.items()) == mk(n, 1) == 2**13


def test_affine_masses_equal_the_affine_group():
    for n in range(1, 31):
        assert affine_masses(n) == affine_group_masses(n), n
        for k in range(1, 7):
            assert moment_of(affine_masses(n), k) == mk(n, k - 1)


def test_gl2_masses_equal_gl2():
    for ell in (2, 3, 5, 7):
        group = list(enumerate_glm(ell, 2))
        want = matrix_group_masses(group, len(group))
        assert TorsionCounter(CURVE_PRESETS["17a3"], ell).masses() == want, ell


def test_cm_masses_equal_the_cartan_normalizer_cosets():
    checked = 0
    for ell in (3, 5, 7):
        for d in CLASS_NUMBER_ONE_D:
            dk_ell = dk(ell, QuadOrderSpec(d))
            if dk_ell == 3:
                continue
            cartan, other = cartan_normalizer_cosets(ell, QuadOrderSpec(d))
            order = 2 * len(cartan)
            assert cm_masses(ell, dk_ell, True) == matrix_group_masses(cartan, order), (ell, d)
            assert cm_masses(ell, dk_ell, False) == matrix_group_masses(other, order), (ell, d)
            assert cm_masses(ell, dk_ell) == matrix_group_masses(cartan + other, order), (ell, d)
            checked += 1
    assert checked == 25  # 27 pairs, less 3 in Q(sqrt(-3)) and 7 in Q(sqrt(-7))


def test_cm_masses_refuse_ell_2_and_a_ramified_ell():
    with pytest.raises(ValueError):
        cm_masses(2, 4)
    with pytest.raises(ValueError):
        cm_masses(3, 3)
