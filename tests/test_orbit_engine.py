import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitmoments.closed_forms import dk, gl2_densities, gl2_moment, mk
from orbitmoments.core_arith import CapacityError, divisor_count
from orbitmoments.orbit_engine import (
    PermutationAction,
    build_action,
    build_gl2,
    build_glm,
    build_quad_units,
    build_semidirect,
    build_units,
    burnside_moment,
    fixed_point_histogram,
    orbit_count_oracle,
    orbit_size,
    predicted_value_distribution,
)
from orbitmoments.residue_algebra import (
    CLASS_NUMBER_ONE_D,
    QuadOrderSpec,
    QuadResidue,
    enumerate_glm,
    glm_order,
    psi,
    quad_mul,
    quad_unit_elements,
)


def mulclose(perms: np.ndarray, maxsize: int = 10**6) -> set[tuple[int, ...]]:
    """Closure of a set of permutations under composition."""
    gens = [tuple(int(v) for v in g) for g in perms]
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                gh = tuple(g[x] for x in h)
                if gh not in els:
                    els.add(gh)
                    new.append(gh)
                    if len(els) > maxsize:
                        raise CapacityError(len(els), maxsize, what="closure elements")
        frontier = new
    return els


def test_build_units_shape():
    action = build_units(4)
    assert action.group_order == 2
    assert action.size == 4
    assert fixed_point_histogram(action) == {4: 1, 2: 1}


def test_build_semidirect_shape():
    action = build_semidirect(2)
    assert action.group_order == 2
    assert action.size == 4
    # the nonidentity element (i, j) -> (i + 1, j) moves every point
    assert fixed_point_histogram(action) == {0: 1, 4: 1}


def test_build_gl2_counts():
    assert build_gl2(3).group_order == 48 == (3**2 - 1) * (3**2 - 3)
    with pytest.raises(ValueError):
        build_gl2(6)


def test_action_rows_are_bijections():
    for desc in ("units:6", "semidirect:4", "quad:3,-7", "glm:4,2", "gl2:5"):
        action = build_action(desc)
        for row in action.perms:
            assert sorted(int(v) for v in row) == list(range(action.size)), desc


def test_identity_in_every_action():
    for desc in ("units:8", "semidirect:5", "quad:4,-2", "glm:3,2", "gl2:7"):
        action = build_action(desc)
        identity = tuple(range(action.size))
        rows = {tuple(int(v) for v in row) for row in action.perms}
        assert identity in rows
        # identity is the only element fixing everything in these faithful actions
        assert fixed_point_histogram(action).get(action.size) == 1


def test_generators_generate_the_whole_group():
    for desc in ("glm:3,2", "glm:4,2", "glm:2,3", "units:12", "semidirect:4"):
        action = build_action(desc)
        closure = mulclose(action.generators)
        assert len(closure) == action.group_order, desc
        rows = {tuple(int(v) for v in row) for row in action.perms}
        assert closure == rows, desc


def test_units_histogram_by_direct_count():
    for n in (4, 6, 9, 12, 15):
        hist = fixed_point_histogram(build_units(n))
        for m, count in hist.items():
            direct = sum(
                1 for r in range(n) if gcd(r, n) == 1 and gcd(r - 1, n) == m
            )
            assert count == direct, (n, m)


def test_gl2_histogram_closed_counts():
    for ell in (2, 3, 5, 7):
        hist = fixed_point_histogram(build_gl2(ell))
        assert hist[ell] == ell**3 - 2 * ell - 1
        assert hist[ell * ell] == 1


def test_burnside_hand_values():
    assert burnside_moment(build_units(4), 1) == 3
    assert burnside_moment(build_units(4), 2) == 10
    assert burnside_moment(build_semidirect(2), 2) == 8 == mk(2, 3)


def test_burnside_units_match_mk():
    for n in range(1, 25):
        action = build_units(n)
        for k in range(1, 5):
            assert burnside_moment(action, k) == mk(n, k)


def test_burnside_semidirect_match_mk():
    for n in range(1, 13):
        action = build_semidirect(n)
        for k in (1, 2, 3):
            assert burnside_moment(action, k) == mk(n, 2 * k - 1)


def test_burnside_gl2_match_closed_form():
    for ell in (2, 3, 5, 7):
        action = build_gl2(ell)
        for k in range(1, 5):
            assert burnside_moment(action, k) == gl2_moment(ell, k)


def test_burnside_glm_divisor_count():
    for m in (1, 2):
        for n in range(1, 9):
            assert burnside_moment(build_glm(n, m), 1) == divisor_count(n)


def test_burnside_quad_units_dk():
    for d in (-1, -3, -7):
        spec = QuadOrderSpec(d)
        for n in range(1, 11):
            assert burnside_moment(build_quad_units(n, d), 1) == dk(n, spec)


def test_quad_rows_are_multiplication_by_units():
    # the matrix-built action against the scalar ring arithmetic; point
    # x + y*omega has index x + y*n and rows follow quad_unit_elements
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for n in range(1, 17):
            action = build_quad_units(n, d)
            units = quad_unit_elements(n, spec)
            assert action.group_order == len(units), (n, d)
            if n > 8:
                continue
            for u, row in zip(units, action.perms):
                for x in range(n):
                    for y in range(n):
                        v = quad_mul(u, QuadResidue(x, y, n, spec))
                        assert row[x + y * n] == v.a + v.b * n, (n, d, u)


def test_units_is_glm_dimension_one():
    for n in range(1, 61):
        assert np.array_equal(build_units(n).perms, build_glm(n, 1).perms), n


def test_budgets_reach_units_and_quad():
    quad = build_action("quad:8,-1", element_budget=10)
    assert quad.perms is None
    assert burnside_moment(quad, 1) == dk(8, QuadOrderSpec(-1))
    units = build_action("units:12", element_budget=1)
    assert units.perms is None
    assert burnside_moment(units, 1) == mk(12, 1)


def test_burnside_rejects_bad_group():
    # identity plus a 3-cycle is not closed under composition
    perms = np.array([[0, 1, 2], [1, 2, 0]], dtype=np.uint8)
    fake = PermutationAction(3, perms, perms, 2, descriptor="broken")
    with pytest.raises(ArithmeticError):
        burnside_moment(fake, 1)


def test_burnside_rejects_k_zero():
    with pytest.raises(ValueError):
        burnside_moment(build_units(4), 0)


def test_generator_mode_glm():
    action = build_glm(6, 3, element_budget=10)
    assert action.perms is None
    assert action.group_order == glm_order(6, 3)
    assert burnside_moment(action, 1) == divisor_count(6)
    # same value as the materialized route
    assert burnside_moment(build_glm(6, 2), 1) == divisor_count(6)


def test_generator_mode_matches_materialized():
    for n in (2, 3, 4, 6, 8):
        forced = build_glm(n, 2, element_budget=1)
        assert forced.perms is None
        full = build_glm(n, 2)
        for k in (1, 2):
            assert burnside_moment(forced, k) == burnside_moment(full, k), (n, k)


def test_oracle_equals_burnside():
    for n in range(1, 13):
        action = build_units(n)
        for k in (1, 2, 3):
            assert orbit_count_oracle(action, k) == burnside_moment(action, k)
    gl2_two = build_gl2(2)
    for k in (1, 2, 3):
        assert orbit_count_oracle(gl2_two, k) == burnside_moment(gl2_two, k)


def test_oracle_singleton():
    action = build_units(1)
    for k in (1, 2, 5):
        assert orbit_count_oracle(action, k) == 1


def test_oracle_budget():
    with pytest.raises(CapacityError):
        orbit_count_oracle(build_units(60), 4, tuple_budget=10**5)


def test_oracle_on_generator_only_glm():
    # 2,985,984 tuples; the value agrees with a union-find count
    action = build_action("glm:12,3")
    assert action.perms is None
    assert orbit_count_oracle(action, 2) == 90


def test_oracle_memory_stays_a_few_tuple_arrays():
    action = build_action("quad:8,-1")
    tracemalloc.start()
    try:
        value = orbit_count_oracle(action, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == burnside_moment(action, 3) == 9556
    # no tuple-image array is kept per generator (there are 32)
    assert peak < 16 * 8 * action.size**3


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    )
)
def test_burnside_equals_oracle_on_random_actions(gens):
    # arbitrary permutation groups, intransitive and non-matrix ones included
    size = len(gens[0])
    generators = np.array(gens, dtype=np.uint8)
    elements = np.array(sorted(mulclose(generators)), dtype=np.uint8)
    action = PermutationAction(size, elements, generators, len(elements))
    bare = PermutationAction(size, None, generators, len(elements))
    for k in (1, 2, 3):
        oracle = orbit_count_oracle(action, k)
        assert burnside_moment(action, k) == oracle == burnside_moment(bare, k), k
    for point in range(size):
        assert orbit_size(bare, point) == orbit_size(action, point), point


def test_orbit_sizes_are_psi():
    from orbitmoments.core_arith import divisors

    for n in range(1, 11):
        action = build_glm(n, 2)
        for r in divisors(n):
            assert orbit_size(action, r % n) == psi(n // r, 2), (n, r)


def test_orbit_size_generator_mode():
    action = build_glm(6, 2, element_budget=1)
    full = build_glm(6, 2)
    for point in range(action.size):
        assert orbit_size(action, point) == orbit_size(full, point)


def test_predicted_distribution_gl2():
    for ell in (2, 3, 5, 7):
        dist = predicted_value_distribution(build_gl2(ell))
        d0, d1, d2 = gl2_densities(ell)
        assert dist[1] == d0
        assert dist[ell] == d1
        assert dist[ell * ell] == d2


def test_predicted_distribution_units_mean():
    for n in (2, 4, 6, 12):
        dist = predicted_value_distribution(build_units(n))
        assert sum(dist.values()) == 1
        assert sum(Fraction(m) * mass for m, mass in dist.items()) == divisor_count(n)


def test_vectorized_enumeration_matches_reference_enumeration():
    # the action builder's vectorized scan and the generator in
    # residue_algebra must produce the same matrices in the same order
    from orbitmoments.orbit_engine import _enumerate_glm_matrices

    for n, m in ((3, 2), (4, 2), (2, 3)):
        vectorized = [
            tuple(tuple(int(v) for v in row) for row in mat)
            for mat in _enumerate_glm_matrices(n, m)
        ]
        reference = [mat.entries for mat in enumerate_glm(n, m)]
        assert vectorized == reference, (n, m)


def test_bad_descriptor():
    with pytest.raises(ValueError):
        build_action("frobnicate:3")
    with pytest.raises(ValueError):
        build_action("units:x")


def test_building_glm_4_3_stays_near_its_candidate_stack():
    tracemalloc.start()
    try:
        action = build_action("glm:4,3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert burnside_moment(action, 1) == mk(4, 1)
    # the enumeration holds all 4**9 candidate matrices as int64; the chunks
    # that turn matrices into permutation rows stay small next to that
    candidates = 8 * 9 * 4**9
    assert peak < 3 * candidates, peak
