import tracemalloc
from fractions import Fraction
from math import gcd, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import QuadResidue, enumerate_glm, quad_mul, quad_unit_elements
from orbitmoments import orbit_engine
from orbitmoments.closed_forms import dk, gl2_densities, gl2_moment, mk
from orbitmoments.core_arith import CapacityError, divisor_count
from orbitmoments.orbit_engine import (
    PermutationAction,
    _kernel_sizes,
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
from orbitmoments.residue_algebra import CLASS_NUMBER_ONE_D, QuadOrderSpec, glm_order, psi


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


def test_semidirect_honours_the_budgets():
    # semidirect:5 has 5 * 4 elements, each a row of 25 entries
    assert build_action("semidirect:5", entry_budget=500).perms.shape == (20, 25)
    with pytest.raises(CapacityError, match="needs 500 permutation table entries, budget is 499"):
        build_action("semidirect:5", entry_budget=499)
    with pytest.raises(CapacityError, match="needs 20 group elements, budget is 19"):
        build_action("semidirect:5", element_budget=19)
    # the default budget stops semidirect:127 before its 2.6e8-entry table is built
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="needs 258096258 permutation table entries"):
            build_semidirect(127)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_units_and_quad_budget_the_rows_of_their_generating_subset():
    # units:5 has 4 elements on 5 points; its generating subset has at
    # most floor(log2(4)) = 2 rows, so the check counts 2 * 5 entries
    action = build_action("units:5", entry_budget=10)
    assert not action.materialized
    assert 1 <= len(action.generators) <= 2
    with pytest.raises(CapacityError, match="needs 10 generator table entries, budget is 9"):
        build_action("units:5", entry_budget=9)
    # a group of order 1 still counts one row
    with pytest.raises(CapacityError, match="needs 2 generator table entries, budget is 1"):
        build_action("units:2", entry_budget=1)


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
    # units and quad list every element and keep a generating subset of it
    whole_group = [f"units:{n}" for n in range(1, 61)] + [
        f"quad:{n},{d}" for d in CLASS_NUMBER_ONE_D for n in range(1, 13)
    ]
    for desc in ("glm:3,2", "glm:4,2", "glm:2,3", "semidirect:4", *whole_group):
        action = build_action(desc)
        # the trivial group has no generators, and mulclose([]) is empty
        closure = mulclose(action.generators) | {tuple(range(action.size))}
        assert len(closure) == action.group_order, desc
        rows = {tuple(int(v) for v in row) for row in action.perms}
        assert closure == rows, desc
        if desc in whole_group:
            # each kept element at least doubles the subgroup generated before it
            assert len(action.generators) <= log2(action.group_order), desc


def test_generating_subset_rejects_a_stack_that_is_not_a_group():
    # 1 and 2 mod 5 are not closed under products: 2 * 2 = 4 is missing
    stack = np.array([1, 2], dtype=np.uint8).reshape(2, 1, 1)
    action = orbit_engine._matrix_action(5, stack, lambda: stack, 2, "broken:5", whole_group=True)
    with pytest.raises(ArithmeticError, match="broken:5"):
        action.generators


def test_generator_rows_are_built_on_first_read(monkeypatch):
    calls = []
    apply_matrices = orbit_engine._apply_matrices

    def counted(mats, n):
        calls.append(len(mats))
        return apply_matrices(mats, n)

    monkeypatch.setattr(orbit_engine, "_apply_matrices", counted)
    catalog = (
        [f"quad:{n},{d}" for d in CLASS_NUMBER_ONE_D for n in range(1, 17)]
        + [f"units:{n}" for n in range(1, 61)]
        + [f"glm:{n},{m}" for m in (1, 2, 3) for n in range(1, 13)]
        + [f"gl2:{ell}" for ell in (2, 3, 5, 7, 11, 13)]
    )
    actions = [build_action(desc) for desc in catalog]
    assert calls == []
    for action in actions:
        if action.materialized:
            burnside_moment(action, 2)
            predicted_value_distribution(action)
            orbit_size(action, action.size - 1)
    assert calls == []
    action = build_action("quad:5,-1")
    for k in (2, 3):
        assert orbit_count_oracle(action, k) == burnside_moment(action, k), k
    # one stack, the generators, kept after the first read
    assert calls == [len(action.generators)]


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
    # six transvections and diag(5, 1, 1), diag(7, 1, 1): 5 and 7 generate (Z/12)^x
    assert len(action.generators) == 8


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
    # oracles must produce the same matrices in the same order
    from orbitmoments.orbit_engine import _enumerate_glm_matrices

    for n, m in ((3, 2), (4, 2), (2, 3), (6, 2), (9, 2), (12, 1), (1, 2), (997, 1)):
        mats = _enumerate_glm_matrices(n, m)
        vectorized = [tuple(tuple(int(v) for v in row) for row in mat) for mat in mats]
        reference = [mat.entries for mat in enumerate_glm(n, m)]
        assert vectorized == reference, (n, m)
        # entries lie in [0, n): the dtype of a permutation of n points
        assert mats.dtype == (np.uint8 if n <= 2**8 else np.uint16), (n, m)


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
    # the int64 stack of all 4**9 candidate matrices is the yardstick; the
    # build keeps only the invertible ones and no permutation table
    candidates = 8 * 9 * 4**9
    assert peak < 3 * candidates, peak


def test_building_glm_4_3_holds_no_candidate_stack():
    tracemalloc.start()
    try:
        action = build_action("glm:4,3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert burnside_moment(action, 1) == mk(4, 1)
    # candidates are filtered 2**15 at a time, so the peak is one chunk of
    # candidates next to the invertible matrices, well below the full
    # candidate stack
    candidates = 8 * 9 * 4**9
    assert peak < 1.75 * candidates, peak


def table_histogram(action: PermutationAction) -> dict[int, int]:
    """The fixed-point histogram by comparing each permutation row with the identity."""
    rows = PermutationAction(action.size, action.perms, action.generators, action.group_order)
    return fixed_point_histogram(rows)


def test_matrix_histogram_matches_permutation_table():
    catalog = (
        ["glm:4,3", "glm:3,3"]
        + [f"gl2:{ell}" for ell in (2, 3, 5, 7, 11, 13)]
        + [f"glm:{n},2" for n in range(1, 13)]
        + [f"units:{n}" for n in range(1, 61)]
        + [f"quad:{n},{d}" for d in CLASS_NUMBER_ONE_D for n in range(1, 17)]
    )
    for desc in catalog:
        action = build_action(desc)
        hist = fixed_point_histogram(action)
        assert action.table is None, desc
        assert hist == table_histogram(action), desc
        assert sum(hist.values()) == action.group_order, desc


def test_matrix_orbit_sizes_match_permutation_table():
    for desc in ("glm:4,3", "gl2:5", "glm:12,2", "units:24", "quad:9,-3", "quad:8,-2"):
        action = build_action(desc)
        sizes = [orbit_size(action, point) for point in range(action.size)]
        assert action.table is None, desc
        want = [np.unique(action.perms[:, point]).size for point in range(action.size)]
        assert sizes == want, desc


def brute_kernel_size(mat: np.ndarray, n: int) -> int:
    """#{v in (Z/nZ)**m : mat v = 0 mod n}, over every v."""
    m = mat.shape[0]
    idx = np.arange(n**m, dtype=np.int64)
    vectors = np.stack([(idx // n**i) % n for i in range(m)])
    return int(np.count_nonzero(np.all(mat.astype(np.int64) @ vectors % n == 0, axis=0)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(1, min(30, int(round(10 ** (5 / m))))).filter(lambda n: n**m <= 10**5),
        )
    ).flatmap(
        lambda mn: st.tuples(
            st.just(mn[1]),
            st.lists(
                st.lists(st.integers(-3 * mn[1], 3 * mn[1]), min_size=mn[0], max_size=mn[0]),
                min_size=mn[0],
                max_size=mn[0],
            ),
            st.integers(0, mn[0]),
        )
    )
)
def test_invariant_factors_count_the_kernel(case):
    # random integer matrices, lifted to [0, n) inside; the last `tied` rows
    # are multiples of the first, so singular matrices over Z come up often
    n, rows, tied = case
    mat = np.array(rows, dtype=np.int64)
    m = len(mat)
    for r in range(m - tied, m):
        if r > 0:
            mat[r] = mat[0] * (r + 1)
    assert _kernel_sizes(mat[None], n)[0] == brute_kernel_size(mat, n)


def test_kernel_sizes_refuse_minors_past_int64():
    with pytest.raises(OverflowError, match="past int64"):
        _kernel_sizes(np.zeros((1, 4, 4), dtype=np.int64), 2**20)
    # a 4-dimensional action inside the default entry budget has n**4 <= 6 * 10**7
    assert _kernel_sizes(np.zeros((1, 4, 4), dtype=np.int64), 88)[0] == 88**4


def test_burnside_on_matrix_actions_builds_no_permutation_table():
    action = build_action("glm:4,3")
    for k in (1, 2, 3):
        assert burnside_moment(action, k) == orbit_count_oracle(action, k), k
    predicted_value_distribution(action)
    orbit_size(action, 5)
    assert action.table is None
    # the table is still there for whoever asks
    assert action.perms.shape == (action.group_order, action.size)


def test_histogram_is_computed_once_per_action(monkeypatch):
    calls = []
    kernel_sizes = orbit_engine._kernel_sizes

    def counted(mats, n):
        calls.append(len(mats))
        return kernel_sizes(mats, n)

    monkeypatch.setattr(orbit_engine, "_kernel_sizes", counted)
    action = build_action("glm:4,3")
    assert burnside_moment(action, 1) == mk(4, 1)
    # 86,016 elements in chunks of 2**15
    assert calls == [2**15, 2**15, 86016 - 2**16]
    for k in range(2, 7):
        burnside_moment(action, k)
    assert calls == [2**15, 2**15, 86016 - 2**16]
    # callers get a copy, so the cached histogram cannot be emptied
    hist = fixed_point_histogram(action)
    hist.clear()
    assert fixed_point_histogram(action)


def test_glm_4_3_burnside_peak_stays_below_the_candidate_stack():
    tracemalloc.start()
    try:
        action = build_action("glm:4,3")
        values = [burnside_moment(action, k) for k in range(1, 4)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values[0] == mk(4, 1)
    # the histogram is valued 2**15 matrices at a time, so the build and
    # every moment stay below the int64 stack of all 4**9 candidates
    candidates = 8 * 9 * 4**9
    assert peak < candidates, peak
