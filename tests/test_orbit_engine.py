import ast
import importlib
import tokenize
import tracemalloc
from fractions import Fraction
from math import gcd, log2
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    QuadResidue,
    enumerate_glm,
    kernel_size_by_minors,
    quad_mul,
    quad_unit_elements,
    semidirect_table,
    table_histogram,
    tuple_orbit_minima,
)
import orbitmoments
from orbitmoments import core_arith, orbit_engine, orbit_oracle
from orbitmoments.closed_forms import dk, gl2_masses, gl2_moment, mk
from orbitmoments.core_arith import CapacityError, divisor_count, is_prime
from orbitmoments.orbit_engine import (
    PermutationAction,
    _enumerate_glm_matrices,
    _kernel_sizes,
    build_action,
    build_gl2,
    build_glm,
    build_quad_units,
    build_semidirect,
    build_units,
    burnside_moment,
    fixed_point_histogram,
)
from orbitmoments.orbit_oracle import orbit_count_oracle, orbit_size
from orbitmoments.residue_algebra import (
    CLASS_NUMBER_ONE_D,
    QuadOrderSpec,
    glm_order,
    psi,
    quad_unit_order,
)


def built(action: PermutationAction, name: str) -> bool:
    """Whether the cached property name (perms or generators) has been built."""
    return name in vars(action)


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


def test_semidirect_histogram_matches_its_permutation_table():
    # the closed form against row comparison on the brute-force table
    for n in range(1, 41):
        action = build_semidirect(n)
        table = semidirect_table(n)
        assert action.group_order == len(table), n
        assert fixed_point_histogram(action) == table_histogram(table), n
        assert action.perms is None, n


def test_semidirect_honours_the_budgets(monkeypatch):
    # semidirect:5 keeps no table: its generators are (1, 1) and (0, 2),
    # two rows of 25 entries, checked against ENTRY_BUDGET when first read
    monkeypatch.setattr(core_arith, "ENTRY_BUDGET", 50)
    assert build_action("semidirect:5").generators.shape == (2, 25)
    monkeypatch.setattr(core_arith, "ENTRY_BUDGET", 49)
    action = build_action("semidirect:5")
    assert burnside_moment(action, 2) == mk(5, 3)
    error, peak = _refusal_and_peak(lambda: action.generators)
    assert "needs 50 permutation table entries, budget is 49" in error
    assert peak < 1 << 20, peak
    assert not built(action, "generators")
    # ELEMENT_BUDGET caps the unit scan, n candidates
    monkeypatch.setattr(orbit_engine, "ELEMENT_BUDGET", 12)
    assert build_action("semidirect:12").group_order == 48
    with pytest.raises(CapacityError, match="needs 13 candidate matrices, budget is 12"):
        build_action("semidirect:13")
    monkeypatch.undo()
    # semidirect:127 would have a 2.6e8-entry table; its histogram is a few entries
    tracemalloc.start()
    try:
        action = build_semidirect(127)
        values = [burnside_moment(action, k) for k in (1, 2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == [mk(127, 1), mk(127, 3)] == [2, 16258]
    assert peak < 1 << 20, peak


def test_units_and_quad_budget_the_rows_of_their_generating_subset(monkeypatch):
    # units:5 has 4 elements on 5 points and is generated by 2 alone; the
    # element list is kept whatever ENTRY_BUDGET is, and each permutation
    # table is checked against it when first read
    monkeypatch.setattr(core_arith, "ENTRY_BUDGET", 5)
    action = build_action("units:5")
    assert action.materialized
    assert burnside_moment(action, 2) == mk(5, 2)
    assert action.generators.tolist() == [[0, 2, 4, 1, 3]]
    with pytest.raises(CapacityError, match="needs 20 permutation table entries, budget is 5"):
        action.perms
    assert not built(action, "perms")
    # quad:2,-1 is {1, i} on 4 points, generated by i alone
    monkeypatch.setattr(core_arith, "ENTRY_BUDGET", 3)
    quad = build_action("quad:2,-1")
    with pytest.raises(CapacityError, match="needs 4 permutation table entries, budget is 3"):
        quad.generators
    assert not built(quad, "generators")
    # quad:5,-1 keeps 3 generators on 25 points, budgeted as one table
    monkeypatch.setattr(core_arith, "ENTRY_BUDGET", 74)
    with pytest.raises(CapacityError, match="needs 75 permutation table entries, budget is 74"):
        build_action("quad:5,-1").generators


def _refusal_and_peak(build) -> tuple[str, int]:
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return str(info.value), peak


def test_refusals_come_before_any_allocation():
    cases = {
        "units:30000001": "needs 30000001 candidate matrices",
        "quad:4000,-1": "needs 16000000 candidate matrices",
        "glm:3000017,2": "needs 9000102000289 points for the orbit oracle",
        "gl2:3000017": "needs 9000102000289 points for the orbit oracle",
        "glm:9999,4": "needs 9996000599960001 points for the orbit oracle",
    }
    for descriptor, message in cases.items():
        error, peak = _refusal_and_peak(lambda: build_action(descriptor))
        assert message in error, (descriptor, error)
        assert peak < 1 << 20, (descriptor, peak)
    # units:10007 keeps its 10,006 elements; their table would be 100,130,042 entries
    action = build_action("units:10007")
    error, peak = _refusal_and_peak(lambda: action.perms)
    assert "needs 100130042 permutation table entries, budget is 60000000" in error
    assert peak < 1 << 20, peak
    assert not built(action, "perms")


def test_building_quad_stays_near_its_unit_stack():
    # 4,000,000 candidates (a, b) are valued 2**13 at a time, and the units
    # go into a stack allocated once, so the peak is that stack and one block
    # of int32 temporaries, not n**2-long arrays and not a second copy of the stack
    tracemalloc.start()
    try:
        action = build_action("quad:2000,-1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert action.matrices.dtype == np.uint16
    assert action.group_order == len(action.matrices) == 1280000
    assert peak < 1.5 * action.matrices.nbytes, (peak, action.matrices.nbytes)


def test_element_stacks_are_checked_against_the_group_order(monkeypatch):
    # glm and quad fill a stack allocated at the order their formula gives,
    # and a scan that lists more or fewer elements than that is refused
    monkeypatch.setattr(orbit_engine, "glm_order", lambda n, m: glm_order(n, m) + 1)
    with pytest.raises(ArithmeticError, match="glm:5,2 lists 480 elements, not its order 481"):
        build_glm(5, 2)
    order = orbit_engine.quad_unit_order
    monkeypatch.setattr(orbit_engine, "quad_unit_order", lambda n, spec: order(n, spec) - 1)
    with pytest.raises(ArithmeticError, match="quad:5,-1 lists 16 elements, not its order 15"):
        build_quad_units(5, -1)


def test_quad_unit_stack_length_is_the_unit_group_order():
    # |(O_K/n)^x| from the splitting of each p | n, against a scan of O_K/n
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for n in range(1, 41):
            action = build_quad_units(n, d)
            want = quad_unit_order(n, spec)
            assert action.group_order == len(action.matrices) == want, (n, d)
            if n <= 16:
                assert want == len(quad_unit_elements(n, spec)), (n, d)
    # 3162 = 2*3*17*31: 2 and 17 inert, 3 ramified, 31 split in Q(sqrt(-3))
    assert quad_unit_order(3162, QuadOrderSpec(-3)) == 3 * 6 * 288 * 900


def test_build_gl2_counts():
    assert build_gl2(3).group_order == 48 == (3**2 - 1) * (3**2 - 3)
    with pytest.raises(ValueError):
        build_gl2(6)


def test_action_rows_are_bijections():
    for desc in ("units:6", "semidirect:4", "quad:3,-7", "glm:4,2", "gl2:5"):
        action = build_action(desc)
        # semidirect has generator rows only
        rows = [*action.generators, *(action.perms if action.perms is not None else [])]
        for row in rows:
            assert sorted(int(v) for v in row) == list(range(action.size)), desc


def test_identity_in_every_action():
    for desc in ("units:8", "semidirect:5", "quad:4,-2", "glm:3,2", "gl2:7"):
        action = build_action(desc)
        if action.perms is not None:
            identity = tuple(range(action.size))
            assert identity in {tuple(int(v) for v in row) for row in action.perms}
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
        table = semidirect_table(4) if desc == "semidirect:4" else action.perms
        rows = {tuple(int(v) for v in row) for row in table}
        assert closure == rows, desc
        if desc in whole_group:
            # each kept element at least doubles the subgroup generated before it
            assert len(action.generators) <= log2(action.group_order), desc


def test_generators_are_the_greedy_lexicographic_choice():
    # each generator row is that of the first listed element outside the
    # group the earlier rows generate, so the oracle's work stays fixed
    catalog = [f"units:{n}" for n in range(1, 61)] + [
        f"quad:{n},{d}" for d in CLASS_NUMBER_ONE_D for n in range(1, 13)
    ]
    for desc in catalog:
        action = build_action(desc)
        identity = tuple(range(action.size))
        want, closure = [], {identity}
        for row in (tuple(int(v) for v in row) for row in action.perms):
            if row not in closure:
                want.append(row)
                closure = mulclose(np.array(want)) | {identity}
        assert [tuple(row) for row in action.generators.tolist()] == want, desc
    # the generator counts of the benchmark's oracle actions
    counts = {"quad:5,-1": 3, "quad:5,-11": 2, "quad:5,-19": 2, "glm:6,3": 7, "glm:12,3": 8, "gl2:5": 3}
    for desc, count in counts.items():
        assert len(build_action(desc).generators) == count, desc


def test_generating_subset_rejects_a_stack_that_is_not_a_group():
    # 1 and 2 mod 5 are not closed under products: 2 * 2 = 4 is missing
    stack = np.array([1, 2], dtype=np.uint8).reshape(2, 1, 1)
    with pytest.raises(ArithmeticError, match="broken:5"):
        orbit_engine._generating_rows(stack, 5, "broken:5")


def test_permutation_rows_match_across_point_blocks():
    # blocks of 32 and 96 images (32 * _MATRIX_CHUNK) split the 100 to 125
    # points of every stack, one matrix a step; gl2:11 keeps every 7th of its
    # 13,200 elements, and glm:5,3, which lists none, gives its generators
    stacks = {d: build_action(d) for d in ("units:101", "quad:11,-1", "glm:10,2", "gl2:11")}
    stacks = {d: (a.matrices[:: 1 + len(a.matrices) // 2000], a.modulus) for d, a in stacks.items()}
    stacks["glm:5,3"] = orbit_engine._glm_generator_matrices(5, 3), 5
    for descriptor, (mats, n) in stacks.items():
        whole = orbit_engine._apply_matrices(mats, n)
        assert whole.shape[1] > 96, descriptor
        for chunk in (1, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(orbit_engine, "_MATRIX_CHUNK", chunk)
                rows = orbit_engine._apply_matrices(mats, n)
            assert rows.dtype == whole.dtype and rows.shape == whole.shape, (descriptor, chunk)
            assert rows.tobytes() == whole.tobytes(), (descriptor, chunk)
        assert (np.sort(whole, axis=1) == np.arange(whole.shape[1])).all(), descriptor


def test_one_row_of_a_million_points_stays_a_few_blocks_above_itself():
    # one int32 row of 999,983 points (3.8 MB) and int64 temporaries of a
    # block of 2**18 points (a few times 2 MB), not of every point
    stack = build_action("units:999983").matrices[1:2]
    tracemalloc.start()
    try:
        row = orbit_engine._apply_matrices(stack, 999983)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.dtype == np.int32 and row[1] == stack[0, 0, 0] and row[0] == 0
    assert peak < 12 * 2**20, peak


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
            fixed_point_histogram(action)
    assert calls == []
    action = build_action("quad:5,-1")
    for k in (2, 3):
        assert orbit_count_oracle(action, k) == burnside_moment(action, k), k
    # one single-row stack per kept element, the generators kept after the first read
    assert calls == [1] * len(action.generators) == [1, 1, 1]


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
        units, glm = build_units(n), build_glm(n, 1)
        assert np.array_equal(units.perms, glm.perms), n
        assert np.array_equal(units.generators, glm.generators), n
    # the trivial group has no generator rows
    assert build_units(2).generators.shape == build_glm(2, 1).generators.shape == (0, 2)


def test_budgets_reach_units_and_quad(monkeypatch):
    # ELEMENT_BUDGET caps the candidates scanned: n**2 for quad, n for units
    monkeypatch.setattr(orbit_engine, "ELEMENT_BUDGET", 64)
    quad = build_action("quad:8,-1")
    assert burnside_moment(quad, 1) == dk(8, QuadOrderSpec(-1))
    with pytest.raises(CapacityError, match="needs 81 candidate matrices, budget is 64"):
        build_action("quad:9,-1")
    monkeypatch.setattr(orbit_engine, "ELEMENT_BUDGET", 12)
    assert burnside_moment(build_action("units:12"), 1) == mk(12, 1)
    with pytest.raises(CapacityError, match="needs 13 candidate matrices, budget is 12"):
        build_action("units:13")


def test_burnside_rejects_bad_group():
    # identity plus a 3-cycle is not closed under composition
    perms = np.array([[0, 1, 2], [1, 2, 0]], dtype=np.uint8)
    fake = PermutationAction(3, 2, lambda: perms, "broken", histogram=table_histogram(perms))
    with pytest.raises(ArithmeticError):
        burnside_moment(fake, 1)


def test_burnside_rejects_k_zero():
    with pytest.raises(ValueError):
        burnside_moment(build_units(4), 0)


def test_generator_mode_glm():
    # 1,886,976 elements, whose 216-point table is past ENTRY_BUDGET
    action = build_glm(6, 3)
    assert action.perms is None
    assert action.group_order == glm_order(6, 3)
    assert burnside_moment(action, 1) == divisor_count(6)
    # same value as the materialized route
    assert burnside_moment(build_glm(6, 2), 1) == divisor_count(6)


def test_generator_mode_matches_materialized(monkeypatch):
    for n in (2, 3, 4, 6, 8):
        with monkeypatch.context() as patch:
            patch.setattr(orbit_engine, "ELEMENT_BUDGET", 1)
            forced = build_glm(n, 2)
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


def test_oracle_budget(monkeypatch):
    action = build_units(60)
    monkeypatch.setattr(orbit_oracle, "TUPLE_BUDGET", 10**5)
    with pytest.raises(CapacityError, match="needs 12960000 tuples, budget is 100000"):
        orbit_count_oracle(action, 4)
    assert orbit_count_oracle(action, 2) == mk(60, 2)
    # the same patch moves build_glm's refusal of a generator-only action
    monkeypatch.setattr(orbit_oracle, "TUPLE_BUDGET", 215)
    with pytest.raises(CapacityError, match="needs 216 points for the orbit oracle"):
        build_action("glm:6,3")


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
    # the int32 labels are the only array of all 262,144 tuples: images and
    # counts are made a block at a time
    assert peak < 2 * 4 * action.size**3, peak


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
    hist = table_histogram(elements)
    action = PermutationAction(size, len(elements), lambda: generators, histogram=hist)
    bare = PermutationAction(size, len(elements), lambda: generators)
    for k in (1, 2, 3):
        oracle = orbit_count_oracle(action, k)
        assert burnside_moment(action, k) == oracle == burnside_moment(bare, k), k
    for point in range(size):
        want = np.unique(elements[:, point]).size
        assert orbit_size(bare, point) == orbit_size(action, point) == want, point
    # blocks of at most 4 tuples: sizes 5 and 6 have no trailing digit, 3 and 4
    # one, 2 two, and 1 only trailing ones, so every sweep crosses blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbit_oracle, "_TUPLE_CHUNK", 4)
        for k in (1, 2, 3):
            labels = orbit_oracle._orbit_labels(generators, size, k)
            assert labels.tolist() == tuple_orbit_minima(gens, size, k), k
            assert orbit_count_oracle(bare, k) == burnside_moment(action, k), k


def test_oracle_across_many_blocks(monkeypatch):
    # blocks of at most 2**10 tuples: 54 to 256 blocks a sweep, the last one of units:60 short
    monkeypatch.setattr(orbit_oracle, "_TUPLE_CHUNK", 2**10)
    units, quad, glm = (build_action(d) for d in ("units:60", "quad:8,-1", "glm:6,3"))
    assert orbit_count_oracle(units, 3) == burnside_moment(units, 3) == mk(60, 3)
    assert orbit_count_oracle(quad, 3) == burnside_moment(quad, 3) == 9556
    assert orbit_count_oracle(glm, 2) == 30
    for action, k in ((units, 2), (quad, 2), (glm, 1)):
        labels = orbit_oracle._orbit_labels(action.generators, action.size, k)
        assert labels.tolist() == tuple_orbit_minima(action.generators, action.size, k)


def test_oracle_refuses_rows_that_are_not_permutations():
    # take(mode="clip") would count 2, 3 and 1 orbits at k = 1 through these
    # rows, and give point 0 an orbit of 1 under the second
    good = [1, 2, 0]
    for bad in ([1, 0, 7], [1, 1, 2], [2, -1, 0]):
        for rows, index in (([bad], 0), ([good, bad], 1)):
            action = PermutationAction(3, 2, lambda rows=rows: np.array(rows))
            message = rf"^generator row {index} is not a permutation of range\(3\)$"
            for k in (1, 2):
                with pytest.raises(ValueError, match=message):
                    orbit_count_oracle(action, k)
            with pytest.raises(ValueError, match=message):
                orbit_size(action, 0)
    assert orbit_count_oracle(PermutationAction(3, 3, lambda: np.array([good])), 1) == 1


def test_oracle_on_a_million_points_keeps_its_heads_in_the_labels_dtype():
    action = build_action("units:999983")
    assert action.generators.dtype == np.int32 and len(action.generators) == 2
    tracemalloc.start()
    try:
        value = orbit_count_oracle(action, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 2
    # with no trailing digit each int32 row is its own head, read a block at a
    # time; an intp copy of one row would add 8 MB to the 4 MB of int32 labels
    assert peak < 2 * 4 * action.size, peak


def test_orbit_sizes_are_psi():
    from orbitmoments.core_arith import divisors

    for n in range(1, 11):
        action = build_glm(n, 2)
        for r in divisors(n):
            assert orbit_size(action, r % n) == psi(n // r, 2), (n, r)


def test_orbit_size_generator_mode(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(orbit_engine, "ELEMENT_BUDGET", 1)
        action = build_glm(6, 2)
    full = build_glm(6, 2)
    for point in range(action.size):
        assert orbit_size(action, point) == orbit_size(full, point)


def _masses(action):
    """m -> the share of the group that fixes exactly m points."""
    return {m: Fraction(c, action.group_order) for m, c in fixed_point_histogram(action).items()}


def test_predicted_distribution_gl2():
    for ell in (2, 3, 5, 7):
        assert _masses(build_gl2(ell)) == gl2_masses(ell)


def test_predicted_distribution_units_mean():
    for n in (2, 4, 6, 12):
        dist = _masses(build_units(n))
        assert sum(dist.values()) == 1
        assert sum(Fraction(m) * mass for m, mass in dist.items()) == divisor_count(n)


def _check_enumeration(n: int, m: int) -> None:
    # the action builder's vectorized scan and the generator in
    # oracles must produce the same matrices in the same order
    mats = _enumerate_glm_matrices(n, m)
    vectorized = [tuple(tuple(int(v) for v in row) for row in mat) for mat in mats]
    reference = [mat.entries for mat in enumerate_glm(n, m)]
    assert vectorized == reference, (n, m)
    # entries lie in [0, n): the dtype of a permutation of n points
    dtype = np.uint8 if n <= 2**8 else np.uint16 if n <= 2**16 else np.int32
    assert mats.dtype == dtype, (n, m)


def test_vectorized_enumeration_matches_reference_enumeration():
    # glm:3,3 spans three blocks of candidates
    cases = ((3, 2), (4, 2), (2, 3), (3, 3), (6, 2), (9, 2), (12, 1), (1, 2), (997, 1), (70000, 1))
    for n, m in cases:
        _check_enumeration(n, m)
    # past 2**16 the int32 stack still gives mk's moment
    assert burnside_moment(build_units(70000), 2) == mk(70000, 2)


@pytest.mark.slow
def test_vectorized_enumeration_matches_reference_enumeration_for_glm_4_3():
    # its 4**9 candidates come in 32 blocks; the reference takes about 1.5 s
    _check_enumeration(4, 3)


def test_quad_stacks_match_reference_enumeration():
    # row for row, each unit's matrix is multiplication by the unit that
    # quad_unit_elements lists at its place: its columns are u*1 and u*omega
    for d in CLASS_NUMBER_ONE_D:
        spec = QuadOrderSpec(d)
        for n in range(1, 17):
            one, omega = QuadResidue(1 % n, 0, n, spec), QuadResidue(0, 1 % n, n, spec)
            reference = []
            for u in quad_unit_elements(n, spec):
                c0, c1 = quad_mul(u, one), quad_mul(u, omega)
                reference.append([[c0.a, c1.a], [c0.b, c1.b]])
            mats = build_quad_units(n, d).matrices
            assert mats.tolist() == reference, (n, d)
            assert mats.dtype == np.uint8, (n, d)


def test_bad_descriptor():
    # an unknown kind, a bad number or the wrong count of numbers
    for descriptor in ("frobnicate:3", "units:x", "units:", "units", "units:3,4", "glm:5", "quad:5"):
        with pytest.raises(ValueError, match=f"^bad action descriptor '{descriptor}'$"):
            build_action(descriptor)
    # a builder's own refusal is not rewritten
    with pytest.raises(ValueError, match="between 1 and 4"):
        build_action("glm:5,9")
    with pytest.raises(ValueError, match="indexed by a prime"):
        build_action("gl2:4")


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
    # candidates are filtered 2**13 at a time, so the peak is one chunk of
    # candidates next to the invertible matrices, well below the full
    # candidate stack
    candidates = 8 * 9 * 4**9
    assert peak < 1.75 * candidates, peak


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
        assert not built(action, "perms"), desc
        assert hist == table_histogram(action.perms), desc
        assert sum(hist.values()) == action.group_order, desc


def test_matrix_orbit_sizes_match_permutation_table():
    for desc in ("glm:4,3", "gl2:5", "glm:12,2", "units:24", "quad:9,-3", "quad:8,-2"):
        action = build_action(desc)
        sizes = [orbit_size(action, point) for point in range(action.size)]
        assert not built(action, "perms"), desc
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
    # only listed actions have a histogram; a listed 4-dimensional glm has
    # order * n**4 <= ENTRY_BUDGET = 6 * 10**7, so n <= 88
    assert _kernel_sizes(np.zeros((1, 4, 4), dtype=np.int64), 88)[0] == 88**4


def test_kernel_sizes_match_python_ints_on_both_sides_of_the_int32_switch():
    # m! (n-1)**m fits int32 up to n = 32768, 711 and 98 for m = 2, 3 and 4;
    # one past that the minors are formed on int64.  Each prime pair brackets
    # the same switch, and a prime n takes the rank test in place of gcds
    rng = np.random.default_rng(0)
    cases = ((2, 32768, np.int32), (2, 32769, np.int64), (3, 711, np.int32))
    cases += ((3, 712, np.int64), (4, 98, np.int32), (4, 99, np.int64))
    cases += ((2, 32749, np.int32), (2, 32771, np.int64), (3, 709, np.int32))
    cases += ((3, 719, np.int64), (4, 97, np.int32), (4, 101, np.int64))
    for m, n, dtype in cases:
        assert is_prime(n) == (n in (32749, 32771, 709, 719, 97, 101)), n
        extremes = rng.choice(np.array([0, 1, n - 2, n - 1]), size=(150, m, m))
        mats = np.concatenate([extremes, rng.integers(0, n, size=(150, m, m))])
        # as in test_invariant_factors_count_the_kernel, the last `tied` rows
        # are multiples of the first, so singular matrices over Z come up often
        for t, mat in enumerate(mats):
            tied = t % (m + 1)
            for r in range(max(1, m - tied), m):
                mat[r] = mat[0] * (r + 1)
        if is_prime(n):
            mats = np.concatenate([mats, _singular_mod_only(rng, m, n)])
        sizes = _kernel_sizes(mats, n)
        assert sizes.dtype == dtype, (m, n)
        assert sizes.tolist() == [kernel_size_by_minors(mat, n) for mat in mats], (m, n)


def _singular_mod_only(rng, m: int, n: int) -> np.ndarray:
    """Stacks singular mod the prime n but not over Z.

    In the first the last row is a combination of the others mod n, so a
    minor, not an entry, is a nonzero multiple of n; the same stacks follow
    with some entries shifted by nonzero multiples of n, with the first row
    made of nonzero multiples of n, and with every entry one.  A stack
    singular over Z is dropped: its kernel mod 2**89 - 1, a prime above
    every minor here, is not trivial.
    """
    base = rng.integers(0, n, size=(60, m, m))
    combination = rng.integers(1, n, size=(60, m - 1))
    base[:, -1] = np.einsum("li,lij->lj", combination, base[:, :-1]) % n
    multiples = n * rng.choice([-3, -2, -1, 1, 2, 3], size=(60, m, m))
    shifted = base + multiples * (rng.random((60, m, m)) < 0.5)
    first_row = base.copy()
    first_row[:, 0] = multiples[:, 0]
    stacks = np.concatenate([base, shifted, first_row, multiples])
    stacks = stacks[[kernel_size_by_minors(mat, 2**89 - 1) == 1 for mat in stacks]]
    assert len(stacks) > 200 and all(kernel_size_by_minors(mat, n) > 1 for mat in stacks)
    return stacks


def test_histogram_peak_stays_below_half_the_element_stack():
    # each chunk's kernel sizes are sorted in place and counted by runs: no
    # array of size + 1 counts (about 10**6 here) and no int64 copy of a chunk
    for descriptor in ("units:999983", "quad:1009,-1"):
        action = build_action(descriptor)
        tracemalloc.start()
        try:
            hist = fixed_point_histogram(action)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(hist) == sorted(hist), descriptor
        assert sum(hist.values()) == action.group_order, descriptor
        assert peak < action.matrices.nbytes / 2, (descriptor, peak, action.matrices.nbytes)
    # 999983 is prime: only the identity fixes more than the zero vector
    assert fixed_point_histogram(build_action("units:999983")) == {1: 999981, 999983: 1}


def test_building_units_stays_near_its_element_stack():
    # one digit past 2**13 leaves no trailing digits, so the 999,983
    # candidates come 2**13 at a time into a stack allocated once
    tracemalloc.start()
    try:
        action = build_action("units:999983")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert action.group_order == len(action.matrices) == 999982
    assert peak <= 2 * action.matrices.nbytes, (peak, action.matrices.nbytes)


def test_burnside_on_matrix_actions_builds_no_permutation_table():
    action = build_action("glm:4,3")
    for k in (1, 2, 3):
        assert burnside_moment(action, k) == orbit_count_oracle(action, k), k
    fixed_point_histogram(action)
    orbit_size(action, 5)
    assert not built(action, "perms")
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
    # 86,016 elements in chunks of 2**15 // 3**2 = 3,640
    chunks = [3640] * 23 + [86016 - 23 * 3640]
    assert calls == chunks
    for k in range(2, 7):
        burnside_moment(action, k)
    assert calls == chunks
    # 2**13 matrices a chunk up to m = 2, and 2**11 at m = 4
    for descriptor, order, chunk in (
        ("units:99991", 99990, 2**13),
        ("gl2:17", 78336, 2**13),
        ("glm:2,4", 20160, 2**11),
    ):
        calls.clear()
        fixed_point_histogram(build_action(descriptor))
        assert calls == [chunk] * (order // chunk) + [order % chunk], descriptor
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
    # the candidates are listed 2**13 at a time and the histogram is valued
    # 3,640 matrices at a time, so the 3 x 3 minors of a chunk take about what
    # a 2**13 chunk of 2 x 2 ones would, and the build and every moment stay
    # below a twelfth of the int64 stack of all 4**9 candidates (1.57 MB)
    candidates = 8 * 9 * 4**9
    assert peak < candidates / 12, peak


def _tree(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read())


def _package_modules() -> dict:
    """The modules orbitmoments/__init__.py imports, by name."""
    init = _tree(orbitmoments.__file__)
    names = [node.module for node in init.body if isinstance(node, ast.ImportFrom)]
    return {name: importlib.import_module(f"orbitmoments.{name}") for name in names}


def test_orbit_engine_stays_below_the_parser_token_budget():
    # Compiling a module of 4,096 or more parser tokens makes CPython 3.11's
    # parser grow its token array, a compile peak of 256 KB more (1,792 KB
    # against 1,536 KB of ru_maxrss); every benchmark round imports these
    # modules from source, and an earlier 4,191-token orbit_engine raised
    # power-stream peak_rss_mb by 0.3 MB.  Delete as much as you add, or
    # split the module again.  local_counts is past the step already, at
    # about 4,600 tokens (ROADMAP records what splitting it should measure).
    modules = _package_modules()
    assert {"core_arith", "moment_lab", "orbit_engine", "orbit_oracle"} <= set(modules)
    for name, module in modules.items():
        if name == "local_counts":
            continue
        with open(module.__file__) as fh:
            tokens = tokenize.generate_tokens(fh.readline)
            count = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
        assert count < 4096, (name, count)


def test_orbit_oracle_imports_nothing_from_orbit_engine():
    # the oracle checks the builders' histograms, so it must not reach them
    names = []
    for node in ast.walk(_tree(orbit_oracle.__file__)):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert "core_arith" in names and "numpy" in names, names
    assert not any("orbit_engine" in name for name in names), names


def test_modules_reach_no_private_name_of_another():
    # the prime stream needs nothing from the orbit layer, and what two
    # modules share is public in the one that owns it
    for path in sorted(Path(orbitmoments.__file__).parent.glob("*.py")):
        name, tree = path.stem, _tree(path)
        siblings = set()  # sibling modules imported whole, as `from . import name`
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is None:
                siblings |= {alias.name for alias in node.names}
            else:
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (name, node.module, private)
            if name in ("local_counts", "moment_lab"):
                reached = {node.module} | {alias.name for alias in node.names}
                assert not reached & {"orbit_engine", "orbit_oracle"}, (name, reached)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id in siblings and node.attr.startswith("_")), (
                    name, node.value.id, node.attr
                )
