"""Finite group actions and exact orbit counting.

The k-th moment of an action is the number of orbits on k-tuples.  A
materialized action evaluates it through the fixed-point histogram (the
average of chi(g)**k over the group); an action too large to materialize
keeps a generating set, on whose tuple space the orbit oracle
(orbit_oracle) counts the same number.  A matrix action keeps its element
matrices and reads its histogram off the minors of g - I; semidirect keeps
only its histogram, read off that of units:n, as are its generators.  No
action keeps a permutation table: perms builds one for a matrix action on
request, and generator rows are built when first read.  units and quad
list every element (_list_matrices) and walk their points for generators
(_generating_rows); glm with m >= 2 reads its scalings off units:n.

Three budgets bound memory, each checked before what it bounds is made.
This module owns ELEMENT_BUDGET, the candidates _list_matrices scans (n
for units and semidirect, n**2 for quad, n**(m*m) for glm), and
ENTRY_BUDGET, the entries of every permutation table (_check_table).
build_glm reads the third, orbit_oracle.TUPLE_BUDGET on the tuples the
oracle labels, at call time to refuse a generator-only action with more
points.  glm with m >= 2 lists its elements only when order <=
ELEMENT_BUDGET and order * size <= ENTRY_BUDGET, a cost policy (no table
is kept) that keeps its histogram cheap; units (glm with m = 1) and quad
always list theirs.

Past what the budgets bound, every temporary is one block long:
_list_matrices and fixed_point_histogram take _MATRIX_CHUNK matrices a
step (fewer for m >= 3), and _apply_matrices 32 * _MATRIX_CHUNK images.
"""

from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial

import numpy as np

from . import orbit_oracle
from .core_arith import CapacityError, factorize, is_prime, value_counts
from .orbit_oracle import _trailing_digits, orbit_count_oracle
from .residue_algebra import QuadOrderSpec, glm_order, quad_unit_order

ELEMENT_BUDGET = 10**7
ENTRY_BUDGET = 6 * 10**7
# matrices per vectorized step when enumerating or valuing a stack
_MATRIX_CHUNK = 1 << 13


def _perm_dtype(size: int):
    if size <= 2**16:
        return np.uint8 if size <= 2**8 else np.uint16
    return np.int32 if size <= 2**31 else np.int64


@dataclass
class PermutationAction:
    """A finite group acting on {0, ..., size-1}.

    A materialized group keeps matrices, the (order, m, m) stack of its
    elements acting on (Z/modulus)**m, or histogram, its fixed-point
    histogram, which fixed_point_histogram fills in for a matrix action; an
    action with neither has only generator_rows(), one permutation row per
    generator, which generators calls once, when first read.
    """

    size: int
    group_order: int
    generator_rows: Callable[[], np.ndarray] = field(repr=False)
    descriptor: str = ""
    matrices: np.ndarray | None = None
    modulus: int = 0
    histogram: dict[int, int] | None = field(default=None, repr=False)

    @property
    def materialized(self) -> bool:
        return self.matrices is not None or self.histogram is not None

    @cached_property
    def perms(self) -> np.ndarray | None:
        """One permutation row per element of a matrix action, built on first
        access; None for any other action."""
        return None if self.matrices is None else _apply_matrices(self.matrices, self.modulus)

    @cached_property
    def generators(self) -> np.ndarray:
        """One permutation row per generator, built on first access."""
        return self.generator_rows()


def _check_table(rows: int, size: int) -> None:
    """Refuse a permutation table of rows x size entries past ENTRY_BUDGET."""
    if rows * size > ENTRY_BUDGET:
        raise CapacityError(rows * size, ENTRY_BUDGET, what="permutation table entries")


def build_units(n: int) -> PermutationAction:
    """(Z/nZ)^x acting on Z/nZ by multiplication, as GL_1(Z/nZ)."""
    return replace(build_glm(n, 1), descriptor=f"units:{n}")


def build_semidirect(n: int) -> PermutationAction:
    """Pairs (b, d) with d a unit, acting on (i, j) by (b + i*d, j*d); point
    index = i*n + j.

    (b, d) fixes (i, j) when i*(d - 1) = -b and j*(d - 1) = 0 mod n: with
    g = gcd(d - 1, n), the points that the unit d fixes in Z/n, n/g of the
    (b, d) fix g**2 points and n - n/g fix none.  The generators are the
    translation (1, 1) and (0, u) for each generator u of units:n.
    """
    units, hist = build_units(n), Counter()
    for g, c in fixed_point_histogram(units).items():
        hist[0] += c * (n - n // g)
        hist[g * g] += c * (n // g)

    def generator_rows() -> np.ndarray:
        _check_table(len(units.generators) + 1, n * n)
        i, j = np.divmod(np.arange(n * n), n)
        rows = [(i + 1) % n * n + j] + [u[i] * n + u[j] for u in units.generators.astype(np.int64)]
        return np.stack(rows).astype(_perm_dtype(n * n))

    return PermutationAction(
        size=n * n,
        group_order=n * units.group_order,
        generator_rows=generator_rows,
        descriptor=f"semidirect:{n}",
        histogram={m: c for m, c in sorted(hist.items()) if c},
    )


def build_quad_units(n: int, d: int) -> PermutationAction:
    """(O_K/nO_K)^x acting on O_K/nO_K by multiplication.

    Multiplication by u = a + b*omega is the matrix [[a, s*b], [b, a + t*b]]
    on the basis (1, omega); _list_matrices keeps those of the units, in
    (a, b) order, |(O_K/n)^x| of them (quad_unit_order).  The point
    x + y*omega has index x + y*n, as for glm:n,2.  The generator rows are
    those _generating_rows walks the units for.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec, descriptor = QuadOrderSpec(d), f"quad:{n},{d}"

    def entries(digits: list) -> list:
        a, b = digits
        return [a, spec.s * b % n, b, (a + spec.t * b) % n]

    units = _list_matrices(n, 2, 2, entries, quad_unit_order(n, spec), descriptor)
    gens = lambda: _generating_rows(units, n, descriptor)
    return PermutationAction(n * n, len(units), gens, descriptor, matrices=units, modulus=n)


def _apply_matrices(mats: np.ndarray, n: int) -> np.ndarray:
    """Map each matrix of a (k, m, m) stack to the permutation it induces on
    (Z/nZ)**m, where vector v has index sum v_i * n**i.

    The int64 work takes a block of about 32 * _MATRIX_CHUNK images a step,
    whatever n**m is; only the rows, of _perm_dtype, are whole."""
    m, images = mats.shape[1], 32 * _MATRIX_CHUNK
    size = n**m
    _check_table(len(mats), size)
    weights = (n ** np.arange(m, dtype=np.int64)).reshape(1, m, 1)
    perms = np.empty((len(mats), size), dtype=_perm_dtype(size))
    chunk = max(1, images // size)
    for start in range(0, size, images):
        points = np.arange(start, min(start + images, size), dtype=np.int64)
        points = np.stack([points // n**i % n for i in range(m)])  # column j is vector start + j
        for lo in range(0, len(mats), chunk):
            block = perms[lo : lo + chunk, start : start + images]
            block[:] = (np.matmul(mats[lo : lo + chunk], points) % n * weights).sum(axis=1)
    return perms


def _generating_rows(stack: np.ndarray, n: int, descriptor: str) -> np.ndarray:
    """Permutation rows of a small generating set of the group that stack lists.

    The stack lists a commutative group of m x m matrices mod n in which g
    is determined by the point g e_1 (units and quad: u sends 1 to u), so a
    subgroup H is the mask of the points H e_1, and the row of g maps that
    of C e_1 to that of C g e_1.  Scanned in order, an element whose point
    lies outside H is kept, its row built, and H grown to <H, g> by
    doubling: with C the cosets H g^i for i < s, C and C g^s hold those for
    i < 2s, until C g^s adds nothing.  So at most log2(order) are kept, in
    one table checked against ENTRY_BUDGET before each row.  A walk that
    reaches more points than the stack has elements raises ArithmeticError.
    """
    m, size = stack.shape[1], n ** stack.shape[1]
    points = stack[:, 0, 0] if m == 1 else stack[:, 0, 0] + stack[:, 1, 0].astype(np.int32) * n
    inside, rows, i = np.zeros(size, dtype=bool), [], 0
    inside[1 % n] = True
    while i < len(points):
        i += int(np.argmin(inside[points[i:]]))  # the first element outside H
        if inside[points[i]]:
            break
        _check_table(len(rows) + 1, size)
        rows.append(step := _apply_matrices(stack[i : i + 1], n)[0])
        while not inside[images := step[inside]].all():
            inside[images] = True
            step = step[step]
        i += 1
    if np.count_nonzero(inside) > len(stack):
        raise ArithmeticError(f"{descriptor}: products of its elements leave its stack, not a group")
    table = np.empty((len(rows), size), dtype=_perm_dtype(size))
    for j in range(len(rows)):  # drop each row as it is copied, so none exists twice
        table[j], rows[j] = rows[j], None
    return table


def _glm_generator_matrices(n: int, m: int) -> np.ndarray:
    """Elementary transvections plus diag(u, 1, ..., 1), u over the
    generators of units:n (the images of 1), as matrices mod n: these
    generate GL_m(Z/nZ), since elimination works at each prime power."""
    gens = [np.diag([u] + [1] * (m - 1)) for u in build_units(n).generators[:, 1 % n].tolist()]
    for i, j in permutations(range(m), 2):
        gens.append(np.eye(m, dtype=np.int64))
        gens[-1][i, j] = 1
    return np.array(gens, dtype=np.int64) % n


def build_glm(n: int, m: int) -> PermutationAction:
    """GL_m(Z/nZ) acting on (Z/nZ)**m; vector index = sum v_i * n**i.

    Past the listing rule of the module docstring only the generators are
    kept, made when first read.  m = 1 always lists its elements, once its
    n candidates pass ELEMENT_BUDGET, and walks them (_generating_rows).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1 or m > 4:
        raise ValueError("matrix dimension must be between 1 and 4")
    order, size = glm_order(n, m), n**m
    listed = m == 1 or (order <= ELEMENT_BUDGET and order * size <= ENTRY_BUDGET)
    if not listed and size > orbit_oracle.TUPLE_BUDGET:
        raise CapacityError(
            size, orbit_oracle.TUPLE_BUDGET, what="points for the orbit oracle to label"
        )
    elements, descriptor = _enumerate_glm_matrices(n, m) if listed else None, f"glm:{n},{m}"
    if m == 1:
        gens = lambda: _generating_rows(elements, n, descriptor)
    else:
        gens = lambda: _apply_matrices(_glm_generator_matrices(n, m), n)
    return PermutationAction(size, order, gens, descriptor, matrices=elements, modulus=n)


def _enumerate_glm_matrices(n: int, m: int) -> np.ndarray:
    """All invertible m x m matrices mod n, entry-lexicographic: the digits are the entries."""
    return _list_matrices(n, m, m * m, lambda digits: digits, glm_order(n, m), f"glm:{n},{m}")


def _list_matrices(
    n: int, m: int, width: int, entries_of: Callable[[list], list], order: int, descriptor: str
) -> np.ndarray:
    """The invertible m x m matrices mod n that entries_of gives the
    width-digit base-n numbers, in ascending order of those numbers.

    entries_of maps the width digit columns, int32 arrays that broadcast
    together, to the m*m entries in [0, n) of their matrices, row by row.
    A _lex_blocks block is valued in one broadcast step: a matrix is kept
    when its det mod n (_det_mod, int32) is a unit.  The kept candidates
    must fill a stack of _perm_dtype(n) made once at order rows (else
    ArithmeticError); more than ELEMENT_BUDGET candidates, n**width, raise
    CapacityError first.
    """
    if n**width > ELEMENT_BUDGET:
        raise CapacityError(n**width, ELEMENT_BUDGET, what="candidate matrices")
    blocks, trailing = _lex_blocks(n, width)
    unit = np.ones(n, dtype=bool)  # r is a unit mod n when no prime p | n divides it
    for p, _ in factorize(n):
        unit[::p] = False
    stack, filled = np.empty((order, m * m), dtype=_perm_dtype(n)), 0
    for leading in blocks:
        entries = entries_of([*leading[:, :, None], *trailing])
        det = _det_mod([entries[i * m : (i + 1) * m] for i in range(m)], n)
        rows, cols = np.nonzero(unit[det].reshape(leading.shape[1], trailing.shape[1]))
        if filled + len(rows) <= order:
            for j, column in enumerate(entries_of([*leading[:, rows], *trailing[:, cols]])):
                stack[filled : filled + len(rows), j] = column
        filled += len(rows)
    if filled != order:
        raise ArithmeticError(f"{descriptor} lists {filled} elements, not its order {order}")
    return stack.reshape(-1, m, m)


def _lex_blocks(n: int, width: int) -> tuple[Iterator[np.ndarray], np.ndarray]:
    """The width-digit base-n numbers in ascending order, at most
    _MATRIX_CHUNK at a time.

    Returns (blocks, trailing), int32, one digit per row, most significant
    first: trailing holds every value of the last _trailing_digits, and
    blocks yields runs of values of the leading digits (either is one empty
    column when it has no digit); a block column stands for itself followed
    by each of trailing.
    """
    t = _trailing_digits(n, width, _MATRIX_CHUNK)
    trailing = np.indices((n,) * t, dtype=np.int32).reshape(t, n**t)
    if t == width:
        return iter([np.empty((0, 1), dtype=np.int32)]), trailing
    powers = n ** np.arange(width - t - 1, -1, -1, dtype=np.int32)[:, None]
    total, step = n ** (width - t), max(1, _MATRIX_CHUNK // n**t)
    lead = (np.arange(lo, min(lo + step, total), dtype=np.int32) for lo in range(0, total, step))
    return (values // powers % n for values in lead), trailing


def _det_mod(rows: list, n: int):
    """Determinant mod n of the matrix whose (i, j) entry is rows[i][j], integer
    arrays in [0, n) that broadcast together: the expansion along the first
    row, reduced mod n at each level, keeps every value below m * n**2."""
    m = len(rows)
    if m == 1:
        return rows[0][0] % n
    if m == 2:
        return (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % n
    total = 0
    for j in range(m):
        term = rows[0][j] * _det_mod([row[:j] + row[j + 1 :] for row in rows[1:]], n)
        total = total - term if j % 2 else total + term
    return total % n


def build_gl2(ell: int) -> PermutationAction:
    if not is_prime(ell):
        raise ValueError("gl2 actions are indexed by a prime")
    return replace(build_glm(ell, 2), descriptor=f"gl2:{ell}")


def build_action(descriptor: str) -> PermutationAction:
    """Build from a descriptor string: units:4, glm:12,2, semidirect:6,
    quad:5,-1, gl2:7."""
    kind, _, arg = descriptor.partition(":")
    builders = {
        ("units", 1): build_units,
        ("semidirect", 1): build_semidirect,
        ("quad", 2): build_quad_units,
        ("glm", 2): build_glm,
        ("gl2", 1): build_gl2,
    }
    try:
        nums = [int(v) for v in arg.split(",")]
        builder = builders[kind, len(nums)]
    except (KeyError, ValueError):
        raise ValueError(f"bad action descriptor {descriptor!r}")
    return builder(*nums)


# ---------------------------------------------------------------------------
# Burnside evaluation.

def fixed_point_histogram(action: PermutationAction) -> dict[int, int]:
    """m -> number of group elements fixing exactly m points, m ascending.

    An action built with its histogram returns it; a matrix action counts
    the fixed points of g as |ker(g - I)| (_kernel_sizes) once, on chunks
    of 4 * _MATRIX_CHUNK // m**2 elements, whose minors take about what
    2 x 2 ones would, copied entry-major less 1 on their diagonal rows;
    value_counts counts the sizes.  A generator-only action raises ValueError.
    """
    if action.histogram is None:
        if action.matrices is None:
            raise ValueError(
                f"action {action.descriptor} of order {action.group_order} keeps only its "
                "generators: its elements were not materialized, so it has no fixed-point histogram"
            )
        mats, n, hist = action.matrices, action.modulus, Counter()
        m, dtype = mats.shape[1], _minor_plan(mats.shape[1], n)[0]
        chunk = _MATRIX_CHUNK * 4 // max(m, 2) ** 2
        for lo in range(0, len(mats), chunk):
            g_minus_i = mats[lo : lo + chunk].reshape(-1, m * m).T.astype(dtype, order="C")
            g_minus_i[:: m + 1] -= 1
            hist.update(value_counts(_kernel_sizes(g_minus_i.T.reshape(-1, m, m), n)))
        action.histogram = dict(sorted(hist.items()))
    return dict(action.histogram)


@lru_cache(maxsize=1)
def _minor_plan(m: int, n: int) -> tuple:
    """(dtype, prime, _laplace_tables(m)) for m x m stacks mod n.  No minor
    of entries in (-n, n) passes m! (n-1)**m in absolute value, so the work
    is int32 while that and n fit, else int64."""
    bound = factorial(m) * (n - 1) ** m
    if bound >= 2**63:
        raise OverflowError(f"{m} x {m} minors of matrices mod {n} can reach {bound}, past int64")
    return np.int32 if max(bound, n) < 2**31 else np.int64, is_prime(n), _laplace_tables(m)


@lru_cache(maxsize=4)
def _laplace_tables(m: int) -> list[np.ndarray]:
    """tables[i - 2] builds level i, the i x i minors on rows R and columns C in
    combinations order: row j pairs entry (R[0], C[j]) with the minor on R[1:]
    and C less C[j], last j first, so t_0 - (t_1 - ...) expands along R[0]."""
    tables, at = [], {((r,), (c,)): r * m + c for r in range(m) for c in range(m)}
    for i in range(2, m + 1):
        keys = [(r, c) for r in combinations(range(m), i) for c in combinations(range(m), i)]
        pairs = [
            [(r[0] * m + c[j], at[r[1:], c[:j] + c[j + 1 :]]) for r, c in keys]
            for j in reversed(range(i))
        ]
        tables.append(np.array(pairs).transpose(0, 2, 1))
        at = dict(zip(keys, range(len(keys))))
    return tables


def _kernel_sizes(mats: np.ndarray, n: int) -> np.ndarray:
    """|ker(A mod n)| on (Z/nZ)**m for each A of an (L, m, m) integer stack.

    A is read entry-major, row r*m + c of an (m*m, L) array holding entry
    (r, c), lifted to [0, n) only if an entry lies outside (-n, n), and its
    minors are built a level at a time (_laplace_tables).  At a prime n the
    kernel has n**(m - rank) vectors, rank counting the levels that hold a
    minor x != x // n * n; otherwise prod gcd(s_i, n), over the invariant
    factors s_i = D_i / D_(i-1) of A, D_i the gcd of level i and D_0 = 1.
    """
    m, count = mats.shape[1], len(mats)
    dtype, prime, tables = _minor_plan(m, n)
    if count and (mats.min() <= -n or mats.max() >= n):
        mats = mats.astype(np.int64) % n
    level = entries = mats.reshape(count, m * m).T.astype(dtype, order="C", copy=False)
    rank, sizes, previous = 0, 1, np.ones(count, dtype)
    for i in range(m):
        if i:
            below, level = level, 0
            for entry, minor in tables[i - 1]:
                term = entries.take(entry, axis=0)
                term *= below.take(minor, axis=0)
                level = np.subtract(term, level, out=term)
        if prime:  # |entries| < n: only a larger minor can be a nonzero multiple of n
            multiple = level // n if i else 0
            multiple *= n
            nonzero = level != multiple
            for row in nonzero[1:]:
                nonzero[0] |= row
            rank += nonzero[0]
        else:
            d = np.gcd(level[0], level[-1])
            for row in level[1:-1]:
                np.gcd(d, row, out=d)
            sizes *= np.gcd(d // np.maximum(previous, 1), n)  # D_(i-1) = 0 forces D_i = 0
            previous = d
    return (n ** np.arange(m, -1, -1, dtype=dtype)).take(rank) if prime else sizes


def burnside_moment(action: PermutationAction, k: int) -> int:
    """Number of orbits on k-tuples: the histogram average (1/|G|) sum
    chi(g)**k, its division asserted exact, for a materialized action, and
    a direct count on the tuple space for a generator-only one."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if action.materialized:
        hist = fixed_point_histogram(action)
        total = sum(count * m**k for m, count in hist.items())
        orbits, rem = divmod(total, action.group_order)
        if rem:
            raise ArithmeticError(
                f"non-integral orbit count for {action.descriptor}: "
                f"{total}/{action.group_order} (element list is not a group?)"
            )
        return orbits
    return orbit_count_oracle(action, k)
