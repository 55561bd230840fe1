"""Finite group actions and exact orbit counting.

The k-th moment of an action is the number of orbits on k-tuples.  For a
materialized action it is evaluated through the fixed-point histogram
(average of chi(g)**k over the group); actions too large to materialize
keep a generating set and fall back to direct orbit counting on the tuple
space, which computes the same number from its definition.  A matrix
action keeps its element matrices and reads its histogram off the
invariant factors of g - I; semidirect keeps only its histogram, in
closed form.  No action keeps a permutation table: perms builds one for
a matrix action on request, and the permutation rows of the generators,
which only the orbit oracle reads, are built when first read.  units and
quad list every element, and their generators come from a small
generating subset of that list (_generating_subset).

Three budgets bound memory, each checked once, before what it bounds is
allocated: ELEMENT_BUDGET the candidates a build scans (n for units and
semidirect, n**2 for quad in build_quad_units, n**(m*m) in
_enumerate_glm_matrices), ENTRY_BUDGET the entries of every permutation
table (_check_table), and TUPLE_BUDGET the tuples the orbit oracle labels
(orbit_count_oracle), so build_glm refuses a generator-only action with
more points than that.  glm with m >= 2 lists its elements only when
order <= ELEMENT_BUDGET and order * size <= ENTRY_BUDGET; that second
clause bounds no table, since none is kept, and is a cost policy that
keeps the histogram of a listed action cheap.  units (glm with m = 1)
and quad always list theirs.
"""

from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import combinations, permutations
from math import factorial

import numpy as np

from .core_arith import CapacityError, factorize, is_prime
from .residue_algebra import QuadOrderSpec, glm_order, quad_unit_order

ELEMENT_BUDGET = 10**7
ENTRY_BUDGET = 6 * 10**7
TUPLE_BUDGET = 10**7
# matrices per vectorized step when enumerating or valuing a stack
_MATRIX_CHUNK = 1 << 15


def _perm_dtype(size: int):
    return np.uint8 if size <= 2**8 else np.uint16 if size <= 2**16 else np.int64


@dataclass
class PermutationAction:
    """A finite group acting on {0, ..., size-1}.

    A materialized group keeps either matrices, the (order, m, m) stack of
    its elements acting on (Z/modulus)**m, or histogram, its fixed-point
    histogram; fixed_point_histogram fills histogram in for a matrix
    action.  An action that keeps neither has only its generating set.
    generator_rows() returns one permutation row per generator, and the
    rows always generate the full group; generators calls it once, when
    first read.
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

    (b, d) fixes (i, j) when i*(d - 1) = -b and j*(d - 1) = 0 mod n.  With
    g = gcd(d - 1, n), that has g**2 solutions when g | b and none
    otherwise, so each unit d gives n/g elements fixing g**2 points and
    n - n/g fixing none.  The histogram is read off the unit scan, and the
    generators are (1, 1) and (0, u) for u in a generating subset of the
    units.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    units = _enumerate_glm_matrices(n, 1)
    hist = Counter()
    gs, counts = np.unique(np.gcd(units.astype(np.int64) - 1, n), return_counts=True)
    for g, c in zip(gs.tolist(), counts.tolist()):
        hist[0] += c * (n - n // g)
        hist[g * g] += c * (n // g)

    def generator_rows() -> np.ndarray:
        gens = [(1 % n, 1 % n)] + [
            (0, int(u)) for u in units[_generating_subset(units, n, f"units:{n}"), 0, 0]
        ]
        _check_table(len(gens), n * n)
        i, j = np.divmod(np.arange(n * n), n)
        rows = [((b + i * d) % n) * n + (j * d) % n for b, d in gens]
        return np.stack(rows).astype(_perm_dtype(n * n))

    return PermutationAction(
        size=n * n,
        group_order=n * len(units),
        generator_rows=generator_rows,
        descriptor=f"semidirect:{n}",
        histogram={m: c for m, c in sorted(hist.items()) if c},
    )


def build_quad_units(n: int, d: int) -> PermutationAction:
    """(O_K/nO_K)^x acting on O_K/nO_K by multiplication.

    Multiplication by u = a + b*omega is the matrix [[a, s*b], [b, a + t*b]]
    on the basis (1, omega), and u is a unit iff gcd(det, n) = 1.  The point
    x + y*omega has index x + y*n, as for glm:n,2; units are ordered by (a, b).
    The unit stack is allocated once, |(O_K/n)^x| long (quad_unit_order),
    and filled as the candidates (a, b) are scanned 2**15 at a time.
    Every element is kept; the generators are a small generating subset.
    Orbit counts do not depend on how points or elements are numbered.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n * n > ELEMENT_BUDGET:
        raise CapacityError(n * n, ELEMENT_BUDGET, what="candidate matrices")
    spec = QuadOrderSpec(d)

    def blocks():
        for lo in range(0, n * n, _MATRIX_CHUNK):
            a, b = np.divmod(np.arange(lo, min(lo + _MATRIX_CHUNK, n * n), dtype=np.int64), n)
            entries = [a, spec.s * b % n, b, (a + spec.t * b) % n]
            unit = np.gcd(_det_mod([entries[:2], entries[2:]], n), n) == 1
            yield np.stack([e[unit] for e in entries], axis=1)

    # entries lie in [0, n), so the units are stored as glm stores its elements
    descriptor, dtype = f"quad:{n},{d}", _perm_dtype(n)
    units = _fill_stack(blocks(), quad_unit_order(n, spec), 4, dtype, descriptor).reshape(-1, 2, 2)
    gens = lambda: _apply_matrices(units[_generating_subset(units, n, descriptor)], n)
    return PermutationAction(n * n, len(units), gens, descriptor, matrices=units, modulus=n)


def _fill_stack(blocks: Iterator[np.ndarray], order: int, width: int, dtype, descriptor: str) -> np.ndarray:
    """The rows of blocks in one (order, width) stack; ArithmeticError unless they fill it."""
    stack, filled = np.empty((order, width), dtype=dtype), 0
    for block in blocks:
        if filled + len(block) <= order:
            stack[filled : filled + len(block)] = block
        filled += len(block)
    if filled != order:
        raise ArithmeticError(f"{descriptor} lists {filled} elements, not its order {order}")
    return stack


def _apply_matrices(mats: np.ndarray, n: int) -> np.ndarray:
    """Map each matrix of a (k, m, m) stack to the permutation it induces on
    (Z/nZ)**m, where vector v has index sum v_i * n**i."""
    m = mats.shape[1]
    size = n**m
    _check_table(len(mats), size)
    idx = np.arange(size, dtype=np.int64)
    points = np.stack([(idx // n**i) % n for i in range(m)])  # column j is vector j
    weights = (n ** np.arange(m, dtype=np.int64)).reshape(1, m, 1)
    perms = np.empty((len(mats), size), dtype=_perm_dtype(size))
    # about 2**18 images per chunk: the int64 temporaries stay a few MB
    chunk = max(1, 2**18 // size)
    for lo in range(0, len(mats), chunk):
        images = np.matmul(mats[lo : lo + chunk], points) % n  # (chunk, m, size)
        perms[lo : lo + chunk] = (images * weights).sum(axis=1)
    return perms


def _generating_subset(stack: np.ndarray, n: int, descriptor: str) -> np.ndarray:
    """Indices, ascending, of a small generating set of the group that stack lists.

    The stack holds every element of a commutative group of m x m matrices
    mod n.  Its elements are scanned in order, and one that lies outside
    the subgroup H generated so far is kept.  H then grows to <H, g>, the
    union of the cosets H g^i, by doubling: with C the cosets for i < s,
    C and C g^s hold those for i < 2s, until C g^s adds nothing.  Each kept
    element at least doubles H, so at most log2(order) are kept.  Every
    product is looked up in the stack by its entries, and one that is
    missing raises ArithmeticError: the stack is then not a group.
    """
    m = stack.shape[1]
    weights = n ** np.arange(m * m, dtype=np.int64)
    mats = stack.astype(np.int64)
    keys = mats.reshape(len(mats), -1) @ weights
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]

    def index_of(products: np.ndarray) -> np.ndarray:
        wanted = products.reshape(len(products), -1) % n @ weights
        pos = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
        if not np.array_equal(sorted_keys[pos], wanted):
            raise ArithmeticError(
                f"{descriptor}: a product of its elements is missing from its element "
                "stack, which is therefore not a group"
            )
        return by_key[pos]

    inside = np.zeros(len(mats), dtype=bool)
    inside[index_of(np.eye(m, dtype=np.int64)[None])] = True
    kept = []
    nxt = 0
    while nxt < len(mats):
        nxt += int(np.argmin(inside[nxt:]))  # the first element outside H
        if inside[nxt]:
            break
        kept.append(nxt)
        step = mats[nxt]
        while True:
            images = index_of(mats[inside] @ step)
            fresh = images[~inside[images]]
            if not len(fresh):
                break
            inside[fresh] = True
            step = step @ step % n
        nxt += 1
    return np.array(kept, dtype=np.int64)


def _glm_generator_matrices(n: int, m: int) -> np.ndarray:
    """Elementary transvections plus scalings diag(u, 1, ..., 1) of the first
    coordinate, as a stack of matrices mod n.

    These generate GL_m(Z/nZ): Gaussian elimination works locally at each
    prime power, and the determinant is adjusted by the diagonal units.
    The u run over a generating set of (Z/nZ)^x, not over every unit.
    """
    units = _enumerate_glm_matrices(n, 1)
    scalings = units[_generating_subset(units, n, f"units:{n}"), 0, 0].tolist()
    gens = [np.diag([u] + [1] * (m - 1)) for u in scalings]
    for i, j in permutations(range(m), 2):
        gens.append(np.eye(m, dtype=np.int64))
        gens[-1][i, j] = 1
    # GL_1 of Z/1 or Z/2 is trivial and has no generators
    return np.array(gens, dtype=np.int64).reshape(-1, m, m) % n


def build_glm(n: int, m: int) -> PermutationAction:
    """GL_m(Z/nZ) acting on (Z/nZ)**m; vector index = sum v_i * n**i.

    Past the listing rule of the module docstring only the generators are
    kept, and their matrices are made when they are first read.  m = 1
    always lists its elements: its n candidates passed ELEMENT_BUDGET.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1 or m > 4:
        raise ValueError("matrix dimension must be between 1 and 4")
    order, size = glm_order(n, m), n**m
    listed = m == 1 or (order <= ELEMENT_BUDGET and order * size <= ENTRY_BUDGET)
    if not listed and size > TUPLE_BUDGET:
        raise CapacityError(size, TUPLE_BUDGET, what="points for the orbit oracle to label")
    elements = _enumerate_glm_matrices(n, m) if listed else None
    gens = lambda: _apply_matrices(_glm_generator_matrices(n, m), n)
    return PermutationAction(size, order, gens, f"glm:{n},{m}", matrices=elements, modulus=n)


def _enumerate_glm_matrices(n: int, m: int) -> np.ndarray:
    """All invertible m x m matrices mod n, entry-lexicographic, about 2**15 candidates at a time.

    A matrix is invertible mod n exactly when its reduction mod each prime
    p | n is, so each p has a table of flags over the matrices mod p
    (_glm_flags).  Candidates come in _lex_blocks, and the flag index of
    each is an np.add.outer sum of the offset of its leading entries and
    that of its trailing ones.  Entries lie in [0, n), so the invertible
    ones fill a stack of the dtype of a permutation of n points, allocated
    once at |GL_m(Z/n)| rows.  More than ELEMENT_BUDGET candidates,
    n**(m*m), raise CapacityError before any is made.
    """
    if n ** (m * m) > ELEMENT_BUDGET:
        raise CapacityError(n ** (m * m), ELEMENT_BUDGET, what="candidate matrices")
    dtype = _perm_dtype(n)
    leading_blocks, trailing = _lex_blocks(n, m * m)
    trailing = trailing.astype(dtype)
    flag_tables = [(p, _glm_flags(p, m), _digits_index(trailing % p, p)) for p, _ in factorize(n)]

    def blocks():
        for leading in leading_blocks:
            leading = leading.astype(dtype)
            invertible = np.ones((len(leading), len(trailing)), dtype=bool)
            for p, flags, trailing_index in flag_tables:
                offsets = _digits_index(leading % p, p) * p ** trailing.shape[1]
                invertible &= flags[np.add.outer(offsets, trailing_index)]
            rows, cols = np.nonzero(invertible)
            yield np.concatenate([leading[rows], trailing[cols]], axis=1)

    return _fill_stack(blocks(), glm_order(n, m), m * m, dtype, f"glm:{n},{m}").reshape(-1, m, m)


def _glm_flags(p: int, m: int) -> np.ndarray:
    """flags[i] says whether the m x m matrix mod p whose entries are the base-p digits of i is invertible."""
    blocks, trailing = _lex_blocks(p, m * m)
    flags = []
    for leading in blocks:
        # columns of both broadcast to the (len(leading), len(trailing)) block
        entries = [*(leading[:, e, None] for e in range(leading.shape[1])), *trailing.T]
        det = _det_mod([entries[i * m : (i + 1) * m] for i in range(m)], p)
        flags.append((det != 0).ravel())
    return np.concatenate(flags)


def _lex_blocks(n: int, width: int) -> tuple[Iterator[np.ndarray], np.ndarray]:
    """The width-digit base-n numbers in ascending order, about 2**15 at a time.

    Returns (blocks, trailing).  trailing holds every value of the last t
    digits, the most with n**t <= 2**15 (one empty row when n > 2**15);
    blocks yields runs of values of the leading digits, each made from
    np.arange when reached, and each row of a block stands for itself
    followed by each row of trailing.  Digits are int64, most significant first.
    """
    t = 0
    while t < width and n ** (t + 1) <= _MATRIX_CHUNK:
        t += 1
    trailing = np.indices((n,) * t).reshape(t, n**t).T
    powers = n ** np.arange(width - t - 1, -1, -1, dtype=np.int64)
    total, step = n ** (width - t), max(1, _MATRIX_CHUNK // n**t)
    lead = (np.arange(lo, min(lo + step, total), dtype=np.int64) for lo in range(0, total, step))
    return (values[:, None] // powers % n for values in lead), trailing


def _digits_index(digits: np.ndarray, base: int) -> np.ndarray:
    """Each row of base digits, most significant first, read as a number."""
    return digits @ base ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)


def _det_mod(rows: list, n: int):
    """Determinant mod n of the square matrix whose (i, j) entry is rows[i][j].

    Entries are int64 arrays in [0, n) that broadcast together.  Cofactor
    expansion along the first row, reduced mod n at each level, keeps every
    value below m * n**2.
    """
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
    try:
        nums = [int(v) for v in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad action descriptor {descriptor!r}")
    if kind == "units" and len(nums) == 1:
        return build_units(nums[0])
    if kind == "semidirect" and len(nums) == 1:
        return build_semidirect(nums[0])
    if kind == "quad" and len(nums) == 2:
        return build_quad_units(nums[0], nums[1])
    if kind == "glm" and len(nums) == 2:
        return build_glm(nums[0], nums[1])
    if kind == "gl2" and len(nums) == 1:
        return build_gl2(nums[0])
    raise ValueError(f"bad action descriptor {descriptor!r}")


# ---------------------------------------------------------------------------
# Burnside evaluation.

def fixed_point_histogram(action: PermutationAction) -> dict[int, int]:
    """m -> number of group elements fixing exactly m points, m ascending.

    An action built with its histogram returns it; a matrix action counts
    the fixed points of g as |ker(g - I)| (_kernel_sizes, with g - I in the
    narrowest signed dtype that holds n), 2**15 elements at a time, once per
    action: each chunk's sizes, few since they divide n**m, are sorted in
    place and counted by runs.  A generator-only action raises ValueError.
    """
    if action.histogram is None:
        if action.matrices is None:
            raise ValueError(
                f"action {action.descriptor} of order {action.group_order} keeps only its "
                "generators: its elements were not materialized, so it has no fixed-point histogram"
            )
        mats, n = action.matrices, action.modulus
        width = np.min_scalar_type(-n)
        identity = np.eye(mats.shape[1], dtype=width)
        hist = Counter()
        for lo in range(0, len(mats), _MATRIX_CHUNK):
            g_minus_i = np.subtract(mats[lo : lo + _MATRIX_CHUNK], identity, dtype=width)
            fixed = _kernel_sizes(g_minus_i, n)
            fixed.sort()
            ends = np.append(np.flatnonzero(fixed[1:] != fixed[:-1]), len(fixed) - 1)
            hist.update(dict(zip(fixed[ends].tolist(), np.diff(ends, prepend=-1).tolist())))
        action.histogram = dict(sorted(hist.items()))
    return dict(action.histogram)


def _kernel_sizes(mats: np.ndarray, n: int) -> np.ndarray:
    """|ker(A mod n)| on (Z/nZ)**m for each A of an (L, m, m) integer stack.

    Over Z, A = U diag(s_1, ..., s_m) V with U and V unimodular, so its
    kernel mod n is that of the Smith form: prod gcd(s_i, n) vectors.  The
    invariant factors are s_i = D_i / D_(i-1), where D_i is the gcd of the
    i x i minors and D_0 = 1; D_i = 0 gives s_i = 0, and gcd(0, n) = n.
    Entries are lifted to [0, n), and each i x i minor is expanded along
    its first row from the (i-1) x (i-1) minors and folded into D_i at
    once.  No minor or partial sum passes m! (n-1)**m in absolute value:
    the work and the sizes are int32 while that and n fit, else int64.
    """
    m = mats.shape[1]
    bound = factorial(m) * (n - 1) ** m
    if bound >= 2**63:
        raise OverflowError(f"{m} x {m} minors of matrices mod {n} can reach {bound}, past int64")
    dtype = np.int32 if max(bound, n) < 2**31 else np.int64
    a = np.remainder(mats, n, dtype=np.promote_types(mats.dtype, dtype)).astype(dtype, copy=False)
    minors, previous, sizes = {((), ()): 1}, np.ones(len(a), dtype=dtype), 1
    for i in range(1, m + 1):
        subsets = list(combinations(range(m), i))
        larger, d = {}, np.zeros(len(a), dtype=dtype)
        for rows in subsets:
            for cols in subsets:
                minor = 0
                for j, c in enumerate(cols):
                    term = a[:, rows[0], c] * minors[rows[1:], cols[:j] + cols[j + 1 :]]
                    minor = minor - term if j % 2 else minor + term
                larger[rows, cols] = minor
                np.gcd(d, minor, out=d)
        minors = larger
        # D_(i-1) = 0 forces D_i = 0 (rank < i - 1), and then s_i = 0
        s_i = np.where(d == 0, 0, d // np.maximum(previous, 1))
        sizes = sizes * np.gcd(s_i, n)
        previous = d
    return sizes


def burnside_moment(action: PermutationAction, k: int) -> int:
    """Number of orbits on k-tuples.

    Materialized actions use the histogram average (1/|G|) sum chi(g)**k,
    asserting the division is exact; generator-only actions count orbits
    on the tuple space directly.
    """
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


def _orbit_labels(generators: np.ndarray, size: int, k: int) -> np.ndarray:
    """For every k-tuple index (digit i has weight size**i), the least index
    in its orbit under the group the generator rows generate.

    Min-label propagation with pointer jumping, as in Shiloach-Vishkin: each
    round lowers every label to the label of its image under each generator,
    then replaces labels by the labels of the labels until that is stable.
    labels[t] <= t and labels[t] lies in the orbit of t throughout, so labels
    only fall, and a round that leaves their sum unchanged changed nothing.
    At the fixed point labels[t] <= labels[g(t)] for every generator g;
    along a cycle of g that forces equality, so labels are constant on
    orbits.  Tuple images are recomputed per generator, so memory stays a
    few arrays of size**k, of int32 while every index fits.
    """
    dtype = np.int32 if size**k < 2**31 else np.int64
    labels = np.arange(size**k, dtype=dtype)
    # axis j of the outer sum carries digit k-1-j, so ravel() yields tuple order
    weights = [size**i for i in reversed(range(k))]
    while True:
        before = int(labels.sum())
        for g in generators:
            g_wide = g.astype(dtype)
            image = reduce(np.add.outer, [g_wide * w for w in weights]).ravel()
            np.minimum(labels, labels[image], out=labels)
        while not np.array_equal(labels, jumped := labels[labels]):
            labels = jumped
        if int(labels.sum()) == before:
            return labels


def orbit_count_oracle(action: PermutationAction, k: int) -> int:
    """Count orbits on k-tuples directly, from the generators alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = action.size**k
    if total > TUPLE_BUDGET:
        raise CapacityError(total, TUPLE_BUDGET, what="tuples")
    labels = _orbit_labels(action.generators, action.size, k)
    return int(np.count_nonzero(labels == np.arange(total)))


def orbit_size(action: PermutationAction, point: int) -> int:
    """Size of the orbit of a single point.

    A matrix action marks the images g v mod n of the point's vector v
    under every element matrix; any other action labels the orbits of
    points through its generators.
    """
    if action.matrices is not None:
        mats, n = action.matrices, action.modulus
        weights = n ** np.arange(mats.shape[1], dtype=np.int64)
        vector = point // weights % n
        seen = np.zeros(action.size, dtype=bool)
        for lo in range(0, len(mats), _MATRIX_CHUNK):
            seen[(mats[lo : lo + _MATRIX_CHUNK] @ vector) % n @ weights] = True
        return int(np.count_nonzero(seen))
    labels = _orbit_labels(action.generators, action.size, 1)
    return int(np.count_nonzero(labels == labels[point]))
