"""Finite group actions as explicit permutations, and exact orbit counting.

The k-th moment of an action is the number of orbits on k-tuples.  For a
materialized action it is evaluated through the fixed-point histogram
(average of chi(g)**k over the group); actions too large to materialize
keep a generating set and fall back to direct orbit counting on the tuple
space, which computes the same number from its definition.  A matrix
action reads its histogram off the invariant factors of g - I, so its
element permutation table is only built when something asks for it, and
so are the permutation rows of its generators, which only the orbit
oracle reads.  units and quad list every element, and their generators
are a small generating subset of that list (_generating_subset).
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from math import factorial, gcd

import numpy as np

from .core_arith import CapacityError, factorize, is_prime
from .residue_algebra import QuadOrderSpec, glm_order

DEFAULT_ELEMENT_BUDGET = 10**7
DEFAULT_ENTRY_BUDGET = 6 * 10**7
DEFAULT_TUPLE_BUDGET = 10**7
# matrices per vectorized step when enumerating or valuing a stack
_MATRIX_CHUNK = 1 << 15


def _perm_dtype(size: int):
    if size <= 2**8:
        return np.uint8
    if size <= 2**16:
        return np.uint16
    return np.int64


@dataclass
class PermutationAction:
    """A finite group acting on {0, ..., size-1}.

    A materialized group keeps its element list: table holds one
    permutation row per element, or, for a group of m x m matrices acting
    on (Z/modulus)**m, matrices holds the (order, m, m) element stack and
    table stays None until perms is first read.  An action that keeps
    neither has only its generating set.  The generators rows always
    generate the full group; generator_table holds them, or stays None
    until generators is first read and make_generators builds them.
    """

    size: int
    table: np.ndarray | None
    generator_table: np.ndarray | None
    group_order: int
    descriptor: str = ""
    matrices: np.ndarray | None = None
    modulus: int = 0
    make_generators: Callable[[], np.ndarray] | None = field(default=None, repr=False)
    _histogram: dict[int, int] | None = field(default=None, init=False, repr=False)

    @property
    def materialized(self) -> bool:
        return self.table is not None or self.matrices is not None

    @property
    def perms(self) -> np.ndarray | None:
        """One permutation row per element, built from the matrices on first access."""
        if self.table is None and self.matrices is not None:
            self.table = _apply_matrices(self.matrices, self.modulus)
        return self.table

    @property
    def generators(self) -> np.ndarray:
        """One permutation row per generator, built on first access."""
        if self.generator_table is None:
            self.generator_table = self.make_generators()
        return self.generator_table


def build_units(n: int, **budgets) -> PermutationAction:
    """(Z/nZ)^x acting on Z/nZ by multiplication, as GL_1(Z/nZ).

    The generators are a small generating subset of the units, picked when
    they are first read.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    units = _enumerate_glm_matrices(n, 1)
    return _matrix_action(
        n, units, lambda: units, len(units), f"units:{n}", whole_group=True, **budgets
    )


def build_semidirect(
    n: int,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> PermutationAction:
    """Pairs (b, d) with d a unit, acting on (i, j) by (b + i*d, j*d).

    Row b*phi(n) + t is the pair (b, units[t]); point index = i*n + j.
    The action keeps its whole permutation table, so an order or a table
    over its budget raises CapacityError before anything is allocated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    units = np.array([d for d in range(n) if gcd(d, n) == 1])
    phi = len(units)
    if n * phi > element_budget:
        raise CapacityError(n * phi, element_budget, what="group elements")
    if n * phi * n * n > entry_budget:
        raise CapacityError(n * phi * n * n, entry_budget, what="permutation table entries")
    i_grid, j_grid = np.divmod(np.arange(n * n), n)
    d = units[:, None]
    perms = np.empty((n, phi, n * n), dtype=_perm_dtype(n * n))
    for b in range(n):  # int64 temporaries of one b at a time
        perms[b] = ((b + i_grid * d) % n) * n + (j_grid * d) % n
    perms = perms.reshape(-1, n * n)
    # (1, 1), as units[0] = 1 % n, then every (0, d)
    gens = perms[[(1 % n) * phi, *range(phi)]]
    return PermutationAction(
        size=n * n,
        table=perms,
        generator_table=gens,
        group_order=len(perms),
        descriptor=f"semidirect:{n}",
    )


def build_quad_units(n: int, d: int, **budgets) -> PermutationAction:
    """(O_K/nO_K)^x acting on O_K/nO_K by multiplication.

    Multiplication by u = a + b*omega is the matrix [[a, s*b], [b, a + t*b]]
    on the basis (1, omega), and u is a unit iff gcd(det, n) = 1.  The point
    x + y*omega has index x + y*n, as for glm:n,2; units are ordered by (a, b).
    Orbit counts do not depend on how points or elements are numbered.  The
    generators are a small generating subset of the units, picked when they
    are first read.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = QuadOrderSpec(d)
    a, b = np.divmod(np.arange(n * n, dtype=np.int64), n)
    entries = [[a, spec.s * b % n], [b, (a + spec.t * b) % n]]
    mats = np.stack([*entries[0], *entries[1]], axis=1).reshape(-1, 2, 2)
    units = mats[np.gcd(_det_mod(entries, n), n) == 1]
    descriptor = f"quad:{n},{d}"
    return _matrix_action(
        n, units, lambda: units, len(units), descriptor, whole_group=True, **budgets
    )


def _apply_matrices(mats: np.ndarray, n: int) -> np.ndarray:
    """Map each matrix of a (k, m, m) stack to the permutation it induces on
    (Z/nZ)**m, where vector v has index sum v_i * n**i."""
    m = mats.shape[1]
    size = n**m
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


def _matrix_action(
    n: int,
    generators: np.ndarray,
    elements,
    order: int,
    descriptor: str,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
    whole_group: bool = False,
) -> PermutationAction:
    """A group of m x m matrices mod n acting on (Z/nZ)**m.

    generators is a (g, m, m) stack that generates the group, and elements()
    returns the (order, m, m) stack of every element.  elements() is called
    only when the order and the permutation table fit the budgets, and the
    stack is kept in place of that table; otherwise only the generating set
    is kept and moment evaluation goes through direct orbit counting.  The
    generator table must fit entry_budget, and its rows are built when the
    generators are first read.  whole_group says that generators lists
    every element of a commutative group: the rows are then built for a
    small generating subset of it (_generating_subset), which has at most
    floor(log2(order)) rows, and the check counts that many (at least 1).
    """
    size = n ** generators.shape[1]
    rows = max(1, order.bit_length() - 1) if whole_group else len(generators)
    if rows * size > entry_budget:
        raise CapacityError(rows * size, entry_budget, what="generator table entries")
    fits = order <= element_budget and order * size <= entry_budget

    def make_generators() -> np.ndarray:
        if whole_group:
            return _apply_matrices(generators[_generating_subset(generators, n, descriptor)], n)
        return _apply_matrices(generators, n)

    return PermutationAction(
        size=size,
        table=None,
        generator_table=None,
        group_order=order,
        descriptor=descriptor,
        matrices=elements() if fits else None,
        modulus=n,
        make_generators=make_generators,
    )


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


def _glm_generator_matrices(n: int, m: int) -> list[np.ndarray]:
    """Elementary transvections plus scalings diag(u, 1, ..., 1) of the first coordinate.

    These generate GL_m(Z/nZ): Gaussian elimination works locally at each
    prime power, and the determinant is adjusted by the diagonal units.
    The u run over a generating set of (Z/nZ)^x, not over every unit.
    """
    gens = []
    units = _enumerate_glm_matrices(n, 1)
    for u in units[_generating_subset(units, n, f"units:{n}"), 0, 0]:
        g = np.eye(m, dtype=np.int64)
        g[0, 0] = u
        gens.append(g)
    for i in range(m):
        for j in range(m):
            if i != j:
                g = np.eye(m, dtype=np.int64)
                g[i, j] = 1
                gens.append(g)
    if not gens:
        gens.append(np.eye(m, dtype=np.int64))
    return gens


def build_glm(n: int, m: int, **budgets) -> PermutationAction:
    """GL_m(Z/nZ) acting on (Z/nZ)**m; vector index = sum v_i * n**i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1 or m > 4:
        raise ValueError("matrix dimension must be between 1 and 4")
    gens = np.stack([g % n for g in _glm_generator_matrices(n, m)])
    elements = partial(_enumerate_glm_matrices, n, m)
    return _matrix_action(n, gens, elements, glm_order(n, m), f"glm:{n},{m}", **budgets)


def _enumerate_glm_matrices(n: int, m: int) -> np.ndarray:
    """All invertible m x m matrices mod n, entry-lexicographic, about 2**15 candidates at a time.

    A matrix is invertible mod n exactly when its reduction mod each prime
    p | n is, so each p has a table of flags over the matrices mod p
    (_glm_flags).  Candidates come in _lex_blocks, and the flag index of
    each is an np.add.outer sum of the offset of its leading entries and
    that of its trailing ones.  Entries lie in [0, n), so they are stored in
    the dtype of a permutation of n points.
    """
    dtype = _perm_dtype(n)
    blocks, trailing = _lex_blocks(n, m * m)
    trailing = trailing.astype(dtype)
    flag_tables = [(p, _glm_flags(p, m), _digits_index(trailing % p, p)) for p, _ in factorize(n)]
    kept = []
    for leading in blocks:
        leading = leading.astype(dtype)
        invertible = np.ones((len(leading), len(trailing)), dtype=bool)
        for p, flags, trailing_index in flag_tables:
            offsets = _digits_index(leading % p, p) * p ** trailing.shape[1]
            invertible &= flags[np.add.outer(offsets, trailing_index)]
        rows, cols = np.nonzero(invertible)
        kept.append(np.concatenate([leading[rows], trailing[cols]], axis=1))
    return np.concatenate(kept).reshape(-1, m, m)


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


def _lex_blocks(n: int, width: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The width-digit base-n numbers in ascending order, about 2**15 at a time.

    Returns (blocks, trailing).  trailing holds every value of the last t
    digits, the most with n**t <= 2**15 (at least one digit); each block
    holds a run of values of the leading digits, and stands for each of its
    rows followed by each row of trailing.  Digits are int64, most
    significant first.
    """
    t = 1
    while t < width and n ** (t + 1) <= _MATRIX_CHUNK:
        t += 1
    trailing = np.indices((n,) * t).reshape(t, n**t).T
    leading = np.indices((n,) * (width - t)).reshape(width - t, n ** (width - t)).T
    per_block = max(1, _MATRIX_CHUNK // n**t)
    return [leading[lo : lo + per_block] for lo in range(0, len(leading), per_block)], trailing


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


def build_gl2(ell: int, **budgets) -> PermutationAction:
    if not is_prime(ell):
        raise ValueError("gl2 actions are indexed by a prime")
    action = build_glm(ell, 2, **budgets)
    action.descriptor = f"gl2:{ell}"
    return action


def build_action(descriptor: str, **budgets) -> PermutationAction:
    """Build from a descriptor string: units:4, glm:12,2, semidirect:6,
    quad:5,-1, gl2:7."""
    kind, _, arg = descriptor.partition(":")
    try:
        nums = [int(v) for v in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad action descriptor {descriptor!r}")
    if kind == "units" and len(nums) == 1:
        return build_units(nums[0], **budgets)
    if kind == "semidirect" and len(nums) == 1:
        return build_semidirect(nums[0], **budgets)
    if kind == "quad" and len(nums) == 2:
        return build_quad_units(nums[0], nums[1], **budgets)
    if kind == "glm" and len(nums) == 2:
        return build_glm(nums[0], nums[1], **budgets)
    if kind == "gl2" and len(nums) == 1:
        return build_gl2(nums[0], **budgets)
    raise ValueError(f"bad action descriptor {descriptor!r}")


# ---------------------------------------------------------------------------
# Burnside evaluation.

def fixed_point_histogram(action: PermutationAction) -> dict[int, int]:
    """m -> number of group elements fixing exactly m points.

    A matrix action counts the fixed points of g as |ker(g - I)| from its
    matrices (_kernel_sizes, 2**15 elements at a time); any other action
    compares each permutation row with the identity.  The histogram is
    computed once per action.  Needs the element list: a generator-only
    action raises ValueError.
    """
    if action._histogram is None:
        if not action.materialized:
            raise ValueError(
                f"action {action.descriptor} of order {action.group_order} keeps only its "
                "generators: its elements were not materialized, so it has no fixed-point histogram"
            )
        counts = np.zeros(action.size + 1, dtype=np.int64)
        if action.matrices is not None:
            mats, n = action.matrices, action.modulus
            identity = np.eye(mats.shape[1], dtype=np.int64)
            for lo in range(0, len(mats), _MATRIX_CHUNK):
                fixed = _kernel_sizes(mats[lo : lo + _MATRIX_CHUNK] - identity, n)
                counts += np.bincount(fixed, minlength=action.size + 1)
        else:
            identity = np.arange(action.size, dtype=action.table.dtype)
            chunk = max(1, 2**24 // max(action.size, 1))
            for lo in range(0, action.table.shape[0], chunk):
                fixed = (action.table[lo : lo + chunk] == identity).sum(axis=1)
                counts += np.bincount(fixed, minlength=action.size + 1)
        action._histogram = {m: int(c) for m, c in enumerate(counts) if c}
    return dict(action._histogram)


def _kernel_sizes(mats: np.ndarray, n: int) -> np.ndarray:
    """|ker(A mod n)| on (Z/nZ)**m for each A of an (L, m, m) integer stack.

    Over Z, A = U diag(s_1, ..., s_m) V with U and V unimodular, so its
    kernel mod n is that of the Smith form: prod gcd(s_i, n) vectors.  The
    invariant factors are s_i = D_i / D_(i-1), where D_i is the gcd of the
    i x i minors and D_0 = 1; D_i = 0 gives s_i = 0, and gcd(0, n) = n.
    Entries are lifted to [0, n) first, and each i x i minor is expanded
    along its first row from the (i-1) x (i-1) minors, exactly on int64:
    none exceeds m! (n-1)**m in absolute value.
    """
    m = mats.shape[1]
    if factorial(m) * (n - 1) ** m >= 2**63:
        raise OverflowError(
            f"{m} x {m} minors of matrices mod {n} can reach {factorial(m) * (n - 1) ** m}, "
            "past int64"
        )
    a = mats.astype(np.int64, copy=False) % n
    minors = {((), ()): np.ones(len(a), dtype=np.int64)}
    previous = np.ones(len(a), dtype=np.int64)
    sizes = np.ones(len(a), dtype=np.int64)
    for i in range(1, m + 1):
        subsets = list(combinations(range(m), i))
        larger = {}
        for rows in subsets:
            for cols in subsets:
                minor = 0
                for j, c in enumerate(cols):
                    term = a[:, rows[0], c] * minors[rows[1:], cols[:j] + cols[j + 1 :]]
                    minor = minor - term if j % 2 else minor + term
                larger[rows, cols] = minor
        minors = larger
        d = np.gcd.reduce(np.stack(list(minors.values())), axis=0, initial=0)
        # D_(i-1) = 0 forces D_i = 0 (rank < i - 1), and then s_i = 0
        s_i = np.where(d == 0, 0, d // np.maximum(previous, 1))
        sizes *= np.gcd(s_i, n)
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


def orbit_count_oracle(
    action: PermutationAction, k: int, tuple_budget: int = DEFAULT_TUPLE_BUDGET
) -> int:
    """Count orbits on k-tuples directly, from the generators alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = action.size**k
    if total > tuple_budget:
        raise CapacityError(total, tuple_budget, what="tuples")
    labels = _orbit_labels(action.generators, action.size, k)
    return int(np.count_nonzero(labels == np.arange(total)))


def orbit_size(action: PermutationAction, point: int) -> int:
    """Size of the orbit of a single point.

    A matrix action marks the images g v mod n of the point's vector v
    under every element matrix; it never builds the permutation table.
    """
    if action.matrices is not None:
        mats, n = action.matrices, action.modulus
        weights = n ** np.arange(mats.shape[1], dtype=np.int64)
        vector = point // weights % n
        seen = np.zeros(action.size, dtype=bool)
        for lo in range(0, len(mats), _MATRIX_CHUNK):
            seen[(mats[lo : lo + _MATRIX_CHUNK] @ vector) % n @ weights] = True
        return int(np.count_nonzero(seen))
    if action.table is not None:
        return int(np.unique(action.table[:, point]).size)
    labels = _orbit_labels(action.generators, action.size, 1)
    return int(np.count_nonzero(labels == labels[point]))


def predicted_value_distribution(action: PermutationAction) -> dict[int, Fraction]:
    """m -> |G(m)|/|G|, the predicted density of primes with value m."""
    hist = fixed_point_histogram(action)
    return {m: Fraction(c, action.group_order) for m, c in hist.items()}
