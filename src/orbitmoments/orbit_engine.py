"""Finite group actions as explicit permutations, and exact orbit counting.

The k-th moment of an action is the number of orbits on k-tuples.  For a
materialized action it is evaluated through the fixed-point histogram
(average of chi(g)**k over the group); actions too large to materialize
keep a generating set and fall back to direct orbit counting on the tuple
space, which computes the same number from its definition.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import gcd

import numpy as np

from .core_arith import CapacityError, is_prime
from .residue_algebra import QuadOrderSpec, glm_order

DEFAULT_ELEMENT_BUDGET = 10**7
DEFAULT_ENTRY_BUDGET = 6 * 10**7
DEFAULT_TUPLE_BUDGET = 10**7


def _perm_dtype(size: int):
    if size <= 2**8:
        return np.uint8
    if size <= 2**16:
        return np.uint16
    return np.int64


@dataclass
class PermutationAction:
    """A finite group acting on {0, ..., size-1}.

    perms holds one permutation row per group element when the group is
    materialized, and None when only a generating set is stored (the
    generators rows always generate the full group).
    """

    size: int
    perms: np.ndarray | None
    generators: np.ndarray
    group_order: int
    descriptor: str = ""


def build_units(n: int, **budgets) -> PermutationAction:
    """(Z/nZ)^x acting on Z/nZ by multiplication, as GL_1(Z/nZ).

    Every element is kept as a generator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    units = _enumerate_glm_matrices(n, 1)
    return _matrix_action(n, units, lambda: units, len(units), f"units:{n}", **budgets)


def build_semidirect(n: int) -> PermutationAction:
    """Pairs (b, d) with d a unit, acting on (i, j) by (b + i*d, j*d).

    Row b*phi(n) + t is the pair (b, units[t]); point index = i*n + j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    units = np.array([d for d in range(n) if gcd(d, n) == 1])
    i_grid, j_grid = np.divmod(np.arange(n * n), n)
    b = np.arange(n)[:, None, None]
    d = units[None, :, None]
    perms = (((b + i_grid * d) % n) * n + (j_grid * d) % n).reshape(-1, n * n)
    perms = perms.astype(_perm_dtype(n * n))
    phi = len(units)
    # (1, 1), as units[0] = 1 % n, then every (0, d)
    gens = perms[[(1 % n) * phi, *range(phi)]]
    return PermutationAction(
        size=n * n,
        perms=perms,
        generators=gens,
        group_order=len(perms),
        descriptor=f"semidirect:{n}",
    )


def build_quad_units(n: int, d: int, **budgets) -> PermutationAction:
    """(O_K/nO_K)^x acting on O_K/nO_K by multiplication, every element a generator.

    Multiplication by u = a + b*omega is the matrix [[a, s*b], [b, a + t*b]]
    on the basis (1, omega), and u is a unit iff gcd(det, n) = 1.  The point
    x + y*omega has index x + y*n, as for glm:n,2; units are ordered by (a, b).
    Orbit counts do not depend on how points or elements are numbered.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = QuadOrderSpec(d)
    a, b = np.divmod(np.arange(n * n, dtype=np.int64), n)
    mats = np.stack([a, spec.s * b, b, a + spec.t * b], axis=1).reshape(-1, 2, 2) % n
    units = mats[np.gcd(_vec_det(mats, n), n) == 1]
    descriptor = f"quad:{n},{d}"
    return _matrix_action(n, units, lambda: units, len(units), descriptor, **budgets)


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
) -> PermutationAction:
    """A group of m x m matrices mod n acting on (Z/nZ)**m.

    generators is a (g, m, m) stack that generates the group, and elements()
    returns the (order, m, m) stack of every element.  elements() is called
    only when the order and the permutation table fit the budgets; otherwise
    only the generating set is kept and moment evaluation goes through
    direct orbit counting.  The generator table itself must fit entry_budget.
    """
    size = n ** generators.shape[1]
    if len(generators) * size > entry_budget:
        raise CapacityError(len(generators) * size, entry_budget, what="generator table entries")
    fits = order <= element_budget and order * size <= entry_budget
    return PermutationAction(
        size=size,
        perms=_apply_matrices(elements(), n) if fits else None,
        generators=_apply_matrices(generators, n),
        group_order=order,
        descriptor=descriptor,
    )


def _glm_generator_matrices(n: int, m: int) -> list[np.ndarray]:
    """Elementary transvections plus unit scalings of the first coordinate.

    These generate GL_m(Z/nZ): Gaussian elimination works locally at each
    prime power, and the determinant is adjusted by the diagonal units.
    """
    gens = []
    for u in range(2, n):
        if gcd(u, n) == 1:
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
    """All invertible m x m matrices mod n, entry-lexicographic, vectorized."""
    total = n ** (m * m)
    idx = np.arange(total, dtype=np.int64)
    flat = np.stack(
        [(idx // n ** (m * m - 1 - e)) % n for e in range(m * m)], axis=1
    )
    mats = flat.reshape(total, m, m)
    det = _vec_det(mats, n)
    coprime = np.gcd(det, n) == 1
    return mats[coprime]


def _vec_det(mats: np.ndarray, n: int) -> np.ndarray:
    m = mats.shape[1]
    if m == 1:
        return mats[:, 0, 0] % n
    if m == 2:
        return (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % n
    total = np.zeros(mats.shape[0], dtype=np.int64)
    sign = 1
    cols = list(range(m))
    for j in range(m):
        rest = cols[:j] + cols[j + 1 :]
        minor = mats[:, 1:, :][:, :, rest]
        total = (total + sign * mats[:, 0, j] * _vec_det(minor, n)) % n
        sign = -sign
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
        return build_semidirect(nums[0])
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
    """m -> number of group elements fixing exactly m points."""
    if action.perms is None:
        raise CapacityError(action.group_order, 0, what="materialized elements")
    counts = np.zeros(action.size + 1, dtype=np.int64)
    identity = np.arange(action.size, dtype=action.perms.dtype)
    chunk = max(1, 2**24 // max(action.size, 1))
    for lo in range(0, action.perms.shape[0], chunk):
        fixed = (action.perms[lo : lo + chunk] == identity).sum(axis=1)
        counts += np.bincount(fixed, minlength=action.size + 1)
    return {m: int(c) for m, c in enumerate(counts) if c}


def burnside_moment(action: PermutationAction, k: int) -> int:
    """Number of orbits on k-tuples.

    Materialized actions use the histogram average (1/|G|) sum chi(g)**k,
    asserting the division is exact; generator-only actions count orbits
    on the tuple space directly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if action.perms is not None:
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
    few arrays of size**k.
    """
    labels = np.arange(size**k, dtype=np.int64)
    # axis j of the outer sum carries digit k-1-j, so ravel() yields tuple order
    weights = [size**i for i in reversed(range(k))]
    while True:
        before = int(labels.sum())
        for g in generators:
            g64 = g.astype(np.int64)
            image = reduce(np.add.outer, [g64 * w for w in weights]).ravel()
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
    """Size of the orbit of a single point."""
    if action.perms is not None:
        return int(np.unique(action.perms[:, point]).size)
    labels = _orbit_labels(action.generators, action.size, 1)
    return int(np.count_nonzero(labels == labels[point]))


def predicted_value_distribution(action: PermutationAction) -> dict[int, Fraction]:
    """m -> |G(m)|/|G|, the predicted density of primes with value m."""
    hist = fixed_point_histogram(action)
    return {m: Fraction(c, action.group_order) for m, c in hist.items()}
