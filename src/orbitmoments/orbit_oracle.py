"""Orbit counting on k-tuples from generator rows alone.

The independent count that every Burnside histogram is checked against:
it labels each k-tuple with the least index in its orbit, reading only an
action's size and its generators (one permutation row per generator), so
it needs nothing from the builders it checks.  TUPLE_BUDGET bounds the
tuples it labels, one int32 each (int64 from 2**31 on), and orbit_engine's
build_glm reads it to refuse a generator-only action with more points.
Beside the labels, and a boolean mask of the points while the rows are
checked, every temporary is one block of _TUPLE_CHUNK tuples.
"""

import numpy as np

from .core_arith import CapacityError

TUPLE_BUDGET = 10**7
# tuples per step of the orbit oracle (each block costs a few calls per generator)
_TUPLE_CHUNK = 1 << 15


def _trailing_digits(n: int, width: int, chunk: int) -> int:
    """The most trailing digits t <= width of base-n numbers with n**t <= chunk."""
    t = 0
    while t < width and n ** (t + 1) <= chunk:
        t += 1
    return t


def _check_rows(generators: np.ndarray, size: int) -> None:
    """Refuse a generator row that is not a permutation of range(size): take
    with mode="clip" would label through it and miscount without a word."""
    for i, g in enumerate(generators):
        hit = np.zeros(size, dtype=bool)
        if len(g) == size and g.min() >= 0 and g.max() < size:
            hit[g] = True
        # count_nonzero, which the oracle runs anyway, not all(): all() would fault in
        # 64 KB more of numpy's code and raise exact-limits' peak RSS by about 0.1 MB
        if np.count_nonzero(hit) != size:
            raise ValueError(f"generator row {i} is not a permutation of range({size})")


def _orbit_labels(generators: np.ndarray, size: int, k: int) -> np.ndarray:
    """For every k-tuple index, the least index in its orbit under the group
    the generator rows generate.

    Min-label propagation with pointer jumping (Shiloach-Vishkin) in place
    on one labels array, int32 while size**k < 2**31, swept in blocks of
    at most _TUPLE_CHUNK tuples: labels fall to those of their images under
    each generator g, then to those of their labels.  With t =
    _trailing_digits(size, k, _TUPLE_CHUNK), the labels are a grid of
    size**t-wide rows, one per value of the leading digits, and g sends
    row r to row head[r] with its columns permuted by tail, two tables made
    from g once per call in the labels' dtype (g itself for one digit of
    int32 rows; intp tails would spare take a conversion per block, but
    cost exact-limits 0.2-0.3 MB of peak RSS).  So the image labels of a
    block are its rows' image rows, gathered whole, with their columns
    then gathered through tail, and no image index is ever computed; with
    no trailing digit the head slice is the image.  Beside the labels and
    tables the oracle holds two block buffers of the labels' dtype.
    labels[t] <= t stays in the orbit of t, so labels only fall, and a
    sweep that keeps their sum changed nothing.  Then labels[t] <=
    labels[g(t)] for every g, equal along each cycle of g, so labels are
    constant on orbits.  A row that is not a permutation of range(size)
    raises ValueError before any labelling, so every index take reads is
    a tuple's, and take skips its bounds check.
    """
    _check_rows(generators, size)
    total = size**k
    labels = np.arange(total, dtype=np.int32 if total < 2**31 else np.int64)

    def table(g, j):  # the image under g of every j-digit index
        v = g.astype(labels.dtype, copy=False) if j else np.zeros(1, labels.dtype)
        for _ in range(j - 1):
            v = np.add.outer(v * size, g).ravel()
        return v

    t = _trailing_digits(size, k, _TUPLE_CHUNK)
    maps = [(table(g, k - t), table(g, t)) for g in generators]
    inner = size**t
    grid, rows = labels.reshape(-1, inner), max(1, _TUPLE_CHUNK // inner)
    gathered, taken = np.empty((2, rows, inner), labels.dtype)
    while True:
        before = int(labels.sum())
        for lo in range(0, len(grid), rows):
            block = grid[lo : lo + rows]
            image, seen = gathered[: len(block)], taken[: len(block)]
            for head, tail in maps:
                if t:
                    grid.take(head[lo : lo + rows], axis=0, out=image, mode="clip")
                    image.take(tail, axis=1, out=seen, mode="clip")
                else:
                    labels.take(head[lo : lo + rows], out=seen[:, 0], mode="clip")
                np.minimum(block, seen, out=block)
            block[:] = labels.take(block, out=seen, mode="clip")
        if int(labels.sum()) == before:
            return labels


def orbit_count_oracle(action, k: int) -> int:
    """Count orbits on k-tuples directly, from action.generators alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = action.size**k
    if total > TUPLE_BUDGET:
        raise CapacityError(total, TUPLE_BUDGET, what="tuples")
    labels, orbits = _orbit_labels(action.generators, action.size, k), 0
    for lo in range(0, total, _TUPLE_CHUNK):
        block = labels[lo : lo + _TUPLE_CHUNK]
        orbits += int(np.count_nonzero(block == np.arange(lo, lo + len(block), dtype=block.dtype)))
    return orbits


def orbit_size(action, point: int) -> int:
    """Size of the orbit of a single point, labelled through action.generators."""
    labels = _orbit_labels(action.generators, action.size, 1)
    return int(np.count_nonzero(labels == labels[point]))
