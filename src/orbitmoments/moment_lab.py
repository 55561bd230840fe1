"""Empirical prime averages of N_p**k, with exact predictions attached.

All averages are exact rationals internally; decimals appear only when a
report is rendered.  One accumulator walks the primes as int64 segments
from the sieve: it masks the excluded primes of a whole segment at once,
evaluates the kernels on the segment with numpy, and books the values in
a histogram from which the exact sums are taken.  That histogram does not
depend on k, so each piece of the stream is valued once per process: the
stream [2, x] is cut on the sieve's segment grid and at the checkpoints,
and the tally of each piece [lo, hi) is kept in an LRU memo keyed by
(counter, lo, hi) and bounded by STREAM_MEMO_PIECES.  Repeated streams
in one process (verify, library callers, benchmark rounds) read their
pieces from it; a single CLI call does not gain.  A trace snapshots the
running histogram at each checkpoint, so its reports equal separate runs
to those bounds.
"""

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .closed_forms import affine_masses, cm_masses, dk, gl2_masses, moment_of, unit_masses
from .core_arith import SIEVE_SEGMENT, factorize, is_prime, kronecker_array, prime_segments
from .local_counts import (
    BadPrimes,
    PowerEquation,
    WeierstrassCurve,
    count_roots_array,
    ec_torsion_count_array,
)
from .residue_algebra import QuadOrderSpec


@dataclass(frozen=True)
class SplitFilter:
    """Restrict a counter to the primes that split in K, or to those that do not."""

    spec: QuadOrderSpec
    keep_split: bool

    @classmethod
    def split(cls, spec: QuadOrderSpec) -> "SplitFilter":
        return cls(spec, True)

    @classmethod
    def nonsplit(cls, spec: QuadOrderSpec) -> "SplitFilter":
        return cls(spec, False)

    def mask(self, primes: np.ndarray) -> np.ndarray:
        """Which entries of an int64 array of primes the filter keeps.

        p splits in K exactly when (disc(K)|p) = 1; kronecker_array reads
        the symbol from its table over p mod 4|disc| for a class-number-one
        field, whatever the size of p.
        """
        return (kronecker_array(self.spec.discriminant, primes) == 1) == self.keep_split


def _filter_suffix(f: SplitFilter | None) -> str:
    if f is None:
        return ""
    return ",split" if f.keep_split else ",nonsplit"


def _histogram(values: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(values, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _check_square_free_positive(a: int):
    if a <= 0:
        raise ValueError("a must be a positive integer")
    if any(e > 1 for _, e in factorize(a)):
        raise ValueError("a must be square-free")


def _check_kummer(eq: PowerEquation):
    """Refuse x**n - a (a != 1) unless Q(zeta_n, a**(1/n)) has degree n*phi(n).

    The power limits are Burnside counts over that Galois group, so they
    need its full size.  For square-free a > 1 it falls short only when
    sqrt(a), which lies in Q(a**(1/n)) for even n, also lies in Q(zeta_n):
    that is, when the discriminant of Q(sqrt(a)) divides n.
    """
    a, n = eq.a, eq.n
    _check_square_free_positive(a)
    disc = a if a % 4 == 1 else 4 * a
    if n % 2 == 0 and n % disc == 0:
        raise ValueError("for even n the discriminant of Q(sqrt(a)) must not divide n")


# Each counter names its excluded primes (bad_primes), values a segment of
# the other primes (values: N_p -> number of primes) and gives the exact
# limiting share of primes at each value (masses; None when no limit is
# known).  Under a split filter the masses are those of one coset of the
# Galois image, and sum to its share of the primes.


@dataclass(frozen=True)
class PowerCounter:
    """N_p(x**n - a)."""

    eq: PowerEquation
    split_filter: SplitFilter | None = None

    def __post_init__(self):
        if self.eq.a != 1:
            _check_kummer(self.eq)

    @property
    def scenario(self) -> str:
        base = f"power:n={self.eq.n},a={self.eq.a}"
        return base + _filter_suffix(self.split_filter)

    @property
    def bad_primes(self) -> BadPrimes:
        return self.eq.bad_primes

    def values(self, primes: np.ndarray) -> dict[int, int]:
        return _histogram(count_roots_array(self.eq, primes))

    def masses(self) -> dict[int, Fraction] | None:
        if self.split_filter is not None:
            return None
        return unit_masses(self.eq.n) if self.eq.a == 1 else affine_masses(self.eq.n)


@dataclass(frozen=True)
class PowerProductCounter:
    """N_p(x**n - a)**k1 * N_p(x**n - 1)**k2."""

    eq: PowerEquation
    k1: int
    k2: int
    split_filter = None  # no limit is known under a filter

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 0:
            raise ValueError("need k1 >= 1 and k2 >= 0")
        if self.eq.a == 1:
            raise ValueError("a must be > 1: for a = 1 the product is a power moment of x**n - 1")
        _check_kummer(self.eq)

    @property
    def scenario(self) -> str:
        return f"product:n={self.eq.n},a={self.eq.a},k1={self.k1},k2={self.k2}"

    @property
    def bad_primes(self) -> BadPrimes:
        return self.eq.bad_primes

    def values(self, primes: np.ndarray) -> dict[int, int]:
        # N_p(x**n - 1) = gcd(p-1, n), and N_p(x**n - a) is either that or 0,
        # so with k1 >= 1 the product is N_p(x**n - a)**(k1 + k2).
        hist = _histogram(count_roots_array(self.eq, primes))
        return {v ** (self.k1 + self.k2): c for v, c in hist.items()}

    def masses(self) -> dict[int, Fraction]:
        return {v ** (self.k1 + self.k2): m for v, m in affine_masses(self.eq.n).items()}


@dataclass(frozen=True)
class TorsionCounter:
    """N_p(E[ell]) for a short-Weierstrass curve."""

    curve: WeierstrassCurve
    ell: int
    split_filter: SplitFilter | None = None

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError("ell must be prime")

    @property
    def scenario(self) -> str:
        name = self.curve.label or f"{self.curve.a},{self.curve.b}"
        return f"torsion:curve={name},ell={self.ell}" + _filter_suffix(self.split_filter)

    @property
    def bad_primes(self) -> BadPrimes:
        return self.curve.bad_primes(self.ell)

    def values(self, primes: np.ndarray) -> dict[int, int]:
        return _histogram(ec_torsion_count_array(self.curve, primes, self.ell))

    def masses(self) -> dict[int, Fraction] | None:
        curve, ell, filt = self.curve, self.ell, self.split_filter
        if curve.cm is None:
            return None if filt is not None else gl2_masses(ell)
        # the CM image is known at an odd ell that splits or is inert in K,
        # and its cosets are told apart by K alone
        d = dk(ell, curve.cm)
        if ell == 2 or d == 3 or (filt is not None and filt.spec != curve.cm):
            return None
        return cm_masses(ell, d, None if filt is None else filt.keep_split)


CounterSpec = PowerCounter | PowerProductCounter | TorsionCounter


@dataclass
class MomentReport:
    """One prime average; histogram[0] == excluded + filtered + zero_valued,
    the last counting the valued primes with N_p = 0."""

    scenario: str
    k: int
    x: int
    pi_x: int
    empirical: Fraction
    predicted: Fraction | None
    histogram: dict[int, int]
    excluded: int
    filtered: int
    zero_valued: int

    @property
    def abs_err(self) -> float | None:
        if self.predicted is None:
            return None
        return abs(float(self.empirical - self.predicted))

    @property
    def rel_err(self) -> float | None:
        if self.predicted in (None, 0):
            return None
        return abs(float((self.empirical - self.predicted) / self.predicted))

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "k": self.k,
            "x": self.x,
            "pi_x": self.pi_x,
            "empirical_num": self.empirical.numerator,
            "empirical_den": self.empirical.denominator,
            "predicted_num": None if self.predicted is None else self.predicted.numerator,
            "predicted_den": None if self.predicted is None else self.predicted.denominator,
            "rel_err": self.rel_err,
            "histogram": {str(v): c for v, c in sorted(self.histogram.items())},
            "excluded": self.excluded,
            "filtered": self.filtered,
            "zero_valued": self.zero_valued,
        }


def report_from_json_dict(data: dict) -> MomentReport:
    predicted = None
    if data["predicted_num"] is not None:
        predicted = Fraction(data["predicted_num"], data["predicted_den"])
    hist = {int(v): c for v, c in data["histogram"].items()}
    return MomentReport(
        scenario=data["scenario"],
        k=data["k"],
        x=data["x"],
        pi_x=data["pi_x"],
        empirical=Fraction(data["empirical_num"], data["empirical_den"]),
        predicted=predicted,
        histogram=hist,
        excluded=data["excluded"],
        filtered=data.get("filtered", 0),
        zero_valued=data.get("zero_valued", 0),
    )


def predicted_moment(counter: CounterSpec, k: int) -> Fraction | None:
    """The exact limit of the k-th moment, sum(mass * value**k) over counter.masses().

    Unfiltered, every prime is counted, so the limit at k = 0 is 1 even
    where no masses are known.
    """
    if k == 0 and counter.split_filter is None:
        return Fraction(1)
    masses = counter.masses()
    return None if masses is None else moment_of(masses, k)


@dataclass
class _Tally:
    """Counts over the prime stream up to some bound.

    hist maps N_p to its number of primes, and excluded primes and primes
    a split filter drops are booked under 0, so sum(hist) == pi_x.
    """

    hist: Counter = field(default_factory=Counter)
    excluded: int = 0
    filtered: int = 0
    pi_x: int = 0

    def add_primes(self, counter: CounterSpec, primes: np.ndarray):
        self.pi_x += primes.size
        good = primes[~counter.bad_primes.mask(primes)]
        self.excluded += primes.size - good.size
        if counter.split_filter is not None:
            keep = counter.split_filter.mask(good)
            self.filtered += good.size - int(keep.sum())
            good = good[keep]
        if primes.size > good.size:
            self.hist[0] += primes.size - good.size
        self.hist.update(counter.values(good))

    def merge(self, piece: tuple):
        """Add a memoized piece: (histogram items, excluded, filtered, pi_x)."""
        items, excluded, filtered, pi_x = piece
        self.hist.update(dict(items))
        self.excluded += excluded
        self.filtered += filtered
        self.pi_x += pi_x

    def moment_sum(self, k: int) -> int:
        """Sum of N_p**k over the primes that were valued."""
        # Excluded and filtered primes sit in hist[0] but add nothing, even at k = 0.
        unvalued = self.excluded + self.filtered
        return sum(c * v**k for v, c in self.hist.items()) - unvalued * 0**k


# Bound on the stream memo.  A piece spans at most one sieve segment
# (2**18 integers) and takes under 1 KB, so the default covers one stream
# to about 10**9 in a few MB.
STREAM_MEMO_PIECES = 4096


def clear_stream_memo():
    """Forget every memoized piece, so the next stream sieves and values afresh."""
    _piece.cache_clear()


@lru_cache(maxsize=STREAM_MEMO_PIECES)
def _piece(counter: CounterSpec, lo: int, hi: int) -> tuple:
    """(histogram items, excluded, filtered, pi_x) of the primes in [lo, hi)."""
    tally = _Tally()
    for primes in prime_segments(lo, hi):
        tally.add_primes(counter, primes)
    return (tuple(tally.hist.items()), tally.excluded, tally.filtered, tally.pi_x)


def _accumulate(counter: CounterSpec, marks: list[int]) -> list[_Tally]:
    """Tallies of the primes below each ascending exclusive bound in marks.

    [2, marks[-1]) is cut on the sieve's segment grid 2 + j * SIEVE_SEGMENT
    and at every mark, and the pieces are read through the memo in order.
    """
    tally = _Tally()
    snapshots = []
    lo = 2
    for mark in marks:
        while lo < mark:
            hi = min(mark, lo + SIEVE_SEGMENT - (lo - 2) % SIEVE_SEGMENT)
            tally.merge(_piece(counter, lo, hi))
            lo = hi
        snapshots.append(replace(tally, hist=Counter(tally.hist)))
    return snapshots


def _report(
    counter: CounterSpec, k: int, x: int, tally: _Tally, denom: int, predicted: Fraction | None
) -> MomentReport:
    return MomentReport(
        scenario=counter.scenario,
        k=k,
        x=x,
        pi_x=tally.pi_x,
        empirical=Fraction(tally.moment_sum(k), denom),
        predicted=predicted,
        histogram=dict(tally.hist),
        excluded=tally.excluded,
        filtered=tally.filtered,
        zero_valued=tally.hist[0] - tally.excluded - tally.filtered,
    )


def empirical_moment(
    counter: CounterSpec,
    k: int,
    x: int,
    good_only: bool = False,
) -> MomentReport:
    """Average of N_p**k over primes p <= x, normalized by pi(x).

    Excluded primes contribute 0 (also at k = 0, so the k = 0 report reads
    off the excluded-prime bookkeeping).  good_only divides by the count
    of non-excluded primes instead.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    (tally,) = _accumulate(counter, [x + 1])
    denom = tally.pi_x - tally.excluded if good_only else tally.pi_x
    if denom == 0:
        raise ValueError(
            f"good_only: every prime p <= {x} is excluded ({counter.bad_primes}), "
            "so there is nothing to average"
        )
    return _report(counter, k, x, tally, denom, predicted_moment(counter, k))


@dataclass
class DistributionReport:
    scenario: str
    x: int
    pi_x: int
    masses: dict[int, Fraction]
    cdf: list[tuple[int, Fraction]]
    predicted_masses: dict[int, Fraction] | None
    char_samples: dict[float, complex]

    def mass(self, value: int) -> Fraction:
        return self.masses.get(value, Fraction(0))


def empirical_distribution(
    counter: CounterSpec, x: int, t_values: tuple[float, ...] = ()
) -> DistributionReport:
    """Histogram and CDF of N_p over p <= x, with the counter's predicted
    masses where a limit is known."""
    if x < 2:
        raise ValueError("x must be >= 2")
    (tally,) = _accumulate(counter, [x + 1])
    hist, pi_x = tally.hist, tally.pi_x
    masses = {v: Fraction(c, pi_x) for v, c in sorted(hist.items())}
    cdf = []
    running = Fraction(0)
    for v in sorted(hist):
        running += masses[v]
        cdf.append((v, running))
    samples = {}
    for t in t_values:
        samples[t] = sum(
            float(m) * cmath.exp(1j * t * v) for v, m in masses.items()
        )
    return DistributionReport(
        scenario=counter.scenario,
        x=x,
        pi_x=pi_x,
        masses=masses,
        cdf=cdf,
        predicted_masses=counter.masses(),
        char_samples=samples,
    )


def characteristic_function(
    moments, t: float, value_bound: int
) -> tuple[complex, float]:
    """Partial sum of sum_k M_k (it)**k / k! with its tail bound.

    moments holds M_0, ..., M_K.  Requires |t| < 1 (the series converges
    there because M_k <= value_bound**k); the reported tail bound is
    value_bound**(K+1) |t|**(K+1) / (K+1)!.
    """
    if abs(t) >= 1:
        raise ValueError("characteristic function series requires |t| < 1")
    total = 0j
    term = complex(1)  # (it)^k / k!
    for k, m_k in enumerate(moments):
        if k:
            term *= 1j * t / k
        total += float(m_k) * term
    order = len(moments) - 1
    tail = (
        value_bound ** (order + 1)
        * abs(t) ** (order + 1)
        / math.factorial(order + 1)
    )
    return total, tail


def convergence_trace(
    counter: CounterSpec, k: int, checkpoints: list[int]
) -> list[MomentReport]:
    """One MomentReport per checkpoint, accumulated in a single prime pass."""
    if not checkpoints or sorted(checkpoints) != list(checkpoints):
        raise ValueError("checkpoints must be a nonempty ascending list")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be >= 2")
    predicted = predicted_moment(counter, k)
    tallies = _accumulate(counter, [c + 1 for c in checkpoints])
    return [
        _report(counter, k, bound, tally, tally.pi_x, predicted)
        for bound, tally in zip(checkpoints, tallies)
    ]


def trace_to_csv(reports: list[MomentReport]) -> str:
    """CSV with columns x, pi_x, empirical, predicted, rel_err."""
    lines = ["x,pi_x,empirical,predicted,rel_err"]
    for r in reports:
        predicted = "" if r.predicted is None else f"{float(r.predicted):.10g}"
        rel = "" if r.rel_err is None else f"{r.rel_err:.6g}"
        lines.append(f"{r.x},{r.pi_x},{float(r.empirical):.10g},{predicted},{rel}")
    return "\n".join(lines) + "\n"
