"""Empirical prime averages of N_p**k, with exact predictions attached.

All averages are exact rationals internally; decimals appear only when a
report is rendered.  The primes reach a tally by one of two paths, and
each report names its path.

Classes: where N_p depends only on p mod L (x**n - 1, x**2 - a, the
product counter at n = 2, a split filter folded in as a class
condition), no prime is listed: the tally books pi(x; L, c) primes at
each class's value, from core_arith.class_prime_counts, and passes the
primes dividing L through the stream's add_primes.  _class_runs holds the
one rule that takes this path, from measured costs and ENTRY_BUDGET.  A
trace reads each checkpoint off the table of its last run while it lies
on that grid of x // i, and the last table is cached.

Stream: one accumulator walks the primes as int64 segments from the
sieve: it masks the excluded primes of a whole segment at once, evaluates
the kernels on the segment with numpy, and books the values in a
histogram from which the exact sums are taken.  The walk is cut at each
checkpoint, where a trace snapshots the running histogram, so its reports
equal separate runs to those bounds, and after the exclusion bound, so the
segments past it skip the mask.

Either path's tallies do not depend on k, so they are memoized whole per
(counter, bounds), at most STREAM_MEMO_RUNS of them: a repeat of the same
bounds (k = 2 after k = 1, a distribution after a moment) reads them
back, and other bounds take a pass of their own.
"""

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import core_arith
from .closed_forms import affine_masses, cm_masses, dk, gl2_masses, moment_of, unit_masses
from .core_arith import (
    RESIDUE_TABLE_LIMIT,
    class_prime_counts,
    factorize,
    grid_column,
    is_prime,
    kronecker_array,
    prime_segments,
    value_counts,
)
from .local_counts import (
    BadPrimes,
    PowerEquation,
    WeierstrassCurve,
    class_table,
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
    power = 1  # the value is N_p(x**n - a)**power

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
        return value_counts(count_roots_array(self.eq, primes))

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
    def power(self) -> int:
        return self.k1 + self.k2

    @property
    def bad_primes(self) -> BadPrimes:
        return self.eq.bad_primes

    def values(self, primes: np.ndarray) -> dict[int, int]:
        # N_p(x**n - 1) = gcd(p-1, n), and N_p(x**n - a) is either that or 0,
        # so with k1 >= 1 the product is N_p(x**n - a)**(k1 + k2).
        hist = value_counts(count_roots_array(self.eq, primes))
        return {v**self.power: c for v, c in hist.items()}

    def masses(self) -> dict[int, Fraction]:
        return {v**self.power: m for v, m in affine_masses(self.eq.n).items()}


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
        return value_counts(ec_torsion_count_array(self.curve, primes, self.ell))

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
    """One prime average.  histogram[0] holds the excluded and the filtered
    primes, and the valued primes with N_p = 0 (zero_valued) are the rest.
    path names how the primes were counted: "classes" (class_prime_counts)
    or "stream" (the sieve's segments)."""

    scenario: str
    k: int
    x: int
    pi_x: int
    empirical: Fraction
    predicted: Fraction | None
    histogram: dict[int, int]
    excluded: int
    filtered: int
    path: str = "stream"

    @property
    def zero_valued(self) -> int:
        return self.histogram.get(0, 0) - self.excluded - self.filtered

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
            "path": self.path,
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
        path=data.get("path", "stream"),
    )


def predicted_moment(counter: CounterSpec, k: int) -> Fraction | None:
    """The exact limit of the k-th moment, sum(mass * value**k) over counter.masses().

    Unfiltered, every prime is counted, so the limit at k = 0 is 1 even
    where no masses are known; k < 0 raises ValueError, before any stream.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0 and counter.split_filter is None:
        return Fraction(1)
    masses = counter.masses()
    return None if masses is None else moment_of(masses, k)


@dataclass
class _Tally:
    """Counts over the prime stream up to some bound.

    hist maps N_p to its number of primes, and excluded primes and primes
    a split filter drops are booked under 0, so sum(hist) == pi_x.  path
    is the report's: "classes" for a tally read off class_prime_counts.
    """

    hist: Counter = field(default_factory=Counter)
    excluded: int = 0
    filtered: int = 0
    pi_x: int = 0
    path: str = "stream"

    def add_primes(self, counter: CounterSpec, primes: np.ndarray):
        self.pi_x += primes.size
        good, bad = primes, counter.bad_primes
        # an ascending segment past bad.bound holds no excluded prime
        if primes.size and (bad.bound is None or int(primes[0]) <= bad.bound):
            good = primes[~bad.mask(primes)]
        self.excluded += primes.size - good.size
        if counter.split_filter is not None:
            keep = counter.split_filter.mask(good)
            self.filtered += good.size - int(keep.sum())
            good = good[keep]
        if primes.size > good.size:
            self.hist[0] += primes.size - good.size
        self.hist.update(counter.values(good))

    def moment_sum(self, k: int) -> int:
        """Sum of N_p**k over the primes that were valued."""
        # Excluded and filtered primes sit in hist[0] but add nothing, even at k = 0.
        unvalued = self.excluded + self.filtered
        return sum(c * v**k for v, c in self.hist.items()) - unvalued * 0**k


# Bound on the memo of _accumulate, in passes: each holds one small
# histogram per bound, and the repeats it serves come one after another.
STREAM_MEMO_RUNS = 8


def clear_stream_memo():
    """Forget every memoized pass and the cached class_prime_counts table, so
    the next stream sieves and values afresh and the next class count runs."""
    _accumulate.cache_clear()
    class_prime_counts.cache_clear()


def _class_values(counter: CounterSpec) -> tuple[int, np.ndarray, int] | None:
    """(L, values, phi(L)) when N_p = values[p % L] at every prime p not
    dividing L, with -1 where the split filter drops p; None for any other
    counter.

    That holds for x**n - a, and its product counter, when class_table
    has a table with no -d entry at a class prime to L and every excluded
    prime divides L; a split filter is folded in as the class condition
    mod L = lcm(M, 4|disc|), with M the table's size.
    """
    table = class_table(counter.eq) if hasattr(counter, "eq") else None
    if table is None:
        return None
    m = modulus = table.size
    filt = counter.split_filter
    if filt is not None:
        modulus = math.lcm(m, 4 * abs(filt.spec.discriminant))
    bad = abs(counter.bad_primes.modulus)
    if modulus > RESIDUE_TABLE_LIMIT or pow(modulus, bad.bit_length(), bad):
        return None
    residues = np.arange(modulus)
    prime_to = np.gcd(residues, modulus) == 1
    values = table[residues % m]
    if values[prime_to].min() < 0:
        return None
    if filt is not None:
        values = np.where(filt.mask(residues), values, -1)
    return modulus, values, int(prime_to.sum())


def _class_cost(x: int, phi: int) -> float:
    """class_prime_counts(x, m) with phi(m) classes, in integers of the stream.

    Measured with numpy 2.4 on one core of a 2-core Xeon: the stream takes
    about 2.7 ns per integer below x; a class count about 9 us for each
    sieving prime below sqrt(x), of which there are about 2 sqrt(x) / ln x,
    and 5.8 ns for each table entry it updates, about 11 phi x**(3/4) / ln x.
    """
    return (6700 * math.sqrt(x) + 24 * phi * x**0.75) / math.log(x)


def _class_runs(counter: CounterSpec, xs: list[int]) -> tuple[int, np.ndarray, list] | None:
    """The class-count path for the ascending bounds xs, or None for the stream.

    The rule: a counter whose N_p is read off p mod L (_class_values) takes
    class counts when every table fits core_arith.ENTRY_BUDGET and the summed
    _class_cost of the runs is below xs[-1], the stream's cost.  One run
    at xs[-1] serves each bound on its grid; a bound off it takes a run
    of its own, which then serves the smaller bounds on its grid.  Returns
    (L, values, [(x, run) for x in xs]).
    """
    found = _class_values(counter)
    if found is None:
        return None
    modulus, values, phi = found
    runs = []
    for x in reversed(xs):
        top = runs[-1][1] if runs and grid_column(runs[-1][1], x) is not None else x
        runs.append((x, top))
    tops = {top for _, top in runs}
    columns = max(grid_column(top, top) + 1 for top in tops)
    if phi * columns > core_arith.ENTRY_BUDGET:
        return None
    if sum(_class_cost(top, phi) for top in tops) >= xs[-1]:
        return None
    return modulus, values, runs[::-1]


def _class_tally(
    counter: CounterSpec, modulus: int, values: np.ndarray, x: int, top: int
) -> _Tally:
    """The tally to x read off class_prime_counts(top, modulus): the primes
    dividing modulus go through add_primes, and each class books its count."""
    tally = _Tally(path="classes")
    dividing = [p for p, _ in factorize(modulus) if p <= x]
    tally.add_primes(counter, np.array(dividing, dtype=np.int64))
    residues, counts = class_prime_counts(top, modulus)
    for value, count in zip(values[residues].tolist(), counts[:, grid_column(top, x)].tolist()):
        if count:
            tally.pi_x += count
            if value < 0:  # the split filter drops this class
                tally.filtered += count
            tally.hist[max(value, 0) ** counter.power] += count
    return tally


@lru_cache(maxsize=STREAM_MEMO_RUNS)
def _accumulate(counter: CounterSpec, marks: tuple[int, ...]) -> tuple[_Tally, ...]:
    """Tallies of the primes below each ascending exclusive bound in marks,
    memoized; callers only read them.

    A counter that _class_runs sends to class counts reads each tally off
    a table.  Otherwise the stream walks prime_segments from mark to mark,
    cut after counter.bad_primes.bound, so the segments past it skip the
    mask.
    """
    route = _class_runs(counter, [mark - 1 for mark in marks])
    if route is not None:
        modulus, values, runs = route
        return tuple(_class_tally(counter, modulus, values, x, top) for x, top in runs)
    tally = _Tally()
    snapshots = []
    lo, bound = 2, counter.bad_primes.bound
    for mark in marks:
        cut = [bound + 1] if bound is not None and lo <= bound < mark - 1 else []
        for hi in [*cut, mark]:
            for primes in prime_segments(lo, hi):
                tally.add_primes(counter, primes)
            lo = hi
        snapshots.append(replace(tally, hist=Counter(tally.hist)))
    return tuple(snapshots)


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
        path=tally.path,
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
    predicted = predicted_moment(counter, k)
    (tally,) = _accumulate(counter, (x + 1,))
    denom = tally.pi_x - tally.excluded if good_only else tally.pi_x
    if denom == 0:
        raise ValueError(
            f"good_only: every prime p <= {x} is excluded ({counter.bad_primes}), "
            "so there is nothing to average"
        )
    return _report(counter, k, x, tally, denom, predicted)


@dataclass
class DistributionReport:
    """The masses of N_p over p <= x.  masses[0] holds the excluded and the
    filtered primes, as MomentReport.histogram[0] does, with the valued
    primes at N_p = 0; path is MomentReport's."""

    scenario: str
    x: int
    pi_x: int
    masses: dict[int, Fraction]
    cdf: list[tuple[int, Fraction]]
    predicted_masses: dict[int, Fraction] | None
    char_samples: dict[float, complex]
    excluded: int
    filtered: int
    path: str = "stream"

    def mass(self, value: int) -> Fraction:
        return self.masses.get(value, Fraction(0))


def empirical_distribution(
    counter: CounterSpec, x: int, t_values: tuple[float, ...] = ()
) -> DistributionReport:
    """Histogram and CDF of N_p over p <= x, with the counter's predicted
    masses where a limit is known."""
    if x < 2:
        raise ValueError("x must be >= 2")
    (tally,) = _accumulate(counter, (x + 1,))
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
        excluded=tally.excluded,
        filtered=tally.filtered,
        path=tally.path,
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
    tallies = _accumulate(counter, tuple(c + 1 for c in checkpoints))
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
