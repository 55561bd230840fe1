"""Empirical prime averages of N_p**k, with exact predictions attached.

All averages are exact rationals internally; decimals appear only when a
report is rendered.  Prime ranges shard cleanly: partial sums and
histograms merge by integer addition, so results never depend on the
shard count.
"""

import cmath
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .closed_forms import (
    cm_moment,
    dk,
    gl2_moment,
    inert_partial_moment,
    mk,
    split_densities,
)
from .core_arith import is_prime, pow_mod, primes_in_range
from .local_counts import (
    PowerEquation,
    SplittingType,
    WeierstrassCurve,
    ec_torsion_count,
    splitting_type,
)
from .orbit_engine import PermutationAction, predicted_value_distribution
from .residue_algebra import QuadOrderSpec

NONSPLIT = frozenset({SplittingType.INERT, SplittingType.RAMIFIED})
SPLIT_ONLY = frozenset({SplittingType.SPLIT})


@dataclass(frozen=True)
class SplitFilter:
    """Restrict a counter to primes with the given splitting behaviour in K."""

    spec: QuadOrderSpec
    keep: frozenset

    @classmethod
    def split(cls, spec: QuadOrderSpec) -> "SplitFilter":
        return cls(spec, SPLIT_ONLY)

    @classmethod
    def nonsplit(cls, spec: QuadOrderSpec) -> "SplitFilter":
        return cls(spec, NONSPLIT)


def _check_power_side_conditions(eq: PowerEquation):
    # a must be square-free positive, and must not divide even n.
    if eq.a <= 0:
        raise ValueError("a must be a positive integer")
    if any(eq.a % (q * q) == 0 for q in range(2, math.isqrt(eq.a) + 1)):
        raise ValueError("a must be square-free")
    if eq.n % 2 == 0 and eq.n % eq.a == 0 and eq.a > 1:
        raise ValueError("for even n the constant a must not divide n")


@dataclass(frozen=True)
class PowerCounter:
    """N_p(x**n - a)."""

    eq: PowerEquation
    split_filter: SplitFilter | None = None

    def __post_init__(self):
        if self.eq.a != 1:
            _check_power_side_conditions(self.eq)

    @property
    def scenario(self) -> str:
        base = f"power:n={self.eq.n},a={self.eq.a}"
        return base + _filter_suffix(self.split_filter)


@dataclass(frozen=True)
class PowerProductCounter:
    """N_p(x**n - a)**k1 * N_p(x**n - 1)**k2, same exponent n."""

    eq_a: PowerEquation
    eq_one: PowerEquation
    k1: int
    k2: int

    def __post_init__(self):
        if self.eq_one.a != 1 or self.eq_one.n != self.eq_a.n:
            raise ValueError("second factor must be x**n - 1 with matching n")
        if self.k1 < 1 or self.k2 < 0:
            raise ValueError("need k1 >= 1 and k2 >= 0")
        if self.eq_a.a <= 0 or any(
            self.eq_a.a % (q * q) == 0 for q in range(2, math.isqrt(self.eq_a.a) + 1)
        ):
            raise ValueError("a must be a square-free positive integer")

    @property
    def scenario(self) -> str:
        return (
            f"product:n={self.eq_a.n},a={self.eq_a.a},k1={self.k1},k2={self.k2}"
        )


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
        return f"torsion:curve={name},ell={self.ell}" + _filter_suffix(
            self.split_filter
        )


CounterSpec = PowerCounter | PowerProductCounter | TorsionCounter


def _filter_suffix(f: SplitFilter | None) -> str:
    if f is None:
        return ""
    return ",split" if f.keep == SPLIT_ONLY else ",nonsplit"


def _is_excluded(counter: CounterSpec, p: int) -> bool:
    if isinstance(counter, PowerCounter):
        return gcd(p, counter.eq.n * counter.eq.a) != 1
    if isinstance(counter, PowerProductCounter):
        return gcd(p, counter.eq_a.n * counter.eq_a.a) != 1
    return p < 5 or (counter.ell * counter.curve.discriminant) % p == 0


def _power_value(eq: PowerEquation, p: int) -> int:
    # Excluded primes are filtered upstream, so p is coprime to n*a here.
    d = gcd(p - 1, eq.n)
    return d if pow_mod(eq.a, (p - 1) // d, p) == 1 else 0


def _value(counter: CounterSpec, p: int) -> int:
    if isinstance(counter, PowerCounter):
        return _power_value(counter.eq, p)
    if isinstance(counter, PowerProductCounter):
        return _power_value(counter.eq_a, p) ** counter.k1 * _power_value(
            counter.eq_one, p
        ) ** counter.k2
    return ec_torsion_count(counter.curve, p, counter.ell)


def _split_filter(counter: CounterSpec) -> SplitFilter | None:
    return getattr(counter, "split_filter", None)


@dataclass
class MomentReport:
    scenario: str
    k: int
    x: int
    pi_x: int
    empirical: Fraction
    predicted: Fraction | None
    histogram: dict[int, int]
    excluded: int

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
    )


def predicted_moment(counter: CounterSpec, k: int) -> Fraction | None:
    """The exact limit value for this counter and power, when one applies."""
    if k == 0:
        if _split_filter(counter) is None:
            return Fraction(1)
    if isinstance(counter, PowerCounter):
        if counter.split_filter is not None:
            return None
        if counter.eq.a == 1:
            return mk(counter.eq.n, k)
        return mk(counter.eq.n, k - 1) if k >= 1 else Fraction(1)
    if isinstance(counter, PowerProductCounter):
        if k < 1:
            return Fraction(1)
        return mk(counter.eq_a.n, k * (counter.k1 + counter.k2) - 1)
    curve, ell = counter.curve, counter.ell
    if counter.split_filter is not None:
        if curve.cm is None or ell == 2:
            return None
        d = dk(ell, curve.cm)
        if counter.split_filter.keep == NONSPLIT:
            return inert_partial_moment(ell, k)
        if counter.split_filter.keep == SPLIT_ONLY:
            d0, d1, d2 = split_densities(ell, d)
            return d0 + d1 * ell**k + d2 * ell ** (2 * k)
        return None
    if curve.cm is None:
        return gl2_moment(ell, k)
    if ell == 2:
        return None
    return cm_moment(ell, k, dk(ell, curve.cm))


@lru_cache(maxsize=4)
def _primes_list(x: int) -> tuple[int, ...]:
    return tuple(primes_in_range(2, x + 1))


def _accumulate(counter: CounterSpec, k: int, primes) -> tuple[int, Counter, int, int]:
    """(sum of N_p**k, value histogram, excluded count, prime count)."""
    total = 0
    hist = Counter()
    excluded = 0
    seen = 0
    filt = _split_filter(counter)
    for p in primes:
        seen += 1
        if _is_excluded(counter, p):
            excluded += 1
            hist[0] += 1
            continue
        if filt is not None and splitting_type(p, filt.spec) not in filt.keep:
            hist[0] += 1
            continue
        v = _value(counter, p)
        hist[v] += 1
        total += v**k
    return total, hist, excluded, seen


def _shard_bounds(x: int, shards: int) -> list[tuple[int, int]]:
    width = max(1, (x - 1) // shards + 1)
    return [(2 + i * width, min(2 + (i + 1) * width, x + 1)) for i in range(shards)]


def empirical_moment(
    counter: CounterSpec,
    k: int,
    x: int,
    threads: int = 1,
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
    if threads > 1:
        parts = [
            (counter, k, primes_in_range(lo, hi)) for lo, hi in _shard_bounds(x, threads)
        ]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda args: _accumulate(*args), parts))
        total = sum(r[0] for r in results)
        hist = Counter()
        for r in results:
            hist.update(r[1])
        excluded = sum(r[2] for r in results)
        pi_x = sum(r[3] for r in results)
    else:
        total, hist, excluded, pi_x = _accumulate(counter, k, _primes_list(x))
    denom = pi_x - excluded if good_only else pi_x
    return MomentReport(
        scenario=counter.scenario,
        k=k,
        x=x,
        pi_x=pi_x,
        empirical=Fraction(total, denom),
        predicted=predicted_moment(counter, k),
        histogram=dict(hist),
        excluded=excluded,
    )


def conditioned_moment(
    counter: CounterSpec, k: int, x: int, threads: int = 1
) -> MomentReport:
    """empirical_moment for a counter carrying a splitting filter."""
    if _split_filter(counter) is None:
        raise ValueError("conditioned_moment needs a counter with a split filter")
    return empirical_moment(counter, k, x, threads=threads)


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
    counter: CounterSpec,
    x: int,
    action: PermutationAction | None = None,
    t_values: tuple[float, ...] = (),
) -> DistributionReport:
    """Histogram and CDF of N_p over p <= x, with predicted atom masses
    |G(m)|/|G| when a matching action is supplied."""
    if x < 2:
        raise ValueError("x must be >= 2")
    _, hist, _, pi_x = _accumulate(counter, 0, _primes_list(x))
    masses = {v: Fraction(c, pi_x) for v, c in sorted(hist.items())}
    cdf = []
    running = Fraction(0)
    for v in sorted(hist):
        running += masses[v]
        cdf.append((v, running))
    predicted = predicted_value_distribution(action) if action is not None else None
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
        predicted_masses=predicted,
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
    total = 0
    hist = Counter()
    excluded = 0
    pi_x = 0
    predicted = predicted_moment(counter, k)
    filt = _split_filter(counter)

    def snapshot(bound: int) -> MomentReport:
        return MomentReport(
            scenario=counter.scenario,
            k=k,
            x=bound,
            pi_x=pi_x,
            empirical=Fraction(total, pi_x),
            predicted=predicted,
            histogram=dict(hist),
            excluded=excluded,
        )

    reports = []
    remaining = list(checkpoints)
    for p in _primes_list(checkpoints[-1]):
        while remaining and p > remaining[0]:
            reports.append(snapshot(remaining.pop(0)))
        pi_x += 1
        if _is_excluded(counter, p):
            excluded += 1
            hist[0] += 1
            continue
        if filt is not None and splitting_type(p, filt.spec) not in filt.keep:
            hist[0] += 1
            continue
        v = _value(counter, p)
        hist[v] += 1
        total += v**k
    for bound in remaining:
        reports.append(snapshot(bound))
    return reports


def trace_to_csv(reports: list[MomentReport]) -> str:
    """CSV with columns x, pi_x, empirical, predicted, rel_err."""
    lines = ["x,pi_x,empirical,predicted,rel_err"]
    for r in reports:
        predicted = "" if r.predicted is None else f"{float(r.predicted):.10g}"
        rel = "" if r.rel_err is None else f"{r.rel_err:.6g}"
        lines.append(f"{r.x},{r.pi_x},{float(r.empirical):.10g},{predicted},{rel}")
    return "\n".join(lines) + "\n"
