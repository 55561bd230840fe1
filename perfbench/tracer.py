"""Per-layer timing from outside the library, by patching module attributes.

Each patch replaces a name in the module where its caller looks it up
(``moment_lab.pow_mod``, not ``core_arith.pow_mod``), so the wrapper sees
every call a layer makes into another.  A name that no longer exists is
skipped and its metrics read 0, so the tracer survives refactors that
rename or delete functions.

Coarse calls (action builds, Burnside, oracle, moment evaluations) are
recorded as spans: name, start, end, parent.  Per-prime and per-point
calls are aggregated into a count and a total time instead.  Every wrapped
call reports its duration to the enclosing wrapped call, which gives each
span its self time.
"""

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute, kind).  kind is "span" for coarse
# calls, "agg" for per-item calls and "gen" for a generator whose items
# are counted and whose time is measured across its next() calls.
PATCHES = (
    ("core_arith.sieve", "moment_lab", "primes_in_range", "gen"),
    ("core_arith.pow_mod", "moment_lab", "pow_mod", "agg"),
    ("core_arith.pow_mod", "local_counts", "pow_mod", "agg"),
    ("moment_lab.moment", "moment_lab", "empirical_moment", "span"),
    ("moment_lab.trace", "moment_lab", "convergence_trace", "span"),
    ("local_counts.torsion", "moment_lab", "ec_torsion_count", "agg"),
    ("local_counts.splitting", "moment_lab", "splitting_type", "agg"),
    ("local_counts.group_data", "local_counts", "ec_group_data", "agg"),
    ("local_counts.division_poly", "local_counts", "division_polynomial", "agg"),
    ("residue_algebra.quad_mul", "orbit_engine", "quad_mul", "agg"),
    ("residue_algebra.quad_units", "orbit_engine", "quad_unit_elements", "agg"),
    ("orbit_engine.build", "orbit_engine", "build_action", "span"),
    ("orbit_engine.histogram", "orbit_engine", "fixed_point_histogram", "span"),
    ("orbit_engine.burnside", "orbit_engine", "burnside_moment", "span"),
    ("orbit_engine.oracle", "orbit_engine", "orbit_count_oracle", "span"),
) + tuple(
    ("closed_forms", module, name, "agg")
    for module in ("closed_forms", "moment_lab")
    for name in (
        "mk",
        "dk",
        "gl2_moment",
        "cm_moment",
        "inert_partial_moment",
        "split_densities",
    )
)

# Per-layer metrics in report order, with their units.
LAYER_METRICS = (
    ("core_arith.sieve_s", "s"),
    ("core_arith.primes", "count"),
    ("core_arith.pow_mod_s", "s"),
    ("core_arith.pow_mod_calls", "count"),
    ("moment_lab.moment_s", "s"),
    ("moment_lab.trace_s", "s"),
    ("moment_lab.accumulate_self_s", "s"),
    ("moment_lab.valued_ratio", "ratio"),
    ("local_counts.torsion_s", "s"),
    ("local_counts.torsion_calls", "count"),
    ("local_counts.group_data_s", "s"),
    ("local_counts.group_data_misses", "count"),
    ("local_counts.group_data_hit_ratio", "ratio"),
    ("local_counts.division_poly_calls", "count"),
    ("local_counts.splitting_s", "s"),
    ("local_counts.splitting_calls", "count"),
    ("residue_algebra.quad_s", "s"),
    ("residue_algebra.quad_mul_calls", "count"),
    ("orbit_engine.build_s", "s"),
    ("orbit_engine.build_self_s", "s"),
    ("orbit_engine.elements_materialized", "count"),
    ("orbit_engine.perm_bytes", "bytes"),
    ("orbit_engine.histogram_s", "s"),
    ("orbit_engine.burnside_s", "s"),
    ("orbit_engine.oracle_s", "s"),
    ("orbit_engine.oracle_tuples", "count"),
    ("orbit_engine.generator_only_actions", "count"),
    ("closed_forms.s", "s"),
    ("closed_forms.calls", "count"),
    ("trace_overhead_s", "s"),
)


class Tracer:
    """Installs the patches, collects spans and totals, and removes the patches."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []  # [span index or None, child seconds] per active call
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self.extra = Counter()
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        for prefix, module_name, attr, kind in PATCHES:
            module = getattr(self.package, module_name, None)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                continue
            wrapper = self._wrap(prefix, original, kind)
            setattr(module, attr, wrapper)
            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- recording ----------------------------------------------------------

    def _enter(self, name, start, record_span):
        index = None
        if record_span:
            parent = self._current_span()
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        self.stack.append([index, 0.0])

    def _exit(self, prefix, start):
        end = time.perf_counter()
        elapsed = end - start
        index, child = self.stack.pop()
        if index is not None:
            self.spans[index][2] = end
        self.seconds[prefix] += elapsed
        self.self_seconds[prefix] += elapsed - child
        self.calls[prefix] += 1
        if self.stack:
            self.stack[-1][1] += elapsed

    def _current_span(self):
        for index, _ in reversed(self.stack):
            if index is not None:
                return index
        return None

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one operation."""
        start = time.perf_counter()
        self._enter(name, start, True)
        try:
            yield
        finally:
            self._exit(name, start)

    def _wrap(self, prefix, fn, kind):
        if kind == "gen":
            return self._wrap_generator(prefix, fn)
        if prefix in _CACHED:
            return self._wrap_cached(prefix, fn)
        observe = _OBSERVERS.get(prefix)
        record_span = kind == "span"

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            self._enter(prefix, start, record_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(prefix, start)
            if observe is not None:
                observe(self.extra, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_cached(self, prefix, fn):
        # A miss is a call the function's own cache did not answer; without
        # a cache every call is a miss.
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            before = cache_info().misses if cache_info else 0
            start = time.perf_counter()
            self._enter(prefix, start, False)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(prefix, start)
                self.extra[prefix + ".misses"] += (
                    cache_info().misses - before if cache_info else 1
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, prefix, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            self._enter(prefix, start, False)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(prefix, start)
            if not inspect.isgenerator(result):
                self.extra[prefix + ".items"] += _length(result)
                return result
            return self._timed_items(prefix, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_items(self, prefix, gen):
        items = 0
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - start
                    self.seconds[prefix] += elapsed
                    if self.stack:
                        self.stack[-1][1] += elapsed
                items += 1
                yield item
        finally:
            self.extra[prefix + ".items"] += items

    # -- results ------------------------------------------------------------

    def layer_metrics(self, primes_streamed: int) -> dict:
        """Every per-layer metric except trace_overhead_s, 0 where nothing ran."""
        s, self_s, calls, extra = self.seconds, self.self_seconds, self.calls, self.extra
        group_calls = calls["local_counts.group_data"]
        group_misses = extra["local_counts.group_data.misses"]
        valued = calls["core_arith.pow_mod"] + calls["local_counts.torsion"]
        return {
            "core_arith.sieve_s": s["core_arith.sieve"],
            "core_arith.primes": extra["core_arith.sieve.items"],
            "core_arith.pow_mod_s": s["core_arith.pow_mod"],
            "core_arith.pow_mod_calls": calls["core_arith.pow_mod"],
            "moment_lab.moment_s": s["moment_lab.moment"],
            "moment_lab.trace_s": s["moment_lab.trace"],
            "moment_lab.accumulate_self_s": self_s["moment_lab.moment"]
            + self_s["moment_lab.trace"],
            "moment_lab.valued_ratio": valued / primes_streamed if primes_streamed else 0.0,
            "local_counts.torsion_s": s["local_counts.torsion"],
            "local_counts.torsion_calls": calls["local_counts.torsion"],
            "local_counts.group_data_s": s["local_counts.group_data"],
            "local_counts.group_data_misses": group_misses,
            "local_counts.group_data_hit_ratio": (
                (group_calls - group_misses) / group_calls if group_calls else 0.0
            ),
            "local_counts.division_poly_calls": calls["local_counts.division_poly"],
            "local_counts.splitting_s": s["local_counts.splitting"],
            "local_counts.splitting_calls": calls["local_counts.splitting"],
            "residue_algebra.quad_s": s["residue_algebra.quad_mul"]
            + s["residue_algebra.quad_units"],
            "residue_algebra.quad_mul_calls": calls["residue_algebra.quad_mul"],
            "orbit_engine.build_s": s["orbit_engine.build"],
            "orbit_engine.build_self_s": self_s["orbit_engine.build"],
            "orbit_engine.elements_materialized": extra["orbit_engine.build.elements"],
            "orbit_engine.perm_bytes": extra["orbit_engine.build.perm_bytes"],
            "orbit_engine.histogram_s": s["orbit_engine.histogram"],
            "orbit_engine.burnside_s": s["orbit_engine.burnside"],
            "orbit_engine.oracle_s": s["orbit_engine.oracle"],
            "orbit_engine.oracle_tuples": extra["orbit_engine.oracle.tuples"],
            "orbit_engine.generator_only_actions": extra["orbit_engine.build.generator_only"],
            "closed_forms.s": s["closed_forms"],
            "closed_forms.calls": calls["closed_forms"],
        }

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _length(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


def _observe_build(extra, args, kwargs, action):
    perms = getattr(action, "perms", None)
    if perms is None:
        extra["orbit_engine.build.generator_only"] += 1
    else:
        extra["orbit_engine.build.elements"] += int(perms.shape[0])
        extra["orbit_engine.build.perm_bytes"] += int(perms.nbytes)


def _observe_oracle(extra, args, kwargs, result):
    action = args[0] if args else kwargs.get("action")
    k = args[1] if len(args) > 1 else kwargs.get("k")
    if action is not None and k is not None:
        extra["orbit_engine.oracle.tuples"] += action.size**k


_CACHED = frozenset({"local_counts.group_data"})

_OBSERVERS = {
    "orbit_engine.build": _observe_build,
    "orbit_engine.oracle": _observe_oracle,
}
