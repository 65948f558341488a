"""Span tracer for the traced benchmark run, installed from outside hyperlab.

Each traced public function is replaced, at every module binding through
which hyperlab or the benchmark calls it, by a wrapper that records a span
(name, start, end, parent) in memory.  A span's self time is its duration
minus the time of the traced calls made inside it.  The hottest leaves,
colex rank/unrank, are only counted and timed, not kept as spans: a trial
makes tens of thousands of them.

Every layer time below is a self time, so the per-layer seconds of one run
add up without double counting.  A name that a later refactor removes
yields a warning and null metrics for what depended on it alone; the
untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import sys
import warnings
from collections import Counter, defaultdict
from time import perf_counter

from workloads import quantile

LEAVES = (
    "combinatorics.rank_subset",
    "combinatorics.unrank_subset",
    "combinatorics.binomial",
    "combinatorics.falling_factorial",
)


def _observe_components(args, result, counts):
    h, comps = args[0], result[0]
    counts["edges"] += len(h.edges)
    counts["components"] += len(comps)
    counts["nonhypertree"] += sum(1 for c in comps if not c.is_hypertree)


def _observe_wheel(args, result, counts):
    counts["wheels_built"] += result is not None


def _observe_search(args, result, counts):
    counts["pops"] += len(result.pops)


def _observe_coupling(args, result, counts):
    counts["component_size"] += result[0]
    counts["branching_size"] += result[1]


# traced function -> (counts its observer fills, observer)
SPANS = {
    "hypergraph.sample": None,
    "hypergraph.sample_hypergraph": None,
    "hypergraph.Hypergraph.__post_init__": None,
    "hypergraph.read_hypergraph": None,
    "hypergraph.j_components": (("edges", "components", "nonhypertree"), _observe_components),
    "hypergraph.find_wheel": (("wheels_built",), _observe_wheel),
    "hypergraph.brute_force_wheel_census": None,
    "processes.search_component": (("pops",), _observe_search),
    "processes.coupled_run": (("component_size", "branching_size"), _observe_coupling),
    "enumeration.tj_series_fixed_point": None,
    "enumeration.lambert_power_coefficients": None,
    "enumeration.f_s": None,
    "enumeration.b_s": None,
    "enumeration.enum_report": None,
    "enumeration.exp_reciprocal_bounds": None,
    "enumeration.expected_Rs_upper": None,
    "enumeration.expected_Cs_lower_reference": None,
    "enumeration.wheel_bound_exact": None,
    "enumeration.wheel_bound": None,
    "enumeration.wheel_constant": None,
    "enumeration.unicycle_bound": None,
    "enumeration.laplace_sum_check": None,
    "enumeration.brute_force_Bs": None,
    "experiments.run_experiment": None,
    "experiments.run_trial": None,
    "experiments.csv_lines": None,
    "experiments.format_summary": None,
    "experiments.compare_to_theory": None,
    "cli.main": None,
}

# per-layer time metric -> traced functions whose self times it sums
SELF_TIMES = {
    "combinatorics.self_s": LEAVES,
    "hypergraph.sample_s": ("hypergraph.sample", "hypergraph.sample_hypergraph"),
    "hypergraph.validate_s": ("hypergraph.Hypergraph.__post_init__",),
    "hypergraph.decompose_s": ("hypergraph.j_components",),
    "hypergraph.read_s": ("hypergraph.read_hypergraph",),
    "hypergraph.wheel_s": ("hypergraph.find_wheel",),
    "hypergraph.census_s": ("hypergraph.brute_force_wheel_census",),
    "processes.search_s": ("processes.search_component",),
    "processes.couple_s": ("processes.coupled_run",),
    "enumeration.series_s": ("enumeration.tj_series_fixed_point",
                             "enumeration.lambert_power_coefficients"),
    "enumeration.tree_count_s": ("enumeration.f_s", "enumeration.b_s", "enumeration.enum_report",
                                 "enumeration.exp_reciprocal_bounds"),
    "enumeration.bound_s": ("enumeration.expected_Rs_upper", "enumeration.expected_Cs_lower_reference",
                            "enumeration.wheel_bound_exact", "enumeration.wheel_bound",
                            "enumeration.wheel_constant", "enumeration.unicycle_bound"),
    "enumeration.laplace_s": ("enumeration.laplace_sum_check",),
    "enumeration.census_s": ("enumeration.brute_force_Bs",),
    "cli.self_s": ("cli.main",),
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("combinatorics.rank_calls", "count"),
    ("combinatorics.unrank_calls", "count"),
    ("combinatorics.self_s", "s"),
    ("hypergraph.sample_s", "s"),
    ("hypergraph.validate_s", "s"),
    ("hypergraph.decompose_s", "s"),
    ("hypergraph.us_per_edge", "us"),
    ("hypergraph.edges", "count"),
    ("hypergraph.components", "count"),
    ("hypergraph.nonhypertree", "count"),
    ("hypergraph.read_s", "s"),
    ("hypergraph.wheel_s", "s"),
    ("hypergraph.wheel_calls", "count"),
    ("hypergraph.wheel_used_ratio", "ratio"),
    ("hypergraph.census_s", "s"),
    ("processes.search_s", "s"),
    ("processes.couple_s", "s"),
    ("processes.pops", "count"),
    ("processes.us_per_pop", "us"),
    ("processes.component_size", "count"),
    ("processes.branching_size", "count"),
    ("enumeration.series_s", "s"),
    ("enumeration.tree_count_s", "s"),
    ("enumeration.bound_s", "s"),
    ("enumeration.laplace_s", "s"),
    ("enumeration.census_s", "s"),
    ("experiments.trial_ms_p50", "ms"),
    ("experiments.trial_ms_p90", "ms"),
    ("experiments.overhead_s", "s"),
    ("experiments.report_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _resolve(name: str):
    """(owner, attribute, function) for "module.attr" or "module.Class.attr"."""
    parts = name.split(".")
    owner = importlib.import_module("hyperlab." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs the wrappers on `install()` and removes them on `remove()`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, child seconds]
        self.stack: list[int] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_seconds: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.broken: set[str] = set()  # counts whose observer failed
        self.found: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.leaf_calls[name] += 1
                self.leaf_seconds[name] += dt
                if self.stack:
                    self.spans[self.stack[-1]][4] += dt
        return wrapper

    def _span(self, name, fn, observer):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, perf_counter(), 0.0, parent, 0.0]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent][4] += span[2] - span[1]
            if observer is not None and not self.broken.issuperset(observer[0]):
                try:
                    observer[1](args, result, self.counts)
                except Exception as exc:  # a refactor changed the output shape
                    self.broken.update(observer[0])
                    warnings.warn(f"trace: cannot read {name} output ({exc!r}); "
                                  f"{', '.join(observer[0])} reported as null")
            return result
        return wrapper

    def _patch(self, name, make):
        try:
            owner, attr, fn = _resolve(name)
        except (ImportError, AttributeError):
            warnings.warn(f"trace: hyperlab.{name} not found; metrics depending only on it are null")
            return
        self.found.add(name)
        wrapper = make(fn)
        if isinstance(owner, type):
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hyperlab" and not mod_name.startswith("hyperlab."):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for name in LEAVES:
            self._patch(name, lambda fn, name=name: self._leaf(name, fn))
        for name, observer in SPANS.items():
            self._patch(name, lambda fn, name=name, observer=observer: self._span(name, fn, observer))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- derived metrics --------------------------------------------------

    def _self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float, self.leaf_seconds)
        for name, start, end, _, child in self.spans:
            out[name] += end - start - child
        return out

    def _durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def layer_metrics(self, counters: dict, untraced_s: float, traced_s: float) -> dict:
        """Every PER_LAYER metric; None where its source is missing."""
        selfs = self._self_seconds()

        def self_sum(names):
            return sum(selfs[n] for n in names) if self.found.intersection(names) else None

        def count(key, source):
            return None if key in self.broken or source not in self.found else self.counts[key]

        def ratio(num, den, scale=1.0):
            if num is None or den is None:
                return None
            return num / den * scale if den else 0.0

        m = {name: self_sum(names) for name, names in SELF_TIMES.items()}
        m["combinatorics.rank_calls"] = self.leaf_calls["combinatorics.rank_subset"] \
            if "combinatorics.rank_subset" in self.found else None
        m["combinatorics.unrank_calls"] = self.leaf_calls["combinatorics.unrank_subset"] \
            if "combinatorics.unrank_subset" in self.found else None
        for key in ("edges", "components", "nonhypertree"):
            m[f"hypergraph.{key}"] = count(key, "hypergraph.j_components")
        pipeline = [m[k] for k in ("hypergraph.sample_s", "hypergraph.validate_s", "hypergraph.read_s",
                                   "hypergraph.decompose_s", "combinatorics.self_s")]
        m["hypergraph.us_per_edge"] = ratio(
            None if None in pipeline else sum(pipeline), m["hypergraph.edges"], 1e6)
        wheels = "hypergraph.find_wheel"
        m["hypergraph.wheel_calls"] = len(self._durations(wheels)) if wheels in self.found else None
        built = count("wheels_built", wheels)
        # witnesses printed over witnesses built; 1 when none were built (nothing wasted)
        m["hypergraph.wheel_used_ratio"] = None if built is None else (
            counters.get("wheels_printed", 0) / built if built else 1.0)
        m["processes.pops"] = count("pops", "processes.search_component")
        m["processes.us_per_pop"] = ratio(m["processes.search_s"], m["processes.pops"], 1e6)
        for key in ("component_size", "branching_size"):
            m[f"processes.{key}"] = count(key, "processes.coupled_run")
        trials = self._durations("experiments.run_trial")
        have_trials = "experiments.run_trial" in self.found
        m["experiments.trial_ms_p50"] = quantile(trials, 0.5) * 1e3 if have_trials else None
        m["experiments.trial_ms_p90"] = quantile(trials, 0.9) * 1e3 if have_trials else None
        runs = self._durations("experiments.run_experiment")
        m["experiments.overhead_s"] = (sum(runs) - sum(trials)
                                       if have_trials and "experiments.run_experiment" in self.found
                                       else None)
        reports = ("experiments.csv_lines", "experiments.format_summary", "experiments.compare_to_theory")
        m["experiments.report_s"] = (sum(sum(self._durations(n)) for n in reports)
                                     if self.found.intersection(reports) else None)
        m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return {name: m[name] for name, _ in PER_LAYER}

