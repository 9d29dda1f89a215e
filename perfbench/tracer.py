"""Per-layer tracing by wrapping tnormcat functions from outside the package.

``Tracer.install`` replaces each function listed in SPANS or COUNTS by a
wrapper, in its defining module and in every other ``tnormcat`` module that
binds the same object by name (``check_c1`` is also bound in ``cli`` and
``completeness``; ``apply`` also in ``categories``).  ``uninstall`` puts the
originals back.

A SPANS function records a span per call: id, parent span id, job, name,
start and end (ns).  A call made while the innermost open span belongs to the
same function is folded into that span, so recursion (``to_jsonable``) is one
span.  A COUNTS function is counted only, because it runs millions of times.
Probes attached to some functions add exact counts taken from arguments and
results (grid points, candidates, triples, power sizes, Cauchy cycles).

Spans stay in memory; ``write_spans`` writes one pass's spans out at the
end of a run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter

SPANS = {
    "tnorms": ("check_c1", "check_c2", "verify_tnorm_axioms", "extract_intervals"),
    "categories": ("check_ccc", "enumerate_categories", "exponential",
                   "enumerate_functors", "validate", "counterexample"),
    "completeness": ("check_power_completeness", "is_cauchy_complete", "find_bilimit"),
    "jsonio": ("load_tnorm", "load_category", "to_jsonable"),
    "cli": ("main",),
}
COUNTS = {
    "tnorms": ("apply", "residuum"),
    "completeness": ("tail_value", "is_cauchy", "is_forward_cauchy"),
}


def _grid_points(counts, args, kwargs, result):
    counts["tnorms.grid_points"] += len(set(args[1] if len(args) > 1 else kwargs["grid"]))


def _enumerate_categories(counts, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    size = args[2] if len(args) > 2 else kwargs["size"]
    counts["categories.enumerate_categories.candidates"] += len(set(grid)) ** (size * (size - 1))
    counts["categories.enumerate_categories.kept"] += len(result)


def _exponential(counts, args, kwargs, result):
    size = len(result)
    counts["categories.power_size.total"] += size
    counts["categories.power_size.max"] = max(counts["categories.power_size.max"], size)


def _check_ccc(counts, args, kwargs, result):
    counts["categories.check_ccc.triples"] += result.triples_checked


def _is_cauchy(counts, args, kwargs, result):
    counts["completeness.is_cauchy.cauchy"] += result is None


PROBES = {
    "tnorms.check_c1": _grid_points,
    "tnorms.check_c2": _grid_points,
    "tnorms.verify_tnorm_axioms": _grid_points,
    "categories.enumerate_categories": _enumerate_categories,
    "categories.exponential": _exponential,
    "categories.check_ccc": _check_ccc,
    "completeness.is_cauchy": _is_cauchy,
}

# (metric, unit) in report order; ``pass_metrics`` computes all but the last
LAYER_METRICS = (
    ("tnorms.check_c1.busy_ms", "ms"),
    ("tnorms.check_c2.busy_ms", "ms"),
    ("tnorms.verify_tnorm_axioms.busy_ms", "ms"),
    ("tnorms.extract_intervals.busy_ms", "ms"),
    ("tnorms.apply.calls", "count"),
    ("tnorms.residuum.calls", "count"),
    ("tnorms.grid_points", "count"),
    ("categories.check_ccc.self_ms", "ms"),
    ("categories.check_ccc.triples", "count"),
    ("categories.enumerate_categories.busy_ms", "ms"),
    ("categories.enumerate_categories.candidates", "count"),
    ("categories.enumerate_categories.kept", "count"),
    ("categories.enumerate_categories.kept_ratio", "ratio"),
    ("categories.exponential.busy_ms", "ms"),
    ("categories.exponential.calls", "count"),
    ("categories.enumerate_functors.busy_ms", "ms"),
    ("categories.validate.busy_ms", "ms"),
    ("categories.validate.calls", "count"),
    ("categories.power_size.mean", "elements"),
    ("categories.power_size.max", "elements"),
    ("categories.counterexample.busy_ms", "ms"),
    ("completeness.check_power_completeness.self_ms", "ms"),
    ("completeness.is_cauchy_complete.busy_ms", "ms"),
    ("completeness.find_bilimit.busy_ms", "ms"),
    ("completeness.find_bilimit.calls", "count"),
    ("completeness.tail_value.calls", "count"),
    ("completeness.is_cauchy.calls", "count"),
    ("completeness.is_forward_cauchy.calls", "count"),
    ("completeness.cauchy_ratio", "ratio"),
    ("completeness.c1_cache.hit_ratio", "ratio"),
    ("jsonio.load.busy_ms", "ms"),
    ("jsonio.to_jsonable.busy_ms", "ms"),
    ("jsonio.report_bytes", "bytes"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Spans and counts for one traced pass; ``reset`` starts the next one."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module object
        self.installed: list = []  # (module, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.spans: list = []  # (id, parent, job, name, start_ns, end_ns)
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list = []  # (span id, name) of open spans
        cache = self._c1_cache()
        self._cache_start = cache.cache_info() if cache else None

    def _c1_cache(self):
        fn = getattr(self.modules["completeness"], "_c1_on_canonical_grid", None)
        return fn if hasattr(fn, "cache_info") else None

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        probe = PROBES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            spans = self.spans
            sid = len(spans)
            spans.append(None)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, stack[-1][0] if stack else -1, self.job, name, start, end)
            if probe:
                probe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        probe = PROBES.get(name)
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            result = fn(*args, **kwargs)
            if probe:
                probe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tnormcat" or name.startswith("tnormcat."))]
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for layer, names in table.items():
                for attr in names:
                    original = getattr(self.modules[layer], attr)
                    wrapper = make(f"{layer}.{attr}", original)
                    for module in package:
                        for bound, value in list(vars(module).items()):
                            if value is original:
                                self.installed.append((module, bound, original))
                                setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for module, bound, original in reversed(self.installed):
            setattr(module, bound, original)
        self.installed.clear()

    # -- results ----------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count of this pass; identical for every pass of one seed."""
        out = dict(self.counts)
        for _, _, _, name, _, _ in self.spans:
            key = name + ".calls"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def timings(self) -> tuple[Counter, Counter]:
        """busy (inclusive) and self ms per span name, for this pass."""
        child = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, own = Counter(), Counter()
        for sid, _, _, name, start, end in self.spans:
            busy[name] += end - start
            own[name] += end - start - child[sid]
        return (Counter({k: v / 1e6 for k, v in busy.items()}),
                Counter({k: v / 1e6 for k, v in own.items()}))

    def cache_hit_ratio(self) -> float:
        cache = self._c1_cache()
        if cache is None or self._cache_start is None:
            return 0.0
        now = cache.cache_info()
        hits = now.hits - self._cache_start.hits
        calls = hits + now.misses - self._cache_start.misses
        return hits / calls if calls else 0.0


def pass_metrics(tracer: Tracer, report_bytes: int) -> dict:
    """Layer metrics of one traced pass (without the overhead ratio)."""
    busy, own = tracer.timings()
    c = tracer.exact_counts()

    def ratio(num, den):
        return num / den if den else 0.0

    exp_calls = c.get("categories.exponential.calls", 0)
    values = {
        "tnorms.check_c1.busy_ms": busy["tnorms.check_c1"],
        "tnorms.check_c2.busy_ms": busy["tnorms.check_c2"],
        "tnorms.verify_tnorm_axioms.busy_ms": busy["tnorms.verify_tnorm_axioms"],
        "tnorms.extract_intervals.busy_ms": busy["tnorms.extract_intervals"],
        "tnorms.apply.calls": c.get("tnorms.apply.calls", 0),
        "tnorms.residuum.calls": c.get("tnorms.residuum.calls", 0),
        "tnorms.grid_points": c.get("tnorms.grid_points", 0),
        "categories.check_ccc.self_ms": own["categories.check_ccc"],
        "categories.check_ccc.triples": c.get("categories.check_ccc.triples", 0),
        "categories.enumerate_categories.busy_ms": busy["categories.enumerate_categories"],
        "categories.enumerate_categories.candidates":
            c.get("categories.enumerate_categories.candidates", 0),
        "categories.enumerate_categories.kept": c.get("categories.enumerate_categories.kept", 0),
        "categories.enumerate_categories.kept_ratio": ratio(
            c.get("categories.enumerate_categories.kept", 0),
            c.get("categories.enumerate_categories.candidates", 0)),
        "categories.exponential.busy_ms": busy["categories.exponential"],
        "categories.exponential.calls": exp_calls,
        "categories.enumerate_functors.busy_ms": busy["categories.enumerate_functors"],
        "categories.validate.busy_ms": busy["categories.validate"],
        "categories.validate.calls": c.get("categories.validate.calls", 0),
        "categories.power_size.mean": ratio(c.get("categories.power_size.total", 0), exp_calls),
        "categories.power_size.max": c.get("categories.power_size.max", 0),
        "categories.counterexample.busy_ms": busy["categories.counterexample"],
        "completeness.check_power_completeness.self_ms":
            own["completeness.check_power_completeness"],
        "completeness.is_cauchy_complete.busy_ms": busy["completeness.is_cauchy_complete"],
        "completeness.find_bilimit.busy_ms": busy["completeness.find_bilimit"],
        "completeness.find_bilimit.calls": c.get("completeness.find_bilimit.calls", 0),
        "completeness.tail_value.calls": c.get("completeness.tail_value.calls", 0),
        "completeness.is_cauchy.calls": c.get("completeness.is_cauchy.calls", 0),
        "completeness.is_forward_cauchy.calls": c.get("completeness.is_forward_cauchy.calls", 0),
        "completeness.cauchy_ratio": ratio(c.get("completeness.is_cauchy.cauchy", 0),
                                           c.get("completeness.is_cauchy.calls", 0)),
        "completeness.c1_cache.hit_ratio": tracer.cache_hit_ratio(),
        "jsonio.load.busy_ms": busy["jsonio.load_tnorm"] + busy["jsonio.load_category"],
        "jsonio.to_jsonable.busy_ms": busy["jsonio.to_jsonable"],
        "jsonio.report_bytes": report_bytes,
        "cli.main.self_ms": own["cli.main"],
    }
    return values


def median_metrics(passes: list) -> dict:
    """Median over passes of each metric (counts are equal in every pass)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def write_spans(path, spans: list) -> None:
    """One JSON object per span; ``parent`` is -1 for a span with no parent."""
    with open(path, "w") as fh:
        for sid, parent, job, name, start, end in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                 "start_ns": start, "end_ns": end}) + "\n")
