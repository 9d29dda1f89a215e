#!/usr/bin/env python3
"""tnormcat benchmark: seeded jobs through ``tnormcat.cli.main``, in-process.

    python3 perfbench/run.py --workload ccc-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread, a closed loop with one caller: each job starts when
the previous one returns.  The package is imported from ``src/`` of the
checkout that holds this file; without it the benchmark exits with code 2
and prints no result.

A run sets up ``SETUP_REPEATS`` times (import, input generation and writing,
warm-up) and reports the median as ``setup_s``.  It then runs whole passes
over the seeded job list until ``--seconds`` is used up, and at least
``MIN_SAMPLES`` jobs, so that ten samples lie beyond the 90th percentile.
Every job's report is checked by ``gate.check`` the first time it runs; later
runs of the same job must give the same report digest (``timing_ms``
removed).  The digests, and in traced runs the exact counts, are also
compared with any earlier run of the same seed and code, kept under
``.perfbench/determinism``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (at least two of each) and reports the per-layer
metrics of ``tracer.LAYER_METRICS``; the spans of the first traced pass are
written to ``.perfbench/<workload>-<seed>/spans.jsonl``.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import gate
import jobs as joblib
import tracer as tracelib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAYERS = ("tnorms", "categories", "completeness", "jsonio", "cli")
SETUP_REPEATS = 5
MIN_SAMPLES = 100
MIN_TRACED_PASSES = 2
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_kref", "1/kref"),
    ("job_p50_ref", "ref"),
    ("job_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
REF_POINTS = tuple(Fraction(k, 12) for k in range(13))


class SourceMissing(RuntimeError):
    pass


def import_tnormcat() -> dict:
    """Import the package afresh from this checkout's ``src/``."""
    if not (SRC / "tnormcat" / "__init__.py").is_file():
        raise SourceMissing(f"no tnormcat package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "tnormcat" or m.startswith("tnormcat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {layer: importlib.import_module(f"tnormcat.{layer}") for layer in LAYERS}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"tnormcat was imported from {modules['cli'].__file__}")
    return modules


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Outcome:
    """Attempted and failed jobs, and the report digest of each job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.notes: dict = {}  # job name -> findings that do not fail it
        self.digests: dict = {}

    def fail(self, where: str, problems: list) -> None:
        self.failed += 1
        self.problems.extend(f"{where}: {p}" for p in problems)

    def execute(self, main, job) -> tuple[float, int]:
        """Run one job; return its latency (s) and report size without timing."""
        job.report.unlink(missing_ok=True)
        # each job starts on a collected heap, as a fresh CLI process would,
        # so no job pays for the garbage of the ones before it
        gc.collect()
        start = time.perf_counter()
        try:
            code = main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = repr(exc)
        latency = time.perf_counter() - start
        self.attempted += 1
        try:
            text = job.report.read_text()
            report = json.loads(text)
        except (OSError, ValueError):
            text, report = "", None
        if not isinstance(report, dict):
            report = None
        size = len(text.encode()) - len(str(report.get("timing_ms"))) if report else 0
        if job.name not in self.digests:
            problems = gate.check(job, code, report)
            if problems.notes:
                self.notes[job.name] = problems.notes
            if problems:
                self.fail(job.name, problems)
            else:
                self.digests[job.name] = gate.digest(report)
        elif report is None or gate.digest(report) != self.digests[job.name]:
            self.fail(job.name, [f"report differs from its first run (exit {code})"])
        return latency, size


def run_pass(modules: dict, jobs: list, outcome: Outcome, tracer=None):
    """One pass over the job list: latencies (s) and total report bytes."""
    latencies, nbytes = [], 0
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        latency, size = outcome.execute(modules["cli"].main, job)
        latencies.append(latency)
        nbytes += size
    return latencies, nbytes


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Import, generate and write inputs, warm up; repeated, median reported."""
    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        modules = import_tnormcat()
        jobs = joblib.build(workload, seed, workdir, smoke)
        outcome = Outcome()
        for job in jobs:
            if job.warmup:
                outcome.execute(modules["cli"].main, job)
        times.append(time.perf_counter() - start)
    return modules, jobs, outcome, statistics.median(times)


def check_against_earlier(path: Path, record: dict, outcome: Outcome) -> None:
    """Compare digests and counts with an earlier run of the same seed and code."""
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in record.items():
        if key in earlier and earlier[key] != value:
            diff = sorted(k for k in set(value) | set(earlier[key])
                          if value.get(k) != earlier[key].get(k))
            outcome.fail("determinism", [f"{key} differ from an earlier run: {diff[:5]}"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**earlier, **record}, indent=1, sort_keys=True) + "\n")


def reference_loop() -> float:
    """Seconds taken by a fixed loop of Fraction compares and adds.

    The loop uses only the standard library, so no change to tnormcat can
    move it: it moves with the speed the host gives this process.  Garbage
    collection is off inside it, so the previous job's garbage does not
    land in it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = REF_POINTS[0]
        for p in REF_POINTS:
            for q in REF_POINTS:
                m = p if p <= q else q
                if m + p > q:
                    acc += m
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure(modules, jobs, outcome, seconds: float, min_samples: int) -> dict:
    """Untraced passes; each job's cost is its latency in reference-loop times.

    The reference loop runs before the first job and after every job; a job's
    cost divides its latency by the mean of the loops on either side of it.
    """
    latencies, costs, rates = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        refs, pass_lat = [reference_loop()], []
        for job in jobs:
            pass_lat.append(outcome.execute(modules["cli"].main, job)[0])
            refs.append(reference_loop())
        pass_costs = [lat * 2 / (a + b) for lat, a, b in zip(pass_lat, refs, refs[1:])]
        latencies.extend(pass_lat)
        costs.extend(pass_costs)
        rates.append(1000 * len(jobs) / sum(pass_costs))
        now = time.perf_counter()
        if len(costs) >= min_samples and now - start + (now - pass_start) / 2 >= seconds:
            break
    deciles = statistics.quantiles(costs, n=10)
    wall = statistics.quantiles(latencies, n=10)
    return {
        "jobs_per_kref": statistics.median(rates),
        "job_p50_ref": statistics.median(costs),
        "job_p90_ref": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "_samples": len(costs),
        "_beyond_p90": sum(x > deciles[8] for x in costs),
        "_passes": len(rates),
        "_wall": f"wall clock: {len(latencies) / sum(latencies):.4g} jobs/s, "
                 f"p50 {statistics.median(latencies) * 1e3:.4g} ms, p90 {wall[8] * 1e3:.4g} ms",
    }


def measure_traced(modules, jobs, outcome, seconds: float, workdir: Path,
                   min_passes: int) -> tuple[dict, dict]:
    tracer = tracelib.Tracer(modules)
    per_pass, overheads, counts, first_spans = [], [], None, None
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = sum(run_pass(modules, jobs, outcome)[0])
        tracer.reset()
        tracer.install()
        try:
            traced_start = time.perf_counter()
            _, nbytes = run_pass(modules, jobs, outcome, tracer)
            traced = time.perf_counter() - traced_start
        finally:
            tracer.uninstall()
        if first_spans is None:
            first_spans = tracer.spans
        overheads.append(traced / plain)
        per_pass.append(tracelib.pass_metrics(tracer, nbytes))
        exact = tracer.exact_counts()
        if counts is None:
            counts = exact
        elif exact != counts:
            outcome.fail("determinism", ["exact counts differ between traced passes"])
        now = time.perf_counter()
        if len(per_pass) >= min_passes and now - start + (now - pair_start) / 2 >= seconds:
            break
    tracelib.write_spans(workdir / "spans.jsonl", first_spans)
    metrics = tracelib.median_metrics(per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    metrics["_passes"] = len(per_pass)
    return metrics, counts


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workdir = WORK / f"{workload}-{seed}"
    modules, jobs, outcome, setup_s = setup(workload, seed, workdir, smoke)
    if trace:
        values, counts = measure_traced(modules, jobs, outcome, seconds, workdir,
                                        1 if smoke else MIN_TRACED_PASSES)
        units = dict(tracelib.LAYER_METRICS)
        record = {"reports": outcome.digests, "counts": counts}
    else:
        values = measure(modules, jobs, outcome, seconds, 1 if smoke else MIN_SAMPLES)
        values["setup_s"] = setup_s
        units = dict(END_TO_END)
        record = {"reports": outcome.digests}
    if not smoke:
        check_against_earlier(
            WORK / "determinism" / f"{workload}-seed{seed}-{code_hash()}.json", record, outcome)
    print(f"workload {workload}  seed {seed}  jobs/pass {len(jobs)}  "
          f"passes {values['_passes']}  attempted {outcome.attempted}  failed {outcome.failed}")
    if "_samples" in values:
        print(f"cost samples {values['_samples']}, {values['_beyond_p90']} beyond p90; "
              f"{values['_wall']}")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':48s} {outcome.failed / max(outcome.attempted, 1):>14.6g} ratio")
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}")
    for name, notes in sorted(outcome.notes.items()):
        print(f"NOTE {name}: {'; '.join(notes)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def smoke() -> int:
    """Tiny run of every workload in both modes; checks every metric is emitted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for workload in joblib.WORKLOADS:
        for trace in (0, 1):
            result = run(workload, 0, 0, bool(trace), smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = got == want[trace] and result["correct"]
            bad += not ok
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks the metric names")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
