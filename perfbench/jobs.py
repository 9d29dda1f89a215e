"""Seeded inputs for the three benchmark workloads.

A workload is one pass: a fixed-size list of jobs, each one call of
``tnormcat.cli.main`` that writes its report with ``-o``.  Every input file is
generated from the seed and written under the run's work directory; the same
seed always gives byte-identical inputs.

How much work one pass does is fixed by design, so that runs with different
seeds measure the same amount of work:

* ``ccc-sweep``: every grid has four points, so ``max-size 2`` always yields
  1 + 4**2 = 17 categories and 17**3 triples.  The seed picks the two
  interior grid points, the norm (half ``minimum``, half
  ``interval-collapse``) and its interval.
* ``tnorm-conditions``: each family gets one norm per canonical-grid size in
  COND_POINTS.  The seed picks the collapsing interval, and with it the
  resolution that gives the grid size.
* ``power-completeness``: base/fiber pairs come from a catalogue of shapes
  (matrices of symbolic levels) that is the same for every seed.  The seed
  maps the levels to rationals by an order-preserving map, names the
  elements, and assigns the norm.  Functors, power sizes and Cauchy cycles
  depend only on the order of the hom values, so the work per pass is fixed.

The seed also fixes the job order.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("ccc-sweep", "tnorm-conditions", "power-completeness")

PASSING = ("minimum", "interval-collapse")
FAILING = ("product", "lukasiewicz", "nilpotent-minimum")
ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)

CCC_JOBS = 26  # jobs per pass, half minimum and half interval-collapse
# canonical-grid sizes: one norm per family at each; the C1-failing ones also
# get a ccc-suite job.  The resolution is chosen to hit the size.
COND_POINTS = tuple(range(18, 27))
# (min |power|, max |power|, every power element isomorphic, pairs per pass);
# a fully isomorphic power makes every cycle Cauchy, the costliest case
PC_QUOTAS = ((1, 2, False, 3), (3, 4, False, 3), (5, 8, False, 3), (9, 9, False, 7),
             (9, 9, True, 2))
PC_IC_INTERVAL = (Fraction(1, 4), Fraction(1, 2))
PC_LEVELS = 5  # symbolic hom levels 0..4; 0 is the value 0 and 4 is the value 1


@dataclass
class Job:
    """One call of ``tnormcat.cli.main`` and what its report must show."""

    name: str
    argv: list
    report: Path
    expect: dict
    warmup: bool = False


def rational_pool(max_den: int) -> list:
    """Distinct rationals strictly inside (0, 1) with denominator <= max_den."""
    return sorted({Fraction(n, d) for d in range(2, max_den + 1) for n in range(1, d)})


def tnorm_spec(family: str, intervals=()) -> dict:
    spec = {"family": family}
    if family == "interval-collapse":
        spec["intervals"] = [[str(a), str(b)] for a, b in intervals]
    return spec


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


class _JobList:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}/{seed}")
        self.inputs = workdir / "inputs"
        self.reports = workdir / "reports"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.reports.mkdir(parents=True, exist_ok=True)
        self.jobs: list[Job] = []

    def add(self, argv: list, expect: dict, warmup: bool = False) -> Job:
        name = f"job{len(self.jobs):03d}"
        report = self.reports / f"{name}.json"
        job = Job(name, list(argv) + ["-o", str(report)], report, expect, warmup)
        self.jobs.append(job)
        return job

    def tnorm_file(self, name: str, spec: dict) -> str:
        return _write(self.inputs / f"{name}-tnorm.json", spec)


def _random_interval(rng: random.Random) -> tuple:
    """An interval [a, b] with 0 <= a < b < 1."""
    return tuple(sorted(rng.sample([ZERO] + rational_pool(10), 2)))


def build_ccc_sweep(b: _JobList, smoke: bool) -> None:
    pool = rational_pool(12)
    count = 2 if smoke else CCC_JOBS
    families = ["minimum", "interval-collapse"] * (count // 2)
    b.rng.shuffle(families)
    for k, family in enumerate(families):
        lo, hi = sorted(b.rng.sample(pool, 2))
        grid = [ZERO, lo, hi, ONE]
        intervals = [b.rng.choice([(grid[0], lo), (grid[0], hi), (lo, hi)])] \
            if family == "interval-collapse" else []
        spec = tnorm_spec(family, intervals)
        path = b.tnorm_file(f"ccc{k:02d}", spec)
        b.add(
            ["ccc-suite", path, "--values", ",".join(map(str, grid)), "--max-size", "2"],
            {"kind": "ccc-suite", "tnorm": spec, "grid": [str(v) for v in grid]},
            warmup=k == families.index("minimum"),
        )


def canonical_grid_size(spec: dict, n: int) -> int:
    """Size of breakpoints + {k/n} + midpoints of consecutive breakpoints."""
    breaks = {ZERO, ONE}
    if spec["family"] == "nilpotent-minimum":
        breaks.add(HALF)
    for a, b in spec.get("intervals", []):
        breaks.update((Fraction(a), Fraction(b)))
    ordered = sorted(breaks)
    points = set(ordered) | {Fraction(k, n) for k in range(n + 1)}
    points.update((a + b) / 2 for a, b in zip(ordered, ordered[1:]))
    return len(points)


def resolution_for(spec: dict, points: int) -> int:
    """The resolution whose canonical grid size is nearest ``points`` (smallest on ties).

    Check costs grow with the cube of the grid size, and interval endpoints
    add points, so sizes rather than resolutions are held fixed.
    """
    return min(range(1, points + 1),
               key=lambda n: (abs(canonical_grid_size(spec, n) - points), n))


def build_tnorm_conditions(b: _JobList, smoke: bool) -> None:
    sizes = (9,) if smoke else COND_POINTS
    planned = []
    for family in PASSING + FAILING:
        for points in sizes:
            # one interval: a second one adds up to five grid points whose
            # cost varies with where they fall
            intervals = [_random_interval(b.rng)] if family == "interval-collapse" else []
            planned.append((tnorm_spec(family, intervals), points))
    b.rng.shuffle(planned)
    for k, (spec, points) in enumerate(planned):
        res = resolution_for(spec, points)
        path = b.tnorm_file(f"cond{k:02d}", spec)
        # warm up on the parameterless norms at the smallest size: fixed cost
        smallest = points == sizes[0]
        b.add(["check-tnorm", path, "--grid", str(res)],
              {"kind": "check-tnorm", "tnorm": spec, "resolution": res},
              warmup=smallest and spec["family"] == "minimum")
        if spec["family"] in FAILING:
            b.add(["ccc-suite", path, "--grid", str(res), "--max-size", "2"],
                  {"kind": "ccc-suite", "tnorm": spec, "resolution": res},
                  warmup=smallest and spec["family"] == "product")


# ---------------------------------------------------------------------------
# power-completeness: a fixed catalogue of level shapes


def _closure(levels):
    """Max-min transitive closure with a top diagonal: valid under every t-norm."""
    n = len(levels)
    m = [list(row) for row in levels]
    top = PC_LEVELS - 1
    for i in range(n):
        m[i][i] = top
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = min(m[i][k], m[k][j])
                if via > m[i][j]:
                    m[i][j] = via
    return tuple(tuple(row) for row in m)


def functor_maps(base, fiber) -> list:
    """Index tuples of every hom-nonexpanding map between two hom matrices."""
    n = len(base)
    return [
        images for images in itertools.product(range(len(fiber)), repeat=n)
        if all(base[i][j] <= fiber[images[i]][images[j]]
               for i in range(n) for j in range(n))
    ]


def _all_isomorphic(base, fiber, maps) -> bool:
    """Whether d(f, g) is the top level for every pair of functors."""
    top = PC_LEVELS - 1
    n = len(base)
    return all(base[i][j] <= fiber[f[i]][g[j]]
               for f in maps for g in maps for i in range(n) for j in range(n)
               if fiber[f[i]][g[j]] < top)


def _catalogue() -> list:
    """(base, fiber) level matrices filling PC_QUOTAS; the same on every run."""
    rng = random.Random("power-completeness/catalogue")
    top = PC_LEVELS - 1
    found = {quota: [] for quota in PC_QUOTAS}
    while any(len(found[q]) < q[3] for q in PC_QUOTAS):
        pair = []
        for _ in range(2):
            n = rng.randint(1, 3)
            pair.append(_closure([[rng.choice((rng.randint(0, top), top)) for _ in range(n)]
                                  for _ in range(n)]))
        maps = functor_maps(*pair)
        iso = _all_isomorphic(*pair, maps)
        for quota in PC_QUOTAS:
            lo, hi, want_iso, want = quota
            if (lo <= len(maps) <= hi and iso == want_iso and len(found[quota]) < want
                    and tuple(pair) not in found[quota]):
                found[quota].append(tuple(pair))
                break
    return [pair for quota in PC_QUOTAS for pair in found[quota]]


def _matrix_from_levels(levels, values, labels) -> dict:
    return {"elements": list(labels),
            "hom": [[str(values[v]) for v in row] for row in levels]}


def build_power_completeness(b: _JobList, smoke: bool) -> None:
    catalogue = _catalogue()
    pairs = list(enumerate(catalogue[:2] if smoke else catalogue))
    norms = list(PASSING) * ((len(pairs) + 1) // 2)
    b.rng.shuffle(pairs)
    b.rng.shuffle(norms)
    # catalogue order is smallest power first; warm up on each norm's smallest
    warm = {fam: min(i for (i, _), f in zip(pairs, norms) if f == fam) for fam in PASSING}
    pool = rational_pool(12)
    specs = {fam: tnorm_spec(fam, [PC_IC_INTERVAL] if fam == "interval-collapse" else [])
             for fam in PASSING}
    paths = {fam: b.tnorm_file(f"pc-{fam}", spec) for fam, spec in specs.items()}
    names = list("abcdefghpqrsuvwxyz")
    for k, ((index, (base_lv, fiber_lv)), family) in enumerate(zip(pairs, norms)):
        values = [ZERO] + sorted(b.rng.sample(pool, PC_LEVELS - 2)) + [ONE]
        base = _matrix_from_levels(base_lv, values, b.rng.sample(names, len(base_lv)))
        fiber = _matrix_from_levels(fiber_lv, values, b.rng.sample(names, len(fiber_lv)))
        base_path = _write(b.inputs / f"pc{k:02d}-base.json", base)
        fiber_path = _write(b.inputs / f"pc{k:02d}-fiber.json", fiber)
        common = ["--tnorm", paths[family], "--base", base_path, "--fiber", fiber_path]
        expect = {"tnorm": specs[family], "base": base, "fiber": fiber}
        # check_power_completeness caches C1 per norm: warm one job per norm
        b.add(["exp"] + common, dict(expect, kind="exp"), warmup=index == warm[family])
        b.add(["power-completeness"] + common + ["--max-size", "3"],
              dict(expect, kind="power-completeness"), warmup=index == warm[family])


JOB_LISTS = {
    "ccc-sweep": build_ccc_sweep,
    "tnorm-conditions": build_tnorm_conditions,
    "power-completeness": build_power_completeness,
}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list:
    """Write the inputs of one pass and return its jobs in run order."""
    b = _JobList(workload, seed, workdir)
    JOB_LISTS[workload](b, smoke)
    return b.jobs
