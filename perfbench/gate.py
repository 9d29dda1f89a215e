"""Correctness gate: checks one job's report against the theorem.

Nothing here calls tnormcat.  Every expectation is recomputed from the job's
inputs with the closed-form family formulas and brute-force suprema below:

* C1, C2, C3-form and ``ccc`` pass iff the family is ``minimum`` or
  ``interval-collapse``; the agreement row always passes;
  ``power-completeness`` passes (its norms pass C1).  The axiom row is grid
  evidence the theorem does not decide: it may fail only uncertified, and
  such a failure is returned as a note.
* Every C1 and C2 witness is replayed: both sides are recomputed and must
  match the report and differ as the condition requires.
* Every counterexample bundle is replayed: its d values are recomputed as
  brute-force suprema, and ``capped_lhs > capped_rhs`` must hold.
* ``exp`` must list exactly the hom-nonexpanding maps, and sampled entries of
  its hom matrix must equal the brute-force supremum.

``check`` returns a list of problems, with the notes in its ``notes``
attribute; an empty list means the report passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from jobs import canonical_grid_size, functor_maps

PASSING = ("minimum", "interval-collapse")
ONE, ZERO = Fraction(1), Fraction(0)
EXP_SAMPLES = 6


def _intervals(spec) -> list:
    return [(Fraction(a), Fraction(b)) for a, b in spec.get("intervals", [])]


def tnorm_value(spec: dict, p: Fraction, q: Fraction) -> Fraction:
    """p & q from the family's defining formula."""
    family = spec["family"]
    if family == "minimum":
        return min(p, q)
    if family == "product":
        return p * q
    if family == "lukasiewicz":
        return max(p + q - ONE, ZERO)
    if family == "nilpotent-minimum":
        return min(p, q) if p + q > ONE else ZERO
    for a, b in _intervals(spec):
        if a <= p <= b and a <= q <= b:
            return a
    return min(p, q)


def digest(report: dict) -> str:
    """sha256 of the report without its timing field."""
    body = {k: v for k, v in report.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class _Problems(list):
    """Problems found; ``notes`` holds findings that do not fail the job."""

    def __init__(self):
        super().__init__()
        self.notes: list = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def _replay_c1(spec, witness, problems: _Problems) -> None:
    p, q, u = map(Fraction, witness["values"])
    lhs = min(tnorm_value(spec, p, q), u)
    rhs = max(tnorm_value(spec, min(p, u), q), tnorm_value(spec, p, min(q, u)))
    problems.expect(lhs != rhs, f"C1 witness {witness['values']} does not violate C1")
    problems.expect((Fraction(witness["lhs"]), Fraction(witness["rhs"])) == (lhs, rhs),
                    f"C1 witness sides {witness['lhs']},{witness['rhs']} != {lhs},{rhs}")


def _replay_c2(spec, witness, problems: _Problems) -> None:
    p, u = map(Fraction, witness["values"])
    up = tnorm_value(spec, u, p)
    problems.expect(u <= tnorm_value(spec, p, p) and up != u,
                    f"C2 witness {witness['values']} does not violate C2")
    problems.expect((Fraction(witness["lhs"]), Fraction(witness["rhs"])) == (up, u),
                    f"C2 witness sides {witness['lhs']},{witness['rhs']} != {up},{u}")


def _hom(cat: dict) -> tuple[list, list]:
    return cat["elements"], [[Fraction(v) for v in row] for row in cat["hom"]]


def sup_hom(base: dict, fiber: dict, f: list, g: list) -> Fraction:
    """max q in {0, 1, hom values} with q ∧ hom(x,y) <= hom(f x, g y) for all x, y."""
    _, bh = _hom(base)
    labels, fh = _hom(fiber)
    fi = [labels.index(v) for v in f]
    gi = [labels.index(v) for v in g]
    candidates = {ZERO, ONE}
    for rows in (bh, fh):
        for row in rows:
            candidates.update(row)
    n = len(bh)
    return max(
        q for q in candidates
        if all(min(q, bh[i][j]) <= fh[fi[i]][gi[j]] for i in range(n) for j in range(n))
    )


def _check_bundle(spec, bundle, c1_witness, problems: _Problems) -> None:
    values = [bundle["p"], bundle["q"], bundle["u"]]
    problems.expect(values == c1_witness["values"],
                    f"bundle triple {values} is not the C1 witness")
    u = Fraction(bundle["u"])
    d = {name: sup_hom(bundle["base"], bundle["fiber"], bundle[a], bundle[b])
         for name, a, b in (("d_fg", "f", "g"), ("d_gh", "g", "h"), ("d_fh", "f", "h"))}
    for name, value in d.items():
        problems.expect(Fraction(bundle[name]) == value,
                        f"bundle {name}={bundle[name]} but the supremum is {value}")
    capped_lhs = min(tnorm_value(spec, d["d_fg"], d["d_gh"]), u)
    capped_rhs = min(d["d_fh"], u)
    violated = bundle["violated"]
    problems.expect((Fraction(violated["lhs"]), Fraction(violated["rhs"])) == (capped_lhs, capped_rhs),
                    "bundle capped sides do not replay")
    problems.expect(Fraction(violated["lhs"]) > Fraction(violated["rhs"]),
                    f"bundle has capped_lhs {violated['lhs']} <= capped_rhs {violated['rhs']}")


def _check_tnorm(job, verdicts, report, problems: _Problems) -> None:
    spec = job.expect["tnorm"]
    passing = spec["family"] in PASSING
    problems.expect(
        report["inputs"]["grid_points"] == canonical_grid_size(spec, job.expect["resolution"]),
        "grid_points is not the canonical grid size")
    want = {"C1": passing, "C2": passing, "C3-form": passing, "agreement": True}
    got = {k: v["ok"] for k, v in verdicts.items() if k != "axioms"}
    if not problems.expect(got == want, f"verdicts {got} differ from {want}"):
        return
    # all five families are t-norms, so the axiom evidence may only fail
    # uncertified (the left-continuity probe); such a failure is noted
    axioms = verdicts["axioms"]
    if not axioms["ok"]:
        problems.expect(not axioms["result"]["certified"],
                        f"certified axiom failure {axioms['result']['witness']}")
        problems.notes.append(f"uncertified axiom failure {axioms['result']['witness']}")
    if not passing:
        _replay_c1(spec, verdicts["C1"]["result"]["witness"], problems)
        _replay_c2(spec, verdicts["C2"]["result"]["witness"], problems)
        extraction = verdicts["C3-form"]["result"]
        problems.expect(extraction["intervals"] is None, "C3-form found intervals")
        _replay_c2(spec, extraction["witness"], problems)
    else:
        problems.expect(verdicts["C3-form"]["result"]["intervals"] == spec.get("intervals", []),
                        "C3-form intervals differ from the norm's")


def _check_ccc(job, verdicts, report, problems: _Problems) -> None:
    spec = job.expect["tnorm"]
    passing = spec["family"] in PASSING
    if not problems.expect(list(verdicts) == ["ccc"], "ccc-suite must report one verdict"):
        return
    ccc = verdicts["ccc"]
    if not problems.expect(ccc["ok"] == passing, f"ccc ok={ccc['ok']} for {spec['family']}"):
        return
    result = ccc["result"]
    if passing:
        k = len(job.expect["grid"]) if "grid" in job.expect else \
            canonical_grid_size(spec, job.expect["resolution"])
        # every size-2 fill is transitive, so max-size 2 gives 1 + k**2 categories
        cats = 1 + k * k
        problems.expect(result["categories"] == cats, f"categories {result['categories']} != {cats}")
        problems.expect(result["triples_checked"] == cats ** 3, "not every triple was checked")
        problems.expect(result["bundle"] is None and result["witness"] is None,
                        "a passing verdict carries a counterexample")
    else:
        witness = result["c1"]["witness"]
        _replay_c1(spec, witness, problems)
        if problems.expect(result["bundle"] is not None, "failing ccc has no bundle"):
            _check_bundle(spec, result["bundle"], witness, problems)


def _check_exp(job, verdicts, report, problems: _Problems) -> None:
    base, fiber = job.expect["base"], job.expect["fiber"]
    if not problems.expect(list(verdicts) == ["power", "power-validates"],
                           "exp must report power and power-validates"):
        return
    problems.expect(verdicts["power-validates"]["ok"], "the power does not validate")
    power = verdicts["power"]["result"]
    flabels, fh = _hom(fiber)
    maps = {tuple(flabels[k] for k in images) for images in functor_maps(_hom(base)[1], fh)}
    functors = [tuple(f) for f in power["functors"]]
    if not problems.expect(len(functors) == len(maps) and set(functors) == maps,
                           "the power does not list exactly the functors"):
        return
    rng = random.Random(job.name)
    cells = list(itertools.product(range(len(functors)), repeat=2))
    for a, b in rng.sample(cells, min(EXP_SAMPLES, len(cells))):
        want = sup_hom(base, fiber, list(functors[a]), list(functors[b]))
        problems.expect(Fraction(power["d"][a][b]) == want,
                        f"d[{a}][{b}]={power['d'][a][b]} but the supremum is {want}")


def _check_power_completeness(job, verdicts, report, problems: _Problems) -> None:
    problems.expect(
        [(k, v["ok"], v["result"]) for k, v in verdicts.items()]
        == [("power-completeness", True, None)],
        "power-completeness did not pass cleanly")


CHECKS = {
    "check-tnorm": _check_tnorm,
    "ccc-suite": _check_ccc,
    "exp": _check_exp,
    "power-completeness": _check_power_completeness,
}


def check(job, exit_code, report: dict | None) -> list:
    """Problems found in one job's outcome; empty when it is correct."""
    problems = _Problems()
    if not problems.expect(exit_code == 0, f"exit code {exit_code}"):
        return problems
    if not problems.expect(isinstance(report, dict), "no report was written"):
        return problems
    kind = job.expect["kind"]
    problems.expect(report.get("command") == kind, f"command {report.get('command')} != {kind}")
    verdicts = {v["name"]: v for v in report.get("verdicts", [])}
    try:
        CHECKS[kind](job, verdicts, report, problems)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
