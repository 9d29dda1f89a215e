"""Replay the evidence of a tnormcat report with the standard library alone.

``replay(report)`` walks every row of the JSON report of any subcommand and
recomputes each witness, certificate and counterexample bundle in it from
the report's own ``inputs``.  The & is the defining formula of the
t-norm's family (``conjunction``), or ``amp(p, q)`` when one is given, as
a test that installs its own & does.  Nothing is imported from
``tnormcat``, so the replay shares no code with what it checks.

The evidence, by kind (the keys of the counts that ``replay`` returns):

* ``C1``: a triple (p, q, u) at which (p & q) ∧ u and
  ((p ∧ u) & q) ∨ (p & (q ∧ u)) differ, with the recorded sides: the C1
  rows of ``check-tnorm``, its failing ``agreement`` row (a violation on
  [0,1]) and the C1 report of ``ccc-suite``;
* ``C2``: a pair (p, u) with u <= p & p and u & p != u, sides (u & p, u):
  the C2 and C3-form rows;
* ``axioms``: the law named by the witness's note, broken with the
  recorded sides; a left limit is extrapolated by ``left_limit``;
* ``validate``: a category law broken with the recorded sides, reflexivity
  (hom(x, x), 1) or transitivity (hom(y, z) & hom(x, y), hom(x, z)): in a
  factor or the product of ``product`` under ``inputs.tnorm``, or in the
  power of ``exp``, whose hom is ``sup_hom``;
* ``cauchy``: two cycle elements c, c2 of ``limits`` with
  hom(c, c2) != 1;
* ``certificate``: one row of a limit verdict, recomputed from the carrier
  and the cycle;
* ``bundle``: a counterexample bundle: a base and a fiber that keep the
  category laws, three functors f, g and h between them, their d values by
  ``sup_hom``, and the interchange, transitivity and capped sides;
* ``d``: one entry of the power of ``exp``, whose ``functors`` must be
  exactly the maps from base to fiber that do not shrink hom;
* ``laws``: the carrier of ``limits --tnorm``, which must keep
  reflexivity and transitivity under ``inputs.tnorm`` (``keeps_laws``).

A failing row with nothing to replay is a failure.  Every failure raises
``ReplayError``, an ``AssertionError``, by an explicit ``raise``, so the
checks also run under ``python -O``.  The file of a run that wrote no
report, its exit code and stderr as ``tests/golden`` pins it, has nothing
to replay.  From the command line,

    python tests/replay.py REPORT.json ...

prints the counts of each report and exits 1 if any does not replay.

The formulas are shared with the rest of ``tests/``: ``oracles`` takes
its & (``conjunction``), the sides of C1, the left limit and the sup-hom
from here, and the brute-force proof checks their functor and category
tests (``keeps_hom``, ``functor_images``, ``keeps_laws``), so ``tests/``
holds one copy of each.
"""

import functools
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


class ReplayError(AssertionError):
    """A report's evidence does not replay."""


def _require(condition, message: str) -> None:
    if not condition:
        raise ReplayError(message)


# p & q by the defining formula of each family but interval-collapse
_FORMULAS = {
    "minimum": min,
    "product": lambda p, q: p * q,
    "lukasiewicz": lambda p, q: max(p + q - 1, ZERO),
    "nilpotent-minimum": lambda p, q: min(p, q) if p + q > 1 else ZERO,
}


def conjunction(family: str, intervals, p: Fraction, q: Fraction) -> Fraction:
    """p & q by the defining formula of ``family``; ``intervals`` are the
    (a, b) pairs of an interval-collapse t-norm, which collapses p & q to
    a when both lie in [a, b], and is the minimum elsewhere."""
    if family == "interval-collapse":
        return next((a for a, b in intervals if a <= p <= b and a <= q <= b), min(p, q))
    return _FORMULAS[family](p, q)


def c1_sides(amp, p, q, u) -> tuple[Fraction, Fraction]:
    """((p & q) ∧ u, ((p ∧ u) & q) ∨ (p & (q ∧ u))), the sides of C1."""
    return min(amp(p, q), u), max(amp(min(p, u), q), amp(p, min(q, u)))


def left_limit(amp, b: Fraction, q: Fraction, bps, step=None) -> Fraction:
    """sup_{p<b} p & q, extrapolated from two samples at b - 2·step and b - step.

    For fixed q each family is affine in p between consecutive points of
    the breakpoints ``bps``, q and 1 - q.  ``step`` defaults to a third of
    the distance from the largest of those below b to b; a given ``step``
    must keep both samples above it.
    """
    if step is None:
        step = (b - max(v for v in (*bps, q, 1 - q) if v < b)) / 3
    return 2 * amp(b - step, q) - amp(b - 2 * step, q)


def sup_hom(base, fiber, f, g, bottom=ZERO, top=ONE) -> Fraction:
    """d(f, g) = sup{q : q ∧ base[i][j] <= fiber[f[i]][g[j]] for all i, j}.

    ``base`` and ``fiber`` are hom matrices, ``f`` and ``g`` the fiber
    indices of two maps.  Only the pairs with base[i][j] > fiber[f[i]][g[j]]
    can bound q, so with none the supremum is 1 (``top``).  Else it is the
    largest candidate that every pair allows, among 0 (``bottom``) and the
    fiber values of those pairs, one of which is the supremum.  It only
    compares values, so it also runs on their ranks, with ``bottom`` and
    ``top`` the ranks of 0 and 1.
    """
    pairs = [(h, k) for i, fi in enumerate(f) for j, gj in enumerate(g)
             if (h := base[i][j]) > (k := fiber[fi][gj])]
    candidates = [bottom, *(k for _, k in pairs)] if pairs else [top]
    return max(q for q in candidates if all(min(q, h) <= k for h, k in pairs))


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _sides(where: str, recorded: dict, lhs, rhs) -> None:
    got = Fraction(recorded["lhs"]), Fraction(recorded["rhs"])
    _require(got == (lhs, rhs), f"{where}: recorded sides ({recorded['lhs']}, "
                                f"{recorded['rhs']}), recomputed ({lhs}, {rhs})")


def _law(law: str, w: dict, amp, hom=None, bps=()) -> None:
    """Recompute the sides of the witness ``w`` of a broken ``law``.

    They must break it and be the recorded ones.  The category laws and
    ``cauchy`` read ``hom(a, b)`` on labels; left continuity extrapolates
    between the breakpoints ``bps``.  Monotonicity and transitivity are
    broken when the left side exceeds the right one, the other laws when
    the sides differ.
    """
    lhs, rhs, premise = {
        "C1": lambda p, q, u: (*c1_sides(amp, p, q, u), True),
        "C2": lambda p, u: (amp(u, p), u, u <= amp(p, p)),
        "unit": lambda one, p: (amp(one, p), p, one == 1),
        "commutativity": lambda p, q: (amp(p, q), amp(q, p), True),
        "monotonicity": lambda p, p2, q: (amp(p, q), amp(p2, q), p < p2),
        "associativity": lambda p, q, u: (amp(amp(p, q), u), amp(p, amp(q, u)), True),
        "left continuity": lambda b, q: (left_limit(amp, b, q, bps), amp(b, q), b in bps),
        "reflexivity": lambda x: (hom(x, x), ONE, True),
        "transitivity": lambda x, y, z: (amp(hom(y, z), hom(x, y)), hom(x, z), True),
        "cauchy": lambda x, y: (hom(x, y), ONE, True),
    }[law](*(w["values"] if hom else _fractions(w["values"])))
    broken = lhs > rhs if law in ("monotonicity", "transitivity") else lhs != rhs
    _require(premise and broken, f"{w} breaks no {law}")
    _sides(law, w, lhs, rhs)


def _category(data: dict):
    """The labels, the hom matrix and hom(a, b) on labels of a category."""
    labels = data["elements"]
    matrix = [_fractions(row) for row in data["hom"]]
    index = {label: i for i, label in enumerate(labels)}
    return labels, matrix, lambda a, b: matrix[index[a]][index[b]]


def keeps_hom(base, fiber, image) -> bool:
    """Whether the fiber indices ``image`` map the hom matrix ``base`` into
    ``fiber`` without shrinking a hom value: whether the map is a functor."""
    return all(base[i][j] <= fiber[a][b]
               for i, a in enumerate(image) for j, b in enumerate(image))


def keeps_laws(hom, amp) -> bool:
    """Whether the hom matrix ``hom`` is reflexive and transitive under the
    & ``amp``: whether it is a category."""
    n = range(len(hom))
    return all(hom[i][i] == 1 for i in n) and all(
        amp(hom[j][k], hom[i][j]) <= hom[i][k] for i in n for j in n for k in n)


def functor_images(base, fiber) -> list[tuple[int, ...]]:
    """The fiber indices of every functor between the hom matrices ``base``
    and ``fiber``, in lexicographic order."""
    return [image for image in itertools.product(range(len(fiber)), repeat=len(base))
            if keeps_hom(base, fiber, image)]


def _functor(base, fiber, image) -> list[int]:
    """The fiber indices of the labels ``image``, a functor from base to fiber."""
    indices = [fiber[0].index(label) for label in image]
    _require(len(indices) == len(base[0]) and keeps_hom(base[1], fiber[1], indices),
             f"{image} is no functor")
    return indices


def _breakpoints(tnorm: dict) -> list[Fraction]:
    """0, 1, the interval endpoints, and 1/2 for the nilpotent minimum."""
    bps = {ZERO, ONE, *_fractions(itertools.chain(*tnorm.get("intervals", ())))}
    return sorted(bps | {Fraction(1, 2)} if tnorm["family"] == "nilpotent-minimum" else bps)


def _validated_hom(name: str, inputs: dict):
    """hom(a, b) of the category that a ``validate-*`` or ``power-validates``
    row checks: a factor or the product of ``product``, or the power."""
    if name == "power-validates":
        base, fiber = _category(inputs["base"]), _category(inputs["fiber"])
        return lambda f, g: sup_hom(base[1], fiber[1], _functor(base, fiber, f),
                                    _functor(base, fiber, g))
    if name == "validate-product":
        left, right = _category(inputs["left"])[2], _category(inputs["right"])[2]
        return lambda x, y: min(left(x[0], y[0]), right(x[1], y[1]))
    return _category(inputs[name.removeprefix("validate-")])[2]


def _bundle(bundle: dict, triple, tnorm: dict, amp) -> None:
    """Replay a counterexample bundle built from the C1 violation ``triple``."""
    _require(bundle["tnorm"] == tnorm and [bundle[key] for key in "pqu"] == triple,
             f"the t-norm or triple is not the report's {tnorm}, {triple}")
    base, fiber = _category(bundle["base"]), _category(bundle["fiber"])
    _require(keeps_laws(base[1], amp) and keeps_laws(fiber[1], amp),
             "the base or the fiber is no category")
    f, g, h = (_functor(base, fiber, bundle[name]) for name in "fgh")
    d = [sup_hom(base[1], fiber[1], a, b) for a, b in ((f, g), (g, h), (f, h))]
    _require(_fractions(bundle[key] for key in ("d_fg", "d_gh", "d_fh")) == d,
             f"d(f,g), d(g,h), d(f,h) recomputed as {', '.join(map(str, d))}")
    _law("C1", dict(bundle["interchange"], values=triple), amp)
    (d_fg, d_gh, d_fh), u = d, Fraction(triple[2])
    _sides("transitivity", bundle["transitivity"], amp(d_fg, d_gh), d_fh)
    capped = min(amp(d_fg, d_gh), u), min(d_fh, u)
    _require(capped[0] > capped[1], "capped transitivity holds")
    _sides("capped transitivity", bundle["violated"], *capped)


def _power(result: dict, inputs: dict) -> int:
    """Check an ``exp`` power against its base and fiber; the d entries checked.

    The check runs on the ranks of the base and fiber hom values, 0 and 1:
    ``keeps_hom`` and ``sup_hom`` only compare values and return one of
    them, so an order-preserving rank map commutes with both.  Each
    distinct ``d`` string is parsed once, to its rank (-1 if no hom value,
    0 or 1 equals it).
    """
    (_, base, _), (targets, fiber, _) = _category(inputs["base"]), _category(inputs["fiber"])
    values = sorted({ZERO, ONE, *itertools.chain(*base, *fiber)})
    rank = {v: k for k, v in enumerate(values)}
    base, fiber = ([[rank[v] for v in row] for row in m] for m in (base, fiber))
    functors = [tuple(targets.index(label) for label in image) for image in result["functors"]]
    _require(sorted(functors) == functor_images(base, fiber),
             "functors are not the maps that keep hom")
    d = [[sup_hom(base, fiber, f, g, 0, len(values) - 1) for g in functors] for f in functors]
    recorded = {text: rank.get(Fraction(text), -1) for text in itertools.chain(*result["d"])}
    _require([[recorded[text] for text in row] for row in result["d"]] == d,
             "d is not the sup-hom")
    return len(d) ** 2


def _certificate(result: dict, ok: bool, inputs: dict) -> int:
    """Recompute each row of a limit verdict's certificate; the rows checked.

    A bilimit must agree with every row, a Yoneda limit with the from-tail
    ones.  Under a "none" verdict each row's element is the candidate, and
    one of its own tails must differ from its hom(x, x) = 1.
    """
    labels, _, hom = _category(inputs["carrier"])
    cycle, kind, a = inputs["cycle"], result["kind"], result["witness"]
    _require(ok == (kind != "none") and (a is None) == (kind == "none"),
             f"kind {kind!r} with witness {a!r}")
    rows = result["certificate"]
    _require([row["element"] for row in rows] == labels, "not one row per element")
    for row in rows:
        x = row["element"]
        b = x if a is None else a
        expected = [hom(b, x), min(hom(c, x) for c in cycle),
                    hom(x, b), min(hom(x, c) for c in cycle)]
        if kind == "yoneda-limit":
            expected[2:] = None, None
        agree = expected[0] == expected[1] and expected[2] == expected[3]
        _require(hom(x, x) == 1 and not agree if kind == "none" else agree,
                 f"the row of {x!r} contradicts the {kind!r} verdict")
        recorded = [None if row[key] is None else Fraction(row[key]) for key in
                    ("hom_from_witness", "tail_from_seq", "hom_to_witness", "tail_to_seq")]
        _require(recorded == expected, f"the row of {x!r} recomputed as {list(map(str, expected))}")
    return len(rows)


def _evidence(name: str, result, ok: bool, inputs: dict, amp) -> Counter:
    """Replay one row; the evidence replayed, by kind."""
    if result is None or name in ("product", "power-completeness"):
        return Counter()
    if name in ("C1", "C2", "C3-form", "axioms", "agreement"):
        w = result.get("witness")
        kind = {"C3-form": "C2", "agreement": "C1"}.get(name, name)
        if w is not None:
            _law(w["note"] if kind == "axioms" else kind, w, amp, bps=_breakpoints(inputs["tnorm"]))
        return Counter({kind: int(w is not None)})
    if name == "ccc":
        c1, bundle = result["c1"]["witness"], result["bundle"]
        if c1 is not None:
            _law("C1", c1, amp)
        if bundle is not None:
            _bundle(bundle, c1 and c1["values"], inputs["tnorm"], amp)
        return Counter({"C1": int(c1 is not None), "bundle": int(bundle is not None)})
    if name == "bundle":
        _bundle(result, inputs["triple"], inputs["tnorm"], amp)
        return Counter(["bundle"])
    if name == "power":
        return Counter({"d": _power(result, inputs)})
    if name == "power-validates" or name.startswith("validate-"):
        _law(result["note"], result, amp, _validated_hom(name, inputs))
        return Counter(["validate"])
    if name in ("cauchy", "forward-cauchy"):
        _require(result["note"] == name and set(result["values"]) <= set(inputs["cycle"]),
                 f"{result} is no pair of cycle elements")
        _law("cauchy", result, amp, _category(inputs["carrier"])[2])
        return Counter(["cauchy"])
    if name in ("bilimit", "yoneda-limit"):
        return Counter({"certificate": _certificate(result, ok, inputs)})
    raise ReplayError(f"no replay for a row named {name!r}")


def replay(report: dict, amp=None) -> dict:
    """Replay every row of a report; the evidence replayed, by kind.

    ``amp(p, q)`` is the & to replay with; by default the defining formula
    of the family of ``inputs.tnorm``.
    """
    if report.keys() == {"exit", "stderr"}:  # a run that wrote no report
        return {}
    inputs = report["inputs"]
    if amp is None and "tnorm" in inputs:
        tnorm = inputs["tnorm"]
        intervals = [_fractions(pair) for pair in tnorm.get("intervals", ())]
        amp = functools.partial(conjunction, tnorm["family"], intervals)
    counts = Counter()
    if report["command"] == "limits" and "tnorm" in inputs:
        _require(keeps_laws(_category(inputs["carrier"])[1], amp),
                 "carrier: no category under inputs.tnorm")
        counts["laws"] = 1
    for row in report["verdicts"]:
        name = row["name"]
        try:
            found = +_evidence(name, row["result"], row["ok"], inputs, amp)
            _require(row["ok"] or found, "a failing row with nothing to replay")
        except ReplayError as exc:
            raise ReplayError(f"{name}: {exc}") from None
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ReplayError(f"{name}: malformed evidence: {exc!r}") from exc
        counts.update(found)
    return dict(sorted(counts.items()))


if __name__ == "__main__":
    status = 0
    for path in sys.argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                print(f"{path}: {replay(json.load(fh))}")
        except (OSError, ValueError, ReplayError) as exc:
            print(f"{path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
    sys.exit(status)
