"""Eventually periodic sequences and exact limit checks in finite categories.

Sequences are described finitely as prefix + repeating cycle, which makes the
defining sup-inf expressions decidable: the inf over any tail is a minimum
over the cycle, and the sup over start points stabilizes once the prefix is
discarded.  On top of ``tail_value`` the module decides the two Cauchy-style
conditions, finds bilimits and Yoneda limits with full certificates, and
packages the completeness checks for finite categories, product categories,
and function spaces.  The function-space check builds no power: once
base and fiber are categories, every Cauchy cycle of functors has a bilimit
that is isomorphic to its pointwise limit, for every t-norm (proof in
``check_power_completeness``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, InvariantError, PreconditionError
from .rationals import ONE
from .tnorms import ConditionReport, TNorm, Witness, canonical_grid, check_c1
from .categories import (
    DEFAULT_BUDGET,
    RCat,
    RFunctor,
    _check_map_budget,
    _require_valid,
    product,
)

FROM_SEQ = "from-seq"
TO_SEQ = "to-seq"


@dataclass(frozen=True)
class TailSeq:
    """An eventually periodic sequence in a finite category."""

    carrier: RCat
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise InputError("cycle must be nonempty")
        for lbl in self.prefix + self.cycle:
            self.carrier.index(lbl)

    def element_at(self, i: int):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]


def tail_value(seq: TailSeq, x, direction: str = FROM_SEQ) -> Fraction:
    """sup over tails of the inf of hom values between the sequence and x.

    The prefix never contributes: a late enough tail contains only cycle
    elements, each infinitely often, so the value is the cycle minimum of
    hom(c, x) (direction "from-seq") or hom(x, c) (direction "to-seq").
    """
    cat = seq.carrier
    xi = cat.index(x)
    if direction == FROM_SEQ:
        return min(cat.hom[cat.index(c)][xi] for c in seq.cycle)
    if direction == TO_SEQ:
        return min(cat.hom[xi][cat.index(c)] for c in seq.cycle)
    raise InputError(f"unknown direction {direction!r}")


def is_cauchy(seq: TailSeq) -> Witness | None:
    """None iff hom is 1 between every ordered pair of cycle elements."""
    cat = seq.carrier
    for c in seq.cycle:
        for c2 in seq.cycle:
            v = cat.hom_of(c, c2)
            if v != ONE:
                return Witness((c, c2), v, ONE, note="cauchy")
    return None


def is_forward_cauchy(seq: TailSeq) -> Witness | None:
    """Cauchy condition restricted to increasing index pairs.

    For an eventually periodic sequence every ordered pair of cycle elements
    is reachable with increasing indices (cross into a later period), so this
    coincides with ``is_cauchy``; only the witness note differs.
    """
    w = is_cauchy(seq)
    return None if w is None else replace(w, note="forward-cauchy")


@dataclass(frozen=True)
class CertificateRow:
    """One carrier element's hom-vs-tail comparison backing a limit verdict."""

    element: object
    hom_from_witness: Fraction
    tail_from_seq: Fraction
    hom_to_witness: Fraction | None = None
    tail_to_seq: Fraction | None = None


@dataclass(frozen=True)
class LimitVerdict:
    kind: str  # "bilimit" | "yoneda-limit" | "none"
    witness: object | None
    certificate: tuple[CertificateRow, ...] = ()


def _both_tails(seq: TailSeq, a) -> tuple[Fraction, Fraction]:
    return tail_value(seq, a, TO_SEQ), tail_value(seq, a, FROM_SEQ)


def is_bilimit(seq: TailSeq, a) -> bool:
    to_val, from_val = _both_tails(seq, a)
    return to_val == ONE and from_val == ONE


def find_bilimit(seq: TailSeq) -> LimitVerdict:
    """First carrier element with both tail distances equal to 1.

    A returned witness also satisfies the defining equalities
    hom(a,x) = tail-from(x) and hom(x,a) = tail-to(x) for every x, which the
    certificate records and checks.
    """
    cat = seq.carrier
    for a in cat.elements:
        if is_bilimit(seq, a):
            rows = []
            for x in cat.elements:
                row = CertificateRow(
                    x,
                    cat.hom_of(a, x),
                    tail_value(seq, x, FROM_SEQ),
                    cat.hom_of(x, a),
                    tail_value(seq, x, TO_SEQ),
                )
                if (row.hom_from_witness != row.tail_from_seq
                        or row.hom_to_witness != row.tail_to_seq):
                    raise InvariantError(f"bilimit {a!r} fails its certificate at {x!r}")
                rows.append(row)
            return LimitVerdict("bilimit", a, tuple(rows))
    return LimitVerdict("none", None)


def find_yoneda_limit(seq: TailSeq) -> LimitVerdict:
    """First element a with hom(a, x) equal to the tail-from value for all x."""
    w = is_forward_cauchy(seq)
    if w is not None:
        raise PreconditionError(
            f"sequence is not forward Cauchy: hom{w.values} = {w.lhs}"
        )
    cat = seq.carrier
    tails = {x: tail_value(seq, x, FROM_SEQ) for x in cat.elements}
    for a in cat.elements:
        if all(cat.hom_of(a, x) == tails[x] for x in cat.elements):
            rows = tuple(
                CertificateRow(x, cat.hom_of(a, x), tails[x]) for x in cat.elements
            )
            return LimitVerdict("yoneda-limit", a, rows)
    return LimitVerdict("none", None)


def enumerate_cycles(cat: RCat, max_len: int):
    """All element tuples of length 1..max_len, in deterministic order."""
    for length in range(1, max_len + 1):
        yield from itertools.product(cat.elements, repeat=length)


def is_cauchy_complete(cat: RCat, budget: int) -> Witness | None:
    """Every Cauchy cycle of length <= budget must have a bilimit.

    Finite categories always pass; this is a consistency check and a
    regression trap for the limit machinery.
    """
    for cycle in enumerate_cycles(cat, budget):
        seq = TailSeq(cat, (), cycle)
        if is_cauchy(seq) is None and find_bilimit(seq).kind == "none":
            return Witness((cycle,), note="cauchy cycle without bilimit")
    return None


def pair_sequences(a_seq: TailSeq, b_seq: TailSeq) -> TailSeq:
    """Index-aligned pairing in the product category (cycle length = lcm)."""
    prod = product(a_seq.carrier, b_seq.carrier)
    lead = max(len(a_seq.prefix), len(b_seq.prefix))
    cyc = math.lcm(len(a_seq.cycle), len(b_seq.cycle))
    prefix = tuple((a_seq.element_at(i), b_seq.element_at(i)) for i in range(lead))
    cycle = tuple(
        (a_seq.element_at(lead + k), b_seq.element_at(lead + k)) for k in range(cyc)
    )
    return TailSeq(prod, prefix, cycle)


def check_product_bilimit(a_seq: TailSeq, b_seq: TailSeq) -> Witness | None:
    """Componentwise bilimits must pair into a bilimit of the paired sequence."""
    for name, seq in (("first", a_seq), ("second", b_seq)):
        w = is_cauchy(seq)
        if w is not None:
            raise PreconditionError(f"{name} sequence is not Cauchy at {w.values}")
    a = find_bilimit(a_seq)
    b = find_bilimit(b_seq)
    if a.kind == "none" or b.kind == "none":
        raise PreconditionError("both sequences must have bilimits in their carriers")
    paired = pair_sequences(a_seq, b_seq)
    target = (a.witness, b.witness)
    if not is_bilimit(paired, target):
        to_val, from_val = _both_tails(paired, target)
        return Witness((target,), min(to_val, from_val), ONE, note="product bilimit")
    return None


@lru_cache(maxsize=None)
def _c1_on_canonical_grid(t: TNorm) -> ConditionReport:
    return check_c1(t, canonical_grid(t))


def check_power_completeness(
    t: TNorm,
    base: RCat,
    fiber: RCat,
    cycle_budget: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> Witness | None:
    """Function spaces over a C1-passing t-norm stay Cauchy complete.

    Every Cauchy functor cycle has a bilimit in the power, and taking the
    bilimit of f_n(a) in the fiber for each a yields a functor isomorphic
    (mutual hom 1) to it.  That holds for every t-norm once base and fiber
    are categories, so after validating both and checking the budget
    nothing is left to check, and neither the power nor its functors are
    built:

    * A cycle is Cauchy exactly when its elements are pairwise isomorphic
      (hom 1 both ways), and then each of them is a bilimit.  Isomorphism is
      transitive in the power since the fiber is a category: d(f,g) =
      d(g,h) = 1 gives hom(f(a), h(a')) >= hom(g(a'), h(a')) &
      hom(f(a), g(a')) >= 1 & hom(a,a'), so d(f,h) = 1.  So ``find_bilimit``
      returns the first power element isomorphic to cycle[0] = f.
    * d(f,g) = 1 forces hom(f(a), g(a)) = 1 (take a = a'), so each pointwise
      fiber bilimit is the first fiber element isomorphic to f(a); call the
      pointwise map g.
    * g is a functor isomorphic to f, by transitivity of the fiber alone:
      hom(f(a), g(a')) >= hom(f(a'), g(a')) & hom(f(a), f(a')) =
      hom(f(a), f(a')) >= hom(a,a'), so d(f,g) = 1; likewise
      hom(g(a), f(a')) >= hom(f(a), f(a')) & hom(g(a), f(a)) gives
      d(g,f) = 1, and hom(g(a), g(a')) >= hom(f(a), g(a')) & hom(g(a), f(a))
      >= hom(a,a') makes g a functor.

    So g is a power element isomorphic to the power bilimit, whatever the
    cycle.  ``tests/test_proofs.py`` checks the last point by brute force.

    The budget bounds the enumeration of the functors base -> fiber, the
    first step of building the power.  That enumeration raises
    ``BudgetError`` exactly when its len(fiber)**len(base) candidate maps
    exceed ``budget``, and it raises nothing else, so ``_check_map_budget``
    on that count raises the same error without enumerating.
    ``cycle_budget`` must be at least 1; reports record it, but the verdict
    does not depend on it.  The C1 precondition is kept as the contract of
    the check, although the proof does not use it.
    """
    if cycle_budget < 1:
        raise InputError(f"cycle budget must be >= 1, got {cycle_budget}")
    c1 = _c1_on_canonical_grid(t)
    if not c1.verdict:
        raise PreconditionError(
            f"t-norm {t.describe()} fails C1 at {c1.witness.values}"
        )
    _require_valid(t, base, fiber)
    _check_map_budget(len(fiber), (len(base),), budget)
    return None


def check_yoneda_continuity(f: RFunctor, seqs) -> Witness | None:
    """Image sequences must converge to the image of the source limit.

    Precondition violations (a sequence that is not forward Cauchy or lacks a
    Yoneda limit in the source) are raised per sequence.
    """
    for i, seq in enumerate(seqs):
        if seq.carrier.elements != f.source.elements:
            raise PreconditionError(f"sequence {i} does not live in the source")
        src_limit = find_yoneda_limit(seq)  # raises if not forward Cauchy
        if src_limit.kind == "none":
            raise PreconditionError(f"sequence {i} has no Yoneda limit in the source")
        image = TailSeq(
            f.target,
            tuple(f(lbl) for lbl in seq.prefix),
            tuple(f(lbl) for lbl in seq.cycle),
        )
        if is_forward_cauchy(image) is not None:
            raise InvariantError(f"image of forward-Cauchy sequence {i} is not forward Cauchy")
        img_limit = find_yoneda_limit(image)
        if img_limit.kind == "none":
            return Witness(
                (i, f(src_limit.witness)),
                note="image sequence has no Yoneda limit",
            )
        mapped = f(src_limit.witness)
        there = f.target.hom_of(img_limit.witness, mapped)
        back = f.target.hom_of(mapped, img_limit.witness)
        if there != ONE or back != ONE:
            return Witness(
                (i, mapped, img_limit.witness),
                min(there, back),
                ONE,
                note="image limit differs from image of source limit",
            )
    return None
