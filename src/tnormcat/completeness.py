"""Eventually periodic sequences and exact limit checks in finite categories.

Sequences are described finitely as prefix + repeating cycle, which makes the
defining sup-inf expressions decidable: the inf over any tail is a minimum
over the cycle, and the sup over start points stabilizes once the prefix is
discarded.  On top of ``tail_value`` the module decides the two Cauchy-style
conditions, finds bilimits and Yoneda limits with full certificates, and
packages the completeness checks for finite categories, product categories,
and function spaces.

Finite-completeness lemma (it needs no t-norm).  A Cauchy or forward-Cauchy
cycle has hom 1 between any two of its elements (``is_forward_cauchy``).
Transitivity with a factor 1 holds under every t-norm, so each cycle element
c0 has hom(c0, x) = min_c hom(c, x) and hom(x, c0) = min_c hom(x, c) for
every x: c0 is a bilimit and a Yoneda limit of the cycle.  So every finite
category is Cauchy and Yoneda complete, and so are products and function
spaces of finite categories.  ``is_cauchy_complete`` and
``check_product_bilimit`` use the lemma instead of sweeping cycles; on a
matrix that is not a category they keep the result of the full sweep (proofs
in their docstrings).  The function-space check builds no power: once base
and fiber are categories, every Cauchy cycle of functors has a bilimit that
is isomorphic to its pointwise limit, for every t-norm (proof in
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


def is_bilimit(seq: TailSeq, a) -> bool:
    return tail_value(seq, a, TO_SEQ) == ONE and tail_value(seq, a, FROM_SEQ) == ONE


def _check_factor_one_transitivity(cat: RCat, a, x, cycle) -> None:
    """Raise if a, x and a cycle element form a triple (i, j, k) that is not transitive.

    One of hom(i, j), hom(j, k) is 1, so under every t-norm their composite
    is the smaller one; the triple fails when hom(i, k) lies below it.
    """
    for c in cycle:
        for i, j, k in ((c, a, x), (a, c, x), (x, a, c), (x, c, a)):
            ij, jk = cat.hom_of(i, j), cat.hom_of(j, k)
            if max(ij, jk) == ONE and cat.hom_of(i, k) < min(ij, jk):
                raise PreconditionError(
                    f"carrier is not a valid category at {(i, j, k)}: transitivity"
                )


def find_bilimit(seq: TailSeq) -> LimitVerdict:
    """First carrier element with both tail distances equal to 1.

    A returned witness also satisfies the defining equalities
    hom(a,x) = tail-from(x) and hom(x,a) = tail-to(x) for every x, which the
    certificate records and checks.  Both tails of a are 1, so hom(a, c) =
    hom(c, a) = 1 for every cycle element c, and the tails at x are the
    cycle minima of hom(c, x) and hom(x, c).  A row fails at x only if
    hom(a, x) lies below every hom(c, x), which breaks (a, c, x), or above
    the least one, which breaks (c, a, x); a failed column breaks (x, c, a)
    or (x, a, c) in the same way.  Each of these triples has a factor 1, so
    it fails under every t-norm and is raised as a ``PreconditionError``.
    The ``InvariantError`` after that search is reached only if
    ``tail_value`` or ``is_bilimit`` is itself wrong.
    """
    cat = seq.carrier
    a = next((e for e in cat.elements if is_bilimit(seq, e)), None)
    if a is None:
        return LimitVerdict("none", None)
    rows = tuple(
        CertificateRow(x, cat.hom_of(a, x), tail_value(seq, x, FROM_SEQ),
                       cat.hom_of(x, a), tail_value(seq, x, TO_SEQ))
        for x in cat.elements
    )
    for row in rows:
        if row.hom_from_witness != row.tail_from_seq or row.hom_to_witness != row.tail_to_seq:
            _check_factor_one_transitivity(cat, a, row.element, seq.cycle)
            raise InvariantError(f"bilimit {a!r} fails its certificate at {row.element!r}")
    return LimitVerdict("bilimit", a, rows)


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

    Gives the result, exception and message included, of running
    ``find_bilimit`` on every Cauchy cycle of ``enumerate_cycles(cat,
    budget)``, on any matrix, but runs it only on the cycles (c,) with
    hom(c, c) = 1:

    * The sweep finds no Cauchy cycle without a bilimit: every element of a
      Cauchy cycle is a bilimit of it (both tails are minima of homs between
      cycle elements), so ``find_bilimit`` never returns "none".
    * Suppose every cycle (c,) passes, and let a_c, its bilimit, be the first
      element isomorphic to c.  Its certificate makes the row and column of
      a_c equal to those of c.  Let S be a Cauchy cycle that contains c.
      Then a_c is isomorphic to every s in S, as c is, so the first bilimit
      of S comes no later than a_c; that bilimit is isomorphic to c, so it
      comes no earlier.  So every s in S has the row and column of the first
      bilimit of S, and its certificate holds.
    * The sweep visits the cycles of length 1 first, in element order, so
      the first error it raises comes from a cycle (c,).

    So ``budget`` only tells 0, which returns None at once, from every
    value >= 1, which all give the same result.  Finite categories always
    pass.  ``tests/test_proofs.py`` compares this with the full sweep on
    random matrices, categories or not.
    """
    if budget < 1:
        return None
    for i, c in enumerate(cat.elements):
        if cat.hom[i][i] == ONE:
            find_bilimit(TailSeq(cat, (), (c,)))
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
    """Componentwise bilimits must pair into a bilimit of the paired sequence.

    Both sequences must be Cauchy.  Then the pairing always holds, so the
    check only runs ``find_bilimit`` on each sequence, whose certificate
    errors it raises, and builds neither the product nor the paired sequence:

    * Each Cauchy sequence has a bilimit (finite-completeness lemma), so the
      componentwise bilimits a and b exist.
    * The prefix of ``pair_sequences(a_seq, b_seq)`` is at least as long as
      both prefixes, so each element of its cycle is a pair (c, d) of cycle
      elements.  Under the min hom of the product, hom((a, b), (c, d)) =
      min(hom(a, c), hom(b, d)) = 1, and likewise back, so (a, b) is a
      bilimit of the paired sequence.

    ``tests/test_proofs.py`` compares this with the paired-sequence check.
    """
    for name, seq in (("first", a_seq), ("second", b_seq)):
        w = is_cauchy(seq)
        if w is not None:
            raise PreconditionError(f"{name} sequence is not Cauchy at {w.values}")
    find_bilimit(a_seq)
    find_bilimit(b_seq)
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

    * f = cycle[0] is a bilimit of a Cauchy cycle f_n, by the
      finite-completeness lemma (module docstring).  The lemma applies since
      the power inherits transitivity with a factor 1 from the fiber:
      d(f,g) = 1 gives hom(f(a), g(a)) = 1 (take a = a'), so
      hom(f(a), h(a')) >= hom(g(a), h(a')) and d(f,h) >= d(g,h); likewise
      d(g,h) = 1 gives d(f,h) >= d(f,g).
    * For the same reason each pointwise cycle f_n(a) is Cauchy in the
      fiber; its first bilimit is the first fiber element isomorphic to
      f(a).  Call the pointwise map g.
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
        if seq.carrier != f.source:
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
