"""Left-continuous triangular norms on [0,1], exactly.

Five closed-form families are supported:

* ``minimum``            p & q = min(p, q)
* ``product``            p & q = p * q
* ``lukasiewicz``        p & q = max(p + q - 1, 0)
* ``nilpotent-minimum``  p & q = min(p, q) if p + q > 1 else 0
* ``interval-collapse``  min(p, q), except pairs lying inside one of a fixed
  family of pairwise disjoint closed intervals [a_i, b_i] ⊆ [0,1) collapse
  to the left endpoint a_i.

Every operation works on `fractions.Fraction` and is decided exactly; there
is no floating point anywhere.  The module also decides three equivalent
conditions on a t-norm (tags ``C1``, ``C2``, ``C3-form``) that characterize
when the function-space construction on [0,1]-enriched categories behaves;
each check either passes or returns a concrete violating tuple with both
evaluated sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .rationals import ONE, ZERO, check_unit, format_rational

MINIMUM = "minimum"
PRODUCT = "product"
LUKASIEWICZ = "lukasiewicz"
NILPOTENT_MINIMUM = "nilpotent-minimum"
INTERVAL_COLLAPSE = "interval-collapse"

FAMILIES = (MINIMUM, PRODUCT, LUKASIEWICZ, NILPOTENT_MINIMUM, INTERVAL_COLLAPSE)

DEFAULT_GRID_N = 40

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class TNorm:
    """A left-continuous t-norm, one of the five supported families.

    ``intervals`` is only meaningful for the interval-collapse family; it is
    kept sorted by left endpoint, with degenerate [a,a] entries dropped at
    construction (they are no-ops) and remembered in ``dropped_intervals``.
    """

    family: str
    intervals: tuple[Interval, ...] = ()
    dropped_intervals: tuple[Interval, ...] = field(
        default=(), compare=False, repr=False
    )

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(
                f"unknown t-norm family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family != INTERVAL_COLLAPSE:
            if self.intervals:
                raise InputError(f"family {self.family!r} takes no intervals")
            return
        kept, dropped = _normalize_intervals(self.intervals)
        object.__setattr__(self, "intervals", kept)
        object.__setattr__(self, "dropped_intervals", dropped)

    def describe(self) -> str:
        if self.family == INTERVAL_COLLAPSE:
            spans = ", ".join(
                f"[{format_rational(a)},{format_rational(b)}]" for a, b in self.intervals
            )
            return f"interval-collapse{{{spans}}}"
        return self.family


def _normalize_intervals(intervals) -> tuple[tuple[Interval, ...], tuple[Interval, ...]]:
    cleaned = []
    for pair in intervals:
        if len(pair) != 2:
            raise InputError(f"interval {pair!r} is not a pair")
        a, b = Fraction(pair[0]), Fraction(pair[1])
        check_unit(a, "interval endpoint")
        check_unit(b, "interval endpoint")
        if not (ZERO <= a <= b < ONE):
            raise InputError(
                f"interval [{a},{b}] must satisfy 0 <= a <= b < 1"
            )
        cleaned.append((a, b))
    cleaned.sort()
    for (a1, b1), (a2, _b2) in zip(cleaned, cleaned[1:]):
        if a2 <= b1:
            raise InputError(
                f"intervals [{a1},{b1}] and [{a2},{_b2}] are not disjoint"
            )
    kept = tuple(iv for iv in cleaned if iv[0] < iv[1])
    dropped = tuple(iv for iv in cleaned if iv[0] == iv[1])
    return kept, dropped


def minimum() -> TNorm:
    return TNorm(MINIMUM)


def product_tnorm() -> TNorm:
    return TNorm(PRODUCT)


def lukasiewicz() -> TNorm:
    return TNorm(LUKASIEWICZ)


def nilpotent_minimum() -> TNorm:
    return TNorm(NILPOTENT_MINIMUM)


def interval_collapse(intervals) -> TNorm:
    return TNorm(INTERVAL_COLLAPSE, tuple(tuple(iv) for iv in intervals))


TWO = Fraction(2)
HALF = Fraction(1, 2)


def apply(t: TNorm, p: Fraction, q: Fraction) -> Fraction:
    """p & q.  Commutative, associative, monotone, with unit 1."""
    fam = t.family
    if fam == MINIMUM:
        return p if p <= q else q
    if fam == PRODUCT:
        return p * q
    if fam == LUKASIEWICZ:
        s = p + q - ONE
        return s if s > ZERO else ZERO
    if fam == NILPOTENT_MINIMUM:
        if p + q > ONE:
            return p if p <= q else q
        return ZERO
    lo, hi = (p, q) if p <= q else (q, p)
    for a, b in t.intervals:
        if a <= lo and hi <= b:
            return a
        if b >= lo:
            break
    return lo


def residuum(t: TNorm, p: Fraction, q: Fraction) -> Fraction:
    """The largest z with p & z <= q (attained, by left continuity)."""
    if p <= q:
        return ONE
    fam = t.family
    if fam == MINIMUM:
        return q
    if fam == PRODUCT:
        return q / p
    if fam == LUKASIEWICZ:
        return ONE - p + q
    if fam == NILPOTENT_MINIMUM:
        other = ONE - p
        return other if other > q else q
    # interval-collapse: collapsing lets z run up to the right endpoint
    # whenever p sits in an interval whose left endpoint is already <= q.
    for a, b in t.intervals:
        if a <= p <= b and a <= q:
            return b
    return q


@dataclass(frozen=True)
class Piece:
    """One maximal run of idempotents: an interval with open/closed ends."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, v: Fraction) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        if v == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        if self.lo == self.hi:
            return f"{{{format_rational(self.lo)}}}"
        return f"{left}{format_rational(self.lo)},{format_rational(self.hi)}{right}"


@dataclass(frozen=True)
class IdempotentSet:
    """Finite union of points and intervals: all p with p & p = p."""

    pieces: tuple[Piece, ...]

    def contains(self, v: Fraction) -> bool:
        return any(piece.contains(v) for piece in self.pieces)

    def __str__(self):
        return " ∪ ".join(str(p) for p in self.pieces) if self.pieces else "∅"


def idempotents(t: TNorm) -> IdempotentSet:
    """Exact description of {p : p & p = p}, per family."""
    fam = t.family
    if fam == MINIMUM:
        return IdempotentSet((Piece(ZERO, ONE),))
    if fam in (PRODUCT, LUKASIEWICZ):
        return IdempotentSet((Piece(ZERO, ZERO), Piece(ONE, ONE)))
    if fam == NILPOTENT_MINIMUM:
        # p & p = p needs 2p > 1, except p = 0.
        return IdempotentSet((Piece(ZERO, ZERO), Piece(HALF, ONE, lo_closed=False)))
    # interval-collapse: everything except the half-open gaps (a_i, b_i].
    pieces = []
    lo, lo_closed = ZERO, True
    for a, b in t.intervals:
        pieces.append(Piece(lo, a, lo_closed=lo_closed))
        lo, lo_closed = b, False
    pieces.append(Piece(lo, ONE, lo_closed=lo_closed))
    return IdempotentSet(tuple(p for p in pieces if p.lo <= p.hi))


@dataclass(frozen=True)
class Witness:
    """A concrete violating tuple together with both recomputed sides."""

    values: tuple
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: bool
    witness: Witness | None = None
    certified: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.verdict and self.witness is None:
            raise ValueError("a failing report must carry a witness")


def _sorted_grid(grid) -> list[Fraction]:
    pts = sorted({Fraction(g) for g in grid})
    if not pts:
        raise InputError("grid must be nonempty")
    for v in pts:
        check_unit(v, "grid point")
    return pts


def breakpoints(t: TNorm) -> tuple[Fraction, ...]:
    """Endpoints where the family's case analysis changes, plus 0 and 1."""
    pts = {ZERO, ONE}
    if t.family == NILPOTENT_MINIMUM:
        pts.add(HALF)
    for a, b in t.intervals:
        pts.add(a)
        pts.add(b)
    return tuple(sorted(pts))


def canonical_grid(t: TNorm, n: int = DEFAULT_GRID_N) -> tuple[Fraction, ...]:
    """Breakpoints, a uniform k/n sweep, and midpoints of consecutive breakpoints."""
    if n < 1:
        raise InputError("grid size must be >= 1")
    pts = set(breakpoints(t))
    pts.update(Fraction(k, n) for k in range(n + 1))
    bps = breakpoints(t)
    pts.update((a + b) / TWO for a, b in zip(bps, bps[1:]))
    return tuple(sorted(pts))


def check_c1(t: TNorm, grid) -> ConditionReport:
    """Interchange law: (p & q) ∧ u == ((p ∧ u) & q) ∨ (p & (q ∧ u)) on grid³.

    Lemma: for every t-norm, C1 holds at (p, q, u) whenever u >= p or
    u >= q.  If u >= p, then p & q <= p <= u, so the left side is p & q;
    on the right, (p ∧ u) & q = p & q and p & (q ∧ u) <= p & q by
    monotonicity, so the right side is p & q too.  The case u >= q is
    symmetric.  So only the triples with u < p ∧ q are swept; on the sorted
    grid these are the u before both p and q, and there p ∧ u = q ∧ u = u.
    Every operand of & is then a grid point, so all products are read from
    one table of p & q over grid².  The sweep keeps (p, q, u) order, so the
    witness is the first failing triple of the full grid³ sweep.
    """
    pts = _sorted_grid(grid)
    table = [[apply(t, p, q) for q in pts] for p in pts]
    for i, (p, row) in enumerate(zip(pts, table)):
        for j, (q, pq) in enumerate(zip(pts, row)):
            for k in range(min(i, j)):
                u = pts[k]
                lhs = pq if pq <= u else u
                left, right = table[k][j], row[k]
                rhs = left if left >= right else right
                if lhs != rhs:
                    return ConditionReport(
                        "C1",
                        False,
                        Witness((p, q, u), lhs, rhs),
                        certified=True,
                    )
    return ConditionReport("C1", True, certified=_pass_is_certified(t))


def check_c2(t: TNorm, grid) -> ConditionReport:
    """Dominance law: u <= p & p implies u & p = u, on grid².

    Only the pairs with u <= p & p are swept: the grid is sorted, so the u
    loop ends at the first u > p & p.
    """
    pts = _sorted_grid(grid)
    for p in pts:
        pp = apply(t, p, p)
        for u in pts:
            if u > pp:
                break
            up = apply(t, u, p)
            if up != u:
                return ConditionReport(
                    "C2",
                    False,
                    Witness((p, u), up, u),
                    certified=True,
                )
    return ConditionReport("C2", True, certified=_pass_is_certified(t))


def _pass_is_certified(t: TNorm) -> bool:
    # minimum and interval-collapse satisfy the conditions by construction;
    # a grid pass for the other families is evidence only.
    return t.family in (MINIMUM, INTERVAL_COLLAPSE)


@dataclass(frozen=True)
class IntervalExtraction:
    """Either the collapsing-interval family, or the pair defeating it."""

    intervals: tuple[Interval, ...] | None
    witness: Witness | None = None

    @property
    def ok(self) -> bool:
        return self.intervals is not None


def extract_intervals(t: TNorm) -> IntervalExtraction:
    """Recover the family {[a, â]} of non-degenerate collapsing intervals.

    For each idempotent a, â = sup{x : x & x = a}; the intervals with a < â
    realize the interval-collapse closed form.  For families where the
    dominance law C2 fails there is no such family; the violating (p, u)
    pair found on the canonical grid is returned instead.
    """
    fam = t.family
    if fam in (MINIMUM, INTERVAL_COLLAPSE):
        # x & x = a exactly for x in [a_i, b_i] when a = a_i, so â = b_i;
        # minimum has no intervals.
        return IntervalExtraction(t.intervals)
    report = check_c2(t, canonical_grid(t))
    if report.verdict:  # pragma: no cover - the three other families always fail
        raise RuntimeError(f"no C2 witness found on the canonical grid for {fam}")
    return IntervalExtraction(None, report.witness)


def verify_tnorm_axioms(t: TNorm, grid) -> ConditionReport:
    """Grid evidence for the t-norm axioms plus exact left continuity.

    p & q for grid points p, q is computed once, into a table over grid².
    The sweeps, in order:

    * unit: 1 & p = p for every grid p (1 need not lie on the grid);
    * commutativity: p & q = q & p for the pairs p < q, which covers every
      pair since the law is symmetric and trivial at p = q;
    * monotonicity: p & q <= p2 & q for consecutive grid points p < p2 and
      every q; this gives every pair p < p2 by transitivity along the grid,
      and monotonicity in q by commutativity;
    * associativity: (p & q) & u = p & (q & u) on grid³, computing each
      outer & once per distinct operand pair (below);
    * left continuity in p, decided exactly at every family breakpoint b
      for every grid value q (``_left_limit``).

    Associativity.  The left operand p & q of (p & q) & u and the right
    operand q & u of p & (q & u) are entries of the table, so both lie in
    its set D of distinct values, and every outer & is D[d] & u or p & D[d]
    for grid points u, p.  Those 2·n·|D| products are computed once, for n
    grid points, instead of two per triple.  Every value is interned to an
    int id through one dict keyed on (numerator, denominator).  A Fraction
    keeps these in lowest terms with a positive denominator, so two values
    get the same id exactly when they are equal, and comparing ids decides
    equality exactly.  ``apply`` depends only on the values of its
    operands, so D[d] & u is the product the triple sweep computes.  The
    table entries are interned first, so their ids are 0..|D|-1 and index
    the rows of ``outer``.  For each (p, q), the row of (p & q) & u over u
    is compared as an int list with the row of p & (q & u).  The pairs are
    taken in (p, q) order and the first differing u is the witness, so it
    is the first failing triple of the grid³ sweep, with the same sides;
    Fractions are rebuilt from the ids only for that witness.
    """
    pts = _sorted_grid(grid)
    table = [[apply(t, p, q) for q in pts] for p in pts]
    for i, (p, row) in enumerate(zip(pts, table)):
        if apply(t, ONE, p) != p:
            return ConditionReport(
                "axioms", False,
                Witness((ONE, p), apply(t, ONE, p), p, note="unit"),
                certified=True,
            )
        for j in range(i + 1, len(pts)):
            if row[j] != table[j][i]:
                return ConditionReport(
                    "axioms", False,
                    Witness((p, pts[j]), row[j], table[j][i], note="commutativity"),
                    certified=True,
                )
    for p, p2, row, row2 in zip(pts, pts[1:], table, table[1:]):
        for q, lo, hi in zip(pts, row, row2):
            if lo > hi:
                return ConditionReport(
                    "axioms", False,
                    Witness((p, p2, q), lo, hi, note="monotonicity"),
                    certified=True,
                )
    ids: dict[tuple[int, int], int] = {}

    def code(v):
        return ids.setdefault((v.numerator, v.denominator), len(ids))

    codes = [[code(v) for v in row] for row in table]
    operands = [Fraction(*key) for key in ids]
    outer = [[code(apply(t, v, u)) for u in pts] for v in operands]
    for p, p_codes in zip(pts, codes):
        inner = [code(apply(t, p, v)) for v in operands]
        for q, pq, q_codes in zip(pts, p_codes, codes):
            lhs_row = outer[pq]
            rhs_row = [inner[qu] for qu in q_codes]
            if lhs_row != rhs_row:
                k = next(k for k, (a, b) in enumerate(zip(lhs_row, rhs_row)) if a != b)
                keys = list(ids)
                return ConditionReport(
                    "axioms", False,
                    Witness((p, q, pts[k]), Fraction(*keys[lhs_row[k]]),
                            Fraction(*keys[rhs_row[k]]), note="associativity"),
                    certified=True,
                )
    for b in breakpoints(t):
        if b == ZERO:
            continue
        for q in pts:
            limit, value = _left_limit(t, b, q), apply(t, b, q)
            if limit != value:
                return ConditionReport(
                    "axioms", False,
                    Witness((b, q), limit, value, note="left continuity"),
                    certified=True,
                )
    return ConditionReport(
        "axioms", True,
        notes=("grid evidence; left continuity decided exactly at breakpoints",),
    )


def _left_limit(t: TNorm, b: Fraction, q: Fraction) -> Fraction:
    """sup_{p<b} p & q for b > 0, exactly.

    For fixed q every family is affine in p between consecutive points of
    breakpoints(t) ∪ {q, 1-q}: the case split of ``apply`` changes only
    there.  So on (c, b), with c the last such point below b, p & q is affine
    and its limit at b extrapolates two samples.  Samples at a third and two
    thirds of the way from c to b are spaced like b itself, so the limit is
    2 y2 - y1.
    """
    c = max(v for v in breakpoints(t) + (q, ONE - q) if v < b)
    y1 = apply(t, (2 * c + b) / 3, q)
    y2 = apply(t, (c + 2 * b) / 3, q)
    return 2 * y2 - y1
