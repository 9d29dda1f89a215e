"""Left-continuous triangular norms on [0,1], exactly.

Five closed-form families are supported:

* ``minimum``            p & q = min(p, q)
* ``product``            p & q = p * q
* ``lukasiewicz``        p & q = max(p + q - 1, 0)
* ``nilpotent-minimum``  p & q = min(p, q) if p + q > 1 else 0
* ``interval-collapse``  min(p, q), except pairs lying inside one of a fixed
  family of pairwise disjoint closed intervals [a_i, b_i] ⊆ [0,1) collapse
  to the left endpoint a_i.

Values are exact: `fractions.Fraction` at the boundary (arguments and
values of ``apply`` and ``residuum``, grids, witnesses), while the C1, C2
and axioms sweeps run on integer ranks of those values, which decide every
comparison exactly; there is no floating point anywhere.  The one & kernel
is ``_and_col(t, ps, q)``: it returns ``[p & q for p in ps]`` on
``(numerator, denominator)`` pairs in lowest terms, one call per fixed
right operand q, and builds no Fraction.  ``apply`` wraps a one-element
call and builds the Fraction of its value; ``extract_intervals``,
``_c1_sides`` (the two sides of C1, which ``categories.counterexample``
and ``_c1_failure`` read) and the test oracles call it.
``_rank_products``, the unit check and left limits of ``_axioms_sweep``,
the off-grid rows of ``_associativity_sweep`` and ``categories.validate``
call the kernel directly on ``as_integer_ratio()`` pairs.  Every & in the
package goes through ``_and_col``, looked up as a global of this module,
so it is the seam that a test patches to install a different &.  Grids
are deduplicated and sorted on those integer pairs too (``_ascending``).
The sweeps read p & q over grid² from one table of ranks, built by
``_rank_products``, the only builder of such a table: ``check_c1``,
``check_c2`` and ``verify_tnorm_axioms`` each build their own, and
``_condition_sweeps``, which ``check-tnorm`` runs, builds one and shares it
between C1, C2 and the axioms.
Category generation in ``categories`` reads the same table,
and ``check_ccc``, which ``ccc-suite`` runs, shares one between the C1
sweep and the generation; ``categories.check_exponentiable`` builds one
over the grid and the category's hom values.  ``extract_intervals`` sweeps
no grid: its C3-form witness is a fixed C2 violation of each family.
No table outlives the call that built it.  The module also decides three
equivalent conditions on a t-norm (tags ``C1``, ``C2``, ``C3-form``) that
characterize when the function-space construction on [0,1]-enriched
categories behaves; each check either passes or returns a concrete
violating tuple with both evaluated sides.  Whether C1 holds on all of
[0,1], and each failing family's violation, are known here only:
``_c1_failure`` hands that violation, with its sides, to the ``agreement``
row of ``check-tnorm`` and to ``completeness.check_power_completeness``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import itemgetter

from ._records import Record
from .errors import InputError, InvariantError
from .rationals import ONE, ZERO, check_unit, format_rational

MINIMUM = "minimum"
PRODUCT = "product"
LUKASIEWICZ = "lukasiewicz"
NILPOTENT_MINIMUM = "nilpotent-minimum"
INTERVAL_COLLAPSE = "interval-collapse"

FAMILIES = (MINIMUM, PRODUCT, LUKASIEWICZ, NILPOTENT_MINIMUM, INTERVAL_COLLAPSE)

DEFAULT_GRID_N = 40

Interval = tuple[Fraction, Fraction]


class TNorm(Record):
    """A left-continuous t-norm, one of the five supported families.

    ``intervals`` is only meaningful for the interval-collapse family; it is
    kept sorted by left endpoint, with degenerate [a,a] entries dropped at
    construction (they are no-ops) and remembered in ``dropped_intervals``.
    That attribute is not a field: ``==``, ``hash`` and ``repr`` ignore it,
    so a norm equals the same norm given without its degenerate intervals.
    """

    family: str
    intervals: tuple[Interval, ...] = ()
    dropped_intervals = ()  # set by __post_init__; not a field

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


HALF = Fraction(1, 2)


def apply(t: TNorm, p: Fraction, q: Fraction) -> Fraction:
    """p & q.  Commutative, associative, monotone, with unit 1.

    The arguments are Fractions (or ints), and the value is a Fraction for
    every family.  This is the Fraction wrapper of ``_and_col``, the one &
    kernel, called on the one-element column of p's ``as_integer_ratio()``
    pair with right operand q's pair.  The kernel is looked up as a global
    at each call, so a & installed as ``_and_col`` is the & of ``apply``
    too, and of everything that calls it: ``extract_intervals``,
    ``_c1_sides`` and the test oracles.
    """
    key, = _and_col(t, [p.as_integer_ratio()], q.as_integer_ratio())
    return Fraction(*key)


def _and_col(t: TNorm, ps: list[tuple[int, int]], q: tuple[int, int]) -> list[tuple[int, int]]:
    """``[p & q for p in ps]`` on ``(numerator, denominator)`` pairs.

    Every pair, taken and returned, is in lowest terms with a positive
    denominator, as ``as_integer_ratio()`` gives it, so two values are
    equal exactly when their pairs are.  This is the one & kernel: it holds
    the five closed forms, and every & of the package runs in it, one call
    per fixed right operand q.  ``apply`` wraps a one-element call and
    builds a Fraction of the value; the columns of ``_rank_products``, the
    off-grid rows of ``_associativity_sweep``, the unit check of
    ``_axioms_sweep``, the samples of ``_left_limit`` and the (i, j) loop
    of ``categories.validate`` call it on integer pairs, with no Fraction
    built.  The family is dispatched once per call.

    With p = pn/pd and q = qn/qd and positive denominators, p <= q iff
    pn·qd <= qn·pd: both sides are the values scaled by pd·qd > 0.  Scaling
    by d = pd·qd likewise gives p + q > 1 iff pn·qd + qn·pd > d, and then
    p + q - 1 = (pn·qd + qn·pd - d)/d; Łukasiewicz and product reduce their
    value by the gcd.  Minimum and nilpotent minimum return the argument
    pair object p or q, or (0, 1).  Interval-collapse is the minimum
    except on pairs in one interval [a, b], which collapse to a; the
    intervals are disjoint, so at most one holds q.  Its endpoints are
    converted once per call, and then p & q is a if a <= p <= b and the
    minimum otherwise.
    """
    qn, qd = q
    fam = t.family
    out = []
    if fam == PRODUCT:
        for pn, pd in ps:
            n, d = pn * qn, pd * qd
            g = math.gcd(n, d)
            out.append((n // g, d // g))
        return out
    if fam == LUKASIEWICZ:
        for pn, pd in ps:
            d = pd * qd
            s = pn * qd + qn * pd - d
            if s > 0:
                g = math.gcd(s, d)
                out.append((s // g, d // g))
            else:
                out.append((0, 1))
        return out
    if fam == NILPOTENT_MINIMUM:
        for p in ps:
            pn, pd = p
            a, b = pn * qd, qn * pd
            out.append((p if a <= b else q) if a + b > pd * qd else (0, 1))
        return out
    if fam == INTERVAL_COLLAPSE:
        for lo_end, hi_end in t.intervals:
            an, ad = a_key = lo_end.as_integer_ratio()
            bn, bd = hi_end.as_integer_ratio()
            if qn * ad < an * qd:  # q lies below this interval and every later one
                break
            if qn * bd <= bn * qd:  # a <= q <= b
                for p in ps:
                    pn, pd = p
                    if an * pd <= pn * ad and pn * bd <= bn * pd:
                        out.append(a_key)
                    else:
                        out.append(p if pn * qd <= qn * pd else q)
                return out
    for p in ps:
        out.append(p if p[0] * qd <= qn * p[1] else q)
    return out


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


class Piece(Record):
    """One maximal run of idempotents: an interval from ``lo``, open there
    unless ``lo_closed``, to ``hi``, which it always contains (``idempotents``
    proves that every maximal run contains its right end)."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True

    def contains(self, v: Fraction) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        return True

    def __str__(self):
        left = "[" if self.lo_closed else "("
        if self.lo == self.hi:
            return f"{{{format_rational(self.lo)}}}"
        return f"{left}{format_rational(self.lo)},{format_rational(self.hi)}]"


class IdempotentSet(Record):
    """Finite union of points and intervals: all p with p & p = p."""

    pieces: tuple[Piece, ...]

    def contains(self, v: Fraction) -> bool:
        return any(piece.contains(v) for piece in self.pieces)

    def __str__(self):
        return " ∪ ".join(str(p) for p in self.pieces) if self.pieces else "∅"


def idempotents(t: TNorm) -> IdempotentSet:
    """Exact description of {p : p & p = p}, per family.

    Every maximal piece contains its right end, so ``Piece`` has no open
    right end.  Let p_n ↑ p with p_n & p_n = p_n, and & left-continuous.
    For m <= n, p_m = p_m & p_m <= p_m & p_n <= p_m by monotonicity and
    x & y <= x, so p_m & p_n = p_m.  Left continuity in each argument and
    monotonicity give p & p = sup_{m,n} p_m & p_n = sup_n p_n = p, since
    p_m & p_n = p_{min(m,n)}.  So the idempotents contain the supremum of
    each increasing sequence of idempotents, and a maximal run of them
    contains its supremum hi: either hi is in the run, or it is the limit
    of an increasing sequence from the run, so hi is idempotent and, by
    maximality, in the run.  ``tests/test_tnorms.py`` checks that the right
    end of every piece is idempotent.
    """
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


class Witness(Record):
    """A concrete violating tuple together with both recomputed sides."""

    values: tuple
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    note: str = ""


class ConditionReport(Record):
    condition: str
    verdict: bool
    witness: Witness | None = None
    certified: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.verdict and self.witness is None:
            raise InvariantError("a failing report must carry a witness")


def _failure(condition: str, values: tuple, lhs: tuple[int, int], rhs: tuple[int, int],
             note: str = "") -> ConditionReport:
    """The certified failing report of ``condition`` at ``values``.

    The sides are ``(numerator, denominator)`` pairs, as the sweeps hold
    them, and become the witness's Fractions here.  Every failing
    ``ConditionReport`` of the package is built by this function, which
    ``tests/test_package.py`` checks on the source.
    """
    return ConditionReport(
        condition, False, Witness(values, Fraction(*lhs), Fraction(*rhs), note), certified=True
    )


def _ascending(keys) -> list[tuple[int, int]]:
    """Distinct ``(numerator, denominator)`` pairs in ascending order of value.

    Each pair is a value in lowest terms with a positive denominator, as
    ``as_integer_ratio()`` gives it.  The sort key is exact and integer: with
    L the lcm of the denominators, n/d < n2/d2 iff n·(L/d) < n2·(L/d2),
    since both sides are the values scaled by L > 0.
    """
    lcm = math.lcm(*(d for _, d in keys))
    return sorted(keys, key=lambda key: key[0] * (lcm // key[1]))


def _sorted_grid(grid) -> list[Fraction]:
    """The distinct grid values, ascending; InputError unless all lie in [0,1].

    Each value is deduplicated on its ``as_integer_ratio()`` pair, which is
    equal for two Fractions exactly when they are, and the pairs are sorted
    by ``_ascending``: no Fraction is hashed or compared.  Of equal values
    the first is kept.
    """
    firsts: dict[tuple[int, int], Fraction] = {}
    for v in grid:
        v = v if type(v) is Fraction else Fraction(v)
        firsts.setdefault(v.as_integer_ratio(), v)
    if not firsts:
        raise InputError("grid must be nonempty")
    pts = list(map(firsts.__getitem__, _ascending(firsts)))
    if pts[0] < ZERO or pts[-1] > ONE:
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


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, as ``as_integer_ratio()`` gives it (den > 0)."""
    g = math.gcd(num, den)
    return num // g, den // g


def canonical_grid(t: TNorm, n: int = DEFAULT_GRID_N) -> tuple[Fraction, ...]:
    """Breakpoints, a uniform k/n sweep, and midpoints of consecutive breakpoints.

    The points are collected as reduced ``(numerator, denominator)`` pairs,
    sorted by ``_ascending`` and built into Fractions once each; the
    midpoint of a/b and c/d is (a·d + c·b)/(2·b·d).
    """
    if n < 1:
        raise InputError("grid size must be >= 1")
    bps = [b.as_integer_ratio() for b in breakpoints(t)]
    pts = set(bps)
    pts.update(_reduced(k, n) for k in range(n + 1))
    pts.update(_reduced(a * d + c * b, 2 * b * d) for (a, b), (c, d) in zip(bps, bps[1:]))
    return tuple(Fraction(*key) for key in _ascending(pts))


def _rank_products(
    t: TNorm, pts: list[Fraction]
) -> tuple[list[int], list[list[int]], list[tuple[int, int]]]:
    """The table of p & q over grid², relabelled to integer ranks.

    Returns ``(g, table, keys)``: ``g[i]`` is the rank of ``pts[i]``,
    ``table[i][j]`` the rank of ``pts[i] & pts[j]``, and ``keys[r]`` the
    ``(numerator, denominator)`` of the value of rank r, from which
    ``Fraction(*keys[r])`` rebuilds it.

    ``_and_col`` runs once per column, on the ``as_integer_ratio()`` pairs
    of the grid points with the column's point as right operand, and the
    columns are transposed into rows.  The kernel, like a Fraction, keeps
    its pairs in lowest terms with a positive denominator, so two values of
    grid ∪ table share a pair exactly when they are equal.  The distinct
    pairs are sorted once on an exact integer key (``_ascending``).  The
    rank of a value is its position in that order, so ranks are injective
    and order-preserving on grid ∪ table: for any two of its values,
    comparing ranks decides <, == and >, and max and min commute with the
    relabelling.
    """
    grid_keys = [v.as_integer_ratio() for v in pts]
    rows = list(zip(*[_and_col(t, grid_keys, q) for q in grid_keys]))
    keys = _ascending(set(grid_keys).union(*rows))
    rank = dict(zip(keys, count()))
    return (list(map(rank.__getitem__, grid_keys)),
            [list(map(rank.__getitem__, row)) for row in rows], keys)


def check_c1(t: TNorm, grid) -> ConditionReport:
    """Interchange law: (p & q) ∧ u == ((p ∧ u) & q) ∨ (p & (q ∧ u)) on grid³.

    Lemma: for every t-norm, C1 holds at (p, q, u) whenever u >= p or
    u >= q.  If u >= p, then p & q <= p <= u, so the left side is p & q;
    on the right, (p ∧ u) & q = p & q and p & (q ∧ u) <= p & q by
    monotonicity, so the right side is p & q too.  The case u >= q is
    symmetric.  So only the triples with u < p ∧ q are swept; on the sorted
    grid these are the u before both p and q, and there p ∧ u = q ∧ u = u.
    Every operand of & is then a grid point, so all products are read from
    one table of p & q over grid², built on integer ranks by
    ``_rank_products``.  Ranks are injective and order-preserving on
    grid ∪ table, so the rank of each side is the min or max of the ranks
    of its parts, and comparing ranks decides the Fraction comparison.

    For p = pts[i], q = pts[j] and u = pts[k], the swept triples are those
    with k < min(i, j), and there the sides are min(g[k], table[i][j]) and
    max(table[k][j], table[i][k]): u & q, then p & u, the left factor first
    as in the law.  Each row i of the grid, p = pts[i], is decided by one
    comparison of two flat int lists in (u, q) order: for each k < i, the j
    from lo = max(start, k + 1) to the end, with start = i on a symmetric
    table (below) and 0 otherwise.  The left list reads min(g[k], row[j])
    from ``row[lo:]``, the right one max(table[k][j], row[k]) from
    ``table[k][lo:]``.  Since k < min(i, j) holds iff k < i and j >= k + 1,
    these are exactly the triples k < min(i, j) with j >= start.  On a
    mismatch the witness is the mismatch with the smallest (j, k), not the
    first in the lists' (k, j) order, so it is the first failing triple of
    the full grid³ sweep in (p, q, u) order, with the same sides; they are
    rebuilt as Fractions from their ranks.

    Symmetric table.  When the table equals its transpose, as it does for a
    commutative &, row i is swept only over j >= i: start = i, so lo = i
    for every k < i.  At (i, j, k) the sides are min(g[k], table[i][j])
    and max(table[k][j], table[i][k]), and at (j, i, k) they are
    min(g[k], table[j][i]) and max(table[k][i], table[j][k]): by symmetry
    the same min and the same max.  So (i, j, k) fails exactly when
    (j, i, k) does, with the same sides.  A failing triple with j < i
    therefore comes after the failing (j, i, k) in (p, q, u) order, so the
    first failing triple of the full sweep has i <= j, and the shortened
    sweep meets it first, with the same witness.

    The table is built here, for this call only; ``_condition_sweeps``
    builds it once and hands it to this sweep, the C2 sweep and the axioms
    sweep, and ``categories.check_ccc`` to this sweep and category
    generation.
    """
    pts = _sorted_grid(grid)
    return _c1_sweep(t, pts, *_rank_products(t, pts))


def _c1_sweep(t: TNorm, pts, g, table, keys) -> ConditionReport:
    """The sweep of ``check_c1`` over the sorted grid ``pts`` and its
    ``_rank_products`` table ``(g, table, keys)``, which it only reads."""
    symmetric = _symmetric(table)
    for i, row in enumerate(table):
        # lo = max(start, k + 1) for k < i: start = i if symmetric, else 0
        los = [i] * i if symmetric else range(1, i + 1)
        lhs = [x if x < gk else gk for gk, lo in zip(g, los) for x in row[lo:]]
        rhs = [x if x > pu else pu for pu, uq, lo in zip(row, table, los) for x in uq[lo:]]
        if lhs != rhs:
            jks = ((j, k) for k, lo in enumerate(los) for j in range(lo, len(row)))
            (j, k), a, b = min(m for m in zip(jks, lhs, rhs) if m[1] != m[2])
            return _failure("C1", (pts[i], pts[j], pts[k]), keys[a], keys[b])
    return ConditionReport("C1", True, certified=_c1_holds_on_unit_interval(t))


def check_c2(t: TNorm, grid) -> ConditionReport:
    """Dominance law: u <= p & p implies u & p = u, on grid².

    Only the pairs with u <= p & p are swept: the grid is sorted, so the u
    loop ends at the first u > p & p.  The products are read from a table
    of p & q over grid², built on integer ranks by ``_rank_products`` for
    this call only; ``_condition_sweeps`` builds one table and hands it to
    this sweep, the C1 sweep and the axioms sweep.
    """
    pts = _sorted_grid(grid)
    return _c2_sweep(t, pts, *_rank_products(t, pts))


def _c2_sweep(t: TNorm, pts, g, table, keys) -> ConditionReport:
    """The sweep of ``check_c2`` over the sorted grid ``pts`` and its
    ``_rank_products`` table ``(g, table, keys)``, which it only reads.

    With p = pts[i] and u = pts[k], p & p is ``table[i][i]`` and u & p is
    ``table[k][i]``, and ranks are order-preserving on grid ∪ table, so
    ``g[k] > table[i][i]`` decides u > p & p and ``table[k][i] != g[k]``
    decides u & p != u.  The pairs come in (p, u) order, and the witness's
    sides u & p and u are rebuilt from their ranks.
    """
    for i, p in enumerate(pts):
        pp = table[i][i]
        for k, (u, r) in enumerate(zip(pts, g)):
            if r > pp:
                break
            up = table[k][i]
            if up != r:
                return _failure("C2", (p, u), keys[up], keys[r])
    return ConditionReport("C2", True, certified=_c1_holds_on_unit_interval(t))


# For each family that fails C1, the (p, q, u) of the first C1 violation and
# the (p, u) of the first C2 violation that check_c1 and check_c2 find on
# canonical_grid(t) (derivations in _c1_holds_on_unit_interval and
# extract_intervals)
_C1_FAILURES = {
    PRODUCT: ((Fraction(1, 20), Fraction(1, 20), Fraction(1, 40)),
              (Fraction(7, 40), Fraction(1, 40))),
    LUKASIEWICZ: ((Fraction(1, 20), Fraction(39, 40), Fraction(1, 40)),
                  (Fraction(21, 40), Fraction(1, 40))),
    NILPOTENT_MINIMUM: ((Fraction(1, 20), Fraction(39, 40), Fraction(1, 40)),
                        (Fraction(21, 40), Fraction(1, 40))),
}


def _c1_holds_on_unit_interval(t: TNorm) -> bool:
    """Whether C1 holds at every triple (p, q, u) of [0,1], not only on a grid.

    This is the one place that decides it.  A grid pass of ``check_c1`` is
    certified exactly when it holds, and so is one of ``check_c2``, the
    equivalent dominance law.  It holds for minimum and interval-collapse
    and fails for the other three families, the keys of ``_C1_FAILURES``.
    ``TNorm`` admits only ``FAMILIES``, so the families that the table
    leaves out are exactly the two proved below; ``tests/test_tnorms.py``
    pins that set.

    By the lemma of ``check_c1`` only the triples with u < p ∧ q need a
    proof, and there p ∧ u = q ∧ u = u, so C1 reads
    (p & q) ∧ u == (u & q) ∨ (p & u).  Every t-norm has x & y <= x ∧ y, so
    both terms on the right are at most u.

    * Minimum: both sides are u.
    * Interval-collapse, p and q in one interval [a, b]: p & q = a.  If
      u < a, then u lies in no interval with q or with p, so both terms on
      the right are u = a ∧ u.  If a <= u, then u lies in [a, b] too, so
      both terms are a = a ∧ u.
    * Interval-collapse, p and q in no common interval: p & q = p ∧ q > u,
      so the left side is u.  A term on the right is below u only if u and
      that operand lie in one interval.  The intervals are disjoint, so
      they cannot both collapse: p and q would then share u's interval.
      One term is u, and the right side is u.

    The other families fail at a closed-form triple, with sides
    (left, right): product at (1/2, 1/2, 1/8), (1/8, 1/16); Łukasiewicz at
    (3/4, 3/4, 1/2), (1/2, 1/4); nilpotent minimum at (3/4, 3/4, 1/5),
    (1/5, 0).  ``tests/test_tnorms.py`` checks these triples and that this
    predicate equals the verdict of ``check_c1`` on ``canonical_grid(t)``.

    The first item of each entry of ``_C1_FAILURES`` is the first failing
    triple of ``check_c1`` on ``canonical_grid(t)``, which is k/40 for
    k = 0..40 under these three families.  The sweep runs in (p, q, u)
    order over u < p ∧ q, and u = 0 never fails (both sides are 0), so the
    first candidate is p = 1/20, u = 1/40, with q ascending from 1/20:

    * Product: q = 1/20 fails, with sides (1/400, 1/800).
    * Łukasiewicz: u & q = max(q - 39/40, 0), p & u = 0 and
      p & q = max(q - 38/40, 0), so both sides are 0 up to q = 38/40 and
      q = 39/40 fails, with sides (1/40, 0).
    * Nilpotent minimum: p & u = 0, and u & q = 0 for q < 1, while
      p & q = 0 up to q = 38/40 and 1/20 at q = 39/40, which fails, with
      sides (1/40, 0).
    """
    return t.family not in _C1_FAILURES


def _c1_sides(t: TNorm, p: Fraction, q: Fraction, u: Fraction) -> tuple[Fraction, Fraction]:
    """C1's two sides at (p, q, u): (p & q) ∧ u and ((p ∧ u) & q) ∨ (p & (q ∧ u))."""
    return min(apply(t, p, q), u), max(apply(t, min(p, u), q), apply(t, p, min(q, u)))


def _c1_failure(t: TNorm) -> Witness | None:
    """The first C1 violation of ``t``'s family on ``canonical_grid(t)``
    (the first item of its entry in ``_C1_FAILURES``), with its sides; None
    where C1 holds on [0,1]."""
    if _c1_holds_on_unit_interval(t):
        return None
    triple = _C1_FAILURES[t.family][0]
    return Witness(triple, *_c1_sides(t, *triple))


class IntervalExtraction(Record):
    """Either the collapsing-interval family, or the pair defeating it."""

    intervals: tuple[Interval, ...] | None
    witness: Witness | None = None

    @property
    def ok(self) -> bool:
        return self.intervals is not None


def extract_intervals(t: TNorm) -> IntervalExtraction:
    """Recover the family {[a, â]} of non-degenerate collapsing intervals.

    For each idempotent a, â = sup{x : x & x = a}; the intervals with a < â
    realize the interval-collapse closed form.  The t-norms that have one
    are those where C1 holds on [0,1] (``_c1_holds_on_unit_interval``), the
    minimum and interval-collapse: there x & x = a exactly for x in
    [a_i, b_i] when a = a_i, so â = b_i, and minimum has no intervals.  For
    the other families the dominance law C2 fails and there is no such
    family; a violating (p, u) pair is returned instead, with sides
    (u & p, u) from one ``apply`` call.  No grid is swept.

    The pair is the second item of ``_C1_FAILURES[t.family]``, the first
    C2 violation that ``check_c2`` finds on ``canonical_grid(t)``.  That
    grid is k/40 for k = 0..40 under the three families: their breakpoints
    0, 1/2 and 1 and the midpoints 1/4 and 3/4 all lie on it.  Take
    p = m/40 in ascending order; u = 0 never fails, since 0 & p = 0.

    * Product: p & p = m²/1600, and u = k/40 <= p & p iff 40·k <= m²;
      u & p = u·p = u fails for every u > 0 when p < 1.  So the first p
      with a grid u in (0, p & p] has m² >= 40, m = 7, and u = 1/40:
      (7/40, 1/40), with sides (7/1600, 1/40).
    * Łukasiewicz: p & p = max(2p - 1, 0) is 0 for m <= 20 and 1/20 at
      m = 21, and 1/40 & 21/40 = max(22/40 - 1, 0) = 0: (21/40, 1/40),
      with sides (0, 1/40).
    * Nilpotent minimum: p & p is 0 for m <= 20 (2p <= 1) and 21/40 at
      m = 21, and 1/40 & 21/40 = 0 since 1/40 + 21/40 <= 1:
      (21/40, 1/40), with sides (0, 1/40).

    ``tests/test_tnorms.py`` checks each pair against ``check_c2`` on
    ``canonical_grid(t)``.
    """
    if _c1_holds_on_unit_interval(t):
        return IntervalExtraction(t.intervals)
    p, u = _C1_FAILURES[t.family][1]
    return IntervalExtraction(None, Witness((p, u), apply(t, u, p), u))


def verify_tnorm_axioms(t: TNorm, grid) -> ConditionReport:
    """Grid evidence for the t-norm axioms plus exact left continuity.

    p & q for grid points p, q is computed once, into a table over grid²
    on integer ranks (``_rank_products``).  Ranks are injective and
    order-preserving on grid ∪ table, so comparing the ranks of two table
    entries decides the Fraction comparison.  The sweeps, in order:

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
    for grid points u, p.  The & depends only on the values of its
    operands, so D[d] & u is the product the triple sweep computes.  When
    D[d] is a grid point, its row of D[d] & u over u and its products
    p & D[d] are entries of the table and are read from it.  Only the
    off-grid operands call ``_and_col``, on the (numerator, denominator)
    pairs of the table, with no Fraction built: one call per grid point u
    gives the column of D[d] & u over the off-grid D[d], and one call per
    off-grid D[d] the column of p & D[d] over p, 2·n evaluations per
    operand for n grid points instead of two per triple.  The products are
    compared as pairs, not ranks: the kernel returns lowest terms with a
    positive denominator, and so do the keys of the table, so two products
    are equal exactly when their pairs are, and an off-grid product needs
    no id.  For each p, the products p & D[d] sit in one tuple, those of
    the grid operands read from p's row of the table and the off-grid ones
    from the kernel.  For each q, one ``itemgetter`` over q's row, built
    once, reads from that tuple the row of p & (q & u) over u, which is
    compared with the row of (p & q) & u.  The pairs are taken in (p, q)
    order and the first differing u is the witness, so it is the first
    failing triple of the grid³ sweep, with the same sides.  Fractions are
    rebuilt from the pairs only for witnesses.

    Closed grids.  When every product of two grid points is a grid point,
    ranks and grid indices coincide (g[i] = i), and commutativity, already
    checked, makes the table symmetric.  Let M_j be the matrix whose row a
    is ``table[table[j][a]]``, so M_j[a][b] = (q_j & x_a) & x_b.  Then
    (p_i & q_j) & u_k = (q_j & p_i) & u_k = M_j[i][k], and
    p_i & (q_j & u_k) = (q_j & u_k) & p_i = M_j[k][i], each by
    commutativity on the grid.  So associativity holds on grid³ exactly
    when each of the n matrices M_j equals its transpose, which is decided
    without the triple sweep.  The ordered sweep above runs only when the
    grid is not closed or some M_j is not symmetric, and it alone gives the
    witness.

    The table is built here, for this call only; ``_condition_sweeps``
    builds it once and hands it to this sweep and the C1 and C2 sweeps.
    """
    pts = _sorted_grid(grid)
    return _axioms_sweep(t, pts, *_rank_products(t, pts))


def _row_getter(indices):
    """``itemgetter(*indices)``, returning a tuple also for one index."""
    if len(indices) == 1:
        k, = indices
        return lambda seq: (seq[k],)
    return itemgetter(*indices)


def _symmetric(rows) -> bool:
    """Whether the square matrix ``rows`` equals its transpose."""
    return list(zip(*rows)) == list(map(tuple, rows))


def _axioms_sweep(t: TNorm, pts, g, table, keys) -> ConditionReport:
    """The sweeps of ``verify_tnorm_axioms`` over the sorted grid ``pts``
    and its ``_rank_products`` table ``(g, table, keys)``, which they only
    read."""
    grid_keys = [keys[r] for r in g]
    one = [(1, 1)]  # 1 is the left operand: one evaluation per right operand p
    for i, (p, p_key, row) in enumerate(zip(pts, grid_keys, table)):
        unit, = _and_col(t, one, p_key)
        if unit != p_key:
            return _failure("axioms", (ONE, p), unit, p_key, "unit")
        for j in range(i + 1, len(pts)):
            if row[j] != table[j][i]:
                return _failure("axioms", (p, pts[j]), keys[row[j]], keys[table[j][i]],
                                "commutativity")
    for p, p2, row, row2 in zip(pts, pts[1:], table, table[1:]):
        for q, lo, hi in zip(pts, row, row2):
            if lo > hi:
                return _failure("axioms", (p, p2, q), keys[lo], keys[hi], "monotonicity")
    # commutativity holds, so the table is symmetric; on a closed grid the
    # matrices M_j of the docstring decide associativity
    if not (len(keys) == len(pts)
            and all(_symmetric(list(map(table.__getitem__, row))) for row in table)):
        failure = _associativity_sweep(t, pts, g, table, keys, grid_keys)
        if failure is not None:
            return failure
    bps = breakpoints(t)
    bp_keys = [b.as_integer_ratio() for b in bps]
    for b, b_key, c_key in zip(bps[1:], bp_keys[1:], bp_keys):  # bps[0] is 0
        for q, q_key in zip(pts, grid_keys):
            limit, value = _left_limit(t, b_key, c_key, q_key)
            if limit != value:
                return _failure("axioms", (b, q), limit, value, "left continuity")
    return ConditionReport(
        "axioms", True,
        notes=("grid evidence; left continuity decided exactly at breakpoints",),
    )


def _associativity_sweep(t: TNorm, pts, g, table, keys, grid_keys) -> ConditionReport | None:
    """The ordered associativity sweep of ``verify_tnorm_axioms`` over the
    sorted grid ``pts``, its ``_rank_products`` table ``(g, table, keys)``
    and the pairs ``grid_keys`` of the grid points: the failing report of
    the first failing triple, or None."""
    # each operand of an outer & has a slot in the row ``inner`` of p & D[d]:
    # grid point k has slot k, and the off-grid operands follow
    slot = {r: k for k, r in enumerate(g)}
    off_grid = sorted({r for row in table for r in row} - slot.keys())
    slot.update(zip(off_grid, count(len(pts))))
    off_keys = [keys[r] for r in off_grid]
    # the row of D[d] & u over u, by the rank of D[d], as pairs
    pairs = [tuple(map(keys.__getitem__, row)) for row in table]
    outer: list = [None] * len(keys)
    for r, row in zip(g, pairs):
        outer[r] = row
    for r, row in zip(off_grid, zip(*[_and_col(t, off_keys, u) for u in grid_keys])):
        outer[r] = row
    # the products p & D[d] over the off-grid D[d], one tuple per p
    off_rows = list(zip(*[_and_col(t, grid_keys, v) for v in off_keys])) or [()] * len(pts)
    # the row of p & (q & u) over u, read from inner by one getter per q
    rhs_getters = [_row_getter([slot[r] for r in q_row]) for q_row in table]
    for p, row, pair_row, off_row in zip(pts, table, pairs, off_rows):
        inner = pair_row + off_row
        for q, pq, rhs_getter in zip(pts, row, rhs_getters):
            lhs_row, rhs_row = outer[pq], rhs_getter(inner)
            if lhs_row != rhs_row:
                k = next(k for k, (a, b) in enumerate(zip(lhs_row, rhs_row)) if a != b)
                return _failure("axioms", (p, q, pts[k]), lhs_row[k], rhs_row[k],
                                "associativity")
    return None


def _condition_sweeps(
    t: TNorm, grid
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """``(check_c1(t, grid), check_c2(t, grid), verify_tnorm_axioms(t, grid))``,
    sharing one table.

    The three sweeps read p & q over grid² from the same ``_rank_products``
    table, and none writes to it, so it is built once here instead of once
    per check: n² evaluations of & for n grid points, the ranking and the
    sort are saved, and C1 and C2 call the & no further.  The table
    lives for this call only.  ``cmd_check_tnorm`` calls this.
    """
    pts = _sorted_grid(grid)
    ranked = _rank_products(t, pts)
    return (_c1_sweep(t, pts, *ranked), _c2_sweep(t, pts, *ranked),
            _axioms_sweep(t, pts, *ranked))


def _left_limit(
    t: TNorm, b: tuple[int, int], c: tuple[int, int], q: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """``(sup_{p<b} p & q, b & q)`` for b > 0, exactly, as lowest-terms pairs.

    b, q and c, the breakpoint before b in ``breakpoints(t)``, are
    ``(numerator, denominator)`` pairs.  For fixed q every family is affine
    in p between consecutive points of breakpoints(t) ∪ {q, 1-q}: the case
    split of ``_and_col`` changes only there.  So on (c, b), with c the
    last such point below b, p & q is affine and its limit at b
    extrapolates two samples.  Samples at a third and two thirds of the way
    from c to b are spaced like b itself, so the limit is 2 y2 - y1.

    c becomes the max of three candidates: the breakpoint before b, and q
    and 1 - q when they lie below b.  Every comparison and every sum is
    taken on integers: with positive denominators, x/y < z/w iff
    x·w < z·y, and 1 - q = (qd - qn)/qd.  With c = cn/cd and b = bn/bd, the
    samples are (2·cn·bd + bn·cd)/(3·cd·bd) and (cn·bd + 2·bn·cd)/(3·cd·bd),
    which ``_reduced`` brings to lowest terms.  One ``_and_col`` call with
    right operand q gives y1, y2 and b & q, and
    2 y2 - y1 = (2·y2n·y1d - y1n·y2d)/(y1d·y2d), which ``_reduced`` brings
    to lowest terms, so the two values are equal exactly when their pairs
    are.
    """
    bn, bd = b
    cn, cd = c
    qn, qd = q
    for vn in (qn, qd - qn):
        if vn * bd < bn * qd and vn * cd > cn * qd:
            cn, cd = vn, qd
    samples = [_reduced(2 * cn * bd + bn * cd, 3 * cd * bd),
               _reduced(cn * bd + 2 * bn * cd, 3 * cd * bd), b]
    (y1n, y1d), (y2n, y2d), value = _and_col(t, samples, q)
    return _reduced(2 * y2n * y1d - y1n * y2d, y1d * y2d), value
