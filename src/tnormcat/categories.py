"""Finite [0,1]-enriched categories and their cartesian structure.

A category here is a finite set of labelled elements with a [0,1]-valued hom
matrix that is reflexive (hom(x,x) = 1) and transitive with respect to an
ambient t-norm (hom(y,z) & hom(x,y) <= hom(x,z)).  Maps that never shrink
hom values are the functors.  The module builds products, the terminal
object, and function-space (power) objects whose hom is

    d(f, g) = largest q with  q ∧ hom(x,y) <= hom(f(x), g(y))  for all x, y,

and decides whether that construction actually yields categories for a given
t-norm: per-object exponentiability, a currying/adjunction check on concrete
triples, an explicit counterexample builder for t-norms violating the
interchange law, and a composite cartesian-closedness verdict.

For every t-norm, evaluation is a functor and currying is a bijection from
the functors z×x -> y onto the functors z -> y^x, whether or not the power
y^x is a category (proof in ``check_currying``).  So the verdict turns on
whether each power validates, and C1 on the grid decides that for every
pair of categories with hom values in the grid (proof in ``check_ccc``):
the sweep builds no category, power or functor.  It only counts the
categories of each size by backtracking on grid ranks (proof in
``enumerate_categories``), and the budget bounds that count alone.
Category generation reads p & q from the grid² rank table of
``tnorms._rank_products``, and the sweep builds that table once and shares
it between C1 and the generation.
``check_exponentiable`` reads one such table too, over the grid and the
category's hom values, and calls no Fraction-level &.

All witness searches scan elements in lexicographic label order, so verdicts
are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from . import tnorms
from ._records import Record, replace
from .errors import BudgetError, InputError, InvariantError, PreconditionError
from .rationals import ONE, ZERO, check_unit
from .tnorms import (ConditionReport, TNorm, Witness, _c1_holds_on_unit_interval, _c1_sides,
                     _c1_sweep, _failure, _rank_products, _sorted_grid, apply, residuum)

DEFAULT_BUDGET = 10**6


# a backslash before each character that tuple rendering gives a meaning
_TUPLE_PART_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def label_text(label) -> str:
    """Render an element label (string, rational, or nested tuple) as text.

    In the string parts of a tuple, ``\\``, ``,``, ``(`` and ``)`` are
    escaped with a backslash, so tuples of distinct strings render
    distinctly: ("a,", "x") is ``(a\\,,x)`` and ("a", ",x") is ``(a,\\,x)``.
    A plain label, and a part without those characters, renders as is.
    """
    if isinstance(label, tuple):
        return "(" + ",".join(
            part.translate(_TUPLE_PART_ESCAPES) if isinstance(part, str) else label_text(part)
            for part in label
        ) + ")"
    return str(label)


def _label_key(label):
    """The key of ``label`` in ``RCat._index``: a Fraction or int by its
    integer pair, so that no Fraction is hashed (equal numbers share a key,
    as they share a hash), any other label by itself."""
    return (Fraction, *label.as_integer_ratio()) if type(label) in (Fraction, int) else label


class RCat(Record):
    """A finite [0,1]-enriched category: ordered labels + hom matrix."""

    elements: tuple
    hom: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        n = len(self.elements)
        if len(self._index) != n:
            raise InputError("category elements must be distinct")
        if len(self.hom) != n or any(len(row) != n for row in self.hom):
            raise InputError("hom must be a square matrix matching the element count")
        object.__setattr__(
            self,
            "hom",
            tuple(
                tuple(v if type(v) is Fraction else Fraction(v) for v in row)
                for row in self.hom
            ),
        )
        for row in self.hom:
            for v in row:
                check_unit(v, "hom value")

    @cached_property
    def _index(self) -> dict:
        return {_label_key(x): i for i, x in enumerate(self.elements)}

    @cached_property
    def _sorted_indices(self) -> tuple[int, ...]:
        return tuple(
            sorted(range(len(self.elements)), key=lambda i: label_text(self.elements[i]))
        )

    def index(self, label) -> int:
        try:
            return self._index[_label_key(label)]
        except KeyError:
            raise InputError(f"unknown element {label_text(label)!r}") from None

    def hom_of(self, x, y) -> Fraction:
        return self.hom[self.index(x)][self.index(y)]

    def __len__(self):
        return len(self.elements)


def validate(cat: RCat, t: TNorm) -> Witness | None:
    """None if reflexivity and transitivity hold; else the first violation.

    Transitivity hom(j,k) & hom(i,j) <= hom(i,k) is composed only for
    triples of distinct elements.  Once reflexivity holds, every triple with
    a repeated index holds for every t-norm:

    * i = j:  hom(i,k) & 1 = hom(i,k);
    * j = k:  1 & hom(i,j) = hom(i,j);
    * i = k:  hom(j,i) & hom(i,j) <= 1 = hom(i,i).

    The triples are taken in the order of ``itertools.permutations`` over
    the sorted labels, which keeps their lexicographic order, so the
    witness is the first failing triple of the full sweep.
    ``tests/test_proofs.py`` checks both facts by brute force.  For each
    (i, j), one ``tnorms._and_col`` call with right operand hom(i,j) gives
    hom(j,k) & hom(i,j) over every k, on ``as_integer_ratio()`` pairs (at
    k = i and k = j too, which costs less than building the column without
    them), and each is compared with hom(i,k) by cross-multiplication:
    n/d > m/e iff n·e > m·d for positive denominators.  Fractions are
    rebuilt only for the witness.  ``tests/oracles.py`` keeps the sweep on
    Fractions.
    """
    order = cat._sorted_indices
    for i in order:
        if cat.hom[i][i] != ONE:
            return Witness(
                (cat.elements[i],), cat.hom[i][i], ONE, note="reflexivity"
            )
    keys = [list(map(Fraction.as_integer_ratio, row)) for row in cat.hom]
    for i in order:
        row_i = keys[i]
        for j in order:
            if j == i:
                continue
            composed = tnorms._and_col(t, keys[j], row_i[j])
            for k in order:
                n, d = composed[k]
                m, e = row_i[k]
                if n * e > m * d and k != i and k != j:
                    return Witness(
                        (cat.elements[i], cat.elements[j], cat.elements[k]),
                        Fraction(n, d),
                        cat.hom[i][k],
                        note="transitivity",
                    )
    return None


class RFunctor(Record):
    """A hom-nonexpanding map; ``mapping`` aligns with source element order."""

    source: RCat
    target: RCat
    mapping: tuple

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.source.elements):
            raise InputError("mapping must assign every source element")
        for lbl in self.mapping:
            self.target.index(lbl)

    def __call__(self, label):
        return self.mapping[self.source.index(label)]


def is_functor(f: RFunctor) -> Witness | None:
    """None if the map never shrinks hom values; else the first violating pair."""
    src, dst = f.source, f.target
    images = tuple(dst.index(lbl) for lbl in f.mapping)
    order = src._sorted_indices
    for i in order:
        for j in order:
            if src.hom[i][j] > dst.hom[images[i]][images[j]]:
                return Witness(
                    (src.elements[i], src.elements[j]),
                    src.hom[i][j],
                    dst.hom[images[i]][images[j]],
                    note="hom-nonexpansion",
                )
    return None


def terminal() -> RCat:
    return RCat(("*",), ((ONE,),))


def product(a: RCat, b: RCat) -> RCat:
    """Carrier product with pointwise-minimum hom."""
    elements = tuple((x, y) for x in a.elements for y in b.elements)
    hom = tuple(
        tuple(min(u, v) for u in a_row for v in b_row)
        for a_row in a.hom
        for b_row in b.hom
    )
    return RCat(elements, hom)


def unit_interval_category(t: TNorm, points) -> RCat:
    """Finite substructure of [0,1] with hom(x,y) = residuum(x,y).

    Reflexivity and transitivity hold automatically for every left-continuous
    t-norm, so the result always validates.  The points are deduplicated and
    sorted by ``_sorted_grid``, on integer pairs, and ``RCat`` indexes
    Fraction labels by those pairs, so neither hashes a Fraction.
    """
    points = [check_unit(Fraction(p), "point") for p in points]
    if not points:
        raise InputError("unit-interval category needs at least one point")
    pts = tuple(_sorted_grid(points))
    hom = tuple(tuple(residuum(t, x, y) for y in pts) for x in pts)
    return RCat(pts, hom)


def _functor_images(src: RCat, dst: RCat, budget: int):
    """The functors src -> dst as image tuples, with the ranks that chose them.

    Returns ``(values, src_m, dst_m, images)``: ``values`` holds the
    distinct hom values of both matrices and 1, ascending
    (``_sorted_grid``, on integer pairs), ``src_m`` and ``dst_m`` are the
    matrices as ranks in ``values``, looked up by ``as_integer_ratio()`` as
    ``check_exponentiable`` does, so no Fraction is hashed, and ``images``
    lists, in ``itertools.product`` order, the tuples of target indices
    (one per source element) of the maps that never shrink a hom.  Ranks are
    injective and order-preserving, so comparing two ranks decides the
    comparison of their values.  The rank of 1 is ``len(values) - 1``,
    also for two empty categories.  ``BudgetError`` is raised where the
    len(dst)**len(src) maps to try exceed ``budget``.
    """
    count = len(dst) ** len(src)
    if count > budget:
        raise BudgetError(count, budget, "map enumeration")
    values = _sorted_grid([ONE, *itertools.chain.from_iterable(src.hom + dst.hom)])
    rank = {v.as_integer_ratio(): r for r, v in enumerate(values)}
    src_m = [[rank[v.as_integer_ratio()] for v in row] for row in src.hom]
    dst_m = [[rank[v.as_integer_ratio()] for v in row] for row in dst.hom]
    images = [
        im
        for im in itertools.product(range(len(dst)), repeat=len(src))
        if all(s <= dst_m[a][b] for row, a in zip(src_m, im) for s, b in zip(row, im))
    ]
    return values, src_m, dst_m, images


def enumerate_functors(src: RCat, dst: RCat, budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """Label tuples (in source element order) of all functors src -> dst.

    The functor test only compares hom values, so it runs on their ranks
    (``_functor_images``); the image tuples are then mapped to labels.
    ``BudgetError`` is raised when the len(dst)**len(src) candidate maps
    exceed ``budget``.
    """
    images = _functor_images(src, dst, budget)[3]
    return [tuple(dst.elements[d] for d in im) for im in images]


def _power_hom(base_hom, fiber_hom, f_images, g_images, top):
    """d(f,g): min fiber-hom over pairs where the base hom exceeds it, else ``top``.

    This realizes the supremum in the defining formula exactly: for each base
    pair the constraint on q is vacuous when hom(x,y) <= hom(f(x),g(y)) and
    caps q at hom(f(x),g(y)) otherwise.  It only compares values, so it runs
    on hom values with ``top`` = 1 or on their ranks with ``top`` the rank
    of 1, and an order-preserving rank map commutes with it.
    """
    d = top
    for b_row, fi in zip(base_hom, f_images):
        row = fiber_hom[fi]
        for b, gj in zip(b_row, g_images):
            s = row[gj]
            if b > s and s < d:
                d = s
    return d


class PowerObject(Record):
    """Function space: all functors base -> fiber with the sup-hom d.

    ``labels`` holds each functor as its tuple of target labels, in base
    element order.  ``values`` holds the distinct hom values of base and
    fiber and 1, ascending, and ``ranks[i][j]`` is the index in ``values``
    of d(f_i, f_j).  ``functors`` and ``hom``, d as Fractions, are built on
    request.
    """

    base: RCat
    fiber: RCat
    labels: tuple[tuple, ...]
    values: tuple[Fraction, ...]
    ranks: tuple[tuple[int, ...], ...]

    @cached_property
    def functors(self) -> tuple[RFunctor, ...]:
        return tuple(RFunctor(self.base, self.fiber, m) for m in self.labels)

    @cached_property
    def hom(self) -> tuple[tuple[Fraction, ...], ...]:
        values = self.values
        return tuple(tuple(map(values.__getitem__, row)) for row in self.ranks)

    def as_rcat(self) -> RCat:
        return RCat(self.labels, self.hom)

    def __len__(self):
        return len(self.labels)


def _require_valid(t: TNorm, base: RCat, fiber: RCat) -> None:
    for cat, name in ((base, "base"), (fiber, "fiber")):
        w = validate(cat, t)
        if w is not None:
            raise PreconditionError(f"{name} category is invalid at {w.values}: {w.note}")


def exponential(t: TNorm, base: RCat, fiber: RCat, budget: int = DEFAULT_BUDGET) -> PowerObject:
    """Enumerate the functor space and compute its hom matrix in closed form.

    The values of both homs are ranked once (``_functor_images``): the
    functors are filtered on the ranks, and d(f,g) is ``_power_hom`` on the
    same ranks, kept as a rank into the sorted values.  1 is among them, so
    an empty base still gets d = 1 for its one empty map.
    """
    _require_valid(t, base, fiber)
    values, base_m, fiber_m, images = _functor_images(base, fiber, budget)
    top = len(values) - 1
    ranks = tuple(
        tuple(_power_hom(base_m, fiber_m, fi, gi, top) for gi in images) for fi in images
    )
    labels = tuple(tuple(fiber.elements[d] for d in im) for im in images)
    return PowerObject(base, fiber, labels, tuple(values), ranks)


def _validate_power(t: TNorm, power: PowerObject) -> Witness | None:
    """``validate(power.as_rcat(), t)``, deciding a pass without the sweep.

    Base and fiber are categories under ``t`` (``exponential`` checks
    them).  Where C1 holds at every triple of [0,1]
    (``_c1_holds_on_unit_interval``), it holds on their hom values, so the
    power is a category (proof in ``check_ccc``) and ``validate`` would
    return None.  Otherwise ``validate`` runs, so its witness is kept.
    """
    if _c1_holds_on_unit_interval(t):
        return None
    return validate(power.as_rcat(), t)


def check_exponentiable(t: TNorm, cat: RCat, grid) -> ConditionReport:
    """Mixed interchange over the category's own hom values.

    Verifies (p & q) ∧ hom(x,z) == ⋁_y (p ∧ hom(y,z)) & (q ∧ hom(x,y)) for
    all grid pairs (p,q) and element pairs (x,z).  The companion frame
    condition is recorded, not searched: [0,1] with pointwise minimum
    distributes over arbitrary joins.

    The grid is checked first, so its errors come before any other work.
    Every operand of & lies in V, the sorted grid ∪ hom values: V is
    closed under ∧, and on the sorted V, a ∧ b is the value at the smaller
    of their two indices.  So one ``_rank_products`` table over V² gives
    every product as a rank.  Ranks are injective and order-preserving on
    V ∪ table, so the rank of the left side is the min of the ranks of
    p & q and hom(x,z), and that of the right side the max of the ranks of
    its terms: where there is a pair (x, z) there is a term, and every term
    is at least 0, so the join is their max.  Comparing ranks then decides
    the Fraction comparison.  The loops keep (p, q, x, z) order, so the
    witness is the first failing tuple of the full sweep; its sides are
    rebuilt as Fractions from their ranks.
    """
    pts = _sorted_grid(grid)
    vals = _sorted_grid([*pts, *itertools.chain.from_iterable(cat.hom)])
    g, table, keys = _rank_products(t, vals)
    index = {v.as_integer_ratio(): i for i, v in enumerate(vals)}
    h = [[index[v.as_integer_ratio()] for v in row] for row in cat.hom]
    order = cat._sorted_indices
    for p in pts:
        i = index[p.as_integer_ratio()]
        # per z, the rows of p ∧ hom(y,z) over y
        left = [[table[min(i, row[z])] for row in h] for z in range(len(h))]
        for q in pts:
            j = index[q.as_integer_ratio()]
            for x in order:
                right = [min(j, k) for k in h[x]]
                for z in order:
                    lhs = min(table[i][j], g[h[x][z]])
                    rhs = max(map(list.__getitem__, left[z], right))
                    if lhs != rhs:
                        return _failure("exponentiable", (p, q, cat.elements[x], cat.elements[z]),
                                        keys[lhs], keys[rhs])
    return ConditionReport(
        "exponentiable",
        True,
        notes=(
            "join-distributivity of ∧ holds analytically on [0,1]; not enumerated",
        ),
    )


def check_currying(
    t: TNorm, x: RCat, y: RCat, budget: int = DEFAULT_BUDGET
) -> Witness | None:
    """Adjunction check: functors z×x -> y correspond exactly to z -> y^x.

    Returns None when the power y^x is a category under ``t``, else the first
    violation of its category axioms.  Nothing else can fail, for every
    t-norm:

    * The sup defining d(f,g) is attained (``_power_hom``), so for all maps
      f, g: x -> y and every q,  q <= d(f,g)  iff
      q ∧ hom(a,a') <= hom(f(a), g(a')) for all a, a'.
    * Evaluation x × y^x -> y, (a, f) ↦ f(a), is a functor: take
      q = d(f,g) above, and the product hom is min(hom(a,a'), d(f,g)).
    * A map h: z×x -> y is a functor if and only if each slice h(c,-) is a
      functor and c ↦ h(c,-) does not shrink homs into (y^x, d): the functor
      condition min(hom(c,c'), hom(a,a')) <= hom(h(c,a), h(c',a')) at c = c'
      (hom(c,c) = 1) is functoriality of the slice, and for fixed c, c' it is
      hom(c,c') <= d(h(c,-), h(c',-)) by the first point.

    So transposing h ↦ (c ↦ h(c,-)) is a bijection from the functors
    z×x -> y onto the functors z -> y^x, whether or not y^x is a category:
    it is injective, the third point read left to right sends functors to
    functors, and read right to left it uncurries every functor phi: z -> y^x
    to the functor (c, a) ↦ phi(c)(a) (Clementino & Hofmann, "Exponentiation
    in V-categories", 2006, give the general criterion).
    ``tests/test_proofs.py`` checks the bijection by brute force.

    So no z is needed: the verdict is that of the power alone.  ``budget``
    bounds the enumeration of the functors x -> y that build it.
    """
    power = exponential(t, x, y, budget)
    w = _validate_power(t, power)
    if w is not None:
        return replace(w, note=f"power object fails category axioms ({w.note})")
    return None


class CounterexampleBundle(Record):
    """Explicit witness that the function space cannot be a category.

    Carries a two-element category, a finite unit-interval category, three
    functors f, g, h between them, the pairwise d values, and the failed
    transitivity inequality (both raw and capped at u) with exact sides.
    """

    tnorm: TNorm
    p: Fraction
    q: Fraction
    u: Fraction
    base: RCat
    fiber: RCat
    f: RFunctor
    g: RFunctor
    h: RFunctor
    d_fg: Fraction
    d_gh: Fraction
    d_fh: Fraction
    c1_lhs: Fraction
    c1_rhs: Fraction
    trans_lhs: Fraction
    trans_rhs: Fraction
    capped_lhs: Fraction
    capped_rhs: Fraction


def counterexample(t: TNorm, p: Fraction, q: Fraction, u: Fraction) -> CounterexampleBundle:
    """Build the two-point/unit-interval counterexample from a C1-violating triple.

    The three maps are f(w) = hom(x,w), g(w) = p ∧ hom(x,w), and
    h(w) = (p & (q ∧ hom(x,w))) ∨ ((p ∧ u) & (q ∧ hom(y,w))); the resulting
    d values satisfy d(f,g) >= p and d(g,h) >= q, yet
    (d(f,g) & d(g,h)) ∧ u > d(f,h) ∧ u, so d cannot be transitive.
    """
    for name, v in (("p", p), ("q", q), ("u", u)):
        check_unit(Fraction(v), name)
    p, q, u = Fraction(p), Fraction(q), Fraction(u)
    c1_lhs, c1_rhs = _c1_sides(t, p, q, u)
    if c1_lhs == c1_rhs:
        raise PreconditionError(
            f"triple ({p}, {q}, {u}) does not violate the interchange law C1"
        )

    base = RCat(("x", "y"), ((ONE, u), (ZERO, ONE)))
    f_vals = tuple(base.hom_of("x", w) for w in base.elements)
    g_vals = tuple(min(p, base.hom_of("x", w)) for w in base.elements)
    h_vals = tuple(
        max(
            apply(t, p, min(q, base.hom_of("x", w))),
            apply(t, min(p, u), min(q, base.hom_of("y", w))),
        )
        for w in base.elements
    )
    if h_vals[1] != c1_rhs:
        raise InvariantError(f"h(y) = {h_vals[1]} differs from the C1 right side {c1_rhs}")
    fiber = unit_interval_category(t, f_vals + g_vals + h_vals)

    fs = []
    for name, vals in (("f", f_vals), ("g", g_vals), ("h", h_vals)):
        fct = RFunctor(base, fiber, vals)
        w = is_functor(fct)
        if w is not None:  # pragma: no cover - holds for every t-norm
            raise InvariantError(f"map {name} unexpectedly fails functoriality at {w.values}")
        fs.append(fct)
    f, g, h = fs

    idx = {name: tuple(fiber.index(v) for v in vals)
           for name, vals in (("f", f_vals), ("g", g_vals), ("h", h_vals))}
    d_fg = _power_hom(base.hom, fiber.hom, idx["f"], idx["g"], ONE)
    d_gh = _power_hom(base.hom, fiber.hom, idx["g"], idx["h"], ONE)
    d_fh = _power_hom(base.hom, fiber.hom, idx["f"], idx["h"], ONE)
    if d_fg < p or d_gh < q:  # pragma: no cover - guaranteed by construction
        raise InvariantError("bundle lost the lower bounds d(f,g) >= p, d(g,h) >= q")

    trans_lhs = apply(t, d_fg, d_gh)
    trans_rhs = d_fh
    capped_lhs = min(trans_lhs, u)
    capped_rhs = min(trans_rhs, u)
    if capped_lhs <= capped_rhs:  # pragma: no cover - guaranteed by construction
        raise InvariantError("bundle failed to certify the transitivity violation")
    return CounterexampleBundle(
        t, p, q, u, base, fiber, f, g, h,
        d_fg, d_gh, d_fh, c1_lhs, c1_rhs,
        trans_lhs, trans_rhs, capped_lhs, capped_rhs,
    )


def _off_diagonal(size: int) -> list[tuple[int, int]]:
    """The hom slots (i, j), i != j, of a category of ``size`` elements, row by row."""
    return [(i, j) for i in range(size) for j in range(size) if i != j]


def _check_generation_budget(points: int, size: int, budget: int) -> None:
    """Raise where the fills of the categories of ``size`` elements exceed ``budget``."""
    count = points ** (size * (size - 1))
    if count > budget:
        raise BudgetError(count, budget, f"category generation at size {size}")


def _rank_fills(g: list[int], table: list[list[int]], size: int):
    """Yield the grid-index fills of the valid categories of ``size`` elements.

    ``g`` and ``table`` are the grid ranks and the product table that
    ``_rank_products`` returns for the sorted grid.  A fill gives the index
    in the grid of each slot of ``_off_diagonal(size)``; fills come in
    ``itertools.product`` order.  Proof in ``enumerate_categories``.
    """
    slots = _off_diagonal(size)
    if size < 3:  # no triple of distinct elements, so every fill is valid
        yield from itertools.product(range(len(g)), repeat=len(slots))
        return
    slot = {ij: s for s, ij in enumerate(slots)}
    # checks[s]: the triples, as slots (jk, ij, ik), whose last slot is s
    checks: list[list[tuple[int, int, int]]] = [[] for _ in slots]
    for i, j, k in itertools.permutations(range(size), 3):
        jk, ij, ik = slot[j, k], slot[i, j], slot[i, k]
        checks[max(jk, ij, ik)].append((jk, ij, ik))
    points, last = len(g), len(slots) - 1
    fill = [-1] * len(slots)
    s = 0
    while s >= 0:
        fill[s] += 1
        if fill[s] == points:
            fill[s] = -1
            s -= 1
        elif all(table[fill[jk]][fill[ij]] <= g[fill[ik]] for jk, ij, ik in checks[s]):
            if s == last:
                yield tuple(fill)
            else:
                s += 1


def enumerate_categories(
    t: TNorm, grid, size: int, budget: int = DEFAULT_BUDGET
) -> list[RCat]:
    """All valid categories on {e0..e(size-1)} with off-diagonal homs from grid.

    The categories come in ``itertools.product`` order of the off-diagonal
    fills (slots row by row, grid values ascending), and they are exactly
    the fills that ``validate`` accepts.  They are generated by
    backtracking on grid ranks (orderly generation, Read 1978 and Faradzev
    1978), which decides exactly what ``validate`` decides:

    * The diagonal is 1, so reflexivity holds, and ``validate`` composes
      only triples (i, j, k) of distinct elements, whose three homs are
      off-diagonal, hence grid values pts[r].  Below size 3 there is no
      such triple, and every fill is valid.
    * The products are read from the table of ``_rank_products``, the one
      that the C1 sweep reads: for grid indices a, b, c, g[c] is the rank
      of pts[c] and table[a][b] that of pts[a] & pts[b].  Ranks are
      injective and order-preserving on grid ∪ table (proof in
      ``_rank_products``), so pts[a] & pts[b] <= pts[c] iff
      table[a][b] <= g[c].  Hence hom(j,k) & hom(i,j) <= hom(i,k) iff
      table[index hom(j,k)][index hom(i,j)] <= g[index hom(i,k)]:
      the & kernel runs once per grid pair, in the argument order of
      ``validate``.
    * Slots are filled in order with indices ascending, so the prefixes are
      visited in the lexicographic order of ``itertools.product``.  A triple
      is tested right after the last of its three slots is filled.  If it
      fails, it fails in every completion of the prefix, so pruning drops
      only invalid fills and keeps the order of the others; a complete fill
      that survives has passed every triple.

    The table is built after the budget check, for this call only.
    ``tests/test_proofs.py`` compares the result with the product-then-
    ``validate`` loop of ``oracles.categories_bruteforce``.
    """
    if size < 0:
        raise InputError(f"category size must be >= 0, got {size}")
    pts = _sorted_grid(grid)
    _check_generation_budget(len(pts), size, budget)
    g, table, _ = _rank_products(t, pts)
    labels = tuple(f"e{i}" for i in range(size))
    slots = _off_diagonal(size)
    cats = []
    for fill in _rank_fills(g, table, size):
        hom = [[ONE] * size for _ in range(size)]
        for (i, j), r in zip(slots, fill):
            hom[i][j] = pts[r]
        cats.append(RCat(labels, tuple(map(tuple, hom))))
    return cats


class CccReport(Record):
    """Composite cartesian-closedness verdict for one t-norm.

    ``triples_checked`` is the number of triples (x, y, z) of generated
    categories that the theorem settles: ``categories**3`` after a C1 pass,
    0 after a C1 failure.  It counts no work, and no budget bounds it: none
    of those triples is enumerated.  ``witness`` is kept for the report
    key; it is None after a C1 pass, since then every power validates
    (``check_ccc``), and a C1 failure is witnessed by ``bundle``.
    """

    verdict: bool
    c1: ConditionReport
    bundle: CounterexampleBundle | None
    categories: int
    triples_checked: int
    witness: Witness | None = None


def check_ccc(
    t: TNorm, grid, max_size: int, budget: int = DEFAULT_BUDGET
) -> CccReport:
    """Decide cartesian closedness and back the verdict with evidence.

    A C1 failure on ``grid`` is upgraded to a full counterexample bundle.  A
    C1 pass decides the verdict: for every pair (x, y) of generated
    categories (at most ``max_size`` elements, hom values in ``grid`` or 1)
    the power y^x is a category.  Reflexivity holds since every functor f
    has d(f,f) = 1.  For transitivity take functors f, g, h: x -> y and set
    p = d(g,h), q = d(f,g) and u = hom(a,a').  The sup defining d is
    attained (``check_currying``), so hom(f a, g a') >= q ∧ u and
    hom(g a', h a') >= p.  Transitivity of y gives

        hom(f a, h a') >= p & (q ∧ u),

    and going through g a instead gives hom(f a, h a') >= (p ∧ u) & q.  So
    hom(f a, h a') is at least the right side of C1, which equals
    (p & q) ∧ u, and d(f,h) >= d(g,h) & d(f,g).  Here p and q are hom
    values of y or 1, and u is a hom value of x, so C1 is used only on
    grid ∪ {1}; C1 with an argument equal to 1 holds for every t-norm
    (for p = 1 both sides are q ∧ u, since u & q <= q ∧ u).  Clementino &
    Hofmann, "Exponentiation in V-categories" (2006), prove the general
    criterion; ``tests/test_proofs.py`` checks this finite form by brute
    force.

    Nothing else can fail: for every t-norm, evaluation is a functor and
    currying is a bijection from the functors z×x -> y onto the functors
    z -> y^x (proofs in ``check_currying``).  So no power is built, and
    ``triples_checked`` is ``categories**3`` on a pass.  ``max_size`` must
    be at least 1.

    The grid is sorted once and its ``_rank_products`` table is built once:
    the C1 sweep (that of ``check_c1``) and the category generation both
    read p & q from it, so the & kernel runs once per grid pair.  The table
    lives for this call only.

    The categories of each size are only counted, on grid ranks
    (``enumerate_categories`` proves that the rank generator keeps exactly
    the fills ``validate`` accepts).  That count is the one piece of work
    left after a C1 pass, so the budget bounds it alone: the generation at
    each size, checked in size order before its count.  No triple, power or
    functor is enumerated, so nothing else is bounded.
    """
    if max_size < 1:
        raise InputError(f"max size must be >= 1, got {max_size}")
    pts = _sorted_grid(grid)
    g, table, keys = _rank_products(t, pts)
    c1 = _c1_sweep(t, pts, g, table, keys)
    if not c1.verdict:
        bundle = counterexample(t, *c1.witness.values)
        return CccReport(False, c1, bundle, 0, 0)

    n = 0
    for size in range(1, max_size + 1):
        _check_generation_budget(len(pts), size, budget)
        n += sum(1 for _ in _rank_fills(g, table, size))
    return CccReport(True, c1, None, n, n**3)
