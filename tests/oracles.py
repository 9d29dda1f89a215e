"""Independent brute-force oracles the fast implementations are tested against.

Everything here recomputes values from the defining formulas, deliberately
avoiding the closed forms under test.

``closed_form_apply`` is the one kernel-independent & of the tests, the
defining formula that ``tests/replay.py`` also replays reports with; the
sup-hom, the sides of C1 and the left limit are that module's too.  The
sweeps below take their & as an argument ``amp(t, p, q)``: by default
``tnorms.apply``, so that a & installed by ``conftest.install_and`` is
seen, or ``closed_form_apply``, so that the sweep shares no code with the
kernel it checks (``tests/test_scale.py``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from fractions import Fraction

from tnormcat import (
    BudgetError,
    ConditionReport,
    InputError,
    InvariantError,
    PreconditionError,
    RCat,
    RFunctor,
    TailSeq,
    TNorm,
    Witness,
    apply,
    exponential,
    find_bilimit,
    find_yoneda_limit,
    is_cauchy,
    is_forward_cauchy,
    product,
    tnorms,
    validate,
)
from tnormcat.completeness import FROM_SEQ, TO_SEQ
from tnormcat.rationals import check_unit, parse_rational

import replay


def sorted_grid_reference(grid) -> list[Fraction]:
    """``tnorms._sorted_grid`` on Fraction comparisons: sort, then drop
    each value equal to its predecessor; InputError unless all lie in [0,1]."""
    pts = sorted(map(Fraction, grid))
    if not pts:
        raise InputError("grid must be nonempty")
    if pts[0] < 0 or pts[-1] > 1:
        for v in pts:
            check_unit(v, "grid point")
    return pts[:1] + [v for u, v in zip(pts, pts[1:]) if u != v]


def canonical_grid_reference(t: TNorm, n: int) -> tuple[Fraction, ...]:
    """``tnorms.canonical_grid`` on Fraction arithmetic: the set of the
    breakpoints, k/n and the midpoints of consecutive breakpoints, sorted."""
    bps = tnorms.breakpoints(t)
    pts = set(bps)
    pts.update(Fraction(k, n) for k in range(n + 1))
    pts.update((a + b) / 2 for a, b in zip(bps, bps[1:]))
    return tuple(sorted(pts))


def closed_form_apply(t: TNorm, p: Fraction, q: Fraction) -> Fraction:
    """p & q from the family's defining formula, with Fraction operators:
    the one & of the tests that does not reach ``tnorms._and_col``."""
    return replay.conjunction(t.family, t.intervals, p, q)


def residuum_bruteforce(t: TNorm, p: Fraction, q: Fraction, n: int = 120) -> Fraction:
    """Largest candidate z with p & z <= q over a fine grid plus special points.

    The candidate set contains every value the closed forms can produce, so
    agreement with this maximum is an exact check, not an approximation.
    """
    candidates = {Fraction(k, n) for k in range(n + 1)}
    candidates.update({q, Fraction(1) - p + q, Fraction(1) - p})
    if p != 0:
        candidates.add(q / p)
    for a, b in t.intervals:
        candidates.update((a, b))
    best = Fraction(0)
    for z in sorted(candidates):
        if 0 <= z <= 1 and apply(t, p, z) <= q and z > best:
            best = z
    return best


def power_hom_bruteforce(base: RCat, fiber: RCat, f_map, g_map) -> Fraction:
    """sup of q with q ∧ hom(x,y) <= hom(f(x), g(y)), scanned over candidates
    by ``replay.sup_hom``."""
    return replay.sup_hom(base.hom, fiber.hom, [fiber.index(lbl) for lbl in f_map],
                          [fiber.index(lbl) for lbl in g_map])


def validate_reference(cat: RCat, t: TNorm, amp=apply) -> Witness | None:
    """``categories.validate`` on Fractions: reflexivity, then one & and
    one Fraction comparison per triple of distinct elements, in
    ``itertools.permutations`` order over the sorted labels.
    """
    order = cat._sorted_indices
    for i in order:
        if cat.hom[i][i] != 1:
            return Witness((cat.elements[i],), cat.hom[i][i], Fraction(1), note="reflexivity")
    for i, j, k in itertools.permutations(order, 3):
        composed = amp(t, cat.hom[j][k], cat.hom[i][j])
        if composed > cat.hom[i][k]:
            return Witness(
                (cat.elements[i], cat.elements[j], cat.elements[k]),
                composed, cat.hom[i][k], note="transitivity",
            )
    return None


def exponentiable_bruteforce(t: TNorm, cat: RCat, grid, amp=apply) -> ConditionReport:
    """``categories.check_exponentiable`` on Fractions: one & per
    (p, q, x, z, y), in (p, q, x, z) order over the sorted grid and the
    sorted labels, with the join computed from 0 upwards.
    """
    pts = sorted_grid_reference(grid)
    order = cat._sorted_indices
    n = len(cat.elements)
    for p in pts:
        for q in pts:
            pq = amp(t, p, q)
            for xi in order:
                for zi in order:
                    lhs = min(pq, cat.hom[xi][zi])
                    rhs = Fraction(0)
                    for yi in range(n):
                        term = amp(t, min(p, cat.hom[yi][zi]), min(q, cat.hom[xi][yi]))
                        if term > rhs:
                            rhs = term
                    if lhs != rhs:
                        return ConditionReport(
                            "exponentiable",
                            False,
                            Witness((p, q, cat.elements[xi], cat.elements[zi]), lhs, rhs),
                            certified=True,
                        )
    return ConditionReport(
        "exponentiable",
        True,
        notes=("join-distributivity of ∧ holds analytically on [0,1]; not enumerated",),
    )


def power_sweep(t: TNorm, x: RCat, y: RCat) -> Witness | None:
    """The first violation of the category laws in the power y^x under ``t``.

    ``validate`` over every triple of the power, whatever the t-norm: the
    reference for the ``power-validates`` row of ``exp`` and for
    ``check_currying``.
    """
    return validate(exponential(t, x, y).as_rcat(), t)


def functor(source: RCat, target: RCat, assignment: dict) -> RFunctor:
    """The map that sends each source element x to ``assignment[x]``."""
    return RFunctor(source, target, tuple(assignment[x] for x in source.elements))


def projections(a: RCat, b: RCat, prod: RCat) -> tuple[RFunctor, RFunctor]:
    """The two projections of ``prod = product(a, b)``."""
    first = tuple(lbl[0] for lbl in prod.elements)
    second = tuple(lbl[1] for lbl in prod.elements)
    return RFunctor(prod, a, first), RFunctor(prod, b, second)


def pair_functors(f: RFunctor, g: RFunctor, prod: RCat) -> RFunctor:
    """The map c ↦ (f(c), g(c)) into ``prod``; f and g share a source."""
    if f.source is not g.source and f.source.elements != g.source.elements:
        raise InputError("paired functors must share a source")
    return RFunctor(f.source, prod, tuple(zip(f.mapping, g.mapping)))


def min_transitive_closure(hom) -> tuple[tuple[Fraction, ...], ...]:
    """Smallest pointwise enlargement that is reflexive and min-transitive.

    Useful for manufacturing valid categories from arbitrary matrices; a
    min-transitive matrix is transitive for every t-norm.  One
    Floyd-Warshall pass, k outermost, gives the max-min closure: after round
    k, m[i][j] is the best max-min path from i to j through intermediates
    among the first k elements, since (max, min) is an idempotent semiring
    and m[k][k] = 1 leaves row and column k unchanged in round k.
    ``min_transitive_closure_fixpoint`` repeats passes until none changes.
    """
    n = len(hom)
    m = [[Fraction(v) for v in row] for row in hom]
    for i in range(n):
        m[i][i] = Fraction(1)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                m[i][j] = max(m[i][j], min(m[i][k], m[k][j]))
    return tuple(tuple(row) for row in m)


def element_at(seq: TailSeq, i: int):
    """The i-th term of the eventually periodic sequence, counting from 0."""
    if i < len(seq.prefix):
        return seq.prefix[i]
    return seq.cycle[(i - len(seq.prefix)) % len(seq.cycle)]


def pair_sequences(a_seq: TailSeq, b_seq: TailSeq) -> TailSeq:
    """Index-aligned pairing in the product category (cycle length = lcm)."""
    prod = product(a_seq.carrier, b_seq.carrier)
    lead = max(len(a_seq.prefix), len(b_seq.prefix))
    cyc = math.lcm(len(a_seq.cycle), len(b_seq.cycle))
    prefix = tuple((element_at(a_seq, i), element_at(b_seq, i)) for i in range(lead))
    cycle = tuple(
        (element_at(a_seq, lead + k), element_at(b_seq, lead + k)) for k in range(cyc)
    )
    return TailSeq(prod, prefix, cycle)


def tail_value_bruteforce(seq: TailSeq, x, direction: str, cycles: int = 3) -> Fraction:
    """sup-inf over a truncated horizon of prefix + the given number of cycles."""
    cat = seq.carrier
    horizon = len(seq.prefix) + cycles * len(seq.cycle)
    xi = cat.index(x)
    best = None
    for lam in range(horizon - len(seq.cycle) + 1):
        vals = []
        for mu in range(lam, horizon):
            ci = cat.index(element_at(seq, mu))
            vals.append(cat.hom[ci][xi] if direction == FROM_SEQ else cat.hom[xi][ci])
        inf = min(vals)
        if best is None or inf > best:
            best = inf
    return best


def enumerate_cycles(cat: RCat, max_len: int):
    """All element tuples of length 1..max_len, in deterministic order."""
    for length in range(1, max_len + 1):
        yield from itertools.product(cat.elements, repeat=length)


def cauchy_complete_sweep(cat: RCat, budget: int) -> Witness | None:
    """``is_cauchy_complete`` as a sweep: ``find_bilimit`` on every Cauchy cycle.

    Cycles of length 1..budget in ``enumerate_cycles`` order; ``find_bilimit``
    is called, as by the full sweep, so that its certificate errors surface.
    """
    for cycle in enumerate_cycles(cat, budget):
        if any(cat.hom_of(c, c2) != 1 for c in cycle for c2 in cycle):
            continue
        if find_bilimit(TailSeq(cat, (), cycle)).kind == "none":
            return Witness((cycle,), note="cauchy cycle without bilimit")
    return None


def product_bilimit_sweep(a_seq: TailSeq, b_seq: TailSeq) -> Witness | None:
    """``check_product_bilimit`` with the paired sequence built in the product."""
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
    worst = min(tail_value_bruteforce(paired, target, TO_SEQ),
                tail_value_bruteforce(paired, target, FROM_SEQ))
    if worst != 1:
        return Witness((target,), worst, Fraction(1), note="product bilimit")
    return None


def check_laws_scan(cat: RCat) -> None:
    """``completeness._check_laws`` as its own scan of the laws.

    Reflexivity in label order, then transitivity with a factor 1 at the
    triples of distinct elements in ``permutations`` order; raises the first
    violation as a ``PreconditionError``.
    """
    one = Fraction(1)
    order = cat._sorted_indices
    hom = cat.hom
    for i in order:
        if hom[i][i] != one:
            raise PreconditionError(
                f"carrier is not a valid category at {(cat.elements[i],)}: reflexivity"
            )
    for i, j, k in itertools.permutations(order, 3):
        ij, jk = hom[i][j], hom[j][k]
        if max(ij, jk) == one and hom[i][k] < min(ij, jk):
            raise PreconditionError(
                "carrier is not a valid category at "
                f"{(cat.elements[i], cat.elements[j], cat.elements[k])}: transitivity"
            )


def keeps_category_laws(cat: RCat) -> bool:
    """Reflexivity and transitivity with a factor 1 (``check_laws_scan``)."""
    try:
        check_laws_scan(cat)
    except PreconditionError:
        return False
    return True


def categories_bruteforce(t: TNorm, grid, size: int, budget: int, amp=apply) -> list[RCat]:
    """``enumerate_categories`` as a loop: every fill, kept if
    ``validate_reference`` accepts it under ``amp``.

    The fills of the off-diagonal slots, row by row, in ``itertools.product``
    order over the sorted grid.
    """
    pts = sorted({Fraction(g) for g in grid})
    slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    count = len(pts) ** len(slots)
    if count > budget:
        raise BudgetError(count, budget, f"category generation at size {size}")
    labels = tuple(f"e{i}" for i in range(size))
    cats = []
    for fill in itertools.product(pts, repeat=len(slots)):
        hom = [[Fraction(1)] * size for _ in range(size)]
        for (i, j), v in zip(slots, fill):
            hom[i][j] = v
        cat = RCat(labels, tuple(tuple(row) for row in hom))
        if validate_reference(cat, t, amp) is None:
            cats.append(cat)
    return cats


def min_transitive_closure_fixpoint(hom) -> tuple:
    """Max-min closure by repeating Floyd-Warshall passes until none changes."""
    n = len(hom)
    m = [[Fraction(v) for v in row] for row in hom]
    for i in range(n):
        m[i][i] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    via = min(m[i][k], m[k][j])
                    if via > m[i][j]:
                        m[i][j] = via
                        changed = True
    return tuple(tuple(row) for row in m)


def yoneda_continuity_reference(f: RFunctor, seqs) -> Witness | None:
    """Yoneda continuity checked by building each image sequence and its limit."""
    one = Fraction(1)
    for i, seq in enumerate(seqs):
        if seq.carrier != f.source:
            raise PreconditionError(f"sequence {i} does not live in the source")
        src_limit = find_yoneda_limit(seq)  # raises if not forward Cauchy
        image = TailSeq(
            f.target,
            tuple(f(lbl) for lbl in seq.prefix),
            tuple(f(lbl) for lbl in seq.cycle),
        )
        if is_forward_cauchy(image) is not None:
            raise InvariantError(f"image of forward-Cauchy sequence {i} is not forward Cauchy")
        img_limit = find_yoneda_limit(image)
        mapped = f(src_limit.witness)
        there = f.target.hom_of(img_limit.witness, mapped)
        back = f.target.hom_of(mapped, img_limit.witness)
        if there != one or back != one:
            return Witness(
                (i, mapped, img_limit.witness),
                min(there, back),
                one,
                note="image limit differs from image of source limit",
            )
    return None


def c1_sides(t: TNorm, p, q, u):
    return replay.c1_sides(functools.partial(apply, t), p, q, u)


def c1_sweep(t: TNorm, grid, amp=apply) -> ConditionReport:
    """``check_c1`` swept directly: one & per side at each triple u < p ∧ q.

    The triples come in (p, q, u) order over the sorted grid; the lemma of
    ``check_c1`` drops the others.
    """
    tand = functools.partial(amp, t)
    pts = sorted({Fraction(g) for g in grid})
    for p, q, u in itertools.product(pts, repeat=3):
        if u < min(p, q):
            lhs, rhs = replay.c1_sides(tand, p, q, u)
            if lhs != rhs:
                return ConditionReport("C1", False, Witness((p, q, u), lhs, rhs), True)
    return ConditionReport("C1", True, certified=tnorms._c1_holds_on_unit_interval(t))


def c1_rank_sweep_reference(t: TNorm, pts, g, table, keys) -> ConditionReport:
    """``tnorms._c1_sweep`` one (p, q) pair at a time, on the same rank table.

    For p = pts[i] and q = pts[j], j >= i on a symmetric table and any j
    otherwise, both sides are compared as int lists over u = pts[k],
    k < m = min(i, j).  The grid ranks g are increasing, so with c the
    number of g[k] < rank(p & q), the left side is g[:c] followed by
    rank(p & q) (m - c) times; the right side is the max of
    (table[k][j], table[i][k]) at each k.  The pairs come in (p, q) order
    and the witness is the first mismatching k of the first failing pair.
    """
    columns = list(zip(*table))
    symmetric = columns == list(map(tuple, table))
    for i, (p, row) in enumerate(zip(pts, table)):
        start = i if symmetric else 0
        for j, (q, pq, column) in enumerate(
                zip(pts[start:], row[start:], columns[start:]), start):
            m = min(i, j)
            c = bisect.bisect_left(g, pq, 0, m)
            lhs = g[:c] + [pq] * (m - c)
            rhs = list(map(max, column[:m], row[:m]))
            if lhs != rhs:
                k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                return ConditionReport(
                    "C1",
                    False,
                    Witness((p, q, pts[k]), Fraction(*keys[lhs[k]]), Fraction(*keys[rhs[k]])),
                    certified=True,
                )
    return ConditionReport("C1", True, certified=tnorms._c1_holds_on_unit_interval(t))


def c2_sweep(t: TNorm, grid, amp=apply) -> ConditionReport:
    """``check_c2`` swept directly: one & per use at each pair (p, u).

    The pairs come in (p, u) order over the sorted grid, and those with
    u > p & p are skipped.
    """
    tand = functools.partial(amp, t)
    pts = sorted({Fraction(g) for g in grid})
    for p, u in itertools.product(pts, repeat=2):
        if u <= tand(p, p) and tand(u, p) != u:
            return ConditionReport("C2", False, Witness((p, u), tand(u, p), u), True)
    return ConditionReport("C2", True, certified=tnorms._c1_holds_on_unit_interval(t))


def c2_holds(t: TNorm, p, u) -> bool:
    return not (u <= apply(t, p, p)) or apply(t, u, p) == u


def axioms_bruteforce(t: TNorm, grid, amp=apply, step=None) -> ConditionReport:
    """``verify_tnorm_axioms`` swept directly: one & per side at every tuple.

    The sweeps and their order are those of the docstring of
    ``verify_tnorm_axioms``; left continuity compares ``replay.left_limit``
    (with ``step``) with b & q.
    """
    def fail(values, lhs, rhs, note):
        return ConditionReport("axioms", False, Witness(values, lhs, rhs, note), True)

    tand = functools.partial(amp, t)
    pts = sorted({Fraction(g) for g in grid})
    one = Fraction(1)
    for i, p in enumerate(pts):
        if tand(one, p) != p:
            return fail((one, p), tand(one, p), p, "unit")
        for q in pts[i + 1:]:
            if tand(p, q) != tand(q, p):
                return fail((p, q), tand(p, q), tand(q, p), "commutativity")
    for p, p2 in zip(pts, pts[1:]):
        for q in pts:
            if tand(p, q) > tand(p2, q):
                return fail((p, p2, q), tand(p, q), tand(p2, q), "monotonicity")
    for p in pts:
        for q in pts:
            for u in pts:
                lhs, rhs = tand(tand(p, q), u), tand(p, tand(q, u))
                if lhs != rhs:
                    return fail((p, q, u), lhs, rhs, "associativity")
    bps = tnorms.breakpoints(t)
    for b in bps[1:]:
        for q in pts:
            limit = replay.left_limit(tand, b, q, bps, step)
            if limit != tand(b, q):
                return fail((b, q), limit, tand(b, q), "left continuity")
    return ConditionReport(
        "axioms", True,
        notes=("grid evidence; left continuity decided exactly at breakpoints",),
    )


def parse_rational_reference(text: str, where: str = "rational") -> Fraction:
    """``rationals.parse_rational`` on a string, every form through
    ``Fraction(text.strip())`` and the range check on Fractions, as it read
    before its ``int()`` path and its exponent check."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: cannot parse rational {text!r}: {exc}") from exc
    if not 0 <= value <= 1:
        raise InputError(f"{where} must lie in [0,1], got {value}")
    return value


def load_json_file_reference(path):
    """``jsonio._load_json_file`` as it read before its raw-bytes read: the
    file through the text layer (``open(path, encoding="utf-8").read()``,
    with text mode's newline translation), then ``json.loads``."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: cannot parse JSON: {exc}") from exc


def category_from_dict_reference(data, where: str = "category") -> RCat:
    """``jsonio.category_from_dict`` as it read before it parsed each
    distinct hom string once: one ``parse_rational`` per hom entry."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    try:
        elements = data["elements"]
        hom = data["hom"]
    except (KeyError, TypeError):
        raise InputError(f'{where}: needs "elements" and "hom" keys') from None
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputError(f"{where}: elements must be a list of strings")
    for k, e in enumerate(elements):
        if elements.index(e) != k:
            raise InputError(f"{where}: elements[{k}] repeats {e!r}")
        try:
            e.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InputError(
                f"{where}: elements[{k}] does not encode as UTF-8 ({exc.reason})"
            ) from None
    if not isinstance(hom, list) or len(hom) != len(elements):
        raise InputError(f"{where}: hom must have one row per element")
    rows = []
    for i, row in enumerate(hom):
        if not isinstance(row, list) or len(row) != len(elements):
            raise InputError(f"{where}: hom[{i}] must have one entry per element")
        rows.append(
            tuple(
                parse_rational(v, f"{where}: hom[{i}][{j}]") for j, v in enumerate(row)
            )
        )
    return RCat(tuple(elements), tuple(rows))
