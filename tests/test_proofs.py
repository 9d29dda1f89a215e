"""Brute-force checks of the facts that make checks of the program redundant.

For every t-norm, with d the sup-hom of the power y^x:

(a) evaluation x × y^x -> y, (a, f) ↦ f(a), is a functor;
(b) h ↦ (c ↦ h(c,-)) is a bijection from the functors z×x -> y onto the maps
    z -> y^x that do not shrink homs under d, so ``check_ccc`` and
    ``check_currying`` run no per-triple uncurry test (that every functor
    z -> y^x uncurries to a functor out of z×x) and test only the powers;
(c) every element of a Cauchy cycle is a bilimit of that cycle (the
    finite-completeness lemma of ``tnormcat.completeness``), so
    ``is_cauchy_complete`` cannot fail on a power;
(d) a Cauchy cycle has the same first bilimit, and the same first bilimits
    of its pointwise value cycles in the fiber, as the cycle (cycle[0],);
(f) for every power element f, the map g sending a to the first fiber
    element isomorphic to f(a) is a functor with d(f,g) = d(g,f) = 1, so
    with (c) and (d) ``check_power_completeness`` has nothing to check once
    the power is built.

None of these needs y^x to be a category, so they are also checked on the
counterexample powers of the C1-failing families, and (b) also on random
categories.  One fact does depend on the t-norm:

(e) if C1 holds on a grid, the power of any two categories with hom values
    in that grid is a category, so ``check_ccc`` builds no power after a C1
    pass, and ``exp`` and ``check_currying`` sweep no power where C1 holds
    on all of [0,1] (``categories._validate_power``).

Powers of categories with at most two elements, and of min-transitive ones,
are categories under every t-norm, so (e) is checked on fibers that are
transitive but not min-transitive, on C1-passing grids of Łukasiewicz and
nilpotent minimum, together with (f).  The counterexample powers, which are
not categories, are its negative control.  The ``exp`` report and
``check_currying`` are compared with ``oracles.power_sweep`` on random
categories under minimum and collapse norms, and on the counterexample
powers of the other families, and where C1 fails on [0,1] with
``oracles.validate_reference`` on random pairs also under broken ``&``
functions: under a & that is not monotone, C1 on the power's hom values
does not decide it (a pinned example).  Maps are enumerated with
itertools and d comes from the oracle, not from ``enumerate_functors`` or
``exponential``.

One fact concerns the t-norm alone and holds for every t-norm:

(g) C1 holds at every triple (p, q, u) with u >= p ∧ q, so ``check_c1``
    sweeps only the triples with u < p ∧ q.

It is checked with ``oracles.c1_sides`` at every such triple of small
canonical grids of the five families and of the three-interval norm of
acceptance criterion 1.  ``tnorms._c1_sweep``, which decides each grid row
with one comparison of two flat rank lists, is compared with the per-pair
sweep ``oracles.c1_rank_sweep_reference`` on random rank tables (symmetric
or not, failing in any row) and on canonical grids up to ``--grid 40``.

One fact concerns categories alone and holds for every t-norm:

(h) on a reflexive matrix, every transitivity instance
    hom(j,k) & hom(i,j) <= hom(i,k) with a repeated index holds, so
    ``validate`` composes only triples of distinct elements.

It is checked on random reflexive matrices over ``EIGHT_GRID`` for the five
families.  Hypothesis properties also compare ``validate`` and
``check_exponentiable`` (both also under broken ``&`` functions, and on
any matrix), ``enumerate_categories`` (also under broken ``&`` functions),
``is_cauchy_complete`` and ``check_product_bilimit`` with references that
sweep every instance; the last two on any matrix, category or not.
``check_ccc`` is compared with C1 plus the brute-force category count, and
``check_power_completeness`` with C1 on the canonical grid plus
``validate`` of both inputs.  A last one compares the check of
the t-norm-free category laws, which is ``validate`` under the carrier's
weakest t-norm, with a scan of those laws, on any matrix.
"""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tnormcat import (
    BudgetError,
    PreconditionError,
    RCat,
    TailSeq,
    Witness,
    apply,
    canonical_grid,
    check_c1,
    check_ccc,
    check_currying,
    check_exponentiable,
    check_power_completeness,
    check_product_bilimit,
    counterexample,
    enumerate_categories,
    exponential,
    interval_collapse,
    is_cauchy_complete,
    jsonio,
    minimum,
    product,
    tnorms,
    validate,
)
from tnormcat import categories, completeness
from tnormcat._records import replace
from tnormcat.categories import CccReport
from tnormcat.completeness import FROM_SEQ, TO_SEQ
from tnormcat.tnorms import FAMILIES

from conftest import EIGHT_GRID, UNITS, broken_ands, collapse_norms, install_and, real_and, \
    run_cli
from oracles import (
    c1_rank_sweep_reference,
    c1_sides,
    categories_bruteforce,
    cauchy_complete_sweep,
    check_laws_scan,
    exponentiable_bruteforce,
    min_transitive_closure,
    power_hom_bruteforce,
    power_sweep,
    product_bilimit_sweep,
    tail_value_bruteforce,
    validate_reference,
)
from replay import functor_images, keeps_hom, keeps_laws, replay

F = Fraction

GRID3 = (F(0), F(1, 2), F(1))

# a C1-violating triple (p, q, u) for each family that fails C1
C1_VIOLATIONS = {
    "product": (F(1, 2), F(1, 2), F(1, 4)),
    "lukasiewicz": (F(3, 4), F(3, 4), F(1, 2)),
    "nilpotent-minimum": (F(1, 2), F(3, 4), F(1, 4)),
}

# every reflexive matrix on at most two elements is transitive for every
# t-norm: each composite in it has a factor hom(v, v) = 1
SMALL = [RCat(("a",), ((1,),))] + [
    RCat(("a", "b"), ((1, u), (v, 1))) for u, v in itertools.product(GRID3, repeat=2)
]


def _is_functor(src: RCat, dst: RCat, images) -> bool:
    return keeps_hom(src.hom, dst.hom, [dst.index(v) for v in images])


def _functors(src: RCat, dst: RCat) -> list:
    return [tuple(map(dst.elements.__getitem__, m)) for m in functor_images(src.hom, dst.hom)]


def _power(x: RCat, y: RCat) -> RCat:
    maps = _functors(x, y)
    d = tuple(tuple(power_hom_bruteforce(x, y, f, g) for g in maps) for f in maps)
    return RCat(tuple(maps), d)


def _is_category(cat: RCat, t) -> bool:
    return keeps_laws(cat.hom, functools.partial(apply, t))


def _first_bilimit(cat: RCat, cycle):
    seq = TailSeq(cat, (), cycle)
    return next(
        a
        for a in cat.elements
        if tail_value_bruteforce(seq, a, TO_SEQ) == 1 == tail_value_bruteforce(seq, a, FROM_SEQ)
    )


def _bilimits(power: RCat, y: RCat, cycle) -> tuple:
    """First bilimit of a power cycle and of each of its pointwise value cycles."""
    pointwise = tuple(
        _first_bilimit(y, tuple(f[i] for f in cycle)) for i in range(len(cycle[0]))
    )
    return _first_bilimit(power, cycle), pointwise


def _check_transposing(x: RCat, y: RCat, power: RCat, z: RCat) -> None:
    """Assert fact (b): transposing is a bijection onto the functors z -> y^x."""
    nx = len(x)
    hs = _functors(product(z, x), y)
    transposes = {tuple(h[ci * nx:(ci + 1) * nx] for ci in range(len(z))) for h in hs}
    assert len(transposes) == len(hs)
    assert transposes == set(_functors(z, power))


def _check_pointwise_iso(x: RCat, y: RCat, power: RCat) -> None:
    """Assert fact (f): the pointwise map g is a functor isomorphic to f."""
    for f in power.elements:
        g = tuple(
            next(b for b in y.elements if y.hom_of(b, v) == 1 == y.hom_of(v, b)) for v in f
        )
        assert _is_functor(x, y, g)
        assert power_hom_bruteforce(x, y, f, g) == 1 == power_hom_bruteforce(x, y, g, f)


def _check_facts(x: RCat, y: RCat, max_cycle: int) -> RCat:
    """Assert facts (a)-(d) for the power y^x and return it."""
    power = _power(x, y)

    ev = product(x, power)
    assert _is_functor(ev, y, tuple(f[x.index(a)] for a, f in ev.elements))

    for z in SMALL:
        _check_transposing(x, y, power, z)

    for cycle in itertools.chain.from_iterable(
        itertools.product(power.elements, repeat=k) for k in range(1, max_cycle + 1)
    ):
        if any(power.hom_of(c, c2) != 1 for c in cycle for c2 in cycle):
            continue
        seq = TailSeq(power, (), cycle)
        for a in cycle:
            assert tail_value_bruteforce(seq, a, TO_SEQ) == 1
            assert tail_value_bruteforce(seq, a, FROM_SEQ) == 1
        assert _bilimits(power, y, cycle) == _bilimits(power, y, cycle[:1])
    assert is_cauchy_complete(power) is None
    return power


@pytest.fixture(scope="module")
def small_powers():
    """Facts (a)-(d) on every pair from SMALL; none of them involves the t-norm."""
    return [_check_facts(x, y, 3) for x, y in itertools.product(SMALL, repeat=2)]


def test_pointwise_limit_map_is_isomorphic():
    for x, y in itertools.product(SMALL, repeat=2):
        _check_pointwise_iso(x, y, _power(x, y))


@pytest.mark.parametrize("family", sorted(C1_VIOLATIONS))
def test_pointwise_limit_map_is_isomorphic_on_counterexamples(all_families, family):
    bundle = counterexample(all_families[family], *C1_VIOLATIONS[family])
    _check_pointwise_iso(bundle.base, bundle.fiber, _power(bundle.base, bundle.fiber))


@pytest.mark.parametrize("family", sorted(C1_VIOLATIONS))
def test_counterexample_bundle_replays_from_its_json(all_families, family):
    triple = C1_VIOLATIONS[family]
    code, out, _ = run_cli(["counterexample", "tnorm", *(str(v) for v in triple)],
                           {"tnorm": jsonio.tnorm_to_dict(all_families[family])})
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["triple"] == [str(v) for v in triple]
    # f, g and h are functors, and the d values and sides are recomputed
    assert replay(report) == {"bundle": 1}


@pytest.mark.parametrize("family", FAMILIES)
def test_evaluation_currying_and_cauchy_facts(all_families, small_powers, family):
    t = all_families[family]
    assert all(_is_category(power, t) for power in small_powers)

    if family in C1_VIOLATIONS:
        bundle = counterexample(t, *C1_VIOLATIONS[family])
        power = _check_facts(bundle.base, bundle.fiber, 2)
        assert not _is_category(power, t)


grids = st.lists(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=4, unique=True)


@st.composite
def matrices(draw, grid, max_n=3):
    n = draw(st.integers(1, max_n))
    return [[draw(st.sampled_from(grid)) for _ in range(n)] for _ in range(n)]


def _cat(hom) -> RCat:
    return RCat(tuple(f"v{i}" for i in range(len(hom))), hom)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_transposing_is_a_bijection_on_random_categories(all_families, family, data):
    t = all_families[family]
    grid = data.draw(grids)
    x, y = (_cat(min_transitive_closure(data.draw(matrices(grid)))) for _ in range(2))
    z = _cat(min_transitive_closure(data.draw(matrices(grid, max_n=2))))
    _check_transposing(x, y, _power(x, y), z)
    # a power that is not a category: the counterexample of a C1-violating
    # triple of the grid
    c1 = check_c1(t, grid)
    if not c1.verdict:
        bundle = counterexample(t, *c1.witness.values)
        base, fiber = bundle.base, bundle.fiber
        _check_transposing(base, fiber, _power(base, fiber), z)


# 4-point grids on which C1 holds.  On each, & of two values below 1 is 0,
# so t-transitive closures stay on the grid; they reach all 1,723 categories
# of size 3, and 993 of them are not min-transitive.
C1_GRIDS = [
    (family, (F(0), F(1, 4), c, F(1)))
    for family in ("lukasiewicz", "nilpotent-minimum")
    for c in (F(1, 3), F(1, 2))
]


def _t_closure(t, hom) -> RCat:
    """The smallest pointwise enlargement of a reflexive matrix that is t-transitive."""
    m = [list(row) for row in hom]
    changed = True
    while changed:
        changed = False
        for i, j, k in itertools.product(range(len(m)), repeat=3):
            composed = apply(t, m[j][k], m[i][j])
            if composed > m[i][k]:
                m[i][k], changed = composed, True
    return _cat(m)


@st.composite
def grid_categories(draw, t, grid, sizes):
    n = draw(st.sampled_from(sizes))
    cat = _t_closure(t, [[F(1) if i == j else draw(st.sampled_from(grid)) for j in range(n)]
                         for i in range(n)])
    assert all(v in grid for row in cat.hom for v in row)
    return cat


def test_c1_grids_pass_ccc(all_families):
    for family, grid in C1_GRIDS:
        assert check_ccc(all_families[family], grid, 2).verdict


@pytest.mark.parametrize(
    "family, grid", C1_GRIDS, ids=[f"{family}-{grid[2]}" for family, grid in C1_GRIDS]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_powers_on_c1_grids_are_categories(all_families, family, grid, data):
    t = all_families[family]
    assert check_c1(t, grid).verdict
    x = data.draw(grid_categories(t, grid, (2, 3)))
    y = data.draw(grid_categories(t, grid, (3,)))
    assume(min_transitive_closure(y.hom) != y.hom)
    power = _power(x, y)
    assert _is_category(power, t)
    _check_pointwise_iso(x, y, power)


def _power_validates_row(t, base, fiber) -> dict:
    """The ``power-validates`` row of the ``exp`` report."""
    code, out, _ = run_cli(["exp", "--tnorm", "tnorm", "--base", "base", "--fiber", "fiber"],
                           {"tnorm": jsonio.tnorm_to_dict(t),
                            "base": jsonio.category_to_dict(base),
                            "fiber": jsonio.category_to_dict(fiber)})
    assert code == 0
    rows = json.loads(out)["verdicts"]
    assert [row["name"] for row in rows] == ["power", "power-validates"]
    return rows[1]


def _expect_power_sweep(t, x, y) -> Witness | None:
    """Check ``exp`` and ``check_currying`` against ``oracles.power_sweep``."""
    w = power_sweep(t, x, y)
    assert _power_validates_row(t, x, y) == {
        "name": "power-validates", "ok": w is None, "result": jsonio.to_jsonable(w)}
    expected = None if w is None else replace(
        w, note=f"power object fails category axioms ({w.note})")
    assert check_currying(t, x, y) == expected
    return w


@settings(max_examples=40, deadline=None)
@given(t=st.one_of(st.just(minimum()), collapse_norms()), data=st.data())
def test_power_validation_matches_the_power_sweep_where_c1_holds(t, data):
    # points inside the intervals can make closures that are not min-transitive
    inner = [(a + b) / 2 for a, b in t.intervals]
    values = sorted({*tnorms.breakpoints(t), *inner, *data.draw(st.lists(UNITS, max_size=2))})
    x = _t_closure(t, data.draw(reflexive_matrices(values, 3)))
    y = data.draw(grid_categories(t, values, (3,)))
    assert _expect_power_sweep(t, x, y) is None


@pytest.mark.parametrize("family", sorted(C1_VIOLATIONS))
def test_power_validation_keeps_the_witness_where_c1_fails(all_families, family):
    t = all_families[family]
    bundle = counterexample(t, *C1_VIOLATIONS[family])
    assert _expect_power_sweep(t, bundle.base, bundle.fiber) is not None


def _power_outcomes(t, x, y) -> tuple:
    """The ``power-validates`` verdict and ``oracles.validate_reference`` on the power."""
    return (_outcome(lambda: categories._validate_power(t, exponential(t, x, y))),
            _outcome(lambda: validate_reference(exponential(t, x, y).as_rcat(), t)))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(C1_VIOLATIONS)), data=st.data())
def test_power_validation_matches_the_reference_under_broken_ands(all_families, family, data):
    # t-closed pairs whose hom values may fail C1; a broken & may make the
    # inputs or the power fail
    t = all_families[family]
    values = sorted({F(0), F(1), *data.draw(st.lists(UNITS, min_size=1, max_size=3))})
    x, y = (_t_closure(t, data.draw(reflexive_matrices(values, 3))) for _ in range(2))
    broken = data.draw(broken_ands(t, sorted({F(1), *itertools.chain(*x.hom, *y.hom)})))
    with pytest.MonkeyPatch.context() as mp:
        if broken is not None:
            install_and(mp, broken)
        new, reference = _power_outcomes(t, x, y)
    assert new == reference


def test_c1_on_the_power_values_needs_a_monotone_and(all_families, monkeypatch):
    # Why ``_validate_power`` sweeps the power wherever C1 fails on [0,1],
    # even where C1 holds on the hom values: the proof in ``check_ccc``
    # needs a monotone &.  With 0 & 0 = 1, C1 holds on the values {0, 1} of
    # the discrete two-element base and fiber, yet the power is not a
    # category: d(g,h) & d(f,g) = 0 & 0 = 1 > 0 = d(f,h).
    t = all_families["lukasiewicz"]
    install_and(monkeypatch, lambda t, p, q: F(1) if p == q == 0 else real_and(t, p, q))
    discrete = RCat(("a", "b"), ((1, 0), (0, 1)))
    power = exponential(t, discrete, discrete)
    assert power.values == (F(0), F(1))
    assert tnorms._c1_sweep(t, power.values, *tnorms._rank_products(t, power.values)).verdict
    new, reference = _power_outcomes(t, discrete, discrete)
    assert new == reference == Witness((("a", "a"), ("a", "b"), ("b", "a")), F(1), F(0),
                                       note="transitivity")


@pytest.mark.parametrize("family", FAMILIES + ("interval-collapse-multi",))
def test_c1_holds_unless_u_is_below_both(all_families, family):
    t = all_families.get(family) or interval_collapse(
        [(F(0), F(1, 8)), (F(1, 4), F(1, 2)), (F(3, 4), F(9, 10))]
    )
    for p, q, u in itertools.product(canonical_grid(t, 10), repeat=3):
        if u >= min(p, q):
            lhs, rhs = c1_sides(t, p, q, u)
            assert lhs == rhs, (p, q, u)


@st.composite
def rank_tables(draw):
    """``(pts, g, table, keys)`` as ``_c1_sweep`` reads them, on 0-8 points.

    The grid ranks g increase strictly from a drawn set, so they are rarely
    0..n-1.  The table is either random or the table of minimum, on which
    C1 holds, with up to three entries changed, so that C1 can fail in any
    row; it is symmetric or not.
    """
    n = draw(st.integers(0, 8))
    top = 3 * n + 4
    g = sorted(draw(st.lists(st.integers(0, top - 1), min_size=n, max_size=n, unique=True)))
    ranks = st.integers(0, top - 1)
    symmetric = draw(st.booleans())
    if draw(st.booleans()):
        table = [[min(a, b) for b in g] for a in g]
        for _ in range(draw(st.integers(0, 3)) if n else 0):
            i, j, r = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(ranks)
            table[i][j] = r
            if symmetric:
                table[j][i] = r
    else:
        table = [[draw(ranks) for _ in g] for _ in g]
        if symmetric:
            table = [[table[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return [F(r, top) for r in g], g, table, [(r, top) for r in range(top)]


@settings(max_examples=400, deadline=None)
@given(family=st.sampled_from(FAMILIES), ranked=rank_tables())
def test_c1_row_sweep_matches_the_per_pair_sweep_on_rank_tables(all_families, family, ranked):
    t = all_families[family]
    assert tnorms._c1_sweep(t, *ranked) == c1_rank_sweep_reference(t, *ranked)


def _c1_sweeps_on_canonical_grid(t, n):
    pts = tnorms._sorted_grid(canonical_grid(t, n))
    ranked = tnorms._rank_products(t, pts)
    return tnorms._c1_sweep(t, pts, *ranked), c1_rank_sweep_reference(t, pts, *ranked)


@pytest.mark.parametrize("family", FAMILIES)
def test_c1_row_sweep_matches_the_per_pair_sweep_on_canonical_grids(all_families, family):
    for n in range(1, 41):
        new, reference = _c1_sweeps_on_canonical_grid(all_families[family], n)
        assert new == reference, n


@settings(max_examples=40, deadline=None)
@given(t=collapse_norms(), n=st.integers(1, 40))
def test_c1_row_sweep_matches_the_per_pair_sweep_under_collapse_norms(t, n):
    new, reference = _c1_sweeps_on_canonical_grid(t, n)
    assert new == reference


@st.composite
def reflexive_matrices(draw, grid, max_n):
    n = draw(st.integers(1, max_n))
    return [[F(1) if i == j else draw(st.sampled_from(grid)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_transitivity_holds_at_repeated_indices(all_families, family, data):
    t = all_families[family]
    hom = data.draw(reflexive_matrices(EIGHT_GRID, 5))
    for i, j, k in itertools.product(range(len(hom)), repeat=3):
        if len({i, j, k}) < 3:
            assert apply(t, hom[j][k], hom[i][j]) <= hom[i][k], (i, j, k)


def _validate_reference(cat: RCat, t):
    """Reflexivity, then transitivity over all n**3 triples in label order."""
    order = sorted(range(len(cat)), key=lambda i: str(cat.elements[i]))
    for i in order:
        if cat.hom[i][i] != 1:
            return Witness((cat.elements[i],), cat.hom[i][i], F(1), note="reflexivity")
    for i, j, k in itertools.product(order, repeat=3):
        composed = apply(t, cat.hom[j][k], cat.hom[i][j])
        if composed > cat.hom[i][k]:
            return Witness(
                (cat.elements[i], cat.elements[j], cat.elements[k]),
                composed, cat.hom[i][k], note="transitivity",
            )
    return None


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_validate_matches_full_triple_sweep(all_families, family, data):
    t = all_families[family]
    grid = data.draw(grids)
    hom = data.draw(reflexive_matrices(grid, 4))
    # labels out of index order, so the label order of the sweep matters
    labels = data.draw(st.permutations([f"v{i}" for i in range(len(hom))]))
    cat = RCat(tuple(labels), hom)
    assert validate(cat, t) == _validate_reference(cat, t)


@settings(max_examples=150, deadline=None)
@given(grid=st.lists(UNITS, min_size=1, max_size=4, unique=True), data=st.data())
def test_validate_matches_the_fraction_sweep(all_families, grid, data):
    # a broken & may make any triple fail, and may not commute
    t = data.draw(st.one_of(st.sampled_from(list(all_families.values())), collapse_norms()))
    hom = data.draw(reflexive_matrices(grid, 5))
    labels = data.draw(st.permutations([f"v{i}" for i in range(len(hom))]))
    cat = RCat(tuple(labels), hom)
    broken = data.draw(broken_ands(t, sorted({*grid, F(1)})))
    with pytest.MonkeyPatch.context() as mp:
        if broken is not None:
            install_and(mp, broken)
        assert validate(cat, t) == validate_reference(cat, t)


def test_validate_composes_hom_jk_on_the_left(all_families, monkeypatch):
    # a non-commutative &: hom(b,c) & hom(a,b) = 1 & 1/2 = 1/2 > 1/4 =
    # hom(a,c), while the swapped order gives (1/2)**2 * 1 = 1/4
    install_and(monkeypatch, lambda t, p, q: q if p == 1 else p * p * q)
    cat = RCat(("a", "b", "c"), ((1, F(1, 2), F(1, 4)), (0, 1, 1), (0, 0, 1)))
    w = validate(cat, all_families["minimum"])
    assert w == validate_reference(cat, all_families["minimum"])
    assert w == Witness(("a", "b", "c"), F(1, 2), F(1, 4), note="transitivity")


def test_validate_composes_only_triples_of_distinct_elements(all_families, monkeypatch):
    # under & = max, hom(b,b) & hom(a,b) = 1 > 1/2 = hom(a,b) at the
    # repeated triple (a, b, b); two elements have no triple of distinct ones
    install_and(monkeypatch, lambda t, p, q: max(p, q))
    cat = RCat(("a", "b"), ((1, F(1, 2)), (0, 1)))
    assert validate(cat, all_families["minimum"]) is None
    assert validate_reference(cat, all_families["minimum"]) is None


@settings(max_examples=150, deadline=None)
@given(grid=st.lists(UNITS, min_size=1, max_size=4, unique=True), data=st.data())
def test_check_exponentiable_matches_the_fraction_sweep(all_families, grid, data):
    # any square matrix, a category or not, and the empty one; a broken &
    # is drawn on V, the grid and hom values, and may not commute
    t = data.draw(st.one_of(st.sampled_from(list(all_families.values())), collapse_norms()))
    n = data.draw(st.integers(0, 3))
    values = data.draw(st.lists(st.one_of(st.sampled_from(grid), UNITS), min_size=1, max_size=3))
    hom = [[data.draw(st.sampled_from(values)) for _ in range(n)] for _ in range(n)]
    labels = data.draw(st.permutations([f"v{i}" for i in range(n)]))
    cat = RCat(tuple(labels), hom)
    broken = data.draw(broken_ands(t, sorted({*grid, *values})))
    with pytest.MonkeyPatch.context() as mp:
        if broken is not None:
            install_and(mp, broken)
        assert check_exponentiable(t, cat, grid) == exponentiable_bruteforce(t, cat, grid)


def test_check_exponentiable_composes_the_p_side_on_the_left(all_families, monkeypatch):
    # a non-commutative &: at (p, q, x, z) = (1/2, 1, a, a) the left side is
    # 1/2 & 1 = 1/4, and the y = a term (1/2 ∧ 1) & (1 ∧ 1) = 1/4 while the
    # y = b term is 0 & (1 ∧ 1/2) = 0, so the law holds; with the operands
    # of the terms swapped, the y = a term would be 1 & 1/2 = 1/2
    install_and(monkeypatch, lambda t, p, q: q if p == 1 else p * p * q)
    t = all_families["minimum"]
    cat = RCat(("a", "b"), ((1, F(1, 2)), (0, 1)))
    report = check_exponentiable(t, cat, [F(1, 2), F(1)])
    assert report.verdict
    assert report == exponentiable_bruteforce(t, cat, [F(1, 2), F(1)])


def _outcome(check, *args):
    try:
        return check(*args)
    except (BudgetError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def _ccc_reference(t, grid, max_size, budget):
    """``check_ccc`` with the categories built and validated by brute force."""
    c1 = check_c1(t, grid)
    if not c1.verdict:
        return CccReport(False, c1, counterexample(t, *c1.witness.values), 0, 0)
    n = sum(len(categories_bruteforce(t, grid, size, budget))
            for size in range(1, max_size + 1))
    return CccReport(True, c1, None, n, n**3)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    grid=st.lists(st.fractions(0, 1, max_denominator=6), min_size=1, max_size=3, unique=True),
    max_size=st.integers(1, 3),
    budget=st.integers(1, 5000),
)
def test_check_ccc_matches_counting_every_pair(all_families, family, grid, max_size, budget):
    t = all_families[family]
    assert _outcome(check_ccc, t, grid, max_size, budget) == _outcome(
        _ccc_reference, t, grid, max_size, budget
    )


@settings(max_examples=150, deadline=None)
@given(
    grid=st.lists(UNITS, min_size=1, max_size=4, unique=True),
    size=st.integers(1, 3),
    budget=st.integers(1, 5000),
    data=st.data(),
)
def test_category_generation_matches_bruteforce(all_families, grid, size, budget, data):
    # grids may leave out 0 and 1; a broken & may make any triple fail
    t = data.draw(st.one_of(st.sampled_from(list(all_families.values())), collapse_norms()))
    broken = data.draw(broken_ands(t, sorted(grid)))
    with pytest.MonkeyPatch.context() as mp:
        if broken is not None:
            # generation reads tnorms' table, the oracle composes in validate's order
            install_and(mp, broken)
        assert _outcome(enumerate_categories, t, grid, size, budget) == _outcome(
            categories_bruteforce, t, grid, size, budget
        )


def test_category_generation_composes_in_validate_order(all_families, monkeypatch):
    # a non-commutative &: at hom(j,k) = 1, hom(i,j) = 1/2, hom(i,k) = 1/4
    # validate composes 1/2 > 1/4, the swapped order (1/2)**2 * 1 = 1/4
    def broken(t, p, q):
        return q if p == 1 else p * p * q

    install_and(monkeypatch, broken)
    t, grid = all_families["minimum"], (F(1, 4), F(1, 2), F(1))
    assert enumerate_categories(t, grid, 3) == categories_bruteforce(t, grid, 3, 10**6)


@functools.lru_cache(maxsize=None)
def _canonical_c1(t):
    return check_c1(t, canonical_grid(t))


def _power_completeness_reference(t, base, fiber):
    """``check_power_completeness`` from C1 on the canonical grid and ``validate``."""
    c1 = _canonical_c1(t)
    if not c1.verdict:
        triple = ", ".join(map(str, c1.witness.values))
        raise PreconditionError(f"t-norm {t.describe()} fails C1 at ({triple})")
    for cat, name in ((base, "base"), (fiber, "fiber")):
        w = validate(cat, t)
        if w is not None:
            raise PreconditionError(f"{name} category is invalid at {w.values}: {w.note}")
    return None


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_power_completeness_matches_enumerating_functors(all_families, family, data):
    t = all_families[family]
    grid = data.draw(grids)
    # reflexive matrices, not always transitive, so the preconditions also fail
    base, fiber = (_cat(data.draw(reflexive_matrices(grid, 3))) for _ in range(2))
    assert _outcome(check_power_completeness, t, base, fiber) == _outcome(
        _power_completeness_reference, t, base, fiber
    )


# hom values for the completeness sweeps: many 1s, so that Cauchy cycles are
# common and matrices that are not categories break transitivity at a 1
MANY_ONES = (F(1), F(1), F(1), F(0), F(1, 2), F(3, 4))


def _random_carrier(rng: random.Random) -> RCat:
    """Half the time a category (min-closed), else an arbitrary matrix."""
    n = rng.randint(1, 4)
    hom = [[rng.choice(MANY_ONES) for _ in range(n)] for _ in range(n)]
    return _cat(min_transitive_closure(hom) if rng.random() < 0.5 else hom)


def _random_sequence(rng: random.Random, cat: RCat) -> TailSeq:
    def labels(k):
        return [rng.choice(cat.elements) for _ in range(k)]

    return TailSeq(cat, labels(rng.randint(0, 2)), labels(rng.randint(1, 3)))


def _completeness_outcomes(rng: random.Random, budget: int) -> tuple:
    """Compare both completeness checks with their full sweeps on one case."""
    cat = _random_carrier(rng)
    other = _random_carrier(rng) if rng.random() < 0.5 else cat
    a_seq, b_seq = _random_sequence(rng, cat), _random_sequence(rng, other)
    got = (_outcome(is_cauchy_complete, cat),
           _outcome(check_product_bilimit, a_seq, b_seq))
    assert got == (_outcome(cauchy_complete_sweep, cat, budget),
                   _outcome(product_bilimit_sweep, a_seq, b_seq))
    return got


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), budget=st.integers(1, 3))
def test_completeness_checks_match_full_sweeps(rng, budget):
    _completeness_outcomes(rng, budget)


def test_completeness_sweep_comparison_sees_passes_and_errors():
    rng = random.Random(11)
    outcomes = [_completeness_outcomes(rng, rng.randint(1, 3)) for _ in range(300)]
    for k in range(2):
        assert any(out[k] is None for out in outcomes)
        # the law check of ``find_bilimit``, not only a failed Cauchy precondition
        assert any(isinstance(out[k], tuple) and "carrier is not a valid category" in out[k][1]
                   for out in outcomes)


QUARTERS = tuple(F(k, 4) for k in range(5))


def _laws_outcome(rng: random.Random) -> tuple | None:
    """Compare the law check with the scan on one matrix; labels shuffled."""
    n = rng.randint(1, 5)
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    hom = [[rng.choice(QUARTERS) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.8:  # else reflexivity almost always breaks
        for i in range(n):
            hom[i][i] = F(1)
    cat = RCat(tuple(labels), hom)
    got = _outcome(completeness._check_laws, cat)
    assert got == _outcome(check_laws_scan, cat)
    return got


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_law_check_matches_scan_of_the_laws(rng):
    _laws_outcome(rng)


def test_law_check_comparison_sees_both_outcomes():
    rng = random.Random(13)
    outcomes = [_laws_outcome(rng) for _ in range(300)]
    assert any(out is None for out in outcomes)
    for law in ("reflexivity", "transitivity"):
        assert any(out is not None and out[1].endswith(law) for out in outcomes)
