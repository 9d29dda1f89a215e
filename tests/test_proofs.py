"""Brute-force checks of the facts that make three checks redundant.

For every t-norm, with d the sup-hom of the power y^x:

(a) evaluation x × y^x -> y, (a, f) ↦ f(a), is a functor;
(b) h ↦ (c ↦ h(c,-)) is a bijection from the functors z×x -> y onto the maps
    z -> y^x that do not shrink homs under d, so ``check_ccc`` and
    ``check_currying`` run no per-triple uncurry test (that every functor
    z -> y^x uncurries to a functor out of z×x) and test only the powers;
(c) every element of a Cauchy cycle is a bilimit of that cycle, so
    ``is_cauchy_complete`` cannot fail on a power;
(d) a Cauchy cycle has the same first bilimit, and the same first bilimits
    of its pointwise value cycles in the fiber, as the cycle (cycle[0],), so
    ``check_power_completeness`` need only check length-1 cycles.

None of these needs y^x to be a category, so they are also checked on the
counterexample powers of the C1-failing families, and (b) also on random
categories.  Maps are enumerated with itertools and d comes from the oracle,
not from ``_int_functors`` or ``exponential``.

The rank power that ``check_ccc`` and ``check_currying`` sweep is checked
against ``exponential`` and ``validate`` on the same pairs and on random
categories: the same functors in the same order, the ranks of the same d
matrix, and the same verdict and witness, including for norms whose & leaves
the ranked values (odd codes).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnormcat import (
    RCat,
    TailSeq,
    apply,
    check_c1,
    counterexample,
    exponential,
    interval_collapse,
    is_cauchy_complete,
    min_transitive_closure,
    product,
    product_tnorm,
    validate,
)
from tnormcat.categories import DEFAULT_BUDGET, _int_matrix, _rank_power, _RankTable
from tnormcat.completeness import FROM_SEQ, TO_SEQ
from tnormcat.tnorms import FAMILIES

from oracles import power_hom_bruteforce, tail_value_bruteforce

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
    n = len(src)
    return all(
        src.hom[i][j] <= dst.hom_of(images[i], images[j])
        for i in range(n)
        for j in range(n)
    )


def _functors(src: RCat, dst: RCat) -> list:
    return [
        m
        for m in itertools.product(dst.elements, repeat=len(src))
        if _is_functor(src, dst, m)
    ]


def _power(x: RCat, y: RCat) -> RCat:
    maps = _functors(x, y)
    d = tuple(tuple(power_hom_bruteforce(x, y, f, g) for g in maps) for f in maps)
    return RCat(tuple(maps), d)


def _is_category(cat: RCat, t) -> bool:
    n = len(cat)
    return all(
        apply(t, cat.hom[j][k], cat.hom[i][j]) <= cat.hom[i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


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
    assert is_cauchy_complete(power, max_cycle) is None
    return power


@pytest.fixture(scope="module")
def small_powers():
    """Facts (a)-(d) on every pair from SMALL; none of them involves the t-norm."""
    return [_check_facts(x, y, 3) for x, y in itertools.product(SMALL, repeat=2)]


@pytest.mark.parametrize("family", FAMILIES)
def test_evaluation_currying_and_cauchy_facts(all_families, small_powers, family):
    t = all_families[family]
    assert all(_is_category(power, t) for power in small_powers)

    if family in C1_VIOLATIONS:
        bundle = counterexample(t, *C1_VIOLATIONS[family])
        power = _check_facts(bundle.base, bundle.fiber, 2)
        assert not _is_category(power, t)


def _check_rank_power(t, x: RCat, y: RCat):
    """Assert the rank power agrees with ``exponential``; return its witness."""
    table = _RankTable(t, [x.hom, y.hom])
    x_m, y_m = _int_matrix(x.hom, table.rank), _int_matrix(y.hom, table.rank)
    images, pcat_m, invalid = _rank_power(table, x, y, x_m, y_m, DEFAULT_BUDGET)
    power = exponential(t, x, y)
    assert [tuple(y.elements[i] for i in f) for f in images] == list(power.labels)
    assert pcat_m == _int_matrix(power.hom, table.rank)
    w = validate(power.as_rcat(), t)
    assert table.is_category(pcat_m) == (w is None)
    assert invalid == w
    return w


@pytest.mark.parametrize("family", FAMILIES)
def test_rank_power_matches_exponential(all_families, family):
    t = all_families[family]
    for x, y in itertools.product(SMALL, repeat=2):
        assert _check_rank_power(t, x, y) is None
    if family in C1_VIOLATIONS:
        bundle = counterexample(t, *C1_VIOLATIONS[family])
        assert _check_rank_power(t, bundle.base, bundle.fiber) is not None


@pytest.mark.parametrize(
    "t", [product_tnorm(), interval_collapse([(F(1, 5), F(1, 2))])], ids=lambda t: t.family
)
def test_and_codes_off_the_ranked_values(t):
    # 1/2 & 1/2 is 1/4 or 1/5: between 0 and 1/2, or below 1/2 when 0 is absent
    half = F(1, 2)
    assert _RankTable(t, [((1, half), (0, 1))]).codes[1][1] == 1
    assert _RankTable(t, [((1, half), (half, 1))]).codes[0][0] == -1


grids = st.lists(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=4, unique=True)


@st.composite
def matrices(draw, grid, max_n=3):
    n = draw(st.integers(1, max_n))
    return [[draw(st.sampled_from(grid)) for _ in range(n)] for _ in range(n)]


def _cat(hom) -> RCat:
    return RCat(tuple(f"v{i}" for i in range(len(hom))), hom)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_rank_power_matches_exponential_on_random_categories(all_families, family, data):
    t = all_families[family]
    grid = data.draw(grids)
    x, y = (_cat(min_transitive_closure(data.draw(matrices(grid)))) for _ in range(2))
    _check_rank_power(t, x, y)
    # powers of min-transitive categories are categories; failing ones come
    # from the counterexample of a C1-violating triple of the grid
    c1 = check_c1(t, grid)
    if not c1.verdict:
        bundle = counterexample(t, *c1.witness.values)
        assert _check_rank_power(t, bundle.base, bundle.fiber) is not None


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


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_rank_validation_matches_validate(all_families, family, data):
    t = all_families[family]
    cat = _cat(data.draw(matrices(data.draw(grids), max_n=4)))
    table = _RankTable(t, [cat.hom])
    assert table.is_category(_int_matrix(cat.hom, table.rank)) == (validate(cat, t) is None)
