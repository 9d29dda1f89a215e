import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from tnormcat import RCat, TailSeq, apply, interval_collapse, lukasiewicz, \
    minimum, nilpotent_minimum, product_tnorm, tnorms

from oracles import min_transitive_closure

F = Fraction

_KERNEL = tnorms._and_col


def real_and(t, p, q):
    """The real p & q on Fractions, also while ``install_and`` replaces it:
    the kernel as it was at import, on the one-element column of p."""
    key, = _KERNEL(t, [p.as_integer_ratio()], q.as_integer_ratio())
    return Fraction(*key)


def install_and(mp, amp):
    """Make ``amp(t, p, q)``, a & on Fractions, the & of tnormcat.

    It is installed on ``mp`` (a ``pytest.MonkeyPatch``) as
    ``tnorms._and_col``, the one & kernel, which then calls ``amp`` once
    for each element p of its column, with the column's right operand q,
    converting the pairs to Fractions on the way in and each value back to
    a pair on the way out.  So every evaluation of & is one call of
    ``amp``, however the kernel's callers group them.  Every & of
    ``tnorms`` and ``categories``, and the default & of the sweeps of
    ``tests/oracles.py``, reaches that kernel, through ``apply`` or
    directly.  ``amp`` must compute the real & with ``real_and``, not
    ``apply``, which would call it again.
    """
    def kernel(t, ps, q):
        q = Fraction(*q)
        return [amp(t, Fraction(*p), q).as_integer_ratio() for p in ps]

    mp.setattr(tnorms, "_and_col", kernel)


@pytest.fixture(scope="session")
def all_families():
    return {
        "minimum": minimum(),
        "product": product_tnorm(),
        "lukasiewicz": lukasiewicz(),
        "nilpotent-minimum": nilpotent_minimum(),
        "interval-collapse": interval_collapse([(F(1, 5), F(1, 2))]),
    }


@pytest.fixture
def two_chain():
    """Elements x, y with hom(x,y) = 1/2 and hom(y,x) = 0."""
    return RCat(("x", "y"), ((1, F(1, 2)), (0, 1)))


def make_random_category(rng: random.Random, max_n: int, grid) -> RCat:
    """A valid category under any t-norm: random matrix, min-closed."""
    n = rng.randint(1, max_n)
    hom = [[rng.choice(grid) for _ in range(n)] for _ in range(n)]
    closed = min_transitive_closure(hom)
    return RCat(tuple(f"v{i}" for i in range(n)), closed)


EIGHT_GRID = tuple(F(k, 7) for k in range(8))


@st.composite
def tail_seqs(draw, max_n=4):
    """A sequence in a random category of 1 to ``max_n`` elements
    (``make_random_category`` on ``EIGHT_GRID``): a prefix of 0-2 and a
    cycle of 1-3 of its elements."""
    cat = make_random_category(draw(st.randoms(use_true_random=False)), max_n, EIGHT_GRID)
    labels = st.sampled_from(cat.elements)
    return TailSeq(cat, draw(st.lists(labels, max_size=2)),
                   draw(st.lists(labels, min_size=1, max_size=3)))


UNITS = st.fractions(min_value=0, max_value=1, max_denominator=48)


def collapse_norms():
    """Interval-collapse norms with 1-3 random intervals, endpoints in twelfths."""
    cuts = st.fractions(min_value=0, max_value=F(11, 12), max_denominator=12)
    return st.integers(1, 3).flatmap(
        lambda k: st.lists(cuts, min_size=2 * k, max_size=2 * k, unique=True)
    ).map(lambda xs: interval_collapse(zip(*[iter(sorted(xs))] * 2)))


@st.composite
def broken_ands(draw, t, pts):
    """None for the real & of t, else a broken & for ``install_and``.

    Three fixed kinds break unit, commutativity and left continuity; "pair"
    changes one value at a pair of grid points or products of grid points,
    and "off-grid pair" changes p & u only where p is a product of grid
    points that lies off the grid and u is a grid point, and also u & p
    unless it draws an asymmetric break.  Either kind may be asymmetric.
    """
    kind = draw(st.sampled_from(
        ["real", "unit", "commutativity", "left continuity", "pair", "off-grid pair"]
    ))
    if kind == "real":
        return None
    if kind == "unit":
        return lambda t, p, q: p * q / 2
    if kind == "commutativity":
        return lambda t, p, q: q if p == 1 else p * p * q
    if kind == "left continuity":
        return lambda t, p, q: min(p, q) if p + q >= 1 else F(0)
    table = {apply(t, p, q) for p in pts for q in pts}
    if kind == "pair":
        x, y = draw(st.lists(st.sampled_from(sorted(table | set(pts))),
                             min_size=2, max_size=2))
        z = draw(UNITS)
        symmetric = draw(st.booleans())
    else:
        off_grid = sorted(table - set(pts))
        assume(off_grid)
        x, y = draw(st.sampled_from(off_grid)), draw(st.sampled_from(pts))
        z = (apply(t, x, y) + 1) / 2
        # asymmetric: only the outer D & u changes, and u & D stays real
        symmetric = draw(st.booleans())

    def broken(t, p, q):
        if (p, q) == (x, y) or (symmetric and (q, p) == (x, y)):
            return z
        return real_and(t, p, q)

    return broken
