"""Verdicts and counts do not depend on element labels or element order.

A category is relabelled by permuting its elements and renaming them with
fresh labels that sort in another order, so the label-ordered sweeps of
``validate`` and ``is_functor`` visit the triples in a different order.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tnormcat import (
    PreconditionError,
    RCat,
    RFunctor,
    TailSeq,
    exponential,
    find_bilimit,
    is_functor,
    validate,
)
from tnormcat.tnorms import FAMILIES

F = Fraction

VALUES = (F(0), F(1, 3), F(1, 2), F(3, 4), F(1), F(1), F(1))
NEW_LABELS = ("q", "c", "zz", "a", "m", "b")


@st.composite
def categories(draw):
    """A matrix with 1 on the diagonal, often breaking transitivity."""
    n = draw(st.integers(1, 3))
    hom = [[F(1) if i == j else draw(st.sampled_from(VALUES)) for j in range(n)]
           for i in range(n)]
    return RCat(tuple(f"v{i}" for i in range(n)), hom)


@st.composite
def relabellings(draw, cat):
    """A copy of ``cat`` with its elements permuted and renamed, and the renaming."""
    n = len(cat)
    order = draw(st.permutations(range(n)))
    labels = draw(st.permutations(NEW_LABELS))[:n]
    new = RCat(tuple(labels),
               tuple(tuple(cat.hom[order[k]][order[m]] for m in range(n)) for k in range(n)))
    return new, {cat.elements[order[k]]: labels[k] for k in range(n)}


def _outcome(check, *args):
    try:
        return check(*args)
    except PreconditionError as exc:
        return type(exc).__name__


def _power_summary(t, base, fiber):
    power = exponential(t, base, fiber)
    return len(power), sorted(v for row in power.hom for v in row)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_relabelling_changes_no_verdict_or_count(all_families, family, data):
    t = all_families[family]
    x, y = data.draw(categories()), data.draw(categories())
    x2, rx = data.draw(relabellings(x))
    y2, ry = data.draw(relabellings(y))

    assert (validate(x, t) is None) == (validate(x2, t) is None)
    assert (validate(y, t) is None) == (validate(y2, t) is None)

    mapping = data.draw(st.lists(st.sampled_from(y.elements), min_size=len(x), max_size=len(x)))
    f = RFunctor(x, y, mapping)
    old = {new: a for a, new in rx.items()}
    f2 = RFunctor(x2, y2, tuple(ry[f(old[b])] for b in x2.elements))
    assert (is_functor(f) is None) == (is_functor(f2) is None)

    assert _outcome(_power_summary, t, x, y) == _outcome(_power_summary, t, x2, y2)

    cycle = data.draw(st.lists(st.sampled_from(x.elements), min_size=1, max_size=3))
    prefix = data.draw(st.lists(st.sampled_from(x.elements), max_size=2))
    seq = TailSeq(x, prefix, cycle)
    seq2 = TailSeq(x2, [rx[a] for a in prefix], [rx[a] for a in cycle])
    assert (_outcome(lambda s: find_bilimit(s).kind, seq)
            == _outcome(lambda s: find_bilimit(s).kind, seq2))
