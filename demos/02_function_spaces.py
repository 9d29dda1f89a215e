"""Building products and function spaces, and testing the currying adjunction.

Under a collapsing t-norm the space of functors with the sup-hom d really is
a category, and currying is a bijection for every t-norm.  The demo validates
one power; the full sweep over the pairs of categories with at most two
elements over a small value grid passes C1 on that grid, which makes every
such power a category, so it builds none.
"""

from fractions import Fraction as F

from tnormcat import (
    RCat,
    check_ccc,
    check_currying,
    check_exponentiable,
    exponential,
    interval_collapse,
    lukasiewicz,
    minimum,
    product,
    terminal,
    unit_interval_category,
    validate,
)

t = interval_collapse([(F(1, 4), F(1, 2))])
two_chain = RCat(("x", "y"), ((1, F(1, 2)), (0, 1)))
fiber = unit_interval_category(t, [F(0), F(1, 4), F(1, 2), F(1)])

print("base:  two-element chain with hom(x,y) = 1/2")
print("fiber: unit-interval points {0, 1/4, 1/2, 1} with residuum hom")
power = exponential(t, two_chain, fiber)
print(f"power object: {len(power)} functors")
for f, row in zip(power.functors, power.hom):
    print("  ", tuple(str(v) for v in f.mapping), "->",
          tuple(str(v) for v in row))
print("power validates as a category:", validate(power.as_rcat(), t) is None)
print()

print("products: |two_chain x fiber| =", len(product(two_chain, fiber)),
      "and the terminal object has", len(terminal()), "element")
print()

print("exponentiability of the chain itself:")
for tn in (minimum(), lukasiewicz()):
    from tnormcat import canonical_grid

    report = check_exponentiable(tn, two_chain, canonical_grid(tn, 10))
    verdict = "exponentiable" if report.verdict else f"fails at {report.witness.values}"
    print(f"  under {tn.describe()}: {verdict}")
print()

print("currying bijection on sample triples (fiber rebuilt per t-norm,")
print("since the residuum hom depends on the t-norm):")
for tn in (minimum(), t):
    own_fiber = unit_interval_category(tn, [F(0), F(1, 4), F(1, 2), F(1)])
    w = check_currying(tn, two_chain, own_fiber)
    print(f"  under {tn.describe()}: {'ok' if w is None else w.note}")
print()

grid = (F(0), F(1, 4), F(1, 2), F(1))
report = check_ccc(t, grid, max_size=2)
print(f"full sweep over {report.categories} categories "
      f"({report.triples_checked} triples): "
      f"{'cartesian closed' if report.verdict else 'failed'}")
