import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnormcat import (
    InputError,
    RCat,
    RFunctor,
    interval_collapse,
    is_functor,
    lukasiewicz,
    minimum,
    product,
    product_tnorm,
    terminal,
    unit_interval_category,
    validate,
)

from conftest import EIGHT_GRID, make_random_category
from oracles import (
    functor,
    min_transitive_closure,
    min_transitive_closure_fixpoint,
    pair_functors,
    projections,
)

F = Fraction


class TestValidate:
    def test_discrete_category_passes(self, all_families):
        cat = RCat(("a", "b", "c"), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        for t in all_families.values():
            assert validate(cat, t) is None

    @pytest.mark.parametrize("u", [F(0), F(1, 3), F(1), F(7, 9)])
    def test_two_element_chain_passes_for_every_u(self, all_families, u):
        cat = RCat(("x", "y"), ((1, u), (0, 1)))
        for t in all_families.values():
            assert validate(cat, t) is None

    def test_transitivity_violation_named(self):
        cat = RCat(
            ("x", "y", "z"),
            ((1, 1, F(1, 2)), (0, 1, 1), (0, 0, 1)),
        )
        w = validate(cat, minimum())
        assert w is not None
        assert w.values == ("x", "y", "z")
        assert (w.lhs, w.rhs) == (F(1), F(1, 2))

    def test_reflexivity_violation(self):
        cat = RCat(("a",), ((F(1, 2),),))
        w = validate(cat, minimum())
        assert w is not None and w.note == "reflexivity"

    def test_shape_errors(self):
        with pytest.raises(InputError):
            RCat(("a", "a"), ((1, 1), (1, 1)))
        with pytest.raises(InputError):
            RCat(("a", "b"), ((1, 1),))
        with pytest.raises(InputError):
            RCat(("a",), ((F(3, 2),),))


class TestIsFunctor:
    def test_identity_and_constant(self, two_chain):
        assert is_functor(RFunctor(two_chain, two_chain, ("x", "y"))) is None
        assert is_functor(RFunctor(two_chain, two_chain, ("y", "y"))) is None

    def test_short_mapping_rejected(self, two_chain):
        with pytest.raises(InputError, match="mapping must assign every source element"):
            RFunctor(two_chain, two_chain, ("x",))

    def test_unit_interval_category_needs_a_point(self):
        with pytest.raises(InputError, match="needs at least one point"):
            unit_interval_category(minimum(), [])

    def test_hom_image_map_into_unit_interval(self, two_chain):
        # w -> hom(x, w) lands in the unit-interval category functorially
        t = lukasiewicz()
        target = unit_interval_category(t, [F(0), F(1, 2), F(1)])
        f = functor(two_chain, target, {"x": F(1), "y": F(1, 2)})
        assert is_functor(f) is None

    def test_violation_witness(self):
        src = RCat(("a", "b"), ((1, 1), (0, 1)))
        dst = RCat(("c", "d"), ((1, F(1, 2)), (0, 1)))
        w = is_functor(RFunctor(src, dst, ("c", "d")))
        assert w is not None
        assert w.values == ("a", "b") and (w.lhs, w.rhs) == (F(1), F(1, 2))

    def test_mapping_dict_accepted(self, two_chain):
        assert is_functor(functor(two_chain, two_chain, {"x": "y", "y": "y"})) is None


class TestProductTerminal:
    def test_terminal_validates(self, all_families):
        for t in all_families.values():
            assert validate(terminal(), t) is None

    def test_product_with_terminal_is_isomorphic(self, two_chain):
        prod = product(two_chain, terminal())
        assert len(prod) == len(two_chain)
        for a in two_chain.elements:
            for b in two_chain.elements:
                assert prod.hom_of((a, "*"), (b, "*")) == two_chain.hom_of(a, b)

    def test_product_of_two_chains(self):
        c = RCat(("x", "y"), ((1, F(1, 2)), (0, 1)))
        prod = product(c, c)
        assert len(prod) == 4
        assert prod.hom_of(("x", "x"), ("y", "y")) == F(1, 2)

    def test_product_of_terminals(self):
        assert len(product(terminal(), terminal())) == 1

    def test_projections_are_functors(self, two_chain):
        other = RCat(("a", "b"), ((1, F(1, 4)), (F(1, 8), 1)))
        prod = product(two_chain, other)
        p1, p2 = projections(two_chain, other, prod)
        assert is_functor(p1) is None and is_functor(p2) is None

    def test_unique_functor_to_terminal(self, two_chain):
        bang = RFunctor(two_chain, terminal(), ("*", "*"))
        assert is_functor(bang) is None

    def test_product_validates(self, all_families):
        rng = random.Random(7)
        for _ in range(5):
            a = make_random_category(rng, 3, EIGHT_GRID)
            b = make_random_category(rng, 3, EIGHT_GRID)
            prod = product(a, b)
            for t in all_families.values():
                assert validate(prod, t) is None

    def test_pairing_and_universal_property(self, two_chain):
        w = RCat(("s",), ((1,),))
        f = functor(w, two_chain, {"s": "x"})
        g = functor(w, two_chain, {"s": "y"})
        prod = product(two_chain, two_chain)
        paired = pair_functors(f, g, prod)
        assert is_functor(paired) is None
        p1, p2 = projections(two_chain, two_chain, prod)
        assert tuple(p1(paired(e)) for e in w.elements) == f.mapping
        assert tuple(p2(paired(e)) for e in w.elements) == g.mapping

    def test_universal_property_over_all_enumerated_cones(self, two_chain):
        # every functor into the product is exactly the pairing of its
        # projected components, and that pairing is unique
        from tnormcat import RFunctor, enumerate_functors

        apex = RCat(("s", "t"), ((1, F(1, 4)), (0, 1)))
        prod = product(two_chain, two_chain)
        p1, p2 = projections(two_chain, two_chain, prod)
        for mapping in enumerate_functors(apex, prod):
            h = RFunctor(apex, prod, mapping)
            left = RFunctor(apex, two_chain, tuple(p1(h(e)) for e in apex.elements))
            right = RFunctor(apex, two_chain, tuple(p2(h(e)) for e in apex.elements))
            assert is_functor(left) is None and is_functor(right) is None
            assert pair_functors(left, right, prod).mapping == h.mapping

    def test_product_associative_commutative_up_to_relabeling(self):
        a = RCat(("a1", "a2"), ((1, F(1, 3)), (0, 1)))
        b = RCat(("b1",), ((1,),))
        c = RCat(("c1", "c2"), ((1, F(2, 3)), (F(1, 5), 1)))
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        for xa in a.elements:
            for xb in b.elements:
                for xc in c.elements:
                    for ya in a.elements:
                        for yb in b.elements:
                            for yc in c.elements:
                                assert left.hom_of(((xa, xb), xc), ((ya, yb), yc)) \
                                    == right.hom_of((xa, (xb, xc)), (ya, (yb, yc)))
        ab, ba = product(a, c), product(c, a)
        for x1 in a.elements:
            for y1 in c.elements:
                for x2 in a.elements:
                    for y2 in c.elements:
                        assert ab.hom_of((x1, y1), (x2, y2)) \
                            == ba.hom_of((y1, x1), (y2, x2))


class TestUnitIntervalCategory:
    def test_hom_is_residuum_and_validates(self, all_families):
        pts = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for t in all_families.values():
            cat = unit_interval_category(t, pts)
            assert validate(cat, t) is None

    def test_points_sorted_dedup(self):
        cat = unit_interval_category(minimum(), [F(1), F(0), F(1), F(1, 2)])
        assert cat.elements == (F(0), F(1, 2), F(1))

    def test_numeric_labels_are_looked_up_by_value(self):
        cat = unit_interval_category(minimum(), [F(0), F(1, 2), F(1)])
        assert (cat.index(F(2, 4)), cat.index(0), cat.index(1)) == (1, 0, 2)
        with pytest.raises(InputError, match="unknown element '1/2'"):
            cat.index("1/2")
        with pytest.raises(InputError, match="distinct"):
            RCat((0, F(0)), ((1, 1), (1, 1)))


class TestMinClosure:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_pass_matches_fixpoint(self, data):
        n = data.draw(st.integers(1, 6))
        hom = [[data.draw(st.sampled_from(EIGHT_GRID)) for _ in range(n)] for _ in range(n)]
        assert min_transitive_closure(hom) == min_transitive_closure_fixpoint(hom)

    def test_closure_is_valid_everywhere(self, all_families):
        hom = [[F(1), F(9, 10), F(1, 5)], [F(0), F(1), F(4, 5)], [F(0), F(0), F(1)]]
        closed = min_transitive_closure(hom)
        cat = RCat(("a", "b", "c"), closed)
        for t in all_families.values():
            assert validate(cat, t) is None
        # closure only ever raises entries
        for i in range(3):
            for j in range(3):
                assert closed[i][j] >= hom[i][j] or i == j
