import random
from fractions import Fraction

import pytest

from tnormcat import (
    BudgetError,
    RCat,
    RFunctor,
    enumerate_functors,
    exponential,
    interval_collapse,
    minimum,
    product,
    terminal,
    unit_interval_category,
    validate,
)
from tnormcat.jsonio import functor_to_list, power_to_dict

from conftest import EIGHT_GRID, make_random_category
from oracles import power_hom_bruteforce

F = Fraction


class TestExponential:
    def test_base_terminal_reduces_to_fiber(self, all_families):
        fiber = RCat(("a", "b"), ((1, F(1, 3)), (F(1, 5), 1)))
        for t in all_families.values():
            power = exponential(t, terminal(), fiber)
            assert len(power) == len(fiber)
            for i, f in enumerate(power.functors):
                for j, g in enumerate(power.functors):
                    assert power.hom[i][j] == fiber.hom_of(f("*"), g("*"))

    def test_empty_base_has_one_map_and_empty_fiber_none(self, all_families):
        empty = RCat((), ())
        one = RCat(("a",), ((1,),))
        for t in all_families.values():
            for fiber in (empty, one):
                power = exponential(t, empty, fiber)
                assert power.labels == ((),) and power.hom == ((1,),)
            power = exponential(t, one, empty)
            assert power.labels == () and power.hom == ()

    def test_diagonal_is_one(self, two_chain):
        t = minimum()
        power = exponential(t, two_chain, two_chain)
        for i in range(len(power)):
            assert power.hom[i][i] == 1

    def test_power_validates_example(self, two_chain):
        t = interval_collapse([(F(1, 4), F(1, 2))])
        fiber = unit_interval_category(t, [F(0), F(1, 4), F(1, 2), F(1)])
        power = exponential(t, two_chain, fiber)
        assert validate(power.as_rcat(), t) is None

    def test_defining_property_pointwise(self, two_chain):
        t = minimum()
        fiber = unit_interval_category(t, [F(0), F(1, 2), F(1)])
        power = exponential(t, two_chain, fiber)
        for i, f in enumerate(power.functors):
            for j, g in enumerate(power.functors):
                d = power.hom[i][j]
                for x in two_chain.elements:
                    for y in two_chain.elements:
                        assert min(d, two_chain.hom_of(x, y)) <= fiber.hom_of(f(x), g(y))

    def test_matches_bruteforce_oracle(self, all_families):
        rng = random.Random(11)
        for _ in range(10):
            base = make_random_category(rng, 3, EIGHT_GRID)
            fiber = make_random_category(rng, 3, EIGHT_GRID)
            for t in all_families.values():
                power = exponential(t, base, fiber)
                for i in range(len(power)):
                    for j in range(len(power)):
                        oracle = power_hom_bruteforce(
                            base, fiber,
                            power.functors[i].mapping,
                            power.functors[j].mapping,
                        )
                        assert power.hom[i][j] == oracle

    def test_budget_error_names_required_count(self, two_chain):
        fiber = make_random_category(random.Random(0), 4, EIGHT_GRID)
        big = RCat(tuple(f"n{i}" for i in range(12)),
                   tuple(tuple(1 if i == j else 0 for j in range(12)) for i in range(12)))
        with pytest.raises(BudgetError) as err:
            exponential(minimum(), big, RCat(("a", "b", "c"),
                        ((1, 0, 0), (0, 1, 0), (0, 0, 1))), budget=1000)
        assert err.value.required == 3**12
        assert str(err.value) == "map enumeration needs 531441 candidates but the budget is 1000"

    def test_determinism(self, two_chain):
        t = minimum()
        p1 = exponential(t, two_chain, two_chain)
        p2 = exponential(t, two_chain, two_chain)
        assert p1.labels == p2.labels and p1.hom == p2.hom

    def test_enumerate_functors_filters(self, two_chain):
        dst = RCat(("c", "d"), ((1, F(1, 4)), (0, 1)))
        # x -> c, y -> d would need hom(x,y)=1/2 <= hom(c,d)=1/4: rejected
        found = enumerate_functors(two_chain, dst)
        assert ("c", "d") not in found
        assert ("c", "c") in found and ("d", "d") in found


class TestPowerRepresentation:
    """A power holds its functors as label tuples and builds the
    ``RFunctor`` records only on request."""

    def test_exponential_builds_no_functor_records(self, two_chain, monkeypatch):
        built = []
        post_init = RFunctor.__post_init__

        def counting(self):
            built.append(self.mapping)
            post_init(self)

        monkeypatch.setattr(RFunctor, "__post_init__", counting)
        power = exponential(minimum(), two_chain, two_chain)
        assert built == [] and len(power) == 3
        assert [f.mapping for f in power.functors] == list(power.labels)
        assert len(built) == len(power)

    def test_exponential_hashes_no_fraction(self, all_families, two_chain, monkeypatch):
        # the hom values are ranked on integer pairs (``_sorted_grid``)
        fiber = RCat(("a", "b", "c"), ((1, F(1, 3), F(1, 5)), (0, 1, F(1, 5)), (0, 0, 1)))
        expected = {name: exponential(t, two_chain, fiber)
                    for name, t in all_families.items()}

        def no_hash(self):
            raise AssertionError(f"hashed the Fraction {self}")

        monkeypatch.setattr(Fraction, "__hash__", no_hash)
        powers = {name: exponential(t, two_chain, fiber) for name, t in all_families.items()}
        monkeypatch.undo()
        assert powers == expected

    def test_functors_rcat_and_json_read_the_labels(self, all_families, two_chain):
        rng = random.Random(34)
        pairs = [(make_random_category(rng, 3, EIGHT_GRID),
                  make_random_category(rng, 3, EIGHT_GRID)) for _ in range(8)]
        pairs += [(RCat((), ()), two_chain), (product(two_chain, terminal()), two_chain),
                  (two_chain, product(two_chain, two_chain))]
        for t in all_families.values():
            for base, fiber in pairs:
                power = exponential(t, base, fiber)
                assert power.functors == tuple(RFunctor(base, fiber, m) for m in power.labels)
                assert power.as_rcat() == RCat(power.labels, power.hom)
                assert (power_to_dict(power)["functors"]
                        == [functor_to_list(f) for f in power.functors])

    def test_hom_is_the_bruteforce_sup_read_from_the_ranks(self, all_families, two_chain):
        rng = random.Random(38)
        pairs = [(make_random_category(rng, 3, EIGHT_GRID),
                  make_random_category(rng, 3, EIGHT_GRID)) for _ in range(8)]
        pairs += [(RCat((), ()), two_chain), (RCat((), ()), RCat((), ()))]
        for t in all_families.values():
            for base, fiber in pairs:
                power = exponential(t, base, fiber)
                hom_values = {v for cat in (base, fiber) for row in cat.hom for v in row}
                assert list(power.values) == sorted(hom_values | {F(1)})
                assert power.hom == tuple(
                    tuple(power_hom_bruteforce(base, fiber, f, g) for g in power.labels)
                    for f in power.labels)
                assert all(type(v) is Fraction for row in power.hom for v in row)

    def test_power_to_dict_formats_each_value_once(self, all_families, monkeypatch):
        rng = random.Random(39)
        to_text = Fraction.__str__
        for t in all_families.values():
            base = make_random_category(rng, 3, EIGHT_GRID)
            fiber = make_random_category(rng, 3, EIGHT_GRID)
            power = exponential(t, base, fiber)
            expected = [[str(v) for v in row] for row in power.hom]
            calls = []
            monkeypatch.setattr(Fraction, "__str__",
                                lambda self: calls.append(self) or to_text(self))
            data = power_to_dict(power)
            monkeypatch.undo()
            assert len(calls) == len(power.values)
            assert data["d"] == expected and set(data) == {"functors", "d"}
