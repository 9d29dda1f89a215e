import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnormcat import (
    InputError,
    PreconditionError,
    RCat,
    RFunctor,
    TailSeq,
    canonical_grid,
    check_c1,
    check_power_completeness,
    check_product_bilimit,
    check_yoneda_continuity,
    find_bilimit,
    find_yoneda_limit,
    interval_collapse,
    is_cauchy,
    is_cauchy_complete,
    is_forward_cauchy,
    lukasiewicz,
    minimum,
    tail_value,
    terminal,
    unit_interval_category,
)
from tnormcat import categories, completeness, tnorms
from tnormcat._records import replace
from tnormcat.completeness import FROM_SEQ, TO_SEQ

from conftest import EIGHT_GRID, make_random_category, tail_seqs
from oracles import (
    enumerate_cycles,
    keeps_category_laws,
    min_transitive_closure,
    pair_sequences,
    tail_value_bruteforce,
    yoneda_continuity_reference,
)
from replay import keeps_hom

F = Fraction


@pytest.fixture
def iso_pair_cat():
    """a and b are isomorphic (mutual hom 1); x sits above both at 1/2."""
    return RCat(
        ("a", "b", "x"),
        ((1, 1, F(1, 2)), (1, 1, F(1, 2)), (0, 0, 1)),
    )


class TestTailValue:
    def test_constant_sequence(self, iso_pair_cat):
        seq = TailSeq(iso_pair_cat, (), ("a",))
        assert tail_value(seq, "x", FROM_SEQ) == iso_pair_cat.hom_of("a", "x")
        assert tail_value(seq, "x", TO_SEQ) == iso_pair_cat.hom_of("x", "a")

    def test_cycle_minimum(self):
        cat = RCat(
            ("a", "b", "x"),
            ((1, 1, F(1, 2)), (1, 1, F(1, 2)), (0, 0, 1)),
        )
        # raise hom(b,x) while keeping validity: b,a isomorphic forces equality,
        # so build a fresh cat where a and b are not isomorphic instead
        cat = RCat(
            ("a", "b", "x"),
            ((1, F(1, 4), F(1, 2)), (1, 1, F(3, 4)), (0, 0, 1)),
        )
        seq = TailSeq(cat, (), ("a", "b"))
        assert tail_value(seq, "x", FROM_SEQ) == F(1, 2)
        assert tail_value(seq, "x", FROM_SEQ) == tail_value_bruteforce(seq, "x", FROM_SEQ)

    def test_prefix_never_matters(self, iso_pair_cat):
        bare = TailSeq(iso_pair_cat, (), ("a",))
        padded = TailSeq(iso_pair_cat, ("x", "x", "b"), ("a",))
        for x in iso_pair_cat.elements:
            for direction in (FROM_SEQ, TO_SEQ):
                assert tail_value(bare, x, direction) == tail_value(padded, x, direction)

    def test_matches_bruteforce_random(self):
        rng = random.Random(23)
        for _ in range(50):
            cat = make_random_category(rng, 4, EIGHT_GRID)
            prefix = tuple(rng.choice(cat.elements)
                           for _ in range(rng.randint(0, 2)))
            cycle = tuple(rng.choice(cat.elements)
                          for _ in range(rng.randint(1, 3)))
            seq = TailSeq(cat, prefix, cycle)
            for x in cat.elements:
                for direction in (FROM_SEQ, TO_SEQ):
                    v3 = tail_value_bruteforce(seq, x, direction, cycles=3)
                    v6 = tail_value_bruteforce(seq, x, direction, cycles=6)
                    assert v3 == v6 == tail_value(seq, x, direction)

    def test_rejects_foreign_elements(self, iso_pair_cat):
        with pytest.raises(InputError):
            TailSeq(iso_pair_cat, (), ("nope",))

    def test_rejects_an_empty_cycle(self, iso_pair_cat):
        with pytest.raises(InputError, match="cycle must be nonempty"):
            TailSeq(iso_pair_cat, ("a",), ())

    def test_rejects_an_unknown_direction(self, iso_pair_cat):
        seq = TailSeq(iso_pair_cat, (), ("a",))
        with pytest.raises(InputError, match="unknown direction 'sideways'"):
            tail_value(seq, "x", "sideways")


class TestCauchyConditions:
    def test_constant_is_cauchy(self, iso_pair_cat):
        assert is_cauchy(TailSeq(iso_pair_cat, (), ("a",))) is None

    def test_iso_cycle_is_cauchy(self, iso_pair_cat):
        assert is_cauchy(TailSeq(iso_pair_cat, (), ("a", "b"))) is None

    def test_one_sided_cycle_fails_with_witness(self):
        cat = RCat(("a", "b"), ((1, 1), (F(1, 2), 1)))
        w = is_cauchy(TailSeq(cat, (), ("a", "b")))
        assert w is not None and w.values == ("b", "a") and w.lhs == F(1, 2)

    @settings(max_examples=100, deadline=None)
    @given(seq=tail_seqs())
    def test_forward_cauchy_coincides(self, seq):
        # the same witness, under its own note
        w = is_cauchy(seq)
        assert is_forward_cauchy(seq) == (w and replace(w, note="forward-cauchy"))

    def test_forward_witness_reachable_across_periods(self):
        cat = RCat(("a", "b"), ((1, 1), (F(1, 2), 1)))
        w = is_forward_cauchy(TailSeq(cat, (), ("a", "b")))
        assert w is not None and w.values == ("b", "a")

    def test_increasing_prefix_constant_tail(self, iso_pair_cat):
        seq = TailSeq(iso_pair_cat, ("x", "b"), ("a",))
        assert is_forward_cauchy(seq) is None


class TestBilimit:
    def test_constant_sequence(self, iso_pair_cat):
        v = find_bilimit(TailSeq(iso_pair_cat, (), ("a",)))
        assert v.kind == "bilimit" and v.witness == "a"
        assert len(v.certificate) == len(iso_pair_cat.elements)

    def test_first_witness_in_element_order(self, iso_pair_cat):
        v = find_bilimit(TailSeq(iso_pair_cat, (), ("b",)))
        # a and b are isomorphic; a comes first in the carrier order
        assert v.witness == "a"
        assert iso_pair_cat.hom_of("a", "b") == 1 == iso_pair_cat.hom_of("b", "a")

    def test_non_cauchy_has_none(self):
        cat = RCat(("a", "b"), ((1, 0), (0, 1)))
        seq = TailSeq(cat, (), ("a", "b"))
        assert is_cauchy(seq) is not None
        assert find_bilimit(seq).kind == "none"

    def test_non_category_carrier_is_a_precondition_error(self):
        # hom(y,x) = 1 and hom(x,z) = 1/2 but hom(y,z) = 0: no t-norm makes
        # this transitive, so the certificate of the bilimit x fails at z
        cat = RCat(("x", "y", "z"), ((1, 1, F(1, 2)), (1, 1, 0), (0, 0, 1)))
        with pytest.raises(PreconditionError, match=r"at \('y', 'x', 'z'\): transitivity"):
            find_bilimit(TailSeq(cat, (), ("y",)))

    def test_bilimit_implies_cauchy(self):
        rng = random.Random(31)
        for _ in range(40):
            cat = make_random_category(rng, 4, EIGHT_GRID)
            cycle = tuple(rng.choice(cat.elements)
                          for _ in range(rng.randint(1, 3)))
            seq = TailSeq(cat, (), cycle)
            if find_bilimit(seq).kind == "bilimit":
                assert is_cauchy(seq) is None


class TestCategoryLaws:
    def test_non_reflexive_carrier_is_a_precondition_error(self):
        cat = RCat(("x",), ((F(1, 2),),))
        seq = TailSeq(cat, (), ("x",))
        for check in (find_bilimit, find_yoneda_limit):
            with pytest.raises(PreconditionError,
                               match=r"^carrier is not a valid category at \('x',\): reflexivity$"):
                check(seq)

    def test_reflexivity_is_checked_before_transitivity(self):
        # (x, y, z) breaks transitivity with a factor 1, and hom(z, z) = 1/2
        cat = RCat(("z", "y", "x"), ((F(1, 2), 0, 0), (0, 1, 1), (F(1, 2), 1, 1)))
        with pytest.raises(PreconditionError, match=r"at \('z',\): reflexivity"):
            find_yoneda_limit(TailSeq(cat, (), ("x",)))


class TestYonedaLimit:
    def test_constant_sequence(self, iso_pair_cat):
        v = find_yoneda_limit(TailSeq(iso_pair_cat, (), ("a",)))
        assert v.kind == "yoneda-limit" and v.witness == "a"
        for row in v.certificate:
            assert row.hom_from_witness == row.tail_from_seq

    def test_precondition_error_when_not_forward_cauchy(self):
        cat = RCat(("a", "b"), ((1, 0), (0, 1)))
        with pytest.raises(PreconditionError):
            find_yoneda_limit(TailSeq(cat, (), ("a", "b")))

    def test_the_laws_are_checked_before_the_cauchy_condition(self):
        # both sequences are not Cauchy; only the first carrier breaks a law
        lawful = RCat(("a", "b"), ((1, 0), (0, 1)))
        unlawful = RCat(("a", "b"), ((1, 0), (0, F(1, 2))))
        for cat, message in (
            (unlawful, "carrier is not a valid category at ('b',): reflexivity"),
            (lawful, "sequence is not forward Cauchy: hom('a', 'b') = 0"),
        ):
            with pytest.raises(PreconditionError) as exc:
                find_yoneda_limit(TailSeq(cat, (), ("a", "b")))
            assert str(exc.value) == message

    def test_agrees_with_bilimit_on_cauchy_cycles(self):
        rng = random.Random(13)
        for _ in range(40):
            cat = make_random_category(rng, 4, EIGHT_GRID)
            cycle = tuple(rng.choice(cat.elements)
                          for _ in range(rng.randint(1, 3)))
            seq = TailSeq(cat, (), cycle)
            if is_cauchy(seq) is not None:
                continue
            bi = find_bilimit(seq)
            yo = find_yoneda_limit(seq)
            assert bi.kind == "bilimit" and yo.kind == "yoneda-limit"
            assert cat.hom_of(bi.witness, yo.witness) == 1
            assert cat.hom_of(yo.witness, bi.witness) == 1


class TestCauchyComplete:
    def test_every_finite_category_passes(self):
        rng = random.Random(3)
        for _ in range(20):
            cat = make_random_category(rng, 4, EIGHT_GRID)
            assert is_cauchy_complete(cat) is None

    def test_preorder_category(self):
        # hom values in {0,1}: Cauchy cycles stay inside isomorphism clusters
        cat = RCat(
            ("a", "b", "c"),
            ((1, 1, 0), (1, 1, 0), (1, 1, 1)),
        )
        assert is_cauchy_complete(cat) is None
        for cycle in enumerate_cycles(cat, 3):
            seq = TailSeq(cat, (), cycle)
            if is_cauchy(seq) is None:
                assert set(cycle) <= {"a", "b"} or set(cycle) == {"c"}

    def test_budget_one_constant_sequences(self, iso_pair_cat):
        assert is_cauchy_complete(iso_pair_cat) is None

    def test_runs_find_bilimit_once_per_element(self, monkeypatch):
        calls = []
        real = completeness.find_bilimit
        monkeypatch.setattr(completeness, "find_bilimit",
                            lambda seq: calls.append(seq.cycle) or real(seq))
        rng = random.Random(5)
        for cat in [make_random_category(rng, 5, EIGHT_GRID) for _ in range(10)]:
            calls.clear()
            assert is_cauchy_complete(cat) is None
            assert calls == [(cat.elements[0],)]
        # every cycle is Cauchy here: a sweep of every cycle would visit
        # 6 + 6**2 + ... + 6**8 = 2,015,538 of them
        cat = RCat(tuple("abcdef"), ((1,) * 6,) * 6)
        calls.clear()
        assert is_cauchy_complete(cat) is None
        assert calls == [("a",)]
        # the first element with hom 1 to itself
        cat = RCat(("x", "y"), ((F(1, 2), 0), (0, 1)))
        calls.clear()
        with pytest.raises(PreconditionError, match=r"\('x',\): reflexivity"):
            is_cauchy_complete(cat)
        assert calls == [("y",)]


class TestProductBilimit:
    def test_both_constant(self, iso_pair_cat):
        s1 = TailSeq(iso_pair_cat, (), ("a",))
        s2 = TailSeq(iso_pair_cat, (), ("b",))
        assert check_product_bilimit(s1, s2) is None

    def test_lcm_pairing(self, iso_pair_cat):
        other = RCat(("p", "q"), ((1, 1), (1, 1)))
        s1 = TailSeq(iso_pair_cat, (), ("a", "b"))
        s2 = TailSeq(other, ("q",), ("p", "q", "p"))
        paired = pair_sequences(s1, s2)
        assert len(paired.cycle) == 6
        assert check_product_bilimit(s1, s2) is None

    def test_pairing_with_terminal_constant(self, iso_pair_cat):
        s1 = TailSeq(iso_pair_cat, (), ("a", "b"))
        s2 = TailSeq(terminal(), (), ("*",))
        assert check_product_bilimit(s1, s2) is None
        paired = pair_sequences(s1, s2)
        v = find_bilimit(paired)
        assert v.witness == ("a", "*")

    def test_builds_no_product(self, iso_pair_cat, monkeypatch):
        def unused(*args):
            raise AssertionError("the product pairing needs no construction")

        monkeypatch.setattr(categories, "product", unused)
        other = RCat(("p", "q"), ((1, 1), (1, 1)))
        s1 = TailSeq(iso_pair_cat, ("x",), ("a", "b"))
        s2 = TailSeq(other, ("q",), ("p", "q", "p"))
        assert check_product_bilimit(s1, s2) is None

    def test_precondition_errors(self, iso_pair_cat):
        bad = TailSeq(RCat(("a", "b"), ((1, 0), (0, 1))), (), ("a", "b"))
        good = TailSeq(iso_pair_cat, (), ("a",))
        with pytest.raises(PreconditionError):
            check_product_bilimit(bad, good)


class TestPowerCompleteness:
    def test_terminal_base_reduces_to_fiber(self, iso_pair_cat):
        t = minimum()
        assert check_power_completeness(t, terminal(), iso_pair_cat) is None

    def test_interval_collapse_small(self, two_chain):
        t = interval_collapse([(F(1, 4), F(1, 2))])
        fiber = unit_interval_category(t, [F(0), F(1, 4), F(1, 2), F(1)])
        assert check_power_completeness(t, two_chain, fiber) is None

    def test_rejects_c1_failing_tnorm(self, two_chain):
        with pytest.raises(PreconditionError):
            check_power_completeness(lukasiewicz(), two_chain, two_chain)

    @pytest.mark.parametrize("family", ["minimum", "interval-collapse"])
    def test_c1_holding_norm_runs_no_c1_sweep(self, all_families, family, two_chain,
                                              monkeypatch):
        def sweep(*args):
            raise AssertionError("check_c1 ran")

        monkeypatch.setattr(tnorms, "_c1_sweep", sweep)
        assert check_power_completeness(all_families[family], two_chain, two_chain) is None

    @pytest.mark.parametrize("family, values", [
        ("product", (F(1, 20), F(1, 20), F(1, 40))),
        ("lukasiewicz", (F(1, 20), F(39, 40), F(1, 40))),
        ("nilpotent-minimum", (F(1, 20), F(39, 40), F(1, 40))),
    ])
    def test_precondition_names_the_canonical_grid_witness(self, all_families, family,
                                                           values, two_chain):
        t = all_families[family]
        assert check_c1(t, canonical_grid(t)).witness.values == values
        with pytest.raises(PreconditionError) as exc:
            check_power_completeness(t, two_chain, two_chain)
        assert str(exc.value) == f"t-norm {family} fails C1 at ({', '.join(map(str, values))})"


class TestYonedaContinuity:
    def test_identity_functor(self, iso_pair_cat):
        seqs = [
            TailSeq(iso_pair_cat, (), ("a", "b")),
            TailSeq(iso_pair_cat, ("x",), ("a",)),
        ]
        ident = RFunctor(iso_pair_cat, iso_pair_cat, iso_pair_cat.elements)
        assert check_yoneda_continuity(ident, seqs) is None

    def test_functors_preserve_limits(self, iso_pair_cat, two_chain):
        from tnormcat import enumerate_functors

        seqs = []
        for cycle in enumerate_cycles(iso_pair_cat, 2):
            seq = TailSeq(iso_pair_cat, (), cycle)
            if is_forward_cauchy(seq) is None:
                seqs.append(seq)
        assert seqs
        for mapping in enumerate_functors(iso_pair_cat, two_chain):
            f = RFunctor(iso_pair_cat, two_chain, mapping)
            assert check_yoneda_continuity(f, seqs) is None

    def test_carrier_must_be_the_source(self):
        # same labels as the source, but every hom is 1
        src = RCat(("a", "b"), ((1, 0), (0, 1)))
        other = RCat(("a", "b"), ((1, 1), (1, 1)))
        ident = RFunctor(src, src, ("a", "b"))
        with pytest.raises(PreconditionError, match="sequence 0 does not live in the source"):
            check_yoneda_continuity(ident, [TailSeq(other, (), ("a", "b"))])

    def test_precondition_raised_per_sequence(self, iso_pair_cat):
        bad_cat = RCat(("a", "b"), ((1, 0), (0, 1)))
        bad = TailSeq(bad_cat, (), ("a", "b"))
        ident = RFunctor(bad_cat, bad_cat, ("a", "b"))
        with pytest.raises(PreconditionError):
            check_yoneda_continuity(ident, [bad])

    def test_map_that_is_no_functor_raises_precondition_error(self):
        # hom(a, b) = 1 in the source, hom(x, y) = 1/2 in the target: the
        # image of the Cauchy cycle (a, b) is not Cauchy
        src = RCat(("a", "b"), ((1, 1), (1, 1)))
        dst = RCat(("x", "y"), ((1, F(1, 2)), (0, 1)))
        f = RFunctor(src, dst, ("x", "y"))
        with pytest.raises(PreconditionError,
                           match=r"^map is not a functor at \('a', 'b'\): hom-nonexpansion$"):
            check_yoneda_continuity(f, [TailSeq(src, (), ("a", "b"))])

    def test_carrier_breaking_the_laws_raises_precondition_error(self, iso_pair_cat):
        lawless = RCat(("x", "y", "z"), ((1, 1, F(1, 2)), (1, 1, 0), (0, 0, 1)))
        for f in (RFunctor(iso_pair_cat, lawless, ("x", "x", "x")),
                  RFunctor(lawless, iso_pair_cat, ("a", "a", "a"))):
            with pytest.raises(PreconditionError, match="transitivity"):
                check_yoneda_continuity(f, [])


# hom values of the continuity comparison, and of the diagonal: mostly 1,
# so that carriers often keep the laws without being min-transitive
LAW_VALUES = (F(0), F(1, 2), F(3, 4), F(1))
DIAGONAL = (F(1), F(1), F(1), F(1), F(1, 2))


def _law_carrier(rng: random.Random) -> RCat:
    """Sizes 1-4; half the time min-closed, else as drawn."""
    n = rng.randint(1, 4)
    hom = [[rng.choice(DIAGONAL if i == j else LAW_VALUES) for j in range(n)]
           for i in range(n)]
    if rng.random() < 0.5:
        hom = min_transitive_closure(hom)
    return RCat(tuple(f"v{i}" for i in range(n)), hom)


def _continuity_outcome(rng: random.Random) -> str:
    """Compare ``check_yoneda_continuity`` with the reference on one case."""
    src = _law_carrier(rng)
    dst = _law_carrier(rng) if rng.random() < 0.8 else src
    maps = [tuple(m) for m in itertools.product(dst.elements, repeat=len(src))]
    functors = [m for m in maps if keeps_hom(src.hom, dst.hom, list(map(dst.index, m)))]
    mapping = rng.choice(functors if functors and rng.random() < 0.7 else maps)
    f = RFunctor(src, dst, mapping)
    candidates = []
    for cycle in enumerate_cycles(src, 2):
        if all(src.hom_of(c, c2) == 1 for c in cycle for c2 in cycle):
            candidates.append(TailSeq(src, (), cycle))
            candidates.append(TailSeq(src, (rng.choice(src.elements),), cycle))
    seqs = rng.sample(candidates, min(len(candidates), rng.randint(0, 4)))
    if keeps_category_laws(src) and keeps_category_laws(dst) and mapping in functors:
        assert check_yoneda_continuity(f, seqs) is None
        assert yoneda_continuity_reference(f, seqs) is None
        return "pass"
    with pytest.raises(PreconditionError):
        check_yoneda_continuity(f, seqs)
    return "precondition"


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_yoneda_continuity_matches_building_image_limits(rng):
    _continuity_outcome(rng)


def test_continuity_comparison_sees_passes_and_precondition_errors():
    rng = random.Random(17)
    outcomes = [_continuity_outcome(rng) for _ in range(300)]
    assert {"pass", "precondition"} <= set(outcomes)
