import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnormcat import (
    InputError,
    TNorm,
    Witness,
    apply,
    breakpoints,
    canonical_grid,
    check_c1,
    check_c2,
    extract_intervals,
    idempotents,
    interval_collapse,
    lukasiewicz,
    minimum,
    nilpotent_minimum,
    product_tnorm,
    residuum,
    verify_tnorm_axioms,
)
from tnormcat import cli, jsonio, tnorms

from conftest import UNITS as units, broken_ands, collapse_norms, install_and, real_and
from oracles import (
    axioms_bruteforce,
    c1_rank_sweep_reference,
    c1_sides,
    c1_sweep,
    c2_holds,
    c2_sweep,
    canonical_grid_reference,
    closed_form_apply,
    residuum_bruteforce,
    sorted_grid_reference,
)
from replay import left_limit

F = Fraction

family_strategy = st.sampled_from(
    [
        minimum(),
        product_tnorm(),
        lukasiewicz(),
        nilpotent_minimum(),
        interval_collapse([(F(1, 5), F(1, 2))]),
        interval_collapse([(F(0), F(1, 4)), (F(1, 2), F(7, 8))]),
    ]
)


class TestApply:
    def test_collapse_inside_interval(self):
        t = interval_collapse([(F(1, 5), F(1, 2))])
        assert apply(t, F(3, 10), F(2, 5)) == F(1, 5)

    @pytest.mark.parametrize("p", [F(0), F(1, 3), F(2, 5), F(1)])
    def test_unit_law(self, all_families, p):
        for t in all_families.values():
            assert apply(t, F(1), p) == p

    @given(t=family_strategy, p=units, q=units)
    @example(t=product_tnorm(), p=F(0), q=F(1))
    @example(t=lukasiewicz(), p=F(1), q=F(1))
    @example(t=minimum(), p=F(2, 5), q=F(2, 5))
    @example(t=nilpotent_minimum(), p=F(1, 2), q=F(1, 2))
    @example(t=nilpotent_minimum(), p=F(1, 3), q=F(2, 3))
    @example(t=lukasiewicz(), p=F(1, 3), q=F(2, 3))
    @example(t=interval_collapse([(F(1, 5), F(1, 2))]), p=F(3, 10), q=F(1, 2))
    @example(t=interval_collapse([(F(1, 5), F(1, 2))]), p=F(1, 2), q=F(1, 5))
    @example(t=interval_collapse([(F(0), F(1, 4)), (F(1, 2), F(7, 8))]), p=F(7, 8), q=F(3, 5))
    def test_matches_closed_form(self, t, p, q):
        value = apply(t, p, q)
        assert value == closed_form_apply(t, p, q)
        assert type(value) is Fraction

    @pytest.mark.parametrize("t", [
        minimum(), product_tnorm(), lukasiewicz(), nilpotent_minimum(),
        interval_collapse([(F(1, 5), F(1, 2))]),
    ], ids=lambda t: t.family)
    def test_value_is_a_fraction_for_int_arguments(self, t):
        # ints are accepted arguments; the value is a Fraction all the same,
        # also where the closed form returns an argument
        for p, q in itertools.product([0, 1, F(0), F(1, 3), F(1, 2), F(1)], repeat=2):
            value = apply(t, p, q)
            assert type(value) is Fraction
            assert value == closed_form_apply(t, F(p), F(q))

    def test_lukasiewicz_arithmetic(self):
        assert apply(lukasiewicz(), F(9, 10), F(9, 10)) == F(8, 10)
        # oracle: direct evaluation of max(p + q - 1, 0)
        assert max(F(9, 10) + F(9, 10) - 1, F(0)) == F(8, 10)

    @given(p=units, q=units)
    def test_interval_collapse_matches_definitional_oracle(self, p, q):
        intervals = ((F(1, 5), F(1, 2)), (F(3, 4), F(7, 8)))
        t = interval_collapse(intervals)
        assert apply(t, p, q) == closed_form_apply(t, p, q)

    def test_interval_collapse_oracle_on_all_grid_pairs(self):
        intervals = ((F(1, 5), F(1, 2)), (F(3, 4), F(7, 8)))
        t = interval_collapse(intervals)
        grid = canonical_grid(t)
        for p in grid:
            for q in grid:
                assert apply(t, p, q) == closed_form_apply(t, p, q)

    @given(t=family_strategy, p=units, q=units)
    def test_commutative_and_below_min(self, t, p, q):
        assert apply(t, p, q) == apply(t, q, p)
        assert apply(t, p, q) <= min(p, q)

    @given(t=family_strategy, p=units, q=units, u=units)
    @settings(max_examples=60)
    def test_associative(self, t, p, q, u):
        assert apply(t, apply(t, p, q), u) == apply(t, p, apply(t, q, u))


def returns_an_argument(t, p, q):
    """Whether the closed form of ``t`` gives min(p, q) at (p, q): minimum
    always, nilpotent minimum where p + q > 1, interval-collapse unless
    p and q lie in one interval."""
    if t.family == "minimum":
        return True
    if t.family == "nilpotent-minimum":
        return p + q > 1
    if t.family == "interval-collapse":
        return not any(a <= min(p, q) and max(p, q) <= b for a, b in t.intervals)
    return False


class TestAndCol:
    """``_and_col``, the one & kernel, on ``as_integer_ratio()`` pairs."""

    @given(t=st.one_of(family_strategy, collapse_norms()), p=units, q=units)
    @example(t=product_tnorm(), p=F(0), q=F(3, 4))
    @example(t=product_tnorm(), p=F(2, 3), q=F(3, 4))  # cancels across both ways
    @example(t=product_tnorm(), p=F(1), q=F(5, 7))
    @example(t=lukasiewicz(), p=F(1, 3), q=F(2, 3))  # p + q = 1
    @example(t=lukasiewicz(), p=F(5, 6), q=F(2, 3))  # 3/6 reduces to 1/2
    @example(t=nilpotent_minimum(), p=F(1, 3), q=F(2, 3))
    @example(t=nilpotent_minimum(), p=F(1, 2), q=F(1, 2))
    @example(t=minimum(), p=F(1), q=F(0))
    @example(t=interval_collapse([(F(1, 5), F(1, 2))]), p=F(1, 5), q=F(1, 2))
    @example(t=interval_collapse([(F(0), F(1, 4)), (F(1, 2), F(7, 8))]), p=F(1, 4), q=F(1, 2))
    def test_equals_closed_form_in_lowest_terms(self, t, p, q):
        # 0, 1 and the interval endpoints are breakpoints: one column per
        # right operand y over all of them and p, q
        points = sorted({p, q, *breakpoints(t)})
        keys = [x.as_integer_ratio() for x in points]
        for y, y_key in zip(points, keys):
            column = tnorms._and_col(t, keys, y_key)
            assert len(column) == len(points)
            for x, x_key, value in zip(points, keys, column):
                n, d = value
                # lowest terms, positive denominator: equal pairs are equal values
                assert math.gcd(n, d) == 1 and d > 0
                assert F(n, d) == closed_form_apply(t, x, y)
                if returns_an_argument(t, x, y):
                    # the argument's own pair object: no new pair is built
                    assert value is (x_key if x <= y else y_key)

    @pytest.mark.parametrize("t", [
        minimum(), product_tnorm(), lukasiewicz(), nilpotent_minimum(),
        interval_collapse([(F(1, 5), F(1, 2))]),
    ], ids=lambda t: t.family)
    def test_empty_column(self, t):
        for q in (F(0), F(3, 10), F(1)):
            assert tnorms._and_col(t, [], q.as_integer_ratio()) == []


class TestResiduum:
    @given(t=family_strategy, p=units, q=units)
    def test_trivial_when_p_below_q(self, t, p, q):
        lo, hi = min(p, q), max(p, q)
        assert residuum(t, lo, hi) == 1

    def test_minimum_example(self):
        got = residuum(minimum(), F(7, 10), F(2, 5))
        assert got == F(2, 5)
        assert got == residuum_bruteforce(minimum(), F(7, 10), F(2, 5))

    def test_interval_collapse_example(self):
        t = interval_collapse([(F(1, 5), F(1, 2))])
        got = residuum(t, F(2, 5), F(1, 5))
        assert got == F(1, 2)
        assert got == residuum_bruteforce(t, F(2, 5), F(1, 5))

    @given(t=family_strategy, p=units, q=units)
    @settings(max_examples=60)
    def test_matches_bruteforce(self, t, p, q):
        assert residuum(t, p, q) == residuum_bruteforce(t, p, q)

    @given(t=family_strategy, p=units, q=units, z=units)
    def test_adjunction(self, t, p, q, z):
        r = residuum(t, p, q)
        assert (apply(t, p, z) <= q) == (z <= r)
        assert apply(t, p, r) <= q  # the supremum is attained


class TestIdempotents:
    def test_minimum_everything(self):
        s = idempotents(minimum())
        assert s.contains(F(0)) and s.contains(F(1, 3)) and s.contains(F(1))

    def test_lukasiewicz_endpoints_only(self):
        s = idempotents(lukasiewicz())
        # oracle: solve max(2p - 1, 0) = p exactly -> p = 0 or p = 1
        assert s.contains(F(0)) and s.contains(F(1))
        assert not s.contains(F(1, 2)) and not s.contains(F(9, 10))

    def test_interval_collapse_gaps(self):
        t = interval_collapse([(F(1, 5), F(1, 2))])
        s = idempotents(t)
        assert s.contains(F(1, 5))  # left endpoint collapses to itself
        assert not s.contains(F(3, 10)) and not s.contains(F(1, 2))
        assert s.contains(F(51, 100)) and s.contains(F(1))

    @given(t=family_strategy, p=units)
    def test_membership_matches_direct_evaluation(self, t, p):
        assert idempotents(t).contains(p) == (apply(t, p, p) == p)

    @pytest.mark.parametrize("t, described, rendered", [
        (minimum(), "minimum", "[0,1]"),
        (product_tnorm(), "product", "{0} ∪ {1}"),
        (lukasiewicz(), "lukasiewicz", "{0} ∪ {1}"),
        (nilpotent_minimum(), "nilpotent-minimum", "{0} ∪ (1/2,1]"),
        (interval_collapse([(F(1, 5), F(1, 2))]),
         "interval-collapse{[1/5,1/2]}", "[0,1/5] ∪ (1/2,1]"),
        (interval_collapse([(F(0), F(1, 8)), (F(1, 4), F(1, 2)), (F(3, 4), F(9, 10))]),
         "interval-collapse{[0,1/8], [1/4,1/2], [3/4,9/10]}",
         "{0} ∪ (1/8,1/4] ∪ (1/2,3/4] ∪ (9/10,1]"),
        (interval_collapse([(F(1, 3), F(1, 3))]), "interval-collapse{}", "[0,1]"),
    ], ids=["minimum", "product", "lukasiewicz", "nilpotent-minimum", "collapse", "collapse3",
            "collapse-degenerate"])
    def test_describe_and_rendering_are_pinned(self, t, described, rendered):
        # the demos print both strings
        assert t.describe() == described
        assert str(idempotents(t)) == rendered

    @staticmethod
    def _assert_right_ends_idempotent(t):
        for piece in idempotents(t).pieces:
            assert piece.contains(piece.hi)
            assert closed_form_apply(t, piece.hi, piece.hi) == piece.hi

    def test_right_end_of_every_piece_is_idempotent(self, all_families):
        for t in all_families.values():
            self._assert_right_ends_idempotent(t)

    @given(t=collapse_norms())
    def test_right_end_of_every_collapse_piece_is_idempotent(self, t):
        self._assert_right_ends_idempotent(t)


class TestConditions:
    def test_c1_minimum_passes(self, all_families):
        grid = canonical_grid(all_families["minimum"])
        report = check_c1(all_families["minimum"], grid)
        assert report.verdict and report.certified

    def test_c1_lukasiewicz_witness(self):
        report = check_c1(lukasiewicz(), [F(1, 2), F(9, 10)])
        assert not report.verdict
        assert report.witness.values == (F(9, 10), F(9, 10), F(1, 2))
        assert (report.witness.lhs, report.witness.rhs) == (F(1, 2), F(2, 5))
        assert c1_sides(lukasiewicz(), *report.witness.values) == (F(1, 2), F(2, 5))

    def test_c1_product_witness(self):
        report = check_c1(product_tnorm(), [F(1, 2), F(9, 10)])
        assert not report.verdict
        assert report.witness.values == (F(9, 10), F(9, 10), F(1, 2))
        assert (report.witness.lhs, report.witness.rhs) == (F(1, 2), F(9, 20))

    def test_c2_minimum_passes(self):
        t = minimum()
        assert check_c2(t, canonical_grid(t)).verdict

    def test_c2_nilpotent_minimum_witness(self):
        report = check_c2(nilpotent_minimum(), [F(3, 10), F(3, 5)])
        assert not report.verdict
        assert report.witness.values == (F(3, 5), F(3, 10))
        assert report.witness.lhs == F(0)
        assert not c2_holds(nilpotent_minimum(), F(3, 5), F(3, 10))

    def test_c2_interval_collapse_passes(self):
        t = interval_collapse([(F(1, 5), F(1, 2)), (F(3, 5), F(4, 5))])
        assert check_c2(t, canonical_grid(t)).verdict

    @pytest.mark.parametrize("family", ["minimum", "product", "lukasiewicz",
                                        "nilpotent-minimum", "interval-collapse"])
    def test_conditions_agree(self, all_families, family):
        t = all_families[family]
        grid = canonical_grid(t)
        c1 = check_c1(t, grid)
        c2 = check_c2(t, grid)
        extraction = extract_intervals(t)
        assert c1.verdict == c2.verdict == extraction.ok
        assert c1.verdict == tnorms._c1_holds_on_unit_interval(t)
        if not c1.verdict:
            # independent witnesses, each recomputable
            lhs, rhs = c1_sides(t, *c1.witness.values)
            assert (lhs, rhs) == (c1.witness.lhs, c1.witness.rhs) and lhs != rhs
            assert not c2_holds(t, *c2.witness.values)
            assert extraction.witness is not None

    @settings(max_examples=100, deadline=None)
    @given(t=family_strategy, grid=st.lists(units, min_size=1, max_size=6, unique=True))
    def test_c1_witness_is_first_failure_of_full_sweep(self, t, grid):
        first = None
        for p, q, u in itertools.product(sorted(grid), repeat=3):
            lhs, rhs = c1_sides(t, p, q, u)
            if lhs != rhs:
                first = ((p, q, u), lhs, rhs)
                break
        report = check_c1(t, grid)
        if first is None:
            assert report.verdict
        else:
            assert not report.verdict
            assert (report.witness.values, report.witness.lhs, report.witness.rhs) == first

    def test_c1_reads_the_left_factor_first(self, monkeypatch):
        # a non-commutative &: minimum, except 1/4 & 1/2 = 3/4 & 1/4 = 0; each
        # transposition of u & q or p & u moves the first failing triple.  Its
        # table is not symmetric, so the sweep also visits the pairs q < p,
        # where this first failing triple lies
        install_and(
            monkeypatch,
            lambda t, p, q: F(0) if (p, q) in ((F(1, 4), F(1, 2)), (F(3, 4), F(1, 4)))
            else real_and(t, p, q),
        )
        t, grid = minimum(), [F(1, 4), F(1, 2), F(3, 4)]
        table = tnorms._rank_products(t, grid)[1]
        assert table != [list(column) for column in zip(*table)]
        report = check_c1(t, grid)
        assert report == c1_sweep(t, grid)
        assert report.witness == Witness((F(3, 4), F(1, 2), F(1, 4)), F(1, 4), F(0))

    def test_c1_symmetric_table_fails_at_both_orders(self, monkeypatch):
        # a commutative &: minimum, except 1/2 & 3/4 = 3/4 & 1/2 = 1/8.  Its
        # table is symmetric, so the sweep visits only the pairs p <= q; C1
        # fails at (1/2, 3/4, 1/4) and at (3/4, 1/2, 1/4), and the first of
        # them is the witness
        broken = {(F(1, 2), F(3, 4)), (F(3, 4), F(1, 2))}
        install_and(
            monkeypatch,
            lambda t, p, q: F(1, 8) if (p, q) in broken else real_and(t, p, q),
        )
        t, grid = minimum(), [F(1, 4), F(1, 2), F(3, 4)]
        table = tnorms._rank_products(t, grid)[1]
        assert table == [list(column) for column in zip(*table)]
        assert c1_sides(t, F(1, 2), F(3, 4), F(1, 4)) == (F(1, 8), F(1, 4))
        assert c1_sides(t, F(3, 4), F(1, 2), F(1, 4)) == (F(1, 8), F(1, 4))
        report = check_c1(t, grid)
        assert report == c1_sweep(t, grid)
        assert report.witness == Witness((F(1, 2), F(3, 4), F(1, 4)), F(1, 8), F(1, 4))

    def test_c1_witness_is_the_smallest_failing_q_then_u_of_its_row(self):
        # the rank table of minimum on ranks 10, 20, ..., 60, where C1 holds,
        # with row 4 changed at q_3 and q_5: row 4 is the first to fail, at
        # (j=5, k=0) and at (j=3, k=2).  The row's flat lists run in (u, q)
        # order and first differ at (j=5, k=0), but the first failing triple
        # in (p, q, u) order is (p_4, q_3, u_2)
        g = [10, 20, 30, 40, 50, 60]
        table = [[min(a, b) for b in g] for a in g]
        table[4][3], table[4][5] = 25, 5
        keys = [(r, 60) for r in range(61)]
        pts = [F(r, 60) for r in g]
        row = table[4]
        failures = [(j, k) for k in range(4) for j in range(k + 1, 6)
                    if min(g[k], row[j]) != max(table[k][j], row[k])]
        assert failures == [(5, 0), (5, 1), (3, 2), (5, 2), (5, 3)]
        report = tnorms._c1_sweep(minimum(), pts, g, table, keys)
        assert report == c1_rank_sweep_reference(minimum(), pts, g, table, keys)
        assert report.witness == Witness((pts[4], pts[3], pts[2]), F(25, 60), F(30, 60))

    def test_idempotent_square_closure(self, all_families):
        for name in ("minimum", "interval-collapse"):
            t = all_families[name]
            for p in canonical_grid(t):
                pp = apply(t, p, p)
                assert apply(t, pp, pp) == pp
        t = product_tnorm()
        pp = apply(t, F(9, 10), F(9, 10))
        assert apply(t, pp, pp) != pp


class TestExtractIntervals:
    def test_interval_collapse_round_trip(self):
        intervals = ((F(1, 5), F(1, 2)),)
        t = interval_collapse(intervals)
        assert extract_intervals(t).intervals == intervals

    def test_round_trip_multiple(self):
        intervals = ((F(0), F(1, 8)), (F(1, 4), F(1, 2)), (F(3, 4), F(9, 10)))
        assert extract_intervals(interval_collapse(intervals)).intervals == intervals

    def test_minimum_is_empty_family(self):
        assert extract_intervals(minimum()).intervals == ()

    def test_lukasiewicz_returns_witness(self):
        extraction = extract_intervals(lukasiewicz())
        assert not extraction.ok
        p, u = extraction.witness.values
        assert not c2_holds(lukasiewicz(), p, u)

    @pytest.mark.parametrize("t", [product_tnorm(), lukasiewicz(), nilpotent_minimum()],
                             ids=["product", "lukasiewicz", "nilpotent"])
    def test_witness_is_first_c2_violation_on_canonical_grid(self, t, monkeypatch):
        # the pair is a constant; its sides take one evaluation of &
        expected = check_c2(t, canonical_grid(t)).witness
        calls = []
        install_and(monkeypatch, lambda t, p, q: calls.append(None) or real_and(t, p, q))
        assert extract_intervals(t).witness == expected
        assert len(calls) <= 1


class TestConstruction:
    def test_overlapping_intervals_rejected(self):
        with pytest.raises(InputError):
            interval_collapse([(F(1, 5), F(1, 2)), (F(2, 5), F(3, 5))])

    def test_touching_intervals_rejected(self):
        with pytest.raises(InputError):
            interval_collapse([(F(1, 5), F(1, 2)), (F(1, 2), F(3, 5))])

    def test_interval_must_be_a_pair(self):
        with pytest.raises(InputError, match="is not a pair"):
            interval_collapse([(F(1, 4),)])

    def test_right_endpoint_must_stay_below_one(self):
        with pytest.raises(InputError):
            interval_collapse([(F(1, 2), F(1))])

    def test_degenerate_intervals_are_noops(self):
        t = interval_collapse([(F(1, 4), F(1, 4)), (F(1, 2), F(3, 4))])
        assert t.intervals == ((F(1, 2), F(3, 4)),)
        assert t.dropped_intervals == ((F(1, 4), F(1, 4)),)
        assert apply(t, F(1, 4), F(1, 4)) == F(1, 4)

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            TNorm("hamacher")

    def test_intervals_only_for_interval_collapse(self):
        with pytest.raises(InputError):
            TNorm("minimum", ((F(0), F(1, 2)),))


class TestAxioms:
    @pytest.mark.parametrize("family", ["minimum", "product", "lukasiewicz",
                                        "nilpotent-minimum", "interval-collapse"])
    def test_all_families_pass(self, all_families, family):
        t = all_families[family]
        grid = canonical_grid(t, 12)
        report = verify_tnorm_axioms(t, grid)
        assert report.verdict, report.witness

    def test_minimum_associativity_small_grid(self):
        report = verify_tnorm_axioms(minimum(), [F(0), F(1, 2), F(1)])
        assert report.verdict

    def test_breakpoints(self):
        assert breakpoints(nilpotent_minimum()) == (F(0), F(1, 2), F(1))
        t = interval_collapse([(F(1, 4), F(1, 2))])
        assert breakpoints(t) == (F(0), F(1, 4), F(1, 2), F(1))

    def test_left_continuity_exact_near_a_kink(self):
        # p & 3/14 has a kink at p = 3/14, just below the breakpoint 2/9, so
        # extrapolating from samples below that kink misreads the limit
        t = interval_collapse([(F(2, 9), F(3, 10))])
        report = verify_tnorm_axioms(t, [F(0), F(3, 14), F(2, 9), F(3, 10), F(1)])
        assert report.verdict, report.witness
        assert report.notes == ("grid evidence; left continuity decided exactly at breakpoints",)

    @given(t=st.one_of(family_strategy, collapse_norms()), q=units)
    @example(t=minimum(), q=F(1, 3))
    @example(t=lukasiewicz(), q=F(2, 3))
    @example(t=nilpotent_minimum(), q=F(1, 4))
    @example(t=interval_collapse([(F(1, 5), F(1, 2))]), q=F(1, 10))
    @example(t=interval_collapse([(F(0), F(1, 4)), (F(1, 2), F(7, 8))]), q=F(1, 16))
    def test_left_limit_matches_fraction_oracle(self, t, q):
        # the examples put q or 1 - q between the last breakpoint below b and b
        bps = breakpoints(t)
        for c, b in zip(bps, bps[1:]):
            limit, value = tnorms._left_limit(
                t, b.as_integer_ratio(), c.as_integer_ratio(), q.as_integer_ratio())
            # both in lowest terms: the sweep compares them as pairs
            assert limit == left_limit(lambda x, y: apply(t, x, y), b, q, bps).as_integer_ratio()
            assert value == closed_form_apply(t, b, q).as_integer_ratio()

    @settings(max_examples=60, deadline=None)
    @given(t=family_strategy, q=units)
    def test_left_continuity_at_every_value(self, t, q):
        assert verify_tnorm_axioms(t, sorted({F(0), q, F(1) - q, F(1)})).verdict


class TestAxiomFailures:
    """Each failing return of ``verify_tnorm_axioms``, driven by a broken &."""

    def test_unit(self, monkeypatch):
        install_and(monkeypatch, lambda t, p, q: p * q / 2)
        report = verify_tnorm_axioms(minimum(), [F(0), F(1, 2), F(1)])
        assert not report.verdict and report.certified
        assert report.witness == Witness((F(1), F(1, 2)), F(1, 4), F(1, 2), "unit")

    def test_commutativity(self, monkeypatch):
        install_and(monkeypatch, lambda t, p, q: q if p == 1 else p * p * q)
        report = verify_tnorm_axioms(minimum(), [F(0), F(1, 4), F(1, 2), F(1)])
        assert not report.verdict and report.certified
        assert report.witness == Witness(
            (F(1, 4), F(1, 2)), F(1, 32), F(1, 16), "commutativity"
        )

    def test_monotonicity(self, monkeypatch):
        install_and(
            monkeypatch,
            lambda t, p, q: F(1, 8) if p == q == F(1, 2) else real_and(t, p, q),
        )
        report = verify_tnorm_axioms(minimum(), [F(0), F(1, 4), F(1, 2), F(1)])
        assert not report.verdict and report.certified
        assert report.witness == Witness(
            (F(1, 4), F(1, 2), F(1, 2)), F(1, 4), F(1, 8), "monotonicity"
        )

    def test_associativity(self, monkeypatch):
        # product, except that 1/4 & 1/2 (off the grid) is 0
        install_and(
            monkeypatch,
            lambda t, p, q: F(0) if (p, q) == (F(1, 4), F(1, 2)) else real_and(t, p, q),
        )
        report = verify_tnorm_axioms(product_tnorm(), [F(0), F(1, 2), F(1)])
        assert not report.verdict and report.certified
        assert report.witness == Witness(
            (F(1, 2), F(1, 2), F(1, 2)), F(0), F(1, 8), "associativity"
        )

    def test_associativity_inner_off_grid_product(self, monkeypatch):
        # product, except that 1/2 & 1/4 is 0 while 1/4 & 1/2 stays 1/8: the
        # inner p & D and the outer D & u are not shared by commutativity
        install_and(
            monkeypatch,
            lambda t, p, q: F(0) if (p, q) == (F(1, 2), F(1, 4)) else real_and(t, p, q),
        )
        grid = [F(0), F(1, 2), F(1)]
        report = verify_tnorm_axioms(product_tnorm(), grid)
        assert report == axioms_bruteforce(product_tnorm(), grid)
        assert report.witness == Witness(
            (F(1, 2), F(1, 2), F(1, 2)), F(1, 8), F(0), "associativity"
        )

    def test_associativity_on_a_closed_grid(self, monkeypatch):
        # closed, commutative and monotone on {0, 1/4, 1/2, 1}: minimum, except
        # 1/4 & 1/4 = 0 and 1/4 & 1/2 = 1/2 & 1/4 = 1/2 & 1/2 = 1/4.  The
        # matrix M of q = 1/2 is not symmetric, so the ordered sweep names
        # the triple: (1/4 & 1/2) & 1/2 = 1/4, 1/4 & (1/2 & 1/2) = 0
        low = {(F(1, 4), F(1, 4)): F(0), (F(1, 4), F(1, 2)): F(1, 4),
               (F(1, 2), F(1, 4)): F(1, 4), (F(1, 2), F(1, 2)): F(1, 4)}
        install_and(monkeypatch,
                    lambda t, p, q: low[p, q] if (p, q) in low else real_and(t, p, q))
        grid = [F(0), F(1, 4), F(1, 2), F(1)]
        report = verify_tnorm_axioms(minimum(), grid)
        assert report == axioms_bruteforce(minimum(), grid)
        assert report.witness == Witness(
            (F(1, 4), F(1, 2), F(1, 2)), F(1, 4), F(0), "associativity"
        )

    @pytest.mark.parametrize("t, grid", [
        (minimum(), [F(0), F(1, 4), F(1, 2), F(1)]),
        (lukasiewicz(), [F(k, 4) for k in range(5)]),
        (nilpotent_minimum(), canonical_grid(nilpotent_minimum(), 12)),
    ], ids=["minimum", "lukasiewicz", "nilpotent"])
    def test_closed_grid_skips_the_ordered_sweep(self, t, grid, monkeypatch):
        # every product lies on the grid and & is associative: the symmetric
        # matrices decide associativity, and the ordered sweep never runs
        def ordered_sweep(*args):
            raise AssertionError("ordered associativity sweep ran")

        monkeypatch.setattr(tnorms, "_associativity_sweep", ordered_sweep)
        report = verify_tnorm_axioms(t, grid)
        assert report.verdict
        assert report == axioms_bruteforce(t, grid)

    def test_left_continuity(self, monkeypatch):
        # nilpotent minimum with p + q >= 1: on {0, 1/2, 1} it agrees with
        # minimum, but it jumps at p = 1/2 for q = 1/2
        install_and(monkeypatch, lambda t, p, q: min(p, q) if p + q >= 1 else F(0))
        report = verify_tnorm_axioms(nilpotent_minimum(), [F(0), F(1, 2), F(1)])
        assert not report.verdict and report.certified
        assert report.witness == Witness(
            (F(1, 2), F(1, 2)), F(0), F(1, 2), "left continuity"
        )


class TestAxiomsMatchTripleSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        t=st.one_of(family_strategy, collapse_norms()),
        grid=st.lists(units, min_size=2, max_size=12, unique=True),
        data=st.data(),
    )
    def test_same_report_as_bruteforce(self, t, grid, data):
        broken = data.draw(broken_ands(t, sorted(grid)))
        with pytest.MonkeyPatch.context() as mp:
            if broken is not None:
                install_and(mp, broken)
            assert verify_tnorm_axioms(t, grid) == axioms_bruteforce(t, grid)


class TestC1MatchesTripleSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        t=st.one_of(family_strategy, collapse_norms()),
        grid=st.lists(units, min_size=1, max_size=12, unique=True),
        data=st.data(),
    )
    def test_same_report_as_sweep(self, t, grid, data):
        # grids may leave out 0 and 1; broken &s include non-commutative ones
        broken = data.draw(broken_ands(t, sorted(grid)))
        with pytest.MonkeyPatch.context() as mp:
            if broken is not None:
                install_and(mp, broken)
            assert check_c1(t, grid) == c1_sweep(t, grid)


class TestSharedTableMatchesStandaloneChecks:
    @settings(max_examples=150, deadline=None)
    @given(
        t=st.one_of(family_strategy, collapse_norms()),
        grid=st.lists(units, min_size=1, max_size=12, unique=True),
        data=st.data(),
    )
    def test_same_reports(self, t, grid, data):
        # grids may leave out 0 and 1; broken &s include non-commutative ones
        broken = data.draw(broken_ands(t, sorted(grid)))
        with pytest.MonkeyPatch.context() as mp:
            if broken is not None:
                install_and(mp, broken)
            shared = tnorms._condition_sweeps(t, grid)
            assert shared == (check_c1(t, grid), check_c2(t, grid),
                              verify_tnorm_axioms(t, grid))
            assert shared == (c1_sweep(t, grid), c2_sweep(t, grid),
                              axioms_bruteforce(t, grid))

    @pytest.mark.parametrize("t", [
        minimum(), interval_collapse([(F(1, 5), F(1, 2))]),
        lukasiewicz(), nilpotent_minimum(),
    ], ids=["minimum", "collapse", "lukasiewicz", "nilpotent"])
    def test_check_tnorm_calls_apply_for_c2_only_in_the_table(self, t, tmp_path, monkeypatch):
        # every product of two grid points lies on these grids, so the &
        # kernel runs only for the table, the unit check and left continuity,
        # and once for the sides of the C3-form witness where C1 fails: C1
        # and C2 read the table, and extract_intervals sweeps no grid
        calls = []
        install_and(monkeypatch, lambda t, p, q: calls.append(None) or real_and(t, p, q))
        extraction_calls = 0 if tnorms._c1_holds_on_unit_interval(t) else 1
        grid = canonical_grid(t, 24)
        n = len(grid)
        path = tmp_path / "tnorm.json"
        path.write_text(json.dumps(jsonio.tnorm_to_dict(t)))
        values = ",".join(map(str, grid))
        argv = ["check-tnorm", str(path), "--values", values, "-o", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0
        assert len(calls) == (n * n + n + 3 * n * (len(breakpoints(t)) - 1)
                              + extraction_calls)


class TestC1OnUnitInterval:
    """``_c1_holds_on_unit_interval`` against ``check_c1`` and its docstring.

    ``TestConditions.test_conditions_agree`` compares it with ``check_c1``
    on the canonical grid of each of the five families.
    """

    @settings(max_examples=60, deadline=None)
    @given(t=collapse_norms())
    def test_equals_canonical_grid_verdict_under_collapse_norms(self, t):
        assert tnorms._c1_holds_on_unit_interval(t)
        assert check_c1(t, canonical_grid(t)).verdict

    @pytest.mark.parametrize("t, triple, sides", [
        (product_tnorm(), (F(1, 2), F(1, 2), F(1, 8)), (F(1, 8), F(1, 16))),
        (lukasiewicz(), (F(3, 4), F(3, 4), F(1, 2)), (F(1, 2), F(1, 4))),
        (nilpotent_minimum(), (F(3, 4), F(3, 4), F(1, 5)), (F(1, 5), F(0))),
    ])
    def test_failing_families_break_c1_at_the_closed_form_triples(self, t, triple, sides):
        assert not tnorms._c1_holds_on_unit_interval(t)
        assert c1_sides(t, *triple) == sides

    @pytest.mark.parametrize("t", [product_tnorm(), lukasiewicz(), nilpotent_minimum()],
                             ids=["product", "lukasiewicz", "nilpotent"])
    def test_c1_violations_are_first_on_canonical_grid(self, t):
        grid = canonical_grid(t)
        c1, c2 = check_c1(t, grid).witness, check_c2(t, grid).witness
        assert tnorms._C1_FAILURES[t.family] == (c1.values, c2.values)
        assert c1_sides(t, *c1.values) == (c1.lhs, c1.rhs)
        assert not c2_holds(t, *c2.values)

    def test_the_table_leaves_out_exactly_the_two_proved_families(self):
        assert set(tnorms.FAMILIES) - set(tnorms._C1_FAILURES) == {
            tnorms.MINIMUM, tnorms.INTERVAL_COLLAPSE}
        assert set(tnorms._C1_FAILURES) <= set(tnorms.FAMILIES)


class TestAxiomsReadOnGridOperandsFromTheTable:
    @pytest.mark.parametrize("t, resolution", [
        (minimum(), 24), (minimum(), 25),
        (interval_collapse([(F(1, 5), F(1, 2))]), 24),
        (interval_collapse([(F(1, 5), F(1, 2))]), 25),
        (nilpotent_minimum(), 24), (nilpotent_minimum(), 25),
        (lukasiewicz(), 24),
    ], ids=["minimum-24", "minimum-25", "collapse-24", "collapse-25",
            "nilpotent-24", "nilpotent-25", "lukasiewicz-24"])
    def test_apply_calls(self, t, resolution, monkeypatch):
        # every product of two grid points lies on these grids, so the &
        # kernel runs only for the table, the unit check and left continuity
        calls = []
        install_and(monkeypatch, lambda t, p, q: calls.append(None) or real_and(t, p, q))
        grid = canonical_grid(t, resolution)
        n = len(grid)
        assert verify_tnorm_axioms(t, grid).verdict
        assert len(calls) == n * n + n + 3 * n * (len(breakpoints(t)) - 1)


@st.composite
def grid_inputs(draw):
    """A grid point as a Fraction, an int or a str, reduced or not."""
    v = draw(st.fractions(min_value=-1, max_value=2, max_denominator=6))
    form = draw(st.sampled_from(["fraction", "int", "str", "unreduced str"]))
    if form == "int" and v.denominator == 1:
        return int(v)
    if form == "str":
        return str(v)
    if form == "unreduced str":
        k = draw(st.integers(2, 4))
        return f"{v.numerator * k}/{v.denominator * k}"
    return v


class TestGridBuildersOnIntegers:
    """The integer grid builders against their Fraction forms (``oracles``)."""

    @settings(max_examples=150, deadline=None)
    @given(t=st.one_of(family_strategy, collapse_norms()), n=st.integers(1, 60))
    def test_canonical_grid(self, t, n):
        grid = canonical_grid(t, n)
        assert grid == canonical_grid_reference(t, n)
        assert all(type(v) is Fraction for v in grid)

    @settings(max_examples=300, deadline=None)
    @given(grid=st.lists(grid_inputs(), max_size=14))
    @example(grid=[])
    @example(grid=["2/4", 1, F(1, 2), "3/2", -1])
    def test_sorted_grid(self, grid):
        # small denominators make duplicates common; outside [0,1] and the
        # empty grid, both raise the same InputError
        try:
            expected = sorted_grid_reference(grid)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                tnorms._sorted_grid(grid)
            assert str(got.value) == str(exc)
        else:
            pts = tnorms._sorted_grid(grid)
            assert pts == expected
            assert all(type(v) is Fraction for v in pts)


class TestCanonicalGrid:
    def test_contains_uniform_sweep_and_breakpoints(self):
        t = interval_collapse([(F(1, 5), F(1, 2))])
        grid = canonical_grid(t)
        assert F(1, 5) in grid and F(1, 2) in grid
        assert all(F(k, 40) in grid for k in range(41))
        # midpoints of consecutive breakpoints
        assert F(1, 10) in grid and F(7, 20) in grid and F(3, 4) in grid

    def test_sorted_unique(self):
        grid = canonical_grid(minimum())
        assert list(grid) == sorted(set(grid))

    @given(grid=st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=12),
                         min_size=1, max_size=12))
    def test_checked_grid_is_the_sorted_set(self, grid):
        # the first value outside [0,1] in ascending order is the one named
        pts = sorted(set(grid))
        bad = next((v for v in pts if not 0 <= v <= 1), None)
        if bad is None:
            assert tnorms._sorted_grid(grid) == pts
        else:
            with pytest.raises(InputError, match=f"got {bad}$"):
                tnorms._sorted_grid(grid)
