from fractions import Fraction

import pytest

from tnormcat import (
    BudgetError,
    InputError,
    PreconditionError,
    RCat,
    Witness,
    apply,
    canonical_grid,
    check_c1,
    check_ccc,
    check_currying,
    check_exponentiable,
    counterexample,
    enumerate_categories,
    interval_collapse,
    is_functor,
    lukasiewicz,
    minimum,
    nilpotent_minimum,
    product_tnorm,
    residuum,
    terminal,
    validate,
)
from tnormcat import categories

from conftest import install_and, real_and
from oracles import c1_sides, power_hom_bruteforce

F = Fraction

GRID6 = (F(0), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(1))


class TestCheckExponentiable:
    def test_any_category_under_minimum(self, two_chain):
        report = check_exponentiable(minimum(), two_chain, canonical_grid(minimum()))
        assert report.verdict

    def test_two_chain_fails_under_lukasiewicz(self, two_chain):
        report = check_exponentiable(lukasiewicz(), two_chain, [F(9, 10)])
        assert not report.verdict
        assert report.witness.values == (F(9, 10), F(9, 10), "x", "y")
        assert (report.witness.lhs, report.witness.rhs) == (F(1, 2), F(2, 5))

    def test_two_chain_fails_on_canonical_grid(self, two_chain):
        t = lukasiewicz()
        report = check_exponentiable(t, two_chain, canonical_grid(t))
        assert not report.verdict

    def test_singleton_passes_for_every_family(self, all_families):
        one = terminal()
        for t in all_families.values():
            assert check_exponentiable(t, one, canonical_grid(t, 8)).verdict

    def test_one_product_table_over_grid_and_hom_values(self, monkeypatch, two_chain):
        # V = {1/4, 1/2} ∪ {0, 1/2, 1}: & runs once per pair of V
        calls = []

        def counted(t, p, q):
            calls.append((p, q))
            return real_and(t, p, q)

        install_and(monkeypatch, counted)
        assert check_exponentiable(minimum(), two_chain, [F(1, 4), F(1, 2)]).verdict
        assert len(calls) == 4**2


class TestCheckCurrying:
    def test_terminal_base_always_passes(self, all_families, two_chain):
        for t in all_families.values():
            assert check_currying(t, terminal(), two_chain) is None

    def test_minimum_two_chains(self, two_chain):
        assert check_currying(minimum(), two_chain, two_chain) is None

    def test_budget_counts_maps_into_the_power(self, two_chain):
        # the power y^1 is built from the 2**1 maps 1 -> y = two_chain
        with pytest.raises(BudgetError) as exc:
            check_currying(minimum(), terminal(), two_chain, budget=1)
        assert str(exc.value) == "map enumeration needs 2 candidates but the budget is 1"

    def test_counterexample_categories_fail(self):
        t = lukasiewicz()
        bundle = counterexample(t, F(9, 10), F(9, 10), F(1, 2))
        w = check_currying(t, bundle.base, bundle.fiber)
        assert w == Witness(
            ((F(1), F(1, 2)), (F(4, 5), F(1, 2)), (F(1, 2), F(2, 5))),
            F(1, 2),
            F(2, 5),
            note="power object fails category axioms (transitivity)",
        )


class TestCounterexample:
    def test_lukasiewicz_bundle(self):
        t = lukasiewicz()
        b = counterexample(t, F(9, 10), F(9, 10), F(1, 2))
        assert b.d_fg >= b.p and b.d_gh >= b.q
        # pointwise images per the construction
        assert b.f.mapping == (F(1), F(1, 2))
        assert b.g.mapping == (F(9, 10), F(1, 2))
        assert b.h.mapping == (F(4, 5), F(2, 5))
        assert b.h("y") == F(2, 5) < min(apply(t, b.p, b.q), b.u) == F(1, 2)
        assert (b.capped_lhs, b.capped_rhs) == (F(1, 2), F(2, 5))
        # transitivity of d fails outright
        assert apply(t, b.d_gh, b.d_fg) > b.d_fh

    def test_product_bundle(self):
        b = counterexample(product_tnorm(), F(9, 10), F(9, 10), F(1, 2))
        assert b.h("y") == F(9, 20) < F(1, 2)
        assert b.d_fg >= F(9, 10) and b.d_gh >= F(9, 10)
        assert b.capped_lhs > b.capped_rhs

    def test_minimum_rejects_any_triple(self):
        with pytest.raises(PreconditionError):
            counterexample(minimum(), F(9, 10), F(9, 10), F(1, 2))

    @pytest.mark.parametrize("family", ["product", "lukasiewicz", "nilpotent-minimum"])
    def test_d_values_match_bruteforce(self, all_families, family):
        t = all_families[family]
        c1 = check_c1(t, canonical_grid(t))
        assert not c1.verdict
        b = counterexample(t, *c1.witness.values)
        for left, right, d in (
            (b.f, b.g, b.d_fg),
            (b.g, b.h, b.d_gh),
            (b.f, b.h, b.d_fh),
        ):
            assert d == power_hom_bruteforce(
                b.base, b.fiber, left.mapping, right.mapping
            )

    def test_counterexample_hashes_no_fraction(self, all_families, monkeypatch):
        # the fiber's points are ordered by ``_sorted_grid`` and its labels
        # looked up by their integer pairs
        reports = {name: check_c1(t, canonical_grid(t)) for name, t in all_families.items()}
        triples = {name: c1.witness.values for name, c1 in reports.items() if not c1.verdict}
        expected = {name: counterexample(all_families[name], *triple)
                    for name, triple in triples.items()}

        def no_hash(self):
            raise AssertionError(f"hashed the Fraction {self}")

        monkeypatch.setattr(Fraction, "__hash__", no_hash)
        bundles = {name: counterexample(all_families[name], *triple)
                   for name, triple in triples.items()}
        monkeypatch.undo()
        assert bundles == expected and len(bundles) == 3

    def test_functors_are_functors(self):
        b = counterexample(nilpotent_minimum(), F(3, 5), F(3, 5), F(3, 10))
        for fct in (b.f, b.g, b.h):
            assert is_functor(fct) is None
        assert validate(b.fiber, nilpotent_minimum()) is None


class TestCheckCcc:
    def test_minimum_passes_small(self):
        report = check_ccc(minimum(), (F(0), F(1, 2), F(1)), 2)
        assert report.verdict
        assert report.bundle is None
        assert report.triples_checked == report.categories**3

    def test_interval_collapse_passes(self):
        t = interval_collapse([(F(1, 4), F(1, 2))])
        report = check_ccc(t, (F(0), F(1, 4), F(1, 2), F(1)), 2)
        assert report.verdict

    def test_nilpotent_minimum_fails_with_bundle(self):
        t = nilpotent_minimum()
        report = check_ccc(t, canonical_grid(t), 2)
        assert not report.verdict
        assert report.bundle is not None
        b = report.bundle
        lhs, rhs = c1_sides(t, b.p, b.q, b.u)
        assert lhs != rhs
        assert b.capped_lhs > b.capped_rhs

    def test_category_generation_counts(self):
        cats = enumerate_categories(minimum(), GRID6, 2)
        # any 2x2 matrix with unit diagonal is transitive
        assert len(cats) == 36
        cats3 = enumerate_categories(minimum(), (F(0), F(1)), 3)
        for cat in cats3:
            assert validate(cat, minimum()) is None

    def test_category_generation_rejects_empty_grid(self):
        with pytest.raises(InputError, match="grid must be nonempty"):
            enumerate_categories(minimum(), [], 2)

    @pytest.mark.parametrize("size", [-1, -3])
    def test_category_generation_rejects_negative_size(self, size):
        # raised before the budget check, which would count 6**(size*(size-1)) fills
        with pytest.raises(InputError, match=f"^category size must be >= 0, got {size}$"):
            enumerate_categories(minimum(), GRID6, size, budget=1)

    def test_category_generation_at_size_0(self):
        assert enumerate_categories(minimum(), GRID6, 0) == [RCat((), ())]

    @pytest.mark.parametrize("tnorm", [minimum(), lukasiewicz()], ids=lambda t: t.family)
    def test_rejects_empty_sweep(self, tnorm):
        with pytest.raises(InputError, match="max size must be >= 1"):
            check_ccc(tnorm, (F(0), F(1, 2), F(1)), 0)

    @pytest.mark.parametrize("budget", [1, 7, 8, 15])
    def test_sweep_budget(self, budget):
        # the discrete categories of sizes 1 and 2, one fill each: the budget
        # bounds only their generation, not the 8 triples or any maps
        report = check_ccc(minimum(), [F(0)], 2, budget)
        assert (report.categories, report.triples_checked) == (2, 8)

    def test_sweep_budget_bounds_generation(self):
        with pytest.raises(BudgetError) as exc:
            check_ccc(minimum(), [F(0)], 2, 0)
        assert str(exc.value) == (
            "category generation at size 1 needs 1 candidates but the budget is 0")

    def test_sweep_fits_budget(self):
        report = check_ccc(minimum(), [F(0)], 2, 16)
        assert report.verdict and report.triples_checked == 8

    def test_sizes_settle_the_readme_sweep(self, monkeypatch):
        # at the default budget the sweep only counts categories on ranks:
        # nothing is built, validated or mapped
        def unused(*args):
            raise AssertionError("C1 settles every pair of the sweep")

        for name in ("enumerate_categories", "validate", "enumerate_functors",
                     "_functor_images"):
            monkeypatch.setattr(categories, name, unused)
        t = interval_collapse([(F(1, 4), F(1, 2))])
        report = check_ccc(t, (F(0), F(1, 4), F(1, 2), F(1)), 3)
        assert report.verdict and report.categories == 878

    @pytest.mark.parametrize("tnorm, grid", [
        (interval_collapse([(F(1, 4), F(1, 2))]), (F(0), F(1, 4), F(1, 2), F(1))),
        (minimum(), (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))),
    ], ids=["readme", "minimum"])
    def test_one_product_table_per_sweep(self, monkeypatch, tnorm, grid):
        # C1 and the size-3 generation read one grid² table of products, so
        # & runs once per grid pair
        calls = []

        def counted(t, p, q):
            calls.append((p, q))
            return real_and(t, p, q)

        install_and(monkeypatch, counted)
        assert check_ccc(tnorm, grid, 3, 10**11).verdict
        assert len(calls) == len(grid) ** 2

    def test_max_size_3_sweep(self):
        t = interval_collapse([(F(1, 4), F(1, 2))])
        grid = (F(0), F(1, 4), F(1, 2), F(1))
        sizes = [len(enumerate_categories(t, grid, size)) for size in (1, 2, 3)]
        assert sizes == [1, 16, 861]
        report = check_ccc(t, grid, 3)
        assert report.verdict
        assert (report.categories, report.triples_checked) == (878, 878**3)


class TestPowerHomAgainstResiduum:
    def test_two_singletons(self, all_families):
        # power of singletons: d equals the fiber hom, itself a residuum
        for t in all_families.values():
            fiber = RCat(("a", "b"), ((1, F(1, 3)), (0, 1)))
            from tnormcat import exponential

            power = exponential(t, terminal(), fiber)
            i = power.labels.index(("a",))
            j = power.labels.index(("b",))
            assert power.hom[i][j] == F(1, 3)
            assert residuum(t, F(1), F(1, 3)) == F(1, 3)
