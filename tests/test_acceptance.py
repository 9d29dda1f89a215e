"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value asserted here is either recomputed by an independent
oracle inside the test or taken from a frozen, oracle-confirmed constant.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from tnormcat import (
    RCat,
    RFunctor,
    TailSeq,
    apply,
    canonical_grid,
    check_c1,
    check_c2,
    check_ccc,
    check_power_completeness,
    check_product_bilimit,
    check_yoneda_continuity,
    counterexample,
    enumerate_categories,
    enumerate_functors,
    exponential,
    extract_intervals,
    find_bilimit,
    find_yoneda_limit,
    interval_collapse,
    is_cauchy,
    is_cauchy_complete,
    is_forward_cauchy,
    lukasiewicz,
    minimum,
    nilpotent_minimum,
    product,
    product_tnorm,
    tail_value,
    validate,
)
from tnormcat.completeness import FROM_SEQ, TO_SEQ, is_bilimit
from tnormcat.cli import main as cli_main

from conftest import EIGHT_GRID, make_random_category
from oracles import c1_sides, enumerate_cycles, power_hom_bruteforce, tail_value_bruteforce
from replay import replay

F = Fraction

GRID6 = (F(0), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(1))
IC_QUARTER_HALF = interval_collapse([(F(1, 4), F(1, 2))])


class _Criterion:
    def __init__(self, number: int, title: str, limit_s: float):
        self.number = number
        self.title = title
        self.limit_s = limit_s
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit_s else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.title}): {status} "
              f"[{elapsed:.2f}s / limit {self.limit_s:.0f}s]")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its runtime limit: "
                f"{elapsed:.2f}s >= {self.limit_s}s"
            )
        return False


def test_criterion_1_condition_equivalence_suite(all_families):
    extra_collapses = {
        "interval-collapse-multi": interval_collapse(
            [(F(0), F(1, 8)), (F(1, 4), F(1, 2)), (F(3, 4), F(9, 10))]
        ),
        "interval-collapse-quarter": IC_QUARTER_HALF,
    }
    with _Criterion(1, "condition equivalence suite", 10):
        families = dict(all_families)
        families.update(extra_collapses)
        for name, t in families.items():
            grid = canonical_grid(t, 40)
            c1 = check_c1(t, grid)
            c2 = check_c2(t, grid)
            extraction = extract_intervals(t)
            assert c1.verdict == c2.verdict == extraction.ok, name
            expected_pass = t.family in ("minimum", "interval-collapse")
            assert c1.verdict == expected_pass, name
            if not c1.verdict:
                # replay: recomputing both sides from the witness alone
                # reproduces the violation
                lhs, rhs = c1_sides(t, *c1.witness.values)
                assert (lhs, rhs) == (c1.witness.lhs, c1.witness.rhs)
                assert lhs != rhs
                p, u = c2.witness.values
                assert u <= apply(t, p, p) and apply(t, u, p) != u
                assert extraction.witness is not None
                p2, u2 = extraction.witness.values
                assert u2 <= apply(t, p2, p2) and apply(t, u2, p2) != u2


def test_criterion_2_cartesian_closed_positive():
    with _Criterion(2, "cartesian closedness, positive direction", 60):
        for t in (minimum(), IC_QUARTER_HALF):
            report = check_ccc(t, GRID6, 2)
            assert report.verdict, report.witness
            assert report.categories == 37  # 1 singleton + 36 two-element
            assert report.triples_checked == 37**3
            # every power object validates as a category, checked directly
            cats = []
            for size in (1, 2):
                cats.extend(enumerate_categories(t, GRID6, size))
            for x in cats:
                for y in cats:
                    power = exponential(t, x, y)
                    assert validate(power.as_rcat(), t) is None


def test_criterion_3_counterexample_bundles(tmp_path, capsys):
    frozen_luka = {
        "d_fg": "9/10", "d_gh": "9/10", "d_fh": "2/5",
        "violated_lhs": "1/2", "violated_rhs": "2/5",
    }
    with _Criterion(3, "counterexample bundles, negative direction", 3):
        for t, name in (
            (product_tnorm(), "product"),
            (lukasiewicz(), "lukasiewicz"),
            (nilpotent_minimum(), "nilpotent-minimum"),
        ):
            c1 = check_c1(t, canonical_grid(t))
            assert not c1.verdict
            bundle_start = time.perf_counter()
            bundle = counterexample(t, *c1.witness.values)
            assert time.perf_counter() - bundle_start < 1.0  # < 1 s per bundle
            assert bundle.d_fg >= bundle.p and bundle.d_gh >= bundle.q
            assert apply(t, bundle.d_gh, bundle.d_fg) > bundle.d_fh
            assert bundle.capped_lhs > bundle.capped_rhs
            # the CLI command emits the same bundle, and it replays: f, g and
            # h are functors, and each d value is the brute-force supremum
            tn_path = tmp_path / f"{name}.json"
            tn_path.write_text(json.dumps({"family": name}))
            out_path = tmp_path / f"{name}-bundle.json"
            p, q, u = (str(v) for v in (bundle.p, bundle.q, bundle.u))
            assert cli_main(["counterexample", str(tn_path), p, q, u,
                             "-o", str(out_path)]) == 0
            emitted = json.loads(out_path.read_text())
            assert replay(emitted) == {"bundle": 1}
            emitted = emitted["verdicts"][0]["result"]
            assert [emitted[k] for k in ("d_fg", "d_gh", "d_fh")] == [
                str(bundle.d_fg), str(bundle.d_gh), str(bundle.d_fh)]
            assert emitted["violated"]["lhs"] == str(bundle.capped_lhs)

        # reference Lukasiewicz triple with frozen, oracle-confirmed values
        b = counterexample(lukasiewicz(), F(9, 10), F(9, 10), F(1, 2))
        assert str(b.d_fg) == frozen_luka["d_fg"]
        assert str(b.d_gh) == frozen_luka["d_gh"]
        assert str(b.d_fh) == frozen_luka["d_fh"]
        assert str(b.capped_lhs) == frozen_luka["violated_lhs"]
        assert str(b.capped_rhs) == frozen_luka["violated_rhs"]


def test_criterion_4_exponentiability(two_chain):
    from tnormcat import check_exponentiable

    with _Criterion(4, "exponentiable object check", 1):
        luka = lukasiewicz()
        fail = check_exponentiable(luka, two_chain, canonical_grid(luka))
        assert not fail.verdict
        ok = check_exponentiable(minimum(), two_chain, canonical_grid(minimum()))
        assert ok.verdict


def test_criterion_5_idempotent_square(all_families):
    with _Criterion(5, "idempotent squares", 1):
        passing = [
            all_families["minimum"],
            all_families["interval-collapse"],
            IC_QUARTER_HALF,
        ]
        for t in passing:
            assert check_c2(t, canonical_grid(t)).verdict
            for p in canonical_grid(t):
                pp = apply(t, p, p)
                assert apply(t, pp, pp) == pp
        t = all_families["product"]
        pp = apply(t, F(9, 10), F(9, 10))
        assert apply(t, pp, pp) != pp


def test_criterion_6_cauchy_completeness_suite():
    rng = random.Random(2024)
    with _Criterion(6, "Cauchy completeness suite", 30):
        cats = [make_random_category(rng, 4, EIGHT_GRID) for _ in range(50)]
        for cat in cats:
            assert validate(cat, minimum()) is None
            assert is_cauchy_complete(cat) is None

        # bilimit uniqueness on every multi-witness instance
        multi = 0
        for cat in cats:
            for cycle in enumerate_cycles(cat, 2):
                seq = TailSeq(cat, (), cycle)
                if is_cauchy(seq) is not None:
                    continue
                witnesses = [a for a in cat.elements if is_bilimit(seq, a)]
                if len(witnesses) > 1:
                    multi += 1
                    for a in witnesses:
                        for b in witnesses:
                            assert cat.hom_of(a, b) == 1
        assert multi > 0  # the sample really exercised the uniqueness clause

        # product pairing on 20 random precondition-satisfying pairs
        pool = []
        for cat in cats:
            for cycle in enumerate_cycles(cat, 2):
                seq = TailSeq(cat, (), cycle)
                if is_cauchy(seq) is None and find_bilimit(seq).kind == "bilimit":
                    pool.append(seq)
        assert len(pool) >= 40
        for _ in range(20):
            s1, s2 = rng.choice(pool), rng.choice(pool)
            assert check_product_bilimit(s1, s2) is None


def _forward_cauchy_sequences(cat, max_len=2, with_prefix=True):
    out = []
    for cycle in enumerate_cycles(cat, max_len):
        seq = TailSeq(cat, (), cycle)
        if is_forward_cauchy(seq) is None:
            out.append(seq)
            if with_prefix:
                out.append(TailSeq(cat, (cat.elements[0],), cycle))
    return out


def test_criterion_7_yoneda_suite():
    grid3 = (F(0), F(1, 2), F(1))
    with _Criterion(7, "Yoneda limits and continuity suite", 60):
        t = IC_QUARTER_HALF
        cats = enumerate_categories(t, grid3, 2) + enumerate_categories(t, grid3, 1)
        rng = random.Random(99)
        cats.append(make_random_category(rng, 3, EIGHT_GRID))
        cats.append(make_random_category(rng, 3, EIGHT_GRID))

        # forward Cauchy coincides with Cauchy; limits coincide up to iso
        for cat in cats:
            for seq in _forward_cauchy_sequences(cat, max_len=2):
                assert is_cauchy(seq) is None
                bi = find_bilimit(seq)
                yo = find_yoneda_limit(seq)
                assert bi.kind == "bilimit" and yo.kind == "yoneda-limit"
                assert cat.hom_of(bi.witness, yo.witness) == 1
                assert cat.hom_of(yo.witness, bi.witness) == 1

        # all functors between generated categories preserve limits
        for src in cats:
            seqs = _forward_cauchy_sequences(src, max_len=2)
            for dst in cats:
                for mapping in enumerate_functors(src, dst):
                    f = RFunctor(src, dst, mapping)
                    assert check_yoneda_continuity(f, seqs) is None

        # evaluation maps on product instances, jointly and per slice
        small = enumerate_categories(t, grid3, 2)
        for base in small:
            for fiber in small:
                power = exponential(t, base, fiber)
                pcat = power.as_rcat()
                assert validate(pcat, t) is None
                ev_source = product(base, pcat)
                ev = RFunctor(
                    ev_source,
                    fiber,
                    tuple(flabel[base.index(a)] for a, flabel in ev_source.elements),
                )
                seqs = _forward_cauchy_sequences(ev_source, max_len=2,
                                                 with_prefix=False)
                assert check_yoneda_continuity(ev, seqs) is None
                # separate continuity in the function-space argument
                pseqs = _forward_cauchy_sequences(pcat, max_len=2,
                                                  with_prefix=False)
                for a in base.elements:
                    slice_map = tuple(flabel[base.index(a)] for flabel in pcat.elements)
                    ev_at_a = RFunctor(pcat, fiber, slice_map)
                    assert check_yoneda_continuity(ev_at_a, pseqs) is None


def test_criterion_8_power_completeness():
    with _Criterion(8, "function-space completeness", 60):
        t = IC_QUARTER_HALF
        cats = enumerate_categories(t, GRID6, 1) + enumerate_categories(t, GRID6, 2)
        assert len(cats) == 37
        for base in cats:
            for fiber in cats:
                assert check_power_completeness(t, base, fiber) is None


def test_criterion_9_oracle_equivalence():
    rng = random.Random(7_777)
    with _Criterion(9, "oracle equivalence", 30):
        pairs_checked = 0
        while pairs_checked < 1000:
            base = make_random_category(rng, 3, EIGHT_GRID)
            fiber = make_random_category(rng, 3, EIGHT_GRID)
            power = exponential(minimum(), base, fiber)
            n = len(power)
            for _ in range(min(25, n * n)):
                i, j = rng.randrange(n), rng.randrange(n)
                oracle = power_hom_bruteforce(
                    base, fiber,
                    power.functors[i].mapping, power.functors[j].mapping,
                )
                assert power.hom[i][j] == oracle
                pairs_checked += 1

        seqs_checked = 0
        while seqs_checked < 1000:
            cat = make_random_category(rng, 4, EIGHT_GRID)
            prefix = tuple(rng.choice(cat.elements)
                           for _ in range(rng.randint(0, 2)))
            cycle = tuple(rng.choice(cat.elements)
                          for _ in range(rng.randint(1, 3)))
            seq = TailSeq(cat, prefix, cycle)
            x = rng.choice(cat.elements)
            direction = rng.choice((FROM_SEQ, TO_SEQ))
            v3 = tail_value_bruteforce(seq, x, direction, cycles=3)
            v6 = tail_value_bruteforce(seq, x, direction, cycles=6)
            assert v3 == v6 == tail_value(seq, x, direction)
            seqs_checked += 1
