"""The command line at scale, against brute force that shares no & with it.

Each check recomputes with ``oracles.closed_form_apply``, the & of each
family's defining formula, and never with ``tnorms.apply`` or
``tnorms._and_col``: a fault of the kernel that a report repeats still
fails here.  The commands run in-process through ``cli.main`` on files in
``tmp_path``.  Sizes: categories of up to three elements on five points,
the 41-point canonical grid, ``--grid 25`` and the 126 functors from a
4-chain to a 6-chain.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from oracles import closed_form_apply
from replay import replay
from test_cli import files, run  # noqa: F401 (files is a fixture)
from tnormcat import (
    RCat,
    canonical_grid,
    check_exponentiable,
    interval_collapse,
    jsonio,
    lukasiewicz,
    minimum,
    product_tnorm,
)

F = Fraction

# the canonical grid at n = 40 of the five families of ``all_families``:
# their breakpoints and the midpoints between them all lie on k/40
GRID_40 = [F(k, 40) for k in range(41)]

COLLAPSE = interval_collapse([(F(1, 4), F(1, 2))])

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def rows(stdout):
    return {v["name"]: v for v in json.loads(stdout)["verdicts"]}


def found_row(w):
    """A ``Witness`` as the strings of its values and then of its two sides."""
    return [str(v) for v in (*w.values, w.lhs, w.rhs)]


def reported_row(w):
    """The same row of a witness in a report."""
    return [*w["values"], w["lhs"], w["rhs"]]


def chain(n):
    """c0 < ... < c{n-1}: hom 1 upwards and 1/2 downwards."""
    return RCat(tuple(f"c{i}" for i in range(n)),
                tuple(tuple(F(1) if i <= j else F(1, 2) for j in range(n)) for i in range(n)))


@pytest.mark.parametrize("name, t, values, expected", [
    ("collapse", COLLAPSE, "0,1/4,1/2,1", 878),
    ("minimum", minimum(), "0,1/4,1/2,3/4,1", 2089),
    ("collapse", COLLAPSE, "0,1/4,1/2,3/4,1", 2340),
], ids=["readme", "minimum-5", "collapse-5"])
def test_ccc_suite_counts_every_fill(files, capsys, name, t, values, expected):
    grid = [F(v) for v in values.split(",")]
    count = sum(len(oracles.categories_bruteforce(t, grid, size, 10**6, closed_form_apply))
                for size in (1, 2, 3))
    code, out, _ = run(capsys, "ccc-suite", files[name], "--values", values, "--max-size", "3")
    assert code == 0
    ccc = json.loads(out)["verdicts"][0]
    assert (count, ccc["ok"], ccc["result"]["categories"]) == (expected, True, expected)


# the first C1 violation (p, q, u, lhs, rhs) and the first C2 violation
# (p, u, u & p, u) on the 41-point grid
WITNESSES_41 = {
    "product": [["1/20", "1/20", "1/40", "1/400", "1/800"],
                ["7/40", "1/40", "7/1600", "1/40"]],
    "lukasiewicz": [["1/20", "39/40", "1/40", "1/40", "0"],
                    ["21/40", "1/40", "0", "1/40"]],
    "nilpotent-minimum": [["1/20", "39/40", "1/40", "1/40", "0"],
                          ["21/40", "1/40", "0", "1/40"]],
}


@pytest.mark.parametrize("family", ["minimum", "product", "lukasiewicz",
                                    "nilpotent-minimum", "interval-collapse"])
def test_check_tnorm_at_the_canonical_grid(all_families, tmp_path, capsys, family):
    t = all_families[family]
    assert list(canonical_grid(t)) == GRID_40
    path = write(tmp_path, "tnorm.json", jsonio.tnorm_to_dict(t))
    code, out, _ = run(capsys, "check-tnorm", path)
    assert code == 0 and json.loads(out)["inputs"]["grid_points"] == 41
    by_name = rows(out)
    assert by_name["agreement"]["ok"] is True and by_name["axioms"]["ok"] is True
    if family in WITNESSES_41:
        expected = WITNESSES_41[family]
        found = [found_row(oracles.c1_sweep(t, GRID_40, closed_form_apply).witness),
                 found_row(oracles.c2_sweep(t, GRID_40, closed_form_apply).witness)]
        # the C3-form row names the same C2 violation as the C2 row
        reported = [reported_row(by_name[name]["result"]["witness"])
                    for name in ("C1", "C2", "C3-form")]
        assert found == expected and reported == expected + expected[1:]


# the C2 row on a grid without 0 and 1: None where C2 holds, else the
# first violation (p, u, u & p, u)
C2_ROWS = {
    "minimum": None,
    "interval-collapse": None,
    "product": ["1/2", "1/7", "1/14", "1/7"],
    "lukasiewicz": ["5/7", "1/7", "0", "1/7"],
    "nilpotent-minimum": ["5/7", "1/7", "0", "1/7"],
}


@pytest.mark.parametrize("family", sorted(C2_ROWS))
def test_c2_row_without_0_and_1(all_families, tmp_path, capsys, family):
    t, expected = all_families[family], C2_ROWS[family]
    c2 = oracles.c2_sweep(t, [F(1, 7), F(2, 7), F(1, 2), F(5, 7)], closed_form_apply)
    assert (c2.verdict, c2.witness and found_row(c2.witness)) == (expected is None, expected)
    path = write(tmp_path, "tnorm.json", jsonio.tnorm_to_dict(t))
    code, out, _ = run(capsys, "check-tnorm", path, "--values", "1/7,2/7,1/2,5/7")
    assert code == 0
    row = rows(out)["C2"]
    w = row["result"]["witness"]
    assert (row["ok"], w and reported_row(w)) == (expected is None, expected)


@pytest.mark.parametrize("t, points", [
    (product_tnorm(), 27),
    (interval_collapse([(F(1, 5), F(1, 3)), (F(1, 2), F(3, 4))]), 34),
    (lukasiewicz(), 27),
], ids=["product", "two-intervals", "lukasiewicz"])
def test_axioms_at_grid_25(tmp_path, capsys, t, points):
    # the canonical grid at n = 25: breakpoints, k/25 and the midpoints of
    # consecutive breakpoints
    grid = oracles.canonical_grid_reference(t, 25)
    assert len(grid) == points
    # p -> p & q bends only at breakpoints, q and 1 - q; here no two of these
    # lie closer than 1/1000, so p & q is affine on (b - 2e, b) and its left
    # limit at b is 2 (b - e) & q - (b - 2e) & q
    bruteforce = oracles.axioms_bruteforce(t, grid, closed_form_apply, step=F(1, 10**9))
    assert bruteforce.verdict, bruteforce.witness
    path = write(tmp_path, "tnorm.json", jsonio.tnorm_to_dict(t))
    code, out, _ = run(capsys, "check-tnorm", path, "--grid", "25")
    assert code == 0 and json.loads(out)["inputs"]["grid_points"] == points
    axioms = rows(out)["axioms"]
    assert axioms["ok"] is True and axioms["result"]["witness"] is None


@pytest.mark.parametrize("t", [minimum(), COLLAPSE, product_tnorm()],
                         ids=["minimum", "collapse", "product"])
def test_exp_of_a_4_chain_into_a_6_chain(tmp_path, capsys, t):
    base, fiber = chain(4), chain(6)
    argv = ["exp"]
    for flag, payload in (("tnorm", jsonio.tnorm_to_dict(t)),
                          ("base", jsonio.category_to_dict(base)),
                          ("fiber", jsonio.category_to_dict(fiber))):
        argv += [f"--{flag}", write(tmp_path, f"{flag}.json", payload)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert rows(out)["power-validates"]["ok"] is True
    # the functors are the 126 maps that keep hom, and each d(f,g) is the
    # largest q with q ∧ hom(x,y) <= hom(f(x), g(y)): no & is used
    assert replay(json.loads(out)) == {"d": 126**2}


@pytest.mark.parametrize("t", [minimum(), lukasiewicz()], ids=lambda t: t.family)
def test_check_exponentiable_on_a_4_chain(t):
    grid = canonical_grid(t)
    assert list(grid) == GRID_40
    report = check_exponentiable(t, chain(4), grid)
    assert report == oracles.exponentiable_bruteforce(t, chain(4), GRID_40, closed_form_apply)
    assert report.verdict == (t.family == "minimum")


def test_workflow_runs_no_inline_scripts():
    # a new scale check belongs in this module, where every local run makes it
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "python -c" not in text and "def tand" not in text
