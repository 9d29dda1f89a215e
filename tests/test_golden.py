"""CLI reports against the golden files in ``tests/golden/``.

Each ``check-tnorm-*`` file is the JSON report of one ``tnormcat
check-tnorm`` run with ``timing_ms`` removed, rendered as the CLI renders
it.  The runs cover the five families and a three-interval collapse, at
``--grid 12`` and at one ``--values`` grid, so the verdicts, witnesses and
notes of C1, C2, C3-form, the axioms and the agreement row are all pinned
byte for byte.

Each ``exp-*`` and ``power-completeness-*`` file pins one run of those
commands the same way; a run that exits non-zero is pinned as its exit
code and stderr instead.  The runs cover a power that validates under
minimum and under interval-collapse [1/4,1/2], the power on the base and
fiber of ``tnormcat counterexample`` at (1/2, 1/2, 1/8) under product,
whose ``power-validates`` row fails with a witness, a passing
``power-completeness`` and its C1 precondition error under product, and
an empty base and fiber.

The other files pin one run each of ``ccc-suite`` (passing under
interval-collapse, and failing C1 under Łukasiewicz with its counterexample
bundle and its non-ASCII ``∧``), ``counterexample``, ``limits`` (on a
Cauchy cycle, and on a cycle that is not Cauchy and has no bilimit),
``product --tnorm`` on labels holding ``"``, ``\\``, ``,`` and ``é``, and
on a carrier that is not transitive under product, and ``check-tnorm``
under product at ``--values 0``, whose ``agreement`` row fails with a C1
violation outside the grid, and at ``--values 0,1/40,1/20``, where it
fails with one on the grid.  Every run also
checks the raw report bytes against ``json.dumps`` with ``indent=2,
sort_keys=True, ensure_ascii=False`` and a trailing newline, the report
format.

The files are also checked against the law, not only against earlier
output: ``tests/replay.py`` replays every witness, certificate, bundle and
power in them, and the laws of the ``limits --tnorm`` carrier, from the
report's own inputs, with the defining formula of its t-norm, and one
parametrized test pins how much it replays in each file, by kind.  Two
more pin that the C1 and C2 witnesses do not replay under minimum, which
satisfies both, and the capped sides of each bundle.  Each mutation below
of a recorded value, a dropped functor, a swapped t-norm, a carrier that
breaks the laws or a failing row's evidence must make that replay fail.

The text rendering of three failing runs is pinned line by line: in it,
every failing row is followed by its witness.

The files are written by this module's ``__main__`` block; rewrite them only
when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from tnormcat.cli import main

from replay import ReplayError, replay

GOLDEN = Path(__file__).parent / "golden"

TNORMS = {
    "minimum": {"family": "minimum"},
    "product": {"family": "product"},
    "lukasiewicz": {"family": "lukasiewicz"},
    "nilpotent-minimum": {"family": "nilpotent-minimum"},
    "collapse": {"family": "interval-collapse", "intervals": [["1/5", "1/2"]]},
    "collapse3": {"family": "interval-collapse",
                  "intervals": [["0", "1/8"], ["1/4", "1/2"], ["3/4", "9/10"]]},
}
GRIDS = {
    "grid12": ["--grid", "12"],
    "values": ["--values", "0,1/7,3/14,1/2,5/6,1"],
}
CASES = [(name, grid) for name in TNORMS for grid in GRIDS]


CHAIN2 = {"elements": ["x", "y"], "hom": [["1", "1/2"], ["0", "1"]]}
FIBER3 = {"elements": ["a", "b", "c"],
          "hom": [["1", "1", "1"], ["1/2", "1", "1"], ["1/4", "1/4", "1"]]}
EMPTY = {"elements": [], "hom": []}
# the base and fiber of `tnormcat counterexample` under product at (1/2, 1/2, 1/8)
BUNDLE_BASE = {"elements": ["x", "y"], "hom": [["1", "1/8"], ["0", "1"]]}
BUNDLE_FIBER = {
    "elements": ["1/16", "1/8", "1/4", "1/2", "1"],
    "hom": [["1", "1", "1", "1", "1"], ["1/2", "1", "1", "1", "1"],
            ["1/4", "1/2", "1", "1", "1"], ["1/8", "1/4", "1/2", "1", "1"],
            ["1/16", "1/8", "1/4", "1/2", "1"]],
}
MINIMUM, PRODUCT = TNORMS["minimum"], TNORMS["product"]
COLLAPSE = {"family": "interval-collapse", "intervals": [["1/4", "1/2"]]}
# golden name -> (command, t-norm, base, fiber)
POWER_CASES = {
    "exp-minimum": ("exp", MINIMUM, CHAIN2, FIBER3),
    "exp-collapse": ("exp", COLLAPSE, CHAIN2, FIBER3),
    "exp-product-counterexample": ("exp", PRODUCT, BUNDLE_BASE, BUNDLE_FIBER),
    "exp-empty": ("exp", MINIMUM, EMPTY, EMPTY),
    "power-completeness-minimum": ("power-completeness", MINIMUM, CHAIN2, FIBER3),
    "power-completeness-product": ("power-completeness", PRODUCT, CHAIN2, FIBER3),
    "power-completeness-empty": ("power-completeness", MINIMUM, EMPTY, EMPTY),
}

LABELS = {"elements": ['q"', "b\\s", "c,é"],
          "hom": [["1", "1/2", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
SEQ = {"carrier": CHAIN2, "prefix": ["y"], "cycle": ["x"]}
CYCLE_SEQ = {"carrier": CHAIN2, "cycle": ["x", "y"]}  # hom(x,y) = 1/2: not Cauchy
# hom(x,y) & hom(y,z) = 1/4 > hom(x,z) = 0 under product
NOT_TRANSITIVE = {"elements": ["x", "y", "z"],
                  "hom": [["1", "1/2", "0"], ["0", "1", "1/2"], ["0", "0", "1"]]}
LUKASIEWICZ = TNORMS["lukasiewicz"]
# golden name -> (argv, inputs)
OTHER_CASES = {
    "ccc-suite-collapse": (["ccc-suite", "tnorm", "--values", "0,1/4,1/2,1"],
                           {"tnorm": COLLAPSE}),
    "ccc-suite-lukasiewicz": (["ccc-suite", "tnorm", "--values", "0,1/4,1/2,3/4,1"],
                              {"tnorm": LUKASIEWICZ}),
    "counterexample-lukasiewicz": (["counterexample", "tnorm", "9/10", "9/10", "1/2"],
                                   {"tnorm": LUKASIEWICZ}),
    "limits": (["limits", "--seq", "seq", "--tnorm", "tnorm"],
               {"seq": SEQ, "tnorm": MINIMUM}),
    "product-labels": (["product", "left", "right", "--tnorm", "tnorm"],
                       {"left": LABELS, "right": CHAIN2, "tnorm": MINIMUM}),
    "product-not-transitive": (["product", "left", "right", "--tnorm", "tnorm"],
                               {"left": NOT_TRANSITIVE, "right": CHAIN2, "tnorm": PRODUCT}),
    "check-tnorm-product-zero": (["check-tnorm", "tnorm", "--values", "0"], {"tnorm": PRODUCT}),
    "check-tnorm-product-on-grid": (["check-tnorm", "tnorm", "--values", "0,1/40,1/20"],
                                    {"tnorm": PRODUCT}),
    "limits-not-cauchy": (["limits", "--seq", "seq"], {"seq": CYCLE_SEQ}),
}


# golden name -> (argv, inputs) of the run that each golden file pins
RUNS = {
    **{f"check-tnorm-{name}-{grid}": (["check-tnorm", "tnorm", *GRIDS[grid]],
                                      {"tnorm": TNORMS[name]}) for name, grid in CASES},
    **{name: ([command, "--tnorm", "tnorm", "--base", "base", "--fiber", "fiber"],
              {"tnorm": tnorm, "base": base, "fiber": fiber})
       for name, (command, tnorm, base, fiber) in POWER_CASES.items()},
    **OTHER_CASES,
}


def golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def run_cli(argv, inputs: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run; ``inputs`` are written as
    JSON files and their names in ``argv`` replaced by the paths."""
    with TemporaryDirectory() as tmp:
        paths = {}
        for name, payload in inputs.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(paths.get(a, a)) for a in argv])
    return code, out.getvalue(), err.getvalue()


def case_output(argv, inputs: dict) -> str:
    """The JSON report of a clean run without ``timing_ms``, as the CLI
    renders it, after checking that the CLI wrote it in the report format;
    else the run's exit code and stderr."""
    code, out, err = run_cli(argv, inputs)
    if code != 0 or err:
        assert not out
        return json.dumps({"exit": code, "stderr": err}, indent=2) + "\n"
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    del report["timing_ms"]
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("name, grid", CASES, ids=[f"{n}-{g}" for n, g in CASES])
def test_check_tnorm_report_matches_golden(name, grid):
    golden = f"check-tnorm-{name}-{grid}"
    assert case_output(*RUNS[golden]) == golden_text(golden)


@pytest.mark.parametrize("name", POWER_CASES)
def test_power_report_matches_golden(name):
    assert case_output(*RUNS[name]) == golden_text(name)


@pytest.mark.parametrize("name", OTHER_CASES)
def test_other_report_matches_golden(name):
    assert case_output(*RUNS[name]) == golden_text(name)


def golden_report(name: str) -> dict:
    return json.loads(golden_text(name))


def row_of(report: dict, name: str) -> dict:
    row, = (v for v in report["verdicts"] if v["name"] == name)
    return row


def rejects(report: dict, match: str | None = None) -> None:
    with pytest.raises(ReplayError, match=match):
        replay(report)


GOLDEN_FILES = sorted(path.stem for path in GOLDEN.glob("*.json"))
C1_FAILING = [f"check-tnorm-{name}-{grid}" for name in ("product", "lukasiewicz",
                                                       "nilpotent-minimum") for grid in GRIDS]
# golden name -> the evidence that ``replay`` replays in it, by kind; nothing
# in the other files
REPLAYED = {
    **dict.fromkeys(C1_FAILING, {"C1": 1, "C2": 2}),  # C2 and C3-form
    "check-tnorm-product-zero": {"C1": 1, "C2": 1},  # agreement and C3-form
    "check-tnorm-product-on-grid": {"C1": 2, "C2": 1},  # C1, agreement and C3-form
    "ccc-suite-lukasiewicz": {"C1": 1, "bundle": 1},
    "counterexample-lukasiewicz": {"bundle": 1},
    **dict.fromkeys(["exp-collapse", "exp-minimum"], {"d": 49}),
    "exp-empty": {"d": 1},
    "exp-product-counterexample": {"d": 576, "validate": 1},
    "limits": {"certificate": 4, "laws": 1},
    "limits-not-cauchy": {"cauchy": 1, "certificate": 2},
    "product-not-transitive": {"validate": 2},  # validate-left and validate-product
}


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_report_replays(name):
    assert replay(golden_report(name)) == REPLAYED.get(name, {})


def test_every_c1_failing_golden_run_has_a_witness_to_replay():
    with_c1 = {name for name in GOLDEN_FILES if "C1" in replay(golden_report(name))}
    # the failing agreement rows of product-zero and product-on-grid carry
    # the C1 violation on [0,1]
    assert with_c1 == {*C1_FAILING, "ccc-suite-lukasiewicz",
                       "check-tnorm-product-zero", "check-tnorm-product-on-grid"}


@pytest.mark.parametrize("name", [*C1_FAILING, "ccc-suite-lukasiewicz"])
def test_golden_c1_and_c2_witnesses_replay(name):
    report = golden_report(name)
    counts = replay(report)
    assert {kind: counts.get(kind) for kind in ("C1", "C2")} == (
        {"C1": 1, "C2": None} if name.startswith("ccc-suite") else {"C1": 1, "C2": 2})
    # minimum satisfies C1 and C2, so no recorded violation replays under it
    with pytest.raises(ReplayError, match="breaks no C1"):
        replay(report, amp=min)


# golden name -> the capped sides of its bundle's violated inequality
BUNDLE_FILES = {"counterexample-lukasiewicz": ("1/2", "2/5"),
                "ccc-suite-lukasiewicz": ("1/4", "0")}


@pytest.mark.parametrize("name", BUNDLE_FILES)
def test_golden_counterexample_bundle_replays(name):
    report = golden_report(name)
    result = report["verdicts"][0]["result"]
    violated = result.get("bundle", result)["violated"]  # ccc-suite nests it
    assert (violated["lhs"], violated["rhs"]) == BUNDLE_FILES[name]
    assert replay(report)["bundle"] == 1


FAILING_ROWS = [(name, row) for name in GOLDEN_FILES
                for row in golden_report(name).get("verdicts", ()) if not row["ok"]]
# each row name that fails with a witness -> the first golden file where it
# does (reversed, so that the first one is written last)
WITNESS_ROWS = {row["name"]: name for name, row in reversed(FAILING_ROWS)
                if "lhs" in (row["result"].get("witness") or row["result"])}


@pytest.mark.parametrize("condition", WITNESS_ROWS)
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_replay_rejects_a_changed_side(condition, side):
    report = golden_report(WITNESS_ROWS[condition])
    result = row_of(report, condition)["result"]
    witness = result.get("witness") or result
    assert witness[side] != "1/3"
    witness[side] = "1/3"
    rejects(report)


@pytest.mark.parametrize("name, row", [(name, row["name"]) for name, row in FAILING_ROWS],
                         ids=[f"{name}-{row['name']}" for name, row in FAILING_ROWS])
def test_replay_rejects_a_failing_row_without_evidence(name, row):
    report = golden_report(name)
    row_of(report, row)["result"] = None
    rejects(report, "a failing row with nothing to replay")


@pytest.mark.parametrize("carrier", [
    {"elements": ["x", "y"], "hom": [["1/2", "1/2"], ["0", "1"]]},  # hom(x, x) < 1
    NOT_TRANSITIVE,  # hom(y, z) ∧ hom(x, y) = 1/2 > hom(x, z) = 0
], ids=["reflexivity", "transitivity"])
def test_replay_rejects_a_carrier_that_breaks_the_laws(carrier):
    report = golden_report("limits")
    report["inputs"]["carrier"] = carrier
    rejects(report, "carrier: no category under inputs.tnorm")


def forward_cauchy_report() -> dict:
    """``limits-not-cauchy`` with the ``forward-cauchy`` row that ``limits``
    reports carried before it was dropped: the ``cauchy`` row under its own
    name and note."""
    report = golden_report("limits-not-cauchy")
    cauchy = row_of(report, "cauchy")
    report["verdicts"].insert(1, {**cauchy, "name": "forward-cauchy",
                                  "result": {**cauchy["result"], "note": "forward-cauchy"}})
    return report


def test_replay_reads_a_forward_cauchy_row():
    assert replay(forward_cauchy_report()) == {"cauchy": 2, "certificate": 2}


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_replay_rejects_a_changed_forward_cauchy_side(side):
    report = forward_cauchy_report()
    row_of(report, "forward-cauchy")["result"][side] = "1/3"
    rejects(report)


def test_replay_rejects_a_forward_cauchy_row_without_evidence():
    report = forward_cauchy_report()
    row_of(report, "forward-cauchy")["result"] = None
    rejects(report, "a failing row with nothing to replay")


@pytest.mark.parametrize("name", ["exp-minimum", "exp-product-counterexample"])
def test_replay_rejects_a_dropped_functor(name):
    report = golden_report(name)
    power = row_of(report, "power")["result"]
    for row in [power["functors"], power["d"], *power["d"]]:
        del row[3]
    rejects(report, "functors are not the maps")


@pytest.mark.parametrize("family", ["minimum", "lukasiewicz", "nilpotent-minimum"])
def test_replay_rejects_a_validate_witness_under_another_tnorm(family):
    report = golden_report("product-not-transitive")
    report["inputs"]["tnorm"] = {"family": family}
    rejects(report, "validate-left")


# one recorded value of a bundle each; every d value and capped side of the
# golden bundles is below 1
BUNDLE_MUTATIONS = ["d_fg", "d_gh", "d_fh", "violated.lhs", "violated.rhs",
                    "f=g", "g=h", "h=f"]


def mutate(bundle: dict, mutation: str) -> None:
    """"f=g" gives f the image of g, which makes d(f,g) 1; any other
    mutation raises the value at its key path half way to 1."""
    if "=" in mutation:
        name, other = mutation.split("=")
        bundle[name] = list(bundle[other])
        return
    *path, key = mutation.split(".")
    node = bundle[path[0]] if path else bundle
    node[key] = str((Fraction(node[key]) + 1) / 2)


@pytest.mark.parametrize("mutation", BUNDLE_MUTATIONS)
@pytest.mark.parametrize("name", BUNDLE_FILES)
def test_bundle_replay_rejects_a_changed_value(name, mutation):
    report = golden_report(name)
    result = report["verdicts"][0]["result"]
    bundle = result.get("bundle", result)  # ccc-suite nests it; counterexample is one
    before = json.dumps(bundle)
    mutate(bundle, mutation)
    assert json.dumps(bundle) != before
    rejects(report)


@pytest.mark.parametrize("pair", [("g", "h"), ("f", "g"), ("f", "h")],
                         ids=lambda pair: "d({},{})".format(*pair))
def test_power_witness_replay_rejects_a_changed_d_entry(pair):
    report = golden_report("exp-product-counterexample")
    power, validates = (v["result"] for v in report["verdicts"])
    fgh = dict(zip("fgh", (power["functors"].index(v) for v in validates["values"])))
    row = power["d"][fgh[pair[0]]]
    row[fgh[pair[1]]] = str(Fraction(row[fgh[pair[1]]]) / 2)
    rejects(report)


# (verdict, element, field) of every value in the certificates of ``limits``
CERTIFICATE_VALUES = [
    (verdict["name"], row["element"], field)
    for verdict in golden_report("limits")["verdicts"] if verdict["result"] is not None
    for row in verdict["result"]["certificate"]
    for field, value in row.items() if field != "element" and value is not None
]


@pytest.mark.parametrize("name, element, field", CERTIFICATE_VALUES,
                         ids=["-".join(case) for case in CERTIFICATE_VALUES])
def test_certificate_replay_rejects_a_changed_value(name, element, field):
    report = golden_report("limits")
    row, = (r for r in row_of(report, name)["result"]["certificate"] if r["element"] == element)
    assert row[field] != "1/3"
    row[field] = "1/3"
    rejects(report)


def test_text_report_prints_the_failing_bilimit_certificate():
    code, out, err = run_cli(["limits", "--seq", "seq", "--format", "text"], {"seq": CYCLE_SEQ})
    assert (code, err) == (0, "")
    prefix = "    certificate: "
    line, = (line for line in out.splitlines() if line.startswith(prefix))
    printed = json.loads(line[len(prefix):])
    # the certificate of the golden report, which replays
    assert printed == row_of(golden_report("limits-not-cauchy"), "bilimit")["result"]["certificate"]


@pytest.mark.parametrize("element", CHAIN2["elements"])
@pytest.mark.parametrize("side", ["tails", "homs"])
def test_none_certificate_replay_rejects_a_row_that_agrees(element, side):
    report = golden_report("limits-not-cauchy")
    row = row_of(report, "bilimit")["result"]["certificate"][CHAIN2["elements"].index(element)]
    if side == "tails":
        row["tail_from_seq"], row["tail_to_seq"] = row["hom_from_witness"], row["hom_to_witness"]
    else:
        row["hom_from_witness"], row["hom_to_witness"] = row["tail_from_seq"], row["tail_to_seq"]
    rejects(report)


def test_none_certificate_replay_rejects_a_candidate_that_is_a_bilimit():
    # the recorded rows are recomputed from a cycle whose element x is a
    # bilimit, so x's row agrees, and only the "none" verdict is wrong
    report = golden_report("limits-not-cauchy")
    report["inputs"]["cycle"] = ["x"]
    bilimit = row_of(report, "bilimit")
    report["verdicts"] = [bilimit]
    for row, tails in zip(bilimit["result"]["certificate"], [("1", "1"), ("1/2", "0")]):
        row["tail_from_seq"], row["tail_to_seq"] = tails
    rejects(report, "the row of 'x' contradicts the 'none' verdict")


REPLAY_SCRIPT = Path(__file__).parent / "replay.py"


def test_replay_module_imports_only_the_standard_library():
    nodes = list(ast.walk(ast.parse(REPLAY_SCRIPT.read_text(encoding="utf-8"))))
    modules = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in nodes if isinstance(n, ast.ImportFrom)]
    assert modules and {m.split(".")[0] for m in modules} <= sys.stdlib_module_names


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_replay_command_line(flags, tmp_path):
    # a row that no replay knows, and a witness value that is no rational
    report = golden_report("check-tnorm-product-zero")
    renamed, malformed = tmp_path / "renamed.json", tmp_path / "malformed.json"
    row_of(report, "agreement")["name"] = "no-such-row"
    renamed.write_text(json.dumps(report), encoding="utf-8")
    row_of(report, "C3-form")["result"]["witness"]["lhs"] = "x"
    malformed.write_text(json.dumps(report), encoding="utf-8")
    proc = subprocess.run([sys.executable, *flags, str(REPLAY_SCRIPT), str(renamed), str(malformed),
                           *map(str, sorted(GOLDEN.glob("*.json")))],
                          capture_output=True, text=True, timeout=120)
    # every golden file prints its counts, and each mutated one its failure
    assert (proc.returncode, len(proc.stdout.splitlines())) == (1, len(GOLDEN_FILES))
    first, second = proc.stderr.splitlines()
    assert first == f"{renamed}: ReplayError: no-such-row: no replay for a row named 'no-such-row'"
    assert second.startswith(f"{malformed}: ReplayError: C3-form: malformed evidence: ValueError(")


# The text rendering (``--format text``) of failing runs: the line of each
# failing row is followed by its witness, and a failing ``ccc`` row also by
# its counterexample bundle's d values and violated inequality.
TEXT_CASES = {
    "exp-product-counterexample": (
        ["exp", "--tnorm", "tnorm", "--base", "base", "--fiber", "fiber"],
        {"tnorm": PRODUCT, "base": BUNDLE_BASE, "fiber": BUNDLE_FIBER},
        ["  power-validates: FAIL",
         '    witness: {"values": [["1", "1/2"], ["1/2", "1/4"], ["1/2", "1/16"]], '
         '"lhs": "1/8", "rhs": "1/16", "note": "transitivity"}',
         "certified: True"],
    ),
    "ccc-suite-product": (
        ["ccc-suite", "tnorm", "--grid", "4"],
        {"tnorm": PRODUCT},
        ["  ccc: FAIL",
         '    witness: {"values": ["1/2", "1/2", "1/4"], "lhs": "1/4", "rhs": "1/8", "note": ""}',
         "    d(f,g)=1/2 d(g,h)=1/2 d(f,h)=1/8",
         "    violated: (d_fg & d_gh) ∧ u <= d_fh ∧ u (1/4 > 1/8)",
         "certified: True"],
    ),
    "limits-not-cauchy": (
        ["limits", "--seq", "seq"],
        {"seq": CYCLE_SEQ},
        ["  cauchy: FAIL",
         '    witness: {"values": ["x", "y"], "lhs": "1/2", "rhs": "1", "note": "cauchy"}',
         "  bilimit: FAIL",
         '    certificate: [{"element": "x", "hom_from_witness": "1", "tail_from_seq": "0", '
         '"hom_to_witness": "1", "tail_to_seq": "1/2"}, {"element": "y", '
         '"hom_from_witness": "1", "tail_from_seq": "1/2", "hom_to_witness": "1", '
         '"tail_to_seq": "0"}]',
         "certified: True"],
    ),
}


@pytest.mark.parametrize("name", TEXT_CASES)
def test_text_report_prints_the_witness_of_every_failing_row(name):
    argv, inputs, expected = TEXT_CASES[name]
    code, out, err = run_cli([*argv, "--format", "text"], inputs)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    start = lines.index(expected[0])
    assert lines[start:start + len(expected)] == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, run in RUNS.items():
        (GOLDEN / f"{name}.json").write_text(case_output(*run), encoding="utf-8")
