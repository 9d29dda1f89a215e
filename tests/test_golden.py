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
bundle and its non-ASCII ``∧``), ``counterexample``, ``limits`` and
``product --tnorm`` on labels holding ``"``, ``\\``, ``,`` and ``é``.
Every run also checks the raw report bytes against ``json.dumps`` with
``indent=2, sort_keys=True, ensure_ascii=False`` and a trailing newline,
the report format.

The files are also checked against the law, not only against earlier
output: every C1 and C2 witness in them is replayed from the report's own
t-norm with ``oracles.closed_form_apply``, which shares no code with the
& kernel.  The triple or pair must violate the law, with the recorded
sides.  The failing ``power-validates`` witness (f, g, h) of
``exp-product-counterexample`` is replayed the same way: d(g,h), d(f,g)
and d(f,h) are looked up in the report's own ``functors`` and ``d``, each
is recomputed from the report's base and fiber with
``oracles.power_hom_bruteforce``, and d(g,h) & d(f,g) must exceed d(f,h),
with the recorded sides.  Every certificate row of ``limits`` is
recomputed from the report's carrier and cycle: the homs with the witness
and the cycle minima of the homs.  So is each row of the failing
``bilimit`` verdict of a cycle with no bilimit, where one of the element's
own tails must differ from its hom(x, x) = 1.  The counterexample bundles
of ``counterexample-lukasiewicz`` and ``ccc-suite-lukasiewicz`` are
replayed from their own base and fiber: f, g and h must be functors,
d(f,g), d(g,h) and d(f,h) are recomputed with
``oracles.power_hom_bruteforce``, and the interchange, transitivity and
capped sides with ``oracles.closed_form_apply``.

The text rendering of three failing runs is pinned line by line: in it,
every failing row is followed by its witness.

The files are written by this module's ``__main__`` block; rewrite them only
when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from tnormcat import jsonio
from tnormcat.cli import main

from oracles import closed_form_apply, power_hom_bruteforce

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
}


def golden_path(name: str, grid: str) -> Path:
    return GOLDEN / f"check-tnorm-{name}-{grid}.json"


def case_golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


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


def masked(stdout: str) -> str:
    """A JSON report without ``timing_ms``, as the CLI renders it; checks
    first that the CLI wrote it in the report format."""
    report = json.loads(stdout)
    assert stdout == json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    del report["timing_ms"]
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def masked_report(name: str, grid: str) -> str:
    """The JSON report of one ``check-tnorm`` run, without ``timing_ms``."""
    code, out, _ = run_cli(["check-tnorm", "tnorm", *GRIDS[grid]], {"tnorm": TNORMS[name]})
    assert code == 0
    return masked(out)


def power_output(name: str) -> str:
    command, tnorm, base, fiber = POWER_CASES[name]
    return case_output(
        [command, "--tnorm", "tnorm", "--base", "base", "--fiber", "fiber"],
        {"tnorm": tnorm, "base": base, "fiber": fiber},
    )


def case_output(argv, inputs: dict) -> str:
    """The masked report of a clean run, else its exit code and stderr."""
    code, out, err = run_cli(argv, inputs)
    if code == 0 and not err:
        return masked(out)
    assert not out
    return json.dumps({"exit": code, "stderr": err}, indent=2) + "\n"


@pytest.mark.parametrize("name, grid", CASES, ids=[f"{n}-{g}" for n, g in CASES])
def test_check_tnorm_report_matches_golden(name, grid):
    assert masked_report(name, grid) == golden_path(name, grid).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", POWER_CASES)
def test_power_report_matches_golden(name):
    assert power_output(name) == case_golden_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", OTHER_CASES)
def test_other_report_matches_golden(name):
    assert case_output(*OTHER_CASES[name]) == case_golden_path(name).read_text(encoding="utf-8")


def condition_witnesses(node):
    """Every failing C1 or C2 report of a JSON report, at any depth."""
    if isinstance(node, list):
        return [w for item in node for w in condition_witnesses(item)]
    if not isinstance(node, dict):
        return []
    if node.get("condition") in ("C1", "C2") and node.get("witness") is not None:
        return [node]
    return [w for value in node.values() for w in condition_witnesses(value)]


def replay(report: dict) -> int:
    """Replay the C1 and C2 witnesses of a report on its own t-norm; the
    number replayed.  Each must break the law with the recorded sides."""
    t = jsonio.tnorm_from_dict(report["inputs"]["tnorm"])

    def tand(p, q):
        return closed_form_apply(t, p, q)

    found = condition_witnesses(report)
    for node in found:
        w = node["witness"]
        values = [Fraction(v) for v in w["values"]]
        if node["condition"] == "C1":
            p, q, u = values
            lhs = min(tand(p, q), u)
            rhs = max(tand(min(p, u), q), tand(p, min(q, u)))
            assert lhs != rhs, values
        else:
            p, u = values
            lhs, rhs = tand(u, p), u
            assert u <= tand(p, p) and lhs != rhs, values
        assert (lhs, rhs) == (Fraction(w["lhs"]), Fraction(w["rhs"])), values
    return len(found)


def golden_report(name: str) -> dict:
    return json.loads(case_golden_path(name).read_text(encoding="utf-8"))


WITNESS_FILES = sorted(path.stem for path in GOLDEN.glob("*.json")
                       if condition_witnesses(json.loads(path.read_text(encoding="utf-8"))))


def test_every_c1_failing_golden_run_has_a_witness_to_replay():
    failing = {f"check-tnorm-{name}-{grid}" for name in ("product", "lukasiewicz",
                                                        "nilpotent-minimum") for grid in GRIDS}
    assert set(WITNESS_FILES) == failing | {"ccc-suite-lukasiewicz"}


@pytest.mark.parametrize("name", WITNESS_FILES)
def test_golden_c1_and_c2_witnesses_replay(name):
    report = golden_report(name)
    assert replay(report) == (1 if name.startswith("ccc-suite") else 2)


@pytest.mark.parametrize("condition", ["C1", "C2"])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_replay_rejects_a_changed_side(condition, side):
    report = golden_report("check-tnorm-product-values")
    node, = (w for w in condition_witnesses(report) if w["condition"] == condition)
    node["witness"][side] = str(Fraction(node["witness"][side]) / 2)
    with pytest.raises(AssertionError):
        replay(report)


def replay_power_witness(report: dict) -> tuple[Fraction, Fraction]:
    """Replay the failing ``power-validates`` row of an ``exp`` report from
    its own ``functors`` and ``d``; the sides (d(g,h) & d(f,g), d(f,h))."""
    inputs = report["inputs"]
    t = jsonio.tnorm_from_dict(inputs["tnorm"])
    base = jsonio.category_from_dict(inputs["base"])
    fiber = jsonio.category_from_dict(inputs["fiber"])
    power, w = (v["result"] for v in report["verdicts"])
    functors = power["functors"]

    def d(f, g):
        value = Fraction(power["d"][functors.index(f)][functors.index(g)])
        assert value == power_hom_bruteforce(base, fiber, f, g), (f, g)
        return value

    f, g, h = w["values"]
    lhs, rhs = closed_form_apply(t, d(g, h), d(f, g)), d(f, h)
    assert w["note"] == "transitivity" and lhs > rhs
    assert (lhs, rhs) == (Fraction(w["lhs"]), Fraction(w["rhs"]))
    return lhs, rhs


def replay_certificates(report: dict) -> int:
    """Recompute every certificate row of a ``limits`` report from its carrier
    and cycle; the number of rows replayed.  A bilimit or Yoneda limit must
    agree with every row; under a "none" verdict each row's element is the
    candidate, and one of its own tails must differ from its hom(x, x) = 1."""
    carrier, cycle = report["inputs"]["carrier"], report["inputs"]["cycle"]
    labels = carrier["elements"]
    hom = {(x, y): Fraction(v)
           for x, row in zip(labels, carrier["hom"]) for y, v in zip(labels, row)}
    rows = 0
    for verdict in report["verdicts"]:
        result = verdict["result"]
        if not result or "certificate" not in result:
            continue
        kind = result["kind"]
        assert verdict["ok"] == (kind != "none")
        assert (result["witness"] is None) == (kind == "none")
        assert [row["element"] for row in result["certificate"]] == labels
        for row in result["certificate"]:
            x = row["element"]
            a = x if kind == "none" else result["witness"]
            from_seq = [hom[a, x], min(hom[c, x] for c in cycle)]
            to_seq = [hom[x, a], min(hom[x, c] for c in cycle)]
            agree = from_seq[0] == from_seq[1] and to_seq[0] == to_seq[1]
            if kind == "none":
                assert hom[x, x] == 1 and not agree, x
            else:
                assert agree, x
            if kind == "yoneda-limit":
                to_seq = [None, None]
            recorded = [None if v is None else Fraction(v)
                        for v in (row["hom_from_witness"], row["tail_from_seq"],
                                  row["hom_to_witness"], row["tail_to_seq"])]
            assert recorded == from_seq + to_seq, x
            rows += 1
    return rows


def golden_bundle(name: str) -> tuple[dict, list]:
    """The counterexample bundle of a golden report, with the triple that
    the report names: ``counterexample``'s input, or ``ccc-suite``'s C1
    witness."""
    report = golden_report(name)
    result = report["verdicts"][0]["result"]
    if report["command"] == "counterexample":
        return result, report["inputs"]["triple"]
    return result["bundle"], result["c1"]["witness"]["values"]


def replay_bundle(bundle: dict, triple: list) -> tuple[Fraction, Fraction]:
    """Replay a counterexample bundle from its own t-norm, base, fiber and
    functors; the capped sides ((d_fg & d_gh) ∧ u, d_fh ∧ u)."""
    t = jsonio.tnorm_from_dict(bundle["tnorm"])
    base = jsonio.category_from_dict(bundle["base"])
    fiber = jsonio.category_from_dict(bundle["fiber"])

    def tand(a, b):
        return closed_form_apply(t, a, b)

    def recorded(node):
        return Fraction(node["lhs"]), Fraction(node["rhs"])

    assert [bundle["p"], bundle["q"], bundle["u"]] == triple
    p, q, u = map(Fraction, triple)
    n = len(base.elements)
    for name in "fgh":
        image = bundle[name]
        assert len(image) == n, name
        assert all(base.hom[i][j] <= fiber.hom_of(image[i], image[j])
                   for i in range(n) for j in range(n)), name
    d = {}
    for key, a, b in (("d_fg", "f", "g"), ("d_gh", "g", "h"), ("d_fh", "f", "h")):
        d[key] = power_hom_bruteforce(base, fiber, bundle[a], bundle[b])
        assert Fraction(bundle[key]) == d[key], key
    interchange = (min(tand(p, q), u), max(tand(min(p, u), q), tand(p, min(q, u))))
    assert interchange[0] != interchange[1] and recorded(bundle["interchange"]) == interchange
    transitivity = (tand(d["d_fg"], d["d_gh"]), d["d_fh"])
    assert recorded(bundle["transitivity"]) == transitivity
    capped = (min(transitivity[0], u), min(transitivity[1], u))
    assert capped[0] > capped[1] and recorded(bundle["violated"]) == capped
    return capped


BUNDLE_FILES = {"counterexample-lukasiewicz": (Fraction(1, 2), Fraction(2, 5)),
                "ccc-suite-lukasiewicz": (Fraction(1, 4), Fraction(0))}


@pytest.mark.parametrize("name", BUNDLE_FILES)
def test_golden_counterexample_bundle_replays(name):
    assert replay_bundle(*golden_bundle(name)) == BUNDLE_FILES[name]


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
    bundle, triple = golden_bundle(name)
    before = json.dumps(bundle)
    mutate(bundle, mutation)
    assert json.dumps(bundle) != before
    with pytest.raises(AssertionError):
        replay_bundle(bundle, triple)


def test_golden_power_validates_witness_replays():
    report = golden_report("exp-product-counterexample")
    assert replay_power_witness(report) == (Fraction(1, 8), Fraction(1, 16))


@pytest.mark.parametrize("pair", [("g", "h"), ("f", "g"), ("f", "h")],
                         ids=lambda pair: "d({},{})".format(*pair))
def test_power_witness_replay_rejects_a_changed_d_entry(pair):
    report = golden_report("exp-product-counterexample")
    power, validates = (v["result"] for v in report["verdicts"])
    fgh = dict(zip("fgh", (power["functors"].index(v) for v in validates["values"])))
    row = power["d"][fgh[pair[0]]]
    row[fgh[pair[1]]] = str(Fraction(row[fgh[pair[1]]]) / 2)
    with pytest.raises(AssertionError):
        replay_power_witness(report)


def test_golden_limit_certificates_replay():
    assert replay_certificates(golden_report("limits")) == 4


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
    verdict, = (v for v in report["verdicts"] if v["name"] == name)
    row, = (r for r in verdict["result"]["certificate"] if r["element"] == element)
    assert row[field] != "1/3"
    row[field] = "1/3"
    with pytest.raises(AssertionError):
        replay_certificates(report)


CYCLE_SEQ = {"carrier": CHAIN2, "cycle": ["x", "y"]}  # hom(x,y) = 1/2: not Cauchy


def failing_limits_report() -> dict:
    """The ``limits`` report of a cycle with no bilimit."""
    code, out, _ = run_cli(["limits", "--seq", "seq"], {"seq": CYCLE_SEQ})
    assert code == 0
    return json.loads(out)


def test_failing_bilimit_certificate_replays():
    report = failing_limits_report()
    bilimit, = (v for v in report["verdicts"] if v["name"] == "bilimit")
    assert bilimit["result"]["kind"] == "none"
    assert replay_certificates(report) == len(CHAIN2["elements"])


def test_text_report_prints_the_failing_bilimit_certificate():
    code, out, err = run_cli(["limits", "--seq", "seq", "--format", "text"], {"seq": CYCLE_SEQ})
    assert (code, err) == (0, "")
    prefix = "    certificate: "
    line, = (line for line in out.splitlines() if line.startswith(prefix))
    printed = json.loads(line[len(prefix):])
    report = failing_limits_report()
    bilimit, = (v for v in report["verdicts"] if v["name"] == "bilimit")
    assert printed == bilimit["result"]["certificate"]
    bilimit["result"]["certificate"] = printed
    assert replay_certificates(report) == len(CHAIN2["elements"])


@pytest.mark.parametrize("element", CHAIN2["elements"])
@pytest.mark.parametrize("side", ["tails", "homs"])
def test_none_certificate_replay_rejects_a_row_that_agrees(element, side):
    report = failing_limits_report()
    bilimit, = (v for v in report["verdicts"] if v["name"] == "bilimit")
    row, = (r for r in bilimit["result"]["certificate"] if r["element"] == element)
    if side == "tails":
        row["tail_from_seq"], row["tail_to_seq"] = row["hom_from_witness"], row["hom_to_witness"]
    else:
        row["hom_from_witness"], row["hom_to_witness"] = row["tail_from_seq"], row["tail_to_seq"]
    with pytest.raises(AssertionError):
        replay_certificates(report)


def test_none_certificate_replay_rejects_a_candidate_that_is_a_bilimit():
    # the recorded rows are recomputed from a cycle whose element x is a
    # bilimit, so x's row agrees, and only the "none" verdict is wrong
    report = failing_limits_report()
    report["inputs"]["cycle"] = ["x"]
    bilimit, = (v for v in report["verdicts"] if v["name"] == "bilimit")
    for row, tails in zip(bilimit["result"]["certificate"], [("1", "1"), ("1/2", "0")]):
        row["tail_from_seq"], row["tail_to_seq"] = tails
    with pytest.raises(AssertionError, match=r"\Ax\n"):
        replay_certificates(report)


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
         "  forward-cauchy: FAIL",
         '    witness: {"values": ["x", "y"], "lhs": "1/2", "rhs": "1", '
         '"note": "forward-cauchy"}',
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
    for name, grid in CASES:
        golden_path(name, grid).write_text(masked_report(name, grid), encoding="utf-8")
    for name in POWER_CASES:
        case_golden_path(name).write_text(power_output(name), encoding="utf-8")
    for name, case in OTHER_CASES.items():
        case_golden_path(name).write_text(case_output(*case), encoding="utf-8")
