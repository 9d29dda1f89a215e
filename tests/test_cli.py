import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNITS, broken_ands, collapse_norms, install_and, tail_seqs
from tnormcat import (
    ConditionReport,
    InvariantError,
    cli,
    completeness,
    is_cauchy,
    jsonio,
    lukasiewicz,
    minimum,
    nilpotent_minimum,
    product_tnorm,
    tnorms,
    validate,
)
from tnormcat.cli import main
from tnormcat.rationals import format_rational
from tnormcat.tnorms import DEFAULT_GRID_N

from replay import ReplayError, replay


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "minimum": write("minimum.json", {"family": "minimum"}),
        "lukasiewicz": write("luka.json", {"family": "lukasiewicz"}),
        "collapse": write(
            "ic.json",
            {"family": "interval-collapse", "intervals": [["1/4", "1/2"]]},
        ),
        "overlap": write(
            "overlap.json",
            {"family": "interval-collapse",
             "intervals": [["1/5", "1/2"], ["2/5", "3/5"]]},
        ),
        "chain": write(
            "chain.json",
            {"elements": ["x", "y"], "hom": [["1", "1/2"], ["0", "1"]]},
        ),
        "seq": write(
            "seq.json",
            {
                "carrier": {"elements": ["x", "y"],
                            "hom": [["1", "1/2"], ["0", "1"]]},
                "prefix": ["y"],
                "cycle": ["x"],
            },
        ),
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_report(stdout):
    return json.loads(stdout)


class TestCheckTnorm:
    def test_minimum_all_pass_certified(self, files, capsys):
        code, out, _ = run(capsys, "check-tnorm", files["minimum"], "--grid", "12")
        assert code == 0
        report = parse_report(out)
        names = {v["name"]: v["ok"] for v in report["verdicts"]}
        assert names == {"C1": True, "C2": True, "C3-form": True,
                         "axioms": True, "agreement": True}
        c1 = next(v for v in report["verdicts"] if v["name"] == "C1")
        assert c1["result"]["certified"] is True

    def test_lukasiewicz_fails_with_agreeing_witnesses(self, files, capsys):
        code, out, _ = run(capsys, "check-tnorm", files["lukasiewicz"],
                           "--fail-on-violation")
        assert code == 2
        report = parse_report(out)
        by_name = {v["name"]: v for v in report["verdicts"]}
        assert not by_name["C1"]["ok"] and not by_name["C2"]["ok"]
        assert not by_name["C3-form"]["ok"]
        assert by_name["agreement"]["ok"]

    def test_overlapping_intervals_exit_1(self, files, capsys):
        code, _, err = run(capsys, "check-tnorm", files["overlap"])
        assert code == 1
        assert "disjoint" in err

    def test_witness_replay(self, files, capsys):
        code, out, _ = run(capsys, "check-tnorm", files["lukasiewicz"])
        assert code == 0
        report = parse_report(out)
        c1 = next(v for v in report["verdicts"] if v["name"] == "C1")
        witness_values = c1["result"]["witness"]["values"]
        replay_grid = ",".join(witness_values)
        code2, out2, _ = run(capsys, "check-tnorm", files["lukasiewicz"],
                             "--values", replay_grid)
        c1_replay = next(v for v in parse_report(out2)["verdicts"]
                         if v["name"] == "C1")
        assert not c1_replay["ok"]
        assert c1_replay["result"]["witness"]["lhs"] == c1["result"]["witness"]["lhs"]
        assert c1_replay["result"]["witness"]["rhs"] == c1["result"]["witness"]["rhs"]

    def test_report_deterministic_modulo_timing(self, files, capsys):
        def normalized():
            code, out, _ = run(capsys, "check-tnorm", files["collapse"],
                               "--grid", "12")
            assert code == 0
            data = parse_report(out)
            data.pop("timing_ms")
            return json.dumps(data, sort_keys=True)

        assert normalized() == normalized()


    def test_degenerate_interval_recorded_as_normalized_away(self, tmp_path, capsys):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"family": "interval-collapse",
                                    "intervals": [["1/4", "1/4"], ["1/2", "3/4"]]}))
        code, out, _ = run(capsys, "check-tnorm", str(path), "--grid", "4")
        assert code == 0
        inputs = parse_report(out)["inputs"]
        assert inputs["normalized_away"] == [["1/4", "1/4"]]
        assert inputs["tnorm"]["intervals"] == [["1/2", "3/4"]]

    def test_text_format_prints_witness(self, files, capsys):
        code, out, _ = run(capsys, "check-tnorm", files["lukasiewicz"],
                           "--values", "1/2,9/10", "--format", "text")
        assert code == 0
        assert ('  C1: FAIL\n    witness: {"values": ["9/10", "9/10", "1/2"], '
                '"lhs": "1/2", "rhs": "2/5", "note": ""}\n') in out

    @pytest.mark.parametrize("family", ["minimum", "lukasiewicz", "collapse"])
    def test_one_product_table_per_run(self, files, family, capsys, monkeypatch):
        # C1 and the axioms share the grid² table of one run, and no table
        # is kept for the next run
        calls = []
        real = tnorms._rank_products
        monkeypatch.setattr(
            tnorms, "_rank_products", lambda t, pts: calls.append(None) or real(t, pts)
        )
        assert run(capsys, "check-tnorm", files[family])[0] == 0
        assert len(calls) == 1
        assert run(capsys, "check-tnorm", files[family])[0] == 0
        assert len(calls) == 2


class TestOtherCommands:
    def test_counterexample_bundle(self, files, capsys):
        code, out, _ = run(capsys, "counterexample", files["lukasiewicz"],
                           "9/10", "9/10", "1/2")
        assert code == 0
        report = parse_report(out)
        bundle = report["verdicts"][0]["result"]
        assert bundle["d_fg"] == "9/10" and bundle["d_gh"] == "9/10"
        assert bundle["violated"]["lhs"] == "1/2"
        assert bundle["violated"]["rhs"] == "2/5"

    def test_counterexample_requires_violating_triple(self, files, capsys):
        code, _, err = run(capsys, "counterexample", files["minimum"],
                           "9/10", "9/10", "1/2")
        assert code == 1 and "does not violate" in err

    def test_exp_and_product(self, files, capsys):
        code, out, _ = run(capsys, "exp", "--tnorm", files["collapse"],
                           "--base", files["chain"], "--fiber", files["chain"])
        assert code == 0
        report = parse_report(out)
        assert {v["name"] for v in report["verdicts"]} == {"power", "power-validates"}
        code, out, _ = run(capsys, "product", files["chain"], files["chain"],
                           "--tnorm", files["minimum"])
        assert code == 0
        prod = parse_report(out)["verdicts"][0]["result"]
        assert len(prod["elements"]) == 4

    def test_product_labels_render_distinctly(self, tmp_path, capsys):
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        discrete = [["1", "0"], ["0", "1"]]
        left.write_text(json.dumps({"elements": ["a", "a,"], "hom": discrete}))
        right.write_text(json.dumps({"elements": [",x", "x"], "hom": discrete}))
        code, out, _ = run(capsys, "product", str(left), str(right))
        assert code == 0
        prod = parse_report(out)["verdicts"][0]["result"]
        assert prod["elements"] == ["(a,\\,x)", "(a,x)", "(a\\,,\\,x)", "(a\\,,x)"]
        assert jsonio.category_to_dict(jsonio.category_from_dict(prod)) == prod

    def test_ccc_suite_pass_and_fail(self, files, capsys):
        code, out, _ = run(capsys, "ccc-suite", files["collapse"],
                           "--values", "0,1/4,1/2,1", "--max-size", "2")
        assert code == 0
        assert parse_report(out)["verdicts"][0]["ok"]
        code, out, _ = run(capsys, "ccc-suite", files["lukasiewicz"],
                           "--fail-on-violation")
        assert code == 2
        assert replay(parse_report(out)) == {"C1": 1, "bundle": 1}

    def test_limits(self, files, capsys):
        code, out, _ = run(capsys, "limits", "--seq", files["seq"])
        assert code == 0
        by_name = {v["name"]: v for v in parse_report(out)["verdicts"]}
        assert by_name["bilimit"]["result"]["witness"] == "x"
        assert by_name["yoneda-limit"]["result"]["witness"] == "x"

    @settings(max_examples=60, deadline=None)
    @given(seq=tail_seqs())
    def test_limits_rows_follow_the_cauchy_row(self, seq):
        # one Cauchy row, since forward Cauchy coincides with it, and a
        # Yoneda-limit row exactly when it passes
        payload = {"carrier": jsonio.category_to_dict(seq.carrier),
                   "prefix": list(seq.prefix), "cycle": list(seq.cycle)}
        out = io.StringIO()
        with TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            path = Path(tmp) / "seq.json"
            path.write_text(json.dumps(payload))
            assert main(["limits", "--seq", str(path)]) == 0
        rows = parse_report(out.getvalue())["verdicts"]
        cauchy = is_cauchy(seq) is None
        assert [v["name"] for v in rows] == ["cauchy", "bilimit"] + ["yoneda-limit"] * cauchy
        assert rows[0]["ok"] == cauchy

    @pytest.mark.parametrize("tnorm", [None, "minimum", "lukasiewicz"])
    def test_limits_scans_the_carrier_laws_once(self, files, capsys, monkeypatch, tnorm):
        # validate under --tnorm, else the law check of find_bilimit; the
        # sequence is forward Cauchy, so the Yoneda limit is searched too
        scans = []

        def counted(cat, t):
            scans.append(t)
            return validate(cat, t)

        monkeypatch.setattr(cli, "validate", counted)
        monkeypatch.setattr(completeness, "validate", counted)
        argv = ["limits", "--seq", files["seq"]] + (["--tnorm", files[tnorm]] if tnorm else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "yoneda-limit" in {v["name"] for v in parse_report(out)["verdicts"]}
        assert len(scans) == 1

    def test_power_completeness(self, files, capsys):
        code, out, _ = run(capsys, "power-completeness",
                           "--tnorm", files["collapse"],
                           "--base", files["chain"], "--fiber", files["chain"])
        assert code == 0
        assert parse_report(out)["verdicts"][0]["ok"]

    def test_empty_sweeps_exit_1(self, files, capsys):
        code, out, err = run(capsys, "ccc-suite", files["collapse"],
                             "--values", "0,1/4,1/2,1", "--max-size", "0")
        assert (code, out) == (1, "") and "max size must be >= 1" in err
        code, out, err = run(capsys, "power-completeness", "--tnorm", files["collapse"],
                             "--base", files["chain"], "--fiber", files["chain"],
                             "--max-size", "-1")
        assert (code, out) == (1, "") and "cycle budget must be >= 1" in err

    def test_blank_values_exit_1(self, files, capsys):
        code, out, err = run(capsys, "ccc-suite", files["minimum"], "--values", "")
        assert (code, out) == (1, "") and "--values must list at least one rational" in err

    def test_budget_exit_code(self, files, capsys):
        code, _, err = run(capsys, "ccc-suite", files["minimum"],
                           "--values", "0,1/8,1/4,3/8,1/2,5/8,3/4,7/8,1",
                           "--max-size", "3", "--budget", "1000")
        assert code == 3 and "budget" in err.lower()

    def test_negative_budget_exit_1(self, files, capsys):
        code, out, err = run(capsys, "ccc-suite", files["minimum"],
                             "--values", "0,1", "--budget", "-5")
        assert (code, out) == (1, "")
        assert "error: argument --budget: must be >= 0, got -5" in err

    def test_non_integer_budget_exit_1(self, files, capsys):
        code, out, err = run(capsys, "ccc-suite", files["minimum"],
                             "--values", "0,1", "--budget", "abc")
        assert (code, out) == (1, "")
        assert "error: argument --budget: invalid int value: 'abc'" in err

    def test_default_flags_count_the_canonical_grid(self, files, capsys):
        # 41 grid points: 1 category of size 1 and 41**2 of size 2, within
        # the default budget; no bound applies to the 1682**3 triples
        code, out, _ = run(capsys, "ccc-suite", files["minimum"])
        assert code == 0
        ccc = parse_report(out)["verdicts"][0]
        assert ccc["ok"] and ccc["result"]["categories"] == 1682

    def test_zero_budget_exit_3(self, files, capsys):
        code, out, err = run(capsys, "ccc-suite", files["minimum"], "--values", "0,1",
                             "--budget", "0")
        assert (code, out) == (3, "") and "the budget is 0" in err

    def test_limits_invalid_carrier_exit_1(self, files, capsys, tmp_path):
        # hom(x,y) & hom(y,z) = 1 > hom(x,z) under every t-norm
        seq = tmp_path / "bad_seq.json"
        seq.write_text(json.dumps({
            "carrier": {"elements": ["x", "y", "z"],
                        "hom": [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]},
            "cycle": ["x"],
        }))
        code, out, err = run(capsys, "limits", "--seq", str(seq),
                             "--tnorm", files["minimum"])
        assert (code, out) == (1, "")
        assert "carrier is not a valid category" in err

    def test_limits_non_category_carrier_without_tnorm_exit_1(self, capsys, tmp_path):
        # hom(y,x) = 1 and hom(x,z) = 1/2 but hom(y,z) = 0: the carrier breaks
        # transitivity under every t-norm, so no --tnorm is needed to reject it
        seq = tmp_path / "bad_seq.json"
        seq.write_text(json.dumps({
            "carrier": {"elements": ["x", "y", "z"],
                        "hom": [["1", "1", "1/2"], ["1", "1", "0"], ["0", "0", "1"]]},
            "cycle": ["y"],
        }))
        code, out, err = run(capsys, "limits", "--seq", str(seq))
        assert (code, out) == (1, "")
        assert err == "error: carrier is not a valid category at ('y', 'x', 'z'): transitivity\n"

    def test_limits_non_reflexive_carrier_exit_1(self, capsys, tmp_path):
        # hom(x,x) = 1/2 is a category under no t-norm
        seq = tmp_path / "bad_seq.json"
        seq.write_text(json.dumps({
            "carrier": {"elements": ["x"], "hom": [["1/2"]]},
            "cycle": ["x"],
        }))
        code, out, err = run(capsys, "limits", "--seq", str(seq), "--format", "text")
        assert (code, out) == (1, "")
        assert err == "error: carrier is not a valid category at ('x',): reflexivity\n"

    @pytest.mark.parametrize(
        "fault", [InvariantError("broken certificate"), RuntimeError("boom")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_internal_fault_exit_4(self, files, capsys, monkeypatch, fault):
        def broken(*args):
            raise fault

        monkeypatch.setattr(cli, "counterexample", broken)
        code, out, err = run(capsys, "counterexample", files["lukasiewicz"],
                             "9/10", "9/10", "1/2")
        assert (code, out) == (4, "")
        assert f"internal error: {type(fault).__name__}: {fault}" in err

    def test_failing_report_without_witness_exit_4(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_condition_sweeps",
                            lambda t, grid: (ConditionReport("C1", False),) * 3)
        code, out, err = run(capsys, "check-tnorm", files["minimum"])
        assert (code, out) == (4, "")
        assert err == "internal error: InvariantError: a failing report must carry a witness\n"

    def test_output_file(self, files, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "check-tnorm", files["minimum"],
                           "--grid", "8", "-o", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["command"] == "check-tnorm"

    def test_text_format(self, files, capsys):
        code, out, _ = run(capsys, "counterexample", files["lukasiewicz"],
                           "9/10", "9/10", "1/2", "--format", "text")
        assert code == 0
        assert "d(f,g)=9/10" in out and "violated" in out

    def test_malformed_rational_on_cli(self, files, capsys):
        code, _, err = run(capsys, "counterexample", files["lukasiewicz"],
                           "nine/ten", "9/10", "1/2")
        assert code == 1 and "cannot parse rational" in err

    def test_intervals_not_a_list_exit_1(self, tmp_path, capsys):
        path = tmp_path / "ic.json"
        path.write_text(json.dumps({"family": "interval-collapse", "intervals": 5}))
        code, out, err = run(capsys, "check-tnorm", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and 'requires an "intervals" list' in err

    @pytest.mark.parametrize("field, value, message", [
        ("prefix", 5, '"prefix" must be a list'),
        ("prefix", "xx", '"prefix" must be a list'),
        ("cycle", [["x"]], "labels must be strings"),
    ], ids=["prefix-int", "prefix-string", "cycle-list-label"])
    def test_malformed_sequence_exit_1(self, tmp_path, capsys, field, value, message):
        payload = {"carrier": {"elements": ["x", "y"],
                               "hom": [["1", "1/2"], ["0", "1"]]},
                   "prefix": ["y"], "cycle": ["x"]}
        payload[field] = value
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "limits", "--seq", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("argv, payload, message", [
        (["check-tnorm", "{minimum}", "--grid", "0"], None, "grid size must be >= 1"),
        (["check-tnorm", "{input}"], [], 't-norm JSON must be an object with a "family" key'),
        (["check-tnorm", "{input}"], {"family": "interval-collapse", "intervals": [["1/4"]]},
         "intervals[0] must be a two-element list"),
        (["check-tnorm", "{missing}"], None,
         "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
        (["product", "{input}", "{chain}"], [], "{input}: expected an object"),
        (["product", "{input}", "{chain}"], {"elements": ["x"]},
         '{input}: needs "elements" and "hom" keys'),
        (["product", "{input}", "{chain}"], {"elements": [0], "hom": [["1"]]},
         "{input}: elements must be a list of strings"),
        (["product", "{input}", "{chain}"], {"elements": ["x", "y"], "hom": [["1", "0"], ["1"]]},
         "{input}: hom[1] must have one entry per element"),
        (["product", "{chain}", "{input}"], {"elements": ["x"], "hom": [[True]]},
         "{input}: hom[0][0]: expected a rational string, got True"),
        (["product", "{chain}", "{input}"],
         {"elements": ["x", "y"], "hom": [["1", 0.5], ["0", "1"]]},
         "{input}: hom[0][1]: expected a rational string, got 0.5"),
        (["limits", "--seq", "{input}"], {"carrier": 5, "cycle": ["x"]},
         '{input}: "carrier" must be a path or inline category'),
        (["limits", "--seq", "{input}"], [], "{input}: expected an object"),
        (["limits", "--seq", "{input}"],
         {"carrier": {"elements": ["x"], "hom": [["1"]]}, "prefix": ["q"], "cycle": ["x"]},
         "{input}: unknown element 'q'"),
        (["limits", "--seq", "{input}"],
         {"carrier": {"elements": ["x"], "hom": [["1"]]}, "cycle": ["x", "q"]},
         "{input}: unknown element 'q'"),
        (["exp", "--tnorm", "{minimum}", "--base", "{input}", "--fiber", "{chain}"],
         {"elements": ["x", "y", "x"], "hom": [["1"] * 3] * 3},
         "{input}: elements[2] repeats 'x'"),
        (["exp", "--tnorm", "{minimum}", "--base", "{chain}", "--fiber", "{input}"],
         {"elements": ["x", "x"], "hom": [["1", "1"], ["1", "1"]]},
         "{input}: elements[1] repeats 'x'"),
    ], ids=["grid-0", "tnorm-list", "interval-single", "missing-file", "category-list",
            "category-no-hom", "category-int-labels", "category-short-row", "hom-true",
            "hom-float", "sequence-carrier-int", "sequence-list", "sequence-prefix-label",
            "sequence-cycle-label", "base-repeated-label",
            "fiber-repeated-label"])
    def test_malformed_input_exit_1(self, files, tmp_path, capsys, argv, payload, message):
        paths = {"minimum": files["minimum"], "chain": files["chain"],
                 "input": str(tmp_path / "input.json"), "missing": str(tmp_path / "missing.json")}
        if payload is not None:
            Path(paths["input"]).write_text(json.dumps(payload))
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out, err) == (1, "", f"error: {message.format(**paths)}\n")

    @pytest.mark.parametrize("text, message", [
        pytest.param("1" * 5000, "integer string conversion", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["int-digits", "deep-array"])
    def test_unparsable_json_exit_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run(capsys, "check-tnorm", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: cannot parse JSON: ") and message in err


def base_argv(files, command):
    pair = ["--tnorm", files["collapse"], "--base", files["chain"],
            "--fiber", files["chain"]]
    return {
        "check-tnorm": ["check-tnorm", files["minimum"]],
        "product": ["product", files["chain"], files["chain"]],
        "exp": ["exp"] + pair,
        "ccc-suite": ["ccc-suite", files["collapse"]],
        "counterexample": ["counterexample", files["lukasiewicz"], "9/10", "9/10", "1/2"],
        "limits": ["limits", "--seq", files["seq"]],
        "power-completeness": ["power-completeness"] + pair,
    }[command]


FLAG_VALUES = {"--budget": "5", "--grid": "3", "--values": "0,1/2,1", "--max-size": "2"}
# (subcommand, flag) pairs whose handler does not read the flag
UNREAD_FLAGS = (
    [(c, "--budget")
     for c in ("check-tnorm", "product", "counterexample", "limits", "power-completeness")]
    + [(c, f) for f in ("--grid", "--values")
       for c in ("product", "exp", "counterexample", "limits", "power-completeness")]
    + [(c, "--max-size")
       for c in ("check-tnorm", "product", "exp", "counterexample", "limits")]
)


def usage_prog(text):
    """The program name on the usage line that starts ``text``."""
    assert text.startswith("usage: ")
    return text.removeprefix("usage: ").split(" [-h]")[0]


class TestCommandLine:
    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                             ids=[f"{c}{f}" for c, f in UNREAD_FLAGS])
    def test_unread_flag_exits_1(self, files, capsys, command, flag):
        argv = base_argv(files, command) + [flag, FLAG_VALUES[flag]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command", ["check-tnorm", "ccc-suite"])
    def test_grid_and_values_exclusive(self, files, capsys, command):
        argv = base_argv(files, command) + ["--grid", "4", "--values", "0,1/4,1/2,1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("grid", ["39", "40"])
    def test_grid_at_its_default_resolution_is_exclusive_too(self, files, capsys, grid):
        # argparse takes an exclusive option as given only when its value is
        # not the default object, and int("40") is the cached DEFAULT_GRID_N
        argv = base_argv(files, "check-tnorm") + ["--grid", grid, "--values", "0,1/2,1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "argument --values: not allowed with argument --grid" in err

    def test_grid_defaults_to_its_default_resolution(self, files, capsys):
        reports = []
        for extra in ([], ["--grid", str(DEFAULT_GRID_N)]):
            code, out, _ = run(capsys, *base_argv(files, "check-tnorm"), *extra)
            reports.append({**parse_report(out), "timing_ms": 0})
        assert reports[0] == reports[1]
        assert reports[0]["inputs"]["grid_points"] == DEFAULT_GRID_N + 1

    # a usage error after a known subcommand shows that subcommand's usage
    # line; a command line that names no subcommand first shows the top
    # level's
    @pytest.mark.parametrize("argv, prog", [
        (["ccc-suite", "{collapse}", "--max-size", "abc"], "tnormcat ccc-suite"),
        (["check-tnorm", "{minimum}", "--no-such-flag"], "tnormcat check-tnorm"),
        (["no-such-command"], "tnormcat"),
        (["exp", "--tnorm", "{minimum}"], "tnormcat exp"),
        ([], "tnormcat"),
        (["--format", "json", "check-tnorm", "{minimum}"], "tnormcat"),
    ], ids=["bad-int", "unknown-flag", "unknown-command", "missing-required", "empty",
            "leading-option"])
    def test_usage_error_exits_1(self, files, capsys, argv, prog):
        code, out, err = run(capsys, *[a.format(**files) for a in argv])
        assert (code, out) == (1, "")
        assert usage_prog(err) == prog
        assert f"\n{prog}: error: " in err

    def test_help_exits_0_and_lists_only_read_flags(self, capsys):
        code, out, _ = run(capsys, "power-completeness", "-h")
        assert code == 0 and usage_prog(out) == "tnormcat power-completeness"
        assert "--max-size" in out
        assert "--budget" not in out and "--grid" not in out and "--values" not in out
        code, out, _ = run(capsys, "-h")
        assert code == 0 and usage_prog(out) == "tnormcat" and "ccc-suite" in out

    def test_argv_none_reads_sys_argv(self, files, capsys, monkeypatch):
        argv = base_argv(files, "counterexample")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        monkeypatch.setattr(sys, "argv", ["tnormcat", *argv])
        assert main() == 0
        got = capsys.readouterr()
        assert got.err == ""
        assert {**parse_report(got.out), "timing_ms": 0} == {**parse_report(out), "timing_ms": 0}
        monkeypatch.setattr(sys, "argv", ["tnormcat"])
        assert main() == 1
        got = capsys.readouterr()
        assert got.out == "" and usage_prog(got.err) == "tnormcat"

    def test_output_file_is_truncated(self, files, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("x" * 100_000)
        code, out, _ = run(capsys, *base_argv(files, "counterexample"), "-o", str(target))
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, *base_argv(files, "counterexample"))
        assert {**json.loads(target.read_text()), "timing_ms": 0} == {
            **parse_report(out), "timing_ms": 0}

    def test_argparse_only_forms_give_the_same_report(self, files, capsys):
        sub = cli.build_parser().commands["ccc-suite"]
        reports = []
        # ``--grid=4`` and the abbreviation ``--max`` are left to argparse
        for flags, by_table in ((["--grid=4", "--max", "1"], False),
                                (["--grid", "4", "--max-size", "1"], True)):
            argv = [files["minimum"], *flags]
            assert (cli._fast_args(sub, argv) is not None) == by_table
            code, out, _ = run(capsys, "ccc-suite", *argv)
            assert code == 0
            reports.append({**parse_report(out), "timing_ms": 0})
        assert reports[0] == reports[1] and reports[0]["inputs"]["max_size"] == 1

    def test_max_size_defaults(self, files, capsys):
        code, out, _ = run(capsys, *base_argv(files, "ccc-suite"), "--values", "0,1/4,1/2,1")
        assert code == 0 and parse_report(out)["inputs"]["max_size"] == 2
        code, out, _ = run(capsys, *base_argv(files, "power-completeness"))
        assert code == 0 and parse_report(out)["inputs"]["cycle_budget"] == 3

    def test_unwritable_output_exits_1(self, files, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "r.json"
        code, out, err = run(capsys, *base_argv(files, "counterexample"),
                             "-o", str(target))
        assert (code, out) == (1, "")
        assert f"error: cannot write {target}: No such file or directory" in err

    @pytest.mark.parametrize("values", ["0,1E5000", "0,1e-3", "0,2.5e-1"])
    def test_exponent_values_exit_1(self, files, capsys, values):
        # Fraction("1E5000") would build 10**5000, which the range check
        # cannot even print
        code, out, err = run(capsys, "check-tnorm", files["minimum"], "--values", values)
        assert (code, out) == (1, "")
        assert err.startswith("error: --values[1]: cannot parse rational")
        assert "exponent forms are not accepted" in err

    def test_decimal_values_still_accepted(self, files, capsys):
        code, out, _ = run(capsys, "check-tnorm", files["minimum"], "--values", "0,0.25,1")
        assert code == 0 and parse_report(out)["inputs"]["grid_points"] == 3

    @pytest.mark.parametrize("command", ["check-tnorm", "ccc-suite"])
    @pytest.mark.parametrize("values, points", [("0,0,1", 2), ("0,1/2,2/4,1", 3),
                                                ("1,0.5,0,1/2", 3)])
    def test_grid_points_counts_distinct_values(self, files, capsys, command, values, points):
        code, out, _ = run(capsys, command, files["minimum"], "--values", values)
        assert code == 0 and parse_report(out)["inputs"]["grid_points"] == points

    def test_input_that_is_not_utf8_exits_1(self, files, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"elements": ["é"], "hom": [["1"]]}'.encode("latin-1"))
        code, out, err = run(capsys, "product", str(path), files["chain"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


# the command-line shapes of the benchmark's jobs (``perfbench/jobs.py``)
JOB_SHAPES = {
    "ccc-sweep": ["ccc-suite", "in/ccc00-tnorm.json", "--values", "0,1/5,1/3,1",
                  "--max-size", "2", "-o", "reports/job000.json"],
    "check-tnorm": ["check-tnorm", "in/cond00-tnorm.json", "--grid", "19",
                    "-o", "reports/job001.json"],
    "ccc-suite-grid": ["ccc-suite", "in/cond01-tnorm.json", "--grid", "19", "--max-size", "2",
                       "-o", "reports/job002.json"],
    "exp": ["exp", "--tnorm", "in/pc-minimum-tnorm.json", "--base", "in/pc00-base.json",
            "--fiber", "in/pc00-fiber.json", "-o", "reports/job003.json"],
    "power-completeness": ["power-completeness", "--tnorm", "in/pc-minimum-tnorm.json",
                           "--base", "in/pc00-base.json", "--fiber", "in/pc00-fiber.json",
                           "--max-size", "3", "-o", "reports/job004.json"],
}


def argparse_args(sub, argv):
    """``vars(sub.parse_args(argv))``, or None where argparse rejects ``argv``
    (its usage or help text is swallowed)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(sub.parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("shape", JOB_SHAPES)
def test_benchmark_job_lines_take_the_table(shape):
    command, *argv = JOB_SHAPES[shape]
    sub = cli.build_parser().commands[command]
    args = cli._fast_args(sub, argv)
    assert args is not None and vars(args) == argparse_args(sub, argv)


# tokens that argparse reads in its own ways (a negative number, the end of
# options, an inline value, an abbreviation, help, a lone dash), an empty
# word and a word that no type or choice takes
ODD_TOKENS = ["-1", "--", "--grid=3", "--max", "-h", "-", "", "abc"]


@st.composite
def command_lines(draw, sub):
    """Token lists for the subcommand parser ``sub``, from its own actions.

    Each action but help is given 0-2 times (a required one mostly once):
    an option by one of its option strings, with a value unless it is a
    flag, a positional by a word.  A value or word is usually one that its
    type and choices take, and one time in ten an odd token; one more token
    (an option string or an odd token) may be added.  The units are then
    shuffled.
    """
    units = []
    for action in sub._actions:
        if action.default is argparse.SUPPRESS:  # -h, --help
            continue
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2] if action.required else [0, 0, 1, 2]))):
            odd = draw(st.integers(0, 9)) == 0
            value = draw(st.sampled_from(ODD_TOKENS if odd else ["3", "text", *(action.choices or ())]))
            if not action.option_strings:
                units.append([value])
            else:
                flag = draw(st.sampled_from(action.option_strings))
                units.append([flag] if action.nargs == 0 else [flag, value])
    options = [flag for action in sub._actions for flag in action.option_strings]
    units += draw(st.lists(st.sampled_from(options + ODD_TOKENS).map(lambda t: [t]), max_size=1))
    return [token for unit in draw(st.permutations(units)) for token in unit]


@pytest.mark.parametrize("command", sorted(cli.build_parser().commands))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fast_path_is_argparse(command, data):
    """The table accepts only lines that argparse accepts, with its namespace."""
    sub = cli.build_parser().commands[command]
    argv = data.draw(command_lines(sub))
    args = cli._fast_args(sub, argv)
    assert args is None or vars(args) == argparse_args(sub, argv)


@pytest.mark.parametrize("command", sorted(cli.build_parser().commands))
def test_every_parser_meets_the_table_precondition(command):
    """``cli._table`` reads these parsers exactly: every action but ``-h``
    is a one-value ``store`` or a ``store_true``, no typed action has a
    string default, and no exclusive group is required."""
    sub = cli.build_parser().commands[command]
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        assert (type(action) is argparse._StoreAction and action.nargs is None
                or type(action) is argparse._StoreTrueAction), action
        assert action.type is None or not isinstance(action.default, str), action
    assert not any(group.required for group in sub._mutually_exclusive_groups)


@settings(max_examples=60, deadline=None)
@given(
    t=st.one_of(
        st.sampled_from([minimum(), product_tnorm(), lukasiewicz(), nilpotent_minimum()]),
        collapse_norms(),
    ),
    grid=st.lists(UNITS, min_size=1, max_size=8, unique=True),
    data=st.data(),
)
def test_failing_witnesses_replay(t, grid, data):
    broken = data.draw(broken_ands(t, sorted(grid)))
    with TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if broken is not None:
            install_and(mp, broken)
        path = Path(tmp) / "tnorm.json"
        path.write_text(json.dumps(jsonio.tnorm_to_dict(t)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check-tnorm", str(path),
                         "--values", ",".join(map(format_rational, grid))])
        assert code == 0
        report = parse_report(out.getvalue())
        if broken is not None:
            # only these rows witness the installed &; C3-form and agreement
            # name the family's violations, with the real &
            report["verdicts"] = [v for v in report["verdicts"]
                                  if v["name"] in ("C1", "C2", "axioms")]
        replay(report, broken and functools.partial(broken, t))


# for each law of the axioms sweep, a & that keeps the laws swept before it
# on AXIOMS_GRID and breaks that one (left continuity at the breakpoint 1/2 of
# the nilpotent minimum)
BROKEN_LAWS = {
    "unit": lambda t, p, q: p * q / 2,
    "commutativity": lambda t, p, q: q if p == 1 else p * p * q,
    "monotonicity": lambda t, p, q: (min(p, q) if 1 in (p, q) else
                                     p * q if p + q <= 1 else Fraction(0)),
    "associativity": lambda t, p, q: min(p, q) if 1 in (p, q) else (p * q) ** 2,
    "left continuity": lambda t, p, q: min(p, q) if p + q >= 1 else Fraction(0),
}
AXIOMS_GRID = "0,1/4,1/2,3/4,1"


@pytest.mark.parametrize("note", BROKEN_LAWS)
def test_axioms_witness_replays_with_the_broken_and(note, tmp_path, capsys, monkeypatch):
    t = nilpotent_minimum()
    path = tmp_path / "tnorm.json"
    path.write_text(json.dumps(jsonio.tnorm_to_dict(t)))
    amp = BROKEN_LAWS[note]
    with monkeypatch.context() as mp:
        install_and(mp, amp)
        code, out, _ = run(capsys, "check-tnorm", str(path), "--values", AXIOMS_GRID)
    assert code == 0
    report = parse_report(out)
    verdict, = (v for v in report["verdicts"] if v["name"] == "axioms")
    witness = verdict["result"]["witness"]
    assert not verdict["ok"] and witness["note"] == note
    report["verdicts"] = [verdict]
    amp = functools.partial(amp, t)
    assert replay(report, amp) == {"axioms": 1}
    for side in ("lhs", "rhs"):
        recorded = witness[side]
        witness[side] = format_rational(Fraction(recorded) + 1)
        with pytest.raises(ReplayError, match=f"axioms: {note}: recorded sides"):
            replay(report, amp)
        witness[side] = recorded


# a locale whose encoding is ASCII: open() without an encoding uses it
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
CLI = "import sys; from tnormcat.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.fixture
def ascii_env():
    """The environment of a CLI subprocess under ``C_LOCALE``; skips the test
    where that locale's encoding is UTF-8 anyway."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"), **C_LOCALE)
    encoding = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding())"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if encoding.lower().replace("-", "") == "utf8":
        pytest.skip("this platform gives the C locale a UTF-8 encoding")
    return env


def test_files_are_utf8_under_an_ascii_locale(files, tmp_path, ascii_env):
    """``-o`` reports and input files are UTF-8 whatever the locale's encoding."""
    env = ascii_env
    # labels with a quote, a backslash, a comma and a non-ASCII letter
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"elements": ['q"', "b\\s", "c,é"],
                                  "hom": [["1", "1/2", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                                 ensure_ascii=False), encoding="utf-8")
    reports = {}
    runs = {
        "counterexample": [files["lukasiewicz"], "9/10", "9/10", "1/2"],
        "product": [str(labels), files["chain"], "--tnorm", files["minimum"]],
    }
    for command, args in runs.items():
        target = tmp_path / f"{command}.json"
        proc = subprocess.run([sys.executable, "-c", CLI, command, *args, "-o", str(target)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        text = target.read_bytes().decode("utf-8")
        report = reports[command] = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert report["command"] == command
    # the bundle replays with the defining formula of Łukasiewicz
    assert replay(reports["counterexample"]) == {"bundle": 1}
    violated = reports["counterexample"]["verdicts"][0]["result"]["violated"]
    assert violated["inequality"] == "(d_fg & d_gh) ∧ u <= d_fh ∧ u"
    assert reports["product"]["verdicts"][0]["result"]["elements"] == [
        f"({a},{b})" for a in ('q"', "b\\\\s", "c\\,é") for b in "xy"]


def test_stdout_is_utf8_under_an_ascii_locale(files, ascii_env):
    """A report on stdout is the UTF-8 bytes that ``-o`` writes, in either format."""
    args = ["counterexample", files["lukasiewicz"], "9/10", "9/10", "1/2"]
    for fmt in ("json", "text"):
        proc = subprocess.run([sys.executable, "-c", CLI, *args, "--format", fmt],
                              env=ascii_env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        text = proc.stdout.decode("utf-8")
        assert "∧" in text
        if fmt == "json":
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
            assert report["command"] == "counterexample"


def test_lone_surrogate_label_exits_1(capsys, tmp_path):
    path = tmp_path / "surrogate.json"
    path.write_text('{"elements": ["\\ud800"], "hom": [["1"]]}', encoding="utf-8")
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "product", str(path), str(path), "-o", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: elements[0] does not encode as UTF-8 (surrogates not allowed)\n"
    assert not target.exists()
