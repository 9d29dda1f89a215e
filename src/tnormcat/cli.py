"""Command-line front end.

Subcommands: check-tnorm, exp, product, ccc-suite, counterexample, limits,
power-completeness.  Reports are JSON by default (deterministic modulo the
timing field, written by ``jsonio.dumps``) with a text renderer behind
--format text.  Files are read, and reports written to -o or stdout, as
UTF-8.

A command line that starts with a subcommand is parsed from that
subcommand's flat table (``_fast_args``) when it holds only exact option
strings with separate values and positionals, none of which starts with
``-``; every other command line, and every line the table does not accept
whole, goes to argparse, which gives the same namespace or the same usage
error.

Exit codes: 0 clean run (or -h), 1 malformed command line, input or
precondition error, or an unwritable -o path, 2 violation found while
--fail-on-violation is set, 3 enumeration budget exceeded, 4 internal fault
(a failed certificate or invariant, or any other RuntimeError).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from ._records import replace
from .errors import BudgetError, InputError, PreconditionError
from .rationals import parse_rational
from .tnorms import (
    DEFAULT_GRID_N,
    Witness,
    _c1_failure,
    _condition_sweeps,
    _sorted_grid,
    canonical_grid,
    extract_intervals,
)
from .categories import (
    DEFAULT_BUDGET,
    _validate_power,
    check_ccc,
    counterexample,
    exponential,
    product,
    validate,
)
from .completeness import (
    _check_laws,
    _find_bilimit,
    _find_yoneda_limit,
    check_power_completeness,
    is_cauchy,
)
from . import jsonio


class RunReport:
    """One run's report; ``vars(report)`` is the JSON document ``_emit`` writes."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.verdicts = []
        self.certified = True
        self.violation = False
        self.timing_ms = 0

    def add(self, name: str, result, ok: bool, certified: bool = True):
        self.verdicts.append({"name": name, "ok": ok, "result": jsonio.to_jsonable(result)})
        if not ok:
            self.violation = True
        if not certified:
            self.certified = False


def _budget(raw: str) -> int:
    """The argparse type of --budget: an integer >= 0."""
    try:
        budget = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {budget}")
    return budget


def _parse_values(raw: str) -> list:
    """The distinct values of a --values list, ascending (``_sorted_grid``),
    so that ``len`` counts the grid points."""
    if not raw.strip():
        raise InputError("--values must list at least one rational")
    return _sorted_grid([parse_rational(chunk, f"--values[{k}]")
                         for k, chunk in enumerate(raw.split(","))])


def _grid_inputs(args, command: str):
    """Load the t-norm and its grid; return them with the report that records them.

    ``--grid`` defaults to None, not ``DEFAULT_GRID_N``: argparse counts an
    exclusive option as given only when its value is not the default
    object, and ``int("40")`` is the cached small int 40, so with that
    default ``--grid 40 --values ...`` would get through.
    """
    t = jsonio.load_tnorm(args.tnorm)
    if args.values is not None:
        grid = _parse_values(args.values)
    else:
        grid = canonical_grid(t, DEFAULT_GRID_N if args.grid is None else args.grid)
    report = RunReport(command, {"tnorm": jsonio.tnorm_to_dict(t), "grid_points": len(grid)})
    return t, grid, report


def _power_inputs(args, command: str):
    """Load t-norm, base and fiber; return them with the report that records them."""
    t = jsonio.load_tnorm(args.tnorm)
    base = jsonio.load_category(args.base)
    fiber = jsonio.load_category(args.fiber)
    report = RunReport(
        command,
        {
            "tnorm": jsonio.tnorm_to_dict(t),
            "base": jsonio.category_to_dict(base),
            "fiber": jsonio.category_to_dict(fiber),
        },
    )
    return t, base, fiber, report


def cmd_check_tnorm(args) -> RunReport:
    t, grid, report = _grid_inputs(args, "check-tnorm")
    if t.dropped_intervals:
        report.inputs["normalized_away"] = jsonio.to_jsonable(t.dropped_intervals)
    # C1, C2 and the axioms read one grid² table of products, built once
    c1, c2, axioms = _condition_sweeps(t, grid)
    extraction = extract_intervals(t)
    report.add("C1", c1, c1.verdict, certified=c1.certified)
    report.add("C2", c2, c2.verdict, certified=c2.certified)
    report.add("C3-form", extraction, extraction.ok)
    # the axiom layer is always grid evidence (its embedded report says so);
    # it does not downgrade the certification of the condition verdicts
    report.add("axioms", axioms, axioms.verdict)
    agree = c1.verdict == c2.verdict == extraction.ok
    outcome = {"C1": c1.verdict, "C2": c2.verdict, "C3-form": extraction.ok}
    # a family that fails C1 on [0,1], where C1, C2 and C3-form agree, shows
    # it by its first violation on the canonical grid
    witness = None if agree else _c1_failure(t)
    if witness is not None:
        where = "on" if all(v in grid for v in witness.values) else "outside"
        outcome["witness"] = replace(witness, note=f"C1 violation on [0,1], {where} the grid")
    report.add("agreement", outcome, agree)
    return report


def cmd_product(args) -> RunReport:
    left = jsonio.load_category(args.left)
    right = jsonio.load_category(args.right)
    report = RunReport(
        "product",
        {"left": jsonio.category_to_dict(left), "right": jsonio.category_to_dict(right)},
    )
    prod = product(left, right)
    report.add("product", prod, True)
    if args.tnorm:
        t = jsonio.load_tnorm(args.tnorm)
        report.inputs["tnorm"] = jsonio.tnorm_to_dict(t)
        for name, cat in (("left", left), ("right", right), ("product", prod)):
            w = validate(cat, t)
            report.add(f"validate-{name}", w, w is None)
    return report


def cmd_exp(args) -> RunReport:
    t, base, fiber, report = _power_inputs(args, "exp")
    power = exponential(t, base, fiber, args.budget)
    report.add("power", power, True)
    w = _validate_power(t, power)
    report.add("power-validates", w, w is None)
    return report


def cmd_ccc_suite(args) -> RunReport:
    t, grid, report = _grid_inputs(args, "ccc-suite")
    report.inputs["max_size"] = args.max_size
    result = check_ccc(t, grid, args.max_size, args.budget)
    report.add("ccc", result, result.verdict, certified=result.c1.certified)
    return report


def cmd_counterexample(args) -> RunReport:
    t = jsonio.load_tnorm(args.tnorm)
    p = parse_rational(args.p, "p")
    q = parse_rational(args.q, "q")
    u = parse_rational(args.u, "u")
    report = RunReport(
        "counterexample",
        {"tnorm": jsonio.tnorm_to_dict(t), "triple": jsonio.to_jsonable((p, q, u))},
    )
    bundle = counterexample(t, p, q, u)
    report.add("bundle", bundle, False)
    return report


def cmd_limits(args) -> RunReport:
    """Cauchy, bilimit and Yoneda-limit verdicts for one sequence.

    The report has one ``cauchy`` row: for an eventually periodic sequence,
    Cauchy and forward Cauchy coincide (proof in
    ``completeness.is_forward_cauchy``), so a ``forward-cauchy`` row would
    repeat it.  The ``yoneda-limit`` row is added when ``cauchy`` passes.

    The carrier's laws are scanned once: by ``validate`` under ``--tnorm``,
    else by ``_check_laws``, which ``find_bilimit`` and
    ``find_yoneda_limit`` would each run.  A carrier valid under the t-norm
    t passes ``_check_laws``: that is ``validate`` under a t-norm T which on
    the hom values is the drastic t-norm D (x D y = min(x, y) if x or y is
    1, else 0), the least t-norm, since x t 1 = x, 1 t y = y and x t y >= 0.
    Both scans check the same reflexivity, and at each triple
    hom(j,k) T hom(i,j) = hom(j,k) D hom(i,j) <= hom(j,k) t hom(i,j)
    <= hom(i,k).  So no further scan can fail, and the two searches run
    without one.  The report records the ``--tnorm`` t-norm in ``inputs``,
    as ``product`` does, so that the scan under it can be replayed.
    """
    seq = jsonio.load_sequence(args.seq)
    report = RunReport(
        "limits",
        {
            "carrier": jsonio.category_to_dict(seq.carrier),
            "prefix": jsonio.to_jsonable(seq.prefix),
            "cycle": jsonio.to_jsonable(seq.cycle),
        },
    )
    if args.tnorm:
        t = jsonio.load_tnorm(args.tnorm)
        report.inputs["tnorm"] = jsonio.tnorm_to_dict(t)
        w = validate(seq.carrier, t)
        if w is not None:
            raise InputError(
                f"carrier is not a valid category at {w.values}: {w.note}"
            )
    else:
        _check_laws(seq.carrier)
    cauchy = is_cauchy(seq)
    report.add("cauchy", cauchy, cauchy is None)
    bilimit = _find_bilimit(seq)
    report.add("bilimit", bilimit, bilimit.kind != "none")
    if cauchy is None:
        report.add("yoneda-limit", _find_yoneda_limit(seq), True)
    return report


def cmd_power_completeness(args) -> RunReport:
    t, base, fiber, report = _power_inputs(args, "power-completeness")
    report.inputs["cycle_budget"] = args.max_size
    if args.max_size < 1:
        raise InputError(f"cycle budget must be >= 1, got {args.max_size}")
    w = check_power_completeness(t, base, fiber)
    report.add("power-completeness", w, w is None)
    return report


def _render_text(report: RunReport) -> str:
    lines = [f"command: {report.command}"]
    for v in report.verdicts:
        status = "PASS" if v["ok"] else "FAIL"
        lines.append(f"  {v['name']}: {status}")
        result = v["result"]
        if isinstance(result, dict):
            # the row's witness: its result, when that is a Witness (exp's
            # power-validates, the cauchy row of limits), else its witness
            # key, else that of its C1 report (ccc-suite); a failing row
            # without one (limits' bilimit) prints its certificate instead
            if result.keys() == set(Witness._fields):
                witness = result
            else:
                witness = result.get("witness") or (result.get("c1") or {}).get("witness")
            if witness:
                lines.append(f"    witness: {json.dumps(witness, ensure_ascii=False)}")
            elif not v["ok"] and result.get("certificate"):
                certificate = json.dumps(result["certificate"], ensure_ascii=False)
                lines.append(f"    certificate: {certificate}")
            bundle = result.get("bundle") or result  # ccc-suite nests it; counterexample is one
            if "d_fg" in bundle:
                lines.append(
                    f"    d(f,g)={bundle['d_fg']} d(g,h)={bundle['d_gh']} "
                    f"d(f,h)={bundle['d_fh']}"
                )
                bad = bundle["violated"]
                lines.append(
                    f"    violated: {bad['inequality']} "
                    f"({bad['lhs']} > {bad['rhs']})"
                )
    lines.append(f"certified: {report.certified}")
    lines.append(f"violation: {report.violation}")
    lines.append(f"timing_ms: {report.timing_ms}")
    return "\n".join(lines) + "\n"


# the flags of open(path, "wb"); O_BINARY exists (and matters) on Windows only
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _emit(report: RunReport, args) -> None:
    """Write the report as UTF-8 to ``-o``, or to stdout.

    The report is encoded before the file is opened, so a report that
    cannot be encoded leaves no partial file.  The file is written by
    ``os.write`` calls on a raw descriptor until every byte is out, with
    no buffered file object.  Stdout gets the same UTF-8 bytes, through
    its binary ``buffer``, whatever the locale's encoding; a stream
    without one (an ``io.StringIO``) gets the text.
    """
    if args.format == "text":
        text = _render_text(report)
    else:
        # RunReport.add already stores JSON-native rows
        text = jsonio.dumps(vars(report)) + "\n"
    data = text.encode("utf-8")
    if args.output:
        fd = os.open(args.output, _WRITE_FLAGS, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()  # keep the order of text already written
        buffer.write(data)
        buffer.flush()


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("-o", "--output", default=None, help="write the report here")
    sub.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 2 when any verdict fails",
    )


def _add_power(sub):
    for flag in ("--tnorm", "--base", "--fiber"):
        sub.add_argument(flag, required=True)


def _add_budget(sub):
    sub.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                     help="enumeration budget")


def _add_grid(sub):
    grid = sub.add_mutually_exclusive_group()
    grid.add_argument("--grid", type=int, default=None,
                      help="uniform resolution of the canonical grid")
    grid.add_argument("--values", default=None,
                      help="comma-separated rationals used instead of the canonical grid")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnormcat",
        description="exact checks for [0,1]-enriched categories over t-norms",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("check-tnorm", help="condition suite for one t-norm")
    s.add_argument("tnorm")
    _add_grid(s)
    _add_common(s)
    s.set_defaults(handler=cmd_check_tnorm)

    s = subs.add_parser("product", help="product of two categories")
    s.add_argument("left")
    s.add_argument("right")
    s.add_argument("--tnorm", default=None, help="validate against this t-norm")
    _add_common(s)
    s.set_defaults(handler=cmd_product)

    s = subs.add_parser("exp", help="function-space object")
    _add_power(s)
    _add_budget(s)
    _add_common(s)
    s.set_defaults(handler=cmd_exp)

    s = subs.add_parser("ccc-suite", help="cartesian-closedness verdict")
    s.add_argument("tnorm")
    _add_grid(s)
    s.add_argument("--max-size", type=int, default=2,
                   help="largest category size swept")
    _add_budget(s)
    _add_common(s)
    s.set_defaults(handler=cmd_ccc_suite)

    s = subs.add_parser("counterexample", help="build a transitivity counterexample")
    s.add_argument("tnorm")
    s.add_argument("p")
    s.add_argument("q")
    s.add_argument("u")
    _add_common(s)
    s.set_defaults(handler=cmd_counterexample)

    s = subs.add_parser("limits", help="limit verdicts for a sequence")
    s.add_argument("--seq", required=True)
    s.add_argument("--tnorm", default=None, help="validate the carrier first")
    _add_common(s)
    s.set_defaults(handler=cmd_limits)

    s = subs.add_parser("power-completeness", help="Cauchy completeness of a power")
    _add_power(s)
    s.add_argument("--max-size", type=int, default=3,
                   help="cycle budget: recorded in the report; the verdict "
                        "does not depend on it")
    _add_common(s)
    s.set_defaults(handler=cmd_power_completeness)

    parser.commands = subs.choices  # subcommand name -> its parser, for ``main``
    for s in subs.choices.values():
        s.table = _table(s)
    return parser


def _table(sub: argparse.ArgumentParser) -> tuple:
    """The flat table of ``sub``'s actions.

    The table is ``(options, positionals, groups, required, defaults)``:
    each option string with its action, the positional actions in order,
    the actions of each mutually exclusive group, the actions that a
    command line must give, and the namespace of an empty command line
    (each action's default, then ``set_defaults``, the first one of a dest
    winning, as argparse sets them).  It is exact for the parsers that
    ``build_parser`` builds: every action but ``-h`` is a one-value
    ``store`` or a ``store_true``, none has a string default that argparse
    would pass through its ``type``, and no exclusive group is required.
    ``tests/test_cli.py`` pins that precondition on every subcommand.
    """
    options, positionals, defaults = {}, [], {}
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positionals.append(action)
        if action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    for dest, value in sub._defaults.items():
        defaults.setdefault(dest, value)
    groups = [group._group_actions for group in sub._mutually_exclusive_groups]
    required = [action for action in sub._actions if action.required]
    return options, positionals, groups, required, defaults


def _fast_args(sub: argparse.ArgumentParser, argv) -> argparse.Namespace | None:
    """``sub.parse_args(argv)`` for a plain command line, else None.

    The table of ``sub`` accepts a line of exact option strings, each with a
    separate value that does not start with ``-`` or a ``store_true`` flag,
    and of positionals that do not start with ``-``.  The line must give
    every positional and required option and at most one member of each
    exclusive group, and each value must pass its action's ``type`` and
    ``choices``; a repeated option keeps its last value.  For such a line
    argparse builds the same namespace.  Anything else (``-h``,
    ``--opt=value``, an abbreviation, ``--``, a value that starts with
    ``-``, an unknown flag, a bad value) returns None, and argparse parses
    the line, with its usage errors.  The table is exact only under the
    precondition in ``_table``, which a test pins for every subcommand.
    """
    options, positionals, groups, required, defaults = sub.table
    values, seen = {}, set()
    positionals = iter(positionals)
    tokens = iter(argv)
    for token in tokens:
        if token[:1] == "-":
            action = options.get(token)
            if action is None:
                return None
            if action.nargs == 0:  # store_true
                seen.add(action)
                values[action.dest] = action.const
                continue
            token = next(tokens, "-")  # a missing value is rejected below
            if token[:1] == "-":
                return None
        else:
            action = next(positionals, None)
            if action is None:
                return None
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        seen.add(action)
        values[action.dest] = value
    if any(action not in seen for action in required):
        return None
    if any(sum(action in seen for action in group) > 1 for group in groups):
        return None
    return argparse.Namespace(**{**defaults, **values})


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` if ``argv`` is None); the exit code.

    A command line that starts with a subcommand is parsed from that
    subcommand's table (``_fast_args``) or, if the table does not accept
    it, by that subcommand's parser alone, which is what the top-level
    parser would hand it; the top-level parser parses only command lines
    that name no subcommand first (``-h``, an empty or unknown command, a
    leading option).  So a usage error after a known subcommand prints that
    subcommand's usage line.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    args = _fast_args(command, argv[1:]) if command else None
    if args is None:
        try:
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        except SystemExit as exc:  # argparse has printed the usage or the help
            return 0 if exc.code == 0 else 1
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # InvariantError and other internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    report.timing_ms = int((time.perf_counter() - start) * 1000)
    try:
        _emit(report, args)
    except OSError as exc:
        target = args.output or "stdout"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    if args.fail_on_violation and report.violation:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
