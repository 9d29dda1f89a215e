import ast
import importlib.util
import types
from pathlib import Path

import pytest

import tnormcat
from tnormcat import categories, completeness

# the public API, sorted: a change to it shows up here as a diff
PUBLIC_API = [
    "BudgetError", "CccReport", "CertificateRow", "ConditionReport",
    "CounterexampleBundle", "DEFAULT_BUDGET", "IdempotentSet", "InputError",
    "IntervalExtraction", "InvariantError", "LimitVerdict", "ONE", "Piece",
    "PowerObject", "PreconditionError", "RCat", "RFunctor", "TNorm", "TailSeq",
    "Witness", "ZERO", "apply", "breakpoints", "canonical_grid", "check_c1", "check_c2",
    "check_ccc", "check_currying", "check_exponentiable", "check_power_completeness",
    "check_product_bilimit", "check_yoneda_continuity", "counterexample",
    "enumerate_categories", "enumerate_functors", "exponential",
    "extract_intervals", "find_bilimit", "find_yoneda_limit", "format_rational",
    "idempotents", "interval_collapse", "is_bilimit", "is_cauchy", "is_cauchy_complete",
    "is_forward_cauchy", "is_functor", "label_text", "lukasiewicz", "minimum",
    "nilpotent_minimum", "parse_rational", "product", "product_tnorm", "residuum",
    "tail_value", "terminal", "unit_interval_category", "validate",
    "verify_tnorm_axioms",
]

# test-only helpers, now in ``tests/oracles.py``, by the module that held them
REMOVED = {
    "enumerate_cycles": completeness,
    "functor": categories,
    "min_transitive_closure": categories,
    "pair_functors": categories,
    "pair_sequences": completeness,
    "projections": categories,
}


def test_all_lists_every_imported_name_and_no_module():
    tree = ast.parse(Path(tnormcat.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(tnormcat.__all__)
    assert not [
        name for name in tnormcat.__all__
        if isinstance(getattr(tnormcat, name), types.ModuleType)
    ]


def test_all_is_the_pinned_public_api():
    assert sorted(tnormcat.__all__) == PUBLIC_API


@pytest.mark.parametrize("name", REMOVED)
def test_test_only_helpers_are_not_in_the_package(name):
    with pytest.raises(ImportError):
        exec(f"from tnormcat import {name}", {})
    assert not hasattr(REMOVED[name], name)


def test_test_only_methods_are_gone():
    assert not hasattr(tnormcat.RFunctor, "as_dict")
    assert not hasattr(tnormcat.TailSeq, "element_at")


def _builds_failing_report(node) -> bool:
    """Whether ``node`` calls ``ConditionReport`` with the verdict ``False``."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    verdicts = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "verdict"]
    return name == "ConditionReport" and any(
        isinstance(v, ast.Constant) and v.value is False for v in verdicts
    )


def test_failing_condition_reports_are_built_only_by_failure():
    # every failing verdict's witness is built in one place, tnorms._failure
    builders = []
    for path in sorted(Path(tnormcat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # outer functions first, so inner ones win
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        builders += [(path.name, owner.get(node, "<module>"))
                     for node in ast.walk(tree) if _builds_failing_report(node)]
    assert builders == [("tnorms.py", "_failure")]


def test_c1_evidence_is_built_only_in_tnorms():
    # the failing families' violations, and C1's two sides, have one home
    names, right_sides = set(), []
    for path in sorted(Path(tnormcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "_C1_FAILURES" in (getattr(node, key, None) for key in ("id", "attr", "name")):
                names.add(path.name)
            if isinstance(node, ast.Call) and ast.unparse(node) == "apply(t, min(p, u), q)":
                right_sides.append(path.name)
    assert names == {"tnorms.py"}
    assert right_sides == ["tnorms.py"]


def test_every_traced_name_exists():
    # perfbench/tracer.py looks each name up without a default, so a renamed
    # function would break every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for table in (tracer.SPANS, tracer.COUNTS)
               for layer, names in table.items() for name in names
               if not hasattr(importlib.import_module(f"tnormcat.{layer}"), name)]
    assert tracer.SPANS and tracer.COUNTS and missing == []


def test_cli_reaches_into_no_private_search_of_completeness():
    # completeness._limit_verdicts decides a limits run, its law scan and its
    # Cauchy scan included; cli imports none of the searches it calls
    tree = ast.parse((Path(tnormcat.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "completeness"
                for alias in node.names]
    private = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and getattr(node.value, "id", None) == "completeness"}
    assert imported and not [name for name in imported if name.startswith("_")]
    assert "is_cauchy" not in imported
    assert private == {"_limit_verdicts"}
