import ast
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
    "enumerate_categories", "enumerate_cycles", "enumerate_functors", "exponential",
    "extract_intervals", "find_bilimit", "find_yoneda_limit", "format_rational",
    "idempotents", "interval_collapse", "is_bilimit", "is_cauchy", "is_cauchy_complete",
    "is_forward_cauchy", "is_functor", "label_text", "lukasiewicz", "minimum",
    "nilpotent_minimum", "parse_rational", "product", "product_tnorm", "residuum",
    "tail_value", "terminal", "unit_interval_category", "validate",
    "verify_tnorm_axioms",
]

# test-only helpers, now in ``tests/oracles.py``, by the module that held them
REMOVED = {
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
