"""tnormcat: exact checks for [0,1]-enriched categories over t-norms.

The package decides, with exact rational arithmetic, when the category of
finite [0,1]-enriched categories is cartesian closed for a given
left-continuous t-norm, builds products and function-space objects, produces
machine-checkable counterexample bundles when the construction breaks, and
decides Cauchy/Yoneda-style completeness of finite categories, their products
and their function spaces from one lemma that needs no t-norm: every element
of a Cauchy cycle is a bilimit of it.  Limits of single sequences come with
full certificates.
"""

from types import ModuleType as _ModuleType

from .errors import BudgetError, InputError, InvariantError, PreconditionError
from .rationals import ONE, ZERO, format_rational, parse_rational
from .tnorms import (
    ConditionReport,
    IdempotentSet,
    IntervalExtraction,
    Piece,
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
from .categories import (
    CccReport,
    CounterexampleBundle,
    DEFAULT_BUDGET,
    PowerObject,
    RCat,
    RFunctor,
    check_ccc,
    check_currying,
    check_exponentiable,
    counterexample,
    enumerate_categories,
    enumerate_functors,
    exponential,
    is_functor,
    label_text,
    product,
    terminal,
    unit_interval_category,
    validate,
)
from .completeness import (
    CertificateRow,
    LimitVerdict,
    TailSeq,
    check_power_completeness,
    check_product_bilimit,
    check_yoneda_continuity,
    find_bilimit,
    find_yoneda_limit,
    is_bilimit,
    is_cauchy,
    is_cauchy_complete,
    is_forward_cauchy,
    tail_value,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
