"""The package's record types behave as frozen dataclasses, without them.

Each record class is checked against a ``dataclasses.make_dataclass``
twin with the same fields and defaults: ``repr``, ``==``, ``!=``,
``hash``, the ``AttributeError`` of an assignment or deletion, the
``TypeError`` of a bad call and ``replace`` must agree.  A fresh CLI
process must not load ``dataclasses`` (nor ``inspect``, which it imports).
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import tnormcat
from tnormcat import (
    CertificateRow,
    ConditionReport,
    InvariantError,
    Piece,
    RCat,
    RFunctor,
    TailSeq,
    TNorm,
    Witness,
    check_ccc,
    counterexample,
    exponential,
    extract_intervals,
    find_bilimit,
    idempotents,
    lukasiewicz,
    minimum,
    product_tnorm,
)
from tnormcat._records import Record, replace

CHAIN = ((1, F(1, 2)), (0, 1))


def _chain(label="x"):
    return RCat((label, "y"), CHAIN)


def _point():
    return RCat(("y",), ((1,),))


def _seq(prefix):
    return TailSeq(_chain(), prefix, ("x",))


# class -> two factories of unequal records; each call builds a new object
SAMPLES = {
    TNorm: (minimum, lambda: TNorm("interval-collapse", ((F(1, 4), F(1, 2)),))),
    Piece: (lambda: Piece(F(0), F(1)), lambda: Piece(F(1, 2), F(1), lo_closed=False)),
    tnormcat.IdempotentSet: (lambda: idempotents(minimum()),
                             lambda: idempotents(product_tnorm())),
    Witness: (lambda: Witness(("x", "y"), F(1, 2), F(1, 3), "note"),
              lambda: Witness((F(1, 2),))),
    ConditionReport: (lambda: ConditionReport("C1", True),
                      lambda: ConditionReport("C1", False, Witness((1,)), certified=True)),
    tnormcat.IntervalExtraction: (lambda: extract_intervals(minimum()),
                                  lambda: extract_intervals(product_tnorm())),
    RCat: (_chain, lambda: _chain("z")),
    RFunctor: (lambda: RFunctor(_point(), _chain(), ("y",)),
               lambda: RFunctor(_point(), _chain(), ("x",))),
    tnormcat.PowerObject: (lambda: exponential(minimum(), _point(), _chain()),
                           lambda: exponential(minimum(), _chain(), _chain())),
    tnormcat.CounterexampleBundle: (
        lambda: counterexample(lukasiewicz(), F(9, 10), F(9, 10), F(1, 2)),
        lambda: counterexample(product_tnorm(), F(1, 2), F(1, 2), F(1, 8))),
    tnormcat.CccReport: (lambda: check_ccc(minimum(), [F(0), F(1, 2), F(1)], 2),
                         lambda: check_ccc(lukasiewicz(), [F(0), F(1, 2), F(1)], 2)),
    TailSeq: (lambda: _seq(()), lambda: _seq(("y",))),
    CertificateRow: (lambda: CertificateRow("x", F(1), F(1)),
                     lambda: CertificateRow("y", F(1, 2), F(1, 2), F(0), F(0))),
    tnormcat.LimitVerdict: (lambda: find_bilimit(_seq(())),
                            lambda: find_bilimit(TailSeq(_chain(), (), ("y",)))),
}
CLASSES = list(SAMPLES)


def _twin(cls):
    """A frozen dataclass of the same name, fields and defaults as ``cls``."""
    spec = [(name, object, dataclasses.field(default=cls._defaults[name]))
            if name in cls._defaults else (name, object)
            for name in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _field_values(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__annotations__}


def _attribute_error(action) -> str:
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def test_every_record_class_is_sampled():
    records = {value for value in vars(tnormcat).values()
               if isinstance(value, type) and issubclass(value, Record)}
    assert records == set(CLASSES) and len(records) == 14


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_agrees_with_its_dataclass_twin(cls):
    twin = _twin(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    records = [make() for make in SAMPLES[cls] for _ in range(2)]
    assert all(type(r) is cls for r in records)
    twins = [twin(**_field_values(r)) for r in records]
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        assert r != t and r.__eq__(t) is NotImplemented
        for name in cls._fields:
            assert (_attribute_error(lambda: setattr(r, name, 0))
                    == _attribute_error(lambda: setattr(t, name, 0)))
            assert (_attribute_error(lambda: delattr(r, name))
                    == _attribute_error(lambda: delattr(t, name)))
        assert replace(r) == r and replace(r) is not r
    for r1, t1 in zip(records, twins):
        for r2, t2 in zip(records, twins):
            assert (r1 == r2, r1 != r2) == (t1 == t2, t1 != t2)
    first, second = records[0], records[2]
    assert first == records[1] and first is not records[1]
    assert first != second
    changed = replace(first, **_field_values(second))
    assert changed == second
    assert repr(dataclasses.replace(twins[0], **_field_values(second))) == repr(changed)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_bad_calls_raise_type_error_as_the_twin_does(cls):
    twin = _twin(cls)
    values = _field_values(SAMPLES[cls][0]())
    for kind in (cls, twin):
        with pytest.raises(TypeError):
            kind(*values.values(), None)
        with pytest.raises(TypeError):
            kind(**values, unknown=None)
        with pytest.raises(TypeError):
            kind(*values.values(), **{cls._fields[0]: values[cls._fields[0]]})
        required = [name for name in cls._fields if name not in cls._defaults]
        with pytest.raises(TypeError):
            kind(**{name: values[name] for name in required[1:]})
    with pytest.raises(TypeError):
        replace(cls(**values), unknown=None)
    with pytest.raises(TypeError):
        dataclasses.replace(twin(**values), unknown=None)


def test_records_of_two_classes_are_never_equal():
    class Left(Record):
        x: int

    class Right(Record):
        x: int

    assert Left(1) == Left(x=1) and Left(1) != Right(1)
    assert Left(1).__eq__(Right(1)) is NotImplemented
    assert repr(Left(1)) == "test_records_of_two_classes_are_never_equal.<locals>.Left(x=1)"


def test_replace_runs_post_init_again():
    with pytest.raises(InvariantError):
        replace(ConditionReport("C1", True), verdict=False)
    cat = replace(_chain(), hom=[[1, "1/2"], [0, 1]])  # hom values become Fractions
    assert cat == _chain() and cat.hom[0][1] == F(1, 2)


def test_dropped_interval_takes_no_part_in_equality():
    kept = ((F(1, 4), F(1, 2)),)
    with_point = TNorm("interval-collapse", ((F(1, 8), F(1, 8)),) + kept)
    without = TNorm("interval-collapse", kept)
    assert with_point.dropped_intervals == ((F(1, 8), F(1, 8)),)
    assert without.dropped_intervals == () and minimum().dropped_intervals == ()
    assert with_point == without and hash(with_point) == hash(without)
    assert repr(with_point) == repr(without) == (
        "TNorm(family='interval-collapse', "
        "intervals=((Fraction(1, 4), Fraction(1, 2)),))")
    assert TNorm._fields == ("family", "intervals")


def test_cached_properties_live_in_the_instance():
    cat = _chain()
    assert cat.index("y") == 1 and "_index" in vars(cat)
    assert cat == _chain() and hash(cat) == hash(_chain())


def test_cli_start_up_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import sys, tnormcat.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
