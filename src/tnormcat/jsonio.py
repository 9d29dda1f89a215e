"""JSON schemas: t-norms, categories, sequences, and report rendering.

Schemas (rationals are "num/den" strings; plain integers and decimals are
accepted, exponent forms are not, see ``rationals.parse_rational``):

* t-norm     {"family": "minimum" | "product" | "lukasiewicz" |
              "nilpotent-minimum" | "interval-collapse",
              "intervals": [["1/5","1/2"], ...]}      (iff interval-collapse)
* category   {"elements": ["x","y"], "hom": [["1","1/2"],["0","1"]]}
              with hom[i][j] = hom(elements[i], elements[j])
* sequence   {"carrier": <path or inline category>, "prefix": [...],
              "cycle": [...]}

Files are read as UTF-8.  ``dumps`` writes the report tree; its bytes are
the report format (see its docstring).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring as _quote
from pathlib import Path

from ._records import Record
from .errors import InputError
from .rationals import format_rational, parse_rational
from .tnorms import INTERVAL_COLLAPSE, TNorm
from .categories import (
    CounterexampleBundle,
    PowerObject,
    RCat,
    RFunctor,
    label_text,
)
from .completeness import TailSeq


def _load_json_file(path) -> object:
    """The JSON value in the file at ``path``.

    The file is read as raw bytes and decoded once, which skips the text
    layer that ``open(path, encoding="utf-8").read()`` stacks on the file.
    The text is the same: strict UTF-8 (a BOM is kept, so ``json.loads``
    rejects it), and ``\r\n`` and a lone ``\r`` become ``\n`` as in text
    mode, so every value and every error position is unchanged.  The bytes
    are not handed to ``json.loads``, which would also accept UTF-16 and
    UTF-32.
    """
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.readall().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deep a nesting
        raise InputError(f"{path}: cannot parse JSON: {exc}") from exc


def tnorm_from_dict(data) -> TNorm:
    if not isinstance(data, dict) or "family" not in data:
        raise InputError('t-norm JSON must be an object with a "family" key')
    family = data["family"]
    intervals = data.get("intervals")
    if family == INTERVAL_COLLAPSE:
        if not isinstance(intervals, list):
            raise InputError('interval-collapse requires an "intervals" list')
        parsed = []
        for k, pair in enumerate(intervals):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InputError(f"intervals[{k}] must be a two-element list")
            parsed.append(
                (
                    parse_rational(pair[0], f"intervals[{k}][0]"),
                    parse_rational(pair[1], f"intervals[{k}][1]"),
                )
            )
        return TNorm(family, tuple(parsed))
    if intervals is not None:
        raise InputError(f'"intervals" is only valid for {INTERVAL_COLLAPSE}')
    return TNorm(family)


def load_tnorm(path) -> TNorm:
    return tnorm_from_dict(_load_json_file(path))


def tnorm_to_dict(t: TNorm) -> dict:
    out: dict = {"family": t.family}
    if t.family == INTERVAL_COLLAPSE:
        out["intervals"] = [
            [format_rational(a), format_rational(b)] for a, b in t.intervals
        ]
    return out


def category_from_dict(data, where: str = "category") -> RCat:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    try:
        elements = data["elements"]
        hom = data["hom"]
    except (KeyError, TypeError):
        raise InputError(f'{where}: needs "elements" and "hom" keys') from None
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputError(f"{where}: elements must be a list of strings")
    for k, e in enumerate(elements):
        if elements.index(e) != k:  # a scan per label costs less than the n² hom entries
            raise InputError(f"{where}: elements[{k}] repeats {e!r}")
        # json.loads accepts a lone surrogate such as "\ud800", but no
        # UTF-8 report could hold it
        try:
            e.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InputError(
                f"{where}: elements[{k}] does not encode as UTF-8 ({exc.reason})"
            ) from None
    if not isinstance(hom, list) or len(hom) != len(elements):
        raise InputError(f"{where}: hom must have one row per element")
    # each distinct string is parsed once, at its first entry in row-major
    # order, so an invalid one fails where it did; other entries every time
    parsed: dict[str, Fraction] = {}
    rows = []
    for i, row in enumerate(hom):
        if not isinstance(row, list) or len(row) != len(elements):
            raise InputError(f"{where}: hom[{i}] must have one entry per element")
        values = []
        for j, v in enumerate(row):
            value = parsed.get(v) if type(v) is str else None
            if value is None:
                value = parse_rational(v, f"{where}: hom[{i}][{j}]")
                if type(v) is str:
                    parsed[v] = value
            values.append(value)
        rows.append(tuple(values))
    return RCat(tuple(elements), tuple(rows))


def load_category(path) -> RCat:
    return category_from_dict(_load_json_file(path), where=str(path))


def category_to_dict(cat: RCat) -> dict:
    return {
        "elements": [label_text(e) for e in cat.elements],
        "hom": [[format_rational(v) for v in row] for row in cat.hom],
    }


def sequence_from_dict(data, base_dir=None, where: str = "sequence") -> TailSeq:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    carrier = data.get("carrier")
    if isinstance(carrier, str):
        path = Path(carrier)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        cat = load_category(path)
    elif isinstance(carrier, dict):
        cat = category_from_dict(carrier, where=f"{where}: carrier")
    else:
        raise InputError(f'{where}: "carrier" must be a path or inline category')
    prefix = data.get("prefix", [])
    cycle = data.get("cycle")
    if not isinstance(prefix, list):
        raise InputError(f'{where}: "prefix" must be a list')
    if not isinstance(cycle, list) or not cycle:
        raise InputError(f'{where}: "cycle" must be a nonempty list')
    if not all(isinstance(lbl, str) for lbl in prefix + cycle):
        raise InputError(f'{where}: "prefix" and "cycle" labels must be strings')
    try:
        return TailSeq(cat, tuple(prefix), tuple(cycle))
    except InputError as exc:  # a label that is not in the carrier
        raise InputError(f"{where}: {exc}") from None


def load_sequence(path) -> TailSeq:
    return sequence_from_dict(
        _load_json_file(path), base_dir=Path(path).parent, where=str(path)
    )


def functor_to_list(f: RFunctor) -> list:
    """Target labels in source element order."""
    return [label_text(lbl) for lbl in f.mapping]


def power_to_dict(p: PowerObject) -> dict:
    """The functors and ``d`` of a power; base and fiber are the report's
    inputs.  Each value is formatted once and ``d`` indexes the strings by
    rank."""
    text = [format_rational(v) for v in p.values]
    return {
        "functors": [[label_text(lbl) for lbl in m] for m in p.labels],
        "d": [list(map(text.__getitem__, row)) for row in p.ranks],
    }


def bundle_to_dict(b: CounterexampleBundle) -> dict:
    return {
        "tnorm": tnorm_to_dict(b.tnorm),
        "p": format_rational(b.p),
        "q": format_rational(b.q),
        "u": format_rational(b.u),
        "base": category_to_dict(b.base),
        "fiber": category_to_dict(b.fiber),
        "f": functor_to_list(b.f),
        "g": functor_to_list(b.g),
        "h": functor_to_list(b.h),
        "d_fg": format_rational(b.d_fg),
        "d_gh": format_rational(b.d_gh),
        "d_fh": format_rational(b.d_fh),
        "interchange": {
            "lhs": format_rational(b.c1_lhs),
            "rhs": format_rational(b.c1_rhs),
        },
        "transitivity": {
            "lhs": format_rational(b.trans_lhs),
            "rhs": format_rational(b.trans_rhs),
        },
        "violated": {
            "inequality": "(d_fg & d_gh) ∧ u <= d_fh ∧ u",
            "lhs": format_rational(b.capped_lhs),
            "rhs": format_rational(b.capped_rhs),
        },
    }


def to_jsonable(obj):
    """Recursively render report values: fractions as strings, records as
    dicts of their fields (a boolean ``verdict`` as "pass" or "fail")."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, RCat):
        return category_to_dict(obj)
    if isinstance(obj, PowerObject):
        return power_to_dict(obj)
    if isinstance(obj, CounterexampleBundle):
        return bundle_to_dict(obj)
    if isinstance(obj, Record):
        out = {name: to_jsonable(getattr(obj, name)) for name in obj._fields}
        if "verdict" in out and isinstance(obj.verdict, bool):
            out["verdict"] = "pass" if obj.verdict else "fail"
        return out
    if isinstance(obj, dict):
        return {label_text(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return label_text(obj)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)``, faster.

    ``obj`` is a JSON-native tree: dicts with ``str`` keys, lists, ``str``,
    ``int``, ``bool`` and ``None`` (those exact types); anything else raises
    ``TypeError``.  The standard library's C encoder ignores ``indent``, so
    ``json.dumps`` with an indent runs its pure-Python encoder, which took
    more of a small ``exp`` or ``power-completeness`` run than the
    mathematics.  This writer gives the same text: strings go through the
    same ``encode_basestring``, and a list of strings (a hom row, a functor)
    is written with one ``join``.  ``json.dumps`` with those arguments is its
    test reference (``tests/test_jsonio.py``).
    """
    return _encode(obj, "\n")


def _encode(obj, newline: str) -> str:
    """``obj`` as ``dumps`` writes it, nested at the indent of ``newline``."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    inner = newline + "  "
    if kind is list:
        if not obj:
            return "[]"
        if type(obj[0]) is str:
            try:
                return "[" + inner + ("," + inner).join(map(_quote, obj)) + newline + "]"
            except TypeError:
                pass  # not all strings: item by item
        body = [_encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        # _quote raises TypeError on a key that is not a str
        body = [_quote(k) + ": " + _encode(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is int:
        return int.__repr__(obj)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
