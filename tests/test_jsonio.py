import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import UNITS, collapse_norms
from tnormcat import (
    InputError,
    RCat,
    TailSeq,
    TNorm,
    check_c1,
    check_c2,
    check_ccc,
    cli,
    extract_intervals,
    interval_collapse,
    jsonio,
    label_text,
    lukasiewicz,
    minimum,
    parse_rational,
    product,
)
from tnormcat.tnorms import FAMILIES, INTERVAL_COLLAPSE
from tnormcat.jsonio import (
    _load_json_file,
    bundle_to_dict,
    category_from_dict,
    category_to_dict,
    dumps,
    load_category,
    load_sequence,
    load_tnorm,
    power_to_dict,
    sequence_from_dict,
    tnorm_from_dict,
    tnorm_to_dict,
    to_jsonable,
)
from tnormcat import counterexample, exponential

F = Fraction


class TestTNormSchema:
    def test_round_trip_simple(self):
        t = tnorm_from_dict({"family": "minimum"})
        assert t == minimum()
        assert tnorm_to_dict(t) == {"family": "minimum"}

    def test_round_trip_intervals(self):
        data = {"family": "interval-collapse", "intervals": [["1/5", "1/2"]]}
        t = tnorm_from_dict(data)
        assert t == interval_collapse([(F(1, 5), F(1, 2))])
        assert tnorm_to_dict(t) == data

    def test_intervals_required_iff_collapse(self):
        with pytest.raises(InputError):
            tnorm_from_dict({"family": "interval-collapse"})
        with pytest.raises(InputError):
            tnorm_from_dict({"family": "minimum", "intervals": [["0", "1/2"]]})

    def test_bad_rational_diagnosed_with_position(self):
        with pytest.raises(InputError) as err:
            tnorm_from_dict(
                {"family": "interval-collapse", "intervals": [["1/5", "x/2"]]}
            )
        assert "intervals[0][1]" in str(err.value)

    def test_malformed_json_file_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"family": "minimum",}')
        with pytest.raises(InputError) as err:
            load_tnorm(path)
        assert "line 1" in str(err.value)


def _loaded_or_error(load, source):
    try:
        return "value", load(source)
    except InputError as exc:
        return "InputError", str(exc)


# raw file contents that text mode reads differently from the bytes, or
# rejects; each must load as ``oracles.load_json_file_reference`` loads it
RAW_FILES = {
    "crlf": b'{\r\n  "family": "minimum"\r\n}\r\n',
    "cr": b'{\r  "family": "minimum"\r}\r',
    "crlf-syntax-error": b'{\r\n  "family": "minimum",\r\n }\r\n',
    "cr-syntax-error": b'{\r  "family": "minimum",\r }\r',
    "mixed-endings-syntax-error": b'{\r\r\n\n\r "family": "minimum",\n\r\n }',
    "cr-in-string": b'{"family": "mini\rmum"}',
    "bom": b'\xef\xbb\xbf{"family": "minimum"}',
    "invalid-byte": b'{"family": "m\xe9nimum"}',
    "truncated-sequence": b'{"family": "minimum\xc3',
    "utf-16-le": '{"family": "minimum"}'.encode("utf-16-le"),
    "utf-16-bom": '{"family": "minimum"}'.encode("utf-16"),
    "empty": b"",
}


class TestFileReading:
    @pytest.mark.parametrize("name", RAW_FILES)
    def test_raw_read_matches_text_mode(self, tmp_path, name):
        path = tmp_path / "input.json"
        path.write_bytes(RAW_FILES[name])
        got = _loaded_or_error(_load_json_file, path)
        assert got == _loaded_or_error(oracles.load_json_file_reference, path)
        if name in ("crlf", "cr"):
            assert got == ("value", {"family": "minimum"})
        elif name.startswith("utf-16"):
            assert got[0] == "InputError"  # UTF-16 and UTF-32 stay unread

    @pytest.mark.parametrize("name", ["crlf-syntax-error", "cr-syntax-error"])
    def test_syntax_error_position_counts_text_lines(self, tmp_path, name):
        # without the newline translation the CR-only file is one line, and
        # the error is reported at line 1, column 27
        path = tmp_path / "input.json"
        path.write_bytes(RAW_FILES[name])
        with pytest.raises(InputError) as err:
            _load_json_file(path)
        assert str(err.value) == (f"{path}: malformed JSON at line 3, column 2: "
                                  "Expecting property name enclosed in double quotes")

    def test_missing_file_matches_text_mode(self, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            got = _loaded_or_error(_load_json_file, path)
            assert got == _loaded_or_error(oracles.load_json_file_reference, path)
            assert got[1].startswith(f"cannot read {path}: [Errno ")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b" ", b"{", b"}", b"[", b"]",
                                 b'"a"', b":", b",", b"1", b"\xc3", b"\xa9",
                                 b"\xef\xbb\xbf", b"\x00"]), max_size=12))
def test_raw_read_matches_text_mode_on_random_bytes(chunks):
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(b"".join(chunks))
        assert _loaded_or_error(_load_json_file, path) == \
            _loaded_or_error(oracles.load_json_file_reference, path)


class TestCategorySchema:
    def test_round_trip(self):
        data = {"elements": ["x", "y"], "hom": [["1", "1/2"], ["0", "1"]]}
        cat = category_from_dict(data)
        assert cat.hom_of("x", "y") == F(1, 2)
        assert category_to_dict(cat) == data

    def test_row_shape_checked(self):
        with pytest.raises(InputError):
            category_from_dict({"elements": ["x", "y"], "hom": [["1", "1/2"]]})

    def test_value_range_checked(self):
        with pytest.raises(InputError) as err:
            category_from_dict({"elements": ["x"], "hom": [["3/2"]]})
        assert "hom[0][0]" in str(err.value)

    def test_integer_values_accepted(self):
        cat = category_from_dict({"elements": ["x"], "hom": [[1]]})
        assert cat.hom_of("x", "x") == 1

    def test_lone_surrogate_label_rejected(self):
        # json.loads accepts the escape; no UTF-8 report could hold the label
        data = json.loads('{"elements": ["x", "\\ud800"], "hom": [["1", "0"], ["0", "1"]]}')
        with pytest.raises(InputError) as err:
            category_from_dict(data)
        assert str(err.value) == (
            "category: elements[1] does not encode as UTF-8 (surrogates not allowed)"
        )


class TestSequenceSchema:
    def test_inline_carrier(self):
        seq = sequence_from_dict(
            {
                "carrier": {"elements": ["a"], "hom": [["1"]]},
                "prefix": [],
                "cycle": ["a"],
            }
        )
        assert seq.cycle == ("a",)

    def test_carrier_path_relative_to_sequence_file(self, tmp_path):
        (tmp_path / "cat.json").write_text(
            json.dumps({"elements": ["a"], "hom": [["1"]]})
        )
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(
            json.dumps({"carrier": "cat.json", "prefix": ["a"], "cycle": ["a"]})
        )
        seq = load_sequence(seq_path)
        assert seq.prefix == ("a",) and seq.carrier.elements == ("a",)

    def test_lone_surrogate_in_inline_carrier_rejected(self):
        with pytest.raises(InputError) as err:
            sequence_from_dict(
                {"carrier": {"elements": ["\udc80"], "hom": [["1"]]},
                 "prefix": [], "cycle": ["\udc80"]}
            )
        assert str(err.value) == (
            "sequence: carrier: elements[0] does not encode as UTF-8 (surrogates not allowed)"
        )

    def test_empty_cycle_rejected(self):
        with pytest.raises(InputError):
            sequence_from_dict(
                {"carrier": {"elements": ["a"], "hom": [["1"]]}, "cycle": []}
            )


class TestReportRendering:
    def test_power_serialization_lists_functors_in_source_order(self, two_chain):
        power = exponential(minimum(), two_chain, two_chain)
        data = power_to_dict(power)
        assert data["functors"][0] == ["x", "x"] or data["functors"][0] == ["x", "y"]
        for row, f in zip(data["functors"], power.functors):
            assert row == [str(v) for v in f.mapping]
        assert len(data["d"]) == len(power)

    def test_bundle_serialization_carries_everything(self):
        b = counterexample(lukasiewicz(), F(9, 10), F(9, 10), F(1, 2))
        data = bundle_to_dict(b)
        assert data["d_fg"] == "9/10" and data["d_fh"] == "2/5"
        assert data["violated"]["lhs"] == "1/2" and data["violated"]["rhs"] == "2/5"
        assert data["f"] == ["1", "1/2"]
        assert json.dumps(data)  # JSON-safe

    def test_to_jsonable_handles_fractions_and_tuples(self):
        out = to_jsonable({"v": F(1, 3), "t": (F(0), "x")})
        assert out == {"v": "1/3", "t": ["0", "x"]}


@st.composite
def categories(draw, max_n=4):
    """Any hom matrix on [0,1], not only categories, on arbitrary string labels."""
    elements = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=max_n,
                             unique=True))
    return RCat(tuple(elements), [[draw(UNITS) for _ in elements] for _ in elements])


def _through_json(data):
    return json.loads(json.dumps(data))


NORMS = st.one_of(
    st.sampled_from([f for f in FAMILIES if f != INTERVAL_COLLAPSE]).map(TNorm),
    collapse_norms(),
)


@settings(max_examples=100, deadline=None)
@given(
    t=NORMS,
    cat=categories(),
    data=st.data(),
)
def test_json_round_trip_is_lossless(t, cat, data):
    assert tnorm_from_dict(_through_json(tnorm_to_dict(t))) == t
    assert category_from_dict(_through_json(category_to_dict(cat))) == cat
    labels = st.sampled_from(cat.elements)
    seq = TailSeq(cat, data.draw(st.lists(labels, max_size=3)),
                  data.draw(st.lists(labels, min_size=1, max_size=3)))
    # the form of a sequence in the inputs block of a ``limits`` report
    form = {"carrier": category_to_dict(cat),
            "prefix": to_jsonable(seq.prefix), "cycle": to_jsonable(seq.cycle)}
    assert sequence_from_dict(_through_json(form)) == seq


# min-closed, so categories under every t-norm; at most 3**3 maps for ``exp``
VALID_CATEGORIES = categories(max_n=3).map(
    lambda cat: RCat(cat.elements, oracles.min_transitive_closure(cat.hom)))


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@settings(max_examples=40, deadline=None)
@given(t=NORMS, base=VALID_CATEGORIES, fiber=VALID_CATEGORIES, data=st.data())
def test_exp_and_limits_reports_reload(t, base, fiber, data):
    cycle = data.draw(st.lists(st.sampled_from(fiber.elements), min_size=1, max_size=3))
    with TemporaryDirectory() as tmp:
        files = {}
        for name, payload in (("t", tnorm_to_dict(t)), ("base", category_to_dict(base)),
                              ("fiber", category_to_dict(fiber)),
                              ("seq", {"carrier": category_to_dict(fiber), "cycle": cycle})):
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(payload))
        exp = _report(["exp", "--tnorm", files["t"], "--base", files["base"],
                       "--fiber", files["fiber"]])
        limits = _report(["limits", "--seq", files["seq"]])
    assert category_from_dict(exp["inputs"]["base"]) == base
    assert category_from_dict(exp["inputs"]["fiber"]) == fiber
    d = exp["verdicts"][0]["result"]["d"]
    assert tuple(tuple(parse_rational(v) for v in row) for row in d) == \
        exponential(t, base, fiber).hom
    assert category_from_dict(limits["inputs"]["carrier"]) == fiber


def _parsed(values):
    return tuple(parse_rational(v) for v in values)


def _witness_values(result):
    return None if result["witness"] is None else _parsed(result["witness"]["values"])


@settings(max_examples=40, deadline=None)
@given(t=NORMS, left=VALID_CATEGORIES, right=VALID_CATEGORIES,
       grid=st.lists(UNITS, min_size=1, max_size=4, unique=True))
def test_tnorm_product_ccc_and_power_completeness_reports_reload(t, left, right, grid):
    values = ",".join(str(v) for v in grid)
    with TemporaryDirectory() as tmp:
        files = {}
        for name, payload in (("t", tnorm_to_dict(t)), ("left", category_to_dict(left)),
                              ("right", category_to_dict(right))):
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(payload))
        check = _report(["check-tnorm", files["t"], "--values", values])
        prod = _report(["product", files["left"], files["right"], "--tnorm", files["t"]])
        ccc = _report(["ccc-suite", files["t"], "--values", values, "--max-size", "2"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
            code = cli.main(["power-completeness", "--tnorm", files["t"],
                             "--base", files["left"], "--fiber", files["right"]])
    rows = {row["name"]: row["result"] for row in check["verdicts"]}
    assert tnorm_from_dict(check["inputs"]["tnorm"]) == t
    for name, report in (("C1", check_c1(t, grid)), ("C2", check_c2(t, grid))):
        assert _witness_values(rows[name]) == (None if report.verdict else report.witness.values)
    intervals = rows["C3-form"]["intervals"]
    assert extract_intervals(t).intervals == (
        None if intervals is None else tuple(map(_parsed, intervals)))

    assert category_from_dict(prod["inputs"]["left"]) == left
    assert category_from_dict(prod["inputs"]["right"]) == right
    # pair labels are rendered as text, which need not keep them distinct
    result = prod["verdicts"][0]["result"]
    expected = product(left, right)
    assert result["elements"] == [label_text(e) for e in expected.elements]
    assert tuple(map(_parsed, result["hom"])) == expected.hom

    assert tnorm_from_dict(ccc["inputs"]["tnorm"]) == t
    ccc_row = ccc["verdicts"][0]["result"]
    expected = check_ccc(t, grid, 2)
    assert ccc_row["categories"] == expected.categories
    assert _witness_values(ccc_row["c1"]) == (
        None if expected.c1.verdict else expected.c1.witness.values)
    if expected.bundle is not None:
        bundle = ccc_row["bundle"]
        assert category_from_dict(bundle["base"]) == expected.bundle.base
        fiber = category_from_dict(bundle["fiber"])
        assert _parsed(fiber.elements) == expected.bundle.fiber.elements
        assert fiber.hom == expected.bundle.fiber.hom

    if code == 0:
        report = json.loads(out.getvalue())
        assert tnorm_from_dict(report["inputs"]["tnorm"]) == t
        assert category_from_dict(report["inputs"]["base"]) == left
        assert category_from_dict(report["inputs"]["fiber"]) == right
    else:
        assert code == 1 and "fails C1" in err.getvalue()


# JSON-native report trees: what RunReport holds when cli._emit writes it
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_dumps_matches_json_dumps(tree):
    assert dumps(tree) == json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(), min_size=1, max_size=4), json_trees)
def test_dumps_matches_json_dumps_on_mixed_lists(strings, tree):
    # a list that starts with strings and goes on with any item
    mixed = strings + [tree]
    assert dumps(mixed) == json.dumps(mixed, indent=2, sort_keys=True, ensure_ascii=False)


@pytest.mark.parametrize("value", [0.5, ("x",), Fraction(1, 2), {1: "x"}],
                         ids=["float", "tuple", "Fraction", "int-key"])
def test_dumps_rejects_what_is_not_json_native(value):
    for tree in (value, [value], ["x", value], {"key": value}):
        with pytest.raises(TypeError):
            dumps(tree)


def _parsed_or_error(parse, text):
    try:
        value = parse(text, "v")
    except InputError as exc:
        return "InputError", str(exc)
    return type(value), value


rational_texts = st.text(
    alphabet=st.sampled_from("0123456789١٢٣/_.+- \t "), max_size=12)


@settings(max_examples=500, deadline=None)
@given(rational_texts)
@example("1/0")
@example("0/0")
@example("007/010")
@example("3/2")
@example("١٢٣/٢٠٠")
def test_parse_rational_matches_fraction_reference(text):
    assert _parsed_or_error(parse_rational, text) == \
        _parsed_or_error(oracles.parse_rational_reference, text)


@pytest.mark.parametrize("text", ["1E5000", "1e-3", "5e-1", " 2E+1 ", "1_0e1"])
def test_parse_rational_rejects_exponent_forms(text):
    with pytest.raises(InputError, match="exponent forms are not accepted"):
        parse_rational(text, "v")


def test_parse_rational_long_integer_is_input_error():
    # int() refuses more than sys.get_int_max_str_digits() digits
    with pytest.raises(InputError, match="cannot parse rational.*Exceeds the limit"):
        parse_rational("1" * 5000, "v")


# repeated strings, equal values spelled apart, whitespace, invalid and
# out-of-range strings, ints, bools and other JSON values
hom_entries = st.one_of(
    st.sampled_from(["0", "1", "1/2", "2/4", " 1/2 ", "1/2\t", "0.5", "1/3", "3/2", "1/0",
                     "x", "1e-3", "", "-0"]),
    rational_texts,
    st.integers(-1, 2),
    st.booleans(),
    st.none(),
    st.floats(0, 1),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 3), pool=st.lists(hom_entries, min_size=1, max_size=4), data=st.data())
def test_category_from_dict_matches_the_per_entry_reference(n, pool, data):
    hom = [[data.draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    payload = {"elements": [f"e{i}" for i in range(n)], "hom": hom}
    assert _loaded_or_error(category_from_dict, payload) == \
        _loaded_or_error(oracles.category_from_dict_reference, payload)


def test_category_from_dict_parses_each_distinct_string_once(monkeypatch):
    calls = []

    def counting(text, where="rational"):
        calls.append(text)
        return parse_rational(text, where)

    monkeypatch.setattr(jsonio, "parse_rational", counting)
    hom = [["1", "1/2", 0], ["1/2", "1", True], [0, "1/2", "1"]]
    with pytest.raises(InputError) as err:
        category_from_dict({"elements": ["x", "y", "z"], "hom": hom})
    # the bool fails where the per-entry loader fails, after one parse per string
    assert str(err.value) == "category: hom[1][2]: expected a rational string, got True"
    assert calls == ["1", "1/2", 0, True]
    calls.clear()
    hom[1][2] = 0
    cat = category_from_dict({"elements": ["x", "y", "z"], "hom": hom})
    assert calls == ["1", "1/2", 0, 0, 0] and cat == oracles.category_from_dict_reference(
        {"elements": ["x", "y", "z"], "hom": hom})
