"""The CLI's JSON writer against its oracle, `json.dumps(obj, indent=2)`."""

from __future__ import annotations

import copy
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import certify as ce
from realrank2 import hyperdet as hd
from realrank2 import jsontext
from realrank2 import tensors as tn

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, math.nan, math.inf, -math.inf]

texts = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t é\U0001f600%')))
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-2**200, -2**64))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
keys = st.one_of(texts, st.integers(-5, 5), floats, st.booleans(), st.none())


@st.composite
def row_lists(draw, children):
    """Dicts sharing one key tuple with scalar values, sometimes with one
    row made odd: a key missing or added, a container value, another key
    order, or its int keys given as the equal floats."""
    row_keys = draw(st.lists(keys, max_size=4))
    rows = [dict(zip(row_keys, draw(st.lists(scalars, min_size=len(row_keys), max_size=len(row_keys)))))
            for _ in range(draw(st.integers(1, 6)))]
    i = draw(st.integers(0, len(rows) - 1))
    change = draw(st.sampled_from(["none", "missing", "added", "container", "order", "retyped"]))
    if change == "missing" and rows[i]:
        rows[i].pop(next(iter(rows[i])))
    elif change == "added":
        rows[i][draw(keys)] = draw(scalars)
    elif change == "container" and rows[i]:
        rows[i][next(iter(rows[i]))] = draw(children)
    elif change == "order":
        rows[i] = dict(reversed(list(rows[i].items())))
    elif change == "retyped":
        rows[i] = {(float(k) if type(k) is int else k): v for k, v in rows[i].items()}
    return rows


payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        row_lists(children),
    ),
    max_leaves=30,
)


@settings(max_examples=250, deadline=None)
@given(payloads)
def test_writer_equals_json_dumps(payload):
    assert jsontext.dumps(payload) == json.dumps(payload, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fixed_dictionaries({"selector": texts, "value": st.one_of(floats, ints, texts)}),
                min_size=1, max_size=20))
def test_sub_block_rows_equal_json_dumps(rows):
    payload = {"hyperdet": {"values": rows}}
    assert jsontext.dumps(payload) == json.dumps(payload, indent=2)


def test_certificate_equals_json_dumps():
    t = np.random.default_rng(3).standard_normal((2, 2, 3, 2))
    payload = ce.certify_border_rank2(t).to_json()
    # float columns with NaN, with infinities but no NaN, and of finite values whose sum overflows
    for overflowed in ([math.nan, math.inf, -math.inf, -0.0], [math.inf, 1.0], [-0.0, -math.inf],
                       [1.7976931348623157e308] * 2):
        payload["overflowed"] = hd.report_from_values([(str(v), v) for v in overflowed], 0.0).to_json()
        assert jsontext.dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [
    [{1: "a"}, {1.0: "b"}, {True: "c"}],
    [{"a": 1, 0: 2}, {"a": 1, False: 2}, {"a": 1, 0.0: 2}],
])
def test_equal_keys_of_other_types_keep_their_spelling(payload):
    assert jsontext.dumps(payload) == json.dumps(payload, indent=2)


def test_float_and_int_subclasses_print_as_json_does():
    payload = [{"a": np.float64(0.1), "b": 1}, {"a": np.float64(math.nan), "b": 2}, np.float64(-math.inf)]
    assert jsontext.dumps(payload) == json.dumps(payload, indent=2)


class Opaque:
    pass


@settings(max_examples=100, deadline=None)
@given(payloads, st.sampled_from([np.int64(1), 1j, {1}, Opaque(), b"x"]), st.data())
def test_non_json_values_raise_type_error_as_json_does(payload, bad, data):
    where = data.draw(st.sampled_from(["top", "list", "dict", "row"]))
    if where == "list":
        payload = [payload, bad]
    elif where == "dict":
        payload = {"ok": payload, "bad": bad}
    elif where == "row":
        payload = [{"selector": "a", "value": 1.5}, {"selector": "b", "value": bad}]
    else:
        payload = bad
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as got:
        jsontext.dumps(payload)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("payload", [{(1, 2): 1}, [{"a": 1}, {b"k": 2}], [{1j: 0}, {1j: 1}]])
def test_bad_keys_raise_type_error_as_json_does(payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as got:
        jsontext.dumps(payload)
    assert str(got.value) == str(expected.value)


def test_circular_container_raises_value_error():
    loop: list = [{"a": 1}]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        jsontext.dumps(loop)


# sub-block values as reports hold them: floats (NaN, infinities, -0.0 and
# subnormals among them), ints past 2^64, and Fractions, which print as "n/d"
report_values = st.one_of(floats, ints, st.fractions(), st.integers(-9, 9).map(Fraction))
# a column of floats alone, as a float tensor's sweep gives, takes its own path in the writer
reports = st.one_of(st.lists(st.tuples(texts, report_values), max_size=8),
                    st.lists(st.tuples(texts, floats), max_size=8)).map(lambda pairs: hd.report_from_values(pairs, 0))


def _as_dicts(report: hd.HyperdetReport) -> list[dict]:
    """The list of dicts a report's JSON rows stand for."""
    return [{"selector": k, "value": tn.num_json(v)} for k, v in report.values]


def _certificate(report: hd.HyperdetReport) -> ce.Certificate:
    return ce.Certificate({"mode_1": 2}, 2, report, ce.Verdict.REAL_RANK_TWO,
                          {"rank_tol": "exact", "hyperdet_zero_tol": 0})


@settings(max_examples=300, deadline=None)
@given(reports, reports, st.data())
def test_columnar_rows_read_as_the_list_of_dicts(report, other, data):
    rows, dicts = report.to_json()["values"], _as_dicts(report)
    # written: alone, at depth 1 (the hyperdet command) and depth 2 (certify)
    for indent in (None, 2):
        assert json.dumps(rows, indent=indent) == json.dumps(dicts, indent=indent)
    assert jsontext.dumps(rows) == json.dumps(dicts, indent=2)
    depth_1, depth_2 = report.to_json(), _certificate(report).to_json()
    for payload, listed in [(depth_1, dict(depth_1, values=dicts)),
                            (depth_2, dict(depth_2, hyperdet=dict(depth_2["hyperdet"], values=dicts)))]:
        assert jsontext.dumps(payload) == json.dumps(listed, indent=2) == json.dumps(payload, indent=2)
        assert json.dumps(payload) == json.dumps(listed)
        read_back = json.loads(json.dumps(payload), parse_constant=str)  # NaN, whose == is False, as a str
        assert (payload == read_back) is (listed == read_back)
    # compared: with the list, with another report's rows (equal or not) and with []
    if data.draw(st.booleans()):
        other = hd.report_from_values(list(report.values), 0)
    other_rows, other_dicts = other.to_json()["values"], _as_dicts(other)
    for a, b, want in [(rows, dicts, True), (rows, other_rows, dicts == other_dicts),
                       (rows, other_dicts, dicts == other_dicts), (rows, [], dicts == []),
                       (rows, list(rows), True), (rows, rows, True)]:
        assert (a == b) is want and (b == a) is want
        assert (a != b) is not want and (b != a) is not want
    assert rows != tuple(dicts) and tuple(dicts) != rows  # a list never equals a tuple
    # the report's own (label, value) pairs compare as their list, too
    pairs = list(report.values)
    assert report.values == pairs and pairs == report.values and report.values != pairs + [("", 0)]
    assert (report.values == other.values) is (pairs == list(other.values)) is (report == other)
    assert (report.values != []) is bool(pairs)
    # read: len, truth, iteration, indexing, membership, repr, copies
    assert len(rows) == len(dicts) and bool(rows) is bool(dicts)
    assert list(rows) == dicts and list(reversed(rows)) == dicts[::-1]
    for i in range(-len(dicts), len(dicts)):
        assert rows[i] == dicts[i] and rows.index(rows[i]) == dicts.index(dicts[i])
        assert rows[i] in rows and rows.count(rows[i]) == dicts.count(dicts[i])
    with pytest.raises(IndexError):
        rows[len(dicts)]
    assert rows[1:] == dicts[1:] and rows[::-1] == dicts[::-1]
    assert {"selector": None, "value": None} not in rows
    assert repr(rows) == repr(dicts)
    assert rows + [1] == dicts + [1] and 2 * rows == dicts * 2 == rows * 2
    for copied in (copy.copy(rows), copy.deepcopy(rows), pickle.loads(pickle.dumps(rows))):
        assert type(copied) is jsontext.Rows and json.dumps(copied) == json.dumps(dicts)  # a pickled NaN is a new NaN
    with pytest.raises(TypeError):
        hash(rows)
    with pytest.raises(TypeError):
        rows < ()  # noqa: B015
    with pytest.raises(TypeError):
        () + rows  # noqa: B018


def test_empty_report_rows():
    rows = hd.report_from_values([], 0).to_json()["values"]
    assert rows == [] and [] == rows and not rows and len(rows) == 0
    assert rows != () and list(rows) == []
    assert json.dumps(rows) == json.dumps(rows, indent=2) == jsontext.dumps(rows) == "[]"


def test_rows_of_non_scalar_values_or_without_keys_take_the_plain_path():
    rows = jsontext.Rows((("a", "b"), [{"re": 1.0, "im": -0.5}, [1, "x"]]), ("selector", "value"))
    pairs = jsontext.Rows((("a", "b"), [1.5, 2]))
    for payload in ({"values": rows}, {"pairs": pairs}):
        assert jsontext.dumps(payload) == json.dumps(payload, indent=2)
    for columns, keys in [((("a",), []), ("selector", "value")), ((("a",), [1]), ("selector",)), ((), None)]:
        with pytest.raises(ValueError):
            jsontext.Rows(columns, keys)
