"""The CLI's JSON writer against its oracle, `json.dumps(obj, indent=2)`."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import certify as ce
from realrank2 import hyperdet as hd
from realrank2 import jsontext

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
    overflowed = [("a", math.nan), ("b", math.inf), ("c", -math.inf), ("d", -0.0)]
    payload["overflowed"] = hd.report_from_values(overflowed, 0.0).to_json()
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
