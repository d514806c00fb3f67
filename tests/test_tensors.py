"""Tensor core: flattenings, sub-block enumeration, symmetric coordinates."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import enumerate_subblocks, extract_subblock
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import tensors as tn

shapes = st.lists(st.integers(2, 4), min_size=3, max_size=4).map(tuple)


def rand_tensor(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape)


@settings(max_examples=50, deadline=None)
@given(shapes, st.integers(0, 10_000))
def test_flatten_places_entries_by_row_and_column_multi_indices(shape, seed):
    # entry (r, c) is t at the r-th row-mode and the c-th column-mode
    # multi-index, both enumerated row-major in mode order
    rng = np.random.default_rng(seed)
    t = rand_tensor(rng, shape)
    for r in range(1, len(shape)):
        for rows in itertools.combinations(range(len(shape)), r):
            cols = tuple(m for m in range(len(shape)) if m not in rows)
            mat = tn.flatten(t, rows)
            row_indices = list(itertools.product(*(range(shape[m]) for m in rows)))
            col_indices = list(itertools.product(*(range(shape[m]) for m in cols)))
            assert mat.shape == (len(row_indices), len(col_indices))
            for i, row in enumerate(row_indices):
                for j, col in enumerate(col_indices):
                    index = dict(zip(rows + cols, row + col))
                    assert mat[i, j] == t[tuple(index[m] for m in range(len(shape)))]


def test_flatten_rejects_bad_modes():
    t = np.zeros((2, 2, 2))
    with pytest.raises(tn.InvalidModes):
        tn.flatten(t, [])
    with pytest.raises(tn.InvalidModes):
        tn.flatten(t, [3])
    with pytest.raises(tn.InvalidModes):
        tn.flatten(t, [0, 1, 2])


@settings(max_examples=20, deadline=None)
@given(shapes)
def test_subblock_count_formula(shape):
    # one sub-block per: 3 modes restricted to index pairs, the rest pinned
    d = len(shape)
    expected = 0
    for triple in itertools.combinations(range(d), 3):
        ways = 1
        for m in range(d):
            ways *= math.comb(shape[m], 2) if m in triple else shape[m]
        expected += ways
    assert len(enumerate_subblocks(shape)) == expected


def test_extract_subblock_entries():
    t = np.arange(24).reshape(2, 3, 4)
    sel = enumerate_subblocks(t.shape)[0]
    block = extract_subblock(t, sel)
    assert block.shape == (2, 2, 2)


@settings(max_examples=50, deadline=None)
@given(shapes, st.integers(0, 10_000))
def test_numeric_rank_of_rank_one_and_two_sums(shape, seed):
    rng = np.random.default_rng(seed)
    vecs1 = [rng.standard_normal(n) for n in shape]
    vecs2 = [rng.standard_normal(n) for n in shape]
    t1 = tn.outer(vecs1)
    t2 = t1 + tn.outer(vecs2)
    for m in range(len(shape)):
        assert tn.numeric_rank(tn.flatten(t1, [m])) == 1
        assert tn.numeric_rank(tn.flatten(t2, [m])) == 2


def test_exact_matrix_rank_object_dtype():
    mat = np.array([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], dtype=object)
    assert tn.matrix_rank(mat) == 1


def test_squeeze_ones():
    t = np.zeros((1, 3, 1, 2))
    assert tn.squeeze_ones(t).shape == (3, 2)
    assert tn.squeeze_ones(np.zeros((1, 1))).shape == (1,)


def test_multidegrees_count_and_order():
    for n, d in [(2, 4), (3, 3), (4, 2)]:
        degs = tn.multidegrees(n, d)
        assert len(degs) == math.comb(n + d - 1, d)
        assert all(sum(u) == d for u in degs)
        assert len(set(degs)) == len(degs)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(3, 4), st.integers(0, 10_000))
def test_sym_to_tensor_is_symmetric(n, d, seed):
    rng = random.Random(seed)
    coeffs = {u: Fraction(rng.randint(-5, 5)) for u in tn.multidegrees(n, d)}
    f = tn.SymTensorCoords(n, d, coeffs)
    t = tn.sym_to_tensor(f)
    assert t.shape == (n,) * d
    idx = tuple(rng.randrange(n) for _ in range(d))
    for perm in itertools.permutations(idx):
        assert t[perm] == t[idx]


def test_sym_to_tensor_monomial_entries():
    # 2 x y on n=2, d=2: tensor entries are x_u = coeffs scaled by 1
    f = tn.SymTensorCoords(2, 2, {(2, 0): Fraction(0), (1, 1): Fraction(3), (0, 2): Fraction(0)})
    t = tn.sym_to_tensor(f)
    assert t[0, 1] == t[1, 0] == 3
    assert t[0, 0] == t[1, 1] == 0


def test_index_multidegree():
    assert tn.index_multidegree((0, 1, 1, 0), 2) == (2, 2)
    assert tn.index_multidegree((2, 2, 2), 3) == (0, 0, 3)


def test_tensor_json_round_trip_exact_and_float():
    t = tn.tensor((2, 2), [Fraction(1, 3), 2, Fraction(-5), 0])
    back = tn.tensor_from_json(tn.tensor_to_json(t))
    assert tn.is_exact(back)
    assert np.array_equal(back, t)
    tf = tn.tensor((2, 2), [0.5, 1.25, -3.0, 7.0])
    backf = tn.tensor_from_json(tn.tensor_to_json(tf))
    assert np.array_equal(backf, tf)


def test_sym_json_round_trip():
    f = tn.SymTensorCoords(2, 4, {(4 - i, i): Fraction(c) for i, c in enumerate([1, 0, 0, 0, -1])})
    payload = json.loads('{"n": 2, "d": 4, "coeffs": {"4,0": 1, "3,1": "0", "1,3": "0/5", "0,4": "-1"}}')
    assert tn.sym_from_json(payload) == f


def test_tensor_rejects_wrong_entry_count():
    with pytest.raises(tn.ShapeMismatch):
        tn.tensor((2, 2), [1, 2, 3])


def test_read_scalars_is_exact_unless_a_value_is_a_float():
    assert tn.read_scalars([1, "-1/2", "3", Fraction(2, 3)]) == [1, Fraction(-1, 2), 3, Fraction(2, 3)]
    assert tn.read_scalars([1, "-1/2", 1.5]) == [1.0, -0.5, 1.5]
    assert tn.read_scalars(["0.25", "1e-3", 2]) == [0.25, 0.001, 2.0]
    assert all(type(v) is float for v in tn.read_scalars([np.float64(0.5), 1]))
    for bad in ([True], [None], [[1]], ["abc"], ["1/0"], 5, "12"):
        with pytest.raises(tn.MalformedEntry):
            tn.read_scalars(bad)
    for bad in ([float("inf")], [1, float("nan")], ["1e999"]):
        with pytest.raises(tn.NonFiniteEntry):
            tn.read_scalars(bad)


def test_sym_from_json_checks_keys_before_filling_multidegrees(monkeypatch):
    def no_fill(n, d):
        raise AssertionError("multidegrees filled before the keys were checked")

    monkeypatch.setattr(tn, "multidegrees", no_fill)
    with pytest.raises(tn.ShapeMismatch):
        tn.sym_from_json({"n": 2, "d": 10 ** 6, "coeffs": {"3,0": 1}})
    for key in ("3,0,0", "-1,4"):
        with pytest.raises(tn.ShapeMismatch):
            tn.sym_from_json({"n": 2, "d": 3, "coeffs": {key: 1}})
    with pytest.raises(tn.MalformedEntry):
        tn.sym_from_json({"n": 2, "d": 3, "coeffs": {"a,b": 1}})


def test_sym_from_json_bounds_the_coordinate_count_before_filling(monkeypatch):
    limit = tn.MAX_SYM_COORDS
    assert len(tn.sym_from_json({"n": 2, "d": limit - 1, "coeffs": {}}).coeffs) == limit
    monkeypatch.setattr(tn, "multidegrees", lambda n, d: pytest.fail("filled past the limit"))
    for n, d in ((2, limit), (2, 100_000), (3, 140), (10 ** 9, 10 ** 9), (10 ** 12, 3)):
        with pytest.raises(tn.TooManyCoordinates):
            tn.sym_from_json({"n": n, "d": d, "coeffs": {}})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 10 ** 6))
def test_coordinate_bound_equals_the_binomial(n, d, limit):
    assert tn._coordinates_exceed(n, d, limit) == (math.comb(n + d - 1, d) > limit)
