"""Tensor core: flattenings, sub-block enumeration, symmetric coordinates."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import enumerate_subblocks, extract_subblock
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import certify as ce
from realrank2 import tensors as tn
from realrank2.exactsolve import exact_rank

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


def test_matrix_rank_of_an_int64_matrix_is_exact():
    # sigma_2 / sigma_1 = 1e-9 is below the float rank's relative tolerance
    mat = np.array([[10**9, 0, 0], [0, 1, 0]], dtype=np.int64)
    assert tn.numeric_rank(mat) == 1
    assert tn.matrix_rank(mat) == 2
    assert tn.matrix_rank(np.stack([mat, 0 * mat])) == [2, 0]


INT64_MIN = -tn.INT64_MAX - 1


@pytest.mark.parametrize("entries, dtype, want", [
    (np.array([tn.INT64_MAX, 0, -tn.INT64_MAX], dtype=object), np.int64, None),
    (np.array([INT64_MIN, 0, 1], dtype=object), object, None),
    (np.array([tn.INT64_MAX + 1, 0, 1], dtype=object), object, None),
    (np.array([INT64_MIN, 0, 1], dtype=np.int64), object, None),
    (np.array([tn.INT64_MAX, 0, 1], dtype=np.int64), np.int64, None),
    (np.array([tn.INT64_MAX + 1, 0, 1], dtype=np.uint64), object, None),
    (np.array([255, 0, 1], dtype=np.uint8), np.int64, None),
    (np.array([True, False, True]), np.int64, [1, 0, 1]),
    (np.array([Fraction(1, 2), Fraction(-1, 3), 0], dtype=object), np.int64, [3, -2, 0]),
    (np.array([Fraction(tn.INT64_MAX, 2), Fraction(1, 3), 0], dtype=object), object,
     [3 * tn.INT64_MAX, 2, 0]),
])
def test_integers_is_int64_exactly_when_every_entry_fits(entries, dtype, want):
    # int64 exactly when max |entry| <= 2^63 - 1: -2^63 fits in int64 but
    # its absolute value does not, so it takes Python ints too
    got = tn.integers(entries.reshape(1, 3))
    assert got.shape == (1, 3) and got.dtype == np.dtype(dtype)
    assert got.ravel().tolist() == (entries.tolist() if want is None else want)
    assert all(type(v) is int for v in got.ravel().tolist())


def test_integers_choice_holds_under_optimize():
    # the int64 / Python int choice is an if, not an assert
    code = "\n".join([
        "import numpy as np",
        "from realrank2 import tensors as tn",
        "assert False, 'asserts must be off'",
        "for entries in ([2**63 - 1, -(2**63 - 1)], [-2**63, 0], [2**63, 0]):",
        "    print(tn.integers(np.array(entries, dtype=object)).dtype)",
        "print(tn.integers(np.array([-2**63, 0], dtype=np.int64)).dtype)",
    ])
    src = str(Path(tn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["int64", "object", "object", "object"]


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
    coords = [Fraction(rng.randint(-5, 5)) for _ in tn.multidegrees(n, d)]
    f = tn.SymTensorCoords(n, d, coords)
    t = tn.sym_to_tensor(f)
    assert t.shape == (n,) * d
    idx = tuple(rng.randrange(n) for _ in range(d))
    for perm in itertools.permutations(idx):
        assert t[perm] == t[idx]


def test_sym_to_tensor_monomial_entries():
    # 2 x y on n=2, d=2: tensor entries are x_u = coeffs scaled by 1
    f = tn.SymTensorCoords(2, 2, [Fraction(0), Fraction(3), Fraction(0)])
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
    f = tn.SymTensorCoords(2, 4, [Fraction(c) for c in [1, 0, 0, 0, -1]])
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
    assert len(tn.sym_from_json({"n": 2, "d": limit - 1, "coeffs": {}}).coords) == limit
    monkeypatch.setattr(tn, "multidegrees", lambda n, d: pytest.fail("filled past the limit"))
    for n, d in ((2, limit), (2, 100_000), (3, 140), (10 ** 9, 10 ** 9), (10 ** 12, 3)):
        with pytest.raises(tn.TooManyCoordinates):
            tn.sym_from_json({"n": n, "d": d, "coeffs": {}})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 10 ** 6))
def test_coordinate_bound_equals_the_binomial(n, d, limit):
    assert tn._coordinates_exceed(n, d, limit) == (math.comb(n + d - 1, d) > limit)


# ------------------------------------------------- flattening ranks by stack

def _selections(ndim: int) -> list[tuple[int, ...]]:
    """The row-mode selections certification ranks: every single mode, and
    every pair of modes from order 4 on."""
    pairs = list(itertools.combinations(range(ndim), 2)) if ndim >= 4 else []
    return [(m,) for m in range(ndim)] + pairs


def _long_sides(shape) -> list[int]:
    return sorted({max(mat.shape) for mat in (tn.flatten(np.zeros(shape), s)
                                              for s in _selections(len(shape)))})


def _gram_edge(c: int) -> int:
    """The largest B with c * B^2 <= 2^63 - 1."""
    return math.isqrt((2**63 - 1) // c)


def _oracle(t: np.ndarray) -> list[int]:
    return [exact_rank(tn.flatten(t, s).tolist()) for s in _selections(t.ndim)]


@st.composite
def exact_tensors(draw):
    """Orders 3-6, sizes 1-4 (at most 256 entries): the zero tensor, a sum
    of 1-4 integer rank-one terms (over a common denominator), or such a sum
    scaled so that its largest entry sits at, or one past, the int64 Gram
    bound of one of its flattenings' long sides."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=6)
                       .filter(lambda s: math.prod(s) <= 256)))
    kind = draw(st.sampled_from(["zero", "sum", "edge"]))
    if kind == "zero":
        return np.zeros(shape, dtype=int).astype(object)
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    terms = draw(st.integers(1, 4))
    t = sum(tn.outer([np.array(rng.integers(-3, 4, n).tolist(), dtype=object) for n in shape])
            for _ in range(terms))
    if kind == "sum":
        return t / Fraction(draw(st.integers(1, 6)))
    b = _gram_edge(draw(st.sampled_from(_long_sides(shape)))) + draw(st.integers(0, 1))
    peak = max(map(abs, t.ravel().tolist()))
    t = t * (b // peak) if peak else t
    t.ravel()[draw(st.integers(0, t.size - 1))] = draw(st.sampled_from([b, -b]))
    return t


@settings(max_examples=150, deadline=None)
@given(exact_tensors())
def test_exact_flattening_ranks_equal_the_rank_of_each_dense_flattening(t):
    assert tn.flattening_ranks(t, _selections(t.ndim)) == _oracle(t)


def _sign_tensor(shape, b: int) -> np.ndarray:
    """b times a (1, -1)-power, minus e_1 x ... x e_1: rank two, max |entry| b."""
    t = b * tn.outer([np.array([1, -1] * (n // 2), dtype=object) for n in shape])
    t.ravel()[0] -= 1
    return t


@pytest.mark.parametrize("past", [0, 1])
def test_gram_past_the_int64_bound_is_taken_in_python_ints(monkeypatch, past):
    # the 4 x 64 single-mode flattenings of a 4^4 sit at (past=0) or one past
    # (past=1) the bound: the Gram matrices exact_rank receives are exactly
    # M M^T either way, and only past the bound do they leave int64
    t = _sign_tensor((4, 4, 4, 4), _gram_edge(64) + past)
    seen = []
    monkeypatch.setattr(tn, "exact_rank", lambda rows: seen.append(rows) or exact_rank(rows))
    assert tn.flattening_ranks(t, _selections(4)) == _oracle(t) == [2] * 10
    for m, gram in zip(range(4), seen):  # the single modes come first
        rows = tn.flatten(t, [m]).tolist()
        assert gram == [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
        assert (max(max(row) for row in gram) > 2**63 - 1) == bool(past)
    assert [len(rows) for rows in seen] == [4] * 4 + [16] * 6  # merged: 16 x 16, no Gram


def test_gram_bound_holds_under_optimize():
    # the bound is an if, not an assert: under -O the Gram matrices of a 4^4
    # one past it still leave int64, and its ranks are those of its dense
    # flattenings
    b = _gram_edge(64) + 1
    code = "\n".join([
        "import numpy as np",
        "from realrank2 import tensors as tn",
        "from realrank2.exactsolve import exact_rank",
        "assert False, 'asserts must be off'",
        f"t = {b} * tn.outer([np.array([1, -1, 1, -1], dtype=object)] * 4)",
        "t.ravel()[0] -= 1",
        "grams = []",
        "tn.exact_rank = lambda rows: grams.append(rows) or exact_rank(rows)",
        "print(tn.exact_matrix_rank(np.stack([tn.flatten(t, [m]) for m in range(4)])))",
        "print(max(x for rows in grams for row in rows for x in row) > 2**63 - 1)",
        "sels = [(m,) for m in range(4)] + [(i, j) for i in range(4) for j in range(i + 1, 4)]",
        "print(tn.flattening_ranks(t, sels) == [exact_rank(tn.flatten(t, s).tolist()) for s in sels])",
    ])
    src = str(Path(tn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[2, 2, 2, 2]", "True", "True"]


def test_exact_matrix_rank_of_a_stack_and_of_each_matrix():
    # tall, wide and square members; Fractions are ranked exactly
    rng = np.random.default_rng(7)
    for shape in ((5, 3, 7), (4, 6, 2), (3, 4, 4)):
        stack = np.array(rng.integers(-2, 3, shape).tolist(), dtype=object) / Fraction(3)
        stack[0] = 0
        assert tn.exact_matrix_rank(stack) == [exact_rank(m.tolist()) for m in stack]
        assert [tn.matrix_rank(m) for m in stack] == tn.matrix_rank(stack)


# the shapes of the float benchmark, and 2 x 3 x 4, whose flattenings all
# have different shapes, so each stack holds one matrix
FLOAT_SHAPES = ((2, 2, 2), (3, 3, 3), (2,) * 5, (4, 4, 4), (6, 6, 6), (4, 4, 4, 4), (2,) * 9)


def _float_draw(rng: np.random.Generator, family: str, shape) -> np.ndarray:
    if family == "generic":
        return rng.standard_normal(shape)
    a = [rng.standard_normal(n) for n in shape]
    if family == "rank-one":
        return tn.outer(a)
    b = [rng.standard_normal(n) for n in shape]
    if family == "real":
        return tn.outer(a) + tn.outer(b)
    return 2 * tn.outer([x + 1j * y for x, y in zip(a, b)]).real  # a conjugate pair


@pytest.mark.parametrize("shape", FLOAT_SHAPES + ((2, 3, 4),))
def test_stacked_singular_values_equal_each_flattenings_own_bit_for_bit(monkeypatch, shape):
    t = _float_draw(np.random.default_rng(len(shape)), "real", shape)
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append((a, svd(a, **kw))) or calls[-1][1])
    sels = _selections(t.ndim)
    tn.flattening_ranks(t, sels)
    monkeypatch.undo()
    assert all(a.ndim == 3 and a.flags.c_contiguous for a, _ in calls)
    assert len(calls) == len({tn.flatten(t, s).shape for s in sels})
    stacked = [values for _, out in calls for values in out]
    mats = [mat for a, _ in calls for mat in a]
    assert len(stacked) == len(sels)
    for mat, values in zip(mats, stacked):
        assert np.array_equal(values, svd(mat, compute_uv=False))
    assert sorted(map(bytes, map(np.ascontiguousarray, mats))) == \
        sorted(bytes(np.ascontiguousarray(tn.flatten(t, s))) for s in sels)
    if shape == (2, 3, 4):
        assert [a.shape[0] for a, _ in calls] == [1, 1, 1]


@pytest.mark.parametrize("family", ["real", "conjugate", "generic", "rank-one"])
@pytest.mark.parametrize("shape", FLOAT_SHAPES)
def test_float_flattening_ranks_equal_the_rank_of_each_flattening(family, shape):
    t = _float_draw(np.random.default_rng(sum(shape)), family, shape)
    sels = _selections(t.ndim)
    own = [tn.numeric_rank(tn.flatten(t, s)) for s in sels]
    assert tn.flattening_ranks(t, sels) == own
    labels = ["mode_" + "_".join(str(m + 1) for m in s) for s in sels]
    assert ce.certify_border_rank2(t).flattening_ranks == dict(zip(labels, own))


def test_symmetric_coordinates_need_one_per_multidegree():
    with pytest.raises(tn.ShapeMismatch, match="need 4 coordinates for n=2, d=3, got 3"):
        tn.SymTensorCoords(2, 3, [1, 2, 3])
