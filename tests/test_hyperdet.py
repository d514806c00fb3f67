"""2x2x2 hyperdeterminant: closed-form oracle, sign identities, sub-block
reports, and the shifted cubic discriminants of binary forms."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (Poly, discriminant_quartic, discriminant_quartic_poly, enumerate_subblocks, extract_subblock,
                      ring)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import realrank2
from realrank2 import hyperdet as hd
from realrank2 import jsontext
from realrank2 import tensors as tn


def cayley_oracle(t) -> object:
    """Independent expansion of the 2x2x2 hyperdeterminant."""
    a = {(i, j, k): t[i, j, k] for i in range(2) for j in range(2) for k in range(2)}
    sq = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[0, 1, 1] ** 2 * a[1, 0, 0] ** 2)
    cross = (a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
             + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
             + a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 1]
             + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
             + a[0, 0, 1] * a[0, 1, 1] * a[1, 1, 0] * a[1, 0, 0]
             + a[0, 1, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 0, 0])
    quad = (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
            + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1])
    return sq - 2 * cross + 4 * quad


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_hyperdet222_matches_cayley_expansion_floats(seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((2, 2, 2))
    got = hd.hyperdet222(t)
    want = cayley_oracle(t)
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_hyperdet222_exact_on_rational_entries(seed):
    rng = random.Random(seed)
    t = np.empty((2, 2, 2), dtype=object)
    for idx in np.ndindex(2, 2, 2):
        t[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    got = hd.hyperdet222(t)
    assert isinstance(got, Fraction)
    assert got == cayley_oracle(t)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_real_pair_product_of_squares(seed):
    rng = np.random.default_rng(seed)
    u, v, w, u2, v2, w2 = (rng.standard_normal(2) for _ in range(6))
    t = tn.outer([u, v, w]) + tn.outer([u2, v2, w2])
    want = (np.linalg.det(np.column_stack([u, u2])) ** 2
            * np.linalg.det(np.column_stack([v, v2])) ** 2
            * np.linalg.det(np.column_stack([w, w2])) ** 2)
    got = hd.hyperdet222(t)
    assert got >= -1e-10 * (1.0 + np.abs(t).max()) ** 4
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_conjugate_pair_is_minus_64_product(seed):
    rng = np.random.default_rng(seed)
    a, aa, b, bb, c, cc = (rng.standard_normal(2) for _ in range(6))
    p, q, r = a + 1j * aa, b + 1j * bb, c + 1j * cc
    t = np.real(tn.outer([p, q, r]) + tn.outer([p.conj(), q.conj(), r.conj()]))
    want = -64.0 * ((a[0] * aa[1] - a[1] * aa[0]) ** 2
                    * (b[0] * bb[1] - b[1] * bb[0]) ** 2
                    * (c[0] * cc[1] - c[1] * cc[0]) ** 2)
    got = hd.hyperdet222(t)
    assert got <= 1e-10 * (1.0 + np.abs(t).max()) ** 4
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0, 1, 2]), st.integers(-3, 3))
def test_single_slice_scaling_is_quadratic(seed, mode, lam):
    # the value has degree two in the entries of each slice
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((2, 2, 2))
    scaled = np.moveaxis(t, mode, 0).copy()
    scaled[0] = scaled[0] * lam
    scaled = np.moveaxis(scaled, 0, mode)
    assert abs(hd.hyperdet222(scaled) - lam ** 2 * hd.hyperdet222(t)) <= 1e-8 * (1 + abs(lam)) ** 4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mode_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((2, 2, 2))
    base = hd.hyperdet222(t)
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        assert abs(hd.hyperdet222(np.transpose(t, perm)) - base) <= 1e-10 * (1 + abs(base))


def test_hyperdet222_rejects_wrong_shape():
    with pytest.raises(tn.ShapeMismatch):
        hd.hyperdet222(np.zeros((2, 2)))


def test_all_subhyperdets_singleton_on_222():
    t = np.arange(8, dtype=float).reshape(2, 2, 2)
    report = hd.all_subhyperdets(t)
    assert len(report.values) == 1
    assert report.values[0][1] == pytest.approx(hd.hyperdet222(t))


def _random_tensor(shape, kind: str, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    size = int(np.prod(shape))
    if kind == "float":
        scale = 10.0 ** rng.randint(-4, 4)
        return tn.tensor(shape, [rng.gauss(0.0, 1.0) * scale for _ in range(size)])
    if kind == "int":
        return tn.tensor(shape, [rng.randint(-9, 9) for _ in range(size)])
    if kind == "int64":  # true values far beyond 2^63: must not wrap
        return np.array([rng.randint(-10**6, 10**6) for _ in range(size)], dtype=np.int64).reshape(shape)
    return tn.tensor(shape, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)])


@settings(max_examples=60, deadline=None)
@example(shape=(1, 1, 4), kind="float", seed=0)
@example(shape=(1, 1, 4), kind="fraction", seed=0)
@example(shape=(2, 1, 2, 1), kind="int", seed=0)
@given(st.lists(st.integers(1, 4), min_size=3, max_size=5).map(tuple),
       st.sampled_from(["float", "int", "int64", "fraction"]), st.integers(0, 10_000))
def test_sweep_equals_per_block_oracle(shape, kind, seed):
    # the gathered, row-wise sweep gives every block's hyperdet222 value,
    # bit for bit and with the same type, in enumerate_subblocks order
    t = _random_tensor(shape, kind, seed)
    report = hd.all_subhyperdets(t)
    want = [(sel.label(), hd.hyperdet222(extract_subblock(t, sel)))
            for sel in enumerate_subblocks(t.shape)]
    assert report.values == want
    assert [type(v) for _, v in report.values] == [type(v) for _, v in want]
    oracle = hd.report_from_column(want, [v for _, v in want], hd.hyperdet_zero_tol(t))
    assert json.dumps(report.to_json()) == json.dumps(oracle.to_json())
    if not want:
        assert report.argmin is None and hd._sweep_plan(shape)[0].size == 0


def test_sweep_overflows_silently_like_hyperdet222():
    # hyperdet222 multiplies Python floats, which overflow to inf without a warning
    t = np.array([1.1e77, 0, 0, 1.1e77, 0, 1.1e77, 1.1e77, 0]).reshape(2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = hd.all_subhyperdets(t)
    assert report.values == [(report.values[0][0], hd.hyperdet222(t))]
    assert report.values[0][1] == float("inf")


BOUND = 24898  # written out, so that the tests below do not follow a changed bound


def test_int64_sweep_bound_is_the_largest_that_no_partial_sum_overflows():
    # 24 is the sum of |coefficient| over the quartic's terms, so 24·B^4
    # bounds every product and every partial sum of entries of size <= B
    names = tuple(f"x{i}" for i in range(8))
    quartic = hd._quartic(*(Poly.variable(name, names) for name in names))
    assert len(quartic.terms) == 12
    weight = sum(abs(c) for c in quartic.terms.values())
    assert weight == 24
    assert weight * BOUND**4 <= 2**63 - 1 < weight * (BOUND + 1) ** 4
    assert hd.INT64_SWEEP_BOUND == BOUND


@pytest.mark.parametrize("entries, dtype", [
    ([BOUND, -BOUND, 3, 0, -7, 1, BOUND, 2], np.int64),
    ([BOUND + 1, -BOUND, 3, 0, -7, 1, BOUND, 2], object),
    ([-BOUND - 1, 0, 0, 0, 0, 0, 0, 1], object),
    ([10**21, 0, 0, 0, 0, 0, 0, 1], object),
    ([True, 0, 0, 0, 0, 0, 0, 1], object),
    ([Fraction(3), 0, 0, 0, 0, 0, 0, 1], object),
    ([np.int64(3), 0, 0, 0, 0, 0, 0, 1], object),
])
def test_int64_sweep_is_taken_exactly_for_ints_within_the_bound(monkeypatch, entries, dtype):
    t = np.empty(8, dtype=object)
    t[:] = entries
    t = t.reshape(2, 2, 2)
    want = hd.hyperdet222(t)
    seen, quartic = [], hd._quartic
    monkeypatch.setattr(hd, "_quartic", lambda *rows: seen.append(rows[0].dtype) or quartic(*rows))
    value = hd.all_subhyperdets(t).values[0][1]
    assert seen == [np.dtype(dtype)]
    assert value == want and type(value) is type(want)


@pytest.mark.parametrize("t, dtype", [
    (np.array([BOUND, -BOUND, 3, 0, -7, 1, BOUND, 2], dtype=np.int64), np.int64),
    (np.array([-BOUND, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64), np.int64),
    (np.array([BOUND + 1, -BOUND, 3, 0, -7, 1, BOUND, 2], dtype=np.int64), object),
    (np.array([-BOUND - 1, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64), object),
    (np.array([-2**63, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64), object),
    (np.array([255, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8), np.int64),
    (np.array([True, False, False, False, False, False, False, True]), np.int64),
])
def test_numpy_integer_tensor_sweeps_in_int64_only_within_the_bound(monkeypatch, t, dtype):
    # numpy reads the bound; past it, on either sign, the values are
    # Python ints, as hyperdet222 computes them from the entries' tolist()
    t = t.reshape(2, 2, 2)
    want = hd.hyperdet222(t)
    seen, quartic = [], hd._quartic
    monkeypatch.setattr(hd, "_quartic", lambda *rows: seen.append(rows[0].dtype) or quartic(*rows))
    report = hd.all_subhyperdets(t)
    assert seen == [np.dtype(dtype)]
    assert report.values[0][1] == want and type(report.values[0][1]) is int
    assert report.zero_tol == 0


SWEEP_TOPS = [9, BOUND, BOUND + 1, 2**63, 10**21]


@st.composite
def exact_sweep_tensors(draw):
    """Object tensors of ints with max |entry| exactly `top` (small, at the
    bound, just past it, past 2^63), some mixed with bools or Fractions."""
    shape = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5).map(tuple))
    top = draw(st.sampled_from(SWEEP_TOPS))
    mix = draw(st.sampled_from(["int", "int", "bool", "fraction"]))
    rng = random.Random(draw(st.integers(0, 10_000)))
    size = math.prod(shape)
    entries = [rng.randint(-top, top) for _ in range(size)]
    entries[rng.randrange(size)] = rng.choice([top, -top])
    for _ in range(rng.randint(1, 3) if mix != "int" else 0):
        entries[rng.randrange(size)] = (rng.choice([True, False]) if mix == "bool"
                                        else Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
    t = np.empty(size, dtype=object)
    t[:] = entries
    return t.reshape(shape)


@settings(max_examples=80, deadline=None)
@example(t=np.array([BOUND] * 7 + [-BOUND], dtype=object).reshape(2, 2, 2))
@example(t=np.array([BOUND + 1] * 5 + [-BOUND - 1] * 2 + [BOUND + 1], dtype=object).reshape(2, 2, 2))
@given(exact_sweep_tensors())
def test_exact_sweep_equals_the_python_int_oracle_on_both_sides_of_the_bound(t):
    # every block's hyperdet222 over Python ints, with the type it has there;
    # the sign counts and the argmin as Python comparisons read them
    report = hd.all_subhyperdets(t)
    want = [(sel.label(), hd.hyperdet222(extract_subblock(t, sel)))
            for sel in enumerate_subblocks(t.shape)]
    assert report.values == want
    assert [type(v) for _, v in report.values] == [type(v) for _, v in want]
    if not any(type(v) is Fraction for v in t.flat):
        assert all(type(v) is int for _, v in report.values)
    oracle = hd.report_from_column(want, [v for _, v in want], 0)
    assert _summary(report) == _summary(oracle)
    assert type(report.min_value) is type(oracle.min_value)


def test_one_past_the_bound_stays_exact_under_optimize():
    # the bound is an if, not an assert: under -O an entry of B + 1, and
    # entries whose quartic leaves int64, still take Python ints
    code = "\n".join([
        "import numpy as np",
        "from realrank2 import hyperdet as hd",
        "assert False, 'asserts must be off'",
        f"b = {BOUND + 1}",
        "for entries in ([b, b, b, b, b, -b, -b, b], [10**5, 10**5, 10**5, 10**5, 10**5, -10**5, -10**5, 10**5]):",
        "    value = hd.all_subhyperdets(np.array(entries, dtype=object).reshape(2, 2, 2)).values[0][1]",
        "    print(type(value).__name__, value == 16 * entries[0] ** 4)",
    ])
    src = str(Path(realrank2.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["int", "True", "int", "True"]


@pytest.mark.parametrize("shape", [(4,), (2, 2)])
def test_sweep_needs_order_three(shape):
    with pytest.raises(tn.ArityTooSmall):
        hd.all_subhyperdets(np.ones(shape))


def test_sweep_plan_is_built_once_per_shape():
    hd._sweep_plan.cache_clear()
    t = np.random.default_rng(0).standard_normal((3, 2, 4))
    first = hd.all_subhyperdets(t)
    again = hd.all_subhyperdets(_random_tensor((3, 2, 4), "int", 1))
    info = hd._sweep_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1), f"plan of (3, 2, 4) built {info.misses} times"
    assert [k for k, _ in again.values] == [k for k, _ in first.values]
    idx, labels = hd._sweep_plan((3, 2, 4))
    assert idx.shape == (8, len(labels)) and idx.dtype.itemsize <= 4


MAX_PLAN_BLOCKS = 3000


def _block_count(shape) -> int:
    return sum(math.prod(math.comb(shape[m], 2) if m in free else shape[m] for m in range(len(shape)))
               for free in itertools.combinations(range(len(shape)), 3))


def _capped(shape) -> tuple[int, ...]:
    """The shape with its largest modes shrunk until it has at most
    MAX_PLAN_BLOCKS sub-blocks."""
    shape = list(shape)
    while _block_count(shape) > MAX_PLAN_BLOCKS:
        shape[shape.index(max(shape))] -= 1
    return tuple(shape)


def plan_oracle(shape) -> tuple[np.ndarray, list[str]]:
    """The sweep plan gathered one selector at a time: each block's eight
    flat indices from `extract_subblock` on the array of flat indices."""
    selectors = enumerate_subblocks(shape)
    size = math.prod(shape)
    flat = np.arange(size).reshape(shape)
    blocks = [extract_subblock(flat, sel).ravel() for sel in selectors]
    idx = np.array(blocks, dtype=np.min_scalar_type(size - 1)).reshape(-1, 8)
    return np.ascontiguousarray(idx.T), [sel.label() for sel in selectors]


@settings(max_examples=100, deadline=None)
@example(shape=(1, 1, 1))
@example(shape=(3, 1, 2, 2))
@example(shape=(2, 3, 4))
@example(shape=(3, 2, 5, 2))
@example(shape=(5, 2, 2, 3))
@example(shape=(2,) * 6)
@given(st.lists(st.integers(1, 5), min_size=3, max_size=6).map(_capped))
def test_sweep_plan_equals_the_per_selector_gather(shape):
    hd._sweep_plan.cache_clear()
    idx, labels = hd._sweep_plan(shape)
    want_idx, want_labels = plan_oracle(shape)
    assert idx.dtype == want_idx.dtype and idx.shape == want_idx.shape == (8, _block_count(shape))
    assert np.array_equal(idx, want_idx)
    assert idx.flags.c_contiguous and not idx.flags.writeable
    assert type(labels) is jsontext.Column and list(labels) == want_labels
    assert labels.texts == tuple(json.dumps(label) for label in want_labels)


def test_report_sign_counts_and_argmin():
    report = hd.report_from_column([("a", 2.0), ("b", -3.0), ("c", 0.0)], [2.0, -3.0, 0.0], zero_tol=1e-9)
    assert (report.num_positive, report.num_zero, report.num_negative) == (1, 1, 1)
    assert report.argmin == "b"
    assert report.min_value == -3.0


def report_oracle(values, zero_tol):
    """The sub-block report by one Python comparison per value and a
    sequential min: the reference the value-column report must equal."""
    num_pos = sum(1 for _, v in values if v > zero_tol)
    num_neg = sum(1 for _, v in values if v < -zero_tol)
    if values:
        argmin, min_value = min(values, key=lambda kv: kv[1])
    else:
        argmin, min_value = None, None
    return (num_pos, len(values) - num_pos - num_neg, num_neg), argmin, min_value


INF, NAN = float("inf"), float("nan")
report_floats = st.floats() | st.sampled_from([0.0, -0.0, INF, -INF, NAN])
report_scalars = report_floats | st.integers(-10**30, 10**30) | st.fractions()


def _summary(report):
    return (report.num_positive, report.num_zero, report.num_negative), report.argmin, report.min_value


@settings(max_examples=300, deadline=None)
@example(column=[INF, NAN, NAN], zero_tol=0.0)
@example(column=[NAN, INF, INF], zero_tol=1.0)
@example(column=[NAN], zero_tol=0.0)
@example(column=[-0.0, 0.0, -INF, NAN, -INF], zero_tol=0.0)
@example(column=[], zero_tol=0)
@example(column=[3, -2**62, 0, -2**62, 5], zero_tol=0)
@given(st.lists(report_floats, max_size=12) | st.lists(report_scalars, max_size=12),
       st.sampled_from([0, 0.0, 1e-9]) | st.floats(0, 1e300) | st.fractions(min_value=0))
def test_report_counts_and_argmin_equal_the_sequential_oracle(column, zero_tol):
    values = [(f"b{i}", v) for i, v in enumerate(column)]
    want = report_oracle(values, zero_tol)
    got = _summary(hd.report_from_column(values, column, zero_tol))
    assert got[:2] == want[:2]
    assert got[2] is want[2]  # the very value object: NaN and -0.0 included
    # the sweep's float64 value column, which comes with a float tolerance
    if type(zero_tol) is float and all(type(v) is float for v in column):
        got = _summary(hd.report_from_column(values, np.array(column, dtype=np.float64), zero_tol))
        assert got[:2] == want[:2]
        assert got[2] is want[2]
    # the exact int64 sweep's value column, which comes with the exact tolerance 0
    if zero_tol == 0 and all(type(v) is int and abs(v) < 2**63 for v in column):
        got = _summary(hd.report_from_column(values, np.array(column, dtype=np.int64), 0))
        assert got[:2] == want[:2]
        assert got[2] is want[2]


def test_zero_tol_scales_with_entry_size():
    small = hd.hyperdet_zero_tol(np.full((2, 2, 2), 1.0))
    big = hd.hyperdet_zero_tol(np.full((2, 2, 2), 10.0))
    assert big > small
    assert hd.hyperdet_zero_tol(np.full((2, 2, 2), Fraction(1))) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10_000))
def test_discriminant_quartic_equals_subblock_hyperdet(d, seed):
    # the i-th shifted discriminant of a binary form is literally the
    # hyperdeterminant of a 2x2x2 sub-block of its symmetric tensor
    rng = random.Random(seed)
    coords = [Fraction(rng.randint(-5, 5)) for _ in range(d + 1)]
    f = tn.SymTensorCoords(2, d, coords)
    t = tn.sym_to_tensor(f)
    for i in range(d - 2):
        window = coords[i:i + 4]
        d_val = discriminant_quartic(window, 0)
        fixed = (0,) * (d - 3 - i) + (1,) * i
        sub = t[(slice(None), slice(None), slice(None)) + fixed]
        assert d_val == hd.hyperdet222(sub)


def test_cubic_discriminant_determinant_identity():
    # the first shifted discriminant of a binary cubic equals the 4x4
    # bilinear-form determinant, as polynomials
    det_poly = ring(hd.cubic_discriminant_determinant())
    disc_poly = discriminant_quartic_poly(3, 0, names=det_poly.variables)
    assert det_poly == disc_poly


def test_discriminant_quartic_known_values():
    # s^4 - t^4 scaled coords (1,0,0,0,-1): both windows vanish
    assert discriminant_quartic([Fraction(1), 0, 0, 0, Fraction(-1)], 0) == 0
    assert discriminant_quartic([Fraction(1), 0, 0, 0, Fraction(-1)], 1) == 0
    # s^3 t: tangential point, discriminant zero
    assert discriminant_quartic([0, Fraction(1, 3), 0, 0], 0) == 0
    # s^3 + s t^2 = ((s + t/sqrt3)^3 + (s - t/sqrt3)^3)/2: real rank two
    assert discriminant_quartic([Fraction(1), 0, Fraction(1, 3), 0], 0) > 0
    # s^3 - s t^2 has three distinct real roots: real rank three
    assert discriminant_quartic([Fraction(1), 0, Fraction(-1, 3), 0], 0) < 0
