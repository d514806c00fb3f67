"""2x2x2 hyperdeterminant: closed-form oracle, sign identities, sub-block
reports, and the shifted cubic discriminants of binary forms."""

from __future__ import annotations

import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import discriminant_quartic_poly
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realrank2 import hyperdet as hd
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
    want = [(sel.label(), hd.hyperdet222(tn.extract_subblock(t, sel)))
            for sel in tn.enumerate_subblocks(t.shape)]
    assert report.values == want
    assert [type(v) for _, v in report.values] == [type(v) for _, v in want]
    oracle = hd.report_from_values(want, hd.hyperdet_zero_tol(t))
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


@pytest.mark.parametrize("shape", [(4,), (2, 2)])
def test_sweep_needs_order_three(shape):
    with pytest.raises(tn.ArityTooSmall):
        hd.all_subhyperdets(np.ones(shape))


def test_sweep_plan_is_built_once_per_shape(monkeypatch):
    hd._sweep_plan.cache_clear()
    calls = []

    def enumerate_once(shape):
        calls.append(tuple(shape))
        if len(calls) > 1:
            raise AssertionError(f"sub-blocks of {shape} enumerated again")
        return tn.enumerate_subblocks(shape)

    monkeypatch.setattr(hd, "enumerate_subblocks", enumerate_once)
    t = np.random.default_rng(0).standard_normal((3, 2, 4))
    first = hd.all_subhyperdets(t)
    again = hd.all_subhyperdets(_random_tensor((3, 2, 4), "int", 1))
    assert calls == [(3, 2, 4)]
    assert [k for k, _ in again.values] == [k for k, _ in first.values]
    idx, labels = hd._sweep_plan((3, 2, 4))
    assert idx.shape == (8, len(labels)) and idx.dtype.itemsize <= 4


def test_report_sign_counts_and_argmin():
    report = hd.report_from_values([("a", 2.0), ("b", -3.0), ("c", 0.0)], zero_tol=1e-9)
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
@given(st.lists(report_floats, max_size=12) | st.lists(report_scalars, max_size=12),
       st.sampled_from([0, 0.0, 1e-9]) | st.floats(0, 1e300) | st.fractions(min_value=0))
def test_report_counts_and_argmin_equal_the_sequential_oracle(column, zero_tol):
    values = [(f"b{i}", v) for i, v in enumerate(column)]
    want = report_oracle(values, zero_tol)
    got = _summary(hd.report_from_values(values, zero_tol))
    assert got[:2] == want[:2]
    assert got[2] is want[2]  # the very value object: NaN and -0.0 included
    # the sweep's float64 value column, which comes with a float tolerance
    if type(zero_tol) is float and all(type(v) is float for v in column):
        got = _summary(hd._report(values, np.array(column, dtype=np.float64), zero_tol))
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
    f = tn.SymTensorCoords(2, d, {(d - i, i): c for i, c in enumerate(coords)})
    t = tn.sym_to_tensor(f)
    for i in range(d - 2):
        window = coords[i:i + 4]
        d_val = hd.discriminant_quartic(window, 0)
        fixed = (0,) * (d - 3 - i) + (1,) * i
        sub = t[(slice(None), slice(None), slice(None)) + fixed]
        assert d_val == hd.hyperdet222(sub)


def test_cubic_discriminant_determinant_identity():
    # the first shifted discriminant of a binary cubic equals the 4x4
    # bilinear-form determinant, as polynomials
    det_poly = hd.cubic_discriminant_determinant()
    disc_poly = discriminant_quartic_poly(3, 0, names=det_poly.variables)
    assert det_poly == disc_poly


def test_discriminant_quartic_known_values():
    # s^4 - t^4 scaled coords (1,0,0,0,-1): both windows vanish
    assert hd.discriminant_quartic([Fraction(1), 0, 0, 0, Fraction(-1)], 0) == 0
    assert hd.discriminant_quartic([Fraction(1), 0, 0, 0, Fraction(-1)], 1) == 0
    # s^3 t: tangential point, discriminant zero
    assert hd.discriminant_quartic([0, Fraction(1, 3), 0, 0], 0) == 0
    # s^3 + s t^2 = ((s + t/sqrt3)^3 + (s - t/sqrt3)^3)/2: real rank two
    assert hd.discriminant_quartic([Fraction(1), 0, Fraction(1, 3), 0], 0) > 0
    # s^3 - s t^2 has three distinct real roots: real rank three
    assert hd.discriminant_quartic([Fraction(1), 0, Fraction(-1, 3), 0], 0) < 0
