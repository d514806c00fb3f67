"""The 2x2x2 hyperdeterminant and its symmetric restrictions.

Sign conventions follow the normalization in which a sum of two real rank-one
tensors has nonnegative hyperdeterminant and a conjugate pair of complex
rank-one tensors has nonpositive hyperdeterminant.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from math import isnan, isqrt, prod
from typing import Sequence

import numpy as np

from . import jsontext
from .multipoly import Polynomial, det_bareiss
from .tensors import INT64_MAX, ArityTooSmall, is_exact, num_json, peak, ShapeMismatch

DEFAULT_ZERO_TOL_SCALE = 1e-10
# shapes whose sub-block gather plan all_subhyperdets keeps
PLAN_CACHE_SIZE = 16
# The largest B with 24·B^4 <= 2^63 - 1 (24898).  The absolute coefficients
# of the terms sum to 24 in _quartic and to 18 in cubic_discriminant, so with
# every |entry| <= B no product and no partial sum of either leaves int64.
INT64_SWEEP_BOUND = isqrt(isqrt(INT64_MAX // 24))


def _quartic(x000, x001, x010, x011, x100, x101, x110, x111):
    """The 2x2x2 hyperdeterminant of the entries x_ijk, given as scalars or
    as equal-length numpy rows (one column per sub-block)."""
    return (
        x000 * x000 * x111 * x111
        + x001 * x001 * x110 * x110
        + x010 * x010 * x101 * x101
        + x011 * x011 * x100 * x100
        + 4 * x000 * x011 * x101 * x110
        + 4 * x001 * x010 * x100 * x111
        - 2 * x000 * x001 * x110 * x111
        - 2 * x000 * x010 * x101 * x111
        - 2 * x000 * x011 * x100 * x111
        - 2 * x001 * x010 * x101 * x110
        - 2 * x001 * x011 * x100 * x110
        - 2 * x010 * x011 * x100 * x101
    )


def hyperdet222(t: np.ndarray):
    """Hyperdeterminant of a 2x2x2 tensor; exact when the entries are exact."""
    if t.shape != (2, 2, 2):
        raise ShapeMismatch(f"hyperdet222 needs shape (2, 2, 2), got {t.shape}")
    return _quartic(*t.ravel().tolist())


class ZeroTolOverflow(ArithmeticError):
    """The float zero threshold (1 + max|t|)^4 overflows a double."""


def hyperdet_zero_tol(t: np.ndarray, scale: float = DEFAULT_ZERO_TOL_SCALE):
    """Zero threshold for hyperdet values of sub-blocks of t.

    The hyperdeterminant is quartic in the entries, hence the fourth power.
    Symmetric certificates pass the coordinate vector, and the quintic test
    the form's Hankel matrix.  Exact (object, integer or
    boolean) arrays use an exact zero test.  ZeroTolOverflow once the
    largest |entry| passes about 1e77.
    """
    if is_exact(t):
        return 0
    peak = float(np.max(np.abs(t))) if t.size else 0.0
    try:
        return scale * (1.0 + peak) ** 4
    except OverflowError as exc:
        raise ZeroTolOverflow(f"the zero threshold (1 + max|t|)^4 overflows a double at max|t| = {peak!r}") from exc


@dataclass
class HyperdetReport:
    """All 2x2x2 sub-block hyperdeterminants of a tensor, with sign counts.

    `values`, the (label, value) pairs, may be given as any sequence; it is
    kept as `jsontext.Rows` of two columns, labels and values (a sweep's
    labels are its shape's plan's), and `to_json` writes the same columns
    as the rows {"selector": label, "value": value}."""

    values: Sequence[tuple[str, object]]
    min_value: object
    argmin: str | None
    num_positive: int
    num_zero: int
    num_negative: int
    zero_tol: object

    def __post_init__(self):
        if type(self.values) is not jsontext.Rows:
            self.values = jsontext.Rows(([k for k, _ in self.values], [v for _, v in self.values]))

    def to_json(self) -> dict:
        labels, column = self.values.columns
        if not set(map(type, column)) <= {float, int}:
            column = list(map(num_json, column))
        return {
            "values": jsontext.Rows((labels, column), ("selector", "value")),
            "min_value": num_json(self.min_value) if self.min_value is not None else None,
            "argmin": self.argmin,
            "num_positive": self.num_positive,
            "num_zero": self.num_zero,
            "num_negative": self.num_negative,
            "zero_tol": num_json(self.zero_tol),
        }


def report_from_column(values: Sequence[tuple[str, object]], column, zero_tol) -> HyperdetReport:
    """Sign counts and argmin of the (label, value) pairs, read from their
    value column or, under the exact zero_tol 0, a positive multiple of it.
    A float64 or int64 column of `kernel_column` is counted by numpy, and its
    argmin is that of a sequential min, under which a NaN never compares
    less: index 0 when the first value is NaN, else the first least of the
    others.  Any other column (exact values, or a list of Python scalars)
    takes Python comparisons."""
    if not values:
        return HyperdetReport(values, None, None, 0, 0, 0, zero_tol)
    if isinstance(column, np.ndarray) and column.dtype in (np.float64, np.int64):
        num_pos = int(np.count_nonzero(column > zero_tol))
        num_neg = int(np.count_nonzero(column < -zero_tol))
        first = int(np.argmin(column))
        if isnan(column[first]):  # argmin stops at the first NaN
            first = 0 if isnan(column[0]) else int(np.nanargmin(column))
    else:
        num_pos = sum(1 for v in column if v > zero_tol)
        num_neg = sum(1 for v in column if v < -zero_tol)
        first = min(range(len(column)), key=column.__getitem__)
    argmin, min_value = values[first]
    return HyperdetReport(values, min_value, argmin, num_pos, len(values) - num_pos - num_neg,
                          num_neg, zero_tol)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _sweep_plan(shape: tuple[int, ...]) -> tuple[np.ndarray, jsontext.Column]:
    """Flat indices (8, blocks) of the entries x000 .. x111 of every 2x2x2
    sub-block of a shape, and their labels, which keep their JSON text.

    Blocks come triple of free modes by triple (in combinations order), then
    row-major over the free modes' index pairs (i < j, lexicographic) and the
    remaining modes' fixed indices.  A triple's indices are one broadcast sum
    of offsets (index times stride) over the axes (three corner bits, three
    pair lists, fixed indices); its labels join pre-formatted per-mode
    pieces in the same row-major order.
    """
    d = len(shape)
    if d < 3:
        raise ArityTooSmall("sub-blocks need at least three modes")
    strides = [prod(shape[m + 1:]) for m in range(d)]
    pairs = [list(itertools.combinations(range(n), 2)) for n in shape]
    pair_offsets = [np.array(p, dtype=np.intp).reshape(-1, 2).T * stride  # (corner, pair)
                    for p, stride in zip(pairs, strides)]
    pair_texts = [[f"{m + 1}:({i},{j})" for i, j in p] for m, p in enumerate(pairs)]
    fixed_texts = [[f"{m + 1}={i}" for i in range(n)] for m, n in enumerate(shape)]
    blocks, labels = [np.empty((8, 0), dtype=np.intp)], []
    for free in itertools.combinations(range(d), 3):
        if any(shape[m] < 2 for m in free):  # no pair: skip the triple's work
            continue
        others = [m for m in range(d) if m not in free]
        fixed = np.zeros(1, dtype=np.intp)  # row-major over the other modes
        for m in others:
            fixed = np.add.outer(fixed, np.arange(shape[m]) * strides[m]).ravel()
        offsets = [fixed]  # 1-D: broadcasts along the last axis
        for k, m in enumerate(free):
            axes = [1] * 7
            axes[k], axes[3 + k] = pair_offsets[m].shape
            offsets.append(pair_offsets[m].reshape(axes))
        blocks.append(sum(offsets).reshape(8, -1))
        heads = [f"modes[{','.join(p)}]" for p in itertools.product(*(pair_texts[m] for m in free))]
        tails = [f" fixed[{','.join(p)}]" if p else ""
                 for p in itertools.product(*(fixed_texts[m] for m in others))]
        labels += [head + tail for head in heads for tail in tails]
    idx = np.concatenate(blocks, axis=1).astype(np.min_scalar_type(prod(shape) - 1))
    idx.flags.writeable = False  # shared by every call on this shape
    return idx, jsontext.Column(labels)


def kernel_column(kernel, flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """kernel(*flat[idx]): the kernel once on whole rows, gathered from the
    1-D array flat by an index plan, one row per argument.  In float64 for
    float entries, in int64 when every entry is an integer (a numpy integer
    or boolean, or a Python int in an object array; not a Fraction or a
    bool there) of absolute value at most INT64_SWEEP_BOUND, in the entries'
    own (exact) arithmetic otherwise, each with the kernel's operations in
    its order, so every value equals the kernel's on the scalars and has
    its type.  numpy reads the bound: an object array of Python ints is
    converted to int64 only when they all fit, and counts as past it
    otherwise."""
    if flat.dtype == object and set(map(type, flat)) <= {int}:
        with contextlib.suppress(OverflowError):  # past int64: past the bound too
            flat = flat.astype(np.int64)
    if flat.dtype.kind in "iub" and peak(flat) <= INT64_SWEEP_BOUND:
        flat = flat.astype(np.int64, copy=False)
    else:  # any other entries as the Python scalars the kernel sees: int64 must not wrap
        flat = flat.astype(np.float64 if flat.dtype.kind == "f" else object, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan silently, as Python floats do
        return kernel(*flat[idx])


def all_subhyperdets(t: np.ndarray) -> HyperdetReport:
    """Hyperdeterminants of every 2x2x2 sub-block, `_quartic` on the column
    of the shape's plan, with a scaled zero test."""
    idx, labels = _sweep_plan(t.shape)
    values = kernel_column(_quartic, t.ravel(), idx)
    return report_from_column(jsontext.Rows((labels, values.tolist())), values, hyperdet_zero_tol(t))


# ----------------------------------------------------- symmetric restriction

def cubic_discriminant(a, b, c, e):
    """The shifted binary-cubic discriminant D_i of (a, b, c, e) = (x_i ..
    x_{i+3}), scalars or numpy rows: the hyperdeterminant of any 2x2x2
    sub-block of the symmetric tensor whose fixed indices sum to i."""
    return (
        a * a * e * e
        - 6 * a * b * c * e
        - 3 * b * b * c * c
        + 4 * b * b * b * e
        + 4 * a * c * c * c
    )


def cubic_discriminant_determinant() -> Polynomial:
    """The binary-cubic discriminant as the classical 4x4 determinant.

    The matrix is the Sylvester resultant of the two rows of the cubic's
    catalecticant; expanding it gives exactly D_0.
    """
    def x(i, c=1):
        return {tuple(int(k == i) for k in range(4)): c}

    rows = [
        [x(0), x(1, 2), x(2), {}],
        [{}, x(0), x(1, 2), x(2)],
        [x(1), x(2, 2), x(3), {}],
        [{}, x(1), x(2, 2), x(3)],
    ]
    return Polynomial(("x0", "x1", "x2", "x3"), det_bareiss(rows))
