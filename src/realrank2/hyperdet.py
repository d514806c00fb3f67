"""The 2x2x2 hyperdeterminant and its symmetric restrictions.

Sign conventions follow the normalization in which a sum of two real rank-one
tensors has nonnegative hyperdeterminant and a conjugate pair of complex
rank-one tensors has nonpositive hyperdeterminant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jsontext
from .multipoly import MultiPoly, det_bareiss
from .tensors import (
    enumerate_subblocks,
    extract_subblock,
    is_exact,
    num_json,
    ShapeMismatch,
)

DEFAULT_ZERO_TOL_SCALE = 1e-10
# shapes whose sub-block gather plan all_subhyperdets keeps
PLAN_CACHE_SIZE = 16


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


def hyperdet_zero_tol(t: np.ndarray, scale: float = DEFAULT_ZERO_TOL_SCALE):
    """Zero threshold for hyperdet values of sub-blocks of t.

    The hyperdeterminant is quartic in the entries, hence the fourth power.
    The binary-form discriminant tests pass the form's Hankel matrix, which
    holds every coordinate in the form's dtype.  Exact (object) arrays use
    an exact zero test.
    """
    if is_exact(t):
        return 0
    peak = float(np.max(np.abs(t))) if t.size else 0.0
    return scale * (1.0 + peak) ** 4


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


def report_from_values(values: Sequence[tuple[str, object]], zero_tol) -> HyperdetReport:
    return _report(values, [v for _, v in values], zero_tol)


def _report(values: Sequence[tuple[str, object]], column, zero_tol) -> HyperdetReport:
    """Sign counts and argmin of the (label, value) pairs, read from their
    value column.  A float64 array, which comes with the float zero_tol of
    float input, is counted by numpy.  Its argmin is that of a sequential
    min, under which a NaN never compares less: index 0 when the first value
    is NaN, else the first least of the others.  Any other column (exact
    values, or a list of Python scalars) takes Python comparisons."""
    if not values:
        return HyperdetReport(values, None, None, 0, 0, 0, zero_tol)
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        num_pos = int(np.count_nonzero(column > zero_tol))
        num_neg = int(np.count_nonzero(column < -zero_tol))
        first = 0 if np.isnan(column[0]) else int(np.nanargmin(column))
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
    sub-block of a shape, in `enumerate_subblocks` order, and their labels,
    which keep their JSON text."""
    selectors = enumerate_subblocks(shape)
    size = int(np.prod(shape))
    flat = np.arange(size).reshape(shape)
    blocks = [extract_subblock(flat, sel).ravel() for sel in selectors]
    idx = np.array(blocks, dtype=np.min_scalar_type(size - 1)).reshape(-1, 8)
    idx = np.ascontiguousarray(idx.T)
    idx.flags.writeable = False  # shared by every call on this shape
    return idx, jsontext.Column(sel.label() for sel in selectors)


def all_subhyperdets(t: np.ndarray) -> HyperdetReport:
    """Hyperdeterminants of every 2x2x2 sub-block, with a scaled zero test.

    Gathers the eight entries of every block into rows and evaluates the
    quartic once on whole rows: float64 arithmetic for float tensors, the
    entries' own (exact) arithmetic otherwise, each with the operations of
    `hyperdet222` in its order, so every value equals the per-block one.
    """
    zero_tol = hyperdet_zero_tol(t)
    idx, labels = _sweep_plan(t.shape)
    rows = t.ravel()[idx]
    # any other entries as the Python scalars hyperdet222 sees: int64 must not wrap
    rows = rows.astype(np.float64 if rows.dtype.kind == "f" else object, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan silently, as Python floats do
        column = _quartic(*rows)
    return _report(jsontext.Rows((labels, column.tolist())), column, zero_tol)


# ----------------------------------------------------- symmetric restriction

def discriminant_quartic(coords: Sequence, i: int):
    """Shifted binary-cubic discriminant D_i on coordinates (x_i .. x_{i+3}).

    Equals the hyperdeterminant of any 2x2x2 sub-block of the symmetric
    tensor whose fixed indices sum to i.
    """
    d = len(coords) - 1
    if not 0 <= i <= d - 3:
        raise ValueError(f"need 0 <= i <= d-3 = {d - 3}, got {i}")
    a, b, c, e = coords[i], coords[i + 1], coords[i + 2], coords[i + 3]
    return (
        a * a * e * e
        - 6 * a * b * c * e
        - 3 * b * b * c * c
        + 4 * b * b * b * e
        + 4 * a * c * c * c
    )


def cubic_discriminant_determinant() -> MultiPoly:
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
    return MultiPoly(("x0", "x1", "x2", "x3"), det_bareiss(rows))
