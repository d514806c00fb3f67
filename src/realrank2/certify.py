"""Certificates of real rank / border rank at most two.

The decision procedure combines flattening ranks with the signs of every
2x2x2 sub-block hyperdeterminant:

* all flattening ranks <= 1                      -> RANK_AT_MOST_ONE
* rank two flattening, all hyperdets >= 0, one > -> REAL_RANK_TWO
* rank two flattening, all hyperdets == 0        -> REAL_BORDER_RANK_TWO_BOUNDARY
* rank two flattening, some hyperdet < 0         -> COMPLEX_RANK_TWO_REAL_RANK_HIGHER
  when every merged two-mode flattening still has rank <= 2, otherwise
  BORDER_RANK_EXCEEDS_TWO
* any flattening rank >= 3                       -> BORDER_RANK_EXCEEDS_TWO

The boundary verdict is deliberately cautious: a tensor can sit on the
hyperdeterminantal boundary and still have real rank two (for example
e1^(x)4 + e2^(x)4), and the certificate does not attempt to resolve that.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hyperdet as hd
from . import tensors as tn


class Verdict(str, enum.Enum):
    RANK_AT_MOST_ONE = "RANK_AT_MOST_ONE"
    REAL_RANK_TWO = "REAL_RANK_TWO"
    REAL_BORDER_RANK_TWO_BOUNDARY = "REAL_BORDER_RANK_TWO_BOUNDARY"
    COMPLEX_RANK_TWO_REAL_RANK_HIGHER = "COMPLEX_RANK_TWO_REAL_RANK_HIGHER"
    BORDER_RANK_EXCEEDS_TWO = "BORDER_RANK_EXCEEDS_TWO"


class DimensionMismatch(ValueError):
    pass


@dataclass
class Certificate:
    flattening_ranks: dict[str, int]
    max_flattening_rank: int
    hyperdet_report: hd.HyperdetReport
    verdict: Verdict
    tolerances: dict[str, object]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "flattening_ranks": dict(self.flattening_ranks),
            "max_flattening_rank": self.max_flattening_rank,
            "hyperdet": self.hyperdet_report.to_json(),
            "tolerances": {k: (v if isinstance(v, str) else tn.num_json(v)) for k, v in self.tolerances.items()},
        }


def _exact_or_finite(t: np.ndarray) -> np.ndarray:
    """The one input rule of certification, read from the dtype: an exact
    (object, integer or boolean) tensor is scaled to integers by
    `tn.integers`, as verdicts are invariant under positive scaling and
    integer arithmetic is much faster, and its dtype, int64 or Python ints,
    tells the sweep and the ranks how; a float tensor must be finite."""
    if tn.is_exact(t):
        return tn.integers(t)
    tn.require_finite(t)
    return t


def _mode_label(modes: Sequence[int]) -> str:
    return "mode_" + "_".join(str(m + 1) for m in modes)


def verdict_from_data(ranks: dict[str, int], merged_ranks: dict[str, int] | None,
                      report: hd.HyperdetReport) -> Verdict:
    """Re-derive the verdict from recorded certificate data.

    Merged two-mode flattenings take part in the border-rank bound: for
    order >= 4 a tensor can have every single-mode rank <= 2 and every
    sub-block hyperdeterminant >= 0 while a merged flattening has rank 3
    (any binary form with Hankel rank 3 and positive discriminants).
    """
    single_max = max(ranks.values(), default=0)
    merged_max = max(merged_ranks.values(), default=0) if merged_ranks else 0
    if single_max <= 1:
        return Verdict.RANK_AT_MOST_ONE
    if max(single_max, merged_max) >= 3:
        return Verdict.BORDER_RANK_EXCEEDS_TWO
    if report.num_negative > 0:
        return Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER
    # only a matrix has no sub-blocks, and a rank-two matrix has real rank two
    if report.num_positive > 0 or not report.values:
        return Verdict.REAL_RANK_TWO
    return Verdict.REAL_BORDER_RANK_TWO_BOUNDARY


def _certificate(t: np.ndarray, ranks: dict[str, int], merged_ranks: dict[str, int] | None,
                 report: hd.HyperdetReport, tol: float) -> Certificate:
    all_ranks = dict(ranks)
    if merged_ranks:
        all_ranks.update(merged_ranks)
    return Certificate(all_ranks, max(all_ranks.values()), report,
                       verdict_from_data(ranks, merged_ranks, report),
                       {"rank_tol": "exact" if tn.is_exact(t) else tol, "hyperdet_zero_tol": report.zero_tol})


def _flattening_certificate(t: np.ndarray, tol: float, report: hd.HyperdetReport) -> Certificate:
    # single-mode ranks of a 2 x ... x 2 tensor are bounded by 2 no matter
    # what, so for order >= 4 the two-mode flattenings carry the border-rank
    # obstruction and have to be checked unconditionally
    singles = [(m,) for m in range(t.ndim)]
    pairs = list(itertools.combinations(range(t.ndim), 2)) if t.ndim >= 4 else []
    ranks = tn.flattening_ranks(t, singles + pairs, tol)
    single = dict(zip(map(_mode_label, singles), ranks))
    merged = dict(zip(map(_mode_label, pairs), ranks[len(singles):])) or None
    return _certificate(t, single, merged, report, tol)


def _matrix_certificate(t: np.ndarray, tol: float) -> Certificate:
    # after squeezing size-1 modes away a tensor of order <= 2 is a matrix
    mat = t.reshape(t.shape[0], -1) if t.ndim >= 1 else t.reshape(1, 1)
    # no sub-blocks: the empty report records the rank tolerance
    report = hd.report_from_values([], 0 if tn.is_exact(t) else tol)
    return _certificate(t, {"matrix": tn.matrix_rank(mat, tol)}, None, report, tol)


def certify_border_rank2(t: np.ndarray, tol: float = 1e-8) -> Certificate:
    """Certify whether a real tensor has real (border) rank at most two."""
    if t.ndim < 3:
        raise tn.ArityTooSmall("certification needs an order >= 3 tensor")
    if any(n < 1 for n in t.shape):
        raise tn.ShapeMismatch(f"bad tensor shape {t.shape}")
    t = tn.squeeze_ones(_exact_or_finite(t))
    if t.ndim <= 2:
        return _matrix_certificate(t, tol)
    return _flattening_certificate(t, tol, hd.all_subhyperdets(t))


def tangential_witness(xs: Sequence, ys: Sequence) -> np.ndarray:
    """Tangent tensor sum_m x_1 (x) .. y_m .. (x) x_d at the point (x) x_m."""
    if len(xs) != len(ys):
        raise DimensionMismatch("need one direction vector per mode")
    if len(xs) < 2:
        raise DimensionMismatch("tangent tensors need at least two modes")
    xs = [np.asarray(v) for v in xs]
    ys = [np.asarray(v) for v in ys]
    for x, y in zip(xs, ys):
        if x.shape != y.shape or x.ndim != 1:
            raise DimensionMismatch("x and y vectors must match per mode")
    total = None
    for m in range(len(xs)):
        factors = [ys[k] if k == m else xs[k] for k in range(len(xs))]
        term = tn.outer(factors)
        total = term if total is None else total + term
    return total


def certify_symmetric(f: tn.SymTensorCoords, tol: float = 1e-8) -> Certificate:
    """Certificate for a symmetric tensor given in scaled monomial coordinates.

    Binary forms (n = 2) use the 3 x (d-1) Hankel rank plus the d-2 shifted
    discriminant quartics, which take exactly the same values as the full
    sub-block enumeration on the symmetric tensor.  For n >= 3 the tensor is
    certified directly, with the hyperdeterminant list reduced to one
    sub-block per variable pair and multidegree of the fixed slots; that
    dense n^d array must have at most MAX_SYM_COORDS entries
    (`sym_to_tensor` raises TooManyCoordinates otherwise).
    """
    if f.d <= 2:
        # a linear or quadratic form is a vector or symmetric matrix
        return _matrix_certificate(np.atleast_2d(_exact_or_finite(tn.sym_to_tensor(f))), tol)
    if f.n == 2:
        # imported here because binary_forms imports this module
        from . import binary_forms as bf

        form = bf.BinaryForm(f.d, [f.coeffs[(f.d - i, i)] for i in range(f.d + 1)])
        h = _exact_or_finite(bf.hankel(form))  # every coordinate, in the form's dtype
        values = [(f"D{i}", v) for i, v in enumerate(bf.discriminant_values(form))]
        report = hd.report_from_values(values, hd.hyperdet_zero_tol(h))
        return _certificate(h, {"hankel": tn.matrix_rank(h, tol)}, None, report, tol)

    t = _exact_or_finite(tn.sym_to_tensor(f))
    values = []
    for p in range(f.n):
        for q in range(p + 1, f.n):
            for w in tn.multidegrees(f.n, f.d - 3):
                coords = []
                for k in range(4):
                    u = list(w)
                    u[p] += 3 - k
                    u[q] += k
                    coords.append(f.coeffs[tuple(u)])
                label = f"pair({p + 1},{q + 1})@" + ",".join(str(e) for e in w)
                values.append((label, hd.discriminant_quartic(coords, 0)))
    return _flattening_certificate(t, tol, hd.report_from_values(values, hd.hyperdet_zero_tol(t)))
