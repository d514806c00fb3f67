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

A symmetric tensor is certified from its coordinates, never expanded: its
flattenings are its catalecticants Cat(1, d-1) and Cat(2, d-2), and its
sub-block hyperdeterminants the shifted discriminants of binary cubics.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

import numpy as np

from . import hyperdet as hd
from . import jsontext
from . import tensors as tn
from .exactsolve import content

# (n, d) pairs whose catalecticant and quartic plan certify_symmetric keeps
SYMMETRIC_PLAN_CACHE_SIZE = 16
# most quartics, Cat(2, d-2) entries and flattening ranks certify_symmetric
# takes on: the largest binary form, of degree 9999, has a 3 x 9998 Hankel matrix
MAX_SYMMETRIC_WORK = 3 * tn.MAX_SYM_COORDS


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


def _matrix_certificate(t: np.ndarray, tol: float) -> Certificate:
    # after squeezing size-1 modes away a tensor of order <= 2 is a matrix
    mat = t.reshape(t.shape[0], -1)
    # no sub-blocks: the empty report records the rank tolerance
    report = hd.report_from_column([], [], 0 if tn.is_exact(t) else tol)
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
    # single-mode ranks of a 2 x ... x 2 tensor are bounded by 2 no matter
    # what, so for order >= 4 the two-mode flattenings carry the border-rank
    # obstruction and have to be checked unconditionally
    singles = [(m,) for m in range(t.ndim)]
    pairs = list(itertools.combinations(range(t.ndim), 2)) if t.ndim >= 4 else []
    ranks = tn.flattening_ranks(t, singles + pairs, tol)
    single = dict(zip(map(_mode_label, singles), ranks))
    merged = dict(zip(map(_mode_label, pairs), ranks[len(singles):])) or None
    return _certificate(t, single, merged, hd.all_subhyperdets(t), tol)


def mode_ranks(cert: Certificate, shape: Sequence[int]) -> list[int]:
    """Each mode's rank, at most 2, by its index in `shape`, the certified
    shape before squeezing: 1 for a size-1 mode; for every other, the one
    rank of a matrix or Hankel certificate, else its `mode_k` once squeezed."""
    ranks = cert.flattening_ranks
    shared = ranks.get("matrix", ranks.get("hankel"))
    kept = [m for m, n in enumerate(shape) if n > 1]
    return [1 if n == 1 else min(2, ranks[_mode_label((kept.index(m),))] if shared is None else shared)
            for m, n in enumerate(shape)]


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


def _catalecticant(n: int, d: int, k: int, where: dict) -> tuple[np.ndarray, np.ndarray]:
    """Cat(k, d-k), whose entry at row a (|a| = k) and column b (|b| = d-k),
    both in multidegrees order, is x_(a+b): read-only positions of those
    coordinates, and weights sqrt(binom(k; a) binom(d-k; b)) over their
    largest, which give a float catalecticant the dense flattening's singular
    values up to one factor.  A binary form's Hankel matrix keeps weights 1,
    as `binary-form` ranks it: weights up to 2^(d/2) would sink its end
    entries below the relative rank tolerance at high degree."""
    rows, cols = tn.multidegrees(n, k), tn.multidegrees(n, d - k)
    index = np.array([[where[tuple(map(add, a, b))] for b in cols] for a in rows], dtype=np.intp)
    weights = np.ones(index.shape)
    if n != 2:
        weights = np.sqrt(np.outer(*([float(tn.comb_multi(m, u)) for u in us] for m, us in ((k, rows), (d - k, cols)))))
        weights /= weights.max()
    index.flags.writeable = weights.flags.writeable = False
    return index, weights


@functools.lru_cache(maxsize=SYMMETRIC_PLAN_CACHE_SIZE)
def _symmetric_plan(n: int, d: int) -> tuple[tuple, tuple[np.ndarray, jsontext.Column]]:
    """What `certify_symmetric` reads for one (n, d), shared by every call:
    per catalecticant, its index over the multidegrees(n, d) coordinates,
    weights and flattening labels (for d <= 2 the form's one matrix, for n = 2
    the Hankel matrix Cat(2, d-2), else Cat(1, d-1) for the single-mode ones
    and, for d >= 4, Cat(2, d-2) for the merged ones); as the sweep plan, the
    quartics' (4, q) coordinate positions and labels, one per variable pair
    and multidegree w of the fixed slots (D_i for w = (d-3-i, i) when n = 2).
    TooManyCoordinates first, past MAX_SYMMETRIC_WORK quartics, Cat(2, d-2)
    entries or labels."""
    if d >= 3:
        rows, cols = math.comb(n + 1, 2), math.comb(n + d - 3, d - 2)
        work = math.comb(n, 2) * math.comb(n + d - 4, d - 3), rows * cols, 1 if n == 2 else math.comb(d + 1, 2)
        if max(work) > MAX_SYMMETRIC_WORK:
            raise tn.TooManyCoordinates(
                f"n={n}, d={d}: {work[0]} discriminant quartics, {work[1]} catalecticant entries ({rows} x {cols}) "
                f"and {work[2]} flattening ranks; certification takes at most {MAX_SYMMETRIC_WORK} of each")
    where = {u: i for i, u in enumerate(tn.multidegrees(n, d))}
    if d <= 2:
        cats = ((*_catalecticant(n, d, max(d - 1, 0), where), ("matrix",)),)
    elif n == 2:
        cats = ((*_catalecticant(n, d, 2, where), ("hankel",)),)
    else:
        cats = ((*_catalecticant(n, d, 1, where), tuple(_mode_label((m,)) for m in range(d))),)
        if d >= 4:
            pairs = itertools.combinations(range(d), 2)
            cats += ((*_catalecticant(n, d, 2, where), tuple(map(_mode_label, pairs))),)
    quartics = [(f"D{i}" if n == 2 else f"pair({p + 1},{q + 1})@" + ",".join(map(str, w)),
                 [where[tuple(e + (3 - k) * (m == p) + k * (m == q) for m, e in enumerate(w))] for k in range(4)])
                for p, q in itertools.combinations(range(n), 2)
                for i, w in enumerate(tn.multidegrees(n, d - 3) if d >= 3 else [])]
    index = np.array([at for _, at in quartics], dtype=np.intp).reshape(-1, 4).T.copy()
    index.flags.writeable = False
    return cats, (index, jsontext.Column(label for label, _ in quartics))


def certify_symmetric(f: tn.SymTensorCoords, tol: float = 1e-8) -> Certificate:
    """Certificate for a symmetric tensor given in scaled monomial coordinates.

    The flattenings of a symmetric tensor are its catalecticants, and its
    sub-block hyperdeterminants are shifted binary cubic discriminants of
    four coordinates, so the dense n^d tensor is never built.  Exact
    coordinates are scaled to integers once, for the ranks and the quartics
    alike; a float catalecticant other than a binary form's Hankel
    matrix is weighted to have the dense flattening's singular values.
    """
    cats, (positions, names) = _symmetric_plan(f.n, f.d)
    raw = f.coords
    x = _exact_or_finite(np.array(raw, dtype=object if f.is_exact() else float))
    if f.d <= 2:  # a vector or a symmetric matrix, whose weights are all 1
        return _matrix_certificate(x[cats[0][0]], tol)
    exact = tn.is_exact(x)
    single, *merged = [dict.fromkeys(labels, tn.matrix_rank(x[index] if exact else x[index] * weights, tol))
                       for index, weights, labels in cats]
    column = hd.kernel_column(hd.cubic_discriminant, x, positions)
    values = column.astype(object)  # x = c·raw, c the lcm of raw's denominators,
    if exact and not set(map(type, raw)) <= {int}:  # so D(raw) = D(x) / c^4: an int iff all four are
        c4 = content(raw).denominator ** 4
        whole = np.array([isinstance(v, int) for v in raw])[positions].all(axis=0)
        values[whole] //= c4
        values[~whole] /= Fraction(c4)
    report = hd.report_from_column(jsontext.Rows((names, values.tolist())), column, hd.hyperdet_zero_tol(x))
    return _certificate(x, single, merged[0] if merged else None, report, tol)
