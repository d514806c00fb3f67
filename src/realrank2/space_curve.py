"""Secant lines of rational space curves through a query point.

A degree-d rational curve in projective 3-space turns the question "which
secant lines pass through u?" into a plane problem: an unordered pair of
parameter values is a binary quadric a s^2 + b st + c t^2 with coordinates
(a : b : c), the line coordinates of the spanned secant are polynomials of
degree d - 1 in (a, b, c), and membership of u imposes four homogeneous
equations.  A real solution whose quadric has positive discriminant is a
secant meeting the curve in two real points, which certifies real rank two
for u; scanning a segment localizes the parameter values where that
certificate appears or disappears and matches them against the tangential
and edge boundary surfaces.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .exactsolve import as_fraction, content, exact_rank, integer_row
from .multipoly import Polynomial, accumulate, evaluate, resultant, times
from .tensors import num_json, read_scalar, read_sequence
from .unipoly import _add, _mul, poly_gcd, real_roots


class BadCurve(ValueError):
    """The parametrization does not span projective 3-space."""


class RewriteFailed(RuntimeError):
    """Secant-line coordinates are not six polynomials satisfying the
    quadratic line relation."""


class DegenerateQuery(ValueError):
    """The query point is zero or lies on the curve."""


class ResultantIdenticallyZero(RuntimeError):
    """Elimination collapsed: the secant system has no isolated solutions."""


class FloatOverflow(ArithmeticError):
    """A value of the secant system's float arithmetic overflows a double."""


PAIR_VARS = ("a", "b", "c")
POINT_VARS = ("w", "x", "y", "z")
INDEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

REAL_RANK_LE_2 = "REAL_RANK_LE_2"
REAL_RANK_GE_3 = "REAL_RANK_GE_3"

TWO_REAL_POINTS = "TWO_REAL_POINTS"
CONJUGATE_POINTS = "CONJUGATE_POINTS"
TANGENT_CONTACT = "TANGENT_CONTACT"

TANGENTIAL = "TANGENTIAL"
EDGE = "EDGE"
NO_RANK_CHANGE = "NO_RANK_CHANGE"
UNLABELED = "UNLABELED"

DISC_DEAD_ZONE_SCALE = 1e-10
DEDUP_TOL = 1e-6
LINE_NORM_FLOOR = 1e-9
BISECTION_WIDTH = 1e-12
FIXTURE_MATCH_WINDOW = 1e-5
SNAP_MARGIN = Fraction(1, 10 ** 12)
SNAP_REACH = as_fraction(FIXTURE_MATCH_WINDOW) + SNAP_MARGIN
SNAP_WITHIN = as_fraction(FIXTURE_MATCH_WINDOW) - SNAP_MARGIN
MAX_ELIMINATION_RETRIES = 8


def _exact_entries(values) -> tuple[Fraction, ...]:
    """Exact copies of numbers read from outside by read_scalar, floats
    included."""
    return tuple(as_fraction(read_scalar(v)) for v in read_sequence(values))


@dataclass(frozen=True)
class CurveParam:
    """Rational curve (s : t) -> (F0 : F1 : F2 : F3) of degree d in 3-space.

    Row k of F lists the coefficients of F_k on s^d, s^{d-1} t, ..., t^d.
    F_float and F_complex hold its rows cast once, which is what casting
    each coefficient at every point gives (complex(Fraction) is
    complex(float(Fraction))); F_int holds the rows scaled to integers by
    the common denominator of all of F.
    """

    d: int
    F: tuple[tuple[Fraction, ...], ...]
    F_float: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    F_complex: tuple[tuple[complex, ...], ...] = field(init=False, repr=False, compare=False)
    F_int: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise BadCurve("degree must be positive")
        rows = tuple(_exact_entries(row) for row in read_sequence(self.F))
        if len(rows) != 4 or any(len(row) != self.d + 1 for row in rows):
            raise BadCurve("need four coefficient rows of length d + 1")
        object.__setattr__(self, "F", rows)
        if exact_rank(rows) != 4:
            raise BadCurve("coefficient matrix must have rank 4 to span 3-space")
        flat = integer_row([c for row in rows for c in row])
        object.__setattr__(self, "F_float", tuple(tuple(map(float, row)) for row in rows))
        object.__setattr__(self, "F_complex", tuple(tuple(map(complex, row)) for row in rows))
        object.__setattr__(self, "F_int", tuple(
            tuple(flat[k:k + self.d + 1]) for k in range(0, len(flat), self.d + 1)))

    def point(self, s, t):
        """Image of the parameter value (s : t) as an unnormalized 4-vector."""
        if isinstance(s, (int, Fraction)) and isinstance(t, (int, Fraction)):
            rows = self.F
        elif isinstance(s, complex) or isinstance(t, complex):
            rows = self.F_complex
        else:
            rows = self.F_float
        powers = [s ** (self.d - k) * t ** k for k in range(self.d + 1)]
        return [sum(c * p for c, p in zip(row, powers)) for row in rows]


@dataclass(frozen=True)
class PluckerMap:
    """Line coordinates of the secant spanned by the pair (a : b : c).

    polys holds the six polynomials p01, p02, p03, p12, p13, p23 as
    `Polynomial`s in PAIR_VARS over one common denominator, den.
    """

    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.polys) != 6:
            raise RewriteFailed("a line in 3-space has six coordinates")
        if len({p.den for p in self.polys}) != 1:
            raise RewriteFailed("line coordinates must share one denominator")
        p01, p02, p03, p12, p13, p23 = (p.terms for p in self.polys)
        relation = accumulate(times(p01, p23), times(p02, p13).items(), -1)
        if accumulate(relation, times(p03, p12).items()):
            raise RewriteFailed("line coordinates must satisfy the quadratic line relation")

    @property
    def den(self) -> int:
        return self.polys[0].den

    def evaluate(self, abc) -> list:
        point = dict(zip(PAIR_VARS, abc))
        return [evaluate(p, point) for p in self.polys]


def _degree_exponents(deg: int) -> list[tuple[int, int, int]]:
    return [(i, j, deg - i - j) for i in range(deg, -1, -1) for j in range(deg - i, -1, -1)]


@lru_cache(maxsize=16)
def plucker_map(curve: CurveParam) -> PluckerMap:
    """Build the six secant-line coordinates as degree d-1 polynomials.

    In the pair coordinates a = s1 s2, b = s1 t2 + s2 t1, c = t1 t2, the
    monomials s^(d-k) t^k and s^(d-l) t^l (k < l) at the two parameter points
    span a^(d-l) c^k (X^m - Y^m) with X = s1 t2, Y = s2 t1, m = l - k; divided
    by X - Y this is a^(d-l) c^k H_(m-1), where H_j, the sum of X^i Y^(j-i),
    obeys H_0 = 1, H_1 = b, H_j = b H_(j-1) - a c H_(j-2).  The coordinates
    are summed in integers from curve.F_int, F times the common denominator
    L of its entries, and so are L^2 times the true ones; the map holds
    them over their gcd g, scaled by the numerator of g / L^2, whose
    denominator is den.  Terms are stored in _degree_exponents order, the
    order float evaluation sums them in.
    """
    d, F = curve.d, curve.F_int
    H = [{(0, 0, 0): 1}, {(0, 1, 0): 1}]
    for _ in range(2, d):
        H.append(accumulate(times({(0, 1, 0): 1}, H[-1]), times({(1, 0, 1): 1}, H[-2]).items(), -1))
    lines: list[dict] = [{} for _ in INDEX_PAIRS]
    for l in range(d + 1):
        for k in range(l):
            span = times({(d - l, 0, k): 1}, H[l - k - 1]).items()
            for line, (i, j) in zip(lines, INDEX_PAIRS):
                accumulate(line, span, F[i][k] * F[j][l] - F[i][l] * F[j][k])
    common = math.gcd(*(c for line in lines for c in line.values()))
    scale = Fraction(common, content(c for row in curve.F for c in row).denominator ** 2)
    order = _degree_exponents(d - 1)
    return PluckerMap(tuple(Polynomial(PAIR_VARS, {e: line[e] // common * scale.numerator
                                                   for e in order if e in line}, scale.denominator)
                            for line in lines))


def secant_rows(pm: PluckerMap, u: Sequence[Fraction]) -> tuple[list[dict], int]:
    """The four point-on-line equations for u, degree d-1 in (a, b, c), as
    integer terms over one denominator: (rows, den), row r being rows[r] / den.

    u is scaled to integers U by its common denominator D, and den is D
    times the map's.  Row 0 is p23 U1 - p13 U2 + p12 U3 summed left to
    right, one product at a time, and so on; the terms come in the
    first-appearance order of `accumulate`, which the float
    back-substitution sums in.
    """
    scale = content(u).denominator
    w, x, y, z = (c.numerator * (scale // c.denominator) for c in u)
    p01, p02, p03, p12, p13, p23 = (p.terms.items() for p in pm.polys)
    rows = []
    for products in (((p23, x), (p13, -y), (p12, z)), ((p03, y), (p02, -z), (p23, -w)),
                     ((p13, w), (p03, -x), (p01, z)), ((p02, x), (p12, -w), (p01, -y))):
        row: dict = {}
        for terms, k in products:
            accumulate(row, terms, k)
        rows.append(row)
    return rows, scale * pm.den


@dataclass(frozen=True)
class SecantSolution:
    """One real secant line through the query point.

    abc is the unit-normalized quadric whose two linear factors are the
    parameter points; contact says whether those points are real (positive
    discriminant), conjugate, or inside the tangency dead zone.
    """

    abc: tuple[float, float, float]
    discriminant: float
    contact: str
    roots: tuple[tuple, tuple]
    curve_points: tuple[tuple, ...]
    residual: float
    line_norm: float | None = None
    multiplicity: int = 1

    def to_json(self) -> dict:
        return {
            "abc": list(self.abc),
            "discriminant": self.discriminant,
            "contact": self.contact,
            "roots": [[num_json(v) for v in pt] for pt in self.roots],
            "curve_points": [[num_json(v) for v in pt] for pt in self.curve_points],
            "residual": self.residual,
            "line_norm": self.line_norm,
            "multiplicity": self.multiplicity,
        }


def _row_evaluator(rows: Sequence[dict]):
    """Values and Jacobians in (a, b, c) of the integer rows over their largest
    |coefficient|, as one function of an (n, 3) stack of complex points:
    values (n, rows) and Jacobians (n, rows, 3).  The monomials come from
    the union of the rows' exponents and its three shifts lowered by one in
    a, b or c.  Each sum runs over its own row's terms in sorted exponent
    order (for a partial, those with a positive exponent), gathered
    C-contiguous: BLAS may sum a strided row in another order than a
    contiguous one (OpenBLAS's Haswell kernel does from 8 terms on)."""
    table = sorted(set().union(*rows))
    at = {e: i for i, e in enumerate(table)}
    exps = np.array(table, dtype=np.int64)
    # an exponent lowered below 0 is never read; 0 keeps it finite at p_k = 0
    shifted = np.concatenate([exps] + [np.maximum(exps - unit, 0) for unit in np.eye(3, dtype=np.int64)])
    gather: list[int] = []
    sums = []  # per row: the value, then each partial, as (span of gather, coefficients)
    for row in rows:
        scale = max(abs(c) for c in row.values())
        terms = [(e, row[e] / scale) for e in sorted(row)]  # int / int rounds once
        part = [([at[e] for e, _ in terms], [c for _, c in terms])]
        for k in range(3):
            lowered = [(e, c) for e, c in terms if e[k]]
            part.append(([(k + 1) * len(table) + at[e] for e, _ in lowered], [c * e[k] for e, c in lowered]))
        for idx, coeffs in part:
            sums.append((slice(len(gather), len(gather) + len(idx)), np.array(coeffs, dtype=complex)))
            gather += idx
    gather = np.array(gather, dtype=np.intp)

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        monomials = np.prod(points[:, None, :] ** shifted, axis=2)
        terms = np.ascontiguousarray(monomials[:, gather])
        out = np.empty((len(points), len(sums)), dtype=complex)
        for j, (span, coeffs) in enumerate(sums):
            out[:, j] = np.vecdot(coeffs, terms[:, span])  # conjugates the real coefficients
        out = out.reshape(len(points), len(rows), 4)
        return out[:, :, 0], out[:, :, 1:]

    return evaluate


def _norms(points: np.ndarray) -> np.ndarray:
    """2-norms of the rows, each summed as np.linalg.norm sums one vector."""
    re, im = points.real, points.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _lstsq_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(jacobians: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(J, b, rcond=None)[0] for every J, b of a (k, r, 3)
    complex stack and its (k, r) right-hand sides, in one call of the gufunc
    that lstsq runs (numpy's private _umath_linalg.lstsq): the same LAPACK
    gelsd per matrix, lstsq's default cutoff eps * max(r, 3), and its error
    handling, so a SVD that does not converge raises LinAlgError."""
    rcond = np.finfo(float).eps * max(jacobians.shape[1], 3)
    with np.errstate(call=_lstsq_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(jacobians, rhs[..., None], rcond, signature="DDd->Ddid")[0]
    return x[..., 0]


def _polish(evaluate, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projective least-squares Newton on an (n, 3) stack of unit points.

    Each point takes the least-squares step of its rows with the component
    along itself projected out, and stops once that step is below 1e-15 or
    after 4 steps.  Returns the points and each one's largest |row value| at
    the last evaluation, which is the point returned.
    """
    points = points.copy()
    residuals = np.empty(len(points))
    active = np.arange(len(points))
    for step in range(5):
        if not active.size:
            break
        values, jacobian = evaluate(points[active])
        # hypot is Python's abs(complex) to the bit; np.abs is not
        residuals[active] = np.hypot(values.real, values.imag).max(axis=1)
        if step == 4:
            break
        steps = _lstsq(jacobian, -values)
        p = points[active]
        steps -= p * (np.vecdot(p, steps) / np.vecdot(p, p))[:, None]
        moving = _norms(steps) >= 1e-15
        active = active[moving]
        moved = p[moving] + steps[moving]
        points[active] = moved / _norms(moved)[:, None]
    return points, residuals


def _projective_match(p: np.ndarray, q: np.ndarray) -> bool:
    return 1.0 - abs(np.vdot(p, q)) < DEDUP_TOL


def _canonical_real(p: np.ndarray) -> np.ndarray:
    out = np.real(p)
    out = out / np.linalg.norm(out)
    for v in out:
        if abs(v) > LINE_NORM_FLOOR:
            return out if v > 0 else -out
    return out


def _quadric_parameter_points(a: float, b: float, c: float) -> tuple[tuple, tuple]:
    """Parameter points (s, t) of the two linear factors of a s^2 + b st + c t^2.

    A root (x0 : y0) of the quadric in (x, y) corresponds to the linear factor
    vanishing there, i.e. the parameter point (s, t) = (y0, -x0).
    """
    disc = b * b - 4.0 * a * c
    sq = math.sqrt(disc) if disc >= 0 else cmath.sqrt(complex(disc))
    quot = -(b + (sq if b >= 0 else -sq)) / 2.0
    if abs(quot) > 0.0:
        roots_xy = ((quot, a), (c, quot))
    elif abs(a) >= abs(c):
        # b = 0 and ac = 0 up to roundoff: a s^2 with a double root at (0 : 1)
        roots_xy = ((0.0, 1.0), (0.0, 1.0))
    else:
        roots_xy = ((1.0, 0.0), (1.0, 0.0))
    out = []
    for x0, y0 in roots_xy:
        s, t = y0, -x0
        norm = max(abs(s), abs(t))
        s, t = s / norm, t / norm
        if isinstance(s, complex) and abs(s.imag) < 1e-14 and abs(t.imag) < 1e-14:
            s, t = s.real, t.real
        if not isinstance(s, complex) and (s < 0 or (s == 0 and t < 0)):
            s, t = -s, -t
        out.append((s, t))
    return tuple(out)


def _curve_point_normalized(curve: CurveParam, s, t):
    values = np.array([complex(v) for v in curve.point(s, t)])
    values = values / np.linalg.norm(values)
    if np.max(np.abs(values.imag)) < 1e-10:
        return tuple(float(v) for v in _canonical_real(values.real))
    pivot = values[int(np.argmax(np.abs(values)))]
    values = values * (abs(pivot) / pivot)
    return tuple(complex(v) for v in values)


def _random_combination(rows: Sequence[dict], rng: random.Random) -> dict:
    """Sum of the rows times random integers in [-5, 5], drawn in row order
    and added one row at a time; up to 20 attempts until the sum is nonzero."""
    for _ in range(20):
        combo: dict = {}
        for row in rows:
            accumulate(combo, row.items(), rng.randint(-5, 5))
        if combo:
            return combo
    return {}


def _coefficients_in(form: dict, k: int) -> list[dict]:
    """Coefficients of a nonzero form in its k-th variable, ascending in
    degree, each over the other two exponents in the form's term order."""
    parts: list[dict] = [{} for _ in range(max(e[k] for e in form) + 1)]
    for e, c in form.items():
        parts[e[k]][e[:k] + e[k + 1:]] = c
    return parts


def _elimination_variable(p: dict, q: dict, den: int) -> int:
    """Index of the variable of highest combined degree in the forms p / den
    and q / den; ties go to the heaviest leading coefficient in p, summed as
    floats in p's term order, then to the first variable."""
    def score(k):
        top = max(e[k] for e in p)
        return top + max(e[k] for e in q), sum(abs(c / den) for e, c in p.items() if e[k] == top)
    return max(range(3), key=score)


def _evaluate_at(part: Sequence[tuple[tuple[int, int], float]], m, n):
    """A form in two variables at (m, n), summed term by term in the part's
    order, each term its coefficient times m^i times n^j (a factor with a
    zero exponent left out)."""
    total = 0.0
    for (i, j), c in part:
        term = c
        if i:
            term = term * m ** i
        if j:
            term = term * n ** j
        total = total + term
    return total


def _projective_roots(polys: Sequence[Sequence], zero: float) -> list[tuple[list, bool]]:
    """For each polynomial, given highest degree first, its finite roots and
    whether it has a root at infinity.  Coefficients are scaled by the
    largest |c| (each int c / top rounds the exact ratio once, as
    float(Fraction(c, top)) does); leading ones with |c| <= zero are
    dropped.  The finite roots are np.roots's of the rest, to the bit and in
    its dtype: each companion matrix is built as np.roots builds it (zeros
    at either end stripped, the trailing ones appended as roots at 0; first
    row -p[1:] / p[0] over a subdiagonal of ones), and np.linalg.eigvals
    runs once per stack of one size and dtype."""
    shapes, groups = [], {}  # per polynomial (trailing zeros, at infinity); stripped arrays by kind
    for descending in polys:
        top = max(abs(c) for c in descending)
        scaled = [c / top for c in descending]
        lead = next(i for i, c in enumerate(scaled) if abs(c) > zero)
        tail = np.array(scaled[lead:])
        nonzero = np.flatnonzero(tail)
        stripped = tail[nonzero[0]:nonzero[-1] + 1]
        groups.setdefault((len(stripped), stripped.dtype), []).append((len(shapes), stripped))
        shapes.append((len(tail) - 1 - nonzero[-1], lead > 0))
    roots: list = [None] * len(shapes)
    for (size, dtype), members in groups.items():
        if size == 1:
            found = [np.array([])] * len(members)
        else:
            stack = np.array([p for _, p in members])
            companion = np.zeros((len(members), size - 1, size - 1), dtype)
            below = np.arange(size - 2)
            companion[:, below + 1, below] = 1
            companion[:, 0, :] = -stack[:, 1:] / stack[:, :1]
            # eigvals drops a real stack's imaginary parts only when all vanish;
            # np.roots of one real polynomial does so when its own do
            found = [w.real if dtype.kind == "f" and not w.imag.any() else w
                     for w in np.linalg.eigvals(companion)]
        for (i, _), r in zip(members, found):
            roots[i] = r
    return [(list(np.concatenate((r, np.zeros(trailing, r.dtype)))), at_infinity)
            for r, (trailing, at_infinity) in zip(roots, shapes)]


def _binary_form_root_pairs(res: list[int]) -> list[tuple[complex, complex]]:
    """Projective roots of a binary form of degree D, given as D + 1 ints
    ascending in var1 (entry j on var1^j var2^(D - j)), as (value of var1,
    value of var2)."""
    [(finite, at_infinity)] = _projective_roots([res[::-1]], 0.0)
    return [(1.0 + 0.0j, 0.0 + 0.0j)] * at_infinity + [(complex(root), 1.0 + 0.0j) for root in finite]


def solve_secants(rows: Sequence[dict], den: int, tol: float, *,
                  curve: CurveParam, pm: PluckerMap, seed: int) -> tuple[list[SecantSolution], int]:
    """All isolated solutions (a : b : c) of the secant system through u,
    given as integer rows over den (see secant_rows).

    Returns the real solutions as SecantSolution records plus the number of
    verified nonreal solutions.  Elimination uses the resultant of two random
    integer combinations of the four rows; spurious intersections of the two
    combinations are discarded by checking residuals of all four rows.
    """
    nonzero = [row for row in rows if row]
    if not nonzero:
        raise DegenerateQuery("all four equations vanish identically")
    evaluate = _row_evaluator(nonzero)
    rng = random.Random(seed)

    candidates: list = []  # rows of (a, b, c), normalized together below
    # projective unit points never appear in chart-based rooting; a row of
    # degree d - 1 vanishes at one exactly when it lacks that power's term
    for k in range(3):
        unit = tuple((curve.d - 1) * (i == k) for i in range(3))
        if all(unit not in row for row in nonzero):
            candidates.append(np.eye(3)[k])

    for _ in range(MAX_ELIMINATION_RETRIES):
        p = _random_combination(nonzero, rng)
        q = _random_combination(nonzero, rng)
        if not p or not q:
            continue
        v_index = _elimination_variable(p, q, den)
        # p and q are den times the forms: a positive power of den scales the
        # resultant, and cancels in each c / max|c| its root finding rounds once
        res = resultant(p, q, PAIR_VARS[v_index], PAIR_VARS)
        if not any(res):
            continue
        if len(res) == 1:
            break  # a nonzero constant: no solutions away from the unit points
        # float(Fraction(c, den)) is c / den: both round the same rational once
        sources = [[[(e, c / den) for e, c in part.items()] for part in _coefficients_in(f, v_index)]
                   for f in (p, q)]
        pairs, backs = [], []  # root pairs and the first nonzero back-substitution at each
        for m0, n0 in _binary_form_root_pairs(res):
            for source in sources:
                values = [_evaluate_at(part, m0, n0) for part in source]
                if not all(map(cmath.isfinite, values)):  # complex products overflow to inf
                    raise OverflowError("a back-substitution value is not finite")
                if any(values):
                    pairs.append((m0, n0))
                    backs.append(values[::-1])
                    break
        for (m0, n0), (finite, at_infinity) in zip(pairs, _projective_roots(backs, 1e-12)):
            for v0 in finite:
                point = [m0, n0]
                point.insert(v_index, v0)
                candidates.append(point)
            if at_infinity:  # the eliminated variable dominates: its unit point
                candidates.append(np.eye(3)[v_index])
        break
    else:
        raise ResultantIdenticallyZero(
            "every elimination collapsed; the query point may lie on the curve")

    stack = np.array(candidates, dtype=complex).reshape(-1, 3)
    points, residuals = _polish(evaluate, stack / _norms(stack)[:, None])
    verified: list[tuple[np.ndarray, float, int]] = []
    for point, residual in zip(points, residuals.tolist()):
        if residual > max(tol, 1e-7):
            continue
        for i, (existing, res_old, mult) in enumerate(verified):
            if _projective_match(existing, point):
                verified[i] = (existing if res_old <= residual else point,
                               min(res_old, residual), mult + 1)
                break
        else:
            verified.append((point, residual, 1))

    solutions: list[SecantSolution] = []
    nonreal = 0
    for point, residual, mult in verified:
        pivot = point[int(np.argmax(np.abs(point)))]
        aligned = point * (abs(pivot) / pivot)
        if np.max(np.abs(aligned.imag)) > 1e-7:
            nonreal += 1
            continue
        abc = _canonical_real(aligned)
        a, b, c = (float(v) for v in abc)
        disc = b * b - 4.0 * a * c
        dead_zone = DISC_DEAD_ZONE_SCALE * (a * a + b * b + c * c)
        if disc > dead_zone:
            contact = TWO_REAL_POINTS
        elif disc < -dead_zone:
            contact = CONJUGATE_POINTS
        else:
            contact = TANGENT_CONTACT
        roots = _quadric_parameter_points(a, b, c)
        curve_points = tuple(_curve_point_normalized(curve, s, t) for s, t in roots)
        line_norm = float(np.linalg.norm([float(v) for v in pm.evaluate((a, b, c))]))
        solutions.append(SecantSolution((a, b, c), disc, contact, roots,
                                        curve_points, residual, line_norm, mult))
    solutions.sort(key=lambda s: s.abc)
    return solutions, nonreal


def _on_curve(curve: CurveParam, u: Sequence[Fraction]) -> bool:
    """Exact test for u proportional to some (possibly complex) curve point.

    The pencils F_i u_j - F_j u_i are formed from u and F, each scaled to
    integers by its common denominator, which scales every pencil by one
    positive integer: their common roots, and which vanish, stay the same."""
    U = integer_row(u)
    F = curve.F_int
    common: list[int] = []
    infinity = True
    for i, j in INDEX_PAIRS:
        coeffs = [F[i][k] * U[j] - F[j][k] * U[i] for k in range(curve.d + 1)]
        if not any(coeffs):
            continue
        infinity = infinity and coeffs[0] == 0
        common = poly_gcd(common, coeffs[::-1])
        if len(common) == 1 and not infinity:
            return False
    if not common:
        return True  # u is proportional to every curve point difference: on a line curve
    return infinity or len(common) > 1


@dataclass(frozen=True)
class PointClassification:
    """Real-rank verdict for one query point with its secant evidence."""

    label: str
    witness: SecantSolution | None
    solutions: tuple[SecantSolution, ...]
    nonreal_count: int

    @property
    def real_secants(self) -> int:
        return len(self.solutions)

    @property
    def two_real_point_secants(self) -> int:
        return sum(1 for s in self.solutions if s.contact == TWO_REAL_POINTS)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "witness": self.witness.to_json() if self.witness else None,
            "solutions": [s.to_json() for s in self.solutions],
            "nonreal_count": self.nonreal_count,
        }


def classify_point(curve: CurveParam, u, tol: float = 1e-8, *, seed: int = 0) -> PointClassification:
    """REAL_RANK_LE_2 iff some real secant line through u has a genuinely
    positive quadric discriminant (two real curve points) and nonzero line
    coordinates; otherwise REAL_RANK_GE_3."""
    u = _exact_entries(u)
    if len(u) != 4:
        raise DegenerateQuery("query point must have four coordinates")
    if all(c == 0 for c in u):
        raise DegenerateQuery("query point must be nonzero")
    if _on_curve(curve, u):
        raise DegenerateQuery("query point lies on the curve")
    pm = plucker_map(curve)
    rows, den = secant_rows(pm, u)
    try:
        solutions, nonreal = solve_secants(rows, den, tol, curve=curve, pm=pm, seed=seed)
    except OverflowError as exc:
        raise FloatOverflow(f"the secant system at this point overflows double precision ({exc})") from exc
    witness = next((s for s in solutions
                    if s.contact == TWO_REAL_POINTS and s.line_norm > LINE_NORM_FLOOR), None)
    label = REAL_RANK_LE_2 if witness is not None else REAL_RANK_GE_3
    return PointClassification(label, witness, tuple(solutions), nonreal)


@dataclass(frozen=True)
class PathSample:
    t: float
    label: str
    real_secants: int
    two_real_point_secants: int
    min_discriminant: float


@dataclass(frozen=True)
class PathTransition:
    t_star: float
    kind: str
    rank_before: int
    rank_after: int
    surface: str | None = None


@dataclass(frozen=True)
class PathReport:
    """Classification samples along a segment plus localized transitions."""

    samples: tuple[PathSample, ...]
    transitions: tuple[PathTransition, ...]

    def to_json(self) -> dict:
        return {
            "samples": [vars(s) | {} for s in self.samples],
            "transitions": [vars(t) | {} for t in self.transitions],
        }

    def to_csv(self) -> str:
        lines = ["t,min_discriminant,real_secants,two_real_point_secants"]
        for s in self.samples:
            lines.append(f"{s.t!r},{s.min_discriminant!r},{s.real_secants},{s.two_real_point_secants}")
        return "\n".join(lines) + "\n"


def _rank_of(label: str) -> int:
    return 2 if label == REAL_RANK_LE_2 else 3


def _path_point(path, t: Fraction) -> list[Fraction]:
    return [c0 + c1 * t for c0, c1 in path]


def _sample(curve: CurveParam, path, t: Fraction, tol: float, seed: int) -> PathSample:
    pc = classify_point(curve, _path_point(path, t), tol, seed=seed)
    discs = [s.discriminant for s in pc.solutions]
    return PathSample(float(t), pc.label, pc.real_secants, pc.two_real_point_secants,
                      min(discs) if discs else math.nan)


def _snap_root(roots: Sequence[Fraction], unmatched: Sequence[int],
               lo: Fraction, hi: Fraction) -> int | None:
    """The fixture root that every end of bisecting [lo, hi] would match.

    Full bisection ends at some t* in [lo, hi] and matches the nearest
    unmatched root within FIXTURE_MATCH_WINDOW of it.  When r is the only
    unmatched root in [lo - W, hi + W] and hi - W <= r <= lo + W, that is r
    for every such t*.  SNAP_MARGIN absorbs the rounding of the float
    comparisons the match makes.
    """
    near = [i for i in unmatched
            if lo - SNAP_REACH <= roots[i] <= hi + SNAP_REACH]
    if len(near) == 1 and hi - SNAP_WITHIN <= roots[near[0]] <= lo + SNAP_WITHIN:
        return near[0]
    return None


def _bisect_change(curve: CurveParam, path, lo: Fraction, hi: Fraction,
                   lo_label: str, tol: float, seed: int,
                   roots: Sequence[Fraction], unmatched: Sequence[int]) -> tuple[float, int | None]:
    """Localize a classification change in [lo, hi] to width 1e-12, or stop
    at the one fixture root any such t* would match; returns (t*, root index
    or None)."""
    while hi - lo > BISECTION_WIDTH:
        snapped = _snap_root(roots, unmatched, lo, hi)
        if snapped is not None:
            return float(roots[snapped]), snapped
        mid = (lo + hi) / 2
        if classify_point(curve, _path_point(path, mid), tol, seed=seed).label == lo_label:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2), None


def _fixture_polynomial(poly: Polynomial, path) -> list[Fraction]:
    """The fixture restricted to the path, ascending in t: each POINT_VARS
    coordinate is c0 + c1 t.  The expansion runs in integers: the path is
    scaled by the common denominator D of its entries, a term of degree m
    times D^(top - m) for the top degree, and the sum is divided by the
    fixture's den times D^top once at the end."""
    if poly.variables != POINT_VARS:
        raise ValueError(f"fixture variables {poly.variables} are not {POINT_VARS}")
    scale = content(c for row in path for c in row).denominator
    lines = [(int(c0 * scale), int(c1 * scale)) for c0, c1 in path]
    den = poly.den
    top = max((sum(e) for e in poly.terms), default=0)
    total: list[int] = []
    for expo, coeff in poly.terms.items():
        term = [coeff * scale ** (top - sum(expo))]
        for (c0, c1), e in zip(lines, expo):
            for _ in range(e):
                term = _mul(term, [c0, c1])
        total = _add(total, term)
    return [Fraction(c, den * scale ** top) for c in total]


def scan_path(curve: CurveParam, path, interval=(0, 1), nsamples: int = 21,
              fixtures: Mapping[str, Polynomial] | None = None, tol: float = 1e-8,
              *, seed: int = 0) -> PathReport:
    """Classify u(t) = path(t) along the interval and localize every change.

    Classification changes are bisected to width 1e-12.  When boundary-surface
    fixture polynomials are supplied (keyed by kind), each localized change is
    matched to the fixture root it crosses and reported at that root's
    high-precision value; bisection stops early once only one root can be
    that match.  Fixture roots that do not change the classification are
    reported too, flagged NO_RANK_CHANGE.
    """
    if nsamples < 2:
        raise ValueError("need at least two samples")
    path = tuple((c0, c1) for c0, c1 in (_exact_entries(row) for row in path))
    lo, hi = (as_fraction(v) for v in interval)
    if hi <= lo:
        raise ValueError("empty interval")
    ts = [lo + (hi - lo) * k / (nsamples - 1) for k in range(nsamples)]
    samples = [_sample(curve, path, t, tol, seed) for t in ts]

    fixture_roots: list[tuple[float, str]] = []
    for kind, poly in (fixtures or {}).items():
        along = _fixture_polynomial(poly, path)
        if not any(along):
            continue
        for root, _mult in real_roots(along, lo, hi, tol=1e-13):
            fixture_roots.append((root, kind))
    exact_roots = [as_fraction(root) for root, _kind in fixture_roots]

    transitions: list[PathTransition] = []
    matched: set[int] = set()
    for (ta, sa), (tb, sb) in zip(zip(ts, samples), zip(ts[1:], samples[1:])):
        if sa.label == sb.label:
            continue
        rank_before, rank_after = _rank_of(sa.label), _rank_of(sb.label)
        unmatched = [i for i in range(len(fixture_roots)) if i not in matched]
        t_star, best = _bisect_change(curve, path, ta, tb, sa.label, tol, seed,
                                      exact_roots, unmatched)
        if best is None:  # bisected to 1e-12: take the nearest root in the window
            for idx in unmatched:
                distance = abs(fixture_roots[idx][0] - t_star)
                if distance <= FIXTURE_MATCH_WINDOW and (
                        best is None or distance < abs(fixture_roots[best][0] - t_star)):
                    best = idx
        if best is None:
            transitions.append(PathTransition(t_star, UNLABELED, rank_before, rank_after))
        else:
            matched.add(best)
            root, kind = fixture_roots[best]
            transitions.append(PathTransition(root, kind, rank_before, rank_after, kind))
    probe = min((hi - lo) / (8 * (nsamples - 1)), Fraction(1, 10 ** 7))
    for idx, (root, kind) in enumerate(fixture_roots):
        if idx in matched:
            continue
        left = classify_point(curve, _path_point(path, as_fraction(root) - probe), tol, seed=seed)
        right = classify_point(curve, _path_point(path, as_fraction(root) + probe), tol, seed=seed)
        rank_before, rank_after = _rank_of(left.label), _rank_of(right.label)
        label = kind if rank_before != rank_after else NO_RANK_CHANGE
        transitions.append(PathTransition(root, label, rank_before, rank_after, kind))
    transitions.sort(key=lambda tr: tr.t_star)
    return PathReport(tuple(samples), tuple(transitions))


MONOMIAL_QUARTIC = CurveParam(4, (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
))

# ruled sextic surfaces bounding the real rank two region of the monomial
# quartic: contact locus of tangent lines, and of the edge (bitangent) lines
TANGENTIAL_SEXTIC = Polynomial(POINT_VARS, {
    (0, 3, 3, 0): 16, (2, 0, 4, 0): -27, (1, 2, 2, 1): 6,
    (0, 4, 0, 2): -27, (2, 1, 1, 2): 48, (3, 0, 0, 3): -16,
})
EDGE_SEXTIC = Polynomial(POINT_VARS, {
    (0, 3, 3, 0): 32, (2, 0, 4, 0): -27, (1, 2, 2, 1): -6,
    (0, 4, 0, 2): -27, (2, 1, 1, 2): 24, (3, 0, 0, 3): 4,
})
MONOMIAL_QUARTIC_FIXTURES = {TANGENTIAL: TANGENTIAL_SEXTIC, EDGE: EDGE_SEXTIC}

# a segment that crosses both boundary surfaces twice, with exactly one
# tangential crossing and one edge crossing changing the real rank
CROSSING_PATH = ((84, -74), (13, 59), (62, -19), (-38, -10))
