"""Hankel-matrix tests for real rank two of binary forms.

A form of degree d is stored through its scaled coefficients x_0..x_d,
f = sum_i x_i * binom(d,i) * s^(d-i) t^i.  Real (border) rank two is
decided by the rank of the 3 x (d-1) Hankel matrix H[r][c] = x_{r+c}
together with the signs of the shifted discriminant quartics

    D_i = x_i^2 x_{i+3}^2 - 6 x_i x_{i+1} x_{i+2} x_{i+3}
          - 3 x_{i+1}^2 x_{i+2}^2 + 4 x_{i+1}^3 x_{i+3} + 4 x_i x_{i+2}^3,

which are the sub-block hyperdeterminants of the corresponding symmetric
tensor, collapsed to one value per shift.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import certify as ce
from . import hyperdet as hd
from . import tensors as tn
from .multipoly import Polynomial, det_bareiss, evaluate, normalized
from .tableaux import MAX_GENERATORS, DegreeTooSmall, TooManyGenerators, quadric_basis


class WrongDegree(ValueError):
    pass


STRATUM_PSD_PAIR = "++0"
STRATUM_INDEF_PAIR = "+-0"
STRATUM_CONJ = "cpx"
STRATUM_RANK_ONE = "RANK_ONE"

# |q1^2 - 4 q0 q2| of a float quartic's unit kernel quadric q at most this is 0
QUARTIC_TANGENT_TOL = 1e-12


class BinaryForm(tn.SymTensorCoords):
    """The n = 2 record: x_0..x_d are already in multidegrees(2, d) order."""

    def __init__(self, d: int, coords: list):
        if len(coords) != d + 1:
            raise WrongDegree(f"degree {d} needs {d + 1} coordinates")
        super().__init__(2, d, coords)


def from_plain_coeffs(d: int, coeffs: list) -> BinaryForm:
    """Build a form from plain monomial coefficients c_i = binom(d,i) * x_i."""
    if len(coeffs) != d + 1:
        raise WrongDegree(f"degree {d} needs {d + 1} coefficients")
    def scale(c, i):
        b = comb(d, i)
        return Fraction(c, b) if isinstance(c, (int, Fraction)) else c / b
    return BinaryForm(d, [scale(c, i) for i, c in enumerate(coeffs)])


@dataclass
class BinaryFormVerdict:
    hankel_rank: int
    d_values: list
    verdict: ce.Verdict
    strata: str | None

    def to_json(self) -> dict:
        return {
            "hankel_rank": self.hankel_rank,
            "d_values": [tn.num_json(v) for v in self.d_values],
            "verdict": self.verdict.value,
            "strata": self.strata,
        }


def hankel(f: BinaryForm) -> np.ndarray:
    """The 3 x (d-1) matrix H[r][c] = x_{r+c}."""
    if f.d < 2:
        raise DegreeTooSmall("the Hankel matrix needs degree >= 2")
    dtype = object if f.is_exact() else float
    return np.array([[f.coords[r + c] for c in range(f.d - 1)] for r in range(3)],
                    dtype=dtype)


def classify_binary_form(f: BinaryForm, tol: float = 1e-8) -> BinaryFormVerdict:
    """Verdict on the same lattice as tensor certificates; for d = 4 also a
    stratum label from the Hankel matrix."""
    if f.d < 3:
        raise DegreeTooSmall("classification needs degree >= 3")
    cert = ce.certify_symmetric(f, tol)
    return BinaryFormVerdict(cert.flattening_ranks["hankel"], [v for _, v in cert.hyperdet_report.values],
                             cert.verdict, _strata_label(f, cert) if f.d == 4 else None)


def _strata_label(f: BinaryForm, cert: ce.Certificate) -> str | None:
    """Sylvester's rule on the Hankel matrix H of a quartic of Hankel rank
    two: its kernel quadric q (H q = 0) vanishes on the pair's linear forms,
    so disc = q1^2 - 4 q0 q2 > 0 means a real pair, < 0 a conjugate pair and
    0 a tangential form; a real pair is ++0 when H is semidefinite."""
    if cert.verdict == ce.Verdict.RANK_AT_MOST_ONE:
        return STRATUM_RANK_ONE
    if cert.verdict == ce.Verdict.BORDER_RANK_EXCEEDS_TWO:
        return None
    h = hankel(f)
    if f.is_exact():
        # the first independent pair of rows spans the row space, and the
        # principal 2 x 2 minors sum to the eigenvalue product as det H = 0
        h, zero = tn.integers(h).tolist(), 0
        q = next(q for q in ((a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
                             for a, b in itertools.combinations(h, 2)) if any(q))
        product = sum(h[i][i] * h[j][j] - h[i][j] ** 2 for i, j in itertools.combinations(range(3), 2))
    else:
        # a power of two puts max |H| in [0.5, 1): no overflow, and no rounding
        # but of entries it pushes below the normal range
        lam, vec = np.linalg.eigh(np.ldexp(h, -np.frexp(np.abs(h).max())[1]))
        small, mid, big = np.argsort(np.abs(lam))
        q, product, zero = vec[:, small], lam[mid] * lam[big], QUARTIC_TANGENT_TOL
    disc = q[1] * q[1] - 4 * q[0] * q[2]
    if abs(disc) <= zero:
        return None
    return STRATUM_CONJ if disc < 0 else STRATUM_PSD_PAIR if product > 0 else STRATUM_INDEF_PAIR


@functools.cache
def _quintic_quadrics() -> tuple[Polynomial, ...]:
    # shared by every call: callers only evaluate the polynomials
    return tuple(g.polynomial for g in quadric_basis(2, 5))


def quintic_alternative_test(f: BinaryForm) -> bool:
    """rank(H) <= 2 and Q_1^2 - 4 Q_0 Q_2 >= 0, the two-condition test for
    membership in the real rank two locus of binary quintics; float forms
    count a discriminant within the hyperdeterminant zero tolerance as 0."""
    if f.d != 5:
        raise WrongDegree("this test is specific to degree 5")
    q0, q1, q2 = _quintic_quadrics()
    point = {name: c for name, c in zip(q0.variables, f.coords)}
    v0, v1, v2 = (evaluate(q, point) for q in (q0, q1, q2))
    h = hankel(f)
    return bool(tn.matrix_rank(h) <= 2 and v1 * v1 - 4 * v0 * v2 >= -hd.hyperdet_zero_tol(h))


@dataclass
class IdealReport:
    d: int
    minors_2x2: list[Polynomial]
    minors_3x3: list[Polynomial]
    tangential_generators: list[tuple[str, Polynomial]]


def _symbolic_hankel(d: int) -> list[list[dict]]:
    """H[r][c] = x_{r+c} as term maps over x_0 .. x_d."""
    return [[{tuple(int(k == r + c) for k in range(d + 1)): 1} for c in range(d - 1)]
            for r in range(3)]


def tau_sigma_ideal_report(d: int) -> IdealReport:
    """Exact generators: 2x2 minors of H (the curve), 3x3 minors (its secant
    variety), and the tangential-variety generators appropriate for d;
    TooManyGenerators before any is built past MAX_GENERATORS minors."""
    if d < 3:
        raise DegreeTooSmall("ideal report needs degree >= 3")
    minors = 3 * comb(d - 1, 2) + comb(d - 1, 3)
    if minors > MAX_GENERATORS:
        raise TooManyGenerators(f"the ideal for d={d} has {minors} minors, more than {MAX_GENERATORS}")
    names = tuple(f"x{i}" for i in range(d + 1))
    h = _symbolic_hankel(d)

    def minor(rows, cols) -> Polynomial:
        return Polynomial(names, normalized(det_bareiss([[h[r][c] for c in cols] for r in rows])))

    minors2 = [minor(rows, cols) for rows in itertools.combinations(range(3), 2)
               for cols in itertools.combinations(range(d - 1), 2)]
    minors3 = [minor(range(3), cols) for cols in itertools.combinations(range(d - 1), 3)]
    if d == 3:
        tau = [("D", Polynomial(names, normalized(hd.cubic_discriminant_determinant().terms)))]
    elif d == 4:
        tau = [("det_H", minor(range(3), range(3))), ("Q", quadric_basis(2, 4)[0].polynomial)]
    else:
        tau = [(g.tableau.label(), g.polynomial) for g in quadric_basis(2, d)]
    return IdealReport(d, minors2, minors3, tau)
