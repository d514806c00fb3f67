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
from . import decompose as dc
from . import hyperdet as hd
from . import tensors as tn
from .multipoly import MultiPoly, det_bareiss
from .tableaux import DegreeTooSmall, quadric_basis


class WrongDegree(ValueError):
    pass


STRATUM_PSD_PAIR = "++0"
STRATUM_INDEF_PAIR = "+-0"
STRATUM_CONJ = "cpx"
STRATUM_RANK_ONE = "RANK_ONE"


@dataclass
class BinaryForm:
    d: int
    coords: list

    def __post_init__(self):
        if len(self.coords) != self.d + 1:
            raise WrongDegree(f"degree {self.d} needs {self.d + 1} coordinates")

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coords)

    def to_sym(self) -> tn.SymTensorCoords:
        return tn.SymTensorCoords(2, self.d, {(self.d - i, i): c
                                              for i, c in enumerate(self.coords)})


def from_plain_coeffs(d: int, coeffs: list) -> BinaryForm:
    """Build a form from plain monomial coefficients c_i = binom(d,i) * x_i."""
    if len(coeffs) != d + 1:
        raise WrongDegree(f"degree {d} needs {d + 1} coefficients")
    def scale(c, i):
        b = comb(d, i)
        return Fraction(c, b) if isinstance(c, int) else c / b if isinstance(c, Fraction) else c / float(b)
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


def hankel_rank(f: BinaryForm, tol: float = 1e-8) -> int:
    return tn.matrix_rank(hankel(f), tol)


def discriminant_values(f: BinaryForm) -> list:
    """D_0 .. D_{d-3} evaluated on the form's coordinates."""
    if f.d < 3:
        raise DegreeTooSmall("discriminant quartics need degree >= 3")
    return [hd.discriminant_quartic(f.coords, i) for i in range(f.d - 2)]


def classify_binary_form(f: BinaryForm, tol: float = 1e-8) -> BinaryFormVerdict:
    """Verdict on the same lattice as tensor certificates; for d = 4 also a
    stratum label from the shape of the explicit decomposition."""
    if f.d < 3:
        raise DegreeTooSmall("classification needs degree >= 3")
    cert = ce.certify_symmetric(f.to_sym(), tol)
    strata = None
    if f.d == 4:
        strata = _strata_label(f, cert, tol)
    return BinaryFormVerdict(cert.flattening_ranks["hankel"],
                             [v for _, v in cert.hyperdet_report.values], cert.verdict, strata)


def _strata_label(f: BinaryForm, cert: ce.Certificate, tol: float) -> str | None:
    if cert.verdict == ce.Verdict.RANK_AT_MOST_ONE:
        return STRATUM_RANK_ONE
    if cert.verdict == ce.Verdict.BORDER_RANK_EXCEEDS_TWO:
        return None
    dec = dc.decompose_rank2(tn.sym_to_tensor(f.to_sym()), tol, cert=cert)
    if dec.kind == dc.DecompositionKind.CONJUGATE_PAIR:
        return STRATUM_CONJ
    if dec.kind == dc.DecompositionKind.REAL_PAIR:
        w1, w2 = (_effective_coefficient(term) for term in dec.terms)
        return STRATUM_PSD_PAIR if w1 * w2 > 0 else STRATUM_INDEF_PAIR
    return None


def _effective_coefficient(term) -> float:
    # coefficient c of the symmetric power c * x^{(x)d}: a sign hidden in one
    # factor (the decomposition spreads magnitudes, not orientations) must
    # count the same as a negative weight; invariant under x -> -x as d is even
    x = term.factors[0] / np.linalg.norm(term.factors[0])
    out = float(np.real(term.weight))
    for fac in term.factors:
        out *= float(np.dot(fac, x))
    return out


@functools.cache
def _quintic_quadrics() -> tuple[MultiPoly, ...]:
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
    v0, v1, v2 = (q.evaluate(point) for q in (q0, q1, q2))
    h = hankel(f)
    return bool(tn.matrix_rank(h) <= 2 and v1 * v1 - 4 * v0 * v2 >= -hd.hyperdet_zero_tol(h))


@dataclass
class IdealReport:
    d: int
    minors_2x2: list[MultiPoly]
    minors_3x3: list[MultiPoly]
    tangential_generators: list[tuple[str, MultiPoly]]


def _symbolic_hankel(d: int) -> list[list[dict]]:
    """H[r][c] = x_{r+c} as term maps over x_0 .. x_d."""
    return [[{tuple(int(k == r + c) for k in range(d + 1)): 1} for c in range(d - 1)]
            for r in range(3)]


def tau_sigma_ideal_report(d: int) -> IdealReport:
    """Exact generators: 2x2 minors of H (the curve), 3x3 minors (its secant
    variety), and the tangential-variety generators appropriate for d."""
    if d < 3:
        raise DegreeTooSmall("ideal report needs degree >= 3")
    names = [f"x{i}" for i in range(d + 1)]
    h = _symbolic_hankel(d)

    def minor(rows, cols) -> MultiPoly:
        return MultiPoly(names, det_bareiss([[h[r][c] for c in cols] for r in rows])).normalized()

    minors2 = [minor(rows, cols) for rows in itertools.combinations(range(3), 2)
               for cols in itertools.combinations(range(d - 1), 2)]
    minors3 = [minor(range(3), cols) for cols in itertools.combinations(range(d - 1), 3)]
    if d == 3:
        tau = [("D", hd.cubic_discriminant_determinant().normalized())]
    elif d == 4:
        tau = [("det_H", minor(range(3), range(3))), ("Q", quadric_basis(2, 4)[0].polynomial)]
    else:
        tau = [(g.tableau.label(), g.polynomial) for g in quadric_basis(2, d)]
    return IdealReport(d, minors2, minors3, tau)
