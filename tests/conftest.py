"""Shared test plumbing: the acceptance criteria report, a polynomial
substitution oracle, the MultiPoly secant system that the integer
pencil of space_curve is tested against, and the Fraction gcd and on-curve
test that the integer ones are tested against.

test_acceptance.py records one line per criterion; printing them from the
terminal-summary hook keeps them visible under pytest's output capture.
"""

from __future__ import annotations

import random
from fractions import Fraction

from realrank2.multipoly import MultiPoly
from realrank2.unipoly import UniPoly

acceptance_results: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_results:
        terminalreporter.write_line(line)


def substitute(poly: MultiPoly, replacements: dict, variables) -> MultiPoly:
    """poly with every variable replaced by a polynomial in `variables`,
    expanded term by term in MultiPoly arithmetic: the reference that the
    library's exponent-arithmetic pushforwards and restrictions are tested
    against."""
    total = MultiPoly.zero(variables)
    for expo, coeff in poly.terms.items():
        term = MultiPoly.constant(coeff, variables)
        for var, e in zip(poly.variables, expo):
            term = term * replacements[var] ** e
        total = total + term
    return total


def coefficients_in(poly: MultiPoly, var: str) -> list[MultiPoly]:
    """Coefficients w.r.t. one variable, ascending degree, over the rest."""
    if var not in poly.variables:
        return [poly]
    k = poly.variables.index(var)
    rest = tuple(v for v in poly.variables if v != var)
    deg = max((e[k] for e in poly.terms), default=0)
    buckets: list[dict[tuple, Fraction]] = [dict() for _ in range(deg + 1)]
    for expo, coeff in poly.terms.items():
        reduced = tuple(e for i, e in enumerate(expo) if i != k)
        buckets[expo[k]][reduced] = coeff
    return [MultiPoly(rest, b) for b in buckets]


def secant_system(pm, u) -> list[MultiPoly]:
    """The four point-on-line equations for u, degree d-1 in (a, b, c), as
    MultiPoly sums and products of the PluckerMap's polynomials."""
    p01, p02, p03, p12, p13, p23 = pm.polys
    w, x, y, z = u
    return [
        p23 * x - p13 * y + p12 * z,
        p03 * y - p02 * z - p23 * w,
        p13 * w - p03 * x + p01 * z,
        p02 * x - p12 * w - p01 * y,
    ]


def random_combination(rows: list[MultiPoly], rng: random.Random) -> MultiPoly:
    """Sum of the rows times random integers in [-5, 5] in MultiPoly
    arithmetic; up to 20 attempts until the sum is nonzero."""
    zero = MultiPoly.zero(rows[0].variables)
    for _ in range(20):
        combo = sum((row * rng.randint(-5, 5) for row in rows), zero)
        if not combo.is_zero():
            return combo
    return zero


def elimination_variable(p: MultiPoly, q: MultiPoly) -> str:
    """The variable of highest combined degree in p and q; ties go to the
    heaviest leading coefficient in p, then to the first variable."""
    def score(v):
        in_p, in_q = coefficients_in(p, v), coefficients_in(q, v)
        return len(in_p) + len(in_q), sum(abs(float(c)) for c in in_p[-1].terms.values())
    return max(p.variables, key=score)


def fraction_poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """The Euclidean gcd over the rationals, in Fraction arithmetic, each
    remainder made primitive; primitive with positive leading coefficient."""
    a, b = p, q
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, (r.primitive() if not r.is_zero() else r)
    return a.primitive() if not a.is_zero() else a


def fraction_on_curve(curve, u) -> bool:
    """u proportional to some (possibly complex) curve point: the pencils
    F_i u_j - F_j u_i, in Fraction arithmetic, share a root, or all vanish
    at (s : t) = (1 : 0)."""
    common = None
    infinity = True
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        coeffs = [curve.F[i][k] * u[j] - curve.F[j][k] * u[i] for k in range(curve.d + 1)]
        if all(c == 0 for c in coeffs):
            continue
        infinity = infinity and coeffs[0] == 0
        poly = UniPoly(list(reversed(coeffs)))
        common = poly if common is None else fraction_poly_gcd(common, poly)
        if common.degree == 0 and not infinity:
            return False
    if common is None:
        return True
    return infinity or common.degree >= 1
