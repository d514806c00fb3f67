"""Shared test plumbing: the acceptance criteria report, a polynomial
substitution oracle, the cofactor determinant and the Sylvester resultant
that the Bareiss and Bezout kernels of multipoly are tested against, the
MultiPoly secant system that the integer pencil of space_curve is tested
against, and the univariate Fraction arithmetic (gcd, Sturm chain,
square-free factors, on-curve test) that the integer remainder sequence of
unipoly is tested against.

test_acceptance.py records one line per criterion; printing them from the
terminal-summary hook keeps them visible under pytest's output capture.
"""

from __future__ import annotations

import random
from fractions import Fraction

from realrank2.exactsolve import content
from realrank2.multipoly import MultiPoly, det_bareiss

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


def cofactor_det(rows):
    """Laplace expansion along the first row, in the entries' own exact
    arithmetic (ints, Fractions or MultiPolys); 1 when empty."""
    if not rows:
        return 1
    return sum((-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]))


def sylvester_resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """The Sylvester determinant with MultiPoly entries: the resultant of
    two polynomials eliminating var, over the remaining variables."""
    cp = coefficients_in(p, var)
    cq = coefficients_in(q, var)
    while len(cp) > 1 and cp[-1].is_zero():
        cp.pop()
    while len(cq) > 1 and cq[-1].is_zero():
        cq.pop()
    m, n = len(cp) - 1, len(cq) - 1
    if m == 0:
        return cp[0] ** n
    if n == 0:
        return cq[0] ** m
    size = m + n
    zero = cp[0].zero_like()
    rows = [[zero] * s + cp[::-1] + [zero] * (size - m - 1 - s) for s in range(n)]
    rows += [[zero] * s + cq[::-1] + [zero] * (size - n - 1 - s) for s in range(m)]
    return det_bareiss(rows)


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


def fraction_trim(p) -> list[Fraction]:
    """Ascending Fraction coefficients with trailing zeros dropped."""
    out = [Fraction(c) for c in p]
    while out and not out[-1]:
        out.pop()
    return out


def fraction_mul(p, q) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return fraction_trim(out)


def fraction_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over Q of trimmed lists, b nonzero: (quotient, remainder)."""
    rem, quot = [Fraction(c) for c in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(b) - 1] / b[-1]
        for j, d in enumerate(b):
            rem[k + j] -= quot[k] * d
    return fraction_trim(quot), fraction_trim(rem[:len(b) - 1])


def fraction_primitive(p) -> list[Fraction]:
    """p over its content, with positive leading coefficient; [] stays []."""
    if not p:
        return []
    scale = content(p) if p[-1] > 0 else -content(p)
    return [c / scale for c in p]


def fraction_derivative(p) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def fraction_poly_gcd(p, q) -> list[Fraction]:
    """The Euclidean gcd over the rationals, in Fraction arithmetic, each
    remainder made primitive; primitive with positive leading coefficient."""
    a, b = fraction_trim(p), fraction_trim(q)
    while b:
        a, b = b, fraction_primitive(fraction_divmod(a, b)[1])
    return fraction_primitive(a)


def fraction_sturm_chain(p) -> list[list[Fraction]]:
    """The Sturm sequence of a trimmed p over Q: p, p', then each negated
    remainder, unscaled, until a constant or a zero remainder."""
    chain = [list(p)]
    if len(p) > 1:
        chain.append(fraction_derivative(p))
    while len(chain) > 1 and len(chain[-1]) > 1:
        rem = fraction_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def fraction_squarefree(p) -> list[tuple[list[Fraction], int]]:
    """Square-free factors by repeated gcds (Musser's algorithm, not Yun's):
    with a = gcd(p, p') and b = p / a, each gcd(a, b) strips one power."""
    p = fraction_primitive(fraction_trim(p))
    if len(p) < 2:
        return []
    a = fraction_poly_gcd(p, fraction_derivative(p))
    b = fraction_divmod(p, a)[0]
    out, i = [], 1
    while len(b) > 1:
        c = fraction_poly_gcd(a, b)
        factor = fraction_primitive(fraction_divmod(b, c)[0])
        if len(factor) > 1:
            out.append((factor, i))
        a = fraction_divmod(a, c)[0]
        b = c
        i += 1
    return out


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
        poly = fraction_trim(reversed(coeffs))
        common = poly if common is None else fraction_poly_gcd(common, poly)
        if len(common) == 1 and not infinity:
            return False
    if common is None:
        return True
    return infinity or len(common) > 1
