"""Exact multivariate polynomials: the printed record and the term-map kernels.

A `MultiPoly` is a tuple of variable names plus a map from exponent vectors
to nonzero Fraction coefficients.  Its canonical term order is graded
lexicographic in the declared variable order; it fixes printing and
therefore every piece of symbolic output in the package.  Computation runs
on plain term maps (exponent -> integer coefficient): `times` multiplies
two, `det_bareiss` expands a determinant of them, and `resultant`
eliminates a variable from two forms over Z[x].
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Mapping, Sequence, Union

from .exactsolve import as_fraction, content
from .unipoly import _exact_div, _trimmed

Scalar = Union[int, Fraction]


def grlex_key(exponents: tuple) -> tuple:
    # graded lex: compare total degree first, then the exponent tuple itself
    return (sum(exponents), exponents)


class MultiPoly:
    """A printed record: variables and exact terms, with the content,
    normal form, evaluation and text/JSON forms the CLI prints.  Symbolic
    builders compute on integer term maps (`times`, `det_bareiss`) and wrap
    the result."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar] | None = None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        clean: dict[tuple, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.variables) or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for variables {self.variables}")
            c = as_fraction(coeff)
            if c:
                clean[expo] = clean.get(expo, Fraction(0)) + c
                if not clean[expo]:
                    del clean[expo]
        self.terms = clean

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """(exponent, coefficient) pairs, graded lex descending."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key, reverse=True)]

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a full assignment.  Exact inputs give a Fraction."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        vals = [values[v] for v in self.variables]
        exact = all(isinstance(v, (int, Fraction)) for v in vals)
        total = Fraction(0) if exact else 0.0
        for expo, coeff in self.terms.items():
            term = coeff if exact else float(coeff)
            for v, e in zip(vals, expo):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    def content(self) -> Fraction:
        """Positive rational c with self/c integer coefficients of gcd 1."""
        return content(self.terms.values()) if self.terms else Fraction(1)

    def normalized(self) -> "MultiPoly":
        """Clear denominators, reduce content to 1, leading coefficient > 0."""
        if not self.terms:
            return self
        scale = self.content()
        if self.sorted_terms()[0][1] < 0:
            scale = -scale
        return type(self)(self.variables, {e: c / scale for e, c in self.terms.items()})

    def to_text(self) -> str:
        # printed smallest term first, so normalized polynomials read the way
        # low-degree identities are usually written (3*x2^2 - 4*x1*x3 + 1*x0*x4)
        if not self.terms:
            return "0"
        chunks = []
        for expo, coeff in reversed(self.sorted_terms()):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, expo)
                if e
            )
            body = f"{abs(coeff)}*{mono}" if mono else str(abs(coeff))
            chunks.append(("-" if coeff < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "terms": {
                ",".join(str(e) for e in expo): str(coeff)
                for expo, coeff in self.sorted_terms()
            },
        }


def times(p: dict, q: dict) -> dict:
    """Product of two polynomials given as exponent -> coefficient maps.

    Terms come in first-appearance order (for each term of p in order, each
    term of q in order, a new exponent appended where it first appears);
    exponents whose coefficients cancel are dropped.
    """
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def det_bareiss(matrix: list[list[dict]]) -> dict:
    """Exact determinant of a square matrix of term maps, as a term map.

    Entries are exponent -> coefficient maps in one set of variables ({}
    is zero).  The symbolic matrices the package takes determinants of are
    at most 4 x 4 (2 or 6 products for the Hankel minors, 24 for the
    cubic discriminant), so the expansion is Leibniz's sum over
    permutations, each product taken by `times`.  It is not an
    elimination: it keeps the name `det_bareiss` because the benchmark's
    tracer and its per-layer metrics (`multipoly.det_bareiss_calls`,
    `multipoly.det_bareiss_ms`) find it, in this module and where
    `hyperdet` and `binary_forms` import it, by that name.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    det: dict = {}
    for perm in itertools.permutations(range(n)):
        entries = [row[j] for row, j in zip(matrix, perm)]
        if not all(entries):
            continue
        sign = -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1
        for e, c in functools.reduce(times, entries).items():
            det[e] = det.get(e, 0) + sign * c
    return {e: c for e, c in det.items() if c}


class NotForms(ValueError):
    """Resultant input is not two nonzero forms in the same variables, at
    most three of them, one the eliminated variable."""


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two trimmed ascending integer lists, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    """a + b for ascending integer lists, trimmed."""
    return _trimmed([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a: list[int], b: list[int]) -> list[int]:
    """a - b for ascending integer lists, trimmed."""
    return _trimmed([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _det(rows: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[x] (entries trimmed ascending
    integer lists), by one Bareiss elimination: each update divides by the
    previous pivot with `unipoly._exact_div`, which raises InexactDivision
    on a remainder; [1] when empty, [] when zero."""
    n = len(rows)
    work = [list(row) for row in rows]
    sign, prev = 1, [1]
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            return []
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            lead = work[i][k]
            for j in range(k + 1, n):
                num = _sub(_mul(pivot, work[i][j]), _mul(lead, work[k][j]))
                work[i][j] = num if k == 0 else _exact_div(num, prev)
        prev = pivot
    det = work[-1][-1] if n else [1]
    return det if sign == 1 else [-c for c in det]


def resultant(p, q, var: str, variables: Sequence[str] | None = None) -> list[int]:
    """Resultant of two forms eliminating `var`, exact, as ascending ints.

    p and q are MultiPolys or, given their `variables`, maps from exponent
    vectors to int or Fraction coefficients.  Each is first scaled to
    integer coefficients by the lcm L of its denominators (1 for integer
    forms), so with m, n the degrees in `var` the result is Lp^n Lq^m times
    the resultant: a form of degree D = (t_p - m) n + (t_q - n) m + m n in
    the remaining variables, t_p and t_q the total degrees.  It comes back
    as D + 1 ints, entry j the coefficient of the terms of degree j in the
    first remaining variable: with two left, (x, y), of x^j y^(D - j); with
    one, only entry D can be nonzero; with none, the resultant is 0 unless
    D is 0.

    The kernel is the Cayley-Bezout form (Cox, Little and O'Shea, *Using
    Algebraic Geometry*, ch. 3).  With y set to 1 each coefficient of p and
    q in `var` is an integer polynomial in x; the form of lower degree is
    padded to k = max(m, n), the k x k Bezout matrix of
    (p(s) q(t) - p(t) q(s)) / (s - t) is taken over Z[x] by one Bareiss
    elimination, and Res_{k,k} = (-1)^(k(k-1)/2) det(Bez), which is
    lc^(k - min(m, n)) Res_{m,n} for lc the leading coefficient of the
    form of higher degree.
    """
    if variables is None:
        # MultiPolys in different variables fail the test below as no variables
        variables = p.variables if q.variables == p.variables else ()
        p, q = p.terms, q.terms
    degrees = [{sum(e) for e in f} for f in (p, q)]
    if var not in variables or len(variables) > 3 or any(len(d) != 1 for d in degrees):
        raise NotForms("resultant needs two nonzero forms in the same at most three variables")
    k = variables.index(var)
    rest = variables[:k] + variables[k + 1:]
    # the first remaining variable carries x when there are two; else all are 1
    x_at = variables.index(rest[0]) if len(rest) == 2 else None
    slices = []
    for f, (total,) in zip((p, q), degrees):
        den = lcm(*(c.denominator for c in f.values()))
        # coefficient of var^i, as integer coefficients of x^0, x^1, ...
        coeffs = [[0] * (total + 1) for _ in range(max(e[k] for e in f) + 1)]
        for e, c in f.items():
            coeffs[e[k]][0 if x_at is None else e[x_at]] += c.numerator * (den // c.denominator)
        slices.append(([_trimmed(c) for c in coeffs], total))
    (cp, tp), (cq, tq) = slices
    m, n = len(cp) - 1, len(cq) - 1
    degree = (tp - m) * n + (tq - n) * m + m * n
    # Res_{m,n}(p, q) = (-1)^(mn) Res_{n,m}(q, p): put the higher degree first
    swaps = m * n if m < n else 0
    if m < n:
        cp, cq, m, n = cq, cp, n, m
    cq = cq + [[]] * (m - n)
    bezout = [[[] for _ in range(m)] for _ in range(m)]
    for a in range(1, m + 1):
        for b in range(a):
            c = _sub(_mul(cp[a], cq[b]), _mul(cp[b], cq[a]))
            # (s^a t^b - s^b t^a) / (s - t) is the sum of s^(b+r) t^(a-1-r), r < a - b
            for r in range(a - b if c else 0):
                bezout[b + r][a - 1 - r] = _add(bezout[b + r][a - 1 - r], c)
    res = _det(bezout)
    for _ in range(m - n):  # the padding factor lc^(m - n)
        res = _exact_div(res, cp[m])
    if (swaps + m * (m - 1) // 2) % 2:
        res = [-c for c in res]
    if x_at is None:
        res = [0] * degree + res
    return res + [0] * (degree + 1 - len(res))
