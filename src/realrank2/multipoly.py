"""Exact multivariate polynomials: the printed record and the term-map kernels.

A `Polynomial` is a tuple of variable names, a term map from exponent
vectors to nonzero integer coefficients, and one positive denominator
`den` (1 unless a coefficient is rational).  Its canonical term order is
graded lexicographic in the declared variable order; it fixes printing and
therefore every piece of symbolic output in the package: `to_text`,
`to_json`, and `normalized`, the normal form of an integer term map.
`evaluate` sums the terms in their own order.  Computation runs on plain
term maps (exponent -> integer coefficient): `accumulate` sums a stream
of terms into one, `times` multiplies two, `det_bareiss` expands a
determinant of them, and `resultant` eliminates a variable from two forms
by one integer determinant, through the Kronecker substitution of `unipoly`.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, prod
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .unipoly import _at_power_of_two, _balanced_digits, _det, _exact_div, _trimmed


class Polynomial(NamedTuple):
    """variables, integer terms keyed by exponent vectors, and the common
    denominator of the coefficients: the polynomial is terms / den."""

    variables: tuple[str, ...]
    terms: dict[tuple[int, ...], int]
    den: int = 1


def grlex_key(exponents: tuple) -> tuple:
    # graded lex: compare total degree first, then the exponent tuple itself
    return (sum(exponents), exponents)


def sorted_terms(p: Polynomial) -> list[tuple[tuple, int | Fraction]]:
    """(exponent, coefficient) pairs, graded lex descending, each
    coefficient over den (an int when den is 1)."""
    order = sorted(p.terms.items(), key=lambda term: grlex_key(term[0]), reverse=True)
    return order if p.den == 1 else [(e, Fraction(c, p.den)) for e, c in order]


def normalized(terms: dict) -> dict:
    """An integer term map over the gcd of its coefficients, with the
    graded-lex leading coefficient positive; the terms keep their order."""
    if not terms:
        return terms
    scale = gcd(*terms.values())
    if terms[max(terms, key=grlex_key)] < 0:
        scale = -scale
    return {e: c // scale for e, c in terms.items()}


def evaluate(p: Polynomial, values: Mapping[str, object]):
    """Value at a full assignment of the variables, summed in term order.
    Exact values give a Fraction; otherwise each term starts from the
    correctly rounded float c / den."""
    vals = [values[v] for v in p.variables]
    exact = all(isinstance(v, (int, Fraction)) for v in vals)
    total = 0 if exact else 0.0
    for expo, coeff in p.terms.items():
        term = coeff if exact else coeff / p.den
        for v, e in zip(vals, expo):
            if e:
                term = term * v ** e
        total = total + term
    return Fraction(total, p.den) if exact else total


def to_text(p: Polynomial) -> str:
    # printed smallest term first, so normalized polynomials read the way
    # low-degree identities are usually written (3*x2^2 - 4*x1*x3 + 1*x0*x4)
    text = ""
    for expo, coeff in reversed(sorted_terms(p)):
        mono = "*".join([f"{v}^{e}" if e > 1 else v for v, e in zip(p.variables, expo) if e])
        body = f"{abs(coeff)}*{mono}" if mono else str(abs(coeff))
        text += (f" {'-' if coeff < 0 else '+'} " if text else "-" if coeff < 0 else "") + body
    return text or "0"


def to_json(p: Polynomial) -> dict:
    return {
        "variables": list(p.variables),
        "terms": {",".join(map(str, expo)): str(coeff) for expo, coeff in sorted_terms(p)},
    }


def accumulate(acc: dict, terms, scale: int = 1) -> dict:
    """acc += scale * terms for a term map acc and a stream of (exponent,
    coefficient) pairs, in place; acc is returned.  The pairs are added in
    stream order: an exponent already in acc keeps its place, a new one is
    appended where it first appears, and the exponents whose sum is zero
    are dropped at the end."""
    if scale:
        get = acc.get
        for e, c in terms:
            acc[e] = get(e, 0) + scale * c
    if 0 in acc.values():
        for e in [e for e, c in acc.items() if not c]:
            del acc[e]
    return acc


def times(p: dict, q: dict) -> dict:
    """Product of two term maps: one `accumulate` over the products of each
    term of p, in order, with each term of q, in order."""
    return accumulate({}, [(tuple(map(add, ea, eb)), ca * cb)
                           for ea, ca in p.items() for eb, cb in q.items()])


def det_bareiss(matrix: list[list[dict]]) -> dict:
    """Exact determinant of a square matrix of term maps, as a term map.

    Entries are exponent -> coefficient maps in one set of variables ({}
    is zero).  The symbolic matrices the package takes determinants of are
    at most 4 x 4 (2 or 6 products for the Hankel minors, 24 for the
    cubic discriminant), so the expansion is Leibniz's sum over
    permutations, each product taken by `times` and all of them summed by
    one `accumulate`.  It is not an elimination: it keeps the name
    `det_bareiss` because the benchmark's tracer and its per-layer metrics
    (`multipoly.det_bareiss_calls`, `multipoly.det_bareiss_ms`) find it, in
    this module and where `hyperdet` and `binary_forms` import it, by that
    name.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    terms = []
    for perm in itertools.permutations(range(n)):
        entries = [row[j] for row, j in zip(matrix, perm)]
        if all(entries):
            sign = -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1
            terms += [(e, sign * c) for e, c in functools.reduce(times, entries).items()]
    return accumulate({}, terms)


class NotForms(ValueError):
    """Resultant input is not two nonzero forms in the given variables, at
    most three of them, one the eliminated variable."""


def resultant(p: dict, q: dict, var: str, variables: Sequence[str]) -> list[int]:
    """Resultant of two forms eliminating `var`, exact, as ascending ints.

    p and q are integer term maps (exponent vector -> int) in `variables`.
    With m, n their degrees in `var` and t_p, t_q their total degrees, the
    resultant is a form of degree D = (t_p - m) n + (t_q - n) m + m n in
    the remaining variables.  It comes back as D + 1 ints, entry j the
    coefficient of the terms of degree j in the first remaining variable:
    with two left, (x, y), of x^j y^(D - j); with one, only entry D can be
    nonzero; with none, the resultant is 0 unless D is 0.

    The kernel is the Cayley-Bezout form (Cox, Little and O'Shea, *Using
    Algebraic Geometry*, ch. 3).  With y set to 1 each coefficient of p and
    q in `var` is an integer polynomial in x; the form of lower degree is
    padded to k = max(m, n), and Res_{k,k} = (-1)^(k(k-1)/2) det(Bez) for
    the k x k Bezout matrix of (p(s) q(t) - p(t) q(s)) / (s - t), which is
    lc^(k - min(m, n)) Res_{m,n} for lc the leading coefficient of the
    form of higher degree.  No coefficient of det(Bez) over Z[x] exceeds
    B = prod_i sum_j |Bez_ij|_1: it is read off the integer determinant of
    Bez at x = 2^b > 2B (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, 8.4: Kronecker substitution).
    """
    degrees = [{sum(e) for e in f} for f in (p, q)]
    if var not in variables or len(variables) > 3 or any(len(d) != 1 for d in degrees):
        raise NotForms("resultant needs two nonzero forms in the same at most three variables")
    k = variables.index(var)
    rest = variables[:k] + variables[k + 1:]
    # the first remaining variable carries x when there are two; else all are 1
    x_at = variables.index(rest[0]) if len(rest) == 2 else None
    slices = []
    for f, (total,) in zip((p, q), degrees):
        # coefficient of var^i, as integer coefficients of x^0, x^1, ...
        coeffs = [[0] * (total + 1) for _ in range(max(e[k] for e in f) + 1)]
        for e, c in f.items():
            coeffs[e[k]][0 if x_at is None else e[x_at]] += c
        slices.append(([_trimmed(c) for c in coeffs], total))
    (cp, tp), (cq, tq) = slices
    m, n = len(cp) - 1, len(cq) - 1
    degree = (tp - m) * n + (tq - n) * m + m * n
    # Res_{m,n}(p, q) = (-1)^(mn) Res_{n,m}(q, p): put the higher degree first
    swaps = m * n if m < n else 0
    if m < n:
        cp, cq, m, n = cq, cp, n, m
    cq = cq + [[]] * (m - n)

    def bezout(f, g, sign):
        matrix = [[0] * m for _ in range(m)]
        for a in range(1, m + 1):
            for b in range(a):
                c = f[a] * g[b] + sign * f[b] * g[a]
                # (s^a t^b - s^b t^a) / (s - t) is the sum of s^(b+r) t^(a-1-r), r < a - b
                for r in range(a - b):
                    matrix[b + r][a - 1 - r] += c
        return matrix

    # B from Bez of the coefficients' L1 norms, + for -, each entry >= |Bez_ij|_1
    bits = prod(map(sum, bezout(*([sum(map(abs, c)) for c in f] for f in (cp, cq)), 1))).bit_length() + 1
    res = _balanced_digits(_det(bezout(*([_at_power_of_two(c, bits) for c in f] for f in (cp, cq)), -1)), bits)
    for _ in range(m - n):  # the padding factor lc^(m - n)
        res = _exact_div(res, cp[m])
    if (swaps + m * (m - 1) // 2) % 2:
        res = [-c for c in res]
    if x_at is None:
        res = [0] * degree + res
    return res + [0] * (degree + 1 - len(res))
