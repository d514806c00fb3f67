"""Univariate integer polynomials with exact Sturm-sequence real root isolation.

A polynomial is a list of integer coefficients, ascending by degree, and
trimmed (no trailing zero; [] is zero) where a function says so.
`real_roots` reads any exact coefficients (floats are read as their exact
binary rational value) and scales them to integers once.  Every gcd,
square-free part and Sturm chain comes from one primitive integer remainder
sequence, and the sign of f at a rational interval end comes from integer
Horner on the homogenized form, so root counts and interval signs are never
subject to rounding; only the final refined root is reported as a double.
All Z[x] arithmetic of the package lives here: `_add`, `_sub`, `_mul`,
`_exact_div` and the Bareiss determinant `_det`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import Sequence

from .exactsolve import InexactDivision, as_fraction, integer_row

ISOLATION_WIDTH = Fraction(1, 2 ** 40)
MAX_REFINE_STEPS = 60


def _trimmed(coeffs: Sequence[int]) -> list[int]:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(ints: list[int]) -> list[int]:
    """The integers over their gcd, signs kept; [] stays []."""
    g = gcd(*ints)
    return [c // g for c in ints]


def _positive(p: list[int]) -> list[int]:
    """p, negated when its leading coefficient is negative."""
    return [-c for c in p] if p and p[-1] < 0 else p


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


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a over the rationals: by Gauss's
    lemma the quotient has integer coefficients.  Raises InexactDivision
    when b does not divide a."""
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + len(b) - 1], lead)
        if r:
            raise InexactDivision("univariate division must be exact")
        quot[k] = c
        if c:
            for j, d in enumerate(b):
                rem[k + j] -= c * d
    if any(rem[:len(b) - 1]):
        raise InexactDivision("univariate division must be exact")
    return quot


def _det(rows: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[x] (entries trimmed ascending
    integer lists), by one Bareiss elimination: each update divides by the
    previous pivot with `_exact_div`, which raises InexactDivision on a
    remainder; [1] when empty, [] when zero."""
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


def _primitive_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a positive multiple of the remainder of a by b
    (trimmed ascending integers, b nonzero); [] when b divides a.  Each step
    scales the remainder by |lc(b)| / g and subtracts sign(lc(b)) lc(r) / g
    times the shifted b, g = gcd(lc(r), lc(b)): a positive factor times the
    step of long division over Q, so the signs of a Sturm chain survive."""
    if b[-1] < 0:
        b = [-c for c in b]
    r = a
    lead = b[-1]
    while len(r) >= len(b):
        g = gcd(r[-1], lead)
        x, y = lead // g, r[-1] // g
        shift = len(r) - len(b)
        r = [x * c for c in r[:shift]] + [x * c - y * d for c, d in zip(r[shift:], b)]
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def poly_gcd(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The primitive gcd of two integer polynomials (ascending, trailing
    zeros allowed) with positive leading coefficient, [] for two zeros, by
    the primitive integer remainder sequence (Collins, "Subresultants and
    reduced polynomial remainder sequences", JACM 1967): each
    pseudo-remainder is cut to its primitive part, so the sequence runs on
    small integers."""
    a, b = _primitive(_trimmed(p)), _primitive(_trimmed(q))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_remainder(a, b)
    return _positive(a)


def squarefree_decomposition(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a trimmed integer polynomial: [(f_i, i)] with p
    proportional to the product f_i^i, each f_i primitive with positive
    leading coefficient."""
    p = _positive(_primitive(p))
    if len(p) < 2:
        return []
    dp = _derivative(p)
    a = poly_gcd(p, dp)
    if len(a) == 1:
        return [(p, 1)]
    b = _exact_div(p, a)
    c = _exact_div(dp, a)
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        g = poly_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b = _exact_div(b, g)
        c = _exact_div(d, g)
        i += 1
    return out


def sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm sequence of a trimmed squarefree p, each element cut to its
    primitive part by a positive factor."""
    chain = [_primitive(p)]
    d = _derivative(p)
    if not d:
        return chain
    chain.append(_primitive(d))
    while len(chain[-1]) > 1:
        rem = _primitive_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_at(f: list[int], x: Fraction) -> int:
    """Sign of f(x) for nonzero f: with x = n/d, d > 0, the sign of
    d^deg f(x), the homogenized sum of f_i n^i d^(deg - i)."""
    n, d = x.numerator, x.denominator
    total, power = f[-1], 1
    for c in f[-2::-1]:
        power *= d
        total = total * n + c * power
    return (total > 0) - (total < 0)


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(f, x) for f in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of the squarefree chain head."""
    return _variations(chain, lo) - _variations(chain, hi)


def _isolate(chain: list[list[int]], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open intervals (a, b], each holding exactly one root.

    Sturm counts split an interval while it holds several roots or f(a) = 0.
    Once (a, b] holds one simple root and f(a) != 0, the root is in
    (a, mid] exactly when f(mid) = 0 or the sign of f(mid) differs from that
    of f(a): the same halves, from two values of f instead of two chains.
    """
    f = chain[0]
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, count_roots_halfopen(chain, lo, hi))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1 and b - a <= ISOLATION_WIDTH:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if k == 1 and (sign_a := _sign_at(f, a)):
            left = int(_sign_at(f, mid) != sign_a)
        else:
            left = count_roots_halfopen(chain, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, k - left))
    out.sort()
    return out


def _horner(coeffs: list[float], x: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _refine(f: list[int], chain: list[list[int]], a: Fraction, b: Fraction, tol: float) -> float:
    """Polish the single root of f inside (a, b]; exact signs guard Newton."""
    if _sign_at(f, b) == 0:
        return float(b)
    guard = 0
    while _sign_at(f, a) == 0:
        # rare: a coincides with a root outside this half-open interval
        mid = (a + b) / 2
        if _sign_at(f, mid) == 0:
            return float(mid)
        if count_roots_halfopen(chain, mid, b) == 1:
            a = mid
        else:
            b = mid
        guard += 1
        if guard > 200:
            return float((a + b) / 2)
    sign_a = _sign_at(f, a)
    # each int / int rounds the exact ratio once, as float(Fraction) would
    scale = max(abs(c) for c in f)
    fn = [c / scale for c in f]
    dfn = [(i * c) / scale for i, c in enumerate(f)][1:]
    x = float((a + b) / 2)
    for _ in range(MAX_REFINE_STEPS):
        val = _horner(fn, x)
        der = _horner(dfn, x)
        if der == 0.0:
            break
        step = val / der
        nxt = x - step
        if not (float(a) <= nxt <= float(b)):
            mid = (a + b) / 2
            v = _sign_at(f, mid)
            if v == 0:
                return float(mid)
            if v == sign_a:
                a = mid
            else:
                b = mid
            x = float((a + b) / 2)
            continue
        x = nxt
        if abs(step) <= tol * max(1.0, abs(x)) / 16:
            break
    return x


def real_roots(p: Sequence, lo, hi, tol: float = 1e-12) -> list[tuple[float, int]]:
    """All real roots in [lo, hi] of the polynomial with exact ascending
    coefficients p (ints, Fractions or floats), as (root, multiplicity),
    ascending.

    Root counts and isolation come from exact Sturm sequences; every returned
    value is within max(tol, isolation width) of the exact root.
    """
    p = _trimmed(integer_row(p))
    if not p:
        raise ValueError("zero polynomial has every point as a root")
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    found: list[tuple[float, int]] = []
    for f, mult in squarefree_decomposition(p):
        if _sign_at(f, lo) == 0:
            found.append((float(lo), mult))
            f = _exact_div(f, [-lo.numerator, lo.denominator])
        if hi != lo and len(f) > 1 and _sign_at(f, hi) == 0:
            found.append((float(hi), mult))
            f = _exact_div(f, [-hi.numerator, hi.denominator])
        if len(f) < 2:
            continue
        chain = sturm_chain(f)
        for a, b in _isolate(chain, lo, hi):
            found.append((_refine(f, chain, a, b, tol), mult))
    found.sort()
    return found
