"""Univariate integer polynomials with exact Sturm-sequence real root isolation.

A polynomial is a list of integer coefficients, ascending by degree, and
trimmed (no trailing zero; [] is zero) where a function says so.
`real_roots` reads any exact coefficients (floats are read as their exact
binary rational value) and scales them to integers once.  Every gcd,
square-free part and Sturm chain comes from one primitive integer remainder
sequence, and the sign of f at a rational interval end comes from integer
Horner on the homogenized form: no root count or interval sign is ever
rounded, and each root is reported as the double nearest it, ties to even.
All Z[x] arithmetic of the package lives here: `_add`, `_sub`, `_mul`,
`_exact_div`, and Kronecker substitution into the integer `_det` and back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, nextafter
from typing import Sequence

from .exactsolve import InexactDivision, as_fraction, integer_row


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


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (1 when empty) by one Bareiss
    elimination; a pivot division leaving a remainder raises InexactDivision."""
    n = len(rows)
    work = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            lead = work[i][k]
            for j in range(k + 1, n):
                work[i][j], r = divmod(pivot * work[i][j] - lead * work[k][j], prev)
                if r:
                    raise InexactDivision("Bareiss division must be exact")
        prev = pivot
    return sign * work[-1][-1] if n else 1


def _at_power_of_two(p: list[int], k: int) -> int:
    """p(2^k): Kronecker substitution, by Horner in shifts."""
    return reduce(lambda value, c: (value << k) + c, reversed(p), 0)


def _balanced_digits(value: int, k: int) -> list[int]:
    """The trimmed ascending p, each p_j in [-2^(k-1), 2^(k-1)), with
    p(2^k) = value: `_at_power_of_two` undone on such p."""
    half, out = 1 << (k - 1), []
    while value:
        out.append(((value + half) & ((half << 1) - 1)) - half)
        value = (value - out[-1]) >> k
    return out


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
    """Disjoint half-open intervals (a, b], ascending, each holding exactly
    one root with f(a) != 0: Sturm counts split an interval while it holds
    several roots or its left end is a root."""
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, count_roots_halfopen(chain, lo, hi))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1 and _sign_at(chain[0], a):
            out.append((a, b))
            continue
        mid = (a + b) / 2
        left = count_roots_halfopen(chain, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, k - left))
    out.sort()
    return out


def _nearest_double(f: list[int], a: Fraction, b: Fraction) -> float:
    """The double nearest the one root of f in (a, b], ties to even, where
    f(a) != 0.  The root is in (a, mid] exactly when f(mid) = 0 or the sign
    of f(mid) differs from that of f(a); halving stops once a and b round
    to one double, which the root rounds to as well, since rounding is
    monotone.  Ends that round to adjacent doubles x < y are split once at
    the tie between them: the root is the tie, below it (and rounds to x)
    or above it (and rounds to y)."""
    if not _sign_at(f, b):
        return float(b)
    sign_a = _sign_at(f, a)
    while (x := float(a)) != (y := float(b)):
        if nextafter(x, y) == y:
            tie = (Fraction(x) + Fraction(y)) / 2
            sign = _sign_at(f, tie)
            return float(tie) if not sign else y if sign == sign_a else x
        mid = (a + b) / 2
        sign = _sign_at(f, mid)
        if not sign:
            return float(mid)
        if sign == sign_a:
            a = mid
        else:
            b = mid
    return x


def real_roots(p: Sequence, lo, hi) -> list[tuple[float, int]]:
    """All real roots in [lo, hi] of the polynomial with exact ascending
    coefficients p (ints, Fractions or floats), as (root, multiplicity),
    ascending.

    Root counts and isolation come from exact Sturm sequences, and each
    returned value is the double nearest its exact root, ties to even.
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
        for a, b in _isolate(sturm_chain(f), lo, hi):
            found.append((_nearest_double(f, a, b), mult))
    found.sort()
    return found
