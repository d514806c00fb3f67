"""Univariate polynomials with exact Sturm-sequence real root isolation.

Coefficients are stored ascending by degree as Fractions.  Isolation runs in
exact arithmetic (floats are converted to their exact binary rational value),
so root counts and interval signs are never subject to rounding; only the
final refined root is reported as a double.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .exactsolve import as_fraction, content, integer_row

ISOLATION_WIDTH = Fraction(1, 2 ** 40)
MAX_REFINE_STEPS = 60


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        if isinstance(x, float):
            total = 0.0
            for c in reversed(self.coeffs):
                total = total * x + float(c)
            return total
        x = as_fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other):
        return self + UniPoly([-c for c in other.coeffs])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = as_fraction(other)
            return UniPoly([c * v for v in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return UniPoly([]), UniPoly(rem)
        quot = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] * inv_lead
            quot[k] = c
            if c:
                for j, d in enumerate(div):
                    rem[k + j] -= c * d
        return UniPoly(quot), UniPoly(rem[: len(div) - 1])

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact univariate division")
        return q

    def scaled_by_positive_content(self) -> "UniPoly":
        """Divide by the (positive) content; signs of all values preserved."""
        if self.is_zero():
            return self
        return self * (1 / content(self.coeffs))

    def primitive(self) -> "UniPoly":
        """Content-one version with positive leading coefficient."""
        if self.is_zero():
            return self
        out = self.scaled_by_positive_content()
        return -out if out.coeffs[-1] < 0 else out


def _primitive(ints: list[int]) -> list[int]:
    """The integers over their gcd, signs kept; [] stays []."""
    g = gcd(*ints)
    return [c // g for c in ints]


def _primitive_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b (ascending integers,
    nonzero leading b[-1]); [] when b divides a.  Each step scales the
    remainder by lc(b) / g and subtracts lc(r) / g times the shifted b,
    g = gcd(lc(r), lc(b)): a nonzero multiple of the remainder over Q."""
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


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """The primitive gcd with positive leading coefficient (zero for two
    zeros), by the primitive integer remainder sequence (Collins,
    "Subresultants and reduced polynomial remainder sequences", JACM 1967):
    both inputs are scaled to primitive integers and each pseudo-remainder
    is cut to its primitive part, so the sequence runs on small integers."""
    a, b = (_primitive(integer_row(f.coeffs)) for f in (p, q))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_remainder(a, b)
    return UniPoly([-c for c in a] if a and a[-1] < 0 else a)


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: [(f_i, i)] with p proportional to the product f_i^i."""
    p = p.primitive()
    if p.degree < 1:
        return []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    if a.degree == 0:
        return [(p, 1)]
    b = p.exact_div(a)
    c = dp.exact_div(a)
    out: list[tuple[UniPoly, int]] = []
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = b.primitive() if d.is_zero() else poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b.exact_div(g)
        c = UniPoly([]) if d.is_zero() else d.exact_div(g)
        i += 1
    return out


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm sequence of a squarefree p; positive rescaling only per element."""
    chain = [p.scaled_by_positive_content()]
    d = p.derivative()
    if d.is_zero():
        return chain
    chain.append(d.scaled_by_positive_content())
    while chain[-1].degree > 0:
        _, rem = chain[-2].divmod(chain[-1])
        if rem.is_zero():
            break
        chain.append((-rem).scaled_by_positive_content())
    return chain


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: list[UniPoly], x: Fraction) -> int:
    signs = [s for s in (_sign(f(x)) for f in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[UniPoly], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of the squarefree chain head."""
    return _variations(chain, lo) - _variations(chain, hi)


def _isolate(chain: list[UniPoly], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
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
        if k == 1 and (sign_a := _sign(f(a))):
            left = int(_sign(f(mid)) != sign_a)
        else:
            left = count_roots_halfopen(chain, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, k - left))
    out.sort()
    return out


def _refine(f: UniPoly, chain: list[UniPoly], a: Fraction, b: Fraction, tol: float) -> float:
    """Polish the single root of f inside (a, b]; exact signs guard Newton."""
    if f(b) == 0:
        return float(b)
    guard = 0
    while f(a) == 0:
        # rare: a coincides with a root outside this half-open interval
        mid = (a + b) / 2
        if f(mid) == 0:
            return float(mid)
        if count_roots_halfopen(chain, mid, b) == 1:
            a = mid
        else:
            b = mid
        guard += 1
        if guard > 200:
            return float((a + b) / 2)
    sign_a = _sign(f(a))
    scale = max(abs(c) for c in f.coeffs)
    fn = UniPoly([c / scale for c in f.coeffs])
    dfn = fn.derivative()
    x = float((a + b) / 2)
    for _ in range(MAX_REFINE_STEPS):
        val = fn(x)
        der = dfn(x)
        if der == 0.0:
            break
        step = val / der
        nxt = x - step
        if not (float(a) <= nxt <= float(b)):
            mid = (a + b) / 2
            v = f(mid)
            if v == 0:
                return float(mid)
            if _sign(v) == sign_a:
                a = mid
            else:
                b = mid
            x = float((a + b) / 2)
            continue
        x = nxt
        if abs(step) <= tol * max(1.0, abs(x)) / 16:
            break
    return x


def real_roots(p: UniPoly | Sequence, lo, hi, tol: float = 1e-12) -> list[tuple[float, int]]:
    """All real roots of p in [lo, hi] as (root, multiplicity), ascending.

    Root counts and isolation come from exact Sturm sequences; every returned
    value is within max(tol, isolation width) of the exact root.
    """
    if not isinstance(p, UniPoly):
        p = UniPoly(p)
    if p.is_zero():
        raise ValueError("zero polynomial has every point as a root")
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if p.degree == 0:
        return []
    found: list[tuple[float, int]] = []
    for factor, mult in squarefree_decomposition(p):
        if factor.degree < 1:
            continue
        f = factor
        if f(lo) == 0:
            found.append((float(lo), mult))
            f = f.exact_div(UniPoly([-lo, 1]))
        if hi != lo and not f.is_zero() and f.degree > 0 and f(hi) == 0:
            found.append((float(hi), mult))
            f = f.exact_div(UniPoly([-hi, 1]))
        if f.degree < 1:
            continue
        chain = sturm_chain(f)
        for a, b in _isolate(chain, lo, hi):
            found.append((_refine(f, chain, a, b, tol), mult))
    found.sort()
    return found
