"""Univariate exact polynomials: gcd, Sturm chains, certified real roots.

The root-finding oracle is numpy.roots on the same coefficients; Sturm
counts are checked against it and against the residual bound."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
from conftest import fraction_poly_gcd
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2.unipoly import (ISOLATION_WIDTH, UniPoly, _isolate, count_roots_halfopen, poly_gcd, real_roots,
                              squarefree_decomposition, sturm_chain)

int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(UniPoly)


def test_trailing_zeros_trimmed():
    assert UniPoly([1, 2, 0, 0]).degree == 1
    assert UniPoly([0, 0]).is_zero()


@settings(max_examples=50, deadline=None)
@given(int_polys, int_polys)
def test_divmod_identity(p, q):
    if q.is_zero():
        return
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


@settings(max_examples=50, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_gcd_divides_both_and_contains_common_factor(p, q, g):
    gp, gq = p * g, q * g
    if gp.is_zero() and gq.is_zero():
        return
    d = poly_gcd(gp, gq)
    # d divides both inputs (exact_div raises otherwise) ...
    if not gp.is_zero():
        gp.exact_div(d)
    if not gq.is_zero():
        gq.exact_div(d)
    # ... and the planted common factor divides d
    if not g.is_zero():
        d.exact_div(g.primitive())


rational_polys = st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=6),
                         min_size=0, max_size=6).map(UniPoly)


@settings(max_examples=200, deadline=None)
@given(rational_polys, rational_polys, rational_polys, st.booleans())
def test_gcd_equals_fraction_euclid_oracle(p, q, g, planted):
    """The integer remainder sequence gives the primitive gcd with positive
    leading coefficient that the Fraction Euclid gives, on pairs that include
    zero, constants and (when planted) a common factor g."""
    if planted:
        p, q = p * g, q * g
    assert poly_gcd(p, q) == fraction_poly_gcd(p, q)
    assert poly_gcd(q, p) == fraction_poly_gcd(p, q)


def test_gcd_of_zeros_and_constants():
    zero, three = UniPoly([]), UniPoly([Fraction(-3, 2)])
    line = UniPoly([Fraction(2, 3), -2])
    assert poly_gcd(zero, zero) == zero
    assert poly_gcd(zero, line) == poly_gcd(line, zero) == UniPoly([-1, 3])
    assert poly_gcd(three, line) == poly_gcd(zero, three) == UniPoly([1])


def test_gcd_of_shifted_products():
    p = UniPoly([-1, 1]) * UniPoly([-2, 1]) * UniPoly([3, 1])
    q = UniPoly([-2, 1]) * UniPoly([3, 1]) * UniPoly([5, 1])
    g = poly_gcd(p, q)
    assert g == (UniPoly([-2, 1]) * UniPoly([3, 1])).primitive()


def test_squarefree_decomposition_exponents():
    base1, base2 = UniPoly([-1, 1]), UniPoly([2, 1])
    p = base1 * base1 * base1 * base2
    parts = squarefree_decomposition(p)
    found = {mult: comp for comp, mult in parts if comp.degree > 0}
    assert found[3] == base1.primitive()
    assert found[1] == base2.primitive()


def test_sturm_count_on_known_roots():
    # (x-1)(x-2)(x+3) has exactly two roots in (0, 5]
    p = UniPoly([-1, 1]) * UniPoly([-2, 1]) * UniPoly([3, 1])
    chain = sturm_chain(p)
    assert count_roots_halfopen(chain, Fraction(0), Fraction(5)) == 2
    assert count_roots_halfopen(chain, Fraction(-4), Fraction(5)) == 3


def isolate_by_counts(chain, lo, hi):
    """Bisection that splits every interval by Sturm counts: the reference
    _isolate is tested against."""
    out = []
    stack = [(lo, hi, count_roots_halfopen(chain, lo, hi))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1 and b - a <= ISOLATION_WIDTH:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        left = count_roots_halfopen(chain, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, k - left))
    out.sort()
    return out


dyadic_roots = st.lists(st.tuples(st.integers(-12, 12), st.sampled_from([1, 2, 4, 8, 3])), max_size=4)


@settings(max_examples=60, deadline=None)
@given(dyadic_roots, st.lists(st.integers(-9, 9), max_size=5), st.integers(-6, 2), st.integers(1, 12))
def test_isolation_by_signs_gives_the_counted_intervals(roots, extra, lo, width):
    """On the squarefree factors of (den x - num) products times a random
    integer polynomial, _isolate returns the intervals of count-only
    bisection, also when an interval end or a midpoint is a root."""
    p = UniPoly(extra) if any(extra) else UniPoly([1])
    for num, den in roots:
        p = p * UniPoly([-num, den])
    lo, hi = Fraction(lo), Fraction(lo) + Fraction(width, 2)
    for factor, _mult in squarefree_decomposition(p):
        if factor.degree < 1:
            continue
        chain = sturm_chain(factor)
        assert _isolate(chain, lo, hi) == isolate_by_counts(chain, lo, hi)


@settings(max_examples=50, deadline=None)
@given(int_polys)
def test_real_roots_match_numpy_oracle(p):
    if p.is_zero() or p.degree < 1:
        return
    lo, hi = Fraction(-20), Fraction(20)
    np_roots = np.roots([float(c) for c in reversed(p.coeffs)])
    # restrict the oracle to clearly separated roots away from the endpoints
    if any(abs(a - b) < 1e-3 for i, a in enumerate(np_roots) for b in np_roots[i + 1:]):
        return
    real_np = sorted(r.real for r in np_roots
                     if abs(r.imag) < 1e-7 and float(lo) + 1e-3 < r.real < float(hi) - 1e-3)
    got = real_roots(p, lo, hi, tol=1e-12)
    assert sum(m for _, m in got) == len(real_np)
    for (r, m), r_np in zip(got, real_np):
        assert m == 1
        assert abs(r - r_np) < 1e-6


@settings(max_examples=50, deadline=None)
@given(int_polys)
def test_real_roots_count_consistent_with_sturm(p):
    if p.is_zero() or p.degree < 1:
        return
    lo, hi = Fraction(-20), Fraction(20)
    got = real_roots(p, lo, hi, tol=1e-12)
    distinct = 0
    for factor, _mult in squarefree_decomposition(p):
        if factor.degree < 1:
            continue
        distinct += count_roots_halfopen(sturm_chain(factor), lo, hi)
        if factor(lo) == 0:
            distinct += 1
    assert len(got) == distinct


@settings(max_examples=50, deadline=None)
@given(int_polys)
def test_real_roots_residual_bound(p):
    if p.is_zero() or p.degree < 1:
        return
    scale = 1.0 + max(abs(float(c)) for c in p.coeffs)
    for r, _mult in real_roots(p, Fraction(-50), Fraction(50), tol=1e-12):
        assert abs(p(float(r))) <= 1e-6 * scale * (1.0 + abs(r)) ** p.degree


def test_real_roots_multiplicity():
    base = UniPoly([Fraction(-1, 2), 1])
    p = base * base * UniPoly([-3, 1])
    roots = real_roots(p, Fraction(-5), Fraction(5), tol=1e-13)
    assert [(round(r, 9), m) for r, m in roots] == [(0.5, 2), (3.0, 1)]


def test_high_precision_root():
    # root of x^2 - 2 to 1e-13: matches sqrt(2)
    p = UniPoly([-2, 0, 1])
    roots = real_roots(p, Fraction(0), Fraction(2), tol=1e-13)
    assert len(roots) == 1
    assert abs(roots[0][0] - 2 ** 0.5) < 1e-12
