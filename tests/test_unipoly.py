"""Univariate integer polynomials: gcd, Sturm chains, certified real roots.

The references are the Fraction arithmetic of conftest (Euclid's gcd, the
Sturm chain, Musser's square-free factors) and numpy.roots on the same
coefficients; Sturm counts are checked against it and against the residual
bound."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (fraction_divmod, fraction_mul, fraction_poly_gcd, fraction_primitive, fraction_squarefree,
                      fraction_sturm_chain, fraction_trim)
from hypothesis import given, settings
from hypothesis import strategies as st

import realrank2
from realrank2.exactsolve import InexactDivision, content
from realrank2.unipoly import (ISOLATION_WIDTH, _exact_div, _isolate, count_roots_halfopen, poly_gcd, real_roots,
                              squarefree_decomposition, sturm_chain)


def ints(p) -> list[int]:
    """Trimmed integer coefficients of a list whose values are integers."""
    return [int(c) for c in fraction_trim(p)]


def product(*factors) -> list[int]:
    out = [1]
    for f in factors:
        out = fraction_mul(out, f)
    return ints(out)


def value_at(p, x: Fraction) -> Fraction:
    return sum((c * x ** i for i, c in enumerate(p)), Fraction(0))


int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(ints)


def test_trailing_zeros_trimmed():
    assert poly_gcd([1, 2, 0, 0], [0, 0]) == [1, 2]
    assert poly_gcd([0, 0], [0]) == []
    assert real_roots([-1, 2, 0, 0], 0, 1) == [(0.5, 1)]


@settings(max_examples=50, deadline=None)
@given(int_polys, int_polys)
def test_exact_division_recovers_the_cofactor(p, q):
    """p q / q is p for a primitive q; p q + 1 is no multiple of a
    nonconstant q, and dividing it raises."""
    q = ints(fraction_primitive(q))
    if not q:
        return
    pq = product(p, q)
    assert _exact_div(pq, q) == p
    if len(q) > 1:
        with pytest.raises(InexactDivision):
            _exact_div([pq[0] + 1] + pq[1:] if pq else [1], q)


@settings(max_examples=50, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_gcd_divides_both_and_contains_common_factor(p, q, g):
    gp, gq = product(p, g), product(q, g)
    if not gp and not gq:
        return
    d = poly_gcd(gp, gq)
    # d divides both inputs (_exact_div raises otherwise) ...
    _exact_div(gp, d)
    _exact_div(gq, d)
    # ... and the planted common factor divides d
    if g:
        _exact_div(d, ints(fraction_primitive(g)))


raw_int_polys = st.lists(st.integers(-12, 12), min_size=0, max_size=6)


@settings(max_examples=200, deadline=None)
@given(raw_int_polys, raw_int_polys, raw_int_polys, st.booleans())
def test_gcd_equals_fraction_euclid_oracle(p, q, g, planted):
    """The integer remainder sequence gives the primitive gcd with positive
    leading coefficient that the Fraction Euclid gives, on pairs that include
    zero, constants, trailing zeros and (when planted) a common factor g."""
    if planted:
        p, q = product(p, g), product(q, g)
    assert poly_gcd(p, q) == fraction_poly_gcd(p, q)
    assert poly_gcd(q, p) == fraction_poly_gcd(p, q)


def test_gcd_of_zeros_and_constants():
    assert poly_gcd([], []) == []
    assert poly_gcd([], [2, -6]) == poly_gcd([2, -6], []) == [-1, 3]
    assert poly_gcd([-3], [2, -6]) == poly_gcd([], [-3]) == [1]


def test_gcd_of_shifted_products():
    p = product([-1, 1], [-2, 1], [3, 1])
    q = product([-2, 1], [3, 1], [5, 1])
    assert poly_gcd(p, q) == product([-2, 1], [3, 1])


def test_squarefree_decomposition_exponents():
    base1, base2 = [-1, 1], [2, 1]
    parts = squarefree_decomposition(product(base1, base1, base1, base2))
    assert parts == [(base2, 1), (base1, 3)]


planted_factors = st.lists(st.tuples(int_polys, st.integers(1, 3)), max_size=3)


def planted_product(extra, factors) -> list[int]:
    return product(extra or [1], *[f for f, mult in factors for _ in range(mult) if f])


@settings(max_examples=100, deadline=None)
@given(int_polys, planted_factors)
def test_squarefree_decomposition_equals_musser_oracle(extra, factors):
    """Yun's algorithm on integers returns the primitive factors and the
    multiplicities of the Fraction gcd-chain algorithm, on products with
    planted repeated factors."""
    p = planted_product(extra, factors)
    assert squarefree_decomposition(p) == fraction_squarefree(p)


@settings(max_examples=100, deadline=None)
@given(int_polys, planted_factors)
def test_sturm_chain_equals_fraction_oracle_over_content(extra, factors):
    """Every element of the integer chain is the Fraction chain's element
    divided by its positive content: the same signs everywhere."""
    p = planted_product(extra, factors)
    for f in [p] + [factor for factor, _mult in squarefree_decomposition(p)]:
        oracle = fraction_sturm_chain(f)
        assert sturm_chain(f) == [[c / content(e) for c in e] for e in oracle]


def test_sturm_count_on_known_roots():
    # (x-1)(x-2)(x+3) has exactly two roots in (0, 5]
    chain = sturm_chain(product([-1, 1], [-2, 1], [3, 1]))
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
    p = product(extra if any(extra) else [1], *[[-num, den] for num, den in roots])
    lo, hi = Fraction(lo), Fraction(lo) + Fraction(width, 2)
    for factor, _mult in squarefree_decomposition(p):
        chain = sturm_chain(factor)
        assert _isolate(chain, lo, hi) == isolate_by_counts(chain, lo, hi)


@st.composite
def planted_roots(draw):
    """An interval [lo, hi] and rational roots with multiplicities: at lo, at
    hi, at dyadic points of the bisection, anywhere, and outside."""
    lo = Fraction(draw(st.integers(-20, 20)), draw(st.sampled_from([1, 3, 7])))
    hi = lo + Fraction(draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 5])))
    dyadic = [lo + (hi - lo) * Fraction(k, 2 ** j) for j in range(1, 5) for k in range(1, 2 ** j, 2)]
    anywhere = st.fractions(int(lo) - 4, int(hi) + 4, max_denominator=12)
    where = st.one_of(st.sampled_from([lo, hi] + dyadic), anywhere)
    roots = draw(st.lists(st.tuples(where, st.integers(1, 3)), min_size=1, max_size=4))
    return lo, hi, roots


@settings(max_examples=100, deadline=None)
@given(planted_roots(), int_polys)
def test_real_roots_find_every_planted_root_with_its_multiplicity(case, extra):
    lo, hi, roots = case
    p = product(extra or [1], *[[-r.numerator, r.denominator] for r, mult in roots for _ in range(mult)])
    found = real_roots(p, lo, hi, tol=1e-12)
    assert all(float(lo) <= x <= float(hi) for x, _mult in found)
    for r in {r for r, _mult in roots if lo <= r <= hi}:
        mult, rest = 0, [Fraction(c) for c in p]
        while not value_at(rest, r):
            rest, mult = fraction_divmod(rest, [-r, 1])[0], mult + 1
        x, got = min(found, key=lambda root: abs(root[0] - r))
        assert got == mult
        if r in (lo, hi):
            assert x == float(r)
        else:
            assert abs(x - r) <= ISOLATION_WIDTH + 1e-12 * max(1, abs(r))


@settings(max_examples=50, deadline=None)
@given(int_polys, st.integers(-20, 0), st.integers(1, 20))
def test_real_roots_read_ints_fractions_and_floats_alike(p, lo, hi):
    """One polynomial given as ints, as Fractions (also scaled by 1/3) and
    as exactly representable floats (also scaled by 1/8) has the same
    roots, to the bit."""
    if len(p) < 2:
        return
    want = real_roots(p, lo, hi)
    for same in ([Fraction(c) for c in p], [Fraction(c, 3) for c in p], [float(c) for c in p], [c / 8 for c in p]):
        assert real_roots(same, Fraction(lo), float(hi)) == want


@settings(max_examples=50, deadline=None)
@given(int_polys)
def test_real_roots_match_numpy_oracle(p):
    if len(p) < 2:
        return
    lo, hi = Fraction(-20), Fraction(20)
    np_roots = np.roots([float(c) for c in reversed(p)])
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
    if len(p) < 2:
        return
    lo, hi = Fraction(-20), Fraction(20)
    got = real_roots(p, lo, hi, tol=1e-12)
    distinct = 0
    for factor, _mult in squarefree_decomposition(p):
        distinct += count_roots_halfopen(sturm_chain(factor), lo, hi)
        if value_at(factor, lo) == 0:
            distinct += 1
    assert len(got) == distinct


@settings(max_examples=50, deadline=None)
@given(int_polys)
def test_real_roots_residual_bound(p):
    if len(p) < 2:
        return
    scale = 1.0 + max(abs(float(c)) for c in p)
    for r, _mult in real_roots(p, Fraction(-50), Fraction(50), tol=1e-12):
        value = sum(c * r ** i for i, c in enumerate(p))
        assert abs(value) <= 1e-6 * scale * (1.0 + abs(r)) ** (len(p) - 1)


def test_real_roots_multiplicity():
    base = [Fraction(-1, 2), 1]
    p = fraction_mul(fraction_mul(base, base), [-3, 1])
    roots = real_roots(p, Fraction(-5), Fraction(5), tol=1e-13)
    assert [(round(r, 9), m) for r, m in roots] == [(0.5, 2), (3.0, 1)]


def test_high_precision_root():
    # root of x^2 - 2 to 1e-13: matches sqrt(2)
    roots = real_roots([-2, 0, 1], Fraction(0), Fraction(2), tol=1e-13)
    assert len(roots) == 1
    assert abs(roots[0][0] - 2 ** 0.5) < 1e-12


def test_exact_division_raises_on_a_non_divisor_under_optimize():
    # x^2 + 1 by x + 1 leaves the remainder 2; x + 1 by 2x + 1 stops at the
    # first quotient coefficient, 1/2; the integer Bareiss elimination of
    # diag(3, 1, 1/2) leaves 3/2 at its first step, no integer multiple of
    # its divisor 1; all must raise with asserts stripped
    code = "\n".join([
        "from fractions import Fraction",
        "from realrank2.exactsolve import InexactDivision",
        "from realrank2.unipoly import _det, _exact_div",
        "assert False, 'asserts must be off'",
        "for call in (lambda: _exact_div([1, 0, 1], [1, 1]), lambda: _exact_div([1, 1], [1, 2]),",
        "             lambda: _det([[3, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])):",
        "    try:",
        "        call()",
        "    except InexactDivision as exc:",
        "        print(type(exc).__mro__[1].__name__)",
    ])
    src = str(Path(realrank2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ArithmeticError"] * 3


def test_real_roots_reject_the_zero_polynomial_and_an_empty_interval():
    with pytest.raises(ValueError, match="zero polynomial"):
        real_roots([0, 0], 0, 1)
    with pytest.raises(ValueError, match="empty interval"):
        real_roots([1, 1], 1, 0)


def test_exact_division_leaves_no_remainder_unseen():
    with pytest.raises(InexactDivision):
        _exact_div([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2


def test_refine_steps_off_a_left_end_that_is_another_root():
    # (2x - 1)(Dx - N) has roots 1/2 and N/D = 1/2 + 2^-42: bisection of
    # [0, 1] isolates N/D in an interval whose left end is the root 1/2
    n, d = 2 ** 41 + 1, 2 ** 42
    assert real_roots([n, -(d + 2 * n), 2 * d], 0, 1) == [(0.5, 1), (0.5 + 2.0 ** -42, 1)]
