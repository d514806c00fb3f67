"""Exact multivariate polynomial ring: arithmetic, division, determinants,
resultants.  Oracles are independent evaluations at random rational points,
cofactor expansion for determinants and, for resultants, the Sylvester
determinant over MultiPoly entries."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import coefficients_in, cofactor_det, sylvester_resultant
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2.multipoly import (MultiPoly, NotDivisible, NotForms, _det, _mul, as_fraction, det_bareiss,
                                  grlex_key, resultant)
from realrank2.unipoly import _trimmed

VARS = ("x", "y", "z")

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(lambda t: MultiPoly(VARS, t))


def rand_point(rng: random.Random) -> dict:
    return {v: Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for v in VARS}


def test_zero_coefficients_dropped():
    p = MultiPoly(VARS, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert (1, 0, 0) not in p.terms
    assert p == MultiPoly(VARS, {(0, 1, 0): 2})


def test_grlex_leading_term():
    p = MultiPoly(VARS, {(2, 0, 0): 1, (1, 1, 1): 1, (0, 0, 2): 1})
    assert p.leading_term()[0] == (1, 1, 1)
    assert grlex_key((2, 0, 0)) < grlex_key((1, 1, 1))


def test_to_text_ascending_golden():
    p = MultiPoly(("x0", "x1", "x2", "x3", "x4"),
                  {(1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): -4, (0, 0, 2, 0, 0): 3})
    assert p.to_text() == "3*x2^2 - 4*x1*x3 + 1*x0*x4"


def test_as_fraction_parses_ratio_strings():
    assert as_fraction("-3/4") == Fraction(-3, 4)
    assert as_fraction(2) == Fraction(2)


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms_via_evaluation(p, q, r):
    rng = random.Random(7)
    pt = rand_point(rng)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert ((p + q) * r).evaluate(pt) == (p * r + q * r).evaluate(pt)
    assert (p - p).is_zero()


@settings(max_examples=50, deadline=None)
@given(polys, polys)
def test_exact_div_recovers_factor(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def test_exact_div_raises_on_non_multiple():
    x = MultiPoly.variable("x", VARS)
    y = MultiPoly.variable("y", VARS)
    with pytest.raises(NotDivisible):
        (x * x + y).exact_div(x)


@pytest.mark.parametrize("op", [
    lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q, lambda p, q: p.exact_div(q)])
def test_arithmetic_across_variable_tuples_raises(op):
    p = MultiPoly(VARS, {(1, 0, 0): 1})
    q = MultiPoly(("x", "y"), {(1, 0): 1})
    with pytest.raises(ValueError, match="variables differ"):
        op(p, q)
    with pytest.raises(ValueError, match="variables differ"):
        op(p, p.extend(("z", "y", "x")))


def test_equality_needs_the_same_variable_tuple():
    p = MultiPoly(VARS, {(1, 0, 0): 1})
    assert p != p.extend(("z", "y", "x"))
    assert p != MultiPoly(("x", "y"), {(1, 0): 1})
    assert p == p.extend(VARS)


def test_coefficients_in_reassembles():
    rng = random.Random(3)
    p = MultiPoly(VARS, {(2, 1, 0): Fraction(3), (0, 0, 2): Fraction(-1, 2), (1, 1, 1): 5})
    parts = coefficients_in(p, "y")
    y = MultiPoly.variable("y", VARS)
    total = MultiPoly.zero(VARS)
    power = MultiPoly.constant(1, VARS)
    for part in parts:
        total = total + part.extend(VARS) * power
        power = power * y
    assert total == p


def test_content_and_normalized():
    p = MultiPoly(VARS, {(1, 0, 0): Fraction(4, 3), (0, 1, 0): Fraction(-2, 3)})
    n = p.normalized()
    assert n.content() == 1
    assert n.leading_term()[1] > 0
    assert n == MultiPoly(VARS, {(1, 0, 0): 2, (0, 1, 0): -1})


def test_det_bareiss_matches_cofactor_expansion():
    rng = random.Random(5)
    names = ("a", "b", "c", "d")
    mat = [[MultiPoly(names, {tuple(rng.randint(0, 1) for _ in names): Fraction(rng.randint(-4, 4))})
            for _ in range(3)] for _ in range(3)]
    det = det_bareiss(mat)
    cof = (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
           - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
           + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))
    assert det == cof


square_zx_matrices = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)), max_size=3),
             min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(square_zx_matrices, st.data())
def test_bareiss_over_zx_equals_cofactor_expansion(rows, data):
    """Entries are integer polynomials of degree up to 2 (constant ones
    cover integer matrices); some matrices are singular (a row a multiple of
    another, or a zero column) and some need a row swap."""
    n = len(rows)
    if n >= 2 and data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = data.draw(st.lists(st.integers(-3, 3), max_size=2))
        rows[i] = [_mul(factor, x) for x in rows[j]]
    if n >= 1 and data.draw(st.booleans()):
        k = data.draw(st.integers(0, n - 1))
        for row in rows:
            row[k] = []
    if n >= 2 and data.draw(st.booleans()):
        rows[0][0] = []
    rows = [[_trimmed(x) for x in row] for row in rows]
    before = [list(row) for row in rows]
    det = _det(rows)
    expected = cofactor_det([[MultiPoly(("x",), {(i,): c for i, c in enumerate(x)}) for x in row] for row in rows])
    assert MultiPoly(("x",), {(i,): c for i, c in enumerate(det)}) == expected
    assert det == _trimmed(det)
    assert rows == before  # elimination works on copies


@settings(max_examples=30, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_resultant_vanishes_iff_common_root(a, b, c, d):
    # p = (x - a y)(x - b y), q = (x - c y)(x - d y): res = 0 iff roots meet
    x = MultiPoly.variable("x", ("x", "y"))
    y = MultiPoly.variable("y", ("x", "y"))
    p = (x - a * y) * (x - b * y)
    q = (x - c * y) * (x - d * y)
    res = resultant(p, q, "x")
    shares = {a, b} & {c, d}
    assert (not any(res)) == bool(shares)


def test_resultant_product_formula():
    # res_x(p, q) = lead^deg * prod q(root) for exact roots, on y^4
    x = MultiPoly.variable("x", ("x", "y"))
    y = MultiPoly.variable("y", ("x", "y"))
    p = (x - 2 * y) * (x + 3 * y)
    q = x * x - 5 * y * y
    assert resultant(p, q, "x") == [0, 0, 0, 0, (4 - 5) * (9 - 5)]


def _as_list(res: MultiPoly, degree: int) -> list[int]:
    """An oracle resultant in the layout of `resultant`: degree + 1 ints,
    entry j on the terms of degree j in the first remaining variable."""
    out = [0] * (degree + 1)
    for e, c in res.terms.items():
        assert c.denominator == 1
        out[e[0] if len(e) == 2 else degree if e else 0] = int(c)
    return out


@st.composite
def forms(draw, variables, degree, max_var_degree=None):
    var_degree = degree if max_var_degree is None else min(degree, max_var_degree)
    monomials = [e for e in itertools.product(range(degree + 1), repeat=len(variables))
                 if sum(e) == degree and e[0] <= var_degree]
    terms = draw(st.dictionaries(st.sampled_from(monomials), coeffs.filter(bool),
                                 min_size=1, max_size=len(monomials)))
    return MultiPoly(variables, terms)


RESULTANT_CASES = ("generic", "vanishing_lead", "common_factor", "m0", "n0", "one_left", "none_left")


@pytest.mark.parametrize("case", RESULTANT_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resultant_matches_sylvester_oracle(case, data):
    """Forms of degree 1..7 in one and two variables and 1..5 in three,
    with rational coefficients: the result is the oracle's on the forms
    scaled to integers."""
    # the eliminated variable comes first in `names`; it is rotated into place
    names = {"one_left": ("y", "z"), "none_left": ("z",)}.get(case, ("x", "y", "z"))
    extra = {"vanishing_lead": 2, "common_factor": 1}.get(case, 0)
    top = (7 if len(names) < 3 else 5) - extra
    deg_p, deg_q = data.draw(st.integers(1, top)), data.draw(st.integers(1, top))
    p = data.draw(forms(names, deg_p, 0 if case == "m0" else None))
    q = data.draw(forms(names, deg_q, 0 if case == "n0" else None))
    if case == "vanishing_lead":
        # the leading coefficient in the eliminated variable vanishes at x = 0
        p = p * MultiPoly.variable(names[1], names) * MultiPoly.variable(names[-1], names)
    if case == "common_factor":
        shared = (MultiPoly.variable(names[0], names)
                  + data.draw(coeffs) * MultiPoly.variable(names[-1], names))
        p, q = p * shared, q * shared
    shift = data.draw(st.integers(0, len(names) - 1))
    order = names[shift:] + names[:shift]
    p, q = p.extend(order), q.extend(order)
    lp, lq = (lcm(*(c.denominator for c in f.terms.values())) for f in (p, q))
    (m, tp), (n, tq) = ((max(e[order.index(names[0])] for e in f.terms), f.total_degree()) for f in (p, q))
    res = resultant(p, q, names[0])
    assert res == _as_list(sylvester_resultant(p * lp, q * lq, names[0]), (tp - m) * n + (tq - n) * m + m * n)
    if case == "common_factor":
        assert not any(res)


@pytest.mark.parametrize("forms, expected", [
    # m = 2 > n = 1: p(y) = y^2 - y z, the root of q is x = y
    (lambda x, y, z: (x ** 2 - y * z, x - y), [0, -1, 1]),
    # m = 1 < n = 3 and back: (-1)^(mn) swaps the sign
    (lambda x, y, z: (x - y, x ** 3 - y * z ** 2), [0, -1, 0, 1]),
    (lambda x, y, z: (x ** 3 - y * z ** 2, x - y), [0, 1, 0, -1]),
    # k = 1: det [[2, 3y], [5, -z]] = -15 y - 2 z
    (lambda x, y, z: (2 * x + 3 * y, 5 * x - z), [-2, -15]),
    # the common factor x - y: zero, of degree 4
    (lambda x, y, z: ((x - y) * (x + z), (x - y) * (2 * x - 3 * z)), [0, 0, 0, 0, 0]),
    # m = 0: Res(3, q) = 3^2, a constant
    (lambda x, y, z: (3 * x ** 0, x ** 2 + y ** 2 + z ** 2), [9]),
])
def test_resultant_examples(forms, expected):
    p, q = forms(*(MultiPoly.variable(v, VARS) for v in VARS))
    assert resultant(p, q, "x") == expected


def test_resultant_with_nothing_left_is_a_constant():
    x = MultiPoly.variable("x", ("x",))
    # 1/2 is cleared to 1 first: Res(3x, 1) = 1
    assert resultant(3 * x, Fraction(1, 2) * x ** 0, "x") == [1]
    assert resultant(3 * x, 2 * x ** 2, "x") == [0, 0, 0]


@pytest.mark.parametrize("p, q, var", [
    (MultiPoly(VARS, {(1, 0, 0): 1, (0, 0, 0): 1}), MultiPoly(VARS, {(0, 1, 0): 1}), "x"),
    (MultiPoly(VARS, {(1, 0, 0): 1}), MultiPoly(VARS, {(0, 1, 1): 1, (0, 0, 1): 2}), "x"),
    (MultiPoly(VARS, {(1, 0, 0): 1}), MultiPoly.zero(VARS), "x"),
    (MultiPoly(VARS, {(1, 0, 0): 1}), MultiPoly(("x", "y"), {(0, 1): 1}), "x"),
    (MultiPoly(VARS, {(1, 0, 0): 1}), MultiPoly(VARS, {(0, 1, 0): 1}), "w"),
    (MultiPoly(("w",) + VARS, {(1, 0, 0, 0): 1}), MultiPoly(("w",) + VARS, {(0, 1, 0, 0): 1}), "w"),
])
def test_resultant_rejects_non_forms(p, q, var):
    with pytest.raises(NotForms):
        resultant(p, q, var)
