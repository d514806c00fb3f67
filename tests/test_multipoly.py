"""Exact multivariate polynomials: the printing, normal form and
evaluation functions, the term-map product and determinant, resultants,
and the ring arithmetic of the test oracle.  Oracles are conftest.Poly's
own text, JSON, normal form and evaluation for the printing functions,
independent evaluations at random rational points, cofactor expansion and
the fraction-free Bareiss elimination of conftest.Poly for determinants
and, for resultants, the Sylvester determinant over Poly entries."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from conftest import (NotDivisible, Poly, bareiss_det, coefficients_in, cofactor_det, int_form, reference_accumulate,
                      ring, sylvester_resultant)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realrank2 import binary_forms as bf
from realrank2 import hyperdet as hd
from realrank2 import multipoly as mp
from realrank2.exactsolve import as_fraction
from realrank2.multipoly import NotForms, Polynomial, det_bareiss, grlex_key, resultant, times
from realrank2.unipoly import _at_power_of_two, _balanced_digits, _det, _mul, _trimmed

VARS = ("x", "y", "z")

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(lambda t: Poly(VARS, t))


def rand_point(rng: random.Random) -> dict:
    return {v: Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for v in VARS}


def test_zero_coefficients_dropped():
    p = Poly(VARS, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert (1, 0, 0) not in p.terms
    assert p == Poly(VARS, {(0, 1, 0): 2})


def test_grlex_leading_term():
    p = Polynomial(VARS, {(2, 0, 0): 1, (1, 1, 1): 1, (0, 0, 2): 1})
    assert [e for e, _ in mp.sorted_terms(p)] == [(1, 1, 1), (2, 0, 0), (0, 0, 2)]
    assert grlex_key((2, 0, 0)) < grlex_key((1, 1, 1))


def test_to_text_ascending_golden():
    p = Polynomial(("x0", "x1", "x2", "x3", "x4"),
                   {(1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): -4, (0, 0, 2, 0, 0): 3})
    assert mp.to_text(p) == "3*x2^2 - 4*x1*x3 + 1*x0*x4"


def test_as_fraction_parses_ratio_strings():
    assert as_fraction("-3/4") == Fraction(-3, 4)
    assert as_fraction(2) == Fraction(2)


def test_as_fraction_reads_floats_exactly_and_rejects_a_non_number():
    assert as_fraction(0.1) == Fraction(3602879701896397, 36028797018963968)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError, match="cannot interpret"):
        as_fraction([1])


def test_times_keeps_first_appearance_order_and_drops_cancellations():
    # (x + y)(x - y) = x^2 - y^2: the xy terms cancel
    p = {(1, 0): 1, (0, 1): 1}
    q = {(1, 0): 1, (0, 1): -1}
    assert list(times(p, q).items()) == [((2, 0), 1), ((0, 2), -1)]
    assert times(p, {}) == {}


# few exponents and small coefficients, so streams repeat exponents and sums cancel
small_exponents = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
small_coeffs = st.integers(-3, 3).filter(bool)
small_maps = st.dictionaries(small_exponents, small_coeffs, max_size=4)


@settings(max_examples=300, deadline=None)
@given(small_maps, st.lists(st.tuples(small_exponents, small_coeffs), max_size=12), st.integers(-2, 2))
@example({}, [((1, 0), 1), ((1, 0), -1), ((1, 0), 2)], 1)  # a running sum passes through zero and leaves it
@example({(0, 1): 2}, [((0, 1), 1), ((1, 0), -1)], -2)  # an exponent of acc cancels
@example({(0, 1): 2}, [((1, 0), 5)], 0)
def test_accumulate_equals_the_reference_item_for_item(acc, terms, scale):
    expected = reference_accumulate(acc, terms, scale)
    assert mp.accumulate(acc, iter(terms), scale) is acc  # in place, one pass over the stream
    assert list(acc.items()) == list(expected.items())


def reference_times(p: dict, q: dict) -> dict:
    return reference_accumulate({}, [(tuple(a + b for a, b in zip(ea, eb)), ca * cb)
                                     for ea, ca in p.items() for eb, cb in q.items()])


@settings(max_examples=300, deadline=None)
@given(small_maps, small_maps)
def test_times_is_the_reference_sum_of_the_product_stream(p, q):
    assert list(times(p, q).items()) == list(reference_times(p, q).items())


def reference_leibniz(matrix: list[list[dict]]) -> dict:
    """Leibniz's sum over permutations in itertools order, each product of
    entries taken left to right, summed by the reference accumulator."""
    stream = []
    for perm in itertools.permutations(range(len(matrix))):
        entries = [row[j] for row, j in zip(matrix, perm)]
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        product = functools.reduce(reference_times, entries)
        stream += [(e, sign * c) for e, c in product.items()]
    return reference_accumulate({}, stream)


@pytest.mark.parametrize("d", range(3, 9))
def test_det_bareiss_sums_each_hankel_minor_in_leibniz_order(d):
    h = bf._symbolic_hankel(d)
    for size in (2, 3):
        for rows in itertools.combinations(range(3), size):
            for cols in itertools.combinations(range(d - 1), size):
                matrix = [[h[r][c] for c in cols] for r in rows]
                assert list(det_bareiss(matrix).items()) == list(reference_leibniz(matrix).items())


def test_cubic_discriminant_determinant_term_order_golden():
    assert list(hd.cubic_discriminant_determinant().terms.items()) == [
        ((2, 0, 0, 2), 1), ((1, 1, 1, 1), -6), ((1, 0, 3, 0), 4), ((0, 3, 0, 1), 4), ((0, 2, 2, 0), -3)]


# coordinate names as `tableaux.coordinate_name` writes them, with
# multi-digit multidegrees among them, and parameter names
NAMES = ("x0", "x12", "x220", "x1_10_0", "x0_11_1", "a1", "b2")
int_maps = st.dictionaries(st.lists(st.integers(0, 12), min_size=4, max_size=4).map(tuple),
                           st.integers(-10**6, 10**6).filter(bool), max_size=5)


@st.composite
def printed_polynomials(draw):
    """Integer term maps over 1..4 of NAMES with exponents up to 12: a
    product of two maps (so terms cancel, some down to the zero
    polynomial), or the zero map itself, over a den of 1 or more."""
    size = draw(st.integers(1, 4))
    variables = tuple(draw(st.permutations(NAMES))[:size])
    p, q = (draw(int_maps) for _ in range(2))
    lhs, rhs = ({e[:size]: c for e, c in f.items()} for f in (p, q))
    if draw(st.booleans()):  # (lhs)(lhs with every odd-degree term negated) cancels
        rhs = {e: c if sum(e) % 2 == 0 else -c for e, c in lhs.items()}
    terms = times(lhs, rhs) if draw(st.booleans()) else {}
    return Polynomial(variables, terms, draw(st.sampled_from([1, 1, 2, 6, 10**9 + 7])))


@settings(max_examples=300, deadline=None)
@given(printed_polynomials(), st.data())
def test_printing_normal_form_and_evaluation_equal_the_oracle(p, data):
    """to_text, to_json and evaluate of an integer term map over den equal
    the oracle Poly's, evaluation bit for bit on floats; normalized on the
    integer terms equals the oracle's normal form."""
    oracle = ring(p)
    assert mp.to_text(p) == oracle.to_text()
    assert mp.to_json(p) == oracle.to_json()
    assert ring(Polynomial(p.variables, mp.normalized(p.terms))) == ring(Polynomial(p.variables, p.terms)).normalized()
    exact = {v: data.draw(st.fractions(-5, 5, max_denominator=7)) for v in p.variables}
    assert mp.evaluate(p, exact) == oracle.evaluate(exact)
    floats = {v: data.draw(st.floats(-3, 3, allow_nan=False)) for v in p.variables}
    assert mp.evaluate(p, floats).hex() == oracle.evaluate(floats).hex()


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms_via_evaluation(p, q, r):
    rng = random.Random(7)
    pt = rand_point(rng)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert ((p + q) * r).evaluate(pt) == (p * r + q * r).evaluate(pt)
    assert (p - p).is_zero()
    assert Poly(VARS, times(p.terms, q.terms)) == p * q


@settings(max_examples=50, deadline=None)
@given(polys, polys)
def test_exact_div_recovers_factor(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def test_exact_div_raises_on_non_multiple():
    x = Poly.variable("x", VARS)
    y = Poly.variable("y", VARS)
    with pytest.raises(NotDivisible):
        (x * x + y).exact_div(x)


@pytest.mark.parametrize("op", [
    lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q, lambda p, q: p.exact_div(q)])
def test_arithmetic_across_variable_tuples_raises(op):
    p = Poly(VARS, {(1, 0, 0): 1})
    q = Poly(("x", "y"), {(1, 0): 1})
    with pytest.raises(ValueError, match="variables differ"):
        op(p, q)
    with pytest.raises(ValueError, match="variables differ"):
        op(p, p.extend(("z", "y", "x")))


def test_equality_needs_the_same_variable_tuple():
    p = Poly(VARS, {(1, 0, 0): 1})
    assert p != Poly(("z", "y", "x"), {(0, 0, 1): 1})
    assert p != Poly(("x", "y"), {(1, 0): 1})
    assert p == ring(Polynomial(VARS, {(1, 0, 0): 1})) == p


def test_coefficients_in_reassembles():
    p = Poly(VARS, {(2, 1, 0): Fraction(3), (0, 0, 2): Fraction(-1, 2), (1, 1, 1): 5})
    parts = coefficients_in(p, "y")
    y = Poly.variable("y", VARS)
    total = Poly.zero(VARS)
    power = Poly.constant(1, VARS)
    for part in parts:
        total = total + part.extend(VARS) * power
        power = power * y
    assert total == p


def test_content_and_normalized():
    p = Poly(VARS, {(1, 0, 0): Fraction(4, 3), (0, 1, 0): Fraction(-2, 3)})
    n = p.normalized()
    assert n.content() == 1
    assert n == Poly(VARS, {(1, 0, 0): 2, (0, 1, 0): -1})
    # a negative leading coefficient flips every sign
    m = Poly(VARS, {(1, 0, 0): Fraction(-4, 3), (0, 0, 0): Fraction(2, 3)}).normalized()
    assert m == Poly(VARS, {(1, 0, 0): 2, (0, 0, 0): -1})
    assert m.sorted_terms()[0][1] > 0
    assert Poly(VARS).normalized() == Poly(VARS)
    # the library's normal form of integer terms: gcd 4, leading term -8 x
    assert mp.normalized({(0, 1, 0): 4, (1, 0, 0): -8}) == {(0, 1, 0): -1, (1, 0, 0): 2}
    assert mp.normalized({}) == {}


def test_det_bareiss_matches_cofactor_expansion():
    """Term-map determinants of sizes 1..4, some entries zero, against the
    cofactor expansion and the oracle's Bareiss elimination in Poly
    arithmetic."""
    rng = random.Random(5)
    names = ("a", "b", "c", "d")
    for n in range(1, 5):
        for _ in range(12):
            mat = [[{tuple(rng.randint(0, 1) for _ in names): rng.randint(-4, 4)} if rng.random() < 0.8 else {}
                    for _ in range(n)] for _ in range(n)]
            mat = [[{e: c for e, c in entry.items() if c} for entry in row] for row in mat]
            entries = [[Poly(names, entry) for entry in row] for row in mat]
            det = ring(Polynomial(names, det_bareiss(mat)))
            assert det == cofactor_det(entries)
            assert det == bareiss_det(entries)
    with pytest.raises(ValueError):
        det_bareiss([])


@pytest.mark.parametrize("d", range(3, 13))
def test_det_bareiss_equals_the_oracle_on_every_symbolic_hankel_minor(d):
    names = [f"x{i}" for i in range(d + 1)]
    h = bf._symbolic_hankel(d)
    for size in (2, 3):
        for rows in itertools.combinations(range(3), size):
            for cols in itertools.combinations(range(d - 1), size):
                matrix = [[h[r][c] for c in cols] for r in rows]
                oracle = bareiss_det([[Poly(names, entry) for entry in row] for row in matrix])
                assert ring(Polynomial(names, det_bareiss(matrix))) == oracle


square_zx_matrices = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)), max_size=3),
             min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(square_zx_matrices, st.data())
def test_bareiss_over_zx_equals_cofactor_expansion(rows, data):
    """Entries are integer polynomials of degree up to 2 (constant ones
    cover integer matrices); some matrices are singular (a row a multiple of
    another, or a zero column) and some need a row swap.  The determinant
    over Z[x] is the integer Bareiss determinant at x = 2^b, read back as
    balanced base-2^b digits, once 2^b exceeds twice the product of the
    rows' summed L1 norms."""
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
    bits = prod(sum(sum(map(abs, x)) for x in row) for row in rows).bit_length() + 1
    values = [[_at_power_of_two(x, bits) for x in row] for row in rows]
    before = [list(row) for row in values]
    det = _balanced_digits(_det(values), bits)
    expected = cofactor_det([[Poly(("x",), {(i,): c for i, c in enumerate(x)}) for x in row] for row in rows])
    assert Poly(("x",), {(i,): c for i, c in enumerate(det)}) == expected
    assert det == _trimmed(det)
    assert values == before  # elimination works on copies


def poly_resultant(p: Poly, q: Poly, var: str) -> list[int]:
    """`resultant` of two integer Polys in the same variables."""
    (p_terms, names), (q_terms, q_names) = int_form(p), int_form(q)
    assert q_names == names
    return resultant(p_terms, q_terms, var, names)


@settings(max_examples=30, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_resultant_vanishes_iff_common_root(a, b, c, d):
    # p = (x - a y)(x - b y), q = (x - c y)(x - d y): res = 0 iff roots meet
    x = Poly.variable("x", ("x", "y"))
    y = Poly.variable("y", ("x", "y"))
    p = (x - a * y) * (x - b * y)
    q = (x - c * y) * (x - d * y)
    res = poly_resultant(p, q, "x")
    shares = {a, b} & {c, d}
    assert (not any(res)) == bool(shares)


def test_resultant_product_formula():
    # res_x(p, q) = lead^deg * prod q(root) for exact roots, on y^4
    x = Poly.variable("x", ("x", "y"))
    y = Poly.variable("y", ("x", "y"))
    p = (x - 2 * y) * (x + 3 * y)
    q = x * x - 5 * y * y
    assert poly_resultant(p, q, "x") == [0, 0, 0, 0, (4 - 5) * (9 - 5)]


def _as_list(res: Poly, degree: int) -> list[int]:
    """An oracle resultant in the layout of `resultant`: degree + 1 ints,
    entry j on the terms of degree j in the first remaining variable."""
    out = [0] * (degree + 1)
    for e, c in res.terms.items():
        assert c.denominator == 1
        out[e[0] if len(e) == 2 else degree if e else 0] = int(c)
    return out


@st.composite
def forms(draw, variables, degree, max_var_degree=None, values=coeffs):
    var_degree = degree if max_var_degree is None else min(degree, max_var_degree)
    monomials = [e for e in itertools.product(range(degree + 1), repeat=len(variables))
                 if sum(e) == degree and e[0] <= var_degree]
    terms = draw(st.dictionaries(st.sampled_from(monomials), values.filter(bool),
                                 min_size=1, max_size=len(monomials)))
    return Poly(variables, terms)


RESULTANT_CASES = ("generic", "vanishing_lead", "common_factor", "m0", "n0", "one_left", "none_left")


@pytest.mark.parametrize("case", RESULTANT_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resultant_matches_sylvester_oracle(case, data):
    """Forms of degree 1..7 in one and two variables and 1..5 in three,
    with rational coefficients scaled to integers by the lcm of their
    denominators: the result is the oracle's on the scaled forms."""
    # the eliminated variable comes first in `names`; it is rotated into place
    names = {"one_left": ("y", "z"), "none_left": ("z",)}.get(case, ("x", "y", "z"))
    extra = {"vanishing_lead": 2, "common_factor": 1}.get(case, 0)
    top = (7 if len(names) < 3 else 5) - extra
    deg_p, deg_q = data.draw(st.integers(1, top)), data.draw(st.integers(1, top))
    p = data.draw(forms(names, deg_p, 0 if case == "m0" else None))
    q = data.draw(forms(names, deg_q, 0 if case == "n0" else None))
    if case == "vanishing_lead":
        # the leading coefficient in the eliminated variable vanishes at x = 0
        p = p * Poly.variable(names[1], names) * Poly.variable(names[-1], names)
    if case == "common_factor":
        shared = (Poly.variable(names[0], names)
                  + data.draw(coeffs) * Poly.variable(names[-1], names))
        p, q = p * shared, q * shared
    shift = data.draw(st.integers(0, len(names) - 1))
    order = names[shift:] + names[:shift]
    p, q = p.extend(order), q.extend(order)
    p, q = (f * lcm(*(c.denominator for c in f.terms.values())) for f in (p, q))
    (m, tp), (n, tq) = ((max(e[order.index(names[0])] for e in f.terms), f.total_degree()) for f in (p, q))
    res = poly_resultant(p, q, names[0])
    assert res == _as_list(sylvester_resultant(p, q, names[0]), (tp - m) * n + (tq - n) * m + m * n)
    if case == "common_factor":
        assert not any(res)


LAYOUTS = {"two_left": ("x", "y", "z"), "one_left": ("y", "z"), "none_left": ("z",)}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("sign", [1, -1, 0])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resultant_with_80_bit_coefficients_matches_sylvester_oracle(layout, sign, data):
    """Integer coefficients up to 2^80 in absolute value, all of one sign
    (sign 1 or -1) or of both (0); q's degree n in the eliminated variable
    is capped at random, so m != n, which pads the Bezout matrix, is common."""
    names = LAYOUTS[layout]
    values = st.integers(-2 ** 80, 2 ** 80).map(lambda c: sign * abs(c) if sign else c)
    deg_p, deg_q = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 4))
    p = data.draw(forms(names, deg_p, values=values))
    cap = None if len(names) == 1 else data.draw(st.integers(0, deg_q))  # one variable: monomials only
    q = data.draw(forms(names, deg_q, cap, values=values))
    (m, tp), (n, tq) = ((max(e[0] for e in f.terms), f.total_degree()) for f in (p, q))
    res = poly_resultant(p, q, names[0])
    assert res == _as_list(sylvester_resultant(p, q, names[0]), (tp - m) * n + (tq - n) * m + m * n)


# in one variable two forms of positive degree share the root 0: n = 0 there
@pytest.mark.parametrize("layout, m, n", [(layout, m, n) for layout in LAYOUTS
                                          for m, n in [(1, 0), (3, 0), (3, 1), (4, 2), (2, 2)]
                                          if layout != "none_left" or not n])
@pytest.mark.parametrize("a, b", [(2 ** 80 - 1, 2 ** 80 - 3), (-(2 ** 80 - 1), 2 ** 80 - 3), (-3, -(2 ** 79))])
def test_resultant_where_the_determinant_meets_its_bound(layout, m, n, a, b):
    """Res(a v^m, b w^n) = (b w^n)^m for v the eliminated variable and w
    the last one.  The Bezout matrix, padded to m x m, is a b w^n on the
    antidiagonal, so det(Bez) = +-(a b)^m w^(mn): its one coefficient is
    the product of the rows' L1 norms, the largest any coefficient can be,
    and the padding factor a^m divides it out."""
    names = LAYOUTS[layout]
    v, w = Poly.variable(names[0], names), Poly.variable(names[-1], names)
    p, q = a * v ** m, b * w ** n
    # entry j is on w^j with one variable left, on the other one's with two
    expected = [b ** m] + [0] * (m * n) if layout == "two_left" else [0] * (m * n) + [b ** m]
    assert poly_resultant(p, q, names[0]) == expected
    assert poly_resultant(q, p, names[0]) == expected  # (-1)^(m * 0)


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
    p, q = forms(*(Poly.variable(v, VARS) for v in VARS))
    assert poly_resultant(p, q, "x") == expected


def test_resultant_with_nothing_left_is_a_constant():
    x = Poly.variable("x", ("x",))
    assert poly_resultant(3 * x, 2 * x ** 0, "x") == [2]
    assert poly_resultant(3 * x, 2 * x ** 2, "x") == [0, 0, 0]


@pytest.mark.parametrize("p, q, var", [
    (Polynomial(VARS, {(1, 0, 0): 1, (0, 0, 0): 1}), Polynomial(VARS, {(0, 1, 0): 1}), "x"),
    (Polynomial(VARS, {(1, 0, 0): 1}), Polynomial(VARS, {(0, 1, 1): 1, (0, 0, 1): 2}), "x"),
    (Polynomial(VARS, {(1, 0, 0): 1}), Polynomial(VARS, {}), "x"),
    (Polynomial(VARS, {}), Polynomial(VARS, {(1, 0, 0): 1}), "x"),
    (Polynomial(VARS, {(1, 0, 0): 1}), Polynomial(VARS, {(0, 1, 0): 1}), "w"),
    (Polynomial(("w",) + VARS, {(1, 0, 0, 0): 1}), Polynomial(("w",) + VARS, {(0, 1, 0, 0): 1}), "w"),
])
def test_resultant_rejects_non_forms(p, q, var):
    with pytest.raises(NotForms):
        resultant(p.terms, q.terms, var, p.variables)
