"""Two-row tableaux, hook-length counts, and the quadrics cutting the
tangential variety out of the secant variety."""

from __future__ import annotations

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from conftest import Poly, substitute
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import tableaux as tb
from realrank2.exactsolve import Inconsistent
from realrank2.multipoly import MultiPoly
from realrank2.tensors import multidegrees

basis = functools.lru_cache(maxsize=None)(tb.quadric_basis)
preimage = functools.lru_cache(maxsize=None)(tb.preimage_quadric)

TABLE1 = {
    2: [1, 3, 6, 10, 15, 21, 28],
    3: [15, 60, 153, 315, 570, 945, 1470],
    4: [105, 540, 1711, 4270, 9190, 17850, 32130],
    5: [490, 3150, 12145, 36155, 91395, 205905, 425425],
}


def poly_from_names(variables, name_terms) -> MultiPoly:
    terms = {}
    for names, coeff in name_terms:
        key = [0] * len(variables)
        for name in names:
            key[variables.index(name)] += 1
        terms[tuple(key)] = coeff
    return MultiPoly(variables, terms)


def test_enumeration_matches_hook_length_formula():
    for n in (2, 3, 4):
        for d in range(4, 9):
            for k in range(0, d + 1, 2):
                assert len(tb.enumerate_tableaux(n, d, k)) == tb.hook_length_dim(n, d, k)


def test_table_of_quadric_space_dimensions():
    for n, row in TABLE1.items():
        got = [sum(tb.hook_length_dim(n, d, k) for k in range(4, d + 1, 2))
               for d in range(4, 11)]
        assert got == row


def test_basis_size_matches_table():
    for (n, d) in [(2, 4), (2, 5), (2, 6), (3, 4)]:
        assert len(basis(n, d)) == TABLE1[n][d - 4]


def test_preimage_binary_conic():
    t = tb.TwoRowTableau(2, 2, 2, (1, 1), (2, 2))
    g = preimage(t, allow_k2=True)
    expected = poly_from_names(g.polynomial.variables,
                               [(("x0", "x2"), Fraction(1)), (("x1", "x1"), Fraction(-1))])
    assert g.polynomial == expected


def test_preimage_binary_quartic():
    t = tb.TwoRowTableau(2, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2))
    g = preimage(t)
    expected = poly_from_names(g.polynomial.variables,
                               [(("x0", "x4"), Fraction(1)), (("x1", "x3"), Fraction(-4)),
                                (("x2", "x2"), Fraction(3))])
    assert g.polynomial == expected


def test_preimage_ternary_quartics():
    t1 = tb.TwoRowTableau(3, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2))
    g1 = preimage(t1)
    expected1 = poly_from_names(g1.polynomial.variables,
                                [(("x400", "x040"), Fraction(1)), (("x310", "x130"), Fraction(-4)),
                                 (("x220", "x220"), Fraction(3))])
    assert g1.polynomial == expected1

    t2 = tb.TwoRowTableau(3, 4, 4, (1, 1, 1, 2), (2, 3, 3, 3))
    g2 = preimage(t2)
    expected2 = poly_from_names(g2.polynomial.variables,
                                [(("x310", "x013"), Fraction(1)), (("x301", "x022"), Fraction(-1)),
                                 (("x220", "x103"), Fraction(-1)), (("x211", "x112"), Fraction(-1)),
                                 (("x202", "x121"), Fraction(2))])
    assert g2.polynomial == expected2


def test_quintic_basis_golden():
    q0, q1, q2 = (g.polynomial for g in basis(2, 5))
    variables = q0.variables
    assert q0 == poly_from_names(variables, [(("x2", "x2"), Fraction(3)), (("x1", "x3"), Fraction(-4)),
                                             (("x0", "x4"), Fraction(1))])
    assert q1 == poly_from_names(variables, [(("x2", "x3"), Fraction(2)), (("x1", "x4"), Fraction(-3)),
                                             (("x0", "x5"), Fraction(1))])
    assert q2 == poly_from_names(variables, [(("x3", "x3"), Fraction(3)), (("x2", "x4"), Fraction(-4)),
                                             (("x1", "x5"), Fraction(1))])


def test_quartic_basis_is_single_quadric():
    gens = basis(2, 4)
    assert len(gens) == 1
    assert gens[0].tableau.label() == "f_1111_2222"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 4), (2, 5), (3, 4)]), st.integers(0, 10_000))
def test_pushforward_reproduces_target(nd, seed):
    n, d = nd
    rng = random.Random(seed)
    tableaux = [t for k in range(4, d + 1, 2) for t in tb.enumerate_tableaux(n, d, k)]
    t = tableaux[rng.randrange(len(tableaux))]
    g = preimage(t)
    a = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    point = dict(zip(tb.coordinate_variables(n, d),
                     tb.secant_point(a, b, d)))
    target_value = tb.target_polynomial(t).evaluate(
        {f"a{i + 1}": v for i, v in enumerate(a)} | {f"b{i + 1}": v for i, v in enumerate(b)})
    assert g.polynomial.evaluate(point) == target_value


# every (n, d) a `quadrics` or `ideal` request of the benchmark builds a basis for
BENCHMARK_SHAPES = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5)]


def substituted_pushforward(g: tb.QuadricGenerator) -> Poly:
    """The quadric with x_u -> a^u + b^u substituted in Poly arithmetic."""
    n = g.tableau.n
    params = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    zero = (0,) * n
    replacements = {name: MultiPoly(params, {u + zero: 1, zero + u: 1})
                    for name, u in zip(g.polynomial.variables, multidegrees(n, g.tableau.d))}
    return substitute(g.polynomial, replacements, params)


@pytest.mark.parametrize("n, d", BENCHMARK_SHAPES)
def test_pushforward_equals_substitution_oracle(n, d):
    for k in range(4, d + 1, 2):
        for t in tb.enumerate_tableaux(n, d, k):
            g = preimage(t)
            oracle = substituted_pushforward(g)
            assert tb.pushforward(g.polynomial, n, d) == oracle.terms
            assert oracle.terms == tb.target_polynomial(t).terms


def ring_sum_target(t: tb.TwoRowTableau) -> Poly:
    """The tableau's polynomial with its tail sum built by Poly additions."""
    n = t.n
    params = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    poly = Poly.constant(1, params)
    for m, v in zip(t.mu, t.nu):
        am_bv, av_bm = [0] * (2 * n), [0] * (2 * n)
        am_bv[m - 1] += 1
        am_bv[n + v - 1] += 1
        av_bm[v - 1] += 1
        av_bm[n + m - 1] += 1
        poly = poly * Poly(params, {tuple(am_bv): 1, tuple(av_bm): -1})
    tail = t.mu[t.k:]
    total = Poly.zero(params)
    for picks in itertools.combinations(range(len(tail)), t.d - t.k):
        exps = [0] * (2 * n)
        for j, entry in enumerate(tail):
            exps[entry - 1 + (0 if j in picks else n)] += 1
        total = total + Poly.monomial(params, exps)
    return poly * total


@pytest.mark.parametrize("n, d", BENCHMARK_SHAPES)
def test_target_polynomial_equals_the_ring_sum_term_for_term(n, d):
    # the same terms in the same order: the order feeds the printed generators
    for k in range(0, d + 1, 2):
        for t in tb.enumerate_tableaux(n, d, k):
            assert list(tb.target_polynomial(t).terms.items()) == list(ring_sum_target(t).terms.items())


def test_changed_target_coefficient_raises_inconsistent(monkeypatch):
    rng = random.Random(5)
    original = tb.target_polynomial
    for n, d in [(2, 4), (2, 5), (2, 6), (3, 4)]:
        for t in tb.enumerate_tableaux(n, d, 4):
            target = original(t)
            e = rng.choice(sorted(target.terms))
            changed = MultiPoly(target.variables, {**target.terms, e: target.terms[e] + 1})
            monkeypatch.setattr(tb, "target_polynomial", lambda _t: changed)
            with pytest.raises(Inconsistent, match=f"pushforward mismatch for {t.label()}: "):
                tb.preimage_quadric(t)


def test_pushforward_mismatch_names_the_exponent_and_both_coefficients(monkeypatch):
    t = tb.TwoRowTableau(2, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2))
    target = tb.target_polynomial(t)
    # a term a^u b^v with u > v does not enter the preimage: only it differs
    e = max(e for e in target.terms if e[:2] > e[2:])
    old = target.terms[e]
    changed = MultiPoly(target.variables, {**target.terms, e: old + 1})
    monkeypatch.setattr(tb, "target_polynomial", lambda _t: changed)
    message = f"pushforward mismatch for f_1111_2222: exponent {e} pushes to {old}, target has {old + 1}"
    with pytest.raises(Inconsistent, match=f"^{re.escape(message)}$"):
        tb.preimage_quadric(t)


def test_dependent_basis_names_rank_and_generator_count(monkeypatch):
    original = tb.enumerate_tableaux
    monkeypatch.setattr(tb, "enumerate_tableaux", lambda n, d, k: original(n, d, k) * 2)
    message = "quadric basis for (n=2, d=5) is linearly dependent: rank 3 of 6 generators"
    with pytest.raises(Inconsistent, match=f"^{re.escape(message)}$"):
        tb.quadric_basis(2, 5)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 5), (2, 6), (3, 4), (3, 5)]), st.integers(0, 10_000))
def test_basis_vanishes_at_tangential_points(nd, seed):
    n, d = nd
    rng = random.Random(seed)
    a = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    point = dict(zip(tb.coordinate_variables(n, d), tb.tangential_point(a, b, d)))
    for g in basis(n, d):
        assert g.polynomial.evaluate(point) == 0


def test_k2_preimage_does_not_vanish_on_tangential_variety():
    for n, d in [(2, 5), (2, 6), (3, 4), (3, 5)]:
        t = tb.enumerate_tableaux(n, d, 2)[0]
        g = preimage(t, allow_k2=True)
        a = [Fraction(2 + i) for i in range(n)]
        b = [Fraction(1 - i) for i in range(n)]
        point = dict(zip(tb.coordinate_variables(n, d), tb.tangential_point(a, b, d)))
        assert g.polynomial.evaluate(point) != 0


def test_basis_does_not_vanish_at_generic_secant_points():
    for n, d in [(2, 4), (2, 5)]:
        a = [Fraction(1), Fraction(2)][:n]
        b = [Fraction(3), Fraction(-1)][:n]
        point = dict(zip(tb.coordinate_variables(n, d), tb.secant_point(a, b, d)))
        values = [g.polynomial.evaluate(point) for g in basis(n, d)]
        assert any(v != 0 for v in values)


def test_preimage_rejects_small_k_without_flag():
    t = tb.TwoRowTableau(2, 4, 2, (1, 1, 1, 1, 1, 1), (2, 2))
    with pytest.raises(tb.BadShape):
        preimage(t)


def test_quadric_basis_rejects_low_degree():
    with pytest.raises(tb.DegreeTooSmall):
        basis(2, 3)


def test_coordinate_name_conventions():
    assert tb.coordinate_name((4, 0)) == "x0"
    assert tb.coordinate_name((0, 4)) == "x4"
    assert tb.coordinate_name((2, 2, 0)) == "x220"
    assert tb.coordinate_name((0, 11, 1)) == "x0_11_1"
