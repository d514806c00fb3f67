"""Two-row tableaux, hook-length counts, and the quadrics cutting the
tangential variety out of the secant variety."""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from conftest import Poly, coordinate_names, reference_accumulate, ring, substitute
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import multipoly as mp
from realrank2 import tableaux as tb
from realrank2.exactsolve import MODULAR_PRIME, Inconsistent
from realrank2.tensors import multidegrees

basis = functools.lru_cache(maxsize=None)(tb.quadric_basis)
preimage = functools.lru_cache(maxsize=None)(tb.preimage_quadric)

TABLE1 = {
    2: [1, 3, 6, 10, 15, 21, 28],
    3: [15, 60, 153, 315, 570, 945, 1470],
    4: [105, 540, 1711, 4270, 9190, 17850, 32130],
    5: [490, 3150, 12145, 36155, 91395, 205905, 425425],
}

# the parameter names a1..an, b1..bn of the target polynomials, by n
PARAMS = {n: tuple(f"a{i}" for i in range(1, n + 1)) + tuple(f"b{i}" for i in range(1, n + 1))
          for n in (2, 3)}


def poly_from_names(variables, name_terms) -> Poly:
    terms = {}
    for names, coeff in name_terms:
        key = [0] * len(variables)
        for name in names:
            key[variables.index(name)] += 1
        terms[tuple(key)] = coeff
    return Poly(variables, terms)


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
    assert ring(g.polynomial) == expected


def test_preimage_binary_quartic():
    t = tb.TwoRowTableau(2, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2))
    g = preimage(t)
    expected = poly_from_names(g.polynomial.variables,
                               [(("x0", "x4"), Fraction(1)), (("x1", "x3"), Fraction(-4)),
                                (("x2", "x2"), Fraction(3))])
    assert ring(g.polynomial) == expected


def test_preimage_ternary_quartics():
    t1 = tb.TwoRowTableau(3, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2))
    g1 = preimage(t1)
    expected1 = poly_from_names(g1.polynomial.variables,
                                [(("x400", "x040"), Fraction(1)), (("x310", "x130"), Fraction(-4)),
                                 (("x220", "x220"), Fraction(3))])
    assert ring(g1.polynomial) == expected1

    t2 = tb.TwoRowTableau(3, 4, 4, (1, 1, 1, 2), (2, 3, 3, 3))
    g2 = preimage(t2)
    expected2 = poly_from_names(g2.polynomial.variables,
                                [(("x310", "x013"), Fraction(1)), (("x301", "x022"), Fraction(-1)),
                                 (("x220", "x103"), Fraction(-1)), (("x211", "x112"), Fraction(-1)),
                                 (("x202", "x121"), Fraction(2))])
    assert ring(g2.polynomial) == expected2


def test_quintic_basis_golden():
    q0, q1, q2 = (ring(g.polynomial) for g in basis(2, 5))
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
    point = dict(zip(coordinate_names(n, d),
                     tb.secant_point(a, b, d)))
    params = dict(zip(PARAMS[n], a + b))
    target_value = mp.evaluate(mp.Polynomial(PARAMS[n], tb.target_polynomial(t)), params)
    assert mp.evaluate(g.polynomial, point) == target_value


# every (n, d) a `quadrics` or `ideal` request of the benchmark builds a basis for
BENCHMARK_SHAPES = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5)]


def substituted_pushforward(g: tb.QuadricGenerator) -> Poly:
    """The quadric with x_u -> a^u + b^u substituted in Poly arithmetic."""
    n = g.tableau.n
    zero = (0,) * n
    replacements = {name: Poly(PARAMS[n], {u + zero: 1, zero + u: 1})
                    for name, u in zip(g.polynomial.variables, multidegrees(n, g.tableau.d))}
    return substitute(ring(g.polynomial), replacements, PARAMS[n])


def index_pairs(g: tb.QuadricGenerator) -> dict[tuple[int, int], int]:
    """The generator's terms keyed by the index pair (i, j), i <= j, of x_i x_j."""
    return {tuple(i for i, e in enumerate(expo) for _ in range(e)): c for expo, c in g.polynomial.terms.items()}


@pytest.mark.parametrize("n, d", BENCHMARK_SHAPES)
def test_pushforward_equals_substitution_oracle(n, d):
    coords = multidegrees(n, d)
    for k in range(4, d + 1, 2):
        for t in tb.enumerate_tableaux(n, d, k):
            g = preimage(t)
            oracle = substituted_pushforward(g)
            assert tb.pushforward(index_pairs(g), coords) == oracle.terms
            assert oracle.terms == tb.target_polynomial(t)


def ring_sum_target(t: tb.TwoRowTableau) -> Poly:
    """The tableau's polynomial with its tail sum built by Poly additions."""
    n = t.n
    params = PARAMS[n]
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
            assert list(tb.target_polynomial(t).items()) == list(ring_sum_target(t).terms.items())


def counted_target(t: tb.TwoRowTableau) -> dict:
    """The tableau's polynomial with its tail sum counted over every index
    pick of itertools.combinations, in the order the picks first appear."""
    n = t.n
    poly = {(0,) * (2 * n): 1}
    for m, v in zip(t.mu, t.nu):
        am_bv, av_bm = [0] * (2 * n), [0] * (2 * n)
        am_bv[m - 1] += 1
        am_bv[n + v - 1] += 1
        av_bm[v - 1] += 1
        av_bm[n + m - 1] += 1
        poly = mp.times(poly, {tuple(am_bv): 1, tuple(av_bm): -1})
    tail = t.mu[t.k:]
    total = {}
    for picks, count in Counter(itertools.combinations(tail, t.d - t.k)).items():
        exps = [0] * (2 * n)
        for entry in tail:
            exps[n + entry - 1] += 1
        for entry in picks:
            exps[entry - 1] += 1
            exps[n + entry - 1] -= 1
        total[tuple(exps)] = count
    return mp.times(poly, total)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_target_polynomial_equals_the_counted_tail_item_for_item(n):
    for d in range(4, 9):
        for k in range(0, d + 1, 2):
            for t in tb.enumerate_tableaux(n, d, k):
                assert list(tb.target_polynomial(t).items()) == list(counted_target(t).items())


def test_degree_20_binary_basis_has_the_hook_length_count():
    # its tails have about 2 * 10^10 index picks: they are counted per distinct entry
    assert len(tb.quadric_basis(2, 20)) == sum(tb.hook_length_dim(2, 20, k) for k in range(4, 21, 2))


@pytest.mark.parametrize("n, d", BENCHMARK_SHAPES)
def test_pushforward_sums_the_four_images_in_order(n, d):
    coords = multidegrees(n, d)
    zero = (0,) * n
    for k in range(4, d + 1, 2):
        for t in tb.enumerate_tableaux(n, d, k):
            quadric = index_pairs(preimage(t))
            images = []
            for (i, j), c in quadric.items():
                u, v = coords[i], coords[j]
                uv = tuple(a + b for a, b in zip(u, v))
                images += [(uv + zero, c), (u + v, c), (v + u, c), (zero + uv, c)]
            assert list(tb.pushforward(quadric, coords).items()) == list(reference_accumulate({}, images).items())


def test_changed_target_coefficient_raises_inconsistent(monkeypatch):
    rng = random.Random(5)
    original = tb.target_polynomial
    for n, d in [(2, 4), (2, 5), (2, 6), (3, 4)]:
        for t in tb.enumerate_tableaux(n, d, 4):
            target = original(t)
            e = rng.choice(sorted(target))
            changed = {**target, e: target[e] + 1}
            monkeypatch.setattr(tb, "target_polynomial", lambda _t: changed)
            with pytest.raises(Inconsistent, match=f"pushforward mismatch for {t.label()}: "):
                tb.preimage_quadric(t)


def test_pushforward_mismatch_names_the_exponent_and_both_coefficients(monkeypatch):
    t = tb.TwoRowTableau(2, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2))
    target = tb.target_polynomial(t)
    # a term a^u b^v with u > v does not enter the preimage: only it differs
    e = max(e for e in target if e[:2] > e[2:])
    old = target[e]
    changed = {**target, e: old + 1}
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


def _exact_rank_calls(monkeypatch) -> list:
    calls = []
    exact_rank = tb.exact_rank
    monkeypatch.setattr(tb, "exact_rank", lambda rows: calls.append(len(rows)) or exact_rank(rows))
    return calls


def test_independence_is_certified_mod_p_without_the_exact_rank(monkeypatch):
    calls = _exact_rank_calls(monkeypatch)
    assert len(tb.quadric_basis(3, 5)) == 60
    assert len(tb.quadric_basis(2, 6)) == 6
    assert calls == []


def test_basis_stands_when_the_rank_mod_p_is_short(monkeypatch):
    # a short rank mod p proves nothing: the Bareiss rank decides, and it is full
    want = tb.quadric_basis(3, 4)
    calls = _exact_rank_calls(monkeypatch)
    monkeypatch.setattr(tb, "rank_mod_p", lambda rows: 0)
    assert tb.quadric_basis(3, 4) == want
    assert calls == [len(want)]


def test_rows_singular_mod_p_but_independent_over_q_fall_back(monkeypatch):
    # every coefficient times p: each row is 0 mod p, the rank over Q is full
    normalized = tb.normalized
    monkeypatch.setattr(tb, "normalized", lambda terms: {e: c * MODULAR_PRIME for e, c in normalized(terms).items()})
    calls = _exact_rank_calls(monkeypatch)
    basis = tb.quadric_basis(2, 6)
    assert calls == [len(basis)] == [6]
    assert all(c % MODULAR_PRIME == 0 for g in basis for c in g.polynomial.terms.values())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 5), (2, 6), (3, 4), (3, 5)]), st.integers(0, 10_000))
def test_basis_vanishes_at_tangential_points(nd, seed):
    n, d = nd
    rng = random.Random(seed)
    a = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    point = dict(zip(coordinate_names(n, d), tb.tangential_point(a, b, d)))
    for g in basis(n, d):
        assert mp.evaluate(g.polynomial, point) == 0


def test_k2_preimage_does_not_vanish_on_tangential_variety():
    for n, d in [(2, 5), (2, 6), (3, 4), (3, 5)]:
        t = tb.enumerate_tableaux(n, d, 2)[0]
        g = preimage(t, allow_k2=True)
        a = [Fraction(2 + i) for i in range(n)]
        b = [Fraction(1 - i) for i in range(n)]
        point = dict(zip(coordinate_names(n, d), tb.tangential_point(a, b, d)))
        assert mp.evaluate(g.polynomial, point) != 0


def test_basis_does_not_vanish_at_generic_secant_points():
    for n, d in [(2, 4), (2, 5)]:
        a = [Fraction(1), Fraction(2)][:n]
        b = [Fraction(3), Fraction(-1)][:n]
        point = dict(zip(coordinate_names(n, d), tb.secant_point(a, b, d)))
        values = [mp.evaluate(g.polynomial, point) for g in basis(n, d)]
        assert any(v != 0 for v in values)


def test_preimage_rejects_small_k_without_flag():
    t = tb.TwoRowTableau(2, 4, 2, (1, 1, 1, 1, 1, 1), (2, 2))
    with pytest.raises(tb.BadShape):
        preimage(t)


def test_quadric_basis_rejects_low_degree():
    with pytest.raises(tb.DegreeTooSmall):
        basis(2, 3)


@pytest.mark.parametrize("n, d, exceeds", [(4, 6, False), (2, 65, False), (2, 66, True), (3, 10, False),
                                            (3, 11, True), (4, 7, True), (2, 2 * tb.MAX_GENERATORS + 4, True)])
def test_quadric_count_is_held_to_the_generator_limit(monkeypatch, n, d, exceeds):
    """The count that refuses a basis is the hook-length sum, stopped once it
    passes the limit; a degree with more terms than the limit needs none.
    No tableau is enumerated here: an admitted basis comes back empty."""
    total = sum(tb.hook_length_dim(n, d, k) for k in range(4, d + 1, 2)) if d < 100 else math.inf
    assert (total > tb.MAX_GENERATORS) == exceeds
    monkeypatch.setattr(tb, "enumerate_tableaux", lambda n, d, k: [])
    if exceeds:
        with pytest.raises(tb.TooManyGenerators):
            tb.quadric_basis(n, d)
    else:
        assert tb.quadric_basis(n, d) == []


def test_coordinate_name_conventions():
    assert tb.coordinate_name((4, 0)) == "x0"
    assert tb.coordinate_name((0, 4)) == "x4"
    assert tb.coordinate_name((2, 2, 0)) == "x220"
    assert tb.coordinate_name((0, 11, 1)) == "x0_11_1"


@pytest.mark.parametrize("mu, nu, message", [
    ((1, 1, 1), (2, 2), "row lengths must be 2d-k and k"),
    ((0, 1, 1, 1), (2, 2), "entries must lie in 1..3"),
    ((1, 2, 1, 1), (2, 3), "mu must be weakly increasing"),
    ((1, 1, 1, 1), (3, 2), "nu must be weakly increasing"),
    ((2, 2, 2, 2), (2, 3), "columns must increase strictly"),
])
def test_two_row_tableau_rejects_each_malformed_filling(mu, nu, message):
    with pytest.raises(tb.BadShape, match=message):
        tb.TwoRowTableau(3, 3, 2, mu, nu)
