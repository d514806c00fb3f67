"""Secant-line classification along rational space curves."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (Poly, coefficients_in, elimination_variable, fraction_on_curve, fraction_trim,
                      random_combination, ring, secant_system, substitute)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import realrank2
from realrank2 import hyperdet as hd
from realrank2 import space_curve as sc
from realrank2.exactsolve import content
from realrank2.multipoly import Polynomial, evaluate
from realrank2.tensors import NonFiniteEntry
from realrank2.unipoly import real_roots

QUARTIC = sc.MONOMIAL_QUARTIC
TWISTED_CUBIC = sc.CurveParam(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

T_STARS = (0.41616468475415957221, 0.50734775284175190900,
           0.64786245578375696533, 0.81105706603104911043)


def poly(terms) -> Poly:
    return Poly(sc.PAIR_VARS, {e: Fraction(c) for e, c in terms.items()})


def test_plucker_map_goldens_for_monomial_quartic():
    pm = dict(zip(sc.INDEX_PAIRS, map(ring, sc.plucker_map(QUARTIC).polys)))
    assert pm[0, 1] == poly({(3, 0, 0): 1})
    assert pm[0, 2] == poly({(1, 2, 0): 1, (2, 0, 1): -1})
    assert pm[0, 3] == poly({(0, 3, 0): 1, (1, 1, 1): -2})
    assert pm[1, 2] == poly({(1, 1, 1): 1})
    assert pm[1, 3] == poly({(0, 2, 1): 1, (1, 0, 2): -1})
    assert pm[2, 3] == poly({(0, 0, 3): 1})


def test_plucker_relation_holds_identically():
    for curve in (QUARTIC, TWISTED_CUBIC):
        p01, p02, p03, p12, p13, p23 = map(ring, sc.plucker_map(curve).polys)
        assert (p01 * p23 - p02 * p13 + p03 * p12).is_zero()


def ring_plucker_polys(curve: sc.CurveParam) -> list[Poly]:
    """The six coordinates by the H recurrence in Poly arithmetic, on the
    curve's Fraction rows, terms in _degree_exponents(d - 1) order."""
    d, F = curve.d, curve.F
    a, b, c = (Poly.variable(v, sc.PAIR_VARS) for v in sc.PAIR_VARS)
    H = [Poly.constant(1, sc.PAIR_VARS), b]
    for _ in range(2, d):
        H.append(b * H[-1] - a * c * H[-2])
    order = sc._degree_exponents(d - 1)
    polys = []
    for i, j in sc.INDEX_PAIRS:
        line = sum((a ** (d - l) * c ** k * H[l - k - 1] * (F[i][k] * F[j][l] - F[i][l] * F[j][k])
                    for l in range(d + 1) for k in range(l)), Poly.zero(sc.PAIR_VARS))
        polys.append(Poly(sc.PAIR_VARS, {e: line.terms[e] for e in order if e in line.terms}))
    return polys


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
def test_plucker_table_equals_the_ring_build(d):
    """The integer table over den is the ring build term for term and in
    order, and den is the common denominator of its coefficients, on
    random curves with Fraction and with integer rows."""
    rng = random.Random(80 + d)
    curves = [_random_curve(rng, d) for _ in range(4)]
    curves.append(sc.CurveParam(d, [[c * 6 for c in row] for row in curves[0].F]))
    if d == 4:
        curves.append(QUARTIC)
    for curve in curves:
        pm = sc.plucker_map(curve)
        oracle = ring_plucker_polys(curve)
        assert [[(e, Fraction(c, pm.den)) for e, c in p.terms.items()] for p in pm.polys] == [
            list(p.terms.items()) for p in oracle]
        assert pm.den == content([c for p in oracle for c in p.terms.values()]).denominator
        assert tuple(map(ring, pm.polys)) == tuple(oracle)


def _monomial_quartic_table() -> list[dict]:
    return [dict(p.terms) for p in sc.plucker_map(QUARTIC).polys]


def _plucker_map(table) -> sc.PluckerMap:
    return sc.PluckerMap(tuple(Polynomial(sc.PAIR_VARS, terms) for terms in table))


def test_plucker_map_refuses_coordinates_off_the_line_relation():
    table = _monomial_quartic_table()
    table[5] = {(0, 0, 3): 2}  # p01 p23 - p02 p13 + p03 p12 = a^3 c^3 != 0
    with pytest.raises(sc.RewriteFailed, match="line relation"):
        _plucker_map(table)
    table = _monomial_quartic_table()
    table[1], table[2] = table[2], table[1]
    with pytest.raises(sc.RewriteFailed, match="line relation"):
        _plucker_map(table)


def test_plucker_map_refuses_five_coordinates():
    with pytest.raises(sc.RewriteFailed, match="six coordinates"):
        _plucker_map(_monomial_quartic_table()[:5])


def test_plucker_map_refuses_coordinates_over_different_denominators():
    polys = list(sc.plucker_map(QUARTIC).polys)
    polys[5] = polys[5]._replace(den=2)
    with pytest.raises(sc.RewriteFailed, match="one denominator"):
        sc.PluckerMap(tuple(polys))


def test_plucker_map_refuses_off_relation_coordinates_under_optimize():
    # the line-relation and count checks are `if ... raise`: both must
    # raise with asserts stripped
    code = "\n".join([
        "from realrank2 import space_curve as sc",
        "assert False, 'asserts must be off'",
        "polys = list(sc.plucker_map(sc.MONOMIAL_QUARTIC).polys)",
        "polys[5] = polys[5]._replace(terms={(0, 0, 3): 2})",
        "for rows in (polys, polys[:5]):",
        "    try:",
        "        sc.PluckerMap(tuple(rows))",
        "    except sc.RewriteFailed as exc:",
        "        print(exc)",
    ])
    src = str(Path(realrank2.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["line coordinates must satisfy the quadratic line relation",
                                        "a line in 3-space has six coordinates"]


def test_plucker_map_matches_two_point_span():
    pm = sc.plucker_map(QUARTIC)
    s1, t1, s2, t2 = Fraction(2), Fraction(1), Fraction(-1), Fraction(3)
    abc = (s1 * s2, s1 * t2 + s2 * t1, t1 * t2)
    line = pm.evaluate(abc)
    p = QUARTIC.point(s1, t1)
    q = QUARTIC.point(s2, t2)
    den = s1 * t2 - s2 * t1
    direct = [(p[i] * q[j] - q[i] * p[j]) / den for i, j in sc.INDEX_PAIRS]
    assert line == direct


def _random_curve(rng: random.Random, d: int) -> sc.CurveParam:
    while True:
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d + 1)]
                for _ in range(4)]
        try:
            return sc.CurveParam(d, rows)
        except sc.BadCurve:
            continue


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_plucker_map_of_random_curves_is_the_divided_exterior_product(d):
    """pm(s1 s2, s1 t2 + s2 t1, t1 t2) is p ^ q / (s1 t2 - s2 t1) for the
    curve points p, q at (s1 : t1), (s2 : t2), with each coordinate's terms
    in _degree_exponents(d - 1) order (float evaluation sums in that order)."""
    rng = random.Random(d)
    order = sc._degree_exponents(d - 1)
    for _ in range(3):
        curve = _random_curve(rng, d)
        pm = sc.plucker_map(curve)
        for coord in pm.polys:
            assert list(coord.terms) == [e for e in order if e in coord.terms]
        for _ in range(3):
            s1, t1, s2, t2 = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
            den = s1 * t2 - s2 * t1
            if den == 0:
                continue
            p, q = curve.point(s1, t1), curve.point(s2, t2)
            direct = [(p[i] * q[j] - q[i] * p[j]) / den for i, j in sc.INDEX_PAIRS]
            assert pm.evaluate((s1 * s2, s1 * t2 + s2 * t1, t1 * t2)) == direct


def _over(form: dict, den: int) -> list:
    return [(e, Fraction(c, den)) for e, c in form.items()]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6),
       st.lists(st.fractions(-20, 20, max_denominator=6), min_size=4, max_size=4), st.integers(0, 99))
def test_integer_pencil_equals_multipoly_secant_system(d, curve_seed, u, seed):
    """The integer rows, their random combinations p and q, and every
    coefficient list of p and q in each variable equal the oracle Poly sums
    and products over den, term order included, on the monomial quartic
    (d = 2 below) and on random curves of degree 3..7; the draws leave the
    random state where the oracle Poly combinations leave it."""
    assume(any(u))
    curve = QUARTIC if d == 2 else _random_curve(random.Random(curve_seed), d)
    pm = sc.plucker_map(curve)
    rows, den = sc.secant_rows(pm, u)
    oracle = secant_system(pm, u)
    assert [_over(row, den) for row in rows] == [list(row.terms.items()) for row in oracle]
    rows = [row for row in rows if row]
    oracle = [row for row in oracle if not row.is_zero()]
    assume(rows)
    for unit in UNIT_POINTS:
        exponent = tuple((curve.d - 1) * e for e in unit)
        assert all(exponent not in row for row in rows) == all(
            row.evaluate(dict(zip(sc.PAIR_VARS, unit))) == 0 for row in oracle)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        p, q = sc._random_combination(rows, rng), sc._random_combination(rows, rng)
        p_oracle, q_oracle = random_combination(oracle, oracle_rng), random_combination(oracle, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()
        assert _over(p, den) == list(p_oracle.terms.items())
        assert _over(q, den) == list(q_oracle.terms.items())
        if not p or not q:
            continue
        for k, var in enumerate(sc.PAIR_VARS):
            for form, form_oracle in ((p, p_oracle), (q, q_oracle)):
                assert [_over(part, den) for part in sc._coefficients_in(form, k)] == [
                    list(part.terms.items()) for part in coefficients_in(form_oracle, var)]
        assert sc.PAIR_VARS[sc._elimination_variable(p, q, den)] == elimination_variable(p_oracle, q_oracle)


def _partial(poly: Poly, k: int) -> Poly:
    return Poly(poly.variables, {tuple(x - (i == k) for i, x in enumerate(e)): c * e[k]
                                 for e, c in poly.terms.items() if e[k]})


def _term_magnitude(poly: Poly, point) -> float:
    """Sum of the absolute values of the terms: the scale of rounding error."""
    return Poly(poly.variables, {e: abs(c) for e, c in poly.terms.items()}).evaluate(
        {v: abs(x) for v, x in point.items()})


@pytest.mark.parametrize("d", [3, 4, 5])
def test_row_evaluator_matches_scaled_rows_and_exact_partials(d):
    """At a stack of complex points, _row_evaluator gives the values of each
    row over its largest |coefficient| and of that quotient's exact partials."""
    rng = random.Random(40 + d)
    curve = sc.MONOMIAL_QUARTIC if d == 4 else _random_curve(rng, d)
    pm = sc.plucker_map(curve)
    for _ in range(3):
        u = [Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(4)]
        rows = [row for row in sc.secant_rows(pm, u)[0] if row]
        scaled = [Poly(sc.PAIR_VARS, {e: Fraction(c, max(map(abs, row.values()))) for e, c in row.items()})
                  for row in rows]
        points = _random_unit_points(rng, 4)
        values, jacobian = sc._row_evaluator(rows)(points)
        assert values.shape == (4, len(rows)) and jacobian.shape == (4, len(rows), 3)
        for p, point_values, point_jacobian in zip(points, values, jacobian):
            point = dict(zip(sc.PAIR_VARS, map(complex, p)))
            for row, value, gradient in zip(scaled, point_values, point_jacobian):
                for poly, got in [(row, value)] + [(_partial(row, k), gradient[k]) for k in range(3)]:
                    assert abs(got - poly.evaluate(point)) <= 1e-12 * _term_magnitude(poly, point)


def _random_unit_points(rng: random.Random, n: int) -> np.ndarray:
    points = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)] for _ in range(n)])
    return points / np.linalg.norm(points, axis=1)[:, None]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _reference_evaluate(rows, p: np.ndarray):
    """The loop the stacked evaluator replaces: at one point, one np.dot
    per value and partial over the row's own terms in sorted order."""
    values, jacobian = [], []
    for row in rows:
        scale = max(abs(c) for c in row.values())
        order = sorted(row)
        exps = np.array(order)
        coeffs = np.array([float(Fraction(row[e], scale)) for e in order])
        values.append(np.dot(coeffs, np.prod(p ** exps, axis=1)))
        gradient = []
        for k in range(3):
            keep = exps[:, k] > 0
            lowered = exps[keep] - np.eye(3, dtype=np.int64)[k]
            gradient.append(np.dot(coeffs[keep] * exps[keep, k], np.prod(p ** lowered, axis=1)))
        jacobian.append(gradient)
    return np.array(values)[None], np.array(jacobian)[None]


def _reference_polish(evaluate, p: np.ndarray):
    """The one-candidate loop the stacked polish replaces, residual by
    Python's abs at the point returned."""
    for _ in range(4):
        values, jacobian = evaluate(p[None])
        step = np.linalg.lstsq(jacobian[0], -values[0], rcond=None)[0]
        step = step - p * (np.vdot(p, step) / np.vdot(p, p))
        if np.linalg.norm(step) < 1e-15:
            break
        p = p + step
        p = p / np.linalg.norm(p)
    return p[None], np.array([max(abs(complex(v)) for v in evaluate(p[None])[0][0])])


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_stacked_row_evaluator_equals_one_point_stacks_bit_for_bit(d):
    """Rows of degree d - 1 have up to (d + 1) d / 2 terms, 28 at d = 7.  A
    stacked evaluation sums each point's terms in the order a one-point
    stack and a per-point np.dot do, so no last bit moves with the stack's
    size: BLAS may sum a strided row in another order."""
    rng = random.Random(70 + d)
    curve = _random_curve(rng, d)
    u = [Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(4)]
    rows = [row for row in sc.secant_rows(sc.plucker_map(curve), u)[0] if row]
    assert max(len(row) for row in rows) == (d + 1) * d // 2
    evaluate = sc._row_evaluator(rows)
    points = _random_unit_points(rng, 12)
    values, jacobian = evaluate(points)
    for i in range(len(points)):
        one_values, one_jacobian = evaluate(points[i:i + 1])
        assert _same_bits(values[i:i + 1], one_values)
        assert _same_bits(jacobian[i:i + 1], one_jacobian)
        ref_values, ref_jacobian = _reference_evaluate(rows, points[i])
        assert _same_bits(one_values, ref_values) and _same_bits(one_jacobian, ref_jacobian)


def _counting(evaluate, sizes: list):
    def counted(points):
        sizes.append(len(points))
        return evaluate(points)
    return counted


@pytest.mark.parametrize("d", [4, 5])
def test_polish_of_a_stack_equals_polish_of_each_candidate(d):
    """Polishing a stack gives every candidate the bits it gets alone, in
    the reversed stack and in the one-candidate loop, evaluates only the
    candidates still moving, and stops each one at a step below 1e-15 or
    after 4 steps, with the residual of its last evaluation."""
    rng = random.Random(90 + d)
    curve = sc.MONOMIAL_QUARTIC if d == 4 else _random_curve(rng, d)
    u = [Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(4)]
    pm = sc.plucker_map(curve)
    rows = [row for row in sc.secant_rows(pm, u)[0] if row]
    evaluate = sc._row_evaluator(rows)
    solutions = [s.abc for s in sc.classify_point(curve, u).solutions]
    assert solutions
    near = np.array(solutions) + 1e-6 * _random_unit_points(rng, len(solutions))
    stack = np.concatenate([near / np.linalg.norm(near, axis=1)[:, None], _random_unit_points(rng, 6)])

    sizes: list[int] = []
    points, residuals = sc._polish(_counting(evaluate, sizes), stack)
    assert len(sizes) <= 5 and sizes[0] == len(stack) and sizes == sorted(sizes, reverse=True)
    assert residuals.shape == (len(stack),)
    moves = []
    for i in range(len(stack)):
        one_sizes: list[int] = []
        one_point, one_residual = sc._polish(_counting(evaluate, one_sizes), stack[i:i + 1])
        assert _same_bits(points[i:i + 1], one_point) and _same_bits(residuals[i:i + 1], one_residual)
        ref_point, ref_residual = _reference_polish(evaluate, stack[i])
        assert _same_bits(one_point, ref_point) and _same_bits(one_residual, ref_residual)
        moves.append(len(one_sizes) - 1)
    # Euler's identity makes the projected step roundoff wherever J has full
    # column rank: away from a solution it is below 1e-15 at once; 1e-6 off
    # one, J is nearly of rank 2 and the amplified roundoff moves it 4 times
    assert moves == [4] * len(solutions) + [0] * (len(stack) - len(solutions))
    reversed_points, reversed_residuals = sc._polish(evaluate, stack[::-1])
    assert _same_bits(points[::-1], reversed_points)
    assert _same_bits(residuals[::-1], reversed_residuals)

    empty_points, empty_residuals = sc._polish(evaluate, stack[:0])
    assert empty_points.shape == (0, 3) and empty_residuals.shape == (0,)


def _random_systems(rng: np.random.Generator, k: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """k complex r x 3 Jacobians with right-hand sides: every fourth of rank
    at most 1, every fourth of rank 2, and every fourth with its smallest
    singular value 1e-16..1e-15 of its largest, around lstsq's cutoff
    eps * max(r, 3)."""
    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    jacobians = normal(k, r, 3)
    jacobians[::4] = normal(len(jacobians[::4]), r, 1) * normal(len(jacobians[::4]), 1, 3)
    jacobians[1::4, :, 2] = jacobians[1::4, :, 0] - 2j * jacobians[1::4, :, 1]
    for i, ratio in zip(range(2, k, 4), np.logspace(-16, -15, k)[::4]):
        u, _, vh = np.linalg.svd(normal(r, 3))
        sigma = np.ones(min(r, 3))
        sigma[-1] = ratio
        jacobians[i] = (u[:, :len(sigma)] * sigma) @ vh[:len(sigma)]
    return jacobians, normal(k, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stacked_lstsq_equals_lstsq_of_each_system_bit_for_bit(r):
    """One gufunc call on the stack runs the same gelsd with the same cutoff
    as np.linalg.lstsq on each system, rank-deficient ones included."""
    jacobians, rhs = _random_systems(np.random.default_rng(r), 60, r)
    each = np.array([np.linalg.lstsq(jac, b, rcond=None)[0] for jac, b in zip(jacobians, rhs)])
    assert _same_bits(sc._lstsq(jacobians, rhs), each)
    assert sc._lstsq(jacobians[:0], rhs[:0]).shape == (0, 3)


def test_stacked_lstsq_raises_as_lstsq_does_on_nan():
    jacobians, rhs = _random_systems(np.random.default_rng(7), 5, 4)
    jacobians[3, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as each:
        np.linalg.lstsq(jacobians[3], rhs[3], rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as stacked:
        sc._lstsq(jacobians, rhs)
    assert str(stacked.value) == str(each.value)


def _roots_cases(rng: np.random.Generator) -> list[list]:
    """Real, complex and integer coefficient lists (highest degree first)
    with real, complex and repeated roots, zeros at either end, tiny leading
    coefficients (one whose ratio to the largest rounds to 0.0), and tails
    of degree 1 and 0, shuffled."""
    cases = []
    for n in (1, 2, 3, 4, 5, 7):
        for _ in range(4):
            real = rng.standard_normal(n)
            cases += [list(real), list(real + 1j * rng.standard_normal(n)),
                      list(np.atleast_1d(np.poly(rng.standard_normal(n - 1))))]
    cases += [[2.0, 0.0, 0.0], [0.0, 1.0, -3.0, 0.0], [1j, 0j], [0.0, 5.0], [1e-14, 1.0, 0.0, -7.0, 6.0],
              [1e-13j, 2.0 + 1j, 3.0], [1.0, -2.0, 1.0], [0, 6, -7],
              [1, 10 ** 20, 0], [1, 10 ** 400, -2 * 10 ** 400]]
    return [cases[i] for i in rng.permutation(len(cases))]


@pytest.mark.parametrize("zero", [0.0, 1e-12])
def test_stacked_roots_equal_np_roots_of_each_tail_bit_for_bit(zero):
    """Leading coefficients at or below the threshold are dropped (a root at
    infinity), and the roots of the rest, found by one eigvals call per size
    and dtype, are np.roots's: same dtype, same bytes."""
    cases = _roots_cases(np.random.default_rng(11))
    for (finite, at_infinity), p in zip(sc._projective_roots(cases, zero), cases):
        top = max(abs(c) for c in p)
        scaled = [c / top for c in p]
        lead = next(i for i, c in enumerate(scaled) if abs(c) > zero)
        want = np.roots(scaled[lead:])
        assert at_infinity == (lead > 0)
        got = np.array(finite, dtype=want.dtype)
        assert all(type(v) is want.dtype.type for v in finite) and _same_bits(got, want), p


@pytest.mark.parametrize("leading", [0, 1, 2])
def test_projective_roots_read_leading_zeros_as_a_root_at_infinity(leading):
    cubic = [1, 0, -7, 6]  # (x - 1)(x - 2)(x + 3)
    cases = [
        ([0] * leading + cubic, 0.0),
        ([1e-14 * (i + 1) for i in range(leading)] + [complex(c) for c in cubic], 1e-12),
    ]
    for descending, zero in cases:
        [(finite, at_infinity)] = sc._projective_roots([descending], zero)
        assert at_infinity == (leading > 0)
        assert sorted(np.real(finite)) == pytest.approx([-3, 1, 2])
        assert np.abs(np.imag(finite)).max() < 1e-12
    # a tiny coefficient is a zero only up to the given threshold
    [(finite, at_infinity)] = sc._projective_roots([[1] + [10 ** 20 * c for c in cubic]], 0.0)
    assert (len(finite), at_infinity) == (4, False)
    [(finite, at_infinity)] = sc._projective_roots([[1e-20, 1.0, 0.0, -7.0, 6.0]], 1e-12)
    assert (len(finite), at_infinity) == (3, True)
    assert sc._projective_roots([[0] * leading + [5]], 0.0) == [([], leading > 0)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4), st.integers(0, 100))
def test_witness_secants_span_the_query_point(u, seed):
    if all(c == 0 for c in u):
        u[0] = 7
    try:
        pc = sc.classify_point(QUARTIC, u, seed=seed)
    except sc.DegenerateQuery:
        return
    uf = np.array([float(c) for c in u])
    uf = uf / np.linalg.norm(uf)
    for sol in pc.solutions:
        assert sol.residual <= 1e-7
        if sol.contact != sc.TWO_REAL_POINTS:
            continue
        rows = np.array([list(pt) for pt in sol.curve_points] + [list(uf)], dtype=float)
        sing = np.linalg.svd(rows, compute_uv=False)
        assert sing[2] <= 1e-6 * sing[0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_secant_solutions_reproduce_their_pair_quadric(u):
    if all(c == 0 for c in u):
        u[0] = 7
    try:
        pc = sc.classify_point(QUARTIC, u)
    except sc.DegenerateQuery:
        return
    for sol in pc.solutions:
        if sol.contact != sc.TWO_REAL_POINTS:
            continue
        (s1, t1), (s2, t2) = sol.roots
        rebuilt = np.array([s1 * s2, s1 * t2 + s2 * t1, t1 * t2], dtype=float)
        given_abc = np.array(sol.abc)
        rebuilt /= np.linalg.norm(rebuilt)
        assert min(np.linalg.norm(rebuilt - given_abc),
                   np.linalg.norm(rebuilt + given_abc)) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_twisted_cubic_agrees_with_discriminant_sign(u):
    d_value = hd.discriminant_quartic([Fraction(c) for c in u], 0)
    if d_value == 0:
        return
    label = sc.classify_point(TWISTED_CUBIC, u).label
    assert label == (sc.REAL_RANK_LE_2 if d_value > 0 else sc.REAL_RANK_GE_3)


def test_classification_counts_along_crossing_path():
    expectations = [
        (Fraction(1, 5), sc.REAL_RANK_GE_3, 1, 0),
        (Fraction(9, 20), sc.REAL_RANK_LE_2, 1, 1),
        (Fraction(11, 20), sc.REAL_RANK_LE_2, 3, 3),
        (Fraction(7, 10), sc.REAL_RANK_LE_2, 3, 2),
        (Fraction(9, 10), sc.REAL_RANK_GE_3, 1, 0),
    ]
    for t, label, n_real, n_two in expectations:
        u = [c0 + c1 * t for c0, c1 in sc.CROSSING_PATH]
        pc = sc.classify_point(QUARTIC, u)
        assert (pc.label, pc.real_secants, pc.two_real_point_secants) == (label, n_real, n_two)
        if label == sc.REAL_RANK_LE_2:
            assert pc.witness is not None and pc.witness.contact == sc.TWO_REAL_POINTS
        else:
            assert pc.witness is None


def test_scan_localizes_all_four_boundary_crossings():
    report = sc.scan_path(QUARTIC, sc.CROSSING_PATH,
                          fixtures=sc.MONOMIAL_QUARTIC_FIXTURES)
    assert len(report.transitions) == 4
    kinds = [tr.kind for tr in report.transitions]
    assert kinds == [sc.TANGENTIAL, sc.NO_RANK_CHANGE, sc.NO_RANK_CHANGE, sc.EDGE]
    surfaces = [tr.surface for tr in report.transitions]
    assert surfaces == [sc.TANGENTIAL, sc.EDGE, sc.TANGENTIAL, sc.EDGE]
    ranks = [(tr.rank_before, tr.rank_after) for tr in report.transitions]
    assert ranks == [(3, 2), (2, 2), (2, 2), (2, 3)]
    for tr, expected in zip(report.transitions, T_STARS):
        assert abs(tr.t_star - expected) <= 1e-10
    for tr in report.transitions:
        surface = sc.MONOMIAL_QUARTIC_FIXTURES[tr.surface]
        point = {v: c0 + c1 * Fraction(tr.t_star).limit_denominator(10 ** 15)
                 for v, (c0, c1) in zip(sc.POINT_VARS, sc.CROSSING_PATH)}
        value = float(evaluate(surface, point))
        scale = max(abs(c / surface.den) for c in surface.terms.values()) * 100.0 ** 3
        assert abs(value) <= 1e-9 * scale


def test_scan_without_fixtures_marks_changes_unlabeled():
    report = sc.scan_path(QUARTIC, sc.CROSSING_PATH, nsamples=9)
    assert [tr.kind for tr in report.transitions] == [sc.UNLABELED, sc.UNLABELED]
    assert abs(report.transitions[0].t_star - T_STARS[0]) <= 1e-9
    assert abs(report.transitions[1].t_star - T_STARS[3]) <= 1e-9


def test_scan_on_quiet_subinterval_reports_nothing():
    report = sc.scan_path(QUARTIC, sc.CROSSING_PATH, interval=(Fraction(42, 100), Fraction(1, 2)),
                          nsamples=4, fixtures=sc.MONOMIAL_QUARTIC_FIXTURES)
    assert report.transitions == ()
    assert {s.label for s in report.samples} == {sc.REAL_RANK_LE_2}


def test_scan_constant_path_has_no_transitions():
    path = [(3, 0), (1, 0), (-2, 0), (5, 0)]
    report = sc.scan_path(QUARTIC, path, nsamples=3)
    assert report.transitions == ()
    assert len({(s.label, s.real_secants) for s in report.samples}) == 1


def test_report_serialization():
    report = sc.scan_path(QUARTIC, sc.CROSSING_PATH, interval=(0, Fraction(1, 5)), nsamples=3)
    payload = json.loads(json.dumps(report.to_json()))
    assert len(payload["samples"]) == 3
    assert payload["transitions"] == []
    csv = sc.scan_path(QUARTIC, sc.CROSSING_PATH, interval=(0, Fraction(1, 5)), nsamples=3).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,min_discriminant,real_secants,two_real_point_secants"
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.0


def _bits(v) -> tuple:
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else (v.hex(),)


@pytest.mark.parametrize("s, t", [
    (Fraction(2, 3), Fraction(-5)), (3, Fraction(1, 7)),
    (0.3, -1.7), (2, 0.1), (1e-3, 1e3),
    (0.3 + 0.1j, 1 - 2j), (-0.7, 0.25j), (1, 1j),
])
def test_point_equals_casting_each_coefficient_to_the_bit(s, t):
    """The cached float and complex rows give what casting each Fraction of
    F at every call gives, value for value and bit for bit."""
    rng = random.Random(17)
    for d in (3, 4, 6):
        curve = _random_curve(rng, d)
        if isinstance(s, (int, Fraction)) and isinstance(t, (int, Fraction)):
            cast = Fraction
        elif isinstance(s, complex) or isinstance(t, complex):
            cast = complex
        else:
            cast = float
        powers = [s ** (d - k) * t ** k for k in range(d + 1)]
        want = [sum(cast(c) * p for c, p in zip(row, powers)) for row in curve.F]
        got = curve.point(s, t)
        assert [type(v) for v in got] == [type(v) for v in want]
        if cast is Fraction:
            assert got == want
        else:
            assert [_bits(v) for v in got] == [_bits(v) for v in want]


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10 ** 6), st.sampled_from(["on", "at (1 : 0)", "at (0 : 1)", "off"]),
       st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
       st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_on_curve_equals_fraction_oracle(d, curve_seed, where, scale, s):
    """The integer pencils and integer gcd decide on-curve as the Fraction
    pencils and Euclid do: on the curve (at (s : 1), (1 : 0) and (0 : 1),
    scaled) and off it."""
    rng = random.Random(curve_seed)
    curve = _random_curve(rng, d)
    if where == "off":
        u = [_rational(rng) for _ in range(4)]
    else:
        st_pair = {"on": (s, 1), "at (1 : 0)": (1, 0), "at (0 : 1)": (0, 1)}[where]
        u = [scale * c for c in curve.point(*map(Fraction, st_pair))]
    assert sc._on_curve(curve, u) == fraction_on_curve(curve, u)
    if where != "off":
        assert sc._on_curve(curve, u)


def test_degenerate_queries_raise():
    with pytest.raises(sc.DegenerateQuery):
        sc.classify_point(QUARTIC, [0, 0, 0, 0])
    on_curve = QUARTIC.point(Fraction(2), Fraction(3))
    with pytest.raises(sc.DegenerateQuery):
        sc.classify_point(QUARTIC, on_curve)
    with pytest.raises(sc.DegenerateQuery):
        sc.classify_point(QUARTIC, QUARTIC.point(1, 0))
    with pytest.raises(sc.DegenerateQuery):
        sc.classify_point(QUARTIC, [1, 2, 3])


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 4))


UNIT_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _unit_line_point(rng: random.Random, curve: sc.CurveParam, k: int) -> list[Fraction]:
    """A point on the line that the unit pair k stands for: the tangent at
    (1 : 0) for a^(d-1), the secant through (1 : 0) and (0 : 1) for
    b^(d-1), the tangent at (0 : 1) for c^(d-1).  All four rows vanish at
    that unit point, so it is a secant candidate."""
    i, j = ((0, 1), (0, curve.d), (curve.d, curve.d - 1))[k]
    alpha, beta = _rational(rng) or 1, _rational(rng) or 1
    return [alpha * row[i] + beta * row[j] for row in curve.F]


def _rows_at(pm: sc.PluckerMap, u, abc) -> list:
    """The four point-on-line equations at one pair, from its line coordinates."""
    p01, p02, p03, p12, p13, p23 = pm.evaluate(abc)
    w, x, y, z = u
    return [p23 * x - p13 * y + p12 * z, p03 * y - p02 * z - p23 * w,
            p13 * w - p03 * x + p01 * z, p02 * x - p12 * w - p01 * y]


def classify_golden_cases(group: str) -> list[tuple[sc.CurveParam, list, int]]:
    """Seeded (curve, point, seed) cases: random rational points on the
    monomial quartic and on random curves of degree 3..7, points with zero
    coordinates (a row loses a product or vanishes, or the point is on the
    curve), and points whose secant candidates include a unit point."""
    rng = random.Random(sum(map(ord, group)))
    cases = []
    if group == "quartic":
        cases = [(QUARTIC, [_rational(rng) for _ in range(4)]) for _ in range(16)]
    elif group == "random":
        for d in range(3, 8):
            curve = _random_curve(rng, d)
            cases += [(curve, [_rational(rng) for _ in range(4)]) for _ in range(4)]
    elif group == "zeros":
        for curve in (QUARTIC, _random_curve(rng, 3), _random_curve(rng, 5)):
            for zeros in ((0,), (1,), (2,), (3,), (0, 3), (1, 2), (1, 2, 3), (0, 1, 2)):
                u = [_rational(rng) or 1 for _ in range(4)]
                for k in zeros:
                    u[k] = 0
                cases.append((curve, u))
    else:
        for curve in (QUARTIC, _random_curve(rng, 4), _random_curve(rng, 6)):
            cases += [(curve, _unit_line_point(rng, curve, k)) for k in range(3)]
    return [(curve, u, rng.randint(0, 99)) for curve, u in cases]


CLASSIFY_GOLDENS = {
    "quartic": (16, "cc3a76465768f50861701a6429f2755b343d74850a9a588c1ae8968d4767f5d5"),
    "random": (20, "45e4365d5bb79fe71cb739df1a0fcca5a31ab4ff65792239165e0269db8f10d6"),
    "zeros": (24, "d4cd1e6c9bee933ea9f2cf21c0691a61a0f35f736a2b96ab3e07c79bde5f1f7b"),
    "unit": (9, "774406ca572271fb6307b6ac934b9e3985c31b79e4eebfc683606cb745037773"),
}


@pytest.mark.parametrize("group", sorted(CLASSIFY_GOLDENS))
def test_classify_point_json_goldens(group):
    """classify_point(...).to_json() bytes, one line per case (the error's
    name for a degenerate query), pinned by sha256: the secant system's term
    order feeds the float arithmetic, so any reordering shows here."""
    cases = classify_golden_cases(group)
    digest = hashlib.sha256()
    for curve, u, seed in cases:
        if group == "unit":
            pm = sc.plucker_map(curve)
            assert any(all(v == 0 for v in _rows_at(pm, u, unit)) for unit in UNIT_POINTS)
        try:
            text = json.dumps(sc.classify_point(curve, u, seed=seed).to_json())
        except sc.DegenerateQuery as exc:
            text = type(exc).__name__
        digest.update(text.encode() + b"\n")
    assert (len(cases), digest.hexdigest()) == CLASSIFY_GOLDENS[group]


def test_bad_curves_rejected():
    with pytest.raises(sc.BadCurve):
        sc.CurveParam(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)))
    with pytest.raises(sc.BadCurve):
        sc.CurveParam(0, ((1,), (1,), (1,), (1,)))
    with pytest.raises(sc.BadCurve):
        sc.CurveParam(4, ((1, 0, 0, 0, 0),) * 4)


def test_scan_argument_guards():
    with pytest.raises(ValueError):
        sc.scan_path(QUARTIC, sc.CROSSING_PATH, nsamples=1)
    with pytest.raises(ValueError):
        sc.scan_path(QUARTIC, sc.CROSSING_PATH, interval=(1, 0))


def restricted_by_substitution(poly: Polynomial, path) -> list[Fraction]:
    """The fixture along the path by substituting c0 + c1 t in Poly arithmetic."""
    t = Poly.variable("t", ("t",))
    replacements = {v: t * c1 + c0 for v, (c0, c1) in zip(sc.POINT_VARS, path)}
    along = substitute(ring(poly), replacements, ("t",))
    return fraction_trim(part.constant_value() for part in coefficients_in(along, "t"))


def test_fixture_polynomial_equals_substitution_oracle():
    rng = random.Random(23)
    paths = [tuple((Fraction(c0), Fraction(c1)) for c0, c1 in sc.CROSSING_PATH)]
    paths += [tuple((Fraction(rng.randint(-99, 99), rng.randint(1, 9)),
                     Fraction(rng.randint(-99, 99), rng.randint(1, 9))) for _ in sc.POINT_VARS)
              for _ in range(50)]
    for path in paths:
        for poly in sc.MONOMIAL_QUARTIC_FIXTURES.values():
            assert fraction_trim(sc._fixture_polynomial(poly, path)) == restricted_by_substitution(poly, path)


def test_fixture_polynomial_needs_point_variables():
    reordered = Polynomial(("x", "w", "y", "z"), {(x, w, y, z): c for (w, x, y, z), c
                                                  in sc.TANGENTIAL_SEXTIC.terms.items()})
    with pytest.raises(ValueError):
        sc._fixture_polynomial(reordered, sc.CROSSING_PATH)


def full_bisection_scan(curve, path, interval=(0, 1), nsamples=21, fixtures=None,
                        tol=1e-8, seed=0) -> sc.PathReport:
    """Reference scan: bisect every change to width 1e-12, then match."""
    path = tuple((Fraction(c0), Fraction(c1)) for c0, c1 in path)
    lo, hi = (Fraction(v) for v in interval)
    ts = [lo + (hi - lo) * k / (nsamples - 1) for k in range(nsamples)]
    samples = [sc._sample(curve, path, t, tol, seed) for t in ts]
    changes = []
    for (ta, sa), (tb, sb) in zip(zip(ts, samples), zip(ts[1:], samples[1:])):
        if sa.label == sb.label:
            continue
        a, b = ta, tb
        while b - a > sc.BISECTION_WIDTH:
            mid = (a + b) / 2
            if sc.classify_point(curve, sc._path_point(path, mid), tol, seed=seed).label == sa.label:
                a = mid
            else:
                b = mid
        changes.append((float((a + b) / 2), sc._rank_of(sa.label), sc._rank_of(sb.label)))
    roots = [(root, kind) for kind, poly in (fixtures or {}).items()
             for root, _mult in real_roots(sc._fixture_polynomial(poly, path), lo, hi, tol=1e-13)]
    transitions, matched = [], set()
    for t_star, before, after in changes:
        near = [i for i, (root, _kind) in enumerate(roots)
                if i not in matched and abs(root - t_star) <= sc.FIXTURE_MATCH_WINDOW]
        if not near:
            transitions.append(sc.PathTransition(t_star, sc.UNLABELED, before, after))
            continue
        best = min(near, key=lambda i: abs(roots[i][0] - t_star))
        matched.add(best)
        transitions.append(sc.PathTransition(roots[best][0], roots[best][1], before, after, roots[best][1]))
    probe = min((hi - lo) / (8 * (nsamples - 1)), Fraction(1, 10 ** 7))
    for i, (root, kind) in enumerate(roots):
        if i in matched:
            continue
        before, after = (sc._rank_of(sc.classify_point(curve, sc._path_point(path, Fraction(root) + d),
                                                       tol, seed=seed).label) for d in (-probe, probe))
        transitions.append(sc.PathTransition(root, kind if before != after else sc.NO_RANK_CHANGE,
                                             before, after, kind))
    transitions.sort(key=lambda tr: tr.t_star)
    return sc.PathReport(tuple(samples), tuple(transitions))


def decoy_fixture(t0: Fraction) -> Polynomial:
    """A linear form in (w, x, y, z) vanishing on the crossing path at t0,
    as integer terms over t0's denominator."""
    (w0, w1), (x0, x1) = sc.CROSSING_PATH[:2]
    den = t0.denominator
    return Polynomial(sc.POINT_VARS, {(1, 0, 0, 0): x0 * den + x1 * t0.numerator,
                                      (0, 1, 0, 0): -(w0 * den + w1 * t0.numerator)}, den)


@pytest.fixture
def classify_counter(monkeypatch):
    calls = []
    original = sc.classify_point

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(sc, "classify_point", counted)
    return calls


W = Fraction(sc.FIXTURE_MATCH_WINDOW)
FIXTURES = sc.MONOMIAL_QUARTIC_FIXTURES
DECOYED = {**FIXTURES, "DECOY": decoy_fixture(Fraction(T_STARS[0]) + W / 2)}


@pytest.mark.parametrize("interval, nsamples, fixtures", [
    ((0, 1), 5, FIXTURES),
    ((0, 1), 21, FIXTURES),
    ((0, 1), 64, FIXTURES),
    ((Fraction(3, 10), Fraction(1, 2)), 5, FIXTURES),
    ((Fraction(3, 5), Fraction(9, 10)), 7, FIXTURES),
    ((0, 1), 9, None),
    ((0, 1), 9, DECOYED),
    ((Fraction(3, 10), Fraction(1, 2)), 5, {"DECOY": decoy_fixture(Fraction(T_STARS[0]) - 2 * W)}),
], ids=["n5", "n21", "n64", "tangential-part", "edge-part", "no-fixtures", "decoy",
        "decoy-outside-window"])
def test_snapped_scan_equals_full_bisection(interval, nsamples, fixtures):
    report = sc.scan_path(QUARTIC, sc.CROSSING_PATH, interval, nsamples, fixtures, seed=1729)
    assert report == full_bisection_scan(QUARTIC, sc.CROSSING_PATH, interval, nsamples, fixtures,
                                         seed=1729)


def test_snap_needs_the_one_root_every_bisection_end_matches():
    lo, hi = Fraction(1, 2), Fraction(1, 2) + W
    eps = Fraction(1, 10 ** 12)

    def snap(*roots):
        return sc._snap_root(roots, range(len(roots)), lo, hi)

    assert snap(lo + W / 2) == 0
    assert snap(hi - W + 2 * eps) == 0 and snap(lo + W - 2 * eps) == 0
    assert snap(hi - W) is None and snap(lo + W) is None  # inside the float-rounding margin
    assert snap(lo - W / 2) is None  # an end near hi is more than W away from it
    assert snap(lo + W / 2, hi + W / 2) is None  # a second root within reach
    assert snap(lo + W / 2, hi + W) is None and snap(lo - W, lo + W / 2) is None
    assert snap(lo + W / 2, hi + 2 * W) == 0
    assert sc._snap_root((lo + W / 2,), (), lo, hi) is None  # already matched


def test_decoy_root_forces_full_bisection(classify_counter):
    # two fixture roots within the match window of the tangential change:
    # only full bisection tells which one the change matches
    interval = (Fraction(3, 10), Fraction(1, 2))
    sc.scan_path(QUARTIC, sc.CROSSING_PATH, interval, 5, FIXTURES, seed=1729)
    snapped = len(classify_counter)
    classify_counter.clear()
    sc.scan_path(QUARTIC, sc.CROSSING_PATH, interval, 5, DECOYED, seed=1729)
    decoyed = len(classify_counter)
    classify_counter.clear()
    full_bisection_scan(QUARTIC, sc.CROSSING_PATH, interval, 5, DECOYED, seed=1729)
    assert decoyed == len(classify_counter) > snapped + 2


def test_crossing_scan_stops_bisecting_at_the_fixture_root(classify_counter):
    report = sc.scan_path(QUARTIC, sc.CROSSING_PATH, fixtures=FIXTURES, seed=1729)
    assert [tr.kind for tr in report.transitions] == [sc.TANGENTIAL, sc.NO_RANK_CHANGE,
                                                      sc.NO_RANK_CHANGE, sc.EDGE]
    assert len(classify_counter) <= 51  # 97 with full bisection


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_curve_and_path_entries_rejected(bad):
    rows = [list(row) for row in QUARTIC.F]
    rows[3][4] = bad
    with pytest.raises(NonFiniteEntry):
        sc.CurveParam(4, rows)
    path = [list(row) for row in sc.CROSSING_PATH]
    path[2][1] = bad
    with pytest.raises(NonFiniteEntry):
        sc.scan_path(QUARTIC, path, nsamples=2)
