"""Acceptance gate: thirteen end-to-end checks at fixed tolerances.

Each test records a PASS/FAIL line (echoed in the terminal summary) and
asserts its criterion, so the suite fails loudly if any gate regresses.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
from conftest import Poly, acceptance_results, bareiss_det, discriminant_quartic_poly

from realrank2 import binary_forms as bf
from realrank2 import certify as ce
from realrank2 import decompose as dc
from realrank2 import hyperdet as hd
from realrank2 import space_curve as sc
from realrank2 import tableaux as tb
from realrank2 import tensors as tn
from realrank2.multipoly import MultiPoly

SEED = 20260814

TABLE1 = {
    2: [1, 3, 6, 10, 15, 21, 28],
    3: [15, 60, 153, 315, 570, 945, 1470],
    4: [105, 540, 1711, 4270, 9190, 17850, 32130],
    5: [490, 3150, 12145, 36155, 91395, 205905, 425425],
}

T_STARS = (0.41616468475415957221, 0.50734775284175190900,
           0.64786245578375696533, 0.81105706603104911043)
SEGMENT_REAL = (1, 1, 3, 3, 1)
SEGMENT_TWO_REAL = (0, 1, 3, 2, 0)


def record(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{num:>2}] {'PASS' if ok else 'FAIL'} {name} ({detail})"
    acceptance_results.append(line)
    assert ok, line


def poly_from_names(variables, name_terms) -> MultiPoly:
    terms = {}
    for names, coeff in name_terms:
        key = [0] * len(variables)
        for name in names:
            key[variables.index(name)] += 1
        terms[tuple(key)] = Fraction(coeff)
    return MultiPoly(variables, terms)


def exact_scalar_multiple(p: MultiPoly, q: MultiPoly) -> bool:
    if set(p.terms) != set(q.terms) or not p.terms:
        return p.terms == q.terms
    anchor = next(iter(p.terms))
    lam = p.terms[anchor] / q.terms[anchor]
    return lam != 0 and all(c == lam * q.terms[e] for e, c in p.terms.items())


def rank_one(rng: np.random.Generator, shape) -> np.ndarray:
    vecs = [rng.standard_normal(k) for k in shape]
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return out


def conjugate_rank_two(rng: np.random.Generator, shape) -> np.ndarray:
    vecs = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in shape]
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return 2.0 * out.real


def cmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def cpow(p, k: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = cmul(out, p)
    return out


def conjugate_pair_coords(d: int, alpha, beta) -> list[Fraction]:
    """Scaled coordinates of (alpha . s + beta . t)^d plus its conjugate."""
    return [2 * cmul(cpow(alpha, d - j), cpow(beta, j))[0] for j in range(d + 1)]


def test_criterion_01_hyperdet_real_pair_identity():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        a, d2, b, e, c, f = rng.standard_normal((6, 2))
        t = (a[:, None, None] * b[None, :, None] * c[None, None, :]
             + d2[:, None, None] * e[None, :, None] * f[None, None, :])
        expected = ((a[0] * d2[1] - a[1] * d2[0]) ** 2
                    * (b[0] * e[1] - b[1] * e[0]) ** 2
                    * (c[0] * f[1] - c[1] * f[0]) ** 2)
        err = abs(hd.hyperdet222(t) - expected) / max(1.0, abs(expected))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    record(1, "hyperdet equals squared-determinant product on real pairs",
           worst <= 1e-8 and elapsed < 1.0,
           f"10000 samples, max rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_hyperdet_conjugate_identity():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        a, A, b, B, c, C = rng.standard_normal((6, 2))
        z, w, v = a + 1j * A, b + 1j * B, c + 1j * C
        t = 2.0 * (z[:, None, None] * w[None, :, None] * v[None, None, :]).real
        expected = (-64.0 * (a[0] * A[1] - a[1] * A[0]) ** 2
                    * (b[0] * B[1] - b[1] * B[0]) ** 2
                    * (c[0] * C[1] - c[1] * C[0]) ** 2)
        err = abs(hd.hyperdet222(t) - expected) / max(1.0, abs(expected))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    record(2, "hyperdet equals -64 x squared-determinant product on conjugate pairs",
           worst <= 1e-8 and elapsed < 1.0,
           f"10000 samples, max rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_quadric_space_dimension_table():
    start = time.perf_counter()
    mismatches = 0
    for n, row in TABLE1.items():
        got = [sum(tb.hook_length_dim(n, d, k) for k in range(4, d + 1, 2))
               for d in range(4, 11)]
        mismatches += sum(1 for g, e in zip(got, row) if g != e)
    elapsed = time.perf_counter() - start
    record(3, "all 28 tangential quadric space dimensions exact",
           mismatches == 0 and elapsed < 1.0,
           f"{mismatches} mismatches, {elapsed:.2f} s")


def test_criterion_04_golden_preimage_polynomials():
    conic = tb.preimage_quadric(tb.TwoRowTableau(2, 2, 2, (1, 1), (2, 2)), allow_k2=True)
    ok = conic.polynomial == poly_from_names(
        conic.polynomial.variables, [(("x0", "x2"), 1), (("x1", "x1"), -1)])

    quartic = tb.preimage_quadric(tb.TwoRowTableau(2, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2)))
    ok &= quartic.polynomial == poly_from_names(
        quartic.polynomial.variables,
        [(("x0", "x4"), 1), (("x1", "x3"), -4), (("x2", "x2"), 3)])

    tern1 = tb.preimage_quadric(tb.TwoRowTableau(3, 4, 4, (1, 1, 1, 1), (2, 2, 2, 2)))
    ok &= tern1.polynomial == poly_from_names(
        tern1.polynomial.variables,
        [(("x400", "x040"), 1), (("x310", "x130"), -4), (("x220", "x220"), 3)])

    tern2 = tb.preimage_quadric(tb.TwoRowTableau(3, 4, 4, (1, 1, 1, 2), (2, 3, 3, 3)))
    ok &= tern2.polynomial == poly_from_names(
        tern2.polynomial.variables,
        [(("x310", "x013"), 1), (("x301", "x022"), -1), (("x220", "x103"), -1),
         (("x211", "x112"), -1), (("x202", "x121"), 2)])
    record(4, "four golden preimage quadrics reproduced exactly", ok, "4 polynomials")


def test_criterion_05_quintic_quadric_basis():
    basis = [g.polynomial for g in tb.quadric_basis(2, 5)]
    variables = basis[0].variables
    expected = [
        poly_from_names(variables, [(("x2", "x2"), 3), (("x1", "x3"), -4), (("x0", "x4"), 1)]),
        poly_from_names(variables, [(("x2", "x3"), 2), (("x1", "x4"), -3), (("x0", "x5"), 1)]),
        poly_from_names(variables, [(("x3", "x3"), 3), (("x2", "x4"), -4), (("x1", "x5"), 1)]),
    ]
    ok = (len(basis) == 3
          and all(exact_scalar_multiple(got, want) for got, want in zip(basis, expected)))

    quartic = tb.quadric_basis(2, 4)
    q_vars = quartic[0].polynomial.variables
    q_want = poly_from_names(q_vars, [(("x0", "x4"), 1), (("x1", "x3"), -4), (("x2", "x2"), 3)])
    ok &= len(quartic) == 1 and exact_scalar_multiple(quartic[0].polynomial, q_want)
    record(5, "degree-5 quadric basis matches the three displayed quadrics", ok,
           "3 quintic generators + 1 quartic generator, exact up to scaling")


def test_criterion_06_crossing_path_scan():
    start = time.perf_counter()
    report = sc.scan_path(sc.MONOMIAL_QUARTIC, sc.CROSSING_PATH,
                          fixtures=sc.MONOMIAL_QUARTIC_FIXTURES)
    t_err = (max(abs(tr.t_star - want) for tr, want in zip(report.transitions, T_STARS))
             if len(report.transitions) == 4 else float("inf"))
    ok = len(report.transitions) == 4 and t_err <= 1e-12
    ok &= [tr.kind for tr in report.transitions] == [
        sc.TANGENTIAL, sc.NO_RANK_CHANGE, sc.NO_RANK_CHANGE, sc.EDGE]
    ok &= [(tr.rank_before, tr.rank_after) for tr in report.transitions] == [
        (3, 2), (2, 2), (2, 2), (2, 3)]

    cuts = [0.0, *T_STARS, 1.0]
    for i in range(5):
        mid = Fraction((cuts[i] + cuts[i + 1]) / 2).limit_denominator(10 ** 6)
        u = [c0 + c1 * mid for c0, c1 in sc.CROSSING_PATH]
        pc = sc.classify_point(sc.MONOMIAL_QUARTIC, u)
        ok &= pc.real_secants == SEGMENT_REAL[i]
        ok &= pc.two_real_point_secants == SEGMENT_TWO_REAL[i]
    elapsed = time.perf_counter() - start
    record(6, "crossing-path scan reproduces t1..t4 and all segment counts",
           ok and elapsed < 30.0, f"max |t - t*| = {t_err:.1e}, {elapsed:.2f} s")


def test_criterion_07_plucker_goldens():
    pm = dict(zip(sc.INDEX_PAIRS, sc.plucker_map(sc.MONOMIAL_QUARTIC).polys))
    def pair_poly(terms):
        return MultiPoly(sc.PAIR_VARS, {e: Fraction(c) for e, c in terms.items()})
    ok = pm[0, 1] == pair_poly({(3, 0, 0): 1})
    ok &= pm[0, 2] == pair_poly({(1, 2, 0): 1, (2, 0, 1): -1})
    ok &= pm[0, 3] == pair_poly({(0, 3, 0): 1, (1, 1, 1): -2})
    ok &= pm[1, 2] == pair_poly({(1, 1, 1): 1})
    ok &= pm[1, 3] == pair_poly({(0, 2, 1): 1, (1, 0, 2): -1})
    ok &= pm[2, 3] == pair_poly({(0, 0, 3): 1})
    record(7, "monomial-quartic secant line coordinates match all six goldens",
           ok, "6 polynomials, exact")


def test_criterion_08_cubic_discriminant_determinant():
    det = hd.cubic_discriminant_determinant()
    displayed = poly_from_names(
        det.variables,
        [(("x0", "x0", "x3", "x3"), 1), (("x0", "x1", "x2", "x3"), -6),
         (("x1", "x1", "x2", "x2"), -3), (("x1", "x1", "x1", "x3"), 4),
         (("x0", "x2", "x2", "x2"), 4)])
    x0, x1, x2, x3 = (Poly.variable(nm, det.variables) for nm in det.variables)
    zero = x0.zero_like()
    oracle = bareiss_det([[x0, 2 * x1, x2, zero], [zero, x0, 2 * x1, x2],
                          [x1, 2 * x2, x3, zero], [zero, x1, 2 * x2, x3]])
    quartic = discriminant_quartic_poly(3, 0, names=det.variables)
    ok = det == displayed
    ok &= det == quartic
    ok &= oracle == quartic
    record(8, "4x4 determinant expands to the displayed discriminant quartic",
           ok, "exact symbolic equality")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(SEED)
    start = time.perf_counter()
    disagreements = 0
    for d in (3, 4, 5, 6):
        for _ in range(1000):
            family = rng.randrange(3)
            if family == 0:
                coords = [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
            elif family == 1:
                a = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
                b = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
                coords = tb.secant_point(a, b, d)
            else:
                alpha = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                beta = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                coords = conjugate_pair_coords(d, alpha, beta)
            f = bf.BinaryForm(d, coords)
            direct = bf.classify_binary_form(f).verdict
            via_tensor = ce.certify_border_rank2(tn.sym_to_tensor(f.to_sym())).verdict
            disagreements += direct != via_tensor
    elapsed = time.perf_counter() - start
    record(9, "form classifier agrees with the tensor certificate route",
           disagreements == 0,
           f"4000 forms (d in 3..6), {disagreements} disagreements, {elapsed:.1f} s")


def test_criterion_10_interior_boundary_witness():
    t = np.zeros((2, 2, 2, 2), dtype=object)
    t[0, 0, 0, 0] = Fraction(1)
    t[1, 1, 1, 1] = Fraction(1)
    for idx in np.ndindex(2, 2, 2, 2):
        if t[idx] == 0:
            t[idx] = Fraction(0)
    report = hd.all_subhyperdets(t)
    ok = len(report.values) == 8 and all(v == 0 for _, v in report.values)
    cert = ce.certify_border_rank2(t)
    ok &= set(cert.flattening_ranks.values()) == {2}
    dec = dc.decompose_rank2(tn.to_float(t))
    ok &= dec.kind == dc.DecompositionKind.REAL_PAIR and dec.residual <= 1e-10
    record(10, "diagonal 2x2x2x2 witness: zero hyperdets, rank-2 flattenings, real pair",
           ok, f"8 exact zeros, residual {dec.residual:.1e}")


def test_criterion_11_tangential_vanishing():
    rng = random.Random(SEED + 11)
    ok = True
    checked = 0
    for n, d in ((2, 5), (2, 6), (3, 4), (3, 5)):
        basis = tb.quadric_basis(n, d)
        names = tb.coordinate_variables(n, d)
        for _ in range(50):
            a = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
            b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
            point = dict(zip(names, tb.tangential_point(a, b, d)))
            ok &= all(g.polynomial.evaluate(point) == 0 for g in basis)
            checked += len(basis)
        low = tb.preimage_quadric(tb.enumerate_tableaux(n, d, 2)[0], allow_k2=True)
        nonzero = False
        for _ in range(10):
            a = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
            b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
            point = dict(zip(names, tb.tangential_point(a, b, d)))
            if low.polynomial.evaluate(point) != 0:
                nonzero = True
                break
        ok &= nonzero
    record(11, "quadric bases vanish exactly on tangential points, k=2 preimages do not",
           ok, f"{checked} exact evaluations at 200 points")


def test_criterion_12_decomposition_round_trip():
    rng = np.random.default_rng(SEED + 12)
    start = time.perf_counter()
    shapes = [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 3)]
    worst_rel = 0.0
    kind_mismatches = 0
    for i in range(1000):
        shape = shapes[i % 4]
        if i % 2 == 0:
            t = rank_one(rng, shape) + rank_one(rng, shape)
            expected_kind = dc.DecompositionKind.REAL_PAIR
        else:
            t = conjugate_rank_two(rng, shape)
            expected_kind = dc.DecompositionKind.CONJUGATE_PAIR
        dec = dc.decompose_rank2(t)
        worst_rel = max(worst_rel, dec.residual / np.linalg.norm(t.ravel()))
        kind_mismatches += dec.kind != expected_kind
    elapsed = time.perf_counter() - start
    record(12, "rank-two round trip across four shapes with matching kinds",
           worst_rel <= 1e-8 and kind_mismatches == 0,
           f"1000 tensors, max rel err {worst_rel:.1e}, "
           f"{kind_mismatches} kind mismatches, {elapsed:.1f} s")


def test_criterion_13_best_rank_one_projection():
    rng = np.random.default_rng(SEED + 13)
    shapes = [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 3)]
    worst = 0.0
    monotone = True
    for i in range(1000):
        u = rng.standard_normal(shapes[i % 4])
        history: list[float] = []
        term, distance = dc.best_rank_one(u, callback=history.append)
        x = term.tensor().ravel() / term.weight
        uu = float(np.dot(u.ravel(), u.ravel()))
        ux = float(np.dot(u.ravel(), x))
        xx = float(np.dot(x, x))
        formula = uu - ux * ux / xx
        worst = max(worst, abs(distance ** 2 - formula) / max(1.0, uu))
        monotone &= all(later <= earlier + 1e-12
                        for earlier, later in zip(history, history[1:]))
    record(13, "projection distance matches the inner-product formula, sweeps monotone",
           worst <= 1e-10 and monotone,
           f"1000 tensors, max formula error {worst:.1e}, monotone={monotone}")
