"""Hankel/discriminant classification of binary forms and its agreement
with the tensor-certificate route."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import binary_forms as bf
from realrank2 import certify as ce
from realrank2 import decompose as dc
from realrank2 import tensors as tn
from realrank2.multipoly import evaluate
from realrank2.tableaux import DegreeTooSmall, secant_point, tangential_point

from conftest import reference_strata_label

IN_LOCUS = {ce.Verdict.RANK_AT_MOST_ONE, ce.Verdict.REAL_RANK_TWO,
            ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY}

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def real_pair_form(d: int, a, b) -> bf.BinaryForm:
    """(a1 s + a2 t)^d + (b1 s + b2 t)^d in scaled coordinates."""
    return bf.BinaryForm(d, secant_point(a, b, d))


def conjugate_pair_form(d: int, p, q) -> bf.BinaryForm:
    """(l s + m t)^d + conjugate, l = p1 + i p2, m = q1 + i q2, exactly."""
    p = complex(*[float(v) for v in p])
    q = complex(*[float(v) for v in q])
    coords = [2.0 * ((p ** (d - i)) * (q ** i)).real for i in range(d + 1)]
    return bf.BinaryForm(d, [Fraction(c).limit_denominator(10 ** 12) for c in coords])


def test_classify_quartic_goldens(monkeypatch):
    # the strata label is read off the Hankel matrix: neither the expanded
    # tensor's certificate nor a decomposition of it may be asked for
    def dense_route(*args, **kwargs):
        raise AssertionError("d = 4 form took the dense route")

    monkeypatch.setattr(ce, "certify_border_rank2", dense_route)
    monkeypatch.setattr(dc, "decompose_rank2", dense_route)
    plus = bf.classify_binary_form(bf.BinaryForm(4, [1, 0, 0, 0, 1]))
    assert plus.verdict == ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY
    assert plus.strata == bf.STRATUM_PSD_PAIR
    assert plus.d_values == [0, 0]

    minus = bf.classify_binary_form(bf.BinaryForm(4, [1, 0, 0, 0, -1]))
    assert minus.verdict == ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY
    assert minus.strata == bf.STRATUM_INDEF_PAIR

    conj = bf.classify_binary_form(bf.BinaryForm(4, [2, 0, -2, 0, 2]))
    assert conj.verdict == ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER
    assert conj.strata == bf.STRATUM_CONJ
    assert min(conj.d_values) < 0

    power = bf.classify_binary_form(bf.BinaryForm(4, [1, 1, 1, 1, 1]))
    assert power.verdict == ce.Verdict.RANK_AT_MOST_ONE
    assert power.strata == bf.STRATUM_RANK_ONE

    tangent = bf.classify_binary_form(bf.BinaryForm(4, [0, Fraction(1, 4), 0, 0, 0]))
    assert tangent.verdict == ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY
    assert tangent.strata is None

    generic = bf.classify_binary_form(bf.BinaryForm(4, [1, 0, Fraction(1, 6), 0, 0]))
    assert generic.verdict == ce.Verdict.BORDER_RANK_EXCEEDS_TWO
    assert generic.strata is None
    assert generic.hankel_rank == 3


QUARTIC_FAMILIES = ["pair ++", "pair +-", "conjugate", "tangent", "rank one", "boundary"]


def exact_conjugate_pair(d: int, p, q) -> list[Fraction]:
    """Scaled coordinates 2 Re(l^(d-i) m^i) of (l s + m t)^d + conjugate,
    l = p1 + i p2, m = q1 + i q2, in Gaussian rationals."""
    def mul(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    coords = []
    for i in range(d + 1):
        z = (Fraction(1), Fraction(0))
        for factor in [p] * (d - i) + [q] * i:
            z = mul(z, factor)
        coords.append(2 * z[0])
    return coords


def quartic(family: str, a, b) -> bf.BinaryForm:
    """An exact quartic of one family: a^4 + b^4 or a^4 - b^4 for linear
    forms a, b; a conjugate pair; the tangent form a^3 b; a^4; or
    a1 s^4 + b2 t^4, whose discriminants D0 and D1 vanish, so that the
    certificate says REAL_BORDER_RANK_TWO_BOUNDARY."""
    power = [[Fraction(v[0]) ** (4 - i) * Fraction(v[1]) ** i for i in range(5)] for v in (a, b)]
    coords = {"pair ++": lambda: secant_point(a, b, 4),
              "pair +-": lambda: [x - y for x, y in zip(*power)],
              "conjugate": lambda: exact_conjugate_pair(4, a, b),
              "tangent": lambda: tangential_point(a, b, 4),
              "rank one": lambda: power[0],
              "boundary": lambda: [a[0], 0, 0, 0, b[1]]}[family]()
    return bf.BinaryForm(4, coords)


def family_label(family: str, a, b) -> str | None:
    """The label a quartic of the family must get when its Hankel matrix has rank two."""
    if family == "boundary":
        return bf.STRATUM_PSD_PAIR if a[0] * b[1] > 0 else bf.STRATUM_INDEF_PAIR
    return {"pair ++": bf.STRATUM_PSD_PAIR, "pair +-": bf.STRATUM_INDEF_PAIR,
            "conjugate": bf.STRATUM_CONJ, "tangent": None}[family]


def float_copy(f: bf.BinaryForm, scale: float = 1.0) -> bf.BinaryForm:
    return bf.BinaryForm(f.d, [float(c) * scale for c in f.coords])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QUARTIC_FAMILIES), st.tuples(small_fracs, small_fracs),
       st.tuples(small_fracs, small_fracs))
def test_exact_quartic_label_matches_the_dense_route_and_the_family(family, a, b):
    f = quartic(family, a, b)
    got = bf.classify_binary_form(f)
    assert got.strata == reference_strata_label(f)
    if got.hankel_rank == 2:
        assert got.strata == family_label(family, a, b)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QUARTIC_FAMILIES), st.tuples(small_fracs, small_fracs),
       st.tuples(small_fracs, small_fracs), st.integers(-6, 6))
def test_float_quartic_label_matches_the_dense_route(family, a, b, k):
    f = float_copy(quartic(family, a, b), 10.0 ** k)
    assert bf.classify_binary_form(f).strata == reference_strata_label(f)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QUARTIC_FAMILIES), st.tuples(small_fracs, small_fracs),
       st.tuples(small_fracs, small_fracs), st.integers(-200, 200))
def test_float_quartic_label_is_unchanged_by_a_power_of_two(family, a, b, j):
    f = float_copy(quartic(family, a, b))
    scaled = bf.BinaryForm(4, [math.ldexp(c, j) for c in f.coords])
    assert bf.classify_binary_form(scaled).strata == bf.classify_binary_form(f).strata


def test_float_quartic_tangent_threshold():
    """|q1^2 - 4 q0 q2| <= 1e-12 for the unit kernel quadric q of a float
    quartic reads as a double root.  H q = 0 for q = (0, e, 1) when
    x = (0, 1, -e, e^2, -e^3), a real pair with disc = e^2 / (1 + e^2), and
    for q = (e^2, 0, 1) when x = (0, 1, 0, -e^2, 0), a conjugate pair with
    disc = -4 e^2 / (1 + e^4); both Hankel matrices are well conditioned."""
    assert bf.QUARTIC_TANGENT_TOL == 1e-12

    def label(coords):
        return bf.classify_binary_form(bf.BinaryForm(4, coords)).strata

    for e, pair, conj in ((2e-6, bf.STRATUM_INDEF_PAIR, bf.STRATUM_CONJ), (4e-7, None, None)):
        assert label([0.0, 1.0, -e, e * e, -e ** 3]) == pair
        assert label([0.0, 1.0, 0.0, -e * e, 0.0]) == conj


def test_cubic_real_rank_two_versus_three():
    dual_pair = bf.classify_binary_form(bf.BinaryForm(3, [1, 0, Fraction(1, 3), 0]))
    assert dual_pair.verdict == ce.Verdict.REAL_RANK_TWO
    assert dual_pair.d_values[0] > 0

    three_roots = bf.classify_binary_form(bf.BinaryForm(3, [1, 0, Fraction(-1, 3), 0]))
    assert three_roots.verdict == ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER
    assert three_roots.d_values[0] < 0


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.tuples(small_fracs, small_fracs),
       st.tuples(small_fracs, small_fracs))
def test_real_pairs_never_classified_complex(d, a, b):
    verdict = bf.classify_binary_form(real_pair_form(d, a, b)).verdict
    assert verdict != ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER
    assert verdict != ce.Verdict.BORDER_RANK_EXCEEDS_TWO


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 6),
       st.lists(st.integers(-9, 9), min_size=4, max_size=7))
def test_verdict_agrees_with_tensor_route(d, coords):
    coords = (coords + [0] * 7)[:d + 1]
    f = bf.BinaryForm(d, [Fraction(c) for c in coords])
    direct = bf.classify_binary_form(f).verdict
    via_tensor = ce.certify_border_rank2(tn.sym_to_tensor(f)).verdict
    assert direct == via_tensor


@settings(max_examples=40, deadline=None)
@given(st.tuples(small_fracs, small_fracs), st.tuples(small_fracs, small_fracs),
       st.sampled_from(["secant", "tangent", "conjugate", "raw"]))
def test_quintic_two_condition_test_matches_verdict(a, b, family):
    if family == "secant":
        f = real_pair_form(5, a, b)
    elif family == "tangent":
        f = bf.BinaryForm(5, tangential_point(a, b, 5))
    elif family == "conjugate":
        f = conjugate_pair_form(5, a, b)
        f = bf.BinaryForm(5, [Fraction(c) for c in f.coords])
    else:
        f = bf.BinaryForm(5, [a[0], a[1], b[0], b[1], a[0] + b[1], a[1] - b[0]])
    in_locus = bf.quintic_alternative_test(f)
    verdict = bf.classify_binary_form(f).verdict
    assert in_locus == (verdict in IN_LOCUS)


def test_quintic_fixtures():
    assert bf.quintic_alternative_test(real_pair_form(5, (1, 2), (3, -1)))
    assert bf.quintic_alternative_test(bf.BinaryForm(5, tangential_point((1, 2), (0, 1), 5)))
    assert not bf.quintic_alternative_test(bf.BinaryForm(5, [2, 0, -2, 0, 2, 0]))
    assert not bf.quintic_alternative_test(
        bf.BinaryForm(5, [1, 0, Fraction(-1, 10), 0, 0, 0]))


def test_quartic_boundary_geometry():
    f = bf.BinaryForm(4, [1, 0, 0, 0, 1])
    h = bf.hankel(f)
    assert tn.matrix_rank(h, 0.0) == 2
    assert bf.classify_binary_form(f).d_values == [0, 0]
    report = bf.tau_sigma_ideal_report(4)
    q = dict(report.tangential_generators)["Q"]
    assert evaluate(q, {f"x{i}": c for i, c in enumerate(f.coords)}) == 1


def test_hankel_layout_and_rank():
    f = bf.BinaryForm(5, [Fraction(i) for i in range(6)])
    h = bf.hankel(f)
    assert h.shape == (3, 4)
    assert [[int(v) for v in row] for row in h] == [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]]
    assert bf.classify_binary_form(f).hankel_rank == 2


def test_ideal_report_structure():
    report = bf.tau_sigma_ideal_report(4)
    assert len(report.minors_2x2) == 9
    assert len(report.minors_3x3) == 1
    labels = [label for label, _ in report.tangential_generators]
    assert labels == ["det_H", "Q"]
    assert report.minors_3x3[0] == dict(report.tangential_generators)["det_H"]

    cubic = bf.tau_sigma_ideal_report(3)
    assert [label for label, _ in cubic.tangential_generators] == ["D"]
    coords = [Fraction(3), Fraction(-1), Fraction(2), Fraction(5)]
    value = evaluate(cubic.tangential_generators[0][1], {f"x{i}": c for i, c in enumerate(coords)})
    assert value == bf.classify_binary_form(bf.BinaryForm(3, coords)).d_values[0]

    quintic = bf.tau_sigma_ideal_report(5)
    assert [label for label, _ in quintic.tangential_generators] == [
        "f_111111_2222", "f_111112_2222", "f_111122_2222"]


@settings(max_examples=40, deadline=None)
@given(st.tuples(small_fracs, small_fracs), st.tuples(small_fracs, small_fracs))
def test_secant_points_kill_3x3_minors(a, b):
    coords = secant_point(a, b, 5)
    point = {f"x{i}": c for i, c in enumerate(coords)}
    for m in bf.tau_sigma_ideal_report(5).minors_3x3:
        assert evaluate(m, point) == 0


def test_from_plain_coeffs_unscales():
    f = bf.from_plain_coeffs(4, [1, 4, 6, 4, 1])
    assert f.coords == [Fraction(1)] * 5
    assert bf.classify_binary_form(f).verdict == ce.Verdict.RANK_AT_MOST_ONE
    with pytest.raises(bf.WrongDegree):
        bf.from_plain_coeffs(4, [1, 2, 3])


def test_float_coordinates_agree_with_exact():
    exact = bf.BinaryForm(4, [2, 1, -1, 0, 3])
    floats = bf.BinaryForm(4, [2.0, 1.0, -1.0, 0.0, 3.0])
    assert (bf.classify_binary_form(exact).verdict
            == bf.classify_binary_form(floats).verdict)
    assert not floats.is_exact() and exact.is_exact()


def test_degree_guards():
    with pytest.raises(bf.WrongDegree):
        bf.BinaryForm(3, [1, 2, 3])
    with pytest.raises(DegreeTooSmall):
        bf.classify_binary_form(bf.BinaryForm(2, [1, 0, 1]))
    with pytest.raises(bf.WrongDegree):
        bf.quintic_alternative_test(bf.BinaryForm(4, [1, 0, 0, 0, 1]))
    with pytest.raises(DegreeTooSmall):
        bf.tau_sigma_ideal_report(2)


def test_hankel_needs_degree_two():
    with pytest.raises(DegreeTooSmall):
        bf.hankel(bf.BinaryForm(1, [1, 2]))


def test_from_plain_coeffs_divides_exact_values_exactly_and_floats_by_float():
    f = bf.from_plain_coeffs(4, [1, Fraction(8, 3), 0.5, 4, 1])
    assert f.coords == [1, Fraction(2, 3), 0.5 / 6.0, 1, 1]
    assert [type(c) for c in f.coords] == [Fraction, Fraction, float, Fraction, Fraction]
    with pytest.raises(OverflowError):  # binom(1100, 550) is past the largest float
        bf.from_plain_coeffs(1100, [1.0] * 1101)
