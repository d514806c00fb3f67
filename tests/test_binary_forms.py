"""Hankel/discriminant classification of binary forms and its agreement
with the tensor-certificate route."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import binary_forms as bf
from realrank2 import certify as ce
from realrank2 import tensors as tn
from realrank2.multipoly import evaluate
from realrank2.tableaux import DegreeTooSmall, secant_point, tangential_point

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
    # the strata label decomposes with the Hankel-route certificate it
    # already holds: certifying the expanded tensor again would fail here
    def certify_again(*args, **kwargs):
        raise AssertionError("d = 4 form certified twice")

    monkeypatch.setattr(ce, "certify_border_rank2", certify_again)
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
    via_tensor = ce.certify_border_rank2(tn.sym_to_tensor(f.to_sym())).verdict
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
