"""Border-rank-two certificates: verdict soundness, oracle equivalence,
goldens for the named fixture tensors."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import certify as ce
from realrank2 import hyperdet as hd
from realrank2 import tensors as tn

SHAPES = [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 3)]

shape_st = st.sampled_from(SHAPES)


def real_pair(rng: np.random.Generator, shape) -> np.ndarray:
    return tn.outer([rng.standard_normal(n) for n in shape]) \
        + tn.outer([rng.standard_normal(n) for n in shape])


def conjugate_pair(rng: np.random.Generator, shape) -> np.ndarray:
    factors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in shape]
    return np.real(tn.outer(factors) + tn.outer([f.conj() for f in factors]))


def diagonal_2222() -> np.ndarray:
    t = np.zeros((2, 2, 2, 2), dtype=object)
    t[0, 0, 0, 0] = Fraction(1)
    t[1, 1, 1, 1] = Fraction(1)
    return t


@settings(max_examples=50, deadline=None)
@given(shape_st, st.integers(0, 10_000))
def test_soundness_real_pairs_never_rejected(shape, seed):
    rng = np.random.default_rng(seed)
    cert = ce.certify_border_rank2(real_pair(rng, shape))
    assert cert.verdict in (ce.Verdict.REAL_RANK_TWO,
                            ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY,
                            ce.Verdict.RANK_AT_MOST_ONE)


@settings(max_examples=50, deadline=None)
@given(shape_st, st.integers(0, 10_000))
def test_generic_conjugate_pairs_flagged_complex(shape, seed):
    rng = np.random.default_rng(seed)
    cert = ce.certify_border_rank2(conjugate_pair(rng, shape))
    assert cert.verdict == ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_rank_three_tensors_exceed(seed):
    rng = np.random.default_rng(seed)
    t = sum(tn.outer([rng.standard_normal(3) for _ in range(3)]) for _ in range(3))
    cert = ce.certify_border_rank2(t)
    assert cert.verdict == ce.Verdict.BORDER_RANK_EXCEEDS_TWO


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_rank_one_detected(seed):
    rng = np.random.default_rng(seed)
    t = tn.outer([rng.standard_normal(n) for n in (3, 2, 2)])
    assert ce.certify_border_rank2(t).verdict == ce.Verdict.RANK_AT_MOST_ONE


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 2, 2), (2, 2, 2, 2), (3, 3, 3)]), st.integers(0, 10_000))
def test_tangential_witness_hyperdets_vanish(shape, seed):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(n) for n in shape]
    ys = [rng.standard_normal(n) for n in shape]
    t = ce.tangential_witness(xs, ys)
    cert = ce.certify_border_rank2(t)
    scale = hd.hyperdet_zero_tol(t, 1e-7)
    for _label, value in cert.hyperdet_report.values:
        assert abs(value) <= scale
    assert cert.max_flattening_rank <= 2


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10_000))
def test_oracle_equivalence_symmetric_vs_tensor(d, seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d + 1)]
    else:
        # planted real pair: coefficients of a*l1^d + b*l2^d
        a, b = rng.randint(1, 4), rng.randint(-4, 4)
        r1, r2 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        coords = [a * r1 ** i + b * r2 ** i for i in range(d + 1)]
    f = tn.SymTensorCoords(2, d, {(d - i, i): c for i, c in enumerate(coords)})
    sym = ce.certify_symmetric(f)
    full = ce.certify_border_rank2(tn.sym_to_tensor(f))
    assert sym.verdict == full.verdict


small_st = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
scale_st = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def exact_coords(draw, nvec: int, products):
    """Exact coordinates: free entries, or a planted rank-one term, real pair
    or conjugate pair.  products(re, im) lists, one per coordinate, the
    product of components of the vector re + i*im (length nvec) it takes."""
    kind = draw(st.sampled_from(["free", "rank one", "real pair", "conjugate pair"]))
    if kind == "free":
        size = len(products([0] * nvec, [0] * nvec))
        return draw(st.lists(small_st, min_size=size, max_size=size))
    vector = st.lists(st.integers(-3, 3), min_size=nvec, max_size=nvec)
    re1, im1, re2 = draw(vector), draw(vector), draw(vector)
    if kind == "conjugate pair":
        # twice the real part of Gaussian-integer products: exact in floats
        return [2 * int(z.real) for z in products(re1, im1)]
    w1, w2 = draw(st.integers(1, 3)), 0 if kind == "rank one" else draw(st.integers(-3, 3))
    zero = [0] * nvec
    return [w1 * int(p.real) + w2 * int(q.real)
            for p, q in zip(products(re1, zero), products(re2, zero))]


def _signature(cert: ce.Certificate) -> tuple:
    report = cert.hyperdet_report
    return (cert.verdict, cert.flattening_ranks, report.num_positive, report.num_zero,
            report.num_negative, report.argmin)


@settings(max_examples=60, deadline=None)
@given(shape_st, st.data(), scale_st)
def test_exact_tensor_certificate_is_invariant_under_positive_scaling(shape, data, c):
    cuts = np.cumsum(shape)[:-1]

    def products(re, im):
        modes = np.split(np.array(re) + 1j * np.array(im), cuts)
        return tn.outer(modes).ravel().tolist()

    t = np.array(data.draw(exact_coords(sum(shape), products)), dtype=object).reshape(shape)
    assert _signature(ce.certify_border_rank2(t * c)) == _signature(ce.certify_border_rank2(t))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, d) for d in range(1, 7)] + [(3, d) for d in range(1, 5)]),
       st.data(), scale_st)
def test_exact_symmetric_certificate_is_invariant_under_positive_scaling(nd, data, c):
    n, d = nd
    degrees = tn.multidegrees(n, d)

    def products(re, im):
        z = [complex(a, b) for a, b in zip(re, im)]
        return [math.prod(z[k] ** e for k, e in enumerate(u)) for u in degrees]

    f = tn.SymTensorCoords(n, d, dict(zip(degrees, data.draw(exact_coords(n, products)))))
    scaled = tn.SymTensorCoords(n, d, {u: c * v for u, v in f.coeffs.items()})
    assert _signature(ce.certify_symmetric(scaled)) == _signature(ce.certify_symmetric(f))


def test_exact_tensor_of_numpy_ints_certifies_like_python_ints():
    entries = [Fraction(1, 2), 0, 0, -2, 0, -2, -2, 0]
    python_ints = np.array(entries, dtype=object).reshape(2, 2, 2)
    numpy_ints = np.array([v if isinstance(v, Fraction) else np.int64(v) for v in entries],
                          dtype=object).reshape(2, 2, 2)
    assert ce.certify_border_rank2(numpy_ints).to_json() == ce.certify_border_rank2(python_ints).to_json()


@pytest.mark.parametrize("exact", [False, True])
def test_certificate_json_equality_sees_every_subblock_value(exact):
    """to_json() compares by its content: a certificate that differs from
    another in one sub-block value alone has unequal JSON, and the JSON
    survives a round trip through text.  This keeps the to_json()
    comparisons of other tests (numpy ints against Python ints) meaningful."""
    t = real_pair(np.random.default_rng(31), (2, 2, 3))
    if exact:
        t = np.array([Fraction(round(v * 8), 8) for v in t.ravel()], dtype=object).reshape(t.shape)
    cert = ce.certify_border_rank2(t)
    payload = cert.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload == json.loads(json.dumps(payload))
    report = cert.hyperdet_report
    for i, (label, value) in enumerate(report.values):
        values = list(report.values)
        values[i] = (label, value + 1 if exact else math.nextafter(value, math.inf))
        changed = hd.HyperdetReport(values, report.min_value, report.argmin, report.num_positive,
                                    report.num_zero, report.num_negative, report.zero_tol)
        other = ce.Certificate(cert.flattening_ranks, cert.max_flattening_rank, changed, cert.verdict,
                               cert.tolerances).to_json()
        assert other != payload and payload != other
        assert not other == payload
        assert other["hyperdet"]["values"] != payload["hyperdet"]["values"]
        assert other["hyperdet"]["values"] != json.loads(json.dumps(payload))["hyperdet"]["values"]
        assert other["hyperdet"]["values"] != [] and other["hyperdet"]["values"] != ()
        del other["hyperdet"]["values"], payload["hyperdet"]["values"]
        assert other == payload  # nothing else differs
        payload = cert.to_json()


def test_conjugate_fixture_golden():
    t = tn.tensor((2, 2, 2), [2, 0, 0, -2, 0, -2, -2, 0])
    cert = ce.certify_border_rank2(t)
    assert cert.verdict == ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER
    assert cert.hyperdet_report.min_value == -64
    assert cert.max_flattening_rank == 2


def test_diagonal_boundary_tensor_golden():
    # e1^(x)4 + e2^(x)4: all eight sub-hyperdets vanish exactly, every
    # flattening has rank two, and the verdict stays on the boundary even
    # though the true real rank is two (known over-caution of the test)
    cert = ce.certify_border_rank2(diagonal_2222())
    assert cert.verdict == ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY
    assert len(cert.hyperdet_report.values) == 8
    assert all(v == 0 for _k, v in cert.hyperdet_report.values)
    assert cert.max_flattening_rank == 2
    merged = [k for k in cert.flattening_ranks if k.count("_") == 2]
    assert len(merged) == 6


def test_merged_flattenings_catch_border_rank_three():
    # generic binary quartic: single-mode ranks are capped at 2 by shape,
    # only the merged two-mode flattening (the Hankel) sees rank three
    coords = [Fraction(c) for c in (-4, -1, -2, -1, -5)]
    f = tn.SymTensorCoords(2, 4, {(4 - i, i): c for i, c in enumerate(coords)})
    t = tn.sym_to_tensor(f)
    cert = ce.certify_border_rank2(t)
    assert cert.verdict == ce.Verdict.BORDER_RANK_EXCEEDS_TWO
    assert max(cert.flattening_ranks[k] for k in cert.flattening_ranks if k.count("_") == 1) == 2
    assert cert.max_flattening_rank == 3
    assert cert.hyperdet_report.num_negative == 0


def test_verdict_from_data_rederives_stored_certificates():
    rng = np.random.default_rng(5)
    for shape in SHAPES:
        for build in (real_pair, conjugate_pair):
            cert = ce.certify_border_rank2(build(rng, shape))
            singles = {k: v for k, v in cert.flattening_ranks.items() if k.count("_") == 1}
            merged = {k: v for k, v in cert.flattening_ranks.items() if k.count("_") == 2}
            again = ce.verdict_from_data(singles, merged or None, cert.hyperdet_report)
            assert again == cert.verdict


def test_matrix_fallback_via_squeezed_modes():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((1, 3, 1, 4))
    cert = ce.certify_border_rank2(t)
    assert cert.flattening_ranks.keys() == {"matrix"}
    assert cert.verdict in (ce.Verdict.REAL_RANK_TWO, ce.Verdict.BORDER_RANK_EXCEEDS_TWO)


def test_arity_too_small():
    with pytest.raises(tn.ArityTooSmall):
        ce.certify_border_rank2(np.zeros((3, 3)))


def test_symmetric_low_degree_forms():
    # degree <= 2 forms certify through the matrix path without error
    quad = tn.SymTensorCoords(2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(0), (0, 2): Fraction(1)})
    cert = ce.certify_symmetric(quad)
    assert cert.verdict == ce.Verdict.REAL_RANK_TWO
    lin = tn.SymTensorCoords(3, 1, {(1, 0, 0): Fraction(2), (0, 1, 0): Fraction(0), (0, 0, 1): Fraction(1)})
    assert ce.certify_symmetric(lin).verdict == ce.Verdict.RANK_AT_MOST_ONE


def test_exact_tolerances_recorded():
    cert = ce.certify_border_rank2(diagonal_2222())
    assert cert.tolerances["rank_tol"] == "exact"
    assert cert.hyperdet_report.zero_tol == 0


def test_certificate_json_round_trip():
    t = tn.tensor((2, 2, 2), [2, 0, 0, -2, 0, -2, -2, 0])
    cert = ce.certify_border_rank2(t)
    payload = json.loads(json.dumps(cert.to_json()))
    assert payload["verdict"] == "COMPLEX_RANK_TWO_REAL_RANK_HIGHER"
    assert payload["hyperdet"]["num_negative"] == 1
    assert payload["flattening_ranks"]["mode_1"] == 2


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_float_input_is_rejected(bad):
    t = np.ones((2, 2, 2))
    t[1, 0, 1] = bad
    with pytest.raises(tn.NonFiniteEntry):
        ce.certify_border_rank2(t)
    f = tn.SymTensorCoords(2, 3, {(3, 0): 1.0, (2, 1): 0.0, (1, 2): bad, (0, 3): 1.0})
    with pytest.raises(tn.NonFiniteEntry):
        ce.certify_symmetric(f)
    with pytest.raises(tn.NonFiniteEntry):
        tn.tensor([2, 2, 2], list(t.ravel()))
