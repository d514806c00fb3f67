"""Border-rank-two certificates: verdict soundness, oracle equivalence,
goldens for the named fixture tensors."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import binary_forms as bf
from realrank2 import certify as ce
from realrank2 import hyperdet as hd
from realrank2 import jsontext
from realrank2 import tensors as tn
from realrank2.exactsolve import exact_rank

from conftest import dense_flattening_ranks, discriminant_quartic

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
    f = tn.SymTensorCoords(2, d, coords)
    sym = ce.certify_symmetric(f)
    full = ce.certify_border_rank2(tn.sym_to_tensor(f))
    assert sym.verdict == full.verdict


def _label_modes(label: str) -> tuple[int, ...]:
    """Row modes of a certificate's flattening label: the Hankel matrix of a
    binary form is its merged flattening on the first two modes."""
    return (0, 1) if label == "hankel" else tuple(int(m) - 1 for m in label.split("_")[1:])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(3, 6), st.data())
def test_catalecticant_ranks_equal_dense_flattening_ranks(n, d, data):
    """An exact symmetric tensor of rank at most r = 1..4, sum of w_j v_j^(x)d
    over small integer vectors: every flattening rank of its certificate is
    the rank of that flattening of the dense tensor."""
    r = data.draw(st.integers(1, 4))
    vectors = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=r, max_size=r))
    weights = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=r, max_size=r))
    f = tn.SymTensorCoords(n, d, [sum(w * math.prod(map(pow, v, u)) for w, v in zip(weights, vectors))
                                  for u in tn.multidegrees(n, d)])
    ranks = ce.certify_symmetric(f).flattening_ranks
    singles = [(m,) for m in range(d)]
    pairs = [tuple(p) for p in itertools.combinations(range(d), 2)] if d >= 4 else []
    assert list(map(_label_modes, ranks)) == ([(0, 1)] if n == 2 else singles + pairs)
    assert list(ranks.values()) == dense_flattening_ranks(f, list(map(_label_modes, ranks)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 4]), st.integers(3, 6), st.integers(0, 10_000), st.sampled_from([1e-3, 1.0, 1e3]))
def test_weighted_catalecticant_has_the_dense_flattening_singular_values(n, d, seed, scale):
    """A float catalecticant weighted by the square roots of its rows' and
    columns' multinomial counts has the dense flattening's singular values,
    up to the one positive factor that keeps the weights at most 1."""
    rng = np.random.default_rng(seed)
    degrees = tn.multidegrees(n, d)
    f = tn.SymTensorCoords(n, d, (scale * rng.standard_normal(len(degrees))).tolist())
    t = tn.sym_to_tensor(f)
    cats, _ = ce._symmetric_plan(n, d)
    x = np.array(f.coords)
    for index, weights, labels in cats:
        s = np.linalg.svd(x[index] * weights, compute_uv=False)
        dense = np.linalg.svd(tn.flatten(t, _label_modes(labels[0])), compute_uv=False)
        np.testing.assert_allclose(s * (dense[0] / s[0]), dense[:len(s)], rtol=0, atol=1e-12 * dense[0])
        assert np.all(dense[len(s):] <= 1e-12 * dense[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 400), st.integers(1, 3), st.integers(0, 10_000))
def test_float_binary_form_rank_is_the_unweighted_hankel_rank(d, r, seed):
    """A float binary form is ranked on its Hankel matrix as it stands, the
    rank `binary-form` prints, at every degree: weighting it like the dense
    flattening would sink its end entries below the relative tolerance."""
    rng = np.random.default_rng(seed)
    form = bf.BinaryForm(d, sum(w * np.array([a ** (d - i) * b ** i for i in range(d + 1)])
                                for w, (a, b) in zip(rng.choice([-2.0, -1.0, 1.0, 3.0], r),
                                                     rng.uniform(-1, 1, (r, 2)))).tolist())
    assert ce.certify_symmetric(form).flattening_ranks == {"hankel": tn.matrix_rank(bf.hankel(form))}
    cats, _ = ce._symmetric_plan(2, d)
    assert [labels for _, _, labels in cats] == [("hankel",)] and np.all(cats[0][1] == 1)


def test_symmetric_plan_is_read_only():
    """The cached plan is shared by every certificate of its (n, d): its
    containers are tuples, its arrays cannot be written to, and its quartics
    come in the sweep plan's form, a (4, q) intp index and a Column of
    labels (empty for d <= 2 and for n = 1)."""
    for n, d, q in [(2, 5, 3), (3, 4, 9), (3, 2, 0), (1, 3, 0)]:
        cats, quartics = ce._symmetric_plan(n, d)
        assert all(type(part) is tuple for part in (cats, quartics, *cats))
        index, labels = quartics
        assert index.shape == (4, q) and index.dtype == np.intp
        assert type(labels) is jsontext.Column and len(labels) == q
        for array in (index, *(a for cat in cats for a in cat[:2])):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0
        for _, _, labels in cats:
            assert type(labels) is tuple


# entries at both sides of INT64_SWEEP_BOUND (24898), the int64 bound of
# both kernels, and of 26754, the largest B with 18·B^4 <= 2^63 - 1, the
# discriminant's own; and past int64
QUARTIC_TOPS = [24898, 24899, 26754, 26755, 2**63]


@st.composite
def quartic_forms(draw):
    """Symmetric tensors of int, Fraction (thirds), mixed or float
    (sevenths, rounded) coordinates, some of them at ±top (or one less)
    for one top of QUARTIC_TOPS."""
    n, d = draw(st.sampled_from([(2, 3), (2, 4), (2, 6), (3, 3), (3, 4), (4, 3)]))
    kind = draw(st.sampled_from(["int", "fraction", "mixed", "float"]))
    top = draw(st.sampled_from(QUARTIC_TOPS))
    degrees = tn.multidegrees(n, d)
    numbers = draw(st.lists(st.one_of(st.integers(-5, 5), st.sampled_from([top, -top, top - 1, 1 - top])),
                            min_size=len(degrees), max_size=len(degrees)))
    thirds = draw(st.lists(st.booleans(), min_size=len(degrees), max_size=len(degrees)))
    coords = [v / 7 if kind == "float" else Fraction(v, 3) if kind == "fraction" or kind == "mixed" and third
              else v for v, third in zip(numbers, thirds)]
    return tn.SymTensorCoords(n, d, coords)


@settings(max_examples=120, deadline=None)
@given(quartic_forms())
def test_quartic_column_equals_the_scalar_oracle_in_value_and_type(f):
    """Every shifted discriminant of a symmetric certificate is the scalar
    D of its four raw coordinates, in value and in type (an int where all
    four are ints, a Fraction where one is, a float, bit for bit, for float
    coordinates), and the report counts and picks them as Python does."""
    report = ce.certify_symmetric(f).hyperdet_report
    at = dict(zip(tn.multidegrees(f.n, f.d), f.coords))
    want = []
    for p, q in itertools.combinations(range(f.n), 2):
        for i, w in enumerate(tn.multidegrees(f.n, f.d - 3)):
            four = [at[tuple(e + (3 - k) * (m == p) + k * (m == q) for m, e in enumerate(w))]
                    for k in range(4)]
            label = f"D{i}" if f.n == 2 else f"pair({p + 1},{q + 1})@" + ",".join(map(str, w))
            want.append((label, discriminant_quartic(four, 0)))
    assert list(report.values) == want
    assert [type(v) for _, v in report.values] == [type(v) for _, v in want]
    oracle = hd.report_from_column(want, [v for _, v in want], report.zero_tol)
    assert (report.min_value, report.argmin, report.num_positive, report.num_zero, report.num_negative) == (
        oracle.min_value, oracle.argmin, oracle.num_positive, oracle.num_zero, oracle.num_negative)
    assert type(report.min_value) is type(oracle.min_value)


@pytest.mark.parametrize("top, dtype", [(24898, np.int64), (24899, object), (26754, object), (26755, object),
                                        (2**63, object)])
def test_quartic_column_takes_int64_exactly_within_the_sweep_bound(monkeypatch, top, dtype):
    """One bound for both kernels: int64 up to INT64_SWEEP_BOUND, Python ints
    past it, although the discriminant alone would fit up to 26754."""
    assert hd.INT64_SWEEP_BOUND == 24898
    seen, kernel = [], hd.cubic_discriminant
    monkeypatch.setattr(hd, "cubic_discriminant", lambda *rows: seen.append(rows[0].dtype) or kernel(*rows))
    coords = [top, -top, 3, top, -1]
    report = ce.certify_symmetric(tn.SymTensorCoords(2, 4, coords))
    assert seen == [np.dtype(dtype)]
    want = [(f"D{i}", discriminant_quartic(coords, i)) for i in range(2)]
    assert list(report.hyperdet_report.values) == want
    assert all(type(v) is int for _, v in report.hyperdet_report.values)


def test_symmetric_certificate_never_expands_the_dense_tensor(monkeypatch):
    """certify_symmetric reads catalecticants for every n and d, exact or
    float, and never calls sym_to_tensor."""
    monkeypatch.setattr(tn, "sym_to_tensor", lambda f: pytest.fail("certify_symmetric expanded the tensor"))
    ce._symmetric_plan.cache_clear()
    for n in range(1, 5):
        for d in range(0, 7):
            coords = [Fraction(i % 5 - 2, 1 + i % 3) for i in range(len(tn.multidegrees(n, d)))]
            for f in (coords, [float(v) for v in coords]):
                assert ce.certify_symmetric(tn.SymTensorCoords(n, d, f)).verdict in ce.Verdict


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

    f = tn.SymTensorCoords(n, d, data.draw(exact_coords(n, products)))
    scaled = tn.SymTensorCoords(n, d, [c * v for v in f.coords])
    assert _signature(ce.certify_symmetric(scaled)) == _signature(ce.certify_symmetric(f))


def test_exact_tensor_of_numpy_ints_certifies_like_python_ints():
    entries = [Fraction(1, 2), 0, 0, -2, 0, -2, -2, 0]
    python_ints = np.array(entries, dtype=object).reshape(2, 2, 2)
    numpy_ints = np.array([v if isinstance(v, Fraction) else np.int64(v) for v in entries],
                          dtype=object).reshape(2, 2, 2)
    assert ce.certify_border_rank2(numpy_ints).to_json() == ce.certify_border_rank2(python_ints).to_json()


def _as_python_ints(t: np.ndarray) -> np.ndarray:
    return np.array(t.ravel().tolist(), dtype=object).reshape(t.shape)


def test_int64_tensor_certifies_exactly():
    # the float route reads this as rank one: sigma_2 / sigma_1 = 1e-9 is
    # below the relative tolerance, and 1e18 below the float zero test
    t = np.array([10**9, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64).reshape(2, 2, 2)
    cert = ce.certify_border_rank2(t)
    assert cert.verdict == ce.Verdict.REAL_RANK_TWO
    assert set(cert.flattening_ranks.values()) == {2}
    assert cert.tolerances == {"rank_tol": "exact", "hyperdet_zero_tol": 0}
    assert cert.hyperdet_report.values == [(cert.hyperdet_report.argmin, 10**18)]
    assert cert.to_json() == ce.certify_border_rank2(_as_python_ints(t)).to_json()


@pytest.mark.parametrize("t", [
    np.array([[[200, 0], [0, 3]], [[0, 7], [255, 1]]], dtype=np.uint8),
    np.array([True, False, False, False, False, False, False, True]).reshape(2, 2, 2),
], ids=["uint8", "bool-diagonal"])
def test_integer_and_boolean_dtypes_certify_like_python_ints(t):
    cert = ce.certify_border_rank2(t)
    assert cert.tolerances["rank_tol"] == "exact"
    assert cert.to_json() == ce.certify_border_rank2(_as_python_ints(t)).to_json()


# entries near the int64 sweep bound and near the int64 range's ends
NEAR_TOPS = [hd.INT64_SWEEP_BOUND, hd.INT64_SWEEP_BOUND + 1, tn.INT64_MAX]
near_int64_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda top, off, sign: sign * (top - off), st.sampled_from(NEAR_TOPS), st.integers(0, 2),
              st.sampled_from([1, -1])),
    st.just(-tn.INT64_MAX - 1),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2, 2), (2, 2, 3), (2, 2, 2, 2)]).flatmap(
    lambda shape: st.tuples(st.just(shape), st.lists(near_int64_entries, min_size=math.prod(shape),
                                                     max_size=math.prod(shape)))))
def test_exact_tensor_certifies_alike_as_fractions_python_ints_and_int64(drawn):
    shape, entries = drawn
    fractions = np.array([Fraction(v) for v in entries], dtype=object).reshape(shape)
    python_ints = np.array(entries, dtype=object).reshape(shape)
    int64 = np.array(entries, dtype=np.int64).reshape(shape)
    want = ce.certify_border_rank2(fractions).to_json()
    assert ce.certify_border_rank2(python_ints).to_json() == want
    assert ce.certify_border_rank2(int64).to_json() == want


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
    f = tn.SymTensorCoords(2, 4, coords)
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
    quad = tn.SymTensorCoords(2, 2, [Fraction(1), Fraction(0), Fraction(1)])
    cert = ce.certify_symmetric(quad)
    assert cert.verdict == ce.Verdict.REAL_RANK_TWO
    lin = tn.SymTensorCoords(3, 1, [Fraction(2), Fraction(0), Fraction(1)])
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
    f = tn.SymTensorCoords(2, 3, [1.0, 0.0, bad, 1.0])
    with pytest.raises(tn.NonFiniteEntry):
        ce.certify_symmetric(f)
    with pytest.raises(tn.NonFiniteEntry):
        tn.tensor([2, 2, 2], list(t.ravel()))


@pytest.mark.parametrize("top, sweep, stacks", [
    (hd.INT64_SWEEP_BOUND, np.int64, np.int64),
    (hd.INT64_SWEEP_BOUND + 1, object, np.int64),
    (tn.INT64_MAX + 1, object, object),
])
def test_exact_input_is_scaled_to_integers_once(monkeypatch, top, sweep, stacks):
    """A Fraction 2^4 whose entries scale, by 3, to ints of largest |entry|
    top: certification scales it in one pass of `tn.integers`, whose dtype,
    int64 within INT64_MAX and Python ints past it, tells the kernels the
    rest.  The sweep reads an int64 array's bound by numpy and takes int64
    exactly within INT64_SWEEP_BOUND, the flattening stacks stay in the
    scaled dtype, and neither calls the scaler again."""
    rng = random.Random(top)
    scaled = [rng.randint(-top, top) for _ in range(16)]
    scaled[rng.randrange(16)] = top
    t = np.array([Fraction(c, 3) for c in scaled], dtype=object).reshape((2,) * 4)
    scalings, sweeps, ranked = [], [], []
    integers, quartic, exact_matrix_rank = tn.integers, hd._quartic, tn.exact_matrix_rank
    monkeypatch.setattr(tn, "integers", lambda a: scalings.append(a.size) or integers(a))
    monkeypatch.setattr(hd, "_quartic", lambda *rows: sweeps.append(rows[0].dtype) or quartic(*rows))
    monkeypatch.setattr(tn, "exact_matrix_rank",
                        lambda stack: ranked.append(stack.dtype) or exact_matrix_rank(stack))
    cert = ce.certify_border_rank2(t)
    assert scalings == [16]
    assert sweeps == [np.dtype(sweep)] and ranked == [np.dtype(stacks)] * 2
    ints = np.array(scaled, dtype=object).reshape(t.shape)
    singles = [(m,) for m in range(4)]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert [cert.flattening_ranks[ce._mode_label(s)] for s in singles + pairs] == [
        exact_rank(tn.flatten(ints, s).tolist()) for s in singles + pairs]
    assert cert.hyperdet_report.values == hd.all_subhyperdets(ints).values


@pytest.mark.parametrize("xs, ys, message", [
    ([[1.0, 0.0]] * 3, [[0.0, 1.0]] * 2, "one direction vector per mode"),
    ([[1.0, 0.0]], [[0.0, 1.0]], "at least two modes"),
    ([[1.0, 0.0]] * 3, [[0.0, 1.0]] * 2 + [[0.0, 1.0, 0.0]], "must match per mode"),
    ([[1.0, 0.0]] * 2 + [[[1.0]]], [[0.0, 1.0]] * 2 + [[[1.0]]], "must match per mode"),
])
def test_tangential_witness_rejects_mismatched_vectors(xs, ys, message):
    with pytest.raises(ce.DimensionMismatch, match=message):
        ce.tangential_witness(xs, ys)
