"""Rank-two decomposition: round trips, kind agreement with the certifier
(dense and symmetric input, with no rank call beyond the certificate's),
rank-one projection geometry, plain ALS behavior, the Khatri-Rao
product against np.kron, and the stacked LAPACK calls and rotation search
against one call per matrix and one angle at a time."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realrank2 import certify as ce
from realrank2 import decompose as dc
from realrank2 import hyperdet as hd
from realrank2 import tensors as tn

from conftest import rotation_search_loop

SHAPES = [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 3), (4, 3, 3)]


def real_pair(rng: np.random.Generator, shape) -> np.ndarray:
    return tn.outer([rng.standard_normal(n) for n in shape]) \
        + tn.outer([rng.standard_normal(n) for n in shape])


def conjugate_pair(rng: np.random.Generator, shape) -> np.ndarray:
    factors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in shape]
    return np.real(tn.outer(factors) + tn.outer([f.conj() for f in factors]))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 10_000))
def test_real_pair_round_trip(shape, seed):
    rng = np.random.default_rng(seed)
    t = real_pair(rng, shape)
    dec = dc.decompose_rank2(t)
    assert dec.kind == dc.DecompositionKind.REAL_PAIR
    err = np.linalg.norm(dec.reconstruct() - t) / np.linalg.norm(t)
    assert err <= 1e-8
    assert dec.residual <= 1e-8


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 10_000))
def test_conjugate_pair_round_trip(shape, seed):
    rng = np.random.default_rng(seed)
    t = conjugate_pair(rng, shape)
    dec = dc.decompose_rank2(t)
    assert dec.kind == dc.DecompositionKind.CONJUGATE_PAIR
    err = np.linalg.norm(dec.reconstruct() - t) / np.linalg.norm(t)
    assert err <= 1e-8


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]), st.integers(0, 10_000))
def test_kind_agrees_with_certificate(shape, seed):
    rng = np.random.default_rng(seed)
    t = real_pair(rng, shape) if seed % 2 else conjugate_pair(rng, shape)
    cert = ce.certify_border_rank2(t)
    dec = dc.decompose_rank2(t)
    if cert.verdict == ce.Verdict.REAL_RANK_TWO:
        assert dec.kind == dc.DecompositionKind.REAL_PAIR
    elif cert.verdict == ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER:
        assert dec.kind == dc.DecompositionKind.CONJUGATE_PAIR


def test_orthogonal_two_term_golden():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    t[1, 1, 1] = 2.0
    dec = dc.decompose_rank2(t)
    assert dec.kind == dc.DecompositionKind.REAL_PAIR
    weights = sorted(round(abs(term.weight), 9) for term in dec.terms)
    assert weights == [1.0, 2.0]
    assert dec.residual <= 1e-12


def test_decompose_compresses_at_the_certificate_tolerance():
    # a second term 1e-10 the size of the first: every mode rank is 2 at
    # tol 1e-12, so the modes must be compressed to two columns at 1e-12 too
    rng = np.random.default_rng(3)
    a, b = [rng.standard_normal(2) for _ in range(3)], [rng.standard_normal(2) for _ in range(3)]
    t = tn.outer(a) + 1e-10 * tn.outer(b)
    cert = ce.certify_border_rank2(t, 1e-12)
    assert cert.verdict == ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY
    assert set(cert.flattening_ranks.values()) == {2}
    dec = dc.decompose_rank2(t, 1e-12)
    assert dec.kind == dc.DecompositionKind.REAL_PAIR
    assert dec.residual <= 1e-14
    weights = sorted(abs(term.weight) for term in dec.terms)
    assert weights[0] == pytest.approx(2.9e-10, rel=0.01) and weights[1] == pytest.approx(1.156, rel=0.001)
    with pytest.raises(dc.NotRankTwo):
        dc.decompose_rank2(t)  # at the default 1e-8 the second term is noise


def test_tangential_witness_decomposes_tangentially():
    xs = [np.array([1.0, 0.0])] * 3
    ys = [np.array([0.0, 1.0])] * 3
    t = ce.tangential_witness(xs, ys)  # the symmetric tensor of 3 s^2 t
    dec = dc.decompose_rank2(t)
    assert dec.kind == dc.DecompositionKind.TANGENTIAL
    assert np.linalg.norm(dec.reconstruct() - t) / np.linalg.norm(t) <= 1e-8


def chained_kron(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.kron(out, v)
    return out


finite = st.floats(allow_nan=False, allow_infinity=False)
real_vectors = st.lists(finite, min_size=1, max_size=3).map(np.array)
complex_vectors = st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=3).map(lambda v: np.array(v, dtype=complex))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(real_vectors, complex_vectors), min_size=1, max_size=9))
def test_khatri_rao_of_vectors_is_chained_kron(vectors):
    with np.errstate(all="ignore"):  # products may overflow; both sides alike
        assert dc._khatri_rao(vectors).tobytes() == chained_kron(vectors).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(1, 3))
def test_khatri_rao_of_matrices_is_chained_kron_per_column(data, rows, rank):
    mats = [np.array(data.draw(st.lists(finite, min_size=n * rank, max_size=n * rank))).reshape(n, rank)
            for n in rows]
    with np.errstate(all="ignore"):
        out = dc._khatri_rao(mats)
        columns = [chained_kron([m[:, r] for m in mats]) for r in range(rank)]
    assert out.shape == (int(np.prod(rows)), rank)
    for r in range(rank):
        assert out[:, r].tobytes() == columns[r].tobytes()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 10_000))
def test_best_rank_one_projection_formula(shape, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    term, distance = dc.best_rank_one(t)
    x = term.tensor().ravel()
    u = t.ravel()
    xx = float(x @ x)
    expected_sq = float(u @ u) - float(u @ x) ** 2 / xx
    assert abs(distance ** 2 - expected_sq) <= 1e-10 * (1.0 + float(u @ u))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(2, 2, 2), (3, 3, 3)]), st.integers(0, 10_000))
def test_best_rank_one_distance_monotone(shape, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    history: list[float] = []
    dc.best_rank_one(t, callback=history.append)
    assert all(b <= a + 1e-10 for a, b in zip(history, history[1:]))


def test_best_rank_one_of_diagonal_tensor():
    # e1^(x)4 + e2^(x)4: nearest rank-one term is either unit tensor,
    # at distance exactly 1
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, 0, 0] = 1.0
    t[1, 1, 1, 1] = 1.0
    term, distance = dc.best_rank_one(t)
    assert distance == pytest.approx(1.0, abs=1e-10)
    assert abs(abs(term.weight) - 1.0) <= 1e-10


def test_zero_tensor_raises():
    with pytest.raises(dc.ZeroTensor):
        dc.best_rank_one(np.zeros((2, 2, 2)))
    # decompose requires a rank-two certificate, which rank <= 1 inputs fail
    with pytest.raises(dc.NotRankTwo):
        dc.decompose_rank2(np.zeros((2, 2, 2)))


def test_tangential_sequences_converge_with_matching_signs():
    rng = np.random.default_rng(17)
    xs = [rng.standard_normal(2) for _ in range(3)]
    ys = [rng.standard_normal(2) for _ in range(3)]
    t = ce.tangential_witness(xs, ys)
    norm = np.linalg.norm(t)
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        a_eps, b_eps = dc.tangential_sequences(xs, ys, eps)
        errors.append(np.linalg.norm(a_eps - t) / norm)
        assert np.linalg.norm(b_eps - t) / norm <= 10.0 * eps
        # the approximants sit on opposite sides of the boundary
        tol_a = hd.hyperdet_zero_tol(a_eps, 1e-9)
        tol_b = hd.hyperdet_zero_tol(b_eps, 1e-9)
        assert all(v >= -tol_a for _k, v in hd.all_subhyperdets(a_eps).values)
        assert all(v <= tol_b for _k, v in hd.all_subhyperdets(b_eps).values)
    # error scales linearly in eps: fitted constant stays bounded
    cs = [err / eps for err, eps in zip(errors, (1e-2, 1e-3, 1e-4))]
    assert max(cs) <= 20.0 * min(cs) + 1e-9


def test_rank_three_raises_not_rank_two():
    rng = np.random.default_rng(3)
    t = sum(tn.outer([rng.standard_normal(3) for _ in range(3)]) for _ in range(3))
    with pytest.raises(dc.NotRankTwo):
        dc.decompose_rank2(t)


def test_decomposition_json_shapes():
    rng = np.random.default_rng(11)
    t = conjugate_pair(rng, (2, 2, 2))
    payload = dc.decompose_rank2(t).to_json()
    assert payload["kind"] == "CONJUGATE_PAIR"
    assert {"re", "im"} <= payload["terms"][0]["weight"].keys()
    assert isinstance(payload["residual"], float)


# ------------------------------------------- stacked LAPACK calls, bit for bit
# decompose stacks the SVDs of same-shape mode flattenings, the dets of the
# rotation search and the QRs of same-size orthogonal complements; each
# matrix must get the bits of its own call, or the printed digits move.

STACKED_SHAPES = [(2, 2, 2), (3, 3, 3), (2,) * 5, (4, 4, 4), (6, 6, 6), (4,) * 4, (2,) * 9, (2, 3, 4)]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("shape", STACKED_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_stacked_svd_gives_each_flattening_the_bits_of_its_own_call(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    tensors = [rng.standard_normal(shape) * 10.0 ** k for k in (-4, 0, 4)]
    tensors += [real_pair(rng, shape), conjugate_pair(rng, shape),
                ce.tangential_witness([rng.standard_normal(n) for n in shape],
                                      [rng.standard_normal(n) for n in shape])]
    for t in tensors:
        unfoldings = dc._unfoldings(t)
        for unfolding, (u, s) in zip(unfoldings, dc._mode_svds(unfoldings)):
            u1, s1, _ = np.linalg.svd(unfolding, full_matrices=False)
            assert _same_bits(u, u1) and _same_bits(s, s1)
        for group in dc._same_shapes(unfoldings):
            s_only = np.linalg.svd(np.stack([unfoldings[m] for m in group]), compute_uv=False)
            for m, s in zip(group, s_only):
                assert _same_bits(s, np.linalg.svd(unfoldings[m], compute_uv=False))


def test_stacked_det_gives_each_matrix_the_bits_of_its_own_call():
    rng = np.random.default_rng(29)
    for k in range(-160, 161, 8):
        stack = rng.standard_normal((8, 2, 2)) * 10.0 ** k
        stack[5] = np.outer(stack[5, 0], [1.0, 3.0])  # singular
        with np.errstate(all="ignore"):
            dets = np.linalg.det(stack)
            assert all(_same_bits(d, np.linalg.det(m)) for d, m in zip(dets, stack))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_stacked_qr_gives_each_matrix_the_bits_of_its_own_call(n):
    rng = np.random.default_rng(n)
    xs = rng.standard_normal((5, n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    stack = np.stack([np.column_stack([x, np.eye(n)]) for x in xs])
    qs, rs = np.linalg.qr(stack)
    for x, q, r in zip(xs, qs, rs):
        q1, r1 = np.linalg.qr(np.column_stack([x, np.eye(n)]))
        assert _same_bits(q, q1) and _same_bits(r, r1)
    assert all(_same_bits(c, q[:, 1:n]) for c, q in zip(dc._orth_complements(list(xs)), qs))


def _pencils():
    rng = np.random.default_rng(41)
    out = [(rng.standard_normal((2, 2)) * 10.0 ** k, rng.standard_normal((2, 2)) * 10.0 ** k)
           for k in range(-6, 7) for _ in range(4)]
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    out.append((np.eye(2), rotation))  # every angle scores about 1
    # at seed 3542 two angles tie only when the squared norm is the scalar
    # power (a stacked square rounds one of them apart)
    out.append((1.356045991583029 * np.eye(2), 1.6918951212294024 * rotation))
    out.append((np.array([[1e160, 2e160], [3e160, -1e160]]), np.eye(2)))  # NaN at theta = 0
    # finite at theta = 0, NaN once s * M1 overflows the squared norm
    out += [(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)) * 1.2e154) for _ in range(4)]
    return out


def _rotations(seed: int) -> np.ndarray:
    """The angles of ROTATIONS drawn from default_rng(seed) instead of 1729."""
    return np.concatenate([[0.0], np.random.default_rng(seed).uniform(0.0, np.pi, size=7)])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 3542, 1729])
def test_rotation_search_equals_the_per_angle_loop_bit_for_bit(monkeypatch, seed):
    """At 1729 the module's own ROTATIONS, which the loop draws to the bit;
    at the other seeds ROTATIONS patched to their angles."""
    if seed != 1729:
        monkeypatch.setattr(dc, "ROTATIONS", _rotations(seed))
    for m0, m1 in _pencils():
        with np.errstate(all="ignore"):
            got = dc._rotation_search(m0, m1)
            want = rotation_search_loop(m0, m1, np.random.default_rng(seed))
        assert all(_same_bits(g, w) for g, w in zip(got, want))


def test_rotation_search_keeps_a_nan_first_score(monkeypatch):
    monkeypatch.setattr(dc, "ROTATIONS", _rotations(0))
    with np.errstate(all="ignore"):
        m0r, m1r, c, s = dc._rotation_search(np.array([[1e160, 2e160], [3e160, -1e160]]), np.eye(2))
    assert (c, s) == (1.0, 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_singular_pencil_raises_as_the_per_angle_loop_does(monkeypatch, seed):
    monkeypatch.setattr(dc, "ROTATIONS", _rotations(seed))
    m0, m1 = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([[3.0, 0.0], [5.0, 0.0]])
    with pytest.raises(dc.IllConditioned) as got:
        dc._rotation_search(m0, m1)
    with pytest.raises(dc.IllConditioned) as want:
        rotation_search_loop(m0, m1, np.random.default_rng(seed))
    assert str(got.value) == str(want.value)


def test_tangential_sequences_reject_mismatched_vectors():
    with pytest.raises(ce.DimensionMismatch):
        dc.tangential_sequences([np.ones(2)] * 3, [np.ones(2)] * 2, 0.1)
    with pytest.raises(ce.DimensionMismatch):
        dc.tangential_sequences([np.ones(2)] * 3, [np.ones(2)] * 2 + [np.ones(3)], 0.1)


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 3)])
def test_exact_decompose_compresses_each_mode_to_its_exact_rank(shape):
    # 1e9 e1^3 + e_last^3: every exact mode rank is 2, but each float mode
    # reads sigma_2 / sigma_1 = 1e-9, below the default tol
    t = np.zeros(shape, dtype=object)
    t[0, 0, 0] = 10 ** 9
    t[tuple(n - 1 for n in shape)] = 1
    cert = ce.certify_border_rank2(t)
    assert cert.verdict == ce.Verdict.REAL_RANK_TWO
    assert set(cert.flattening_ranks.values()) == {2}
    dec = dc.decompose_rank2(t)
    assert dec.kind == dc.DecompositionKind.REAL_PAIR
    assert dec.residual == 0.0
    assert sorted(term.weight for term in dec.terms) == [1.0, 1e9]
    with pytest.raises(dc.NotRankTwo):
        dc.decompose_rank2(tn.to_float(t))  # float input is compressed by its singular values


def _power_coords(n: int, d: int, a) -> list:
    """Coordinates of (a . x)^d: the coordinate of multidegree u is prod a_i^u_i."""
    return [np.prod([a[i] ** e for i, e in enumerate(u)]) for u in tn.multidegrees(n, d)]


@st.composite
def symmetric_records(draw):
    """Binary forms of degree 3-6 and ternary cubics and quartics, exact or
    float: a power, a real or conjugate pair of powers, a tangent l^(d-1) m,
    a power plus 10^-k times another, or integer coordinates at random."""
    n, d = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    a, b = draw(vector), draw(vector)
    family = draw(st.sampled_from(["power", "real", "conjugate", "tangent", "near", "random"]))
    if family == "power":
        coords = _power_coords(n, d, a)
    elif family == "real":
        w = draw(st.sampled_from([1, -1, 2]))
        coords = [x + w * y for x, y in zip(_power_coords(n, d, a), _power_coords(n, d, b))]
    elif family == "conjugate":
        coords = [round(2 * z.real) for z in _power_coords(n, d, [p + 1j * q for p, q in zip(a, b)])]
    elif family == "tangent":
        coords = [sum(u[i] * b[i] * np.prod([a[k] ** (e - (k == i)) for k, e in enumerate(u)])
                      for i in range(n) if u[i]) for u in tn.multidegrees(n, d)]
    elif family == "near":
        eps = 10.0 ** -draw(st.integers(3, 12))
        coords = [x + eps * y for x, y in zip(_power_coords(n, d, a), _power_coords(n, d, b))]
    else:
        coords = draw(st.lists(st.integers(-5, 5), min_size=len(tn.multidegrees(n, d)),
                               max_size=len(tn.multidegrees(n, d))))
    exact = family != "near" and draw(st.booleans())
    return tn.SymTensorCoords(n, d, [int(x) if exact else float(x) for x in coords])


@settings(max_examples=200, deadline=None)
@given(symmetric_records())
def test_symmetric_record_is_refused_exactly_when_its_certificate_excludes_rank_two(f):
    verdict = ce.certify_symmetric(f).verdict
    if verdict not in dc._ALLOWED:
        with pytest.raises(dc.NotRankTwo, match=f"^certificate verdict {verdict.value}$"):
            dc.decompose_rank2(f)
        return
    try:
        dec = dc.decompose_rank2(f)
    except dc.IllConditioned:
        return
    assert dec.residual < 1e-6


def _count_rank_calls(monkeypatch, call) -> tuple[int, int]:
    """How many tensors.matrix_rank and exactsolve.exact_rank calls call() makes."""
    counts = {"matrix_rank": 0, "exact_rank": 0}
    for name in counts:
        inner = getattr(tn, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(tn, name, counted)
    call()
    monkeypatch.undo()
    return counts["matrix_rank"], counts["exact_rank"]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 4), (1, 3, 3, 1), (2, 2, 2, 2)])
def test_decompose_makes_only_the_rank_calls_of_its_certificate(monkeypatch, shape, exact):
    """decompose_rank2 reads each mode's rank from its certificate, so it
    ranks nothing that certify_border_rank2 alone does not."""
    rng = np.random.default_rng(11)
    t = sum(tn.outer([rng.integers(1, 9, n) * (-1) ** rng.integers(0, 2, n) for n in shape]) for _ in range(2))
    t = t.astype(object) if exact else t.astype(float)
    assert ce.certify_border_rank2(t).verdict == ce.Verdict.REAL_RANK_TWO
    certified = _count_rank_calls(monkeypatch, lambda: ce.certify_border_rank2(t))
    assert certified[0] > 0 and (certified[1] > 0) == exact
    assert _count_rank_calls(monkeypatch, lambda: dc.decompose_rank2(t)) == certified
