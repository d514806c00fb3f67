"""Explicit rank-two decompositions and best rank-one approximations.

The decomposition works on a compressed 2x2x2 core: modes are grouped as
1 | 2 | rest, and the two slices along the best-conditioned core mode give
a pencil whose eigenvalues are real exactly when the core hyperdeterminant
is >= 0.  Distinct real eigenvalues produce a REAL_PAIR, complex-conjugate
eigenvalues a CONJUGATE_PAIR (one term stored, its conjugate implicit), and
a defective eigenvalue the TANGENTIAL limit form

    gamma * x_1 (x) .. (x) x_d  +  sum_m x_1 (x) .. y_m .. (x) x_d

with y_m orthogonal to x_m as gauge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import certify as ce
from . import tensors as tn

# ALS sweeps that polish a real or conjugate pair found from the pencil
POLISH_SWEEPS = 3
# best_rank_one's ALS: at most this many sweeps, ending once no factor moves by more than the step tol
RANK_ONE_MAX_SWEEPS = 200
RANK_ONE_STEP_TOL = 1e-12
# pencil rotations _rotation_search scores: the identity, then seven fixed uniform angles on [0, pi)
ROTATIONS = np.concatenate([[0.0], np.random.default_rng(1729).uniform(0.0, np.pi, size=7)])


class ZeroTensor(ValueError):
    pass


class NotRankTwo(ValueError):
    pass


class IllConditioned(RuntimeError):
    pass


class DecompositionKind(str, enum.Enum):
    REAL_PAIR = "REAL_PAIR"
    CONJUGATE_PAIR = "CONJUGATE_PAIR"
    TANGENTIAL = "TANGENTIAL"


def _vec_json(v: np.ndarray):
    if np.iscomplexobj(v):
        return {"re": [float(x) for x in v.real], "im": [float(x) for x in v.imag]}
    return [float(x) for x in v]


@dataclass
class RankOneTerm:
    """weight * factors[0] (x) ... (x) factors[d-1], unit-norm factors."""

    weight: float | complex
    factors: list[np.ndarray]

    def tensor(self) -> np.ndarray:
        return self.weight * tn.outer(self.factors)

    def to_json(self) -> dict:
        return {
            "weight": tn.num_json(self.weight),
            "factors": [_vec_json(f) for f in self.factors],
        }


@dataclass
class Rank2Decomposition:
    kind: DecompositionKind
    terms: list[RankOneTerm]
    residual: float
    tangent_directions: list[np.ndarray] | None = None

    def reconstruct(self) -> np.ndarray:
        if self.kind == DecompositionKind.CONJUGATE_PAIR:
            return 2.0 * self.terms[0].tensor().real
        if self.kind == DecompositionKind.TANGENTIAL:
            xs = self.terms[0].factors
            out = self.terms[0].tensor()
            for m, y in enumerate(self.tangent_directions):
                out = out + tn.outer([y if k == m else xs[k] for k in range(len(xs))])
            return out
        return sum(term.tensor() for term in self.terms)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind.value,
            "terms": [t.to_json() for t in self.terms],
            "residual": float(self.residual),
        }
        if self.tangent_directions is not None:
            out["tangent_directions"] = [_vec_json(y) for y in self.tangent_directions]
        return out


def _unfoldings(t: np.ndarray) -> list[np.ndarray]:
    """The mode-m flattening of t for every mode m."""
    return [tn.flatten(t, [m]) for m in range(t.ndim)]


def _same_shapes(arrays: Sequence[np.ndarray]) -> list[list[int]]:
    """Indices of the arrays grouped by shape, groups in first-seen order."""
    shapes = [a.shape for a in arrays]
    return [[i for i, s in enumerate(shapes) if s == shape] for shape in dict.fromkeys(shapes)]


def _mode_svds(unfoldings: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """U and the singular values of the thin SVD of every unfolding.  Those of
    one shape take one call on their C-contiguous stack, which gives each
    matrix the bits of its own call."""
    out = [None] * len(unfoldings)
    for group in _same_shapes(unfoldings):
        us, ss, _ = np.linalg.svd(np.stack([unfoldings[m] for m in group]), full_matrices=False)
        for m, u, s in zip(group, us, ss):
            out[m] = u, s
    return out


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product of (n_k, r) factor matrices, left to right.

    1-D vectors give their plain Kronecker product.  Every element is the
    product np.kron forms, in the same order (Kolda & Bader, SIAM Review
    51(3), 2009, section 2.6).
    """
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None] * m[None, :]).reshape((-1,) + out.shape[1:])
    return out


def best_rank_one(t: np.ndarray, callback: Callable[[float], None] | None = None) -> tuple[RankOneTerm, float]:
    """Best rank-one approximation by ALS from the HOSVD initialization.

    Returns the term and the distance; distance^2 = <u,u> - <u,x>^2 for the
    unit direction x of the returned term.
    """
    t = tn.to_float(t)
    norm2 = float(np.vdot(t, t).real)
    if norm2 == 0.0:
        raise ZeroTensor("cannot approximate the zero tensor")
    unfoldings = _unfoldings(t)
    factors = [u[:, 0].copy() for u, _ in _mode_svds(unfoldings)]
    overlap = 0.0
    for _ in range(RANK_ONE_MAX_SWEEPS):
        prev = [f.copy() for f in factors]
        for m in range(t.ndim):
            v = unfoldings[m] @ _khatri_rao([factors[k] for k in range(t.ndim) if k != m])
            nv = np.linalg.norm(v)
            if nv > 0:
                factors[m] = v / nv
        overlap = float(_khatri_rao(factors) @ t.ravel())
        if callback is not None:
            callback(float(np.sqrt(max(norm2 - overlap * overlap, 0.0))))
        if max(np.linalg.norm(f - p) for f, p in zip(factors, prev)) < RANK_ONE_STEP_TOL:
            break
    distance = float(np.sqrt(max(norm2 - overlap * overlap, 0.0)))
    return RankOneTerm(overlap, factors), distance


def _als_sweep(unfoldings: list[np.ndarray], mats: list[np.ndarray]) -> None:
    """One ALS sweep: refit each factor matrix in turn by least squares."""
    for m, unfolding in enumerate(unfoldings):
        k_mat = _khatri_rao([mats[k] for k in range(len(mats)) if k != m])
        sol, *_ = np.linalg.lstsq(k_mat, unfolding.T, rcond=None)
        mats[m] = sol.T


def _unit_terms(mats: list[np.ndarray]) -> list[RankOneTerm]:
    """Column r of every factor matrix as one term: unit factors, norms in the weight."""
    terms = []
    for r in range(mats[0].shape[1]):
        w = 1.0
        factors = []
        for mat in mats:
            f = mat[:, r]
            nf = np.linalg.norm(f)
            w *= nf
            factors.append(f / nf if nf > 0 else f)
        terms.append(RankOneTerm(w, factors))
    return terms


def _orth_complements(xs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal bases of the hyperplanes orthogonal to the unit vectors xs.

    Vectors of one size take one QR call on the stack of their matrices
    [x | I], which gives each the bits of its own call."""
    out = [None] * len(xs)
    for group in _same_shapes(xs):
        n = xs[group[0]].shape[0]
        q, _ = np.linalg.qr(np.stack([np.column_stack([xs[m], np.eye(n)]) for m in group]))
        for m, qm in zip(group, q):
            out[m] = qm[:, 1:n]
    return out


def _split_rank_one(vec: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """Peel a vectorized (near) rank-one tensor into unit factors per dim.

    Magnitude and phase accumulate in the last factor, which is returned
    unnormalized.
    """
    out = []
    v = vec
    for n in dims[:-1]:
        mat = v.reshape(n, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        out.append(u[:, 0])
        v = s[0] * vh[0, :]
    out.append(v)
    return out


def _rotation_search(m0: np.ndarray, m1: np.ndarray):
    """Slice combination (c*M0 + s*M1, -s*M0 + c*M1) with a well-conditioned
    first matrix, over the angles of ROTATIONS, the identity first.  The
    angles are scored at once, each to the bits of its own np.linalg.det and
    norm; the square stays a scalar power, which a stacked square does not
    round alike.  As in a sequential `score > best` scan, a NaN first score
    is kept."""
    cos, sin = np.cos(ROTATIONS)[:, None, None], np.sin(ROTATIONS)[:, None, None]
    n0 = cos * m0 + sin * m1
    rows = n0.reshape(len(ROTATIONS), -1)
    norms = np.sqrt(np.vecdot(rows, rows))
    scores = [d / max(n ** 2 / 2.0, 1e-300) for d, n in zip(np.abs(np.linalg.det(n0)), norms)]
    best = max(range(len(scores)), key=scores.__getitem__)
    if scores[best] < 1e-12:
        raise IllConditioned("all slice combinations of the pencil are singular")
    c, s = cos[best, 0, 0], sin[best, 0, 0]
    return n0[best], -s * m0 + c * m1, c, s


def _weights_real(t: np.ndarray, factor_sets: list[list[np.ndarray]]) -> list[float]:
    """Least-squares weights of the rank-one tensors, one per factor set."""
    a = _khatri_rao([np.column_stack(fs) for fs in zip(*factor_sets)])
    w, *_ = np.linalg.lstsq(a, t.ravel(), rcond=None)
    return [float(x) for x in w]


def _weight_conj(t: np.ndarray, factors: list[np.ndarray]) -> complex:
    z = _khatri_rao(factors)
    a = np.stack([2.0 * z.real, -2.0 * z.imag], axis=1)
    w, *_ = np.linalg.lstsq(a, t.ravel(), rcond=None)
    return complex(w[0], w[1])


def _polish_real(t: np.ndarray, unfoldings: list[np.ndarray], terms: list[RankOneTerm]) -> list[RankOneTerm]:
    # spread each weight evenly over its factors so the LS columns stay balanced
    scale = [abs(term.weight) ** (1.0 / t.ndim) for term in terms]
    sign = [1.0 if term.weight >= 0 else -1.0 for term in terms]
    mats = [np.stack([(sign[r] if m == 0 else 1.0) * scale[r] * terms[r].factors[m]
                      for r in range(2)], axis=1) for m in range(t.ndim)]
    for _ in range(POLISH_SWEEPS):
        _als_sweep(unfoldings, mats)
    factor_sets = [term.factors for term in _unit_terms(mats)]
    ws = _weights_real(t, factor_sets)
    return [RankOneTerm(w, fs) for w, fs in zip(ws, factor_sets)]


def _polish_conj(t: np.ndarray, unfoldings: list[np.ndarray], term: RankOneTerm) -> RankOneTerm:
    factors = [np.asarray(f, dtype=complex) for f in term.factors]
    w = complex(term.weight)
    for _ in range(POLISH_SWEEPS):
        for m, unfolding in enumerate(unfoldings):
            rest = w * _khatri_rao([factors[k] for k in range(t.ndim) if k != m])
            g = np.stack([2.0 * rest.real, -2.0 * rest.imag], axis=1)
            sol, *_ = np.linalg.lstsq(g, unfolding.T, rcond=None)
            z = sol[0, :] + 1j * sol[1, :]
            nz = np.linalg.norm(z)
            if nz > 0:
                factors[m] = z / nz
        w = _weight_conj(t, factors)
    return RankOneTerm(w, factors)


def _compress(tf: np.ndarray, unfoldings: list[np.ndarray], ranks: Sequence[int]):
    """Per-mode top column-space bases, the first ranks[m] left singular
    vectors of unfolding m of the float tf, and the core of tf in them."""
    bases = [u[:, :r] for (u, _), r in zip(_mode_svds(unfoldings), ranks)]
    core = tf
    for basis in bases:
        core = np.tensordot(core, basis, axes=([0], [0]))
    return bases, core


_ALLOWED = {
    ce.Verdict.REAL_RANK_TWO,
    ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER,
    ce.Verdict.REAL_BORDER_RANK_TWO_BOUNDARY,
}


def decompose_rank2(t: np.ndarray | tn.SymTensorCoords, tol: float = 1e-8) -> Rank2Decomposition:
    """Decompose a certified real (border) rank-two tensor: a dense array,
    certified by `certify_border_rank2`, or a symmetric record, expanded and
    then certified by `certify_symmetric`.  Each mode keeps its certified rank.

    Raises NotRankTwo when the certificate excludes (border) rank two, and
    IllConditioned when every slice combination of the pencil is singular.
    """
    if isinstance(t, tn.SymTensorCoords):
        record, t = t, tn.sym_to_tensor(t)
        if t.ndim < 3:
            raise tn.ArityTooSmall("certification needs an order >= 3 tensor")
        cert = ce.certify_symmetric(record, tol)
    else:
        cert = ce.certify_border_rank2(t, tol)
    if cert.verdict not in _ALLOWED:
        raise NotRankTwo(f"certificate verdict {cert.verdict.value}")
    tf = tn.to_float(t)

    unfoldings = _unfoldings(tf)
    bases, core = _compress(tf, unfoldings, ce.mode_ranks(cert, tf.shape))
    active = [m for m in range(tf.ndim) if bases[m].shape[1] == 2]
    if len(active) < 2:
        raise NotRankTwo("fewer than two modes with a two-dimensional span")
    core = core.reshape([2] * len(active))

    if len(active) == 2:
        u, s, vh = np.linalg.svd(core)
        factor_sets = []
        for i in range(2):
            factors = [bases[m][:, 0] for m in range(tf.ndim)]
            factors[active[0]] = bases[active[0]] @ u[:, i]
            factors[active[1]] = bases[active[1]] @ vh[i, :]
            factor_sets.append(factors)
        weights = _weights_real(tf, factor_sets)
        terms = [RankOneTerm(w, fs) for w, fs in zip(weights, factor_sets)]
        return _with_residual(DecompositionKind.REAL_PAIR, terms, tf)

    # group modes as 1 | 2 | rest and compress the merged rest to two columns
    grouped = core.reshape(2, 2, -1)
    merged_basis = None
    if grouped.shape[2] > 2:
        u, _, _ = np.linalg.svd(grouped.reshape(4, -1).T, full_matrices=False)
        merged_basis = u[:, :2]
        grouped = np.einsum("ijr,rs->ijs", grouped, merged_basis)

    # pencil slices along the best-conditioned mode of the 2x2x2 core
    sigma = np.linalg.svd(np.stack(_unfoldings(grouped)), compute_uv=False)
    p = int(np.argmax(sigma[:, 1]))
    m0 = np.take(grouped, 0, axis=p)
    m1 = np.take(grouped, 1, axis=p)
    m0r, m1r, c, s = _rotation_search(m0, m1)
    pencil = m1r @ np.linalg.inv(m0r)
    lam, _ = np.linalg.eig(pencil)
    gap = abs(lam[0] - lam[1])
    scale = 1.0 + max(abs(lam[0]), abs(lam[1]))
    rot_t = np.array([[c, -s], [s, c]])  # transpose of the slice rotation

    if gap < 1e-6 * scale:
        # defective pencil: its one eigenvector on each side gives the core point
        lam = float(lam.real.mean())
        x_rows = _null_vector(pencil - lam * np.eye(2))
        x_cols = _null_vector(m1r.T @ np.linalg.inv(m0r.T) - lam * np.eye(2))
        xs = _lift(bases, active, merged_basis, p, x_rows, x_cols, rot_t @ np.array([1.0, lam]))
        return _tangential_form(tf, xs)

    if abs(lam.imag).max() > 0.0:
        z = lam[0] if lam[0].imag > 0 else lam[1]
        x_mat = (m1r - np.conj(z) * m0r) / (z - np.conj(z))
        u, sv, vh = np.linalg.svd(x_mat)
        factors = _lift(bases, active, merged_basis, p, u[:, 0], vh[0, :], rot_t @ np.array([1.0, z]))
        term = _polish_conj(tf, unfoldings, RankOneTerm(_weight_conj(tf, factors), factors))
        return _with_residual(DecompositionKind.CONJUGATE_PAIR, [term], tf)

    lam = lam.real
    factor_sets = []
    for i in range(2):
        x_mat = (m1r - lam[1 - i] * m0r) / (lam[i] - lam[1 - i])
        u, sv, vh = np.linalg.svd(x_mat)
        factor_sets.append(_lift(bases, active, merged_basis, p, u[:, 0], vh[0, :],
                                 rot_t @ np.array([1.0, lam[i]])))
    weights = _weights_real(tf, factor_sets)
    terms = _polish_real(tf, unfoldings, [RankOneTerm(w, fs) for w, fs in zip(weights, factor_sets)])
    return _with_residual(DecompositionKind.REAL_PAIR, terms, tf)


def _lift(bases, active, merged_basis, p: int, x_rows: np.ndarray, x_cols: np.ndarray,
          x_pencil: np.ndarray) -> list[np.ndarray]:
    """Unit factors of the tensor for one rank-one point of the 2x2x2 core.

    The core point is x_rows, x_cols and the pencil factor x_pencil, placed
    around pencil mode p; the merged rest splits back into its modes.
    """
    g = [None, None, None]
    rows, cols = [q for q in range(3) if q != p]
    g[rows], g[cols], g[p] = x_rows, x_cols, x_pencil / np.linalg.norm(x_pencil)
    factors = [basis[:, 0].astype(g[2].dtype) for basis in bases]
    tail = merged_basis @ g[2] if merged_basis is not None else g[2]
    pieces = [g[0], g[1]] + _split_rank_one(tail, [2] * (len(active) - 2))
    for m, piece in zip(active, pieces):
        factors[m] = bases[m] @ piece
    return [f / np.linalg.norm(f) for f in factors]


def _with_residual(kind: DecompositionKind, terms: list[RankOneTerm], tf: np.ndarray,
                   tangent_directions: list[np.ndarray] | None = None) -> Rank2Decomposition:
    """The decomposition with its relative residual |tf - reconstruction| / |tf|."""
    dec = Rank2Decomposition(kind, terms, 0.0, tangent_directions)
    dec.residual = float(np.linalg.norm(tf - dec.reconstruct()) / np.linalg.norm(tf))
    return dec


def _null_vector(mat: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(mat)
    return vh[-1, :]


def _tangential_form(tf: np.ndarray, xs: list[np.ndarray]) -> Rank2Decomposition:
    """Fit gamma*(x)x + sum_m x..y_m..x with y_m _|_ x_m at the unit factors xs."""
    complements = _orth_complements(xs)
    slots = [(m, j) for m in range(tf.ndim) for j in range(complements[m].shape[1])]
    tangents = [[complements[m][:, j] if k == m else x for k, x in enumerate(xs)] for m, j in slots]
    coefs = _weights_real(tf, [xs] + tangents)
    ys = [np.zeros(n) for n in tf.shape]
    for coef, (m, j) in zip(coefs[1:], slots):
        ys[m] = ys[m] + coef * complements[m][:, j]
    return _with_residual(DecompositionKind.TANGENTIAL, [RankOneTerm(coefs[0], xs)], tf, ys)


def tangential_sequences(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray],
                         eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Secant approximants of the tangent tensor sum_m x_1..y_m..x_d.

    a(eps) is a difference of two real rank-one tensors (all sub-block
    hyperdeterminants >= 0); b(eps) is a scaled conjugate pair (all <= 0).
    Both converge to the tangent tensor, at rates O(eps) and O(eps^2).
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    if len(xs) != len(ys) or any(x.shape != y.shape for x, y in zip(xs, ys)):
        raise ce.DimensionMismatch("need matching x and y vectors per mode")
    a = (tn.outer([x + eps * y for x, y in zip(xs, ys)]) - tn.outer(xs)) / eps
    b = tn.outer([x + 1j * eps * y for x, y in zip(xs, ys)]).imag / eps
    return a, b
