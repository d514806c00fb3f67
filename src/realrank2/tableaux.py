"""Quadrics vanishing on the tangential variety of a Veronese variety.

Generators are indexed by two-row tableaux (mu, nu) with mu weakly
increasing of length 2d-k, nu weakly increasing of length k, and
mu_i < nu_i columnwise.  Each tableau maps to a bihomogeneous target
polynomial in parameters (a, b); its unique quadratic preimage under
x_u -> a^u + b^u is the generator.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .exactsolve import Inconsistent, exact_rank
from .multipoly import MultiPoly, times
from .tensors import multidegrees


class BadShape(ValueError):
    pass


class NonIntegral(ArithmeticError):
    pass


class DegreeTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class TwoRowTableau:
    n: int
    d: int
    k: int
    mu: tuple[int, ...]
    nu: tuple[int, ...]

    def __post_init__(self):
        _check_shape(self.n, self.d, self.k)
        if len(self.mu) != 2 * self.d - self.k or len(self.nu) != self.k:
            raise BadShape("row lengths must be 2d-k and k")
        rows = self.mu + self.nu
        if any(not 1 <= v <= self.n for v in rows):
            raise BadShape(f"entries must lie in 1..{self.n}")
        if any(a > b for a, b in zip(self.mu, self.mu[1:])):
            raise BadShape("mu must be weakly increasing")
        if any(a > b for a, b in zip(self.nu, self.nu[1:])):
            raise BadShape("nu must be weakly increasing")
        if any(m >= v for m, v in zip(self.mu, self.nu)):
            raise BadShape("columns must increase strictly")

    def label(self) -> str:
        return "f_" + "".join(map(str, self.mu)) + "_" + "".join(map(str, self.nu))


@dataclass(frozen=True)
class QuadricGenerator:
    tableau: TwoRowTableau
    polynomial: MultiPoly


def _check_shape(n: int, d: int, k: int) -> None:
    if n < 2 or d < 1 or k < 0 or k > d or k % 2 != 0:
        raise BadShape(f"need n >= 2, d >= 1 and even 0 <= k <= d, got {(n, d, k)}")


def enumerate_tableaux(n: int, d: int, k: int) -> list[TwoRowTableau]:
    """All tableaux for (n, d, k), lexicographic in (mu, nu)."""
    _check_shape(n, d, k)
    out = []
    for mu in itertools.combinations_with_replacement(range(1, n + 1), 2 * d - k):
        for nu in itertools.combinations_with_replacement(range(1, n + 1), k):
            if all(m < v for m, v in zip(mu, nu)):
                out.append(TwoRowTableau(n, d, k, mu, nu))
    return out


def hook_length_dim(n: int, d: int, k: int) -> int:
    """Tableau count for shape (2d-k, k), by the hook length formula."""
    _check_shape(n, d, k)
    value = Fraction(1)
    for i in range(1, k + 1):
        value *= Fraction(n - 1 + i, 2 * d + 2 - k - i)
    for i in range(k + 1, 2 * d - k + 1):
        value *= Fraction(n - 1 + i, 2 * d + 1 - k - i)
    for j in range(1, k + 1):
        value *= Fraction(n - 2 + j, k + 1 - j)
    if value.denominator != 1:
        raise NonIntegral(f"hook length formula gave {value} for {(n, d, k)}")
    return int(value)


def _param_variables(n: int) -> list[str]:
    return [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]


def target_polynomial(t: TwoRowTableau) -> MultiPoly:
    """Expand the tableau's polynomial in the 2n parameters a, b: the product
    of the column brackets a_m b_v - a_v b_m with the sum, over the ways to
    send d - k tail entries of mu to a and the rest to b, of the monomials."""
    n = t.n
    poly = {(0,) * (2 * n): 1}
    for m, v in zip(t.mu, t.nu):
        am_bv = [0] * (2 * n)
        am_bv[m - 1] += 1
        am_bv[n + v - 1] += 1
        av_bm = [0] * (2 * n)
        av_bm[v - 1] += 1
        av_bm[n + m - 1] += 1
        poly = times(poly, {tuple(am_bv): 1, tuple(av_bm): -1})
    tail = t.mu[t.k:]
    total: dict[tuple[int, ...], int] = {}
    for picks in itertools.combinations(range(len(tail)), t.d - t.k):
        exps = [0] * (2 * n)
        chosen = set(picks)
        for j, entry in enumerate(tail):
            exps[entry - 1 + (0 if j in chosen else n)] += 1
        total[tuple(exps)] = total.get(tuple(exps), 0) + 1
    return MultiPoly(_param_variables(n), times(poly, total))


def coordinate_name(u: Sequence[int]) -> str:
    """x_u for multidegree u; rational normal curves use the short x_i form."""
    if len(u) == 2:
        return f"x{u[1]}"
    if all(c <= 9 for c in u):
        return "x" + "".join(map(str, u))
    return "x" + "_".join(map(str, u))


def coordinate_variables(n: int, d: int) -> list[str]:
    return [coordinate_name(u) for u in multidegrees(n, d)]


def secant_point(a: Sequence, b: Sequence, d: int) -> list[Fraction]:
    """Coordinates x_u = a^u + b^u of a point on the secant variety."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    out = []
    for u in multidegrees(len(a), d):
        xa = Fraction(1)
        xb = Fraction(1)
        for base_a, base_b, e in zip(a, b, u):
            xa *= base_a ** e
            xb *= base_b ** e
        out.append(xa + xb)
    return out


def tangential_point(a: Sequence, b: Sequence, d: int) -> list[Fraction]:
    """Coordinates of the form (a.t)^(d-1) (b.t), a point of the tangential
    variety: x_u = sum_j binom(d-1, u - e_j) a^(u - e_j) b_j / binom(d, u)."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    n = len(a)
    out = []
    for u in multidegrees(n, d):
        denom = comb_multi(d, u)
        acc = Fraction(0)
        for j in range(n):
            if u[j] == 0:
                continue
            w = list(u)
            w[j] -= 1
            term = Fraction(comb_multi(d - 1, w))
            for base, e in zip(a, w):
                term *= base ** e
            acc += term * b[j]
        out.append(acc / denom)
    return out


def comb_multi(d: int, u: Sequence[int]) -> int:
    """Multinomial coefficient binom(d; u)."""
    out = 1
    rest = d
    for e in u:
        out *= comb(rest, e)
        rest -= e
    return out


def pushforward(quadric: MultiPoly, n: int, d: int) -> dict[tuple[int, ...], Fraction]:
    """Terms of a quadric in the x_u under x_u -> a^u + b^u, keyed by exponent
    vectors over (a1..an, b1..bn), zero coefficients dropped."""
    coords = multidegrees(n, d)
    zero = (0,) * n
    push: dict[tuple[int, ...], Fraction] = {}
    for key, c in quadric.terms.items():
        u, v = (coords[i] for i, e in enumerate(key) for _ in range(e))
        uv = tuple(x + y for x, y in zip(u, v))
        # c x_u x_v -> c (a^(u+v) + a^u b^v + a^v b^u + b^(u+v))
        for e in (uv + zero, u + v, v + u, zero + uv):
            push[e] = push.get(e, 0) + c
    return {e: c for e, c in push.items() if c}


def preimage_quadric(t: TwoRowTableau, allow_k2: bool = False) -> QuadricGenerator:
    """The unique quadric in the x_u mapping to the tableau's polynomial.

    Every monomial of the target is a^u b^v with |u| = |v| = d, so the
    mixed part of sum c_uv (a^u + b^u)(a^v + b^v) determines the c_uv
    directly; the full pushforward is then compared with the target
    exactly and a mismatch (which would contradict uniqueness of the
    preimage) raises Inconsistent naming one differing exponent.
    """
    if t.k < 4 and not (allow_k2 and t.k == 2):
        raise BadShape("preimages vanish on the tangential variety only for k >= 4")
    n, d = t.n, t.d
    target = target_polynomial(t)
    index = {u: i for i, u in enumerate(multidegrees(n, d))}
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in target.terms.items():
        u, v = exps[:n], exps[n:]
        if u > v:
            continue
        key = [0] * len(index)
        key[index[u]] += 1
        key[index[v]] += 1
        terms[tuple(key)] = coeff / 2 if u == v else coeff
    quadric = MultiPoly(coordinate_variables(n, d), terms)
    push = pushforward(quadric, n, d)
    if push != target.terms:
        e = min(e for e in push.keys() | target.terms.keys()
                if push.get(e, 0) != target.terms.get(e, 0))
        raise Inconsistent(f"pushforward mismatch for {t.label()}: exponent {e} pushes to "
                           f"{push.get(e, 0)}, target has {target.terms.get(e, 0)}")
    return QuadricGenerator(t, quadric)


def quadric_basis(n: int, d: int) -> list[QuadricGenerator]:
    """Basis of the quadrics vanishing on the tangential variety.

    Union over even k in {4..d}; normalized to integer coefficients with
    content one and positive leading coefficient; exact linear
    independence of the result is checked.
    """
    if d <= 3:
        raise DegreeTooSmall("no quadrics vanish on the tangential variety for d <= 3")
    gens = []
    for k in range(4, d + 1, 2):
        for t in enumerate_tableaux(n, d, k):
            g = preimage_quadric(t)
            gens.append(QuadricGenerator(t, g.polynomial.normalized()))
    monomials = sorted({e for g in gens for e in g.polynomial.terms})
    rows = [[g.polynomial.terms.get(e, Fraction(0)) for e in monomials] for g in gens]
    rank = exact_rank(rows)
    if rank != len(gens):
        raise Inconsistent(f"quadric basis for (n={n}, d={d}) is linearly dependent: "
                           f"rank {rank} of {len(gens)} generators")
    return gens
