"""Quadrics vanishing on the tangential variety of a Veronese variety.

Generators are indexed by two-row tableaux (mu, nu) with mu weakly
increasing of length 2d-k, nu weakly increasing of length k, and
mu_i < nu_i columnwise.  Each tableau maps to a bihomogeneous target
polynomial in parameters (a, b); its unique quadratic preimage under
x_u -> a^u + b^u is the generator.  All arithmetic is exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from operator import add
from typing import Sequence

from .exactsolve import Inconsistent, exact_rank, rank_mod_p
from .multipoly import Polynomial, accumulate, normalized, times
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
    polynomial: Polynomial


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


def target_polynomial(t: TwoRowTableau) -> dict[tuple[int, ...], int]:
    """Expand the tableau's polynomial in the 2n parameters a1..an, b1..bn,
    as an integer term map: the product of the column brackets
    a_m b_v - a_v b_m with the sum, over the ways to send d - k tail entries
    of mu to a and the rest to b, of the monomials."""
    n = t.n
    factors = []  # the brackets, then the tail sum
    for m, v in zip(t.mu, t.nu):
        am_bv = [0] * (2 * n)
        am_bv[m - 1] += 1
        am_bv[n + v - 1] += 1
        av_bm = [0] * (2 * n)
        av_bm[v - 1] += 1
        av_bm[n + m - 1] += 1
        factors.append({tuple(am_bv): 1, tuple(av_bm): -1})
    tail = t.mu[t.k:]
    all_b = [0] * (2 * n)
    for entry in tail:
        all_b[n + entry - 1] += 1
    # a pick of d - k tail entries, k_v of the m_v copies of each entry v, is
    # made in prod C(m_v, k_v) ways (0 when some k_v > m_v); sorted picks of
    # the distinct entries come in the order combinations(tail, d - k) first
    # meets them, more copies of the smaller entries first
    total: dict[tuple[int, ...], int] = {}
    for picks in itertools.combinations_with_replacement(sorted(set(tail)), t.d - t.k):
        exps = all_b.copy()
        for entry in picks:
            exps[entry - 1] += 1
            exps[n + entry - 1] -= 1
        count = prod(map(comb, all_b[n:], exps[:n]))
        if count:
            total[tuple(exps)] = count
    return functools.reduce(times, factors + [total])


def coordinate_name(u: Sequence[int]) -> str:
    """x_u for multidegree u; rational normal curves use the short x_i form."""
    if len(u) == 2:
        return f"x{u[1]}"
    if all(c <= 9 for c in u):
        return "x" + "".join(map(str, u))
    return "x" + "_".join(map(str, u))


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


def pushforward(quadric: dict[tuple[int, int], int], coords: Sequence[tuple[int, ...]]) -> dict:
    """Terms of a quadric in the x_u under x_u -> a^u + b^u, keyed by exponent
    vectors over (a1..an, b1..bn), zero coefficients dropped.  The quadric is
    an integer map keyed by the index pair (i, j), i <= j, of x_i x_j, with
    coords[i] the multidegree of x_i."""
    zero = (0,) * len(coords[0])
    images = []
    for (i, j), c in quadric.items():
        u, v = coords[i], coords[j]
        uv = tuple(map(add, u, v))
        # c x_u x_v -> c (a^(u+v) + a^u b^v + a^v b^u + b^(u+v))
        images += [(uv + zero, c), (u + v, c), (v + u, c), (zero + uv, c)]
    return accumulate({}, images)


def _doubled_preimage(t: TwoRowTableau, coords: Sequence[tuple[int, ...]],
                      index: dict[tuple[int, ...], int]) -> dict[tuple[int, int], int]:
    """Twice the unique quadric mapping to the tableau's polynomial, keyed
    by index pairs (i, j), i <= j, in the target's term order.

    Every monomial of the target is a^u b^v with |u| = |v| = d, so the
    mixed part of sum c_uv (a^u + b^u)(a^v + b^v) determines the c_uv
    directly; the full pushforward is then compared with the target
    exactly and a mismatch (which would contradict uniqueness of the
    preimage) raises Inconsistent naming one differing exponent.
    """
    n = t.n
    target = target_polynomial(t)
    doubled: dict[tuple[int, int], int] = {}
    for exps, coeff in target.items():
        u, v = exps[:n], exps[n:]
        if u > v:
            continue
        i, j = index[u], index[v]
        doubled[(i, j) if i <= j else (j, i)] = coeff if u == v else 2 * coeff
    push = pushforward(doubled, coords)
    if push != {e: 2 * c for e, c in target.items()}:
        e = min(e for e in push.keys() | target.keys() if push.get(e, 0) != 2 * target.get(e, 0))
        raise Inconsistent(f"pushforward mismatch for {t.label()}: exponent {e} pushes to "
                           f"{Fraction(push.get(e, 0), 2)}, target has {target.get(e, 0)}")
    return doubled


def _by_exponent(quadric: dict[tuple[int, int], int], units: Sequence[tuple[int, ...]]) -> dict:
    """The quadric keyed by exponent vectors, units[i] that of x_i, in its own term order."""
    return {tuple(map(add, units[i], units[j])): c for (i, j), c in quadric.items()}


def _units(size: int) -> list[tuple[int, ...]]:
    return [tuple(int(k == i) for k in range(size)) for i in range(size)]


def preimage_quadric(t: TwoRowTableau, allow_k2: bool = False) -> QuadricGenerator:
    """The unique quadric in the x_u mapping to the tableau's polynomial."""
    if t.k < 4 and not (allow_k2 and t.k == 2):
        raise BadShape("preimages vanish on the tangential variety only for k >= 4")
    coords = multidegrees(t.n, t.d)
    doubled = _doubled_preimage(t, coords, {u: i for i, u in enumerate(coords)})
    # the pushforward's a^(2u) coefficient, twice the target's, is the
    # x_u^2 coefficient of 2Q plus twice each x_v x_w one with v + w = 2u:
    # so every coefficient of 2Q is even
    terms = _by_exponent({pair: c // 2 for pair, c in doubled.items()}, _units(len(coords)))
    return QuadricGenerator(t, Polynomial(tuple(map(coordinate_name, coords)), terms))


def quadric_basis(n: int, d: int) -> list[QuadricGenerator]:
    """Basis of the quadrics vanishing on the tangential variety.

    Union over even k in {4..d}; normalized to integer coefficients with
    content one and positive leading coefficient; exact linear
    independence of the result is checked: by the rank modulo a prime, which
    proves it when full, and by the Bareiss rank when it is not.  The
    coordinate names and multidegrees are built once per call.
    """
    if d <= 3:
        raise DegreeTooSmall("no quadrics vanish on the tangential variety for d <= 3")
    coords = multidegrees(n, d)
    index = {u: i for i, u in enumerate(coords)}
    names = tuple(map(coordinate_name, coords))
    units = _units(len(coords))
    gens = [QuadricGenerator(t, Polynomial(names, normalized(_by_exponent(
                _doubled_preimage(t, coords, index), units))))
            for k in range(4, d + 1, 2) for t in enumerate_tableaux(n, d, k)]
    column = {e: j for j, e in enumerate(sorted({e for g in gens for e in g.polynomial.terms}))}
    rows = [[0] * len(column) for _ in gens]
    for row, g in zip(rows, gens):
        for e, c in g.polynomial.terms.items():
            row[column[e]] = c
    if rank_mod_p(rows) != len(gens):  # no certificate: the exact rank decides
        rank = exact_rank(rows)
        if rank != len(gens):
            raise Inconsistent(f"quadric basis for (n={n}, d={d}) is linearly dependent: "
                               f"rank {rank} of {len(gens)} generators")
    return gens
