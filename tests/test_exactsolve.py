"""Exact rational Gaussian elimination: rank, solving, nullspaces."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realrank2
from realrank2.exactsolve import MODULAR_PRIME, Inconsistent, _echelon, exact_rank, rank_mod_p, solve_exact

dims = st.tuples(st.integers(1, 5), st.integers(1, 5))


def rand_matrix(rng: random.Random, m: int, n: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=50, deadline=None)
@given(dims, st.integers(0, 10_000))
def test_exact_rank_matches_float_rank_on_integer_matrices(shape, seed):
    rng = random.Random(seed)
    m, n = shape
    rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(m)]
    a = np.array([[float(v) for v in row] for row in rows])
    assert exact_rank(rows) == np.linalg.matrix_rank(a, tol=1e-9)


coefficients = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))


@st.composite
def integer_rows(draw):
    """Integer rows C·B of rank at most k: int rows skip the content step."""
    m, n = draw(dims)
    k = draw(st.integers(1, min(m, n)))
    basis = draw(st.lists(st.lists(coefficients, min_size=n, max_size=n), min_size=k, max_size=k))
    mix = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=m, max_size=m))
    return [[sum(c * b[j] for c, b in zip(row, basis)) for j in range(n)] for row in mix]


@settings(max_examples=100, deadline=None)
@given(integer_rows(), st.data())
def test_exact_rank_of_integer_rows_equals_rank_as_fractions(rows, data):
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    # some rows may stay int, so int and Fraction rows meet in one matrix
    mixed = [row if data.draw(st.booleans()) else frac for row, frac in zip(rows, as_fractions)]
    before = [list(row) for row in rows]
    rank = exact_rank(as_fractions)
    assert exact_rank(rows) == rank
    assert exact_rank(mixed) == rank
    assert rows == before  # elimination works on copies


@settings(max_examples=100, deadline=None)
@given(integer_rows(), st.integers(0, 5))
def test_echelon_leaves_zeros_below_every_pivot(rows, ncols):
    """Columns left of the carried ones are eliminated: below each pivot the
    column is an explicit 0, and a row's first nonzero entry among them is
    its pivot."""
    ncols = min(ncols, len(rows[0]))
    mat, pivots = _echelon([list(row) for row in rows], ncols)
    for r, c in enumerate(pivots):
        assert mat[r][c] != 0
        assert all(mat[i][c] == 0 for i in range(r + 1, len(mat)))
        assert not any(mat[r][:c])
    for i in range(len(pivots), len(mat)):
        assert not any(mat[i][:ncols])


P = MODULAR_PRIME
modular_coefficients = coefficients | st.sampled_from([P, -P, 2 * P, P - 1, P + 1, 2**63, -2**63 - 1])


@st.composite
def modular_rows(draw):
    """Integer rows C·B as in integer_rows, with multiples of p and entries
    past 2^63 among the basis coefficients."""
    m, n = draw(dims)
    k = draw(st.integers(1, min(m, n)))
    basis = draw(st.lists(st.lists(modular_coefficients, min_size=n, max_size=n), min_size=k, max_size=k))
    mix = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=m, max_size=m))
    return [[sum(c * b[j] for c, b in zip(row, basis)) for j in range(n)] for row in mix]


@settings(max_examples=150, deadline=None)
@given(modular_rows())
def test_rank_mod_p_is_a_lower_bound_on_the_rank(rows):
    before = [list(row) for row in rows]
    assert rank_mod_p([dict(enumerate(row)) for row in rows]) <= exact_rank(rows)
    assert rows == before


@st.composite
def full_rank_rows(draw):
    """m x n integer rows, m <= n, of full rank with a maximal minor ±1, so of
    full rank mod every prime: the rows [±I | X] under a column permutation,
    mixed by a unimodular product of row operations."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    rows = [[draw(st.sampled_from([1, -1])) if i == j else 0 for j in range(m)]
            + draw(st.lists(modular_coefficients, min_size=n - m, max_size=n - m)) for i in range(m)]
    perm = draw(st.permutations(range(n)))
    rows = [[row[j] for j in perm] for row in rows]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if i != j:
            f = draw(st.integers(-5, 5))
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=150, deadline=None)
@given(full_rank_rows())
def test_rank_mod_p_equals_the_rank_on_full_rank_rows(rows):
    assert rank_mod_p([dict(enumerate(row)) for row in rows]) == exact_rank(rows) == len(rows)


def test_full_rank_over_q_but_singular_mod_p_needs_the_exact_rank():
    # det = p: full rank over Q, singular mod p, so the modular rank
    # certifies nothing and the Bareiss rank has to decide
    rows = [[P, 1], [0, 1]]
    assert rank_mod_p([dict(enumerate(row)) for row in rows]) == 1
    assert exact_rank(rows) == 2
    assert rank_mod_p([dict(enumerate(row)) for row in [[P + 1, 1], [0, 1]]]) == 2


def test_rank_mod_p_of_empty_matrices():
    assert rank_mod_p([]) == rank_mod_p([{}]) == rank_mod_p([dict(enumerate(row)) for row in [[0, 0], [0, 0]]]) == 0


def test_exact_rank_beats_floats_on_tiny_pivots():
    eps = Fraction(1, 10**40)
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), 1 + eps]]
    assert exact_rank(rows) == 2


@settings(max_examples=50, deadline=None)
@given(dims, st.integers(0, 10_000))
def test_solve_exact_residual_is_exactly_zero(shape, seed):
    rng = random.Random(seed)
    m, n = shape
    a = rand_matrix(rng, m, n)
    x_true = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    b = [sum(a[i][j] * x_true[j] for j in range(n)) for i in range(m)]
    x, nullspace = solve_exact(a, b)
    for i in range(m):
        assert sum(a[i][j] * x[j] for j in range(n)) == b[i]
    for vec in nullspace:
        for i in range(m):
            assert sum(a[i][j] * vec[j] for j in range(n)) == 0
    assert len(nullspace) == n - exact_rank(a)


def test_solve_exact_raises_on_inconsistent_system():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(Inconsistent):
        solve_exact(a, [Fraction(1), Fraction(3)])


def test_nullspace_spans_kernel_of_rank_one_matrix():
    a = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    x, nullspace = solve_exact(a, [Fraction(0), Fraction(0)])
    assert all(v == 0 for v in x)
    assert len(nullspace) == 2


def test_echelon_raises_on_inexact_division_under_optimize():
    # _echelon needs integer rows; with a Fraction the Bareiss division
    # leaves a remainder, which must raise even when asserts are stripped by -O
    code = "\n".join([
        "from fractions import Fraction",
        "from realrank2.exactsolve import InexactDivision, _echelon",
        "assert False, 'asserts must be off'",
        "try:",
        "    _echelon([[Fraction(1, 2), 1], [1, 1]], 2)",
        "except InexactDivision as exc:",
        "    print(type(exc).__mro__[1].__name__)",
    ])
    src = str(Path(realrank2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ArithmeticError"]


def test_inconsistent_row_after_the_last_pivot_still_raises():
    # after the first pivot every row below is zero in the coefficient
    # columns, so elimination stops there; the right-hand side 4 of the last
    # row is not 3 * 1 and must still be seen
    a = [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
    with pytest.raises(Inconsistent):
        solve_exact(a, [1, 2, 4])
    x, nullspace = solve_exact(a, [1, 2, 3])
    assert x == [1, 0, 0] and len(nullspace) == 2
    with pytest.raises(Inconsistent):  # two pivots, then a zero row
        solve_exact([[1, 0, 2, 1], [0, 1, 1, 1], [1, 1, 3, 2]], [1, 1, 3])


@pytest.mark.parametrize("rank", [1, 2])
def test_rank_is_right_when_rows_vanish_after_one_or_two_pivots(rank):
    # a 4 x 64 product of integer factors of rank 1 or 2: elimination stops
    # after `rank` pivots with the rows below all zero
    rng = random.Random(rank)
    left = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(4)]
    right = [[rng.randint(-5, 5) for _ in range(64)] for _ in range(rank)]
    left[0][0] = right[0][0] = 1
    if rank == 2:
        left[1][:2], right[1][:2] = [0, 1], [0, 1]
    rows = [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(64)] for i in range(4)]
    assert exact_rank(rows) == rank
    mat, pivots = _echelon([row[:] for row in rows], 64)
    assert pivots == list(range(rank))
    assert not any(any(row) for row in mat[rank:])
    # a leading zero column and a zero row between the pivot rows
    padded = [[0] + row for row in rows]
    padded.insert(1, [0] * 65)
    assert exact_rank(padded) == rank
    assert exact_rank([row + [0] * 3 for row in rows] + [[0] * 67]) == rank


def test_exact_rank_of_no_rows_is_zero():
    assert exact_rank([]) == 0


def test_solve_exact_rejects_inconsistent_dimensions():
    with pytest.raises(ValueError, match="inconsistent system dimensions"):
        solve_exact([[1, 2], [3]], [1, 2])
    with pytest.raises(ValueError, match="inconsistent system dimensions"):
        solve_exact([[1, 2], [3, 4]], [1])
