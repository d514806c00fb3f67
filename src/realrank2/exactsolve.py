"""Exact rational linear algebra via fraction-free (Bareiss) elimination:
ranks and solutions of linear systems.

Rows are rescaled to integers once, by `integer_row`, then eliminated with
the Bareiss update, whose division by the previous pivot is exact over the
integers.  This keeps intermediate entries as single determinants instead
of products of pivots.  This is the package's bottom exact layer: the
rational coercion and content helpers live here too, and
`tensors.integers`, the one scaler of exact arrays, scales through
`integer_row`.

`rank_mod_p` is the cheap lower bound: the rank of an integer matrix modulo
the prime MODULAR_PRIME, by sparse row reduction.  A full rank mod p proves full
rank over Q, since a minor that is nonzero mod p is a nonzero integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Mapping, Sequence

# the Mersenne prime 2^31 - 1
MODULAR_PRIME = 2**31 - 1


class Inconsistent(ValueError):
    """The linear system has no solution."""


class InexactDivision(ArithmeticError):
    """An integer division that must be exact left a remainder: a Bareiss
    step on rows that were not all integers, or a polynomial division by a
    non-divisor."""


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/4' and floats (exactly) to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, str, Rational)):  # Rational: numpy integers
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def content(values: Iterable) -> Fraction:
    """gcd of the numerators over the lcm of the denominators of exact values.

    Dividing by it leaves coprime integers; multiplying by its denominator
    alone clears every denominator without touching a common factor.
    """
    num, den = 0, 1
    for v in values:
        num = gcd(num, v.numerator)
        den = lcm(den, v.denominator)
    return Fraction(num, den)


def integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators: integers in the same ratios."""
    if set(map(type, row)) <= {int}:  # bools and Fractions take the content path
        return list(row)
    fracs = [as_fraction(x) for x in row]
    den = content(fracs).denominator
    return [int(f * den) for f in fracs]


def _echelon(mat: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Bareiss forward elimination on the leading ncols columns.

    Returns the eliminated matrix (trailing columns carried along) and the
    pivot column list.
    """
    m = len(mat)
    width = len(mat[0]) if m else 0
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        live = False  # whether a row below keeps a nonzero leading entry
        for i in range(r + 1, m):
            if not any(mat[i][c:]):
                continue
            row_i = mat[i]
            row_r = mat[r]
            lead = row_i[c]
            pivot = row_r[c]
            for j in range(c + 1, width):
                num = pivot * row_i[j] - lead * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise InexactDivision("Bareiss division must be exact")
                row_i[j] = q
            row_i[c] = 0  # pivot * lead - lead * pivot; solve_exact reads this column
            live = live or any(row_i[c + 1:ncols])
        prev = mat[r][c]
        pivots.append(c)
        r += 1
        if not live:
            break  # every row below is zero in the leading columns: no pivot can follow
    return mat, pivots


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix with exactly-representable entries."""
    mat = [integer_row(row) for row in rows]
    if not mat or not mat[0]:
        return 0
    _, pivots = _echelon(mat, len(mat[0]))
    return len(pivots)


def rank_mod_p(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank modulo MODULAR_PRIME of a matrix of ints, each row given sparse as
    {column: entry} over int columns: at most its rank over Q, and equal to
    it unless p divides every maximal nonzero minor.

    Row by row on sparse residues (column -> nonzero residue), so rows
    cost near their nonzeros: the earlier pivot rows clear each row's
    leading column until it vanishes or leads at a new column, where it
    becomes a pivot row, scaled to a leading 1.
    """
    p = MODULAR_PRIME
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        residues = {j: x % p for j, x in row.items() if x % p}
        while residues and (c := min(residues)) in pivots:
            factor = residues[c]
            for j, x in pivots[c].items():
                residues[j] = (residues.get(j, 0) - factor * x) % p
            residues = {j: x for j, x in residues.items() if x}
        if residues:
            inverse = pow(residues[c], -1, p)
            pivots[c] = {j: x * inverse % p for j, x in residues.items()}
    return len(pivots)


def solve_exact(a_rows: Sequence[Sequence], b: Sequence) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Solve A x = b exactly; return (one solution, nullspace basis).

    Raises Inconsistent when no solution exists.  Underdetermined systems get
    the particular solution with all free variables set to zero plus one basis
    vector of the nullspace per free column.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if any(len(row) != n for row in a_rows) or len(b) != m:
        raise ValueError("inconsistent system dimensions")
    aug = [integer_row(list(row) + [rhs]) for row, rhs in zip(a_rows, b)]
    aug, pivots = _echelon(aug, n)
    rank = len(pivots)
    for i in range(rank, m):
        if all(v == 0 for v in aug[i][:n]) and aug[i][n] != 0:
            raise Inconsistent("zero row with nonzero right-hand side")
    free_cols = [c for c in range(n) if c not in pivots]

    def back_substitute(rhs_col: list[Fraction], free_values: dict[int, Fraction]) -> list[Fraction]:
        x = [Fraction(0)] * n
        for c, v in free_values.items():
            x[c] = v
        for i in range(rank - 1, -1, -1):
            c = pivots[i]
            total = rhs_col[i]
            for j in range(c + 1, n):
                if aug[i][j]:
                    total -= aug[i][j] * x[j]
            x[c] = Fraction(total, 1) / aug[i][c]
        return x

    rhs = [Fraction(aug[i][n]) for i in range(rank)]
    solution = back_substitute(rhs, {c: Fraction(0) for c in free_cols})
    nullspace = []
    zero_rhs = [Fraction(0)] * rank
    for fc in free_cols:
        values = {c: Fraction(int(c == fc)) for c in free_cols}
        nullspace.append(back_substitute(zero_rhs, values))
    return solution, nullspace
