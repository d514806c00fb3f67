"""Exact sparse multivariate polynomials over arbitrary-precision rationals.

A polynomial is a tuple of variable names plus a map from exponent vectors to
nonzero Fraction coefficients.  The canonical term order is graded
lexicographic in the declared variable order; it fixes printing, leading-term
extraction and therefore every piece of symbolic output in the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Mapping, Sequence, Union

from .exactsolve import as_fraction, content
from .unipoly import _exact_div, _trimmed

Scalar = Union[int, Fraction]


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def grlex_key(exponents: tuple) -> tuple:
    # graded lex: compare total degree first, then the exponent tuple itself
    return (sum(exponents), exponents)


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar] | None = None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        clean: dict[tuple, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.variables) or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for variables {self.variables}")
            c = as_fraction(coeff)
            if c:
                clean[expo] = clean.get(expo, Fraction(0)) + c
                if not clean[expo]:
                    del clean[expo]
        self.terms = clean

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, value, variables: Sequence[str] = ()) -> "MultiPoly":
        c = as_fraction(value)
        if not c:
            return cls.zero(variables)
        return cls(variables, {tuple([0] * len(variables)): c})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] | None = None) -> "MultiPoly":
        variables = (name,) if variables is None else tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): Fraction(1)})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(variables, {tuple(exponents): coeff})

    def zero_like(self) -> "MultiPoly":
        return MultiPoly.zero(self.variables)

    def one_like(self) -> "MultiPoly":
        return MultiPoly.constant(1, self.variables)

    # ------------------------------------------------------------- structure
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading_term(self) -> tuple[tuple, Fraction]:
        """Leading (exponent, coefficient) under graded lex.  Zero poly raises."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key, reverse=True)]

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """Reindex onto a superset of the current variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        pos = {v: i for i, v in enumerate(variables)}
        idx = [pos[v] for v in self.variables]
        terms: dict[tuple, Fraction] = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(variables)
            for i, e in zip(idx, expo):
                new[i] = e
            terms[tuple(new)] = coeff
        return MultiPoly(variables, terms)

    def _check_variables(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(f"variables differ: {self.variables} vs {other.variables}")

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.variables)
        self._check_variables(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = as_fraction(other)
            return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})
        self._check_variables(other)
        terms: dict[tuple, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(x + y for x, y in zip(ea, eb))
                terms[expo] = terms.get(expo, Fraction(0)) + ca * cb
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.one_like()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if self.is_zero() and other == 0:
                return True
            return self.is_constant() and not self.is_zero() and self.constant_value() == as_fraction(other)
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    # ------------------------------------------------------------- division
    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises NotDivisible if the quotient is not polynomial.

        Leading-term reduction under graded lex terminates because the leading
        monomial of the remainder strictly decreases at every step.
        """
        if not isinstance(divisor, MultiPoly):
            c = as_fraction(divisor)
            if not c:
                raise ZeroDivisionError("division by zero polynomial")
            return self * (Fraction(1) / c)
        self._check_variables(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.zero_like()
        lead_e, lead_c = divisor.leading_term()
        rem = dict(self.terms)
        quot: dict[tuple, Fraction] = {}
        while rem:
            e = max(rem, key=grlex_key)
            diff = tuple(x - y for x, y in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise NotDivisible("leading term not divisible")
            c = rem[e] / lead_c
            quot[diff] = quot.get(diff, Fraction(0)) + c
            for eb, cb in divisor.terms.items():
                expo = tuple(x + y for x, y in zip(diff, eb))
                val = rem.get(expo, Fraction(0)) - c * cb
                if val:
                    rem[expo] = val
                else:
                    rem.pop(expo, None)
        return MultiPoly(self.variables, quot)

    # ------------------------------------------------------------ evaluation
    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a full assignment.  Exact inputs give a Fraction."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        vals = [values[v] for v in self.variables]
        exact = all(isinstance(v, (int, Fraction)) for v in vals)
        total = Fraction(0) if exact else 0.0
        for expo, coeff in self.terms.items():
            term = coeff if exact else float(coeff)
            for v, e in zip(vals, expo):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    # ---------------------------------------------------------- presentation
    def content(self) -> Fraction:
        """Positive rational c with self/c integer coefficients of gcd 1."""
        return content(self.terms.values()) if self.terms else Fraction(1)

    def normalized(self) -> "MultiPoly":
        """Clear denominators, reduce content to 1, leading coefficient > 0."""
        if self.is_zero():
            return self
        scaled = self * (1 / self.content())
        if scaled.leading_term()[1] < 0:
            scaled = -scaled
        return scaled

    def to_text(self) -> str:
        # printed smallest term first, so normalized polynomials read the way
        # low-degree identities are usually written (3*x2^2 - 4*x1*x3 + 1*x0*x4)
        if not self.terms:
            return "0"
        chunks = []
        for expo, coeff in reversed(self.sorted_terms()):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, expo)
                if e
            )
            body = f"{abs(coeff)}*{mono}" if mono else str(abs(coeff))
            chunks.append(("-" if coeff < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "terms": {
                ",".join(str(e) for e in expo): str(coeff)
                for expo, coeff in self.sorted_terms()
            },
        }


def det_bareiss(matrix: list[list[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square MultiPoly matrix, fraction-free.

    The Bareiss update divides by the previous pivot, which is exact over any
    integral domain, so intermediate entries stay polynomial.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    context = matrix[0][0]
    work = [[col for col in row] for row in matrix]
    sign = 1
    prev: MultiPoly | None = None
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if not work[i][k].is_zero()), None)
        if pivot_row is None:
            return context.zero_like()
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = work[i][j] * work[k][k] - work[i][k] * work[k][j]
                work[i][j] = num if prev is None else num.exact_div(prev)
            work[i][k] = work[i][k].zero_like()
        prev = work[k][k]
    result = work[-1][-1]
    return result if sign == 1 else -result


class NotForms(ValueError):
    """Resultant input is not two nonzero forms in the same variables, at
    most three of them, one the eliminated variable."""


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two trimmed ascending integer lists, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    """a + b for ascending integer lists, trimmed."""
    return _trimmed([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a: list[int], b: list[int]) -> list[int]:
    """a - b for ascending integer lists, trimmed."""
    return _trimmed([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _det(rows: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[x] (entries trimmed ascending
    integer lists), by one Bareiss elimination: each update divides by the
    previous pivot with `unipoly._exact_div`, which raises InexactDivision
    on a remainder; [1] when empty, [] when zero."""
    n = len(rows)
    work = [list(row) for row in rows]
    sign, prev = 1, [1]
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            return []
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            lead = work[i][k]
            for j in range(k + 1, n):
                num = _sub(_mul(pivot, work[i][j]), _mul(lead, work[k][j]))
                work[i][j] = num if k == 0 else _exact_div(num, prev)
        prev = pivot
    det = work[-1][-1] if n else [1]
    return det if sign == 1 else [-c for c in det]


def resultant(p, q, var: str, variables: Sequence[str] | None = None) -> list[int]:
    """Resultant of two forms eliminating `var`, exact, as ascending ints.

    p and q are MultiPolys or, given their `variables`, maps from exponent
    vectors to int or Fraction coefficients.  Each is first scaled to
    integer coefficients by the lcm L of its denominators (1 for integer
    forms), so with m, n the degrees in `var` the result is Lp^n Lq^m times
    the resultant: a form of degree D = (t_p - m) n + (t_q - n) m + m n in
    the remaining variables, t_p and t_q the total degrees.  It comes back
    as D + 1 ints, entry j the coefficient of the terms of degree j in the
    first remaining variable: with two left, (x, y), of x^j y^(D - j); with
    one, only entry D can be nonzero; with none, the resultant is 0 unless
    D is 0.

    The kernel is the Cayley-Bezout form (Cox, Little and O'Shea, *Using
    Algebraic Geometry*, ch. 3).  With y set to 1 each coefficient of p and
    q in `var` is an integer polynomial in x; the form of lower degree is
    padded to k = max(m, n), the k x k Bezout matrix of
    (p(s) q(t) - p(t) q(s)) / (s - t) is taken over Z[x] by one Bareiss
    elimination, and Res_{k,k} = (-1)^(k(k-1)/2) det(Bez), which is
    lc^(k - min(m, n)) Res_{m,n} for lc the leading coefficient of the
    form of higher degree.
    """
    if variables is None:
        # MultiPolys in different variables fail the test below as no variables
        variables = p.variables if q.variables == p.variables else ()
        p, q = p.terms, q.terms
    degrees = [{sum(e) for e in f} for f in (p, q)]
    if var not in variables or len(variables) > 3 or any(len(d) != 1 for d in degrees):
        raise NotForms("resultant needs two nonzero forms in the same at most three variables")
    k = variables.index(var)
    rest = variables[:k] + variables[k + 1:]
    # the first remaining variable carries x when there are two; else all are 1
    x_at = variables.index(rest[0]) if len(rest) == 2 else None
    slices = []
    for f, (total,) in zip((p, q), degrees):
        den = lcm(*(c.denominator for c in f.values()))
        # coefficient of var^i, as integer coefficients of x^0, x^1, ...
        coeffs = [[0] * (total + 1) for _ in range(max(e[k] for e in f) + 1)]
        for e, c in f.items():
            coeffs[e[k]][0 if x_at is None else e[x_at]] += c.numerator * (den // c.denominator)
        slices.append(([_trimmed(c) for c in coeffs], total))
    (cp, tp), (cq, tq) = slices
    m, n = len(cp) - 1, len(cq) - 1
    degree = (tp - m) * n + (tq - n) * m + m * n
    # Res_{m,n}(p, q) = (-1)^(mn) Res_{n,m}(q, p): put the higher degree first
    swaps = m * n if m < n else 0
    if m < n:
        cp, cq, m, n = cq, cp, n, m
    cq = cq + [[]] * (m - n)
    bezout = [[[] for _ in range(m)] for _ in range(m)]
    for a in range(1, m + 1):
        for b in range(a):
            c = _sub(_mul(cp[a], cq[b]), _mul(cp[b], cq[a]))
            # (s^a t^b - s^b t^a) / (s - t) is the sum of s^(b+r) t^(a-1-r), r < a - b
            for r in range(a - b if c else 0):
                bezout[b + r][a - 1 - r] = _add(bezout[b + r][a - 1 - r], c)
    res = _det(bezout)
    for _ in range(m - n):  # the padding factor lc^(m - n)
        res = _exact_div(res, cp[m])
    if (swaps + m * (m - 1) // 2) % 2:
        res = [-c for c in res]
    if x_at is None:
        res = [0] * degree + res
    return res + [0] * (degree + 1 - len(res))
