"""Shared test plumbing: the acceptance criteria report; `Poly`, the oracle
polynomial (exact Fraction terms with the content, normal form, evaluation
and text/JSON forms, plus the exact ring arithmetic) that the library's
printing functions, term-map products, Leibniz determinants and Plucker
tables are tested against, the reference term-map accumulator, `ring`,
which lifts a library `Polynomial` into it, `int_form`, which turns an
integer Poly into the term map a resultant takes, and its fraction-free
Bareiss determinant; the coordinate names
x_u of a Veronese; the dense flattening ranks (`sym_to_tensor`, `flatten`
and a Fraction elimination rank) that catalecticant ranks are tested
against; the dense-decomposition stratum label of a binary quartic that
the Hankel-matrix label is tested against; the per-angle pencil rotation
search that the stacked one of decompose is tested against; the 2x2x2 sub-block
selectors, one per block, and their one-block gather, the oracle that the
hyperdeterminant sweep plan is tested against; the scalar shifted cubic
discriminant that the column kernel is tested against; a polynomial substitution
oracle, the cofactor determinant and the Sylvester resultant that the
Bareiss and Bezout kernels of multipoly are tested against; the Poly secant
system that the integer pencil of space_curve is tested against; and the
univariate Fraction arithmetic (gcd, Sturm chain, square-free factors,
on-curve test) that the integer remainder sequence of unipoly is tested
against.

test_acceptance.py records one line per criterion; printing them from the
terminal-summary hook keeps them visible under pytest's output capture.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from realrank2 import binary_forms as bf
from realrank2 import certify as ce
from realrank2 import decompose as dc
from realrank2 import hyperdet as hd
from realrank2 import tableaux as tb
from realrank2 import tensors as tn
from realrank2.exactsolve import as_fraction, content
from realrank2.multipoly import Polynomial, grlex_key

acceptance_results: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_results:
        terminalreporter.write_line(line)


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class Poly:
    """Variables and exact Fraction terms, with the content, normal form,
    evaluation and text/JSON forms the library prints, and exact ring
    arithmetic over the rationals: + - * **, exact division, reindexing.
    Arithmetic needs equal variable tuples; scalars are constants.  `ring`
    lifts a library `Polynomial` into it."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object] | None = None):
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

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Poly":
        return cls(variables, {})

    @classmethod
    def constant(cls, value, variables: Sequence[str] = ()) -> "Poly":
        return cls(variables, {tuple([0] * len(variables)): value})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] | None = None) -> "Poly":
        variables = (name,) if variables is None else tuple(variables)
        return cls(variables, {tuple(int(v == name) for v in variables): 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int], coeff=1) -> "Poly":
        return cls(variables, {tuple(exponents): coeff})

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """(exponent, coefficient) pairs, graded lex descending."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key, reverse=True)]

    def __repr__(self):
        return f"Poly({self.to_text()!r})"

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

    def content(self) -> Fraction:
        """Positive rational c with self/c integer coefficients of gcd 1."""
        return content(self.terms.values()) if self.terms else Fraction(1)

    def normalized(self) -> "Poly":
        """Clear denominators, reduce content to 1, leading coefficient > 0."""
        if not self.terms:
            return self
        scale = self.content()
        if self.sorted_terms()[0][1] < 0:
            scale = -scale
        return Poly(self.variables, {e: c / scale for e, c in self.terms.items()})

    def to_text(self) -> str:
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

    def zero_like(self) -> "Poly":
        return Poly.zero(self.variables)

    def one_like(self) -> "Poly":
        return Poly.constant(1, self.variables)

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
        return self.sorted_terms()[0]

    def extend(self, variables: Sequence[str]) -> "Poly":
        """Reindex onto a superset of the current variables."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.variables]
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(variables)
            for i, e in zip(idx, expo):
                new[i] = e
            terms[tuple(new)] = coeff
        return Poly(variables, terms)

    def _lift(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly.constant(other, self.variables)
        if self.variables != other.variables:
            raise ValueError(f"variables differ: {self.variables} vs {other.variables}")
        return other

    def __add__(self, other):
        terms = dict(self.terms)
        for expo, coeff in self._lift(other).terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return Poly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -ring(self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        terms: dict[tuple, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in self._lift(other).terms.items():
                expo = tuple(x + y for x, y in zip(ea, eb))
                terms[expo] = terms.get(expo, Fraction(0)) + ca * cb
        return Poly(self.variables, terms)

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
        if not isinstance(other, Poly):
            return self == Poly.constant(as_fraction(other), self.variables)
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    def exact_div(self, divisor) -> "Poly":
        """Exact division; raises NotDivisible if the quotient is not polynomial.

        Leading-term reduction under graded lex terminates because the leading
        monomial of the remainder strictly decreases at every step.
        """
        divisor = self._lift(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("division by zero polynomial")
        lead_e, lead_c = ring(divisor).leading_term()
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
        return Poly(self.variables, quot)


def reference_accumulate(acc: Mapping, terms, scale: int = 1) -> dict:
    """acc plus scale times the (exponent, coefficient) stream, as a new term
    map: exponents in order of first appearance, coefficients summed, the
    exponents whose sum is zero dropped at the end."""
    order, sums = list(acc), dict(acc)
    for e, c in terms:
        if e not in sums:
            order.append(e)
            sums[e] = 0
        sums[e] += scale * c
    return {e: sums[e] for e in order if sums[e]}


def coordinate_names(n: int, d: int) -> list[str]:
    """The names x_u of the degree-d coordinates in n variables, in multidegree order."""
    return [tb.coordinate_name(u) for u in tn.multidegrees(n, d)]


def fraction_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_flattening_ranks(f: tn.SymTensorCoords, selections: Sequence[Sequence[int]]) -> list[int]:
    """Exact ranks of the flattenings of the dense n^d tensor of exact
    symmetric coordinates, one per selection of row modes: the oracle that
    the catalecticant ranks of `certify_symmetric` are tested against."""
    t = tn.sym_to_tensor(f)
    return [fraction_rank(tn.flatten(t, modes).tolist()) for modes in selections]


def reference_strata_label(f, tol: float = 1e-8) -> str | None:
    """The d = 4 stratum label by the dense route, the oracle of the
    Hankel-matrix label: decompose the expanded 2^4 tensor under the form's
    own certificate and read the signs of a real pair's two weights, each
    times the signs its factors hide (d is even, so a factor's sign counts
    through its overlap with the first factor)."""
    cert = ce.certify_symmetric(f, tol)
    if cert.verdict == ce.Verdict.RANK_AT_MOST_ONE:
        return bf.STRATUM_RANK_ONE
    if cert.verdict == ce.Verdict.BORDER_RANK_EXCEEDS_TWO:
        return None
    dec = dc.decompose_rank2(f, tol)
    if dec.kind == dc.DecompositionKind.CONJUGATE_PAIR:
        return bf.STRATUM_CONJ
    if dec.kind != dc.DecompositionKind.REAL_PAIR:
        return None
    weights = []
    for term in dec.terms:
        x = term.factors[0] / np.linalg.norm(term.factors[0])
        weights.append(float(np.real(term.weight)) * np.prod([float(np.dot(fac, x)) for fac in term.factors]))
    return bf.STRATUM_PSD_PAIR if weights[0] * weights[1] > 0 else bf.STRATUM_INDEF_PAIR


def rotation_search_loop(m0: np.ndarray, m1: np.ndarray, rng: np.random.Generator):
    """The pencil rotation search one angle at a time, the oracle of the
    stacked `decompose._rotation_search`: the identity and seven uniform
    angles on [0, pi), each scored |det N0| / max(|N0|_F^2 / 2, 1e-300) for
    N0 = c*M0 + s*M1; a later score wins only when greater, so a NaN first
    score stays and a later NaN never wins."""
    best = None
    for theta in [0.0] + list(rng.uniform(0.0, np.pi, size=7)):
        c, s = np.cos(theta), np.sin(theta)
        n0 = c * m0 + s * m1
        scale = max(np.linalg.norm(n0) ** 2 / 2.0, 1e-300)
        score = abs(np.linalg.det(n0)) / scale
        if best is None or score > best[0]:
            best = (score, theta)
    score, theta = best
    if score < 1e-12:
        raise dc.IllConditioned("all slice combinations of the pencil are singular")
    c, s = np.cos(theta), np.sin(theta)
    return c * m0 + s * m1, -s * m0 + c * m1, c, s


def ring(poly: Poly | Polynomial) -> Poly:
    """The oracle's copy of a polynomial: a library `Polynomial` lifted with
    its terms over its den, or a Poly copied."""
    if isinstance(poly, Poly):
        return Poly(poly.variables, poly.terms)
    return Poly(poly.variables, {e: Fraction(c, poly.den) for e, c in poly.terms.items()})


def int_form(poly: Poly) -> tuple[dict[tuple, int], tuple[str, ...]]:
    """A Poly with integer coefficients as the integer term map and the
    variables that `multipoly.resultant` takes."""
    if any(c.denominator != 1 for c in poly.terms.values()):
        raise ValueError(f"{poly} has a non-integer coefficient")
    return {e: int(c) for e, c in poly.terms.items()}, poly.variables


def bareiss_det(matrix: list[list[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix, fraction-free.

    The Bareiss update divides by the previous pivot, which is exact over any
    integral domain, so intermediate entries stay polynomial.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    work = [[ring(col) for col in row] for row in matrix]
    sign = 1
    prev: Poly | None = None
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if not work[i][k].is_zero()), None)
        if pivot_row is None:
            return work[0][0].zero_like()
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


def discriminant_quartic(coords: Sequence, i: int):
    """Shifted binary-cubic discriminant D_i on coordinates (x_i .. x_{i+3}),
    one scalar at a time in the coordinates' own arithmetic: the oracle of
    the column kernel `hyperdet.cubic_discriminant`.

    Equals the hyperdeterminant of any 2x2x2 sub-block of the symmetric
    tensor whose fixed indices sum to i.
    """
    d = len(coords) - 1
    if not 0 <= i <= d - 3:
        raise ValueError(f"need 0 <= i <= d-3 = {d - 3}, got {i}")
    a, b, c, e = coords[i], coords[i + 1], coords[i + 2], coords[i + 3]
    return (
        a * a * e * e
        - 6 * a * b * c * e
        - 3 * b * b * c * c
        + 4 * b * b * b * e
        + 4 * a * c * c * c
    )


def discriminant_quartic_poly(d: int, i: int, names: Sequence[str] | None = None) -> Poly:
    """D_i as an exact polynomial in the coordinates x_0 .. x_d."""
    if names is None:
        names = tuple(f"x{j}" for j in range(d + 1))
    return discriminant_quartic([Poly.variable(nm, names) for nm in names], i)


class InvalidSelector(ValueError):
    """A selector that does not name a 2x2x2 sub-block of the tensor."""


@dataclass(frozen=True)
class SubBlockSelector:
    """A 2x2x2 sub-block: three free modes, an index pair per free mode, and
    a fixed index for every remaining mode."""

    free_modes: tuple[int, int, int]
    index_pairs: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    fixed: tuple[tuple[int, int], ...]

    def label(self) -> str:
        pairs = ",".join(f"{m + 1}:({i},{j})" for m, (i, j) in zip(self.free_modes, self.index_pairs))
        fixed = ",".join(f"{m + 1}={i}" for m, i in self.fixed)
        return f"modes[{pairs}]" + (f" fixed[{fixed}]" if fixed else "")


def enumerate_subblocks(shape: Sequence[int]) -> list[SubBlockSelector]:
    """Every 2x2x2 sub-block selector of a tensor shape, deterministic order."""
    shape = tuple(shape)
    d = len(shape)
    if d < 3:
        raise tn.ArityTooSmall("sub-blocks need at least three modes")
    out: list[SubBlockSelector] = []
    for free in itertools.combinations(range(d), 3):
        if any(shape[m] < 2 for m in free):
            continue
        others = [m for m in range(d) if m not in free]
        pair_choices = [list(itertools.combinations(range(shape[m]), 2)) for m in free]
        for pairs in itertools.product(*pair_choices):
            for fixed_vals in itertools.product(*[range(shape[m]) for m in others]):
                out.append(SubBlockSelector(free, tuple(pairs), tuple(zip(others, fixed_vals))))
    return out


def extract_subblock(t: np.ndarray, selector: SubBlockSelector) -> np.ndarray:
    """The 2x2x2 array of t's entries at the selector's index pairs, with
    entry [e0, e1, e2] at index pair element e_k of free mode k."""
    if len(selector.free_modes) != 3:
        raise InvalidSelector("selector must have exactly three free modes")
    idx: list[object] = [None] * t.ndim
    for m, value in selector.fixed:
        if not (0 <= value < t.shape[m]):
            raise InvalidSelector(f"fixed index {value} out of range in mode {m}")
        idx[m] = value
    out = np.empty((2, 2, 2), dtype=t.dtype)
    for eps in itertools.product((0, 1), repeat=3):
        pos = list(idx)
        for m, pair, e in zip(selector.free_modes, selector.index_pairs, eps):
            if not (0 <= pair[0] < pair[1] < t.shape[m]):
                raise InvalidSelector(f"bad index pair {pair} in mode {m}")
            pos[m] = pair[e]
        out[eps] = t[tuple(pos)]
    return out


def substitute(poly: Poly, replacements: dict, variables) -> Poly:
    """poly with every variable replaced by a polynomial in `variables`,
    expanded term by term in Poly arithmetic: the reference that the
    library's exponent-arithmetic pushforwards and restrictions are tested
    against."""
    total = Poly.zero(variables)
    for expo, coeff in poly.terms.items():
        term = Poly.constant(coeff, variables)
        for var, e in zip(poly.variables, expo):
            term = term * ring(replacements[var]) ** e
        total = total + term
    return total


def coefficients_in(poly: Poly, var: str) -> list[Poly]:
    """Coefficients w.r.t. one variable, ascending degree, over the rest."""
    if var not in poly.variables:
        return [ring(poly)]
    k = poly.variables.index(var)
    rest = tuple(v for v in poly.variables if v != var)
    deg = max((e[k] for e in poly.terms), default=0)
    buckets: list[dict[tuple, Fraction]] = [dict() for _ in range(deg + 1)]
    for expo, coeff in poly.terms.items():
        reduced = tuple(e for i, e in enumerate(expo) if i != k)
        buckets[expo[k]][reduced] = coeff
    return [Poly(rest, b) for b in buckets]


def cofactor_det(rows):
    """Laplace expansion along the first row, in the entries' own exact
    arithmetic (ints, Fractions or Polys); 1 when empty."""
    if not rows:
        return 1
    return sum((-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]))


def sylvester_resultant(p: Poly, q: Poly, var: str) -> Poly:
    """The Sylvester determinant with Poly entries: the resultant of
    two polynomials eliminating var, over the remaining variables."""
    cp = coefficients_in(p, var)
    cq = coefficients_in(q, var)
    while len(cp) > 1 and cp[-1].is_zero():
        cp.pop()
    while len(cq) > 1 and cq[-1].is_zero():
        cq.pop()
    m, n = len(cp) - 1, len(cq) - 1
    if m == 0:
        return cp[0] ** n
    if n == 0:
        return cq[0] ** m
    size = m + n
    zero = cp[0].zero_like()
    rows = [[zero] * s + cp[::-1] + [zero] * (size - m - 1 - s) for s in range(n)]
    rows += [[zero] * s + cq[::-1] + [zero] * (size - n - 1 - s) for s in range(m)]
    return bareiss_det(rows)


def secant_system(pm, u) -> list[Poly]:
    """The four point-on-line equations for u, degree d-1 in (a, b, c), as
    Poly sums and products of the PluckerMap's polynomials."""
    p01, p02, p03, p12, p13, p23 = map(ring, pm.polys)
    w, x, y, z = u
    return [
        p23 * x - p13 * y + p12 * z,
        p03 * y - p02 * z - p23 * w,
        p13 * w - p03 * x + p01 * z,
        p02 * x - p12 * w - p01 * y,
    ]


def random_combination(rows: list[Poly], rng: random.Random) -> Poly:
    """Sum of the rows times random integers in [-5, 5] in Poly
    arithmetic; up to 20 attempts until the sum is nonzero."""
    zero = Poly.zero(rows[0].variables)
    for _ in range(20):
        combo = sum((row * rng.randint(-5, 5) for row in rows), zero)
        if not combo.is_zero():
            return combo
    return zero


def elimination_variable(p: Poly, q: Poly) -> str:
    """The variable of highest combined degree in p and q; ties go to the
    heaviest leading coefficient in p, then to the first variable."""
    def score(v):
        in_p, in_q = coefficients_in(p, v), coefficients_in(q, v)
        return len(in_p) + len(in_q), sum(abs(float(c)) for c in in_p[-1].terms.values())
    return max(p.variables, key=score)


def fraction_trim(p) -> list[Fraction]:
    """Ascending Fraction coefficients with trailing zeros dropped."""
    out = [Fraction(c) for c in p]
    while out and not out[-1]:
        out.pop()
    return out


def fraction_mul(p, q) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return fraction_trim(out)


def fraction_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over Q of trimmed lists, b nonzero: (quotient, remainder)."""
    rem, quot = [Fraction(c) for c in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(b) - 1] / b[-1]
        for j, d in enumerate(b):
            rem[k + j] -= quot[k] * d
    return fraction_trim(quot), fraction_trim(rem[:len(b) - 1])


def fraction_primitive(p) -> list[Fraction]:
    """p over its content, with positive leading coefficient; [] stays []."""
    if not p:
        return []
    scale = content(p) if p[-1] > 0 else -content(p)
    return [c / scale for c in p]


def fraction_derivative(p) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def fraction_poly_gcd(p, q) -> list[Fraction]:
    """The Euclidean gcd over the rationals, in Fraction arithmetic, each
    remainder made primitive; primitive with positive leading coefficient."""
    a, b = fraction_trim(p), fraction_trim(q)
    while b:
        a, b = b, fraction_primitive(fraction_divmod(a, b)[1])
    return fraction_primitive(a)


def fraction_sturm_chain(p) -> list[list[Fraction]]:
    """The Sturm sequence of a trimmed p over Q: p, p', then each negated
    remainder, unscaled, until a constant or a zero remainder."""
    chain = [list(p)]
    if len(p) > 1:
        chain.append(fraction_derivative(p))
    while len(chain) > 1 and len(chain[-1]) > 1:
        rem = fraction_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def fraction_squarefree(p) -> list[tuple[list[Fraction], int]]:
    """Square-free factors by repeated gcds (Musser's algorithm, not Yun's):
    with a = gcd(p, p') and b = p / a, each gcd(a, b) strips one power."""
    p = fraction_primitive(fraction_trim(p))
    if len(p) < 2:
        return []
    a = fraction_poly_gcd(p, fraction_derivative(p))
    b = fraction_divmod(p, a)[0]
    out, i = [], 1
    while len(b) > 1:
        c = fraction_poly_gcd(a, b)
        factor = fraction_primitive(fraction_divmod(b, c)[0])
        if len(factor) > 1:
            out.append((factor, i))
        a = fraction_divmod(a, c)[0]
        b = c
        i += 1
    return out


def fraction_on_curve(curve, u) -> bool:
    """u proportional to some (possibly complex) curve point: the pencils
    F_i u_j - F_j u_i, in Fraction arithmetic, share a root, or all vanish
    at (s : t) = (1 : 0)."""
    common = None
    infinity = True
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        coeffs = [curve.F[i][k] * u[j] - curve.F[j][k] * u[i] for k in range(curve.d + 1)]
        if all(c == 0 for c in coeffs):
            continue
        infinity = infinity and coeffs[0] == 0
        poly = fraction_trim(reversed(coeffs))
        common = poly if common is None else fraction_poly_gcd(common, poly)
        if len(common) == 1 and not infinity:
            return False
    if common is None:
        return True
    return infinity or len(common) > 1
