"""Dense tensors, flattenings, 2x2x2 sub-block enumeration, symmetric coords.

Tensors are numpy arrays in row-major entry order: float64 for numeric work,
object dtype holding ints/Fractions when every entry is exactly representable.
Mode indices are 0-based throughout the API; serialized reports label modes
from 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite, prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exactsolve import exact_rank

Shape = tuple[int, ...]
# most coordinates C(n+d-1, d) a symmetric tensor file may ask for (a
# binary form of degree 9999): every multidegree is filled in and certified,
# so a few bytes of n and d must not ask for unbounded work
MAX_SYM_COORDS = 10_000


class ShapeMismatch(ValueError):
    pass


class InvalidModes(ValueError):
    pass


class ArityTooSmall(ValueError):
    pass


class InvalidSelector(ValueError):
    pass


class NonFiniteEntry(ValueError):
    """An infinite or NaN entry: no rank or sign test is defined for it."""


class TooManyCoordinates(ValueError):
    """A symmetric tensor with more than MAX_SYM_COORDS coordinates."""


class MalformedEntry(ValueError):
    """Input that is not a number where one is expected (a boolean, null, a
    list or an unreadable string), not an integer where one is expected, or
    not the list or object its place needs."""


def require_finite(values) -> None:
    """Raise NonFiniteEntry unless every (float) value is finite."""
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise NonFiniteEntry("entries must be finite numbers")


def read_scalar(value):
    """One number from outside: an int or Fraction as it is, a finite float,
    or a string, read as a float when spelled with a decimal point or an
    exponent and no "/", exactly ("3", "-1/2") otherwise.  JSON `true` is
    not 1: booleans, null, lists and unreadable strings raise MalformedEntry;
    inf and NaN raise NonFiniteEntry."""
    if isinstance(value, str):
        token = value.strip()
        try:
            if "/" in token or not any(ch in token for ch in ".eE"):
                return Fraction(token)
            value = float(token)
        except (ValueError, ZeroDivisionError):
            raise MalformedEntry(f"not a number: {value!r}") from None
    if isinstance(value, (float, np.floating)):
        if not isfinite(value):
            raise NonFiniteEntry("entries must be finite numbers")
        return float(value)
    if isinstance(value, (bool, np.bool_)):
        raise MalformedEntry("expected numbers, not booleans")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return value
    raise MalformedEntry(f"expected a number, not {type(value).__name__}")


def read_sequence(values) -> list:
    """A list read from outside; MalformedEntry for anything else."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise MalformedEntry(f"expected a list, not {type(values).__name__}")
    return list(values)


def read_scalars(values) -> list:
    """Numbers read from outside under one rule: exact (ints and Fractions)
    when every value is an int, a Fraction or an exact string, and all floats
    as soon as one value is a float."""
    values = read_sequence(values)
    kinds = set(map(type, values))
    if not kinds <= {int, float}:  # plain JSON numbers need no parse
        values = [read_scalar(v) for v in values]
        kinds = set(map(type, values))
    if float in kinds:
        values = list(map(float, values))
        require_finite(values)
    return values


def read_fields(payload, *names) -> list:
    """The named fields of a JSON object read from outside; MalformedEntry if
    the payload is not an object, KeyError for a missing field."""
    if not isinstance(payload, Mapping):
        raise MalformedEntry(f"expected a JSON object with {', '.join(names)}")
    return [payload[name] for name in names]


def read_integer(value) -> int:
    """A size or degree read from JSON, 4 or 4.0, where int() would truncate
    2.5: non-integers raise MalformedEntry, inf/NaN NonFiniteEntry."""
    number = read_scalar(value)
    if number != int(number):
        raise MalformedEntry(f"expected an integer, not {value!r}")
    return int(number)


def is_exact(t: np.ndarray) -> bool:
    return t.dtype == object


def tensor(shape: Sequence[int], entries: Sequence) -> np.ndarray:
    """Build a tensor from row-major entries read by read_scalars: exact
    entries give an object array, floats a float64 array."""
    shape = tuple(read_integer(n) for n in read_sequence(shape))
    if any(n < 1 for n in shape):
        raise ShapeMismatch(f"invalid shape {shape}")
    flat = read_scalars(entries)
    expected = prod(shape)  # Python ints: np.prod wraps past int64
    if len(flat) != expected:
        raise ShapeMismatch(f"expected {expected} entries, got {len(flat)}")
    return np.array(flat, dtype=float if isinstance(flat[0], float) else object).reshape(shape)


def to_float(t: np.ndarray) -> np.ndarray:
    return t.astype(float) if is_exact(t) else t


def outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    result = np.asarray(vectors[0])
    for v in vectors[1:]:
        result = np.multiply.outer(result, np.asarray(v))
    return result


def _check_modes(ndim: int, modes: Iterable[int]) -> tuple[int, ...]:
    modes = tuple(sorted(set(int(m) for m in modes)))
    if not modes:
        raise InvalidModes("row mode set is empty")
    if any(m < 0 or m >= ndim for m in modes):
        raise InvalidModes(f"modes {modes} out of range for order {ndim}")
    if len(modes) == ndim:
        raise InvalidModes("row modes must be a proper subset of all modes")
    return modes


def flatten(t: np.ndarray, row_modes: Iterable[int]) -> np.ndarray:
    """Matrix with the chosen modes as rows, remaining modes as columns.

    Both groups keep their original mode order and enumerate multi-indices
    row-major, so the (3,2,2) mode-0 flattening has columns ordered
    (0,0),(0,1),(1,0),(1,1).
    """
    rows = _check_modes(t.ndim, row_modes)
    cols = tuple(m for m in range(t.ndim) if m not in rows)
    moved = np.transpose(t, rows + cols)
    nrow = int(np.prod([t.shape[m] for m in rows]))
    return moved.reshape(nrow, -1)


def numeric_rank(matrix: np.ndarray, tol: float = 1e-8) -> int:
    """Rank by singular values above tol * sigma_max."""
    m = to_float(np.asarray(matrix))
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def exact_matrix_rank(matrix: np.ndarray) -> int:
    return exact_rank(np.asarray(matrix, dtype=object).tolist())


def matrix_rank(matrix: np.ndarray, tol: float = 1e-8) -> int:
    """Exact rank of an object array, singular-value rank of any other."""
    return exact_matrix_rank(matrix) if is_exact(matrix) else numeric_rank(matrix, tol)


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
        raise ArityTooSmall("sub-blocks need at least three modes")
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


def squeeze_ones(t: np.ndarray) -> np.ndarray:
    """Drop size-1 modes; a 1 x n x m tensor certifies as an n x m matrix."""
    keep = tuple(m for m, n in enumerate(t.shape) if n > 1)
    if len(keep) == t.ndim:
        return t
    return t.reshape([t.shape[m] for m in keep]) if keep else t.reshape([1])


# ---------------------------------------------------------------- symmetric

@dataclass
class SymTensorCoords:
    """Coordinates of a symmetric tensor in the scaled monomial basis.

    coeffs maps each multidegree u (|u| = d, length n) to the coordinate x_u;
    the corresponding polynomial is sum of binom(d, u) x_u t^u.
    """

    n: int
    d: int
    coeffs: dict[tuple[int, ...], object]

    def __post_init__(self):
        expected = comb(self.n + self.d - 1, self.d)
        if len(self.coeffs) != expected:
            raise ShapeMismatch(
                f"need {expected} coordinates for n={self.n}, d={self.d}, got {len(self.coeffs)}"
            )
        for u in self.coeffs:
            if len(u) != self.n or any(e < 0 for e in u) or sum(u) != self.d:
                raise ShapeMismatch(f"bad multidegree {u}")

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.coeffs.values())


def multidegrees(n: int, d: int) -> list[tuple[int, ...]]:
    """All multidegrees of total degree d in n slots, descending lex."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in multidegrees(n - 1, d - first):
            out.append((first,) + rest)
    return out


def index_multidegree(index: Sequence[int], n: int) -> tuple[int, ...]:
    u = [0] * n
    for i in index:
        u[i] += 1
    return tuple(u)


def sym_to_tensor(f: SymTensorCoords) -> np.ndarray:
    """Symmetric tensor with t[i_1 .. i_d] = x_(multidegree of the index).

    For d >= 3 its n^d entries must number at most MAX_SYM_COORDS
    (TooManyCoordinates otherwise, before anything is expanded).  For
    d <= 2 they are fewer than twice the coordinates, which
    `sym_from_json` already holds to MAX_SYM_COORDS."""
    if f.d >= 3 and f.n ** f.d > MAX_SYM_COORDS:
        raise TooManyCoordinates(f"n={f.n}, d={f.d}: the dense tensor has n^d = {f.n ** f.d} entries, "
                                 f"more than {MAX_SYM_COORDS}")
    shape = (f.n,) * f.d
    exact = f.is_exact()
    t = np.empty(shape, dtype=object if exact else float)
    for index in np.ndindex(shape):
        v = f.coeffs[index_multidegree(index, f.n)]
        t[index] = v if exact else float(v)
    return t


# --------------------------------------------------------------------- JSON

def num_json(v):
    """JSON form of one scalar: "n" or "n/d" for a Fraction, int for an
    integer, {"re", "im"} for a complex number, float otherwise.  A plain
    float or int is its own JSON form and returns before any isinstance test,
    which on an ABC such as Fraction costs more than the rest of the call."""
    if type(v) is float or type(v) is int:
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, complex):
        return {"re": float(v.real), "im": float(v.imag)}
    return float(v)


def tensor_to_json(t: np.ndarray) -> dict:
    return {
        "shape": list(t.shape),
        "entries": [num_json(v) for v in t.ravel()],
    }


def tensor_from_json(payload: Mapping) -> np.ndarray:
    return tensor(*read_fields(payload, "shape", "entries"))


def _coordinates_exceed(n: int, d: int, limit: int) -> bool:
    """Whether C(n+d-1, d) > limit.  C(n+d-1, k) grows with k up to
    min(d, n-1), so the product stops as soon as it passes the limit and a
    huge n or d costs no more than a small one."""
    count = 1
    for k in range(min(d, n - 1)):
        count = count * (n + d - 1 - k) // (k + 1)
        if count > limit:
            break
    return count > limit


def sym_from_json(payload: Mapping) -> SymTensorCoords:
    """Multidegrees omitted from the JSON coeffs count as zero; every key is
    checked against n and d, and their coordinate count against
    MAX_SYM_COORDS (TooManyCoordinates), before they are filled in."""
    n, d, given = read_fields(payload, "n", "d", "coeffs")
    n, d = read_integer(n), read_integer(d)
    if not isinstance(given, Mapping):
        raise MalformedEntry("coeffs must map multidegree keys to numbers")
    values = read_scalars(list(given.values()))
    coeffs = {}
    for key, value in zip(given, values):
        try:
            u = tuple(int(p) for p in key.split(","))
        except ValueError:
            raise MalformedEntry(f"multidegree key {key!r} is not comma-separated integers") from None
        if len(u) != n or any(e < 0 for e in u) or sum(u) != d:
            raise ShapeMismatch(f"bad multidegree {u} for n={n}, d={d}")
        coeffs[u] = value
    if _coordinates_exceed(n, d, MAX_SYM_COORDS):
        raise TooManyCoordinates(f"n={n}, d={d} has more than {MAX_SYM_COORDS} coordinates")
    zero = 0.0 if values and isinstance(values[0], float) else Fraction(0)
    for u in multidegrees(n, d):
        coeffs.setdefault(u, zero)
    return SymTensorCoords(n, d, coeffs)
