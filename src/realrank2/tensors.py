"""Dense tensors, flattenings, symmetric coords.

Tensors are numpy arrays in row-major entry order: float64 for numeric work,
object dtype holding ints/Fractions when every entry is exactly representable.
Integer and boolean arrays are exact too; `integers` scales any exact array
to int64 or, past int64, to Python ints.
Mode indices are 0-based throughout the API; serialized reports label modes
from 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite, prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exactsolve import exact_rank, integer_row

Shape = tuple[int, ...]
# most coordinates C(n+d-1, d) a symmetric tensor file may ask for (a
# binary form of degree 9999): every multidegree is filled in and certified,
# so a few bytes of n and d must not ask for unbounded work
MAX_SYM_COORDS = 10_000
# a Gram matrix is built in int64 only when c * B^2 is at most this
INT64_MAX = 2**63 - 1
# tensor shapes whose flattening gather plan flattening_ranks keeps
FLATTENING_PLAN_CACHE_SIZE = 16


class ShapeMismatch(ValueError):
    pass


class InvalidModes(ValueError):
    pass


class ArityTooSmall(ValueError):
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
    """Object (ints and Fractions), integer or boolean dtype."""
    return t.dtype.kind in "Oiub"


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
    nrow = prod(t.shape[m] for m in rows)
    return moved.reshape(nrow, -1)


def numeric_rank(matrix: np.ndarray, tol: float = 1e-8):
    """Rank by singular values above tol * sigma_max: one int for a matrix,
    a list for a (k, r, c) stack, whose k matrices take one SVD call.  The
    stack is made C-contiguous first, so each matrix's singular values are
    bit for bit those of its own call."""
    m = np.ascontiguousarray(to_float(np.asarray(matrix)))
    if m.size == 0:
        return 0 if m.ndim == 2 else [0] * len(m)
    s = np.linalg.svd(m, compute_uv=False)
    ranks = np.count_nonzero(s > tol * s[..., :1], axis=-1)
    return int(ranks) if m.ndim == 2 else ranks.tolist()


def integers(t: np.ndarray) -> np.ndarray:
    """An exact array scaled to integers by the lcm of its denominators
    (ranks and signs do not change): int64 when max |entry| <= INT64_MAX,
    Python ints (object dtype) otherwise.  The one place an exact array
    becomes integers: the kernels below read an int64 array's bound by
    numpy and count an object array as past every int64 bound."""
    flat = integer_row(t.ravel().tolist())
    dtype = np.int64 if max(map(abs, flat), default=0) <= INT64_MAX else object
    return np.array(flat, dtype=dtype).reshape(t.shape)


def peak(a: np.ndarray) -> int:
    """max |entry| of an integer or boolean array, read by numpy."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def exact_matrix_rank(matrix: np.ndarray):
    """Exact rank of an exact matrix: one int for a matrix, a list for a
    (k, r, c) stack.  Object entries may be ints or Fractions; certification
    hands over the output of `integers`.

    Rank is invariant under transposition, so every stack is turned so
    that r <= c.  A wide matrix M (r < c) is ranked on its r x r Gram matrix
    M M^T, whose rank over Q is M's.  The Gram stack is one batched matmul:
    in int64 when M is int64 and c * B^2 <= INT64_MAX (B = max |entry|),
    which bounds every product and partial sum, and in the entries' Python
    arithmetic otherwise.  Each Gram or square matrix gets one exact_rank.
    """
    m = np.asarray(matrix)
    stack = m if m.ndim == 3 else m[None]
    r, c = stack.shape[1:]
    if r > c:
        stack = stack.transpose(0, 2, 1)
        r, c = c, r
    if r < c:
        if stack.dtype != np.int64 or c * peak(stack) ** 2 > INT64_MAX:
            stack = stack.astype(object)
        stack = stack @ stack.transpose(0, 2, 1)
    ranks = [exact_rank(rows) for rows in stack.tolist()]
    return ranks if m.ndim == 3 else ranks[0]


def matrix_rank(matrix: np.ndarray, tol: float = 1e-8):
    """Exact rank of an exact array, singular-value rank of any other; a
    (k, r, c) stack gets a list of k ranks."""
    return exact_matrix_rank(matrix) if is_exact(matrix) else numeric_rank(matrix, tol)


@functools.lru_cache(maxsize=FLATTENING_PLAN_CACHE_SIZE)
def _flattening_plan(shape: Shape, selections: tuple[tuple[int, ...], ...]) -> tuple:
    """The flattenings of a tensor of this shape, grouped by matrix shape:
    per group, the positions of its selections and a read-only (k, r, c)
    array of flat entry indices that gathers their stack in one step."""
    index = np.arange(prod(shape)).reshape(shape)
    groups: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
    for i, s in enumerate(selections):
        mat = flatten(index, s)
        groups.setdefault(mat.shape, []).append((i, mat))
    plan = []
    for members in groups.values():
        idx = np.stack([mat for _, mat in members])
        idx.flags.writeable = False  # shared by every call on this shape
        plan.append((tuple(i for i, _ in members), idx))
    return tuple(plan)


def flattening_ranks(t: np.ndarray, selections: Iterable[Iterable[int]], tol: float = 1e-8) -> list[int]:
    """matrix_rank(flatten(t, s), tol) for each row-mode selection s, with
    one rank call per matrix shape, on the stack of that shape's
    flattenings.  Certification scales an exact tensor by `integers` first."""
    selections = tuple(tuple(s) for s in selections)
    flat = t.ravel()
    ranks = [0] * len(selections)
    for where, idx in _flattening_plan(t.shape, selections):
        for i, rank in zip(where, matrix_rank(flat[idx], tol)):
            ranks[i] = rank
    return ranks


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

    coords lists the coordinate x_u of each multidegree u (|u| = d, length
    n) in multidegrees(n, d) order; the corresponding polynomial is sum of
    binom(d, u) x_u t^u.
    """

    n: int
    d: int
    coords: list

    def __post_init__(self):
        expected = comb(self.n + self.d - 1, self.d)
        if len(self.coords) != expected:
            raise ShapeMismatch(
                f"need {expected} coordinates for n={self.n}, d={self.d}, got {len(self.coords)}"
            )

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.coords)


def multidegrees(n: int, d: int) -> list[tuple[int, ...]]:
    """All multidegrees of total degree d in n slots, descending lex;
    ShapeMismatch unless n >= 1 and d >= 0."""
    if n < 1 or d < 0:
        raise ShapeMismatch(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in multidegrees(n - 1, d - first):
            out.append((first,) + rest)
    return out


def comb_multi(d: int, u: Sequence[int]) -> int:
    """Multinomial coefficient binom(d; u)."""
    out = 1
    rest = d
    for e in u:
        out *= comb(rest, e)
        rest -= e
    return out


def index_multidegree(index: Sequence[int], n: int) -> tuple[int, ...]:
    u = [0] * n
    for i in index:
        u[i] += 1
    return tuple(u)


def sym_to_tensor(f: SymTensorCoords) -> np.ndarray:
    """Symmetric tensor with t[i_1 .. i_d] = x_(multidegree of the index),
    for `hyperdet --symmetric` and `decompose --symmetric`; certification
    reads catalecticants of the coordinates and never expands.

    For d >= 3 its n^d entries must number at most MAX_SYM_COORDS
    (TooManyCoordinates otherwise, before anything is expanded).  For
    d <= 2 they are fewer than twice the coordinates, which
    `sym_from_json` already holds to MAX_SYM_COORDS."""
    if f.d >= 3 and f.n ** f.d > MAX_SYM_COORDS:
        raise TooManyCoordinates(f"n={f.n}, d={f.d}: the dense tensor has n^d = {f.n ** f.d} entries, "
                                 f"more than {MAX_SYM_COORDS}")
    shape = (f.n,) * f.d
    where = {u: i for i, u in enumerate(multidegrees(f.n, f.d))}
    entries = [f.coords[where[index_multidegree(index, f.n)]] for index in np.ndindex(shape)]
    return np.array(entries, dtype=object if f.is_exact() else float).reshape(shape)


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
    zero = 0.0 if values and isinstance(values[0], float) else 0
    return SymTensorCoords(n, d, [coeffs.get(u, zero) for u in multidegrees(n, d)])
