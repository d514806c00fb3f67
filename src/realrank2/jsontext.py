"""The CLI's JSON output: exactly the text of `json.dumps(obj, indent=2)`.

The standard library writes indented JSON with its pure-Python encoder, one
generator step per token; for a certificate's thousands of sub-block rows
that cost several times the certification itself.  Here every scalar goes
through the C-level helper the encoder itself uses
(`encode_basestring_ascii`, `int.__repr__`, `float.__repr__`, with NaN and
the infinities spelled as `json` spells them).  A sub-block report's rows
come as `Rows`, a list held as its columns, and are rendered a column at
a time: each column becomes a list of texts, and one join interleaves
them with the fixed text between them, with no dict per row.  Everything
else takes the plain recursive path.  Dict keys are coerced as `json`
coerces them; values `json` cannot write raise TypeError, and circular
containers ValueError, as `json.dumps` does.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string
from typing import Sequence

_INDENT = "  "
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# scalars by exact type, for columns
_SCALAR = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar(x) -> str | None:
    """JSON text of a scalar, with the type tests of `json`; None otherwise."""
    if isinstance(x, str):
        return _string(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    return None


def _key(key) -> str:
    if isinstance(key, str):
        return _string(key)
    text = _scalar(key)  # json quotes the text of a number, bool or None key
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return '"' + text + '"'


def _column(values) -> Sequence[str] | None:
    """JSON texts of one column of row values; None unless every value is
    a float (of any float type, as `json` prints those) or a scalar of an
    exact type in _SCALAR."""
    if type(values) is Column:
        return values.texts
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # some value is not a float
        pass
    else:
        # a finite sum means no NaN and no infinity among the values
        return texts if math.isfinite(sum(values)) else list(map(_NONFINITE.get, texts, texts))
    kinds = set(map(type, values))
    if not kinds <= _SCALAR.keys():
        return None
    if len(kinds) == 1:
        return list(map(_SCALAR[kinds.pop()], values))
    return [_SCALAR[type(v)](v) for v in values]


class Column(tuple):
    """A tuple of JSON scalars that keeps their JSON texts, for a column
    that many outputs repeat, such as the sub-block labels of one shape:
    `dumps` reads the texts instead of encoding the values again."""

    def __new__(cls, values):
        values = tuple(values)
        column = super().__new__(cls, values)
        texts = _column(values)  # a tuple: a cached column is shared by every caller
        column.texts = None if texts is None else tuple(texts)
        return column


def _as_list(method):
    """`method` of list, applied to the list that rows stand for, and to
    the list of any rows argument."""
    def read(self, *args):
        args = [list(a) if isinstance(a, Rows) else a for a in args]
        result = method(list(self), *args)
        if result is NotImplemented and any(isinstance(a, tuple) for a in args):
            # the tuple's own method would answer from the empty tuple
            raise TypeError(f"{method.__name__} is not supported between a list and a tuple")
        return result
    return read


class Rows(tuple):
    """A list held as its columns: row i is the dict {keys[j]: columns[j][i]}
    or, without keys, the tuple (columns[0][i], columns[1][i], ...).

    A tuple subclass, so that both `json` encoders write it as an array,
    which they do by iterating it; the tuple itself holds no items.  Every
    read answers as the list of rows does: len, truth, iteration, indexing,
    `in`, `count` and `index`, comparisons, `+` and `*` (which give lists)
    and repr; copies and pickles are rows again.  So rows equal only the
    list they stand for, or rows that stand for an equal list.  `dumps`
    renders keyed rows of scalars a column at a time and never builds
    their dicts.
    """

    def __new__(cls, columns: Sequence[Sequence], keys: Sequence[str] | None = None):
        if not columns or len(set(map(len, columns))) != 1 or keys is not None and len(keys) != len(columns):
            raise ValueError("rows need at least one column, all of one length, and a key for each")
        rows = super().__new__(cls)
        rows.columns, rows.keys = tuple(columns), keys
        return rows

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        rows = zip(*self.columns)
        return rows if self.keys is None else (dict(zip(self.keys, row)) for row in rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        row = tuple(column[i] for column in self.columns)
        return row if self.keys is None else dict(zip(self.keys, row))

    def __eq__(self, other):
        # a list never equals a tuple, whose own test would read the empty tuple
        if isinstance(other, tuple) and not isinstance(other, Rows):
            return False
        return list.__eq__(list(self), list(other) if isinstance(other, Rows) else other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __lt__, __le__, __gt__, __ge__ = map(_as_list, (list.__lt__, list.__le__, list.__gt__, list.__ge__))
    __contains__, count, index = map(_as_list, (list.__contains__, list.count, list.index))
    __add__, __mul__, __rmul__, __repr__ = map(_as_list, (list.__add__, list.__mul__, list.__rmul__, list.__repr__))

    def __radd__(self, other):
        return other + list(self)

    def __reduce__(self):
        return Rows, (self.columns, self.keys)


def _rows(rows: Rows, newline: str) -> list[str] | None:
    """The text of keyed rows, each placed at `newline`, as pieces to join;
    None unless every key is a str and every value a scalar."""
    # str keys only: 1, 1.0 and True are equal keys that json spells apart
    if rows.keys is None or any(type(k) is not str for k in rows.keys):
        return None
    texts = list(map(_column, rows.columns))
    if None in texts:
        return None
    # a row is lead_0 text_0 lead_1 text_1 ..., where lead_0 also closes the row before
    inner = newline + _INDENT
    leads = ["," + inner + _string(k) + ": " for k in rows.keys]
    opening = "{" + leads[0][1:]
    leads[0] = newline + "}," + newline + opening
    width = 2 * len(leads)
    parts = [text for lead in leads for text in (lead, None)] * len(rows)
    for j, column in enumerate(texts):
        parts[2 * j + 1::width] = column
    parts[0] = opening
    parts.append(newline + "}")
    return parts


def _write(x, newline: str, out: list[str], markers: dict) -> None:
    text = _scalar(x)
    if text is not None:
        out.append(text)
        return
    is_list = isinstance(x, (list, tuple))
    if not is_list and not isinstance(x, dict):
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")
    if not x:
        out.append("[]" if is_list else "{}")
        return
    if id(x) in markers:
        raise ValueError("Circular reference detected")
    markers[id(x)] = x
    inner = newline + _INDENT
    if is_list:
        rows = _rows(x, inner) if type(x) is Rows else None
        if rows is not None:
            out += ("[", inner)
            out += rows
            out += (newline, "]")
        else:
            out.append("[")
            for i, item in enumerate(x):
                out.append("," + inner if i else inner)
                _write(item, inner, out, markers)
            out.append(newline + "]")
    else:
        out.append("{")
        for i, (key, value) in enumerate(x.items()):
            out.append(("," + inner if i else inner) + _key(key) + ": ")
            _write(value, inner, out, markers)
        out.append(newline + "}")
    del markers[id(x)]


def dumps(obj) -> str:
    """Exactly `json.dumps(obj, indent=2)`."""
    out: list[str] = []
    _write(obj, "\n", out, {})
    return "".join(out)
