"""The CLI's JSON output: exactly the text of `json.dumps(obj, indent=2)`.

The standard library writes indented JSON with its pure-Python encoder, one
generator step per token; for a certificate's thousands of sub-block rows
that cost several times the certification itself.  Here every scalar goes
through the C-level helper the encoder itself uses
(`encode_basestring_ascii`, `int.__repr__`, `float.__repr__`, with NaN and
the infinities spelled as `json` spells them), and a list of dicts that
share one tuple of str keys and hold only scalar values is rendered from
one template built per list, a column at a time.  Any other shape takes the
plain recursive path.  Dict keys are coerced as `json` coerces them;
values `json` cannot write raise TypeError, and circular containers
ValueError, as `json.dumps` does.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# scalars by exact type, for the template path
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


def _column(values) -> list[str] | None:
    """JSON texts of one column of row values; None unless every value is
    a scalar of an exact type in _SCALAR."""
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        return list(map(_NONFINITE.get, texts, texts))
    if not kinds <= _SCALAR.keys():
        return None
    if len(kinds) == 1:
        return list(map(_SCALAR[kinds.pop()], values))
    return [_SCALAR[type(v)](v) for v in values]


def _rows(items, newline: str) -> str | None:
    """The items of a list of dicts that share one tuple of str keys and
    hold only scalars, each placed at `newline` and rendered from one
    template; None for a list of any other shape."""
    first = items[0]
    if type(first) is not dict or not first:
        return None
    keys = tuple(first)
    # str keys only: 1, 1.0 and True are equal keys that json spells apart
    if any(type(k) is not str for k in keys):
        return None
    if set(map(type, items)) != {dict} or not all(map(keys.__eq__, map(tuple, items))):
        return None
    columns = []
    for values in zip(*map(dict.values, items)):
        texts = _column(values)
        if texts is None:
            return None
        columns.append(texts)
    inner = newline + _INDENT
    template = "{" + ",".join(inner + _string(k).replace("%", "%%") + ": %s" for k in keys) + newline + "}"
    return ("," + newline).join(map(template.__mod__, zip(*columns)))


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
        rows = _rows(x, inner)
        if rows is not None:
            out += ("[", inner, rows, newline, "]")
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
