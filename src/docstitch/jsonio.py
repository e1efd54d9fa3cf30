"""The one reader of JSON input files, and pretty JSON text for the
artifacts docstitch writes.

``dumps_pretty(obj)`` returns exactly ``json.dumps(obj, ensure_ascii=False,
indent=2)``.  The stdlib serves any ``indent`` with its pure-Python,
generator-based encoder (its C encoder only takes ``indent=None``), which
made JSON export the slowest stage of a run.  This writer is one recursion
that appends to a single list: strings are escaped by the stdlib's C
``encode_basestring``, and each scalar is emitted as one chunk together
with its separator and key, which keeps the list, and so peak memory,
smaller than the stdlib's.  Inputs are trees built by ``to_dict``, so there
is no circular-reference check.  ``exporters.export_json`` writes the tree
artifact's fixed-shape records from templates and falls back to ``_value``
for any other value.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from pathlib import Path

from .errors import ConfigNotFound, SchemaMismatch

_INDENT = "  "
_int = int.__repr__
_float_repr = float.__repr__
_INF = float("inf")


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return _float_repr(o)


def read_json(path: Path) -> object:
    """The JSON value in the UTF-8 file at ``path``: every input file is read
    here, so an unreadable path (ConfigNotFound) or bad JSON (SchemaMismatch)
    gets the same code whichever file it is."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, or not readable
        raise ConfigNotFound(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise SchemaMismatch(f"{path} is not valid JSON: {exc}") from exc


def dumps_pretty(obj: object) -> str:
    """``json.dumps(obj, ensure_ascii=False, indent=2)``, byte for byte.

    Raises TypeError for a value or key the stdlib cannot encode, with the
    stdlib's message.
    """
    out: list[str] = []
    _value(obj, "", "\n", out)
    return "".join(out)


def _scalar(o: object) -> str | None:
    """The text of a non-container value in the stdlib's isinstance
    precedence (so str/int/float subclasses such as enum members encode as
    their base type), or None for a list, tuple or dict."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _value(o: object, head: str, nl: str, out: list[str]) -> None:
    """Write ``o`` preceded by ``head``; ``nl`` is the newline plus the
    indent of the line ``o`` starts on."""
    text = _scalar(o)
    if text is not None:
        out.append(head + text)
    elif isinstance(o, (list, tuple)):
        _list(o, head, nl, out)
    else:
        _dict(o, head, nl, out)  # type: ignore[arg-type]


def _key(k: object) -> str:
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):  # a bool is an int
        return _quote(_scalar(k))  # type: ignore[arg-type]
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


# _dict and _list test the exact types artifacts hold most before falling
# back to _value, which keeps the stdlib's isinstance precedence.


def _dict(d: dict, head: str, nl: str, out: list[str]) -> None:
    if not d:
        out.append(head + "{}")
        return
    inner = nl + _INDENT
    sep = head + "{" + inner
    for k, v in d.items():
        key = _quote(k) if type(k) is str else _key(k)
        t = type(v)
        if t is str:
            out.append(f"{sep}{key}: {_quote(v)}")
        elif t is int:
            out.append(f"{sep}{key}: {_int(v)}")
        elif v is None:
            out.append(f"{sep}{key}: null")
        elif t is list:
            _list(v, f"{sep}{key}: ", inner, out)
        elif t is dict:
            _dict(v, f"{sep}{key}: ", inner, out)
        else:
            _value(v, f"{sep}{key}: ", inner, out)
        sep = "," + inner
    out.append(nl + "}")


def _list(seq: list | tuple, head: str, nl: str, out: list[str]) -> None:
    if not seq:
        out.append(head + "[]")
        return
    inner = nl + _INDENT
    sep = head + "[" + inner
    for v in seq:
        t = type(v)
        if t is str:
            out.append(sep + _quote(v))
        elif t is int:
            out.append(sep + _int(v))
        elif t is float:
            out.append(sep + _float(v))
        elif t is dict:
            _dict(v, sep, inner, out)
        elif t is list:
            _list(v, sep, inner, out)
        else:
            _value(v, sep, inner, out)
        sep = "," + inner
    out.append(nl + "]")
