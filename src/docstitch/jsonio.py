"""The one reader of JSON input files, and pretty JSON text for the
artifacts docstitch writes.

``dumps_pretty(obj)`` returns exactly ``json.dumps(obj, ensure_ascii=False,
indent=2)``.  The stdlib serves any ``indent`` with its pure-Python,
generator-based encoder (its C encoder only takes ``indent=None``), which
made JSON export the slowest stage of a run.  This writer is one recursion
that appends to a single list: strings are escaped by the stdlib's C
``encode_basestring``, and each scalar is emitted as one part together
with its separator and key.  ``write_pretty(obj, sink)`` hands the text to
``sink`` in bounded pieces (see ``_PIECE_PARTS``), so writing an artifact
never holds its whole text; ``dumps_pretty`` joins the same pieces, so the
string and the file cannot differ.  Inputs are trees built by ``to_dict``,
so there is no circular-reference check.  ``exporters.export_json`` writes
the tree artifact's fixed-shape records from templates, with the same
piece rule, and falls back to ``write_pretty`` for any other value.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Callable

from .errors import ConfigNotFound, SchemaMismatch

_INDENT = "  "
_int = int.__repr__
_float_repr = float.__repr__
_INF = float("inf")

# The text leaves the writer in pieces: once its parts list holds this many
# parts, the list is joined, handed to the sink and cleared.  The test runs
# when a container (an object or array) closes, so a piece holds whole
# values and the writer holds a few hundred parts at a time, not the text.
_PIECE_PARTS = 512

Sink = Callable[[str], object]


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


def write_pretty(obj: object, sink: Sink, nl: str = "\n") -> None:
    """Hand the text of ``dumps_pretty(obj)`` to ``sink`` in order, in
    pieces of about ``_PIECE_PARTS`` parts; ``nl`` is the newline plus the
    indent of the line ``obj`` starts on.

    Raises TypeError for a value or key the stdlib cannot encode, with the
    stdlib's message.
    """
    out: list[str] = []
    _value(obj, "", nl, out, sink)
    sink("".join(out))


def dumps_pretty(obj: object) -> str:
    """``json.dumps(obj, ensure_ascii=False, indent=2)``, byte for byte."""
    pieces: list[str] = []
    write_pretty(obj, pieces.append)
    return "".join(pieces)


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


def _value(o: object, head: str, nl: str, out: list[str], sink: Sink) -> None:
    """Write ``o`` preceded by ``head``; ``nl`` is the newline plus the
    indent of the line ``o`` starts on."""
    text = _scalar(o)
    if text is not None:
        out.append(head + text)
    elif isinstance(o, (list, tuple)):
        _list(o, head, nl, out, sink)
    else:
        _dict(o, head, nl, out, sink)  # type: ignore[arg-type]


def _key(k: object) -> str:
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):  # a bool is an int
        return _quote(_scalar(k))  # type: ignore[arg-type]
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


# _dict and _list test the exact types artifacts hold most before falling
# back to _value, which keeps the stdlib's isinstance precedence; each
# hands its parts on to the sink once it closes with _PIECE_PARTS of them.


def _dict(d: dict, head: str, nl: str, out: list[str], sink: Sink) -> None:
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
            _list(v, f"{sep}{key}: ", inner, out, sink)
        elif t is dict:
            _dict(v, f"{sep}{key}: ", inner, out, sink)
        else:
            _value(v, f"{sep}{key}: ", inner, out, sink)
        sep = "," + inner
    out.append(nl + "}")
    if len(out) >= _PIECE_PARTS:
        sink("".join(out))
        out.clear()


def _list(seq: list | tuple, head: str, nl: str, out: list[str], sink: Sink) -> None:
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
            _dict(v, sep, inner, out, sink)
        elif t is list:
            _list(v, sep, inner, out, sink)
        else:
            _value(v, sep, inner, out, sink)
        sep = "," + inner
    out.append(nl + "]")
    if len(out) >= _PIECE_PARTS:
        sink("".join(out))
        out.clear()
