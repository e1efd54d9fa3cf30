"""Tree exporters: nested JSON (with coordinates) and Markdown (without).

The JSON form is the complete representation (node identity, levels,
title paths, summaries, body elements and their page/bbox geometry) and
round-trips losslessly through ``tree_from_json``.  Markdown renders
headings at their level depth, paragraphs in reading order, tables as HTML
blocks and images as references with captions; it never emits coordinates.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring as _quote
from typing import Callable, TextIO

from .errors import BAD_FIELD, MalformedInput, bad_field
from .jsonio import _INDENT, _PIECE_PARTS, _float, _int, write_pretty
from .model import (
    CanonicalElement,
    CoordUnit,
    ElementType,
    check_strings,
    json_int,
    json_str,
    page_boxes,
    string_list,
)
from .tree import DocNode, DocTree, NodeKind

FORMAT_VERSION = 1


# DOC.tree.json is written straight from the tree: each fixed-shape record
# (node, element, (page, bbox) pair, 4-number bbox) is one %-template with
# its indentation built in, so a record costs one format call instead of a
# list entry per scalar.  The text is exactly what jsonio.dumps_pretty (and
# so json.dumps(indent=2, ensure_ascii=False)) gives for the same records as
# dicts; tests/oracles.py keeps that dict form as the reference.
#
# The text leaves the writer in pieces by jsonio's rule: once its parts list
# holds _PIECE_PARTS parts (a node's own record, or a bracket or comma
# between child nodes, is one part), the list is joined, handed to the sink
# and cleared.  So writing DOC.tree.json holds a few hundred node records at
# a time, not the whole text.  The largest part is the root's record, which
# lists every page's furniture: 2% of the text on the benchmark's
# 1,800-page report.


def _text(v: object, nl: str) -> str:
    """The JSON text of a slot value on a line indented ``nl``: exact-type
    fast paths, else jsonio's encoder, which keeps the stdlib's isinstance
    precedence (enum members, bools, NaN) and indents nested containers."""
    t = type(v)
    if t is str:
        return _quote(v)  # type: ignore[arg-type]
    if t is int:
        return _int(v)  # type: ignore[arg-type]
    if t is float:
        return _float(v)  # type: ignore[arg-type]
    if v is None:
        return "null"
    pieces: list[str] = []
    write_pretty(v, pieces.append, nl)
    return "".join(pieces)


@lru_cache(maxsize=None)  # keyed by indent: one entry per tree depth
def _layout(nl: str) -> tuple[str, ...]:
    """The indents and templates of a node whose opening brace sits on a
    line indented ``nl``."""
    i = nl + _INDENT  # the node's keys
    j = i + _INDENT  # its list items: elements, pairs, child nodes
    k = j + _INDENT  # an element's keys, a pair's entries
    m = k + _INDENT  # bbox numbers
    head = (
        f'{{{i}"node_id": %s,{i}"kind": %s,{i}"title": %s,{i}"level": %s,'
        f'{i}"anchor": %s,{i}"title_path": %s,{i}"summary": %s,{i}"body": %s,'
        f'{i}"bboxes": %s,{i}"children": '
    )
    element = (
        f'{{{k}"idx": %s,{k}"type": %s,{k}"content": %s,{k}"page": %s,'
        f'{k}"bbox": %s,{k}"table_html": %s,{k}"asset_ref": %s{j}}}'
    )
    pair = f"[{k}%s,{k}%s{j}]"
    box = f"[{m}%s,{m}%s,{m}%s,{m}%s{k}]"
    return i, j, k, "[" + j, "," + j, i + "]", nl + "}", head, element, pair, box


def _box(box: object, box_tpl: str, nl: str) -> str:
    """A bbox on a line indented ``nl`` (after its key or as a pair entry)."""
    if (type(box) is list or type(box) is tuple) and len(box) == 4:  # type: ignore[arg-type]
        x0, y0, x1, y1 = box  # type: ignore[misc]
        if type(x0) is float and type(y0) is float and type(x1) is float and type(y1) is float:
            text = box_tpl % (x0, y0, x1, y1)  # %s of a float is its repr
            if "n" not in text:  # else a nan or inf, spelt NaN or Infinity in JSON
                return text
        m = nl + _INDENT
        return box_tpl % (_text(x0, m), _text(y0, m), _text(x1, m), _text(y1, m))
    return _text(box, nl)


def _write_node(node: DocNode, nl: str, out: list[str], sink: Callable[[str], object]) -> None:
    i, j, k, first, rest, end, close, head, element, pair, box_tpl = _layout(nl)
    body = [
        element % (
            _text(e.idx, k),
            _text(e.etype.value, k),
            _text(e.content, k),
            _text(e.page, k),
            _box(e.bbox, box_tpl, k),
            _text(e.table_html, k),
            _text(e.asset_ref, k),
        )
        for e in node.body
    ]
    boxes = [
        pair % (_text(p[0], k), _box(p[1], box_tpl, k))
        if (type(p) is tuple or type(p) is list) and len(p) == 2
        else _text(p, j)
        for p in node.bboxes
    ]
    out.append(head % (
        _text(node.node_id, i),
        _text(node.kind, i),
        _text(node.title_text, i),
        _text(node.level, i),
        _text(node.anchor, i),
        _text(node.title_path, i),
        _text(node.summary, i),
        first + rest.join(body) + end if body else "[]",
        first + rest.join(boxes) + end if boxes else "[]",
    ))
    if node.children:
        sep = first
        for child in node.children:
            out.append(sep)
            _write_node(child, j, out, sink)
            sep = rest
        out.append(end)
    else:
        out.append("[]")
    out.append(close)
    if len(out) >= _PIECE_PARTS:
        sink("".join(out))
        out.clear()


def _write_tree(tree: DocTree, sink: Callable[[str], object]) -> None:
    """Hand the text of ``DOC.tree.json`` to ``sink`` in order, in pieces
    of about ``_PIECE_PARTS`` parts."""
    i = "\n" + _INDENT
    out = [
        f'{{{i}"format_version": {FORMAT_VERSION},{i}"doc_id": %s,{i}"coord_unit": %s,'
        f'{i}"root": ' % (_text(tree.doc_id, i), _text(tree.coord_unit.value, i))
    ]
    _write_node(tree.root, i, out, sink)
    out.append("\n}\n")
    sink("".join(out))


def write_json(tree: DocTree, fp: TextIO) -> None:
    """Write ``export_json(tree)`` to the text file ``fp`` in bounded
    pieces, so the whole text is never held at once."""
    _write_tree(tree, fp.write)


def export_json(tree: DocTree) -> str:
    """``DOC.tree.json``: the text ``json.dumps(doc, ensure_ascii=False,
    indent=2) + "\\n"`` gives for the tree as nested dicts, byte for byte."""
    pieces: list[str] = []
    _write_tree(tree, pieces.append)
    return "".join(pieces)


def _node_from_dict(d: dict) -> DocNode:
    node = DocNode(
        node_id=json_str(d["node_id"]),
        kind=json_str(d["kind"]),
        level=json_int(d["level"]),
        anchor=json_int(d["anchor"]),
        title_text=d.get("title"),
        title_path=list(string_list(d.get("title_path", []))),
        summary=d.get("summary"),
        body=[CanonicalElement.from_dict(e) for e in d.get("body", [])],
        bboxes=page_boxes(d.get("bboxes", [])),  # type: ignore[arg-type]
        children=[_node_from_dict(c) for c in d.get("children", [])],
    )
    check_strings(node.title_text, node.summary, *node.title_path)
    return node


def tree_from_dict(doc: dict) -> DocTree:
    """Raises MalformedInput naming a missing or unreadable field."""
    try:
        return DocTree(
            doc_id=json_str(doc["doc_id"]),
            coord_unit=CoordUnit(doc["coord_unit"]),
            root=_node_from_dict(doc["root"]),
        )
    except BAD_FIELD as exc:
        raise bad_field(MalformedInput, "tree", exc) from exc


def tree_from_json(text: str) -> DocTree:
    return tree_from_dict(json.loads(text))


def _render_visual(node: DocNode, out: list[str]) -> None:
    visual = node.body[0] if node.body else None
    captions = [e for e in node.body[1:]] if len(node.body) > 1 else []
    caption_text = captions[0].content if captions else ""
    if visual is not None and visual.etype is ElementType.TABLE:
        if caption_text:
            out.append(caption_text)
            out.append("")
        if visual.table_html:
            out.append(visual.table_html)
            out.append("")
    else:
        ref = (visual.asset_ref if visual else None) or (
            f"#image-{visual.idx}" if visual else "#image"
        )
        out.append(f"![{caption_text}]({ref})")
        out.append("")
    for extra in captions[1:]:
        if extra.content:
            out.append(extra.content)
            out.append("")


def _render_node(node: DocNode, out: list[str]) -> None:
    if node.kind == NodeKind.SECTION and node.title_text is not None:
        # Markdown has six heading levels; deeper sections share the sixth.
        out.append("#" * min(6, max(1, node.level)) + " " + node.title_text)
        out.append("")
    if node.kind == NodeKind.VISUAL:
        _render_visual(node, out)
        return

    items: list[tuple[int, str, object]] = []
    for e in node.body:
        items.append((e.idx, "para", e))
    for child in node.children:
        items.append((child.anchor, "node", child))
    items.sort(key=lambda it: it[0])

    for _, kind, payload in items:
        if kind == "para":
            element: CanonicalElement = payload  # type: ignore[assignment]
            if element.content:
                out.append(element.content)
                out.append("")
        else:
            _render_node(payload, out)  # type: ignore[arg-type]


def export_markdown(tree: DocTree) -> str:
    out: list[str] = []
    _render_node(tree.root, out)
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"
