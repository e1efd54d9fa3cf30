"""Tree exporters: nested JSON (with coordinates) and Markdown (without).

The JSON form is the complete representation (node identity, levels,
title paths, summaries, body elements and their page/bbox geometry) and
round-trips losslessly through ``tree_from_json``.  Markdown renders
headings at their level depth, paragraphs in reading order, tables as HTML
blocks and images as references with captions; it never emits coordinates.
"""

from __future__ import annotations

import json

from .errors import MalformedInput
from .jsonio import dumps_pretty
from .model import CanonicalElement, CoordUnit, ElementType, check_strings
from .tree import DocNode, DocTree, NodeKind

FORMAT_VERSION = 1


def _node_to_dict(node: DocNode) -> dict:
    # Only encoded, never kept, so it shares the node's lists instead of
    # copying them; the (page, box) tuples encode as arrays.
    return {
        "node_id": node.node_id,
        "kind": node.kind,
        "title": node.title_text,
        "level": node.level,
        "anchor": node.anchor,
        "title_path": node.title_path,
        "summary": node.summary,
        "body": [e.to_dict() for e in node.body],
        "bboxes": node.bboxes,
        "children": [_node_to_dict(c) for c in node.children],
    }


def export_json(tree: DocTree) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "doc_id": tree.doc_id,
        "coord_unit": tree.coord_unit.value,
        "root": _node_to_dict(tree.root),
    }
    return dumps_pretty(doc) + "\n"


def _node_from_dict(d: dict) -> DocNode:
    node = DocNode(
        node_id=d["node_id"],
        kind=d["kind"],
        level=int(d["level"]),
        anchor=int(d["anchor"]),
        title_text=d.get("title"),
        title_path=list(d.get("title_path", [])),
        summary=d.get("summary"),
        body=[CanonicalElement.from_dict(e) for e in d.get("body", [])],
        bboxes=[(int(p), [float(v) for v in box]) for p, box in d.get("bboxes", [])],
        children=[_node_from_dict(c) for c in d.get("children", [])],
    )
    check_strings(node.node_id, node.kind, node.title_text, node.summary, *node.title_path)
    return node


def tree_from_dict(doc: dict) -> DocTree:
    """Raises MalformedInput naming a missing or unreadable field."""
    try:
        doc_id = doc["doc_id"]
        check_strings(doc_id)
        return DocTree(
            doc_id=doc_id,
            coord_unit=CoordUnit(doc["coord_unit"]),
            root=_node_from_dict(doc["root"]),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        if isinstance(exc, KeyError):
            raise MalformedInput(f"tree is missing its {exc.args[0]} field") from exc
        raise MalformedInput(f"tree has a bad field: {exc}") from exc


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
        out.append("#" * max(1, node.level) + " " + node.title_text)
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
