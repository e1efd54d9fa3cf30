"""Independent oracles the implementation is checked against.

These deliberately re-derive results through a different route than the
library: the tree edit distance oracle explores edit scripts recursively
over forests (no keyroots, no postorder tables), the chunk boundary
oracle rescans every window naively, the tree-JSON oracle builds the
nested dicts that ``exporters.export_json`` writes as text directly (and
the stdlib's encoder writes every JSON artifact's reference text), and
the sentence oracle walks the text one character at a time where
``TextRules.split_sentences`` runs one regular expression.
"""

from __future__ import annotations

import json
from functools import lru_cache

# -- ordered labeled trees as (label, children-tuple) --------------------


def tree_size(tree) -> int:
    return 1 + sum(tree_size(c) for c in tree[1])


def forest_size(forest) -> int:
    return sum(tree_size(t) for t in forest)


@lru_cache(maxsize=None)
def forest_distance(f1, f2) -> int:
    """Unit-cost forest edit distance by rightmost-root script enumeration."""
    if not f1 and not f2:
        return 0
    if not f1:
        return forest_size(f2)
    if not f2:
        return forest_size(f1)
    l1, c1 = f1[-1]
    l2, c2 = f2[-1]
    best = 1 + forest_distance(f1[:-1] + c1, f2)  # delete rightmost root of f1
    best = min(best, 1 + forest_distance(f1, f2[:-1] + c2))  # insert
    best = min(
        best,
        forest_distance(f1[:-1], f2[:-1])
        + forest_distance(c1, c2)
        + (0 if l1 == l2 else 1),
    )
    return best


def brute_tree_distance(a, b) -> int:
    return forest_distance((a,), (b,))


def brute_teds(a, b) -> float:
    return 1.0 - brute_tree_distance(a, b) / max(tree_size(a), tree_size(b))


def enum_forests(n: int, labels: tuple[str, ...]):
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for t in enum_trees(first, labels):
            for rest in enum_forests(n - first, labels):
                out.append((t,) + rest)
    return out


_TREES_CACHE: dict = {}


def enum_trees(n: int, labels: tuple[str, ...]):
    """All ordered labeled trees with exactly n nodes."""
    key = (n, labels)
    if key not in _TREES_CACHE:
        out = []
        for lab in labels:
            for f in enum_forests(n - 1, labels):
                out.append((lab, f))
        _TREES_CACHE[key] = out
    return _TREES_CACHE[key]


def all_trees_up_to(n: int, labels: tuple[str, ...]):
    out = []
    for k in range(1, n + 1):
        out.extend(enum_trees(k, labels))
    return out


# -- chunk boundary oracle ------------------------------------------------


def boundary_oracle(counts: list[int], stride: int, threshold: int) -> list[int]:
    """Naive window rescan: argmax with smallest-index ties, stop past the end."""
    p_max = len(counts) - 1
    boundaries = [0]
    while True:
        lo = boundaries[-1] + stride - threshold
        hi = boundaries[-1] + stride + threshold
        window = [p for p in range(lo, hi + 1) if 0 <= p <= p_max]
        if not window or window[0] > p_max:
            break
        best_count = max(counts[p] for p in window)
        boundaries.append(min(p for p in window if counts[p] == best_count))
    return boundaries


def chunk_oracle(boundaries: list[int], p_max: int) -> list[tuple[int, int]]:
    out = []
    for i, b in enumerate(boundaries):
        if i + 1 < len(boundaries):
            out.append((max(0, b - 1), min(boundaries[i + 1] + 1, p_max)))
        else:
            out.append((max(0, b - 1), p_max))
    return out


# -- tree JSON oracle -----------------------------------------------------


def node_to_dict(node) -> dict:
    """A ``DocNode`` as the dict ``DOC.tree.json`` holds for it."""
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
        "children": [node_to_dict(c) for c in node.children],
    }


def tree_to_dict(tree) -> dict:
    """The whole ``DOC.tree.json`` document of a ``DocTree``: its text is
    ``json.dumps(tree_to_dict(tree), ensure_ascii=False, indent=2) + "\\n"``."""
    return {
        "format_version": 1,
        "doc_id": tree.doc_id,
        "coord_unit": tree.coord_unit.value,
        "root": node_to_dict(tree.root),
    }


def stdlib_text(obj) -> str:
    """The text of a JSON artifact holding ``obj`` by the stdlib's encoder:
    docstitch writes every JSON artifact as exactly this."""
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


# -- sentence splitting oracle --------------------------------------------


def split_sentences(text: str, terminators, closers) -> list[str]:
    """Split after each character in ``terminators`` and the ``closers``
    that follow it; each piece is stripped and empty pieces dropped."""
    out: list[str] = []
    buf: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        buf.append(ch)
        if ch in terminators:
            j = i + 1
            while j < n and text[j] in closers:
                buf.append(text[j])
                j += 1
            sentence = "".join(buf).strip()
            if sentence:
                out.append(sentence)
            buf = []
            i = j
        else:
            i += 1
    trailing = "".join(buf).strip()
    if trailing:
        out.append(trailing)
    return out
