"""Document tree assembly and enrichment.

Title levels define the section skeleton (each title parents to the
nearest preceding title of strictly smaller level), texts attach to the
most recent open section, visuals hang under the section their link names
with their captions inside the visual node.  Enrichment then splits
oversized section bodies into subnodes at paragraph boundaries and gives
every node a summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Sequence

from .apply import ResolvedDocument
from .errors import BAD_FIELD, BackendUnavailable, Flag, MalformedResponse, bad_field
from .model import (
    CanonicalElement,
    CoordUnit,
    ElementType,
    FURNITURE_TYPES,
    VISUAL_TYPES,
    check_strings,
)
from .predictors import remote
from .textrules import TextRules

class NodeKind:
    ROOT = "root"
    SECTION = "section"
    SUBNODE = "subnode"
    VISUAL = "visual"


@dataclass(slots=True)
class DocNode:
    """One tree node; slotted, since a tree holds about one per section,
    subnode and visual."""

    node_id: str
    kind: str
    level: int
    anchor: int  # ordering key: the governing element idx (-1 for root)
    title_text: Optional[str] = None
    title_path: list[str] = field(default_factory=list)
    body: list[CanonicalElement] = field(default_factory=list)
    bboxes: list[tuple[int, Sequence[float]]] = field(default_factory=list)
    summary: Optional[str] = None
    children: list[DocNode] = field(default_factory=list)

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        # Pickle protocols 0 and 1 refuse a slotted class without its own
        # __getstate__; pickle and copy restore (no __dict__, slot values)
        # by setting each slot.
        return None, {f.name: getattr(self, f.name) for f in fields(self)}

    def body_texts(self) -> list[str]:
        return [e.content for e in self.body if e.content]

    def walk(self) -> Iterator[DocNode]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class DocTree:
    doc_id: str
    coord_unit: CoordUnit
    root: DocNode
    flags: list[Flag] = field(default_factory=list)
    # The (page, bbox) pairs of each merged element's fragments, by the
    # merged element's idx, as build_tree reads them from the merge records;
    # like ``flags``, not part of DOC.tree.json.
    fragment_boxes: dict[int, list[tuple[int, Sequence[float]]]] = field(default_factory=dict)

    def walk(self) -> Iterator[DocNode]:
        return self.root.walk()

    def node(self, node_id: str) -> DocNode:
        for n in self.walk():
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)

    def element_idx_multiset(self) -> list[int]:
        """Every element the tree carries: body members plus the title
        element each section node is anchored on."""
        out: list[int] = []
        for n in self.walk():
            out.extend(e.idx for e in n.body)
            if n.kind == NodeKind.SECTION:
                out.append(n.anchor)
        return sorted(out)


def build_tree(resolved: ResolvedDocument) -> DocTree:
    """Assemble the section hierarchy and attach every element to a node."""
    # A merged element spans its fragments' boxes; any other element has the
    # one pair (page, bbox) holding its own bbox tuple.  In a chain of table
    # merges a fragment can itself be an earlier merge's survivor, which
    # stands for all of that merge's boxes.
    fragment_boxes: dict[int, list[tuple[int, Sequence[float]]]] = {}
    for record in resolved.merge_log.records:
        boxes = []
        for f in record.fragments:
            boxes.extend(fragment_boxes.pop(f["idx"], [(f["page"], f["bbox"])]))
        fragment_boxes[record.src_idx] = boxes

    def add_boxes(node: DocNode, e: CanonicalElement) -> None:
        boxes = fragment_boxes.get(e.idx)
        if boxes is None:
            node.bboxes.append((e.page, e.bbox))
        else:
            node.bboxes.extend(boxes)

    # Captions/footnotes ride along with their linked visual.
    captions_for: dict[int, list[CanonicalElement]] = {}
    claimed: set[int] = set()
    by_idx = resolved.by_idx
    for cap_idx, vis_idx in resolved.caption_links.items():
        cap = by_idx.get(cap_idx)
        if cap is not None and vis_idx in by_idx:
            captions_for.setdefault(vis_idx, []).append(cap)
            claimed.add(cap_idx)
    for caps in captions_for.values():
        caps.sort(key=lambda e: e.idx)

    root = DocNode(node_id="root", kind=NodeKind.ROOT, level=0, anchor=-1)
    tree = DocTree(
        doc_id=resolved.doc_id,
        coord_unit=resolved.coord_unit,
        root=root,
        fragment_boxes=fragment_boxes,
    )
    stack: list[DocNode] = [root]
    parents: list[DocNode] = [root]  # the root and every section
    section_by_title: dict[int, DocNode] = {}
    pending_visuals: list[tuple[CanonicalElement, DocNode]] = []

    for e in by_idx.values():
        if e.etype is ElementType.TITLE:
            level = max(1, resolved.levels.get(e.idx, 1))  # root alone owns level 0
            while stack[-1].level >= level:
                stack.pop()
            parent = stack[-1]
            node = DocNode(
                node_id=f"sec{e.idx}",
                kind=NodeKind.SECTION,
                level=level,
                anchor=e.idx,
                title_text=e.content,
                title_path=parent.title_path + [e.content],
            )
            add_boxes(node, e)
            parent.children.append(node)
            section_by_title[e.idx] = node
            parents.append(node)
            stack.append(node)
        elif e.etype in VISUAL_TYPES:
            pending_visuals.append((e, stack[-1]))
        elif e.etype in FURNITURE_TYPES:
            root.body.append(e)
            add_boxes(root, e)
        elif e.idx in claimed:
            continue  # added inside its visual node
        else:
            # Body boxes follow the section's title box in reading order.
            stack[-1].body.append(e)
            add_boxes(stack[-1], e)

    for visual, fallback_section in pending_visuals:
        linked_title = resolved.section_links.get(visual.idx)
        parent = section_by_title.get(linked_title) if linked_title is not None else None
        if parent is None:
            parent = fallback_section
            if linked_title is not None:
                tree.flags.append(Flag("VisualLinkUnplaced", f"{visual.idx}->{linked_title}"))
            else:
                tree.flags.append(Flag("VisualUnlinked", str(visual.idx)))
        node = DocNode(
            node_id=f"vis{visual.idx}",
            kind=NodeKind.VISUAL,
            level=parent.level + 1,
            anchor=visual.idx,
            title_path=list(parent.title_path),
            body=[visual] + captions_for.get(visual.idx, []),
        )
        for el in node.body:
            add_boxes(node, el)
        parent.children.append(node)

    for node in parents:
        node.children.sort(key=lambda c: c.anchor)
    return tree


def chunk_nodes(tree: DocTree, threshold: int) -> DocTree:
    """Split oversized section bodies into subnodes at paragraph boundaries.

    A subnode closes at the first paragraph boundary after the accumulated
    text length reaches the threshold.  A truncation join is already one
    merged element here, so no split falls inside it.  Paragraph order and
    total content are untouched.
    A subnode's boxes are its elements' boxes, every fragment's box for a
    merged element.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    for node in tree.walk():
        if node.kind != NodeKind.SECTION or len(node.body) < 2:
            continue
        groups: list[list[CanonicalElement]] = []
        current: list[CanonicalElement] = []
        acc = 0
        for para in node.body:
            if acc >= threshold:
                groups.append(current)
                current, acc = [], 0
            current.append(para)
            acc += len(para.content)
        groups.append(current)
        if len(groups) < 2:
            continue
        subnodes = []
        for j, group in enumerate(groups):
            subnodes.append(
                DocNode(
                    node_id=f"{node.node_id}p{j}",
                    kind=NodeKind.SUBNODE,
                    level=node.level,
                    anchor=group[0].idx,
                    title_path=list(node.title_path),
                    body=group,
                    bboxes=[
                        box
                        for e in group
                        for box in tree.fragment_boxes.get(e.idx, [(e.page, e.bbox)])
                    ],
                )
            )
        node.body = []
        node.children = sorted(subnodes + node.children, key=lambda c: c.anchor)
    return tree


class Summarizer:
    """One-operation interface: a list of paragraphs in, a summary out."""

    def summarize(self, node_id: str, title_path: list[str], paragraphs: list[str]) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the summarizer holds open, such as connections."""


class ExtractiveSummarizer(Summarizer):
    """Lead-sentence fallback: first N sentences, hard-capped in length."""

    def __init__(self, max_sentences: int = 2, cap_chars: int = 300, rules: Optional[TextRules] = None):
        self.max_sentences = max_sentences
        self.cap_chars = cap_chars
        self.rules = rules or TextRules()

    def summarize(self, node_id: str, title_path: list[str], paragraphs: list[str]) -> str:
        text = " ".join(p for p in paragraphs if p).strip()
        if not text:
            return (title_path[-1] if title_path else "")[: self.cap_chars]
        sentences = self.rules.split_sentences(text, self.max_sentences)
        return " ".join(sentences)[: self.cap_chars]


class RemoteSummarizer(Summarizer):
    """Backend summarizer sharing the predictor HTTP conventions."""

    def __init__(self, url: str, timeout: float = 30.0, cap_chars: int = 300):
        self.connections = remote.Connections(url, timeout)
        self.cap_chars = cap_chars

    def summarize(self, node_id: str, title_path: list[str], paragraphs: list[str]) -> str:
        body = {"node_id": node_id, "title_path": title_path, "paragraphs": paragraphs}
        try:
            data = remote.post_json(self.connections, body, service="summarizer")
        except MalformedResponse as exc:
            raise BackendUnavailable(f"summarizer {exc.message}") from exc
        if not isinstance(data, dict) or "summary" not in data:
            raise BackendUnavailable("summarizer response missing 'summary'")
        summary = data["summary"]
        try:
            if summary is None:
                raise TypeError("expected a string, got None")
            check_strings(summary)
        except BAD_FIELD as exc:
            raise bad_field(BackendUnavailable, "summarizer response", exc, "summary") from exc
        return summary[: self.cap_chars]

    def close(self) -> None:
        self.connections.close()


def summarize_nodes(
    tree: DocTree,
    summarizer: Summarizer,
    fallback: Optional[ExtractiveSummarizer] = None,
) -> DocTree:
    """Give every section/subnode/visual node a summary.

    Backend failures fall back to the extractive summarizer per node and
    are flagged on the tree.
    """
    fallback = fallback or ExtractiveSummarizer()
    for node in tree.walk():
        if node.kind == NodeKind.ROOT:
            continue
        paragraphs = node.body_texts()
        try:
            node.summary = summarizer.summarize(node.node_id, node.title_path, paragraphs)
        except BackendUnavailable as exc:
            tree.flags.append(Flag("SummarizerFallback", f"{node.node_id}:{exc.message}"))
            node.summary = fallback.summarize(node.node_id, node.title_path, paragraphs)
    return tree
