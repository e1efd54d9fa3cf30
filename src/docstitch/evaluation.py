"""Metric suite: TEDS, pair precision/recall, merge accuracy, bbox scores.

TEDS here is tree edit distance similarity over ordered labeled trees with
unit insert/delete/relabel costs (relabel is free on equal labels),
normalized by the larger tree's node count:

    teds(a, b) = 1 - dist(a, b) / max(|a|, |b|)

The edit distance is the Zhang-Shasha keyroots dynamic program; the test
suite checks it against an independent brute-force oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

from .chunking import DocumentPredictions
from .errors import BAD_FIELD, SchemaMismatch, bad_field
from .model import PageBox, int_key, json_int, json_str, page_boxes


@dataclass
class LabeledTree:
    """Ordered rooted tree; labels are plain strings."""

    label: str
    children: list[LabeledTree] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def add(self, child: LabeledTree) -> LabeledTree:
        self.children.append(child)
        return self


def _annotate(root: LabeledTree) -> tuple[list[str], list[int], list[int]]:
    """Postorder labels, leftmost-descendant indices and keyroots."""
    labels: list[str] = []
    lmds: list[int] = []
    lmd_of: dict[int, int] = {}
    stack: list[tuple[LabeledTree, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            if node.children:
                lmd = lmd_of[id(node.children[0])]
            else:
                lmd = len(labels)
            lmd_of[id(node)] = lmd
            labels.append(node.label)
            lmds.append(lmd)
        else:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
    last_with_lmd: dict[int, int] = {}
    for i, lmd in enumerate(lmds):
        last_with_lmd[lmd] = i
    keyroots = sorted(last_with_lmd.values())
    return labels, lmds, keyroots


def tree_edit_distance(a: LabeledTree, b: LabeledTree) -> int:
    """Exact ordered tree edit distance, unit costs, Zhang-Shasha DP."""
    la, lmda, kra = _annotate(a)
    lb, lmdb, krb = _annotate(b)
    td = [[0] * len(lb) for _ in range(len(la))]

    for i in kra:
        for j in krb:
            m = i - lmda[i] + 2
            n = j - lmdb[j] + 2
            fd = [[0] * n for _ in range(m)]
            ioff = lmda[i] - 1
            joff = lmdb[j] - 1
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + 1
            for y in range(1, n):
                fd[0][y] = fd[0][y - 1] + 1
            for x in range(1, m):
                for y in range(1, n):
                    if lmda[i] == lmda[x + ioff] and lmdb[j] == lmdb[y + joff]:
                        cost = 0 if la[x + ioff] == lb[y + joff] else 1
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[x - 1][y - 1] + cost,
                        )
                        td[x + ioff][y + joff] = fd[x][y]
                    else:
                        p = lmda[x + ioff] - 1 - ioff
                        q = lmdb[y + joff] - 1 - joff
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[p][q] + td[x + ioff][y + joff],
                        )
    return td[-1][-1]


def teds(pred: LabeledTree, gold: LabeledTree) -> float:
    """Tree edit distance similarity in [0, 1]; 1.0 means identical trees.

    The distance of very dissimilar trees can exceed the larger node count,
    so the normalized score clamps at zero.
    """
    dist = tree_edit_distance(pred, gold)
    return max(0.0, 1.0 - dist / max(pred.size(), gold.size()))


def normalize_label(text: str) -> str:
    return " ".join(text.split())


def hierarchy_tree(
    levels: dict[int, int], titles: dict[int, str], root_label: str = "root"
) -> LabeledTree:
    """Title hierarchy as a labeled tree under a synthetic level-0 root.

    Children order follows reading order (ascending idx); each title
    parents to the nearest preceding title of strictly smaller level,
    the same rule the document tree uses; -1 demotes a title, and the root
    alone owns level 0.
    """
    root = LabeledTree(root_label)
    stack: list[tuple[int, LabeledTree]] = [(0, root)]
    for idx in sorted(levels):
        if levels[idx] == -1:
            continue
        level = max(1, levels[idx])
        node = LabeledTree(normalize_label(titles.get(idx, str(idx))))
        while stack[-1][0] >= level:
            stack.pop()
        stack[-1][1].add(node)
        stack.append((level, node))
    return root


# -- pair metrics -------------------------------------------------------


@dataclass
class PairPRF:
    precision: float
    recall: float
    f1: float
    vacuous_precision: bool = False

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.f1)

    def to_dict(self) -> dict:
        return asdict(self)


def pair_prf(pred: Iterable[tuple], gold: Iterable[tuple]) -> PairPRF:
    """Set precision/recall/F1 over prediction pairs.

    An empty prediction set has precision 1.0 by definition, flagged as
    vacuous; an empty gold set gives recall 1.0.
    """
    pred_set, gold_set = set(pred), set(gold)
    hits = len(pred_set & gold_set)
    vacuous = not pred_set
    precision = 1.0 if vacuous else hits / len(pred_set)
    recall = 1.0 if not gold_set else hits / len(gold_set)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PairPRF(precision, recall, f1, vacuous_precision=vacuous)


# -- table merge accuracy ------------------------------------------------


@dataclass
class MergeAccuracyReport:
    """Accuracy over judgement units (primary) plus secondary views.

    Units per aligned candidate: one continuation unit (empty vs non-empty
    agreement) plus one unit per column entry when both vectors are
    non-empty.  Vectors of mismatched length contribute the gold vector's
    column count as wrong units.
    """

    unit: float
    continuation: float
    column: Optional[float]
    vector: float
    unit_correct: int = 0
    unit_total: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def merge_accuracy(
    preds: Sequence[Sequence[int]], golds: Sequence[Sequence[int]]
) -> MergeAccuracyReport:
    if len(preds) != len(golds):
        raise SchemaMismatch(
            f"prediction/gold judgement lists differ in length: {len(preds)} vs {len(golds)}"
        )
    cont_ok = cont_total = 0
    col_ok = col_total = 0
    vec_ok = 0
    for pred, gold in zip(preds, golds):
        pred, gold = list(pred), list(gold)
        cont_total += 1
        if bool(pred) == bool(gold):
            cont_ok += 1
        if pred and gold:
            if len(pred) == len(gold):
                col_total += len(gold)
                col_ok += sum(1 for p, g in zip(pred, gold) if p == g)
            else:
                col_total += len(gold)
        if pred == gold:
            vec_ok += 1
    unit_total = cont_total + col_total
    unit_ok = cont_ok + col_ok
    return MergeAccuracyReport(
        unit=unit_ok / unit_total if unit_total else 1.0,
        continuation=cont_ok / cont_total if cont_total else 1.0,
        column=col_ok / col_total if col_total else None,
        vector=vec_ok / len(golds) if golds else 1.0,
        unit_correct=unit_ok,
        unit_total=unit_total,
    )


# -- bbox metrics --------------------------------------------------------


def _rect_union_area(boxes: list[Sequence[float]]) -> float:
    """Exact union area of axis-aligned rectangles (coordinate compression)."""
    boxes = [b for b in boxes if b[2] > b[0] and b[3] > b[1]]
    if not boxes:
        return 0.0
    xs = sorted({v for b in boxes for v in (b[0], b[2])})
    ys = sorted({v for b in boxes for v in (b[1], b[3])})
    area = 0.0
    for i in range(len(xs) - 1):
        cx = (xs[i] + xs[i + 1]) / 2
        width = xs[i + 1] - xs[i]
        for j in range(len(ys) - 1):
            cy = (ys[j] + ys[j + 1]) / 2
            if any(b[0] <= cx <= b[2] and b[1] <= cy <= b[3] for b in boxes):
                area += width * (ys[j + 1] - ys[j])
    return area


def _pairwise_intersections(
    a: list[Sequence[float]], b: list[Sequence[float]]
) -> list[Sequence[float]]:
    out = []
    for ra in a:
        for rb in b:
            x0, y0 = max(ra[0], rb[0]), max(ra[1], rb[1])
            x1, y1 = min(ra[2], rb[2]), min(ra[3], rb[3])
            if x0 < x1 and y0 < y1:
                out.append((x0, y0, x1, y1))
    return out


@dataclass
class BBoxScores:
    recall: Optional[float]
    iou: Optional[float]

    def to_dict(self) -> dict:
        return asdict(self)


def bbox_scores(retrieved: Sequence[PageBox], gold: Sequence[PageBox]) -> BBoxScores:
    """Evidence-overlap recall and IoU over per-page rectangle unions.

    Pages are disjoint planes: per page the retrieved and gold box sets are
    unioned, overlap/union areas computed exactly, then summed across pages
    (equivalent to an area-weighted per-page average).  With no gold boxes
    the recall is undefined and reported as None.
    """
    by_page_r: dict[int, list] = {}
    by_page_g: dict[int, list] = {}
    for page, box in retrieved:
        by_page_r.setdefault(page, []).append(tuple(float(v) for v in box))
    for page, box in gold:
        by_page_g.setdefault(page, []).append(tuple(float(v) for v in box))

    inter_total = gold_total = union_total = 0.0
    for page in sorted(set(by_page_r) | set(by_page_g)):
        r = by_page_r.get(page, [])
        g = by_page_g.get(page, [])
        gold_total += _rect_union_area(g)
        union_total += _rect_union_area(r + g)
        inter_total += _rect_union_area(_pairwise_intersections(r, g))

    recall = inter_total / gold_total if gold_total > 0 else None
    iou = inter_total / union_total if union_total > 0 else None
    return BBoxScores(recall=recall, iou=iou)


# -- gold annotations and the aggregate report ---------------------------


@dataclass(kw_only=True)
class GoldAnnotations(DocumentPredictions):
    """Per-document gold structures for every subtask (fixture format v1):
    the predictions layout plus title texts and evidence boxes."""

    doc_id: str
    titles: dict[int, str] = field(default_factory=dict)
    evidence_gold: list[PageBox] = field(default_factory=list)

    @classmethod
    def from_dict(cls, d: dict) -> GoldAnnotations:
        try:
            if json_int(d.get("format_version", 1)) != 1:
                raise SchemaMismatch(f"unsupported annotation version {d['format_version']}")
            return cls(
                doc_id=json_str(d["doc_id"]),
                titles={int_key(k): json_str(v) for k, v in d.get("titles", {}).items()},
                evidence_gold=page_boxes(d.get("evidence_gold", [])),
                **vars(DocumentPredictions.from_dict(d)),
            )
        except BAD_FIELD as exc:
            raise bad_field(SchemaMismatch, "gold annotation file", exc) from exc

    def to_dict(self) -> dict:
        structures = super().to_dict()
        return {  # in the fixture files' key order
            "format_version": 1,
            "doc_id": self.doc_id,
            "hierarchy": structures.pop("hierarchy"),
            "titles": {str(k): v for k, v in sorted(self.titles.items())},
            **structures,
            "evidence_gold": [[p, list(b)] for p, b in self.evidence_gold],
        }


@dataclass
class EvalReport:
    doc_id: str
    teds: Optional[float] = None
    text_prf: Optional[PairPRF] = None
    assoc_prf: Optional[PairPRF] = None
    merge: Optional[MergeAccuracyReport] = None
    bbox: Optional[BBoxScores] = None

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "teds": self.teds,
            "text_truncation": self.text_prf.to_dict() if self.text_prf else None,
            "association": self.assoc_prf.to_dict() if self.assoc_prf else None,
            "table_merge": self.merge.to_dict() if self.merge else None,
            "bbox": self.bbox.to_dict() if self.bbox else None,
        }

    def as_table(self) -> str:
        lines = [f"document: {self.doc_id}", "-" * 44]
        if self.teds is not None:
            lines.append(f"title hierarchy TEDS      {self.teds:8.4f}")
        if self.text_prf:
            p = self.text_prf
            lines.append(
                f"text truncation P/R/F1    {p.precision:6.4f} {p.recall:6.4f} {p.f1:6.4f}"
            )
        if self.assoc_prf:
            p = self.assoc_prf
            lines.append(
                f"association P/R/F1        {p.precision:6.4f} {p.recall:6.4f} {p.f1:6.4f}"
            )
        if self.merge:
            lines.append(f"table merge accuracy      {self.merge.unit:8.4f}")
        if self.bbox:
            r = "n/a" if self.bbox.recall is None else f"{self.bbox.recall:.4f}"
            i = "n/a" if self.bbox.iou is None else f"{self.bbox.iou:.4f}"
            lines.append(f"bbox recall / IoU         {r} / {i}")
        return "\n".join(lines)


def evaluate(
    gold: GoldAnnotations,
    predictions: dict,
    retrieved: Optional[list] = None,
) -> EvalReport:
    """Score a predictions-file object (``DocumentPredictions.to_dict()``
    form) against a gold annotation set, metric by metric.

    Table judgements align on gold's candidate pairs; a pair the
    predictions lack counts as ``[]`` (not a continuation).  TEDS is scored
    only when gold has a hierarchy, merge accuracy only when gold has table
    judgements, bbox scores only when boxes are given and gold has evidence.
    ``retrieved`` is the raw ``[[page, [x0, y0, x1, y1]], ...]`` list.
    """
    try:
        pred = DocumentPredictions.from_dict(predictions)
    except BAD_FIELD as exc:
        raise bad_field(SchemaMismatch, "prediction file", exc) from exc
    try:
        boxes = None if retrieved is None else page_boxes(retrieved)
    except BAD_FIELD as exc:
        raise bad_field(SchemaMismatch, "retrieved boxes file", exc) from exc
    report = EvalReport(doc_id=gold.doc_id)
    if gold.hierarchy:
        report.teds = teds(
            hierarchy_tree(pred.hierarchy, gold.titles),
            hierarchy_tree(gold.hierarchy, gold.titles),
        )
    report.text_prf = pair_prf(pred.text_pairs, gold.text_pairs)
    report.assoc_prf = pair_prf(pred.assoc_pairs, gold.assoc_pairs)
    if gold.table_judgements:
        judged = {(u, l): j for u, l, j in pred.table_judgements}
        report.merge = merge_accuracy(
            [judged.get((u, l), []) for u, l, _ in gold.table_judgements],
            [j for _, _, j in gold.table_judgements],
        )
    if boxes is not None and gold.evidence_gold:
        report.bbox = bbox_scores(boxes, gold.evidence_gold)
    return report
