"""Dynamic overlapping page chunks and cross-chunk synchronization.

Boundary pages are chosen inside a stride±threshold window at the page
densest in task-relevant elements, so overlap regions carry enough shared
reference elements to calibrate chunk-level predictions against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

from .errors import BadConfig
from .model import ElementType


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    if x >= 0:
        return int(x + 0.5)
    return -int(-x + 0.5)


@dataclass(frozen=True)
class ChunkPlanConfig:
    stride: int = 8
    threshold: int = 2

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise BadConfig(f"stride must be >= 1, got {self.stride}")
        if not (0 <= self.threshold < self.stride):
            raise BadConfig(
                f"threshold must satisfy 0 <= t < stride, got t={self.threshold} s={self.stride}"
            )


@dataclass
class PageProfile:
    """Per-page count of the task-relevant element type."""

    counts: list[int]

    @property
    def page_count(self) -> int:
        return len(self.counts)


def compute_boundaries(profile: PageProfile, cfg: ChunkPlanConfig) -> list[int]:
    """Boundary pages: b0 = 0, then the densest page of each search window.

    The window after boundary b is [b+s-t, b+s+t] clipped to valid pages;
    generation stops once the window start passes the last page.  Ties go to
    the smallest page index in the window.
    """
    if profile.page_count < 1:
        raise BadConfig("page profile must cover at least one page")
    s, t = cfg.stride, cfg.threshold
    p_max = profile.page_count - 1
    boundaries = [0]
    while True:
        lo = boundaries[-1] + s - t
        hi = min(boundaries[-1] + s + t, p_max)
        if lo > p_max:
            break
        best = lo
        for p in range(lo, hi + 1):
            if profile.counts[p] > profile.counts[best]:
                best = p
        boundaries.append(best)
    return boundaries


def build_chunks(boundaries: Sequence[int], p_max: int) -> list[tuple[int, int]]:
    """Inclusive page ranges around each boundary.

    chunk_i = (max(0, b_i - 1), min(b_{i+1} + 1, p_max)); the final chunk
    always runs to the last page.
    """
    chunks = []
    for i, b in enumerate(boundaries):
        start = max(0, b - 1)
        if i + 1 < len(boundaries):
            end = min(boundaries[i + 1] + 1, p_max)
        else:
            end = p_max
        chunks.append((start, end))
    return chunks


@dataclass
class ChunkPlan:
    boundaries: list[int]
    chunks: list[tuple[int, int]]
    task_type: ElementType
    stride: int
    threshold: int

    def realized_overlaps(self) -> list[int]:
        """Shared page counts of consecutive chunks (may differ from 3)."""
        out = []
        for (s1, e1), (s2, e2) in zip(self.chunks, self.chunks[1:]):
            out.append(max(0, min(e1, e2) - max(s1, s2) + 1))
        return out

    def to_dict(self) -> dict:
        return {
            "task_type": self.task_type.value,
            "stride": self.stride,
            "threshold": self.threshold,
            "boundaries": list(self.boundaries),
            "chunks": [list(c) for c in self.chunks],
            "realized_overlaps": self.realized_overlaps(),
        }


def plan_chunks(
    profile: PageProfile, cfg: ChunkPlanConfig, task_type: ElementType = ElementType.TITLE
) -> ChunkPlan:
    """The chunk plan for ``profile``, labelled with ``task_type``."""
    boundaries = compute_boundaries(profile, cfg)
    chunks = build_chunks(boundaries, profile.page_count - 1)
    return ChunkPlan(
        boundaries=boundaries,
        chunks=chunks,
        task_type=task_type,
        stride=cfg.stride,
        threshold=cfg.threshold,
    )


@dataclass
class ChunkPrediction:
    """One chunk's subtask output, keyed so completion order never matters."""

    chunk_index: int
    payload: Any


def _in_chunk_order(chunk_preds: Sequence[ChunkPrediction]) -> list[ChunkPrediction]:
    return sorted(chunk_preds, key=lambda p: p.chunk_index)


class _EarliestWins:
    """The one sync rule: the earliest chunk's value for a key stands, and a
    later, different value is recorded as ``{label, kept, discarded, chunk}``
    (a pair key as a list).  Values must be offered in chunk order."""

    def __init__(self, label: str):
        self.label = label
        self.values: dict = {}
        self.conflicts: list[dict] = []

    def offer(self, key: Hashable, value: Any, chunk: int) -> None:
        kept = self.values.setdefault(key, value)
        if kept != value:
            shown = list(key) if isinstance(key, tuple) else key
            self.conflicts.append({self.label: shown, "kept": kept, "discarded": value, "chunk": chunk})


@dataclass
class SyncResult:
    levels: dict[int, int]
    deviations: list[int] = field(default_factory=list)
    empty_overlaps: list[int] = field(default_factory=list)
    conflicts: list[dict] = field(default_factory=list)


def synchronize_hierarchy(chunk_preds: Sequence[ChunkPrediction]) -> SyncResult:
    """Calibrate per-chunk title levels onto the first chunk's scale.

    The initial chunk is the anchor.  Each later chunk is shifted by the
    rounded average difference between already-calibrated levels and its own
    raw levels over the overlap titles; overlap disagreements resolve to the
    earlier chunk.  Demoted titles (level -1) neither shift nor contribute
    to the deviation.  Final levels are clamped to >= 1.
    """
    rule = _EarliestWins("idx")
    final = rule.values
    result = SyncResult(levels=final, conflicts=rule.conflicts)
    for k, pred in enumerate(_in_chunk_order(chunk_preds)):
        raw: dict[int, int] = dict(pred.payload)
        overlap = [i for i in raw if i in final and raw[i] != -1 and final[i] != -1]
        deviation = 0
        if overlap:
            deviation = round_half_away(sum(final[i] - raw[i] for i in overlap) / len(overlap))
        elif k:
            result.empty_overlaps.append(pred.chunk_index)
        result.deviations.append(deviation)
        for i, lvl in raw.items():
            rule.offer(i, lvl if lvl == -1 else lvl + deviation, pred.chunk_index)
    for i, lvl in final.items():
        if lvl != -1 and lvl < 1:
            final[i] = 1
    return result


@dataclass
class UnionResult:
    pairs: list[tuple[int, int]]
    conflicts: list[dict] = field(default_factory=list)


def merge_union(
    chunk_preds: Sequence[ChunkPrediction], unique_src: bool = False
) -> UnionResult:
    """Union of per-chunk (src, tgt) pair sets.

    With ``unique_src`` (association), a src that already resolved to a
    different tgt in an earlier chunk keeps the earlier link; the later one
    is recorded as a conflict.  Without it every pair is its own key.
    """
    rule = _EarliestWins("src")
    for pred in _in_chunk_order(chunk_preds):
        for src, tgt in pred.payload:
            rule.offer(src if unique_src else (src, tgt), tgt, pred.chunk_index)
    pairs = sorted(rule.values.items()) if unique_src else sorted(rule.values)
    return UnionResult(pairs=pairs, conflicts=rule.conflicts)


@dataclass
class TableUnionResult:
    judgements: list[tuple[int, int, list[int]]]
    conflicts: list[dict] = field(default_factory=list)


def merge_table_union(chunk_preds: Sequence[ChunkPrediction]) -> TableUnionResult:
    """Union of per-chunk table judgements keyed by the table pair."""
    rule = _EarliestWins("pair")
    for pred in _in_chunk_order(chunk_preds):
        for upper, lower, judgement in pred.payload:
            rule.offer((upper, lower), list(judgement), pred.chunk_index)
    judgements = [(u, l, j) for (u, l), j in sorted(rule.values.items())]
    return TableUnionResult(judgements=judgements, conflicts=rule.conflicts)


@dataclass
class DocumentPredictions:
    """Document-level predictions after cross-chunk synchronization, and the
    layout of a predictions file."""

    hierarchy: dict[int, int] = field(default_factory=dict)
    text_pairs: list[tuple[int, int]] = field(default_factory=list)
    assoc_pairs: list[tuple[int, int]] = field(default_factory=list)
    table_judgements: list[tuple[int, int, list[int]]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "hierarchy": {str(k): v for k, v in sorted(self.hierarchy.items())},
            "text_pairs": [list(p) for p in self.text_pairs],
            "assoc_pairs": [list(p) for p in self.assoc_pairs],
            "table_judgements": [
                {"upper_idx": u, "lower_idx": l, "judgement": j}
                for u, l, j in self.table_judgements
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> DocumentPredictions:
        """The ``to_dict`` layout, typed; a missing field is empty.  A bad
        field raises one of ``errors.BAD_FIELD`` for the caller to name."""
        return cls(
            hierarchy={int(k): int(v) for k, v in d.get("hierarchy", {}).items()},
            text_pairs=[(int(a), int(b)) for a, b in d.get("text_pairs", [])],
            assoc_pairs=[(int(a), int(b)) for a, b in d.get("assoc_pairs", [])],
            table_judgements=[
                (int(j["upper_idx"]), int(j["lower_idx"]), [int(v) for v in j["judgement"]])
                for j in d.get("table_judgements", [])
            ],
        )
