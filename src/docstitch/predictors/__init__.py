"""Subtask predictor interface and response validation.

Two interchangeable implementations ship: a deterministic rule-based
baseline (no model, no network) and a remote JSON-over-HTTP backend.  The
pipeline talks to either through the same four-method interface, and every
response is validated against the request before anything downstream sees
it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..errors import BackendUnavailable, MalformedResponse
from ..filtering import TablePairCandidate, TextPairCandidate
from ..model import CAPTION_LINK_TARGET, CanonicalElement, ElementType, VISUAL_TYPES


@dataclass
class HierarchyPrediction:
    """Integer level per requested title idx; -1 demotes a non-title."""

    levels: dict[int, int]
    flags: list[str] = field(default_factory=list)


@dataclass
class PairPrediction:
    """(src, tgt) links for text truncation or association."""

    pairs: list[tuple[int, int]]
    unresolved: list[int] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)


@dataclass
class CellMergeJudgement:
    """Column-wise 0/1 fusion vector; empty means 'not the same table'."""

    columns: list[int]
    flags: list[str] = field(default_factory=list)


class Predictor(ABC):
    """Uniform four-subtask prediction interface."""

    name = "abstract"

    @abstractmethod
    def predict_title_hierarchy(self, req: list[CanonicalElement]) -> HierarchyPrediction: ...

    @abstractmethod
    def predict_text_truncation(self, req: list[TextPairCandidate]) -> PairPrediction: ...

    @abstractmethod
    def predict_association(self, req: list[CanonicalElement]) -> PairPrediction: ...

    @abstractmethod
    def predict_table_truncation(self, req: TablePairCandidate) -> CellMergeJudgement: ...


def check_hierarchy_cover(req: list[CanonicalElement], levels: dict[int, int]) -> None:
    """Every requested idx exactly once, nothing extra; else malformed."""
    wanted = {e.idx for e in req}
    got = set(levels)
    if got != wanted:
        missing = sorted(wanted - got)
        extra = sorted(got - wanted)
        raise MalformedResponse(
            f"hierarchy response does not cover the request (missing={missing}, extra={extra})"
        )


def filter_candidate_pairs(
    pairs: list[tuple[int, int]], candidates: list[TextPairCandidate]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Keep only pairs present in the candidate set; return (kept, dropped)."""
    allowed = {(c.src_idx, c.tgt_idx) for c in candidates}
    kept, dropped = [], []
    for pair in pairs:
        (kept if pair in allowed else dropped).append(pair)
    return kept, dropped


def association_link_valid(src_type: ElementType, tgt_type: ElementType) -> bool:
    """The three permitted link shapes; anything else cannot be connected."""
    if src_type in VISUAL_TYPES:
        return tgt_type is ElementType.TITLE
    expected = CAPTION_LINK_TARGET.get(src_type)
    return expected is not None and tgt_type is expected


def filter_association_pairs(
    pairs: list[tuple[int, int]], req: list[CanonicalElement]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Drop pairs whose endpoints are unknown or violate the type rules."""
    by_idx = {e.idx: e.etype for e in req}
    kept, dropped = [], []
    for src, tgt in pairs:
        if (
            src in by_idx
            and tgt in by_idx
            and association_link_valid(by_idx[src], by_idx[tgt])
        ):
            kept.append((src, tgt))
        else:
            dropped.append((src, tgt))
    return kept, dropped


def check_judgement(columns: list, n_cols: int) -> list[int]:
    """Validate a 0/1 vector against the shared column count.

    Returns the vector, or raises MalformedResponse on wrong length or
    non-binary entries (callers degrade that to an empty judgement).
    """
    if any(v not in (0, 1) for v in columns):
        raise MalformedResponse(f"judgement entries must be 0/1, got {columns!r}")
    if columns and len(columns) != n_cols:
        raise MalformedResponse(
            f"judgement length {len(columns)} != column count {n_cols}"
        )
    return [int(v) for v in columns]


class FallbackPredictor(Predictor):
    """Delegate to a primary predictor, degrading to a fallback per call.

    Any backend failure (unreachable, or still malformed after its retry)
    routes that one request to the fallback and records a warning; the
    pipeline never hard-fails on backend flakiness.
    """

    name = "fallback"

    def __init__(self, primary: Predictor, fallback: Predictor):
        self.primary = primary
        self.fallback = fallback
        self.warnings: list[str] = []

    def _guard(self, method: str, req, *args):
        try:
            return getattr(self.primary, method)(req, *args)
        except (BackendUnavailable, MalformedResponse) as exc:
            self.warnings.append(f"{method}: {self.primary.name} failed ({exc.message}); used {self.fallback.name}")
            result = getattr(self.fallback, method)(req, *args)
            result.flags.append(f"degraded:{self.primary.name}->{self.fallback.name}")
            return result

    def predict_title_hierarchy(self, req: list[CanonicalElement]) -> HierarchyPrediction:
        return self._guard("predict_title_hierarchy", req)

    def predict_text_truncation(self, req: list[TextPairCandidate]) -> PairPrediction:
        return self._guard("predict_text_truncation", req)

    def predict_association(self, req: list[CanonicalElement]) -> PairPrediction:
        return self._guard("predict_association", req)

    def predict_table_truncation(self, req: TablePairCandidate) -> CellMergeJudgement:
        return self._guard("predict_table_truncation", req)


from .rules import RulePredictor  # noqa: E402  (re-export)
from .remote import RemotePredictor  # noqa: E402

__all__ = [
    "HierarchyPrediction",
    "PairPrediction",
    "CellMergeJudgement",
    "Predictor",
    "RulePredictor",
    "RemotePredictor",
    "FallbackPredictor",
    "check_hierarchy_cover",
    "check_judgement",
    "filter_candidate_pairs",
    "filter_association_pairs",
    "association_link_valid",
]
