"""Subtask predictor interface.

Two interchangeable implementations ship: a deterministic rule-based
baseline (no model, no network) and a remote JSON-over-HTTP backend.  The
pipeline talks to either through the same four-method interface; the
remote backend validates every reply against its request before anything
downstream sees it.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..errors import BackendUnavailable, Flag, MalformedResponse
from ..filtering import TablePairCandidate, TextPairCandidate
from ..model import CAPTION_LINK_TARGET, CanonicalElement, ElementType, VISUAL_TYPES

logger = logging.getLogger(__name__)


@dataclass
class HierarchyPrediction:
    """Integer level per requested title idx; -1 demotes a non-title."""

    levels: dict[int, int]
    flags: list[Flag] = field(default_factory=list)


@dataclass
class PairPrediction:
    """(src, tgt) links for text truncation or association."""

    pairs: list[tuple[int, int]]
    flags: list[Flag] = field(default_factory=list)


@dataclass
class CellMergeJudgement:
    """Column-wise 0/1 fusion vector; empty means 'not the same table'."""

    columns: list[int]
    flags: list[Flag] = field(default_factory=list)


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

    def close(self) -> None:
        """Release what the predictor holds open, such as connections."""


def association_link_valid(src_type: ElementType, tgt_type: ElementType) -> bool:
    """The three permitted link shapes; anything else cannot be connected."""
    if src_type in VISUAL_TYPES:
        return tgt_type is ElementType.TITLE
    expected = CAPTION_LINK_TARGET.get(src_type)
    return expected is not None and tgt_type is expected


class FallbackPredictor(Predictor):
    """Delegate to a primary predictor, degrading to a fallback per call.

    Any backend failure (unreachable, or still malformed after its retry)
    routes that one request to the fallback, flags the result and logs the
    reason; the pipeline never hard-fails on backend flakiness.
    """

    name = "fallback"

    def __init__(self, primary: Predictor, fallback: Predictor):
        self.primary = primary
        self.fallback = fallback

    def _guard(self, method: str, req):
        try:
            return getattr(self.primary, method)(req)
        except (BackendUnavailable, MalformedResponse) as exc:
            logger.warning(
                "%s: %s failed (%s); used %s",
                method, self.primary.name, exc.message, self.fallback.name,
            )
            result = getattr(self.fallback, method)(req)
            result.flags.append(Flag("degraded", f"{self.primary.name}->{self.fallback.name}"))
            return result

    def predict_title_hierarchy(self, req: list[CanonicalElement]) -> HierarchyPrediction:
        return self._guard("predict_title_hierarchy", req)

    def predict_text_truncation(self, req: list[TextPairCandidate]) -> PairPrediction:
        return self._guard("predict_text_truncation", req)

    def predict_association(self, req: list[CanonicalElement]) -> PairPrediction:
        return self._guard("predict_association", req)

    def predict_table_truncation(self, req: TablePairCandidate) -> CellMergeJudgement:
        return self._guard("predict_table_truncation", req)

    def close(self) -> None:
        self.primary.close()
        self.fallback.close()


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
    "association_link_valid",
]
