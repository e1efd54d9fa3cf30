"""Task-specific input filtering.

Each of the four subtasks consumes a different minimal slice of the
document; everything else is noise for that subtask and is dropped before
prediction.  Each filter takes a list of elements in reading order, one
chunk's or a whole document's ``doc.elements``, and is a pure projection:
output idx sets are subsets of the input, input order is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import TableHtmlUnparseable
from .model import CanonicalElement, ElementType, FURNITURE_TYPES
from .tables import TableGrid, TableGrids
from .textrules import TextRules

ASSOCIATION_TYPES = frozenset({
    ElementType.TITLE,
    ElementType.IMAGE,
    ElementType.TABLE,
    ElementType.IMAGE_CAPTION,
    ElementType.TABLE_CAPTION,
    ElementType.IMAGE_FOOTNOTE,
    ElementType.TABLE_FOOTNOTE,
})

# Blocks that may sit between a page's last table and the page edge without
# the table losing its boundary position.
_BOUNDARY_SKIP = FURNITURE_TYPES | {
    ElementType.TABLE_CAPTION,
    ElementType.TABLE_FOOTNOTE,
}

DEFAULT_CONTINUATION_MARKERS = ("continued", "cont'd", "（续）", "续表")


@dataclass(frozen=True)
class FilterConfig:
    """Tunable heuristics; defaults follow the documented rule set."""

    rules: TextRules = field(default_factory=TextRules)
    width_band: tuple[float, float] = (0.9, 1.1)
    continuation_markers: tuple[str, ...] = DEFAULT_CONTINUATION_MARKERS
    row_window: int = 3


@dataclass(frozen=True)
class TextPairCandidate:
    src: CanonicalElement
    tgt: CanonicalElement
    src_tail: str
    tgt_head: str


@dataclass(frozen=True)
class TablePairCandidate:
    upper_idx: int
    lower_idx: int
    upper_caption: Optional[str]
    lower_caption: Optional[str]
    upper_rows: TableGrid  # the upper table's last rows
    lower_rows: TableGrid  # the lower table's first rows


@dataclass
class TableFilterResult:
    candidates: list[TablePairCandidate]
    skipped: list[dict] = field(default_factory=list)


def filter_titles(elements: list[CanonicalElement]) -> list[CanonicalElement]:
    return [e for e in elements if e.etype is ElementType.TITLE]


def filter_association_candidates(elements: list[CanonicalElement]) -> list[CanonicalElement]:
    return [e for e in elements if e.etype in ASSOCIATION_TYPES]


def filter_text_truncation_candidates(
    elements: list[CanonicalElement], cfg: Optional[FilterConfig] = None
) -> list[TextPairCandidate]:
    """Adjacent text pairs that are not provably untruncated.

    A pair is excluded only when the src ends in terminating punctuation AND
    the tgt opens cleanly (list/number prefix or uppercase sentence opener);
    requiring both keeps ambiguous pairs for the predictor.
    """
    rules = (cfg or FilterConfig()).rules
    texts = [e for e in elements if e.etype is ElementType.TEXT]
    return [
        TextPairCandidate(
            src, tgt, rules.last_sentence(src.content), rules.first_sentence(tgt.content)
        )
        for src, tgt in zip(texts, texts[1:])
        if not (rules.ends_terminated(src.content) and rules.clean_opener(tgt.content))
    ]


def _boundary_table(elements: list[CanonicalElement], tail: bool) -> Optional[CanonicalElement]:
    """The page's trailing (tail=True) or leading table, ignoring furniture."""
    ordered = reversed(elements) if tail else iter(elements)
    for e in ordered:
        if e.etype in _BOUNDARY_SKIP:
            continue
        return e if e.etype is ElementType.TABLE else None
    return None


def _nearest_caption(
    table: CanonicalElement, elements: list[CanonicalElement]
) -> Optional[str]:
    best: Optional[CanonicalElement] = None
    best_key: Optional[tuple[int, int]] = None
    for e in elements:
        if e.etype is not ElementType.TABLE_CAPTION or e.page != table.page:
            continue
        # Smallest reading-order distance; prefer the preceding caption on ties.
        key = (abs(e.idx - table.idx), 0 if e.idx < table.idx else 1)
        if best_key is None or key < best_key:
            best, best_key = e, key
    return best.content if best else None


def has_continuation_marker(caption: Optional[str], markers: tuple[str, ...]) -> bool:
    if not caption:
        return False
    lowered = caption.lower()
    return any(m.lower() in lowered for m in markers)


def filter_table_truncation_candidates(
    elements: list[CanonicalElement],
    cfg: Optional[FilterConfig] = None,
    grids: Optional[TableGrids] = None,
) -> TableFilterResult:
    """Page-boundary table pairs passing the layout consistency gates.

    Gates: width ratio inside the configured band, then equal expanded
    column counts OR a continuation marker in the lower caption.  Tables
    whose HTML fails to parse are skipped and recorded, never fatal.
    Callers filtering many chunks pass one ``grids`` so each table is
    parsed once.
    """
    cfg = cfg or FilterConfig()
    grids = grids or TableGrids()
    by_page: dict[int, list[CanonicalElement]] = {}
    for e in elements:
        by_page.setdefault(e.page, []).append(e)

    result = TableFilterResult(candidates=[])
    for page in sorted(by_page):
        nxt = page + 1
        if nxt not in by_page:
            continue
        upper = _boundary_table(by_page[page], tail=True)
        lower = _boundary_table(by_page[nxt], tail=False)
        if upper is None or lower is None:
            continue

        upper_w = upper.bbox[2] - upper.bbox[0]
        lower_w = lower.bbox[2] - lower.bbox[0]
        ratio = lower_w / upper_w if upper_w > 0 else 0.0
        if not (cfg.width_band[0] <= ratio <= cfg.width_band[1]):
            continue

        try:
            upper_grid, lower_grid = grids.grid(upper), grids.grid(lower)
        except TableHtmlUnparseable as exc:
            result.skipped.append(
                {"upper_idx": upper.idx, "lower_idx": lower.idx, "reason": exc.message}
            )
            continue

        lower_caption = _nearest_caption(lower, by_page[nxt])
        if upper_grid.n_cols != lower_grid.n_cols and not has_continuation_marker(
            lower_caption, cfg.continuation_markers
        ):
            continue

        result.candidates.append(
            TablePairCandidate(
                upper_idx=upper.idx,
                lower_idx=lower.idx,
                upper_caption=_nearest_caption(upper, by_page[page]),
                lower_caption=lower_caption,
                upper_rows=upper_grid.row_window(cfg.row_window, tail=True),
                lower_rows=lower_grid.row_window(cfg.row_window, tail=False),
            )
        )
    return result
