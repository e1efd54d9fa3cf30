"""Deterministic rule-based baseline for all four subtasks.

This is the zero-dependency reference implementation: the whole pipeline
and test suite run against it without any model or network.  Its rules are
deliberately simple, fully documented here, and version-pinned by the test
suite. Changing a rule means re-pinning the goldens.

Title hierarchy
    Decimal-outline titles ("2.", "3.1", "4.1.2") take their numbering
    depth as the level.  If any plain title precedes the first numbered
    one, it is the document title: plain leading titles get level 1 and
    numbered depths shift down by one.  Plain titles after a numbered one
    nest one level below it.  Documents without numbering group titles by
    prefix shape (case/digit pattern); each new shape opens the next level
    in order of first appearance.  Levels are shifted so the minimum is 1.

Text truncation
    A candidate pair merges when the src tail lacks terminating
    punctuation and the tgt head opens in continuation style (lowercase
    latin letter or CJK character).

Association
    Captions/footnotes link to the nearest visual of the matching kind,
    preferring the same page, then adjacent pages, nearer reading-order
    distance first (preceding wins ties).  Images and tables link to the
    most recent preceding title.

Table truncation
    Differing column counts mean different tables (empty judgement).
    Otherwise the pair is a continuation: a column fuses when the upper
    boundary cell ends in a connective character (hyphen, en-dash, slash);
    a lower first row repeating the upper fragment's first row verbatim is
    a repeated header (all-zero vector; the dedup itself happens at merge
    time).
"""

from __future__ import annotations

import re
from typing import Optional

from ..filtering import TablePairCandidate, TextPairCandidate
from ..model import CAPTION_LINK_TARGET, CanonicalElement, ElementType, VISUAL_TYPES

# Not called here: the candidates carry parsed row windows.  The name stays
# importable because perfbench/tracer.py rebinds it in this module.
from ..tables import parse_table  # noqa: F401
from ..textrules import TextRules, is_cjk
from . import CellMergeJudgement, HierarchyPrediction, PairPrediction, Predictor

_OUTLINE_RE = re.compile(r"^\s*(\d+(?:\.\d+)*)[.)]?(?:\s+|$)")
_CELL_CONTINUATION_TAILS = ("-", "–", "/")


def outline_depth(title: str) -> Optional[int]:
    """Depth of a decimal outline prefix: '2.' -> 1, '3.1' -> 2; None if absent."""
    m = _OUTLINE_RE.match(title)
    if not m:
        # Compact numbering without a space, e.g. "1.Challenge"
        m = re.match(r"^\s*(\d+(?:\.\d+)*)[.)](?=\S)", title)
        if not m:
            return None
    return m.group(1).count(".") + 1


def shape_signature(title: str) -> str:
    """Case/digit prefix shape with repeated character classes collapsed."""
    out: list[str] = []
    for ch in title.strip():
        if ch.isdigit():
            cls = "9"
        elif ch.isalpha():
            cls = "A" if ch.isupper() else "a"
        elif ch.isspace():
            cls = " "
        else:
            cls = ch
        if not out or out[-1] != cls:
            out.append(cls)
    return "".join(out)


class RulePredictor(Predictor):
    name = "rules"

    def __init__(self, rules: Optional[TextRules] = None):
        self.rules = rules or TextRules()

    # -- title hierarchy ------------------------------------------------

    def predict_title_hierarchy(self, req: list[CanonicalElement]) -> HierarchyPrediction:
        if not req:
            return HierarchyPrediction(levels={})
        depths = [outline_depth(t.content) for t in req]
        levels: dict[int, int] = {}

        if any(d is not None for d in depths):
            first_numbered = next(i for i, d in enumerate(depths) if d is not None)
            offset = 1 if first_numbered > 0 else 0
            last_numbered_level: Optional[int] = None
            for pos, (item, depth) in enumerate(zip(req, depths)):
                if depth is not None:
                    level = depth + offset
                    last_numbered_level = level
                elif pos < first_numbered:
                    level = 1
                else:
                    level = (last_numbered_level or 1) + 1
                levels[item.idx] = level
        else:
            group_level: dict[str, int] = {}
            for item in req:
                sig = shape_signature(item.content)
                if sig not in group_level:
                    group_level[sig] = len(group_level) + 1
                levels[item.idx] = group_level[sig]

        lowest = min(levels.values())
        if lowest != 1:
            levels = {i: lvl - lowest + 1 for i, lvl in levels.items()}
        return HierarchyPrediction(levels=levels)

    # -- text truncation ------------------------------------------------

    def predict_text_truncation(self, req: list[TextPairCandidate]) -> PairPrediction:
        pairs = []
        for cand in req:
            if self.rules.ends_terminated(cand.src_tail):
                continue
            head = cand.tgt_head.lstrip()
            if not head:
                continue
            ch = head[0]
            if (ch.isalpha() and ch.islower()) or is_cjk(ch):
                pairs.append((cand.src.idx, cand.tgt.idx))
        return PairPrediction(pairs=pairs)

    # -- association ----------------------------------------------------

    def predict_association(self, req: list[CanonicalElement]) -> PairPrediction:
        pairs: list[tuple[int, int]] = []
        unresolved: list[int] = []
        titles = [it for it in req if it.etype is ElementType.TITLE]
        visuals = [it for it in req if it.etype in VISUAL_TYPES]

        for item in req:
            target_kind = CAPTION_LINK_TARGET.get(item.etype)
            if target_kind is None:
                continue
            options = [v for v in visuals if v.etype is target_kind]
            # Same page first, then the two neighbouring pages.
            chosen = None
            for page_span in (0, 1):
                ranked = sorted(
                    (v for v in options if abs(v.page - item.page) <= page_span),
                    key=lambda v: (abs(v.idx - item.idx), 0 if v.idx < item.idx else 1),
                )
                if ranked:
                    chosen = ranked[0]
                    break
            if chosen is None:
                unresolved.append(item.idx)
            else:
                pairs.append((item.idx, chosen.idx))

        for v in visuals:
            preceding = [t for t in titles if t.idx < v.idx]
            if preceding:
                pairs.append((v.idx, preceding[-1].idx))
            else:
                unresolved.append(v.idx)

        return PairPrediction(pairs=pairs, unresolved=unresolved)

    # -- table truncation -------------------------------------------------

    def predict_table_truncation(self, req: TablePairCandidate) -> CellMergeJudgement:
        upper, lower = req.upper_rows, req.lower_rows
        n = upper.n_cols
        if lower.n_cols != n:
            return CellMergeJudgement(columns=[])
        if not (upper.n_rows and lower.n_rows):
            # A row_window of 0 gives empty windows; there is no row to judge.
            return CellMergeJudgement(columns=[], flags=["unparseable_rows"])
        if lower.row_text(0) == upper.row_text(0):
            return CellMergeJudgement(columns=[0] * n, flags=["repeated_header"])
        upper_last = upper.row_text(upper.n_rows - 1)
        columns = []
        for j in range(n):
            tail = upper_last[j].rstrip()
            columns.append(1 if tail.endswith(_CELL_CONTINUATION_TAILS) else 0)
        return CellMergeJudgement(columns=columns)
