"""Apply validated predictions back onto the canonical document.

The four application steps run in a fixed order (text merges, table
merges, level assignment, link attachment) so that idx remapping from the
merges has already happened by the time links consume idx values.  Every
merge is recorded in the merge log with enough provenance (absorbed idx,
fragment geometry, judgement vectors) to audit or undo it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Optional

from .errors import ColumnMismatch, Flag, TableHtmlUnparseable
from .model import (
    CanonicalDocument,
    CanonicalElement,
    CoordUnit,
    ElementType,
    VISUAL_TYPES,
)
from .predictors import association_link_valid
from .tables import TableGrid, TableGrids, merge_grids, parse_table
from .textrules import join_fragments


@dataclass
class MergeRecord:
    """One merge; its fields, in order, are a merge-log record's keys."""

    kind: str  # "text" | "table"
    src_idx: int
    absorbed: list[int]
    fragments: list[dict]  # {"idx", "page", "bbox", "content"} per fragment
    judgement: Optional[list[int]] = None
    fused: list[dict] = field(default_factory=list)
    dropped_header: bool = False


@dataclass
class MergeLog:
    records: list[MergeRecord] = field(default_factory=list)
    remap: dict[int, int] = field(default_factory=dict)

    def resolve(self, idx: int) -> int:
        """Follow absorbed->surviving mappings (transitively) for late references.

        Each mapping points from a removed element to one that was still in
        the document when it was removed, so a chain always ends.
        """
        while idx in self.remap:
            idx = self.remap[idx]
        return idx

    def to_dict(self) -> dict:
        return {
            "records": [vars(r) for r in self.records],
            "remap": {str(k): v for k, v in sorted(self.remap.items())},
        }


def _fragment(e: CanonicalElement) -> dict:
    return {"idx": e.idx, "page": e.page, "bbox": list(e.bbox), "content": e.content}


@dataclass
class ResolvedDocument:
    """Canonical document after merges, with levels and links attached.

    ``by_idx`` holds the elements by idx in reading order: a merge replaces
    its survivor in place and deletes what it absorbed.
    """

    doc_id: str
    coord_unit: CoordUnit
    by_idx: dict[int, CanonicalElement]
    levels: dict[int, int] = field(default_factory=dict)
    caption_links: dict[int, int] = field(default_factory=dict)  # caption idx -> visual idx
    section_links: dict[int, int] = field(default_factory=dict)  # visual idx -> title idx
    merge_log: MergeLog = field(default_factory=MergeLog)
    flags: list[Flag] = field(default_factory=list)

    @classmethod
    def from_document(cls, doc: CanonicalDocument) -> ResolvedDocument:
        return cls(
            doc_id=doc.doc_id,
            coord_unit=doc.coord_unit,
            by_idx={e.idx: e for e in doc.elements},
        )

    @property
    def elements(self) -> list[CanonicalElement]:
        return list(self.by_idx.values())


def merge_text(resolved: ResolvedDocument, pairs: list[tuple[int, int]]) -> ResolvedDocument:
    """Collapse predicted truncation pairs; chains fuse transitively.

    Pairs that are not adjacent text pairs in the current document are
    skipped with a PairNotAdjacent flag rather than failing the run.
    """
    by_idx = resolved.by_idx
    text_idx = sorted(e.idx for e in by_idx.values() if e.etype is ElementType.TEXT)
    next_text = {a: b for a, b in zip(text_idx, text_idx[1:])}

    succ: dict[int, int] = {}
    targets: set[int] = set()
    for src, tgt in sorted(pairs):
        src_el, tgt_el = by_idx.get(src), by_idx.get(tgt)
        if (
            src_el is None
            or tgt_el is None
            or src_el.etype is not ElementType.TEXT
            or tgt_el.etype is not ElementType.TEXT
            or next_text.get(src) != tgt
        ):
            resolved.flags.append(Flag("PairNotAdjacent", f"{src}->{tgt}"))
            continue
        if src in succ or tgt in targets:
            resolved.flags.append(Flag("PairDuplicated", f"{src}->{tgt}"))
            continue
        succ[src] = tgt
        targets.add(tgt)

    for start in sorted(succ):
        if start in targets:
            continue  # interior of a chain; handled from its head
        chain = [start]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        fragments = [by_idx[i] for i in chain]
        content = reduce(join_fragments, (f.content for f in fragments))
        by_idx[start] = replace(fragments[0], content=content)
        record = MergeRecord(
            kind="text",
            src_idx=start,
            absorbed=chain[1:],
            fragments=[_fragment(f) for f in fragments],
        )
        resolved.merge_log.records.append(record)
        for i in chain[1:]:
            resolved.merge_log.remap[i] = start
            del by_idx[i]
    return resolved


def merge_tables(
    resolved: ResolvedDocument,
    judgements: list[tuple[int, int, list[int]]],
    grids: Optional[TableGrids] = None,
) -> ResolvedDocument:
    """Fuse each table pair (upper_idx, lower_idx) per its column judgement
    vector; an empty vector means the pair is not one table.  An upper table
    that an earlier pair absorbed is found in the table that absorbed it, so
    a table split over three pages becomes one table (two merge records).

    A pair that cannot be fused (an endpoint missing or not a table, a lower
    table that already holds the upper one, a judgement of the wrong width,
    unparseable HTML) is skipped with a TableMergeSkipped flag.  ``grids``
    reuses tables already parsed by the table filter.
    """
    grids = grids or TableGrids()
    by_idx = resolved.by_idx
    for upper_idx, lower_idx, columns in judgements:
        if not columns:
            continue
        upper = by_idx.get(resolved.merge_log.resolve(upper_idx))
        lower = by_idx.get(lower_idx)
        try:
            if upper is None or lower is None:
                raise ColumnMismatch(f"table pair ({upper_idx}, {lower_idx}) not in document")
            if upper.etype is not ElementType.TABLE or lower.etype is not ElementType.TABLE:
                raise ColumnMismatch("merge_tables endpoints must both be tables")
            if upper.idx == lower.idx:
                raise ColumnMismatch(f"table {lower_idx} already holds table {upper_idx}")
            outcome = merge_grids(grids.grid(upper), grids.grid(lower), columns, join_fragments)
        except (ColumnMismatch, TableHtmlUnparseable) as exc:
            resolved.flags.append(Flag("TableMergeSkipped", f"{upper_idx}->{lower_idx}:{exc.message}"))
            continue
        resolved.merge_log.records.append(
            MergeRecord(
                kind="table",
                src_idx=upper.idx,
                absorbed=[lower.idx],
                fragments=[_fragment(upper), _fragment(lower)],
                judgement=list(columns),
                fused=outcome.fused,
                dropped_header=outcome.dropped_header,
            )
        )
        resolved.merge_log.remap[lower.idx] = upper.idx
        by_idx[upper.idx] = replace(upper, table_html=outcome.grid.to_html())
        del by_idx[lower.idx]
    return resolved


def assign_levels(resolved: ResolvedDocument, levels: dict[int, int]) -> ResolvedDocument:
    """Store title levels (by title idx); -1 demotes the element to text.

    Titles the prediction missed inherit the previous title's level (1 at
    the front) and are flagged; predicted idx that are not titles are
    skipped with a flag.
    """
    by_idx = resolved.by_idx
    title_idx = [e.idx for e in by_idx.values() if e.etype is ElementType.TITLE]
    title_set = set(title_idx)

    for idx in sorted(levels):
        if idx not in title_set:
            resolved.flags.append(Flag("UnknownIdx", str(idx)))

    stored: dict[int, int] = {}
    prev_level = 1
    for idx in title_idx:
        if idx in levels:
            level = levels[idx]
        else:
            resolved.flags.append(Flag("UnknownTitle", str(idx)))
            level = prev_level
        if level != -1 and level < 1:
            resolved.flags.append(Flag("LevelClamped", f"{idx}:{level}"))
            level = 1
        if level == -1:
            by_idx[idx] = replace(by_idx[idx], etype=ElementType.TEXT)
            continue
        stored[idx] = level
        prev_level = level

    resolved.levels = stored
    return resolved


def attach_links(resolved: ResolvedDocument, pairs: list[tuple[int, int]]) -> ResolvedDocument:
    """Populate caption->visual and visual->title maps, remapping merged idx."""
    by_idx = resolved.by_idx
    for src, tgt in pairs:
        src = resolved.merge_log.resolve(src)
        tgt = resolved.merge_log.resolve(tgt)
        src_el, tgt_el = by_idx.get(src), by_idx.get(tgt)
        if src_el is None or tgt_el is None or not association_link_valid(
            src_el.etype, tgt_el.etype
        ):
            resolved.flags.append(Flag("TypeRuleViolation", f"{src}->{tgt}"))
            continue
        links = (
            resolved.section_links
            if src_el.etype in VISUAL_TYPES
            else resolved.caption_links
        )
        if src in links:
            if links[src] != tgt:
                resolved.flags.append(Flag("LinkConflict", f"{src}->{tgt} (kept {links[src]})"))
            continue
        links[src] = tgt
    return resolved


def check_text_conservation(
    original: CanonicalDocument, resolved: ResolvedDocument
) -> list[str]:
    """Verify merges preserved content up to the documented join characters.

    Returns a list of violation descriptions (empty = conserved): every
    merged element's content must equal the fold of its fragments under the
    join rule, and untouched text elements must be byte-identical.
    """
    problems: list[str] = []
    merged_src = {r.src_idx: r for r in resolved.merge_log.records if r.kind == "text"}
    absorbed = set(resolved.merge_log.remap)

    for idx, record in merged_src.items():
        merged = resolved.by_idx.get(idx)
        if merged is None:
            problems.append(f"merged element {idx} missing from output")
            continue
        expected = reduce(join_fragments, (f["content"] for f in record.fragments))
        if merged.content != expected:
            problems.append(f"element {idx}: content differs from joined fragments")

    for e in original.elements:
        if e.etype is not ElementType.TEXT or e.idx in absorbed or e.idx in merged_src:
            continue
        out = resolved.by_idx.get(e.idx)
        if out is not None and out.etype is ElementType.TEXT and out.content != e.content:
            problems.append(f"untouched element {e.idx} changed content")
    return problems


def check_table_conservation(
    original: CanonicalDocument, resolved: ResolvedDocument
) -> list[str]:
    """Verify each merged table holds every non-dropped cell text.

    The table records are replayed in order on the tables' grids, so a table
    merged from a chain of fragments is checked against all of them.  Each
    merge must keep the multiset of logical cell texts of its two tables as
    they stood then, up to (a) fused cells replaced by their recorded join
    and (b) the cells a dropped repeated header row takes with it: the lower
    table's first-row cells that span no further row.  Each merged table in
    the document must hold the cells of its replay.
    """
    problems: list[str] = []
    original_by_idx = original.index()
    merged: dict[int, TableGrid] = {}  # each table merged so far, replayed

    def grid(idx: int) -> TableGrid:
        if idx in merged:
            return merged.pop(idx)
        return parse_table(original_by_idx[idx].table_html or "")

    for record in resolved.merge_log.records:
        if record.kind != "table":
            continue
        upper, lower = grid(record.src_idx), grid(record.absorbed[0])
        expected = Counter(upper.cell_texts()) + Counter(lower.cell_texts())
        if record.dropped_header:
            expected -= Counter(lower.cell_texts()) - Counter(
                lower.slice_rows(1, lower.n_rows).cell_texts()
            )
        for fusion in record.fused:
            expected -= Counter((fusion["upper"], fusion["lower"]))
            expected[fusion["joined"]] += 1
        outcome = merge_grids(upper, lower, record.judgement or [], join_fragments)
        if Counter(outcome.grid.cell_texts()) != expected:
            problems.append(f"table {record.src_idx}: merge of table {record.absorbed[0]} lost cells")
        merged[record.src_idx] = outcome.grid
    for idx, replayed in merged.items():
        table = resolved.by_idx.get(idx)
        if table is None:
            problems.append(f"merged table {idx} missing")
        elif sorted(replayed.cell_texts()) != sorted(parse_table(table.table_html or "").cell_texts()):
            problems.append(f"table {idx}: cell multiset not conserved")
    return problems
