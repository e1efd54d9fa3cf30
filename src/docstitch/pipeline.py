"""End-to-end orchestration: filter, chunk, predict, synchronize, apply, enrich.

Everything downstream of the predictor is deterministic; in rules mode the
whole run is bit-reproducible.  Remote predictions may be issued
concurrently up to the configured parallelism, one per (subtask, chunk) and
one per distinct table pair for table truncation; results are keyed, so
completion order never affects output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import apply as apply_mod
from .apply import ResolvedDocument
from .chunking import (
    ChunkPlan,
    ChunkPlanConfig,
    ChunkPrediction,
    PageProfile,
    merge_table_union,
    merge_union,
    plan_chunks,
    synchronize_hierarchy,
)
from .errors import ColumnMismatch, ConfigError, TableHtmlUnparseable
from .filtering import (
    ASSOCIATION_TYPES,
    FilterConfig,
    TablePairCandidate,
    filter_association_candidates,
    filter_table_truncation_candidates,
    filter_text_truncation_candidates,
    filter_titles,
)
from .model import CanonicalDocument, ElementType, PageIndex, validate_document
from .predictors import (
    CellMergeJudgement,
    FallbackPredictor,
    HierarchyPrediction,
    PairPrediction,
    Predictor,
    RulePredictor,
)
from .predictors.remote import RemotePredictor
from .tables import TableGrids
from .textrules import TextRules
from .tree import (
    DocTree,
    ExtractiveSummarizer,
    RemoteSummarizer,
    Summarizer,
    build_tree,
    chunk_nodes,
    summarize_nodes,
)

SUBTASKS = ("hierarchy", "text", "association", "table")
# The element type each subtask's chunk plan is labelled with.
TASK_TYPES = {
    "hierarchy": ElementType.TITLE,
    "text": ElementType.TEXT,
    "association": ElementType.IMAGE,
    "table": ElementType.TABLE,
}


@dataclass
class PipelineConfig:
    profile: str = "generic"
    stride: int = 8
    threshold: int = 2
    predictor_mode: str = "rules"  # "rules" | "remote"
    backend_url: Optional[str] = None
    backend_timeout: float = 30.0
    parallelism: int = 4
    node_chunk_chars: int = 1200
    summarizer_mode: str = "extractive"  # "extractive" | "remote"
    summarizer_url: Optional[str] = None
    summary_cap_chars: int = 300
    summary_max_sentences: int = 2
    export_formats: tuple[str, ...] = ("json", "markdown")
    jobs: int = 1
    filters: FilterConfig = field(default_factory=FilterConfig)

    def __post_init__(self) -> None:
        if self.predictor_mode not in ("rules", "remote"):
            raise ConfigError(f"predictor mode must be rules|remote, got {self.predictor_mode!r}")
        if self.summarizer_mode not in ("extractive", "remote"):
            raise ConfigError(
                f"summarizer mode must be extractive|remote, got {self.summarizer_mode!r}"
            )
        if self.predictor_mode == "remote" and not self.backend_url:
            raise ConfigError("remote predictor mode requires a backend URL")
        if self.summarizer_mode == "remote" and not self.summarizer_url:
            raise ConfigError("remote summarizer mode requires a summarizer URL")
        if self.node_chunk_chars <= 0:
            raise ConfigError("node_chunk_chars must be positive")
        if self.jobs < 1 or self.parallelism < 1:
            raise ConfigError("jobs and parallelism must be >= 1")
        unknown = [f for f in self.export_formats if f not in ("json", "markdown")]
        if unknown:
            raise ConfigError(f"unknown export formats: {unknown}")

    @classmethod
    def from_dict(cls, raw: dict) -> PipelineConfig:
        """Build from the config-file layout, rejecting unknown keys."""
        known_top = {
            "profile", "chunking", "filters", "predictor", "tree", "export", "jobs",
        }
        unknown = set(raw) - known_top
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        def section(name: str, allowed: set[str]) -> dict:
            sec = raw.get(name, {})
            if not isinstance(sec, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            bad = set(sec) - allowed
            if bad:
                raise ConfigError(f"unknown keys in config section {name!r}: {sorted(bad)}")
            return sec

        chunking = section("chunking", {"stride", "threshold"})
        predictor = section(
            "predictor", {"mode", "backend_url", "timeout_s", "parallelism"}
        )
        tree = section(
            "tree",
            {
                "node_chunk_chars",
                "summarizer",
                "summarizer_url",
                "summary_cap_chars",
                "summary_max_sentences",
            },
        )
        export = section("export", {"formats"})
        filters_raw = section(
            "filters",
            {
                "terminators",
                "prefix_patterns",
                "sentence_cap_chars",
                "width_band",
                "continuation_markers",
                "row_window",
            },
        )
        rules = TextRules(
            terminators=frozenset(
                filters_raw.get("terminators", sorted(TextRules().terminators))
            ),
            prefix_patterns=tuple(
                filters_raw.get("prefix_patterns", TextRules().prefix_patterns)
            ),
            sentence_cap_chars=int(filters_raw.get("sentence_cap_chars", 300)),
        )
        filters = FilterConfig(
            rules=rules,
            width_band=tuple(filters_raw.get("width_band", (0.9, 1.1))),  # type: ignore[arg-type]
            continuation_markers=tuple(
                filters_raw.get("continuation_markers", FilterConfig().continuation_markers)
            ),
            row_window=int(filters_raw.get("row_window", 3)),
        )
        return cls(
            profile=raw.get("profile", "generic"),
            stride=int(chunking.get("stride", 8)),
            threshold=int(chunking.get("threshold", 2)),
            predictor_mode=predictor.get("mode", "rules"),
            backend_url=predictor.get("backend_url"),
            backend_timeout=float(predictor.get("timeout_s", 30.0)),
            parallelism=int(predictor.get("parallelism", 4)),
            node_chunk_chars=int(tree.get("node_chunk_chars", 1200)),
            summarizer_mode=tree.get("summarizer", "extractive"),
            summarizer_url=tree.get("summarizer_url"),
            summary_cap_chars=int(tree.get("summary_cap_chars", 300)),
            summary_max_sentences=int(tree.get("summary_max_sentences", 2)),
            export_formats=tuple(export.get("formats", ("json", "markdown"))),
            jobs=int(raw.get("jobs", 1)),
            filters=filters,
        )


@dataclass
class DocumentPredictions:
    """Document-level predictions after cross-chunk synchronization."""

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


@dataclass
class RunReport:
    doc_id: str
    warnings: list[str] = field(default_factory=list)
    validation: list[dict] = field(default_factory=list)
    sync: dict = field(default_factory=dict)
    union_conflicts: list[dict] = field(default_factory=list)
    skipped_tables: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    realized_overlaps: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "warnings": self.warnings,
            "validation": self.validation,
            "sync": self.sync,
            "union_conflicts": self.union_conflicts,
            "skipped_tables": self.skipped_tables,
            "counts": self.counts,
            "realized_overlaps": self.realized_overlaps,
        }


@dataclass
class PipelineResult:
    tree: DocTree
    resolved: ResolvedDocument
    predictions: DocumentPredictions
    chunk_plans: dict[str, ChunkPlan]
    report: RunReport


def make_predictor(cfg: PipelineConfig) -> Predictor:
    rules = RulePredictor(cfg.filters.rules)
    if cfg.predictor_mode == "rules":
        return rules
    remote = RemotePredictor(cfg.backend_url or "", timeout=cfg.backend_timeout)
    return FallbackPredictor(remote, rules)


def make_summarizer(cfg: PipelineConfig) -> Summarizer:
    if cfg.summarizer_mode == "extractive":
        return ExtractiveSummarizer(
            max_sentences=cfg.summary_max_sentences,
            cap_chars=cfg.summary_cap_chars,
            rules=cfg.filters.rules,
        )
    return RemoteSummarizer(
        cfg.summarizer_url or "", timeout=cfg.backend_timeout, cap_chars=cfg.summary_cap_chars
    )


def _profile_for(doc: CanonicalDocument, subtask: str) -> PageProfile:
    if subtask == "hierarchy":
        types = (ElementType.TITLE,)
    elif subtask == "text":
        types = (ElementType.TEXT,)
    elif subtask == "association":
        types = tuple(ASSOCIATION_TYPES)
    else:
        types = (ElementType.TABLE,)
    counts = [0] * doc.page_count
    wanted = set(types)
    for e in doc.elements:
        if e.etype in wanted and 0 <= e.page < doc.page_count:
            counts[e.page] += 1
    return PageProfile(counts)


def plan_subtasks(doc: CanonicalDocument, cfg: PipelineConfig) -> dict[str, ChunkPlan]:
    """Each subtask's chunk plan, labelled with the subtask's element type."""
    return {
        subtask: plan_chunks(
            _profile_for(doc, subtask),
            ChunkPlanConfig(
                stride=cfg.stride, threshold=cfg.threshold, task_type=TASK_TYPES[subtask]
            ),
        )
        for subtask in SUBTASKS
    }


def run_pipeline(doc: CanonicalDocument, cfg: PipelineConfig) -> PipelineResult:
    report = RunReport(doc_id=doc.doc_id)
    validation = validate_document(doc)
    report.validation = [
        {"code": v.code, "idx": v.idx, "message": v.message} for v in validation.violations
    ]

    predictor = make_predictor(cfg)
    plans = plan_subtasks(doc, cfg)
    for subtask, plan in plans.items():
        report.realized_overlaps[subtask] = plan.realized_overlaps()

    # One page index and one parse of each table serve every chunk.
    index = PageIndex(doc)
    grids = TableGrids()

    # Build every request up front so remote calls can be issued
    # concurrently; the rule baseline runs them inline.  Title, text and
    # association requests carry their chunk's context, so they are keyed
    # by chunk.  A table request does not depend on the chunk, so each
    # distinct (upper, lower) pair is requested once, keyed by the pair,
    # and its judgement is replayed into every chunk that saw it.
    jobs: list[tuple[str, Any, Callable[[], Any]]] = []

    for chunk_index, span in enumerate(plans["hierarchy"].chunks):
        titles = filter_titles(doc, pages=span, index=index)
        if titles.items:
            jobs.append(
                ("hierarchy", chunk_index, lambda t=titles: predictor.predict_title_hierarchy(t))
            )
    for chunk_index, span in enumerate(plans["text"].chunks):
        candidates = filter_text_truncation_candidates(doc, cfg.filters, pages=span, index=index)
        if candidates:
            jobs.append(
                ("text", chunk_index, lambda c=candidates: predictor.predict_text_truncation(c))
            )
    for chunk_index, span in enumerate(plans["association"].chunks):
        assoc = filter_association_candidates(doc, pages=span, index=index)
        if assoc.items:
            jobs.append(
                ("association", chunk_index, lambda a=assoc: predictor.predict_association(a))
            )
    table_pairs: dict[tuple[int, int], TablePairCandidate] = {}
    pairs_by_chunk: list[tuple[int, list[tuple[int, int]]]] = []
    for chunk_index, span in enumerate(plans["table"].chunks):
        tables = filter_table_truncation_candidates(
            doc, cfg.filters, pages=span, index=index, grids=grids
        )
        for skip in tables.skipped:
            if skip not in report.skipped_tables:
                report.skipped_tables.append(skip)
        keys = []
        for cand in tables.candidates:
            key = (cand.upper_idx, cand.lower_idx)
            if key not in table_pairs:
                table_pairs[key] = cand
                jobs.append(("table", key, lambda c=cand: predictor.predict_table_truncation(c)))
            keys.append(key)
        if keys:
            pairs_by_chunk.append((chunk_index, keys))

    results: dict[tuple[str, Any], Any] = {}
    if cfg.predictor_mode == "remote" and cfg.parallelism > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            futures = [(subtask, key, pool.submit(fn)) for subtask, key, fn in jobs]
            for subtask, key, fut in futures:
                results[(subtask, key)] = fut.result()
    else:
        for subtask, key, fn in jobs:
            results[(subtask, key)] = fn()

    def chunk_outputs(subtask: str) -> list[tuple[int, Any]]:
        return [
            (k, results[(subtask, k)])
            for k in range(len(plans[subtask].chunks))
            if (subtask, k) in results
        ]

    # Warnings keep the report's order: subtasks by name, then chunk.
    assoc_preds = []
    for chunk_index, out in chunk_outputs("association"):
        report.warnings.extend(f"association[{chunk_index}]:{f}" for f in out.flags)
        report.warnings.extend(
            f"association[{chunk_index}]:unresolved:{i}" for i in out.unresolved
        )
        assoc_preds.append(ChunkPrediction(chunk_index, out.pairs))
    hier_preds = []
    for chunk_index, out in chunk_outputs("hierarchy"):
        report.warnings.extend(f"hierarchy[{chunk_index}]:{f}" for f in out.flags)
        hier_preds.append(ChunkPrediction(chunk_index, out.levels))
    table_preds = []
    for chunk_index, keys in pairs_by_chunk:
        payload = []
        for upper, lower in keys:
            judgement = results[("table", (upper, lower))]
            report.warnings.extend(f"table[{chunk_index}]:{f}" for f in judgement.flags)
            payload.append((upper, lower, judgement.columns))
        table_preds.append(ChunkPrediction(chunk_index, payload))
    text_preds = []
    for chunk_index, out in chunk_outputs("text"):
        report.warnings.extend(f"text[{chunk_index}]:{f}" for f in out.flags)
        text_preds.append(ChunkPrediction(chunk_index, out.pairs))

    predictions = DocumentPredictions()
    sync = synchronize_hierarchy(hier_preds)
    predictions.hierarchy = dict(sorted(sync.levels.items()))
    report.sync = {
        "deviations": sync.deviations,
        "empty_overlaps": sync.empty_overlaps,
        "conflicts": sync.conflicts,
    }

    text_union = merge_union(text_preds)
    predictions.text_pairs = text_union.pairs
    assoc_union = merge_union(assoc_preds, unique_src=True)
    predictions.assoc_pairs = assoc_union.pairs
    report.union_conflicts = text_union.conflicts + assoc_union.conflicts

    table_union = merge_table_union(table_preds)
    report.union_conflicts.extend(table_union.conflicts)
    predictions.table_judgements = table_union.judgements

    resolved = apply_predictions(doc, predictions, table_pairs, grids)
    # Nothing below reads the parsed tables; freeing them before the tree is
    # built keeps the run's peak memory where it was before the cache.
    del grids

    tree = build_tree(resolved)
    chunk_nodes(tree, cfg.node_chunk_chars)
    summarize_nodes(tree, make_summarizer(cfg), fallback=ExtractiveSummarizer(
        max_sentences=cfg.summary_max_sentences,
        cap_chars=cfg.summary_cap_chars,
        rules=cfg.filters.rules,
    ))
    report.warnings.extend(tree.flags)

    report.counts = {
        "elements": len(doc.elements),
        "titles": len(predictions.hierarchy),
        "text_merges": sum(1 for r in resolved.merge_log.records if r.kind == "text"),
        "table_merges": sum(1 for r in resolved.merge_log.records if r.kind == "table"),
        "links": len(resolved.caption_links) + len(resolved.section_links),
        "nodes": sum(1 for _ in tree.walk()),
        "warnings": 0,  # filled below
    }
    report.warnings.extend(resolved.flags)
    report.counts["warnings"] = len(report.warnings)

    return PipelineResult(
        tree=tree,
        resolved=resolved,
        predictions=predictions,
        chunk_plans=plans,
        report=report,
    )


def apply_predictions(
    doc: CanonicalDocument,
    predictions: DocumentPredictions,
    table_pairs: dict[tuple[int, int], TablePairCandidate],
    grids: TableGrids,
) -> ResolvedDocument:
    """Run the four application steps in their fixed order.

    ``table_pairs`` holds the candidate the chunk filters built for every
    judged table pair, and ``grids`` the tables they parsed.
    """
    resolved = ResolvedDocument.from_document(doc)
    apply_mod.merge_text(resolved, PairPrediction(pairs=list(predictions.text_pairs)))

    if predictions.table_judgements:
        by_idx = resolved.index()
        for upper, lower, columns in predictions.table_judgements:
            try:
                apply_mod.merge_tables(
                    resolved,
                    table_pairs[(upper, lower)],
                    CellMergeJudgement(columns=list(columns)),
                    by_idx,
                    grids,
                )
            except (ColumnMismatch, TableHtmlUnparseable) as exc:
                resolved.flags.append(f"TableMergeSkipped:{upper}->{lower}:{exc.message}")
        resolved.rebuild(by_idx)

    apply_mod.assign_levels(resolved, HierarchyPrediction(levels=dict(predictions.hierarchy)))
    apply_mod.attach_links(resolved, PairPrediction(pairs=list(predictions.assoc_pairs)))
    return resolved
