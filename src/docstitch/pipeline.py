"""End-to-end orchestration: filter, chunk, predict, synchronize, apply, enrich.

Everything downstream of the predictor is deterministic; in rules mode the
whole run is bit-reproducible.  Remote predictions may be issued
concurrently up to the configured parallelism, one per (subtask, chunk) and
one per distinct table pair for table truncation; results are keyed, so
completion order never affects output.
"""

from __future__ import annotations

import re
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from . import apply as apply_mod
from .apply import ResolvedDocument
from .chunking import (
    ChunkPlan,
    ChunkPlanConfig,
    ChunkPrediction,
    DocumentPredictions,
    PageProfile,
    merge_table_union,
    merge_union,
    plan_chunks,
    synchronize_hierarchy,
)
from .errors import BAD_FIELD, ConfigError, Flag, MalformedInput, bad_field
from .filtering import (
    ASSOCIATION_TYPES,
    FilterConfig,
    filter_association_candidates,
    filter_table_truncation_candidates,
    filter_text_truncation_candidates,
    filter_titles,
)
from .model import (
    CanonicalDocument,
    CanonicalElement,
    ElementType,
    PageIndex,
    json_int,
    json_number,
    json_str,
    string_list,
    validate_document,
)
from .predictors import FallbackPredictor, Predictor, RulePredictor
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


@dataclass(frozen=True)
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
        ChunkPlanConfig(self.stride, self.threshold)  # raises chunking.BadConfig
        if self.node_chunk_chars <= 0:
            raise ConfigError("node_chunk_chars must be positive")
        if self.jobs < 1 or self.parallelism < 1:
            raise ConfigError("jobs and parallelism must be >= 1")
        unknown = [f for f in self.export_formats if f not in ("json", "markdown")]
        if unknown:
            raise ConfigError(f"unknown export formats: {unknown}")

    @classmethod
    def from_dict(
        cls, raw: dict, flags: Mapping[tuple[Optional[str], str], tuple[str, Any]] = {}
    ) -> PipelineConfig:
        """Build from the config-file layout, rejecting unknown keys and
        wrong-typed values; keys left out or null keep the dataclass defaults.

        ``flags`` maps a config (section, key) to a ``(name, value)`` pair,
        from a CLI flag or the environment, that is read in place of the
        file's value, by the same rule, and named by ``name`` in an error.
        """
        allowed: dict[Optional[str], set[str]] = {}
        for section, key in CONFIG_KEYS:
            allowed.setdefault(section, set()).add(key)
        unknown = set(raw) - allowed[None] - set(allowed)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for section in filter(None, allowed):
            if not isinstance(raw.get(section, {}), dict):
                raise ConfigError(f"config section {section!r} must be an object")
            bad = set(raw.get(section, {})) - allowed[section]
            if bad:
                raise ConfigError(f"unknown keys in config section {section!r}: {sorted(bad)}")

        given: dict[str, dict[str, Any]] = {"": {}, "filters": {}, "rules": {}}
        for (section, key), (target, convert) in CONFIG_KEYS.items():
            if (section, key) in flags:
                where, value = flags[section, key]
            else:
                where = key if section is None else f"{section}.{key}"
                value = (raw if section is None else raw.get(section, {})).get(key)
            if value is None:
                continue
            try:
                value = convert(value)
            except BAD_FIELD as exc:
                raise bad_field(ConfigError, "config", exc, where) from exc
            owner, _, name = target.rpartition(".")
            given[owner][name] = value
        try:
            rules = TextRules(**given["rules"])
        except re.error as exc:
            raise bad_field(ConfigError, "config", exc, "filters.prefix_patterns") from exc
        return cls(filters=FilterConfig(rules=rules, **given["filters"]), **given[""])


def _count(value: Any) -> int:
    value = json_int(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _timeout(value: Any) -> float:
    # 0 would make every socket non-blocking; past TIMEOUT_MAX the socket
    # cannot take the value at all.
    value = json_number(value)
    if not 0 < value <= threading.TIMEOUT_MAX:
        raise ValueError(f"expected a number of seconds > 0, got {value!r}")
    return value


def _band(value: Any) -> tuple[float, float]:
    low, high = value
    return (json_number(low), json_number(high))


# Config-file (section, key) -> (target field, conversion).  A target is a
# PipelineConfig field, or "filters.<field>" / "rules.<field>" of the
# FilterConfig and TextRules inside it.  Section order is the order in
# which malformed sections are reported.
CONFIG_KEYS: dict[tuple[Optional[str], str], tuple[str, Callable[[Any], Any]]] = {
    (None, "profile"): ("profile", json_str),
    (None, "jobs"): ("jobs", json_int),
    ("chunking", "stride"): ("stride", json_int),
    ("chunking", "threshold"): ("threshold", json_int),
    ("predictor", "mode"): ("predictor_mode", json_str),
    ("predictor", "backend_url"): ("backend_url", json_str),
    ("predictor", "timeout_s"): ("backend_timeout", _timeout),
    ("predictor", "parallelism"): ("parallelism", json_int),
    ("tree", "node_chunk_chars"): ("node_chunk_chars", json_int),
    ("tree", "summarizer"): ("summarizer_mode", json_str),
    ("tree", "summarizer_url"): ("summarizer_url", json_str),
    ("tree", "summary_cap_chars"): ("summary_cap_chars", _count),
    ("tree", "summary_max_sentences"): ("summary_max_sentences", _count),
    ("export", "formats"): ("export_formats", string_list),
    ("filters", "terminators"): ("rules.terminators", lambda v: frozenset(string_list(v))),
    ("filters", "prefix_patterns"): ("rules.prefix_patterns", string_list),
    ("filters", "sentence_cap_chars"): ("rules.sentence_cap_chars", _count),
    ("filters", "width_band"): ("filters.width_band", _band),
    ("filters", "continuation_markers"): ("filters.continuation_markers", string_list),
    ("filters", "row_window"): ("filters.row_window", _count),
}


@dataclass
class RunReport:
    doc_id: str
    warnings: list[Flag] = field(default_factory=list)
    validation: list[dict] = field(default_factory=list)
    sync: dict = field(default_factory=dict)
    union_conflicts: list[dict] = field(default_factory=list)
    skipped_tables: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    realized_overlaps: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


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


def _page_density(doc: CanonicalDocument, types: frozenset[ElementType]) -> PageProfile:
    counts = [0] * doc.page_count
    for e in doc.elements:
        if e.etype in types and 0 <= e.page < doc.page_count:
            counts[e.page] += 1
    return PageProfile(counts)


@dataclass
class _Run:
    """What one run's request builders share across chunks."""

    filters: FilterConfig
    index: PageIndex
    report: RunReport
    grids: TableGrids = field(default_factory=TableGrids)
    skipped: set[tuple[int, int]] = field(default_factory=set)  # pairs in report.skipped_tables


Elements = list[CanonicalElement]


def _one_per_chunk(select: Callable[[_Run, Elements], Any]) -> Callable:
    """A builder for a subtask whose request carries its chunk's context:
    one request per chunk with any candidates, keyed by the chunk."""

    def requests(run: _Run, chunk: int, elements: Elements) -> list[tuple[Any, Any]]:
        request = select(run, elements)
        return [(chunk, request)] if len(request) else []

    return requests


def _table_requests(run: _Run, chunk: int, elements: Elements) -> list[tuple[Any, Any]]:
    """A table request does not depend on the chunk, so it is keyed by its
    (upper, lower) pair: each distinct pair is predicted once and its
    judgement replayed into every chunk that saw it."""
    tables = filter_table_truncation_candidates(elements, run.filters, run.grids)
    for skip in tables.skipped:
        pair = (skip["upper_idx"], skip["lower_idx"])
        if pair not in run.skipped:
            run.skipped.add(pair)
            run.report.skipped_tables.append(skip)
    return [((cand.upper_idx, cand.lower_idx), cand) for cand in tables.candidates]


@dataclass(frozen=True)
class Subtask:
    """How one subtask is chunked, requested, predicted and read back.

    ``requests(run, chunk, elements)`` filters one chunk's elements, in
    reading order, into ``(key, request)`` pairs; a key is predicted once
    however many chunks ask for it.  ``payload(key, prediction)`` gives the
    items the prediction adds to the chunk's payload; its flags join the
    run's warnings.  Filters and predictor methods are looked up by name at
    call time, so rebinding one (as a tracer does) takes effect.
    """

    name: str
    plan_type: ElementType  # labels the chunk plan
    density_types: frozenset[ElementType]  # counted per page to place boundaries
    method: str  # the Predictor method
    requests: Callable[[_Run, int, Elements], list[tuple[Any, Any]]]
    payload: Callable[[Any, Any], Iterable]


# In chunk-plan and dispatch order; warnings are reported by name.
SUBTASKS = (
    Subtask(
        "hierarchy", ElementType.TITLE, frozenset({ElementType.TITLE}),
        "predict_title_hierarchy",
        _one_per_chunk(lambda run, elements: filter_titles(elements)),
        lambda key, out: out.levels.items(),
    ),
    Subtask(
        "text", ElementType.TEXT, frozenset({ElementType.TEXT}),
        "predict_text_truncation",
        _one_per_chunk(lambda run, elements: filter_text_truncation_candidates(
            elements, run.filters
        )),
        lambda key, out: out.pairs,
    ),
    Subtask(
        "association", ElementType.IMAGE, ASSOCIATION_TYPES,
        "predict_association",
        _one_per_chunk(lambda run, elements: filter_association_candidates(elements)),
        lambda key, out: out.pairs,
    ),
    Subtask(
        "table", ElementType.TABLE, frozenset({ElementType.TABLE}),
        "predict_table_truncation",
        _table_requests,
        lambda key, out: [(*key, out.columns)],
    ),
)


def plan_subtasks(doc: CanonicalDocument, cfg: PipelineConfig) -> dict[str, ChunkPlan]:
    """Each subtask's chunk plan, labelled with the subtask's element type."""
    chunking = ChunkPlanConfig(stride=cfg.stride, threshold=cfg.threshold)
    return {
        task.name: plan_chunks(_page_density(doc, task.density_types), chunking, task.plan_type)
        for task in SUBTASKS
    }


def thread_map(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> list[Any]:
    """``[fn(item) for item in items]``, run on up to ``workers`` threads when
    there is more than one worker and more than one item; the results keep
    the order of ``items``."""
    if workers > 1 and len(items) > 1:
        # Imported here so that a run without a pool does not load it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_pipeline(doc: CanonicalDocument, cfg: PipelineConfig) -> PipelineResult:
    report = RunReport(doc_id=doc.doc_id)
    validation = validate_document(doc)
    report.validation = [asdict(v) for v in validation.violations]
    # The idx is an element's only identity: with two elements at one idx,
    # merges and links would reach only one of them.
    for violation in validation.violations:
        if violation.code == "DuplicateIdx":
            raise MalformedInput(f"element {violation.message}")

    predictor = make_predictor(cfg)
    plans = plan_subtasks(doc, cfg)
    for subtask, plan in plans.items():
        report.realized_overlaps[subtask] = plan.realized_overlaps()

    # One page index and one parse of each table serve every chunk.  Every
    # request is built up front so remote calls can be issued concurrently;
    # the rule baseline runs them inline.
    run = _Run(cfg.filters, PageIndex(doc), report)
    jobs: dict[tuple[str, Any], tuple[str, Any]] = {}
    chunk_keys: dict[str, list[tuple[int, list[Any]]]] = {}
    for task in SUBTASKS:
        chunk_keys[task.name] = []
        for chunk, span in enumerate(plans[task.name].chunks):
            keys = []
            for key, request in task.requests(run, chunk, run.index.on_pages(*span)):
                jobs.setdefault((task.name, key), (task.method, request))
                keys.append(key)
            if keys:
                chunk_keys[task.name].append((chunk, keys))

    def predict(job: tuple[str, Any]) -> Any:
        method, request = job
        return getattr(predictor, method)(request)

    workers = cfg.parallelism if cfg.predictor_mode == "remote" else 1
    try:
        results = dict(zip(jobs, thread_map(predict, list(jobs.values()), workers)))
    finally:
        predictor.close()

    chunk_preds: dict[str, list[ChunkPrediction]] = {}
    for task in sorted(SUBTASKS, key=lambda t: t.name):
        chunk_preds[task.name] = []
        for chunk, keys in chunk_keys[task.name]:
            payload = []
            for key in keys:
                out = results[(task.name, key)]
                report.warnings.extend(Flag(f.code, f.detail, task.name, chunk) for f in out.flags)
                payload.extend(task.payload(key, out))
            chunk_preds[task.name].append(ChunkPrediction(chunk, payload))

    sync = synchronize_hierarchy(chunk_preds["hierarchy"])
    text = merge_union(chunk_preds["text"])
    assoc = merge_union(chunk_preds["association"], unique_src=True)
    tables = merge_table_union(chunk_preds["table"])
    predictions = DocumentPredictions(
        dict(sorted(sync.levels.items())), text.pairs, assoc.pairs, tables.judgements
    )
    report.sync = {
        "deviations": sync.deviations,
        "empty_overlaps": sync.empty_overlaps,
        "conflicts": sync.conflicts,
    }
    report.union_conflicts = text.conflicts + assoc.conflicts + tables.conflicts

    resolved = apply_predictions(doc, predictions, run.grids)
    # Nothing below reads the parsed tables, the requests or the raw
    # predictions; freeing them before the tree is built lowers the peak.
    del run, jobs, results

    tree = build_tree(resolved)
    chunk_nodes(tree, cfg.node_chunk_chars)
    extractive = ExtractiveSummarizer(
        max_sentences=cfg.summary_max_sentences,
        cap_chars=cfg.summary_cap_chars,
        rules=cfg.filters.rules,
    )
    if cfg.summarizer_mode == "extractive":
        summarizer: Summarizer = extractive
    else:
        summarizer = RemoteSummarizer(
            cfg.summarizer_url or "", timeout=cfg.backend_timeout, cap_chars=cfg.summary_cap_chars
        )
    try:
        summarize_nodes(tree, summarizer, fallback=extractive)
    finally:
        summarizer.close()
    report.warnings.extend(tree.flags)
    report.warnings.extend(resolved.flags)

    report.counts = {
        "elements": len(doc.elements),
        "titles": len(predictions.hierarchy),
        "text_merges": sum(1 for r in resolved.merge_log.records if r.kind == "text"),
        "table_merges": sum(1 for r in resolved.merge_log.records if r.kind == "table"),
        "links": len(resolved.caption_links) + len(resolved.section_links),
        "nodes": sum(1 for _ in tree.walk()),
        "warnings": len(report.warnings),
    }

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
    grids: TableGrids,
) -> ResolvedDocument:
    """Run the four application steps in their fixed order; ``grids`` holds
    the tables the chunk filters parsed."""
    resolved = ResolvedDocument.from_document(doc)
    apply_mod.merge_text(resolved, predictions.text_pairs)
    apply_mod.merge_tables(resolved, predictions.table_judgements, grids)
    apply_mod.assign_levels(resolved, predictions.hierarchy)
    apply_mod.attach_links(resolved, predictions.assoc_pairs)
    return resolved
