"""docstitch: stitch page-level OCR output into document-level trees.

Pipeline stages: normalize raw OCR blocks to a canonical element sequence,
filter task-specific inputs, plan overlapping page chunks, predict the four
structural subtasks (title hierarchy, text truncation, table truncation,
image-text association), synchronize chunk results, apply them back onto
the document, and assemble an enriched hierarchical tree with summaries.
"""

from .model import (
    CanonicalDocument,
    CanonicalElement,
    CoordUnit,
    ElementType,
    ValidationReport,
    validate_document,
)
from .ingest import normalize_elements, load_profile, registered_profiles
from .filtering import (
    FilterConfig,
    filter_association_candidates,
    filter_table_truncation_candidates,
    filter_text_truncation_candidates,
    filter_titles,
)
from .chunking import (
    ChunkPlan,
    ChunkPlanConfig,
    ChunkPrediction,
    PageProfile,
    build_chunks,
    compute_boundaries,
    merge_table_union,
    merge_union,
    plan_chunks,
    synchronize_hierarchy,
)
from .predictors import (
    CellMergeJudgement,
    FallbackPredictor,
    HierarchyPrediction,
    PairPrediction,
    Predictor,
    RemotePredictor,
    RulePredictor,
)
from .apply import (
    ResolvedDocument,
    assign_levels,
    attach_links,
    merge_tables,
    merge_text,
)
from .tree import (
    DocNode,
    DocTree,
    ExtractiveSummarizer,
    RemoteSummarizer,
    Summarizer,
    build_tree,
    chunk_nodes,
    summarize_nodes,
)
from .exporters import export_json, export_markdown, tree_from_json
from .pipeline import DocumentPredictions, PipelineConfig, PipelineResult, run_pipeline

__version__ = "0.1.0"

# The evaluation code is loaded on first use of one of its names (PEP 562),
# so that importing the package or running the pipeline does not load it.
_EVALUATION_NAMES = frozenset({
    "EvalReport",
    "GoldAnnotations",
    "LabeledTree",
    "bbox_scores",
    "hierarchy_tree",
    "merge_accuracy",
    "pair_prf",
    "teds",
    "tree_edit_distance",
})


def __getattr__(name: str):
    if name in _EVALUATION_NAMES:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EVALUATION_NAMES)

__all__ = [
    "CanonicalDocument",
    "CanonicalElement",
    "CoordUnit",
    "ElementType",
    "ValidationReport",
    "validate_document",
    "normalize_elements",
    "load_profile",
    "registered_profiles",
    "FilterConfig",
    "filter_titles",
    "filter_association_candidates",
    "filter_text_truncation_candidates",
    "filter_table_truncation_candidates",
    "ChunkPlan",
    "ChunkPlanConfig",
    "ChunkPrediction",
    "PageProfile",
    "compute_boundaries",
    "build_chunks",
    "plan_chunks",
    "synchronize_hierarchy",
    "merge_union",
    "merge_table_union",
    "Predictor",
    "RulePredictor",
    "RemotePredictor",
    "FallbackPredictor",
    "HierarchyPrediction",
    "PairPrediction",
    "CellMergeJudgement",
    "ResolvedDocument",
    "merge_text",
    "merge_tables",
    "assign_levels",
    "attach_links",
    "DocNode",
    "DocTree",
    "build_tree",
    "chunk_nodes",
    "summarize_nodes",
    "Summarizer",
    "ExtractiveSummarizer",
    "RemoteSummarizer",
    "LabeledTree",
    "teds",
    "tree_edit_distance",
    "hierarchy_tree",
    "pair_prf",
    "merge_accuracy",
    "bbox_scores",
    "GoldAnnotations",
    "EvalReport",
    "export_json",
    "export_markdown",
    "tree_from_json",
    "PipelineConfig",
    "PipelineResult",
    "DocumentPredictions",
    "run_pipeline",
]
