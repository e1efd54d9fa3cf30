"""docstitch: stitch page-level OCR output into document-level trees.

Pipeline stages: normalize raw OCR blocks to a canonical element sequence,
filter task-specific inputs, plan overlapping page chunks, predict the four
structural subtasks (title hierarchy, text truncation, table truncation,
image-text association), synchronize chunk results, apply them back onto
the document, and assemble an enriched hierarchical tree with summaries.

Each public name resolves from its defining module on first use (PEP 562),
so ``import docstitch`` loads no submodule and binds none as an attribute;
import a submodule explicitly (``import docstitch.pipeline``) to reach it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining module -> the public names the package exports from it.
_EXPORTS = {
    "model": ("CanonicalDocument", "CanonicalElement", "CoordUnit", "ElementType",
              "ValidationReport", "validate_document"),
    "ingest": ("normalize_elements", "load_profile", "registered_profiles"),
    "filtering": ("FilterConfig", "filter_titles", "filter_association_candidates",
                  "filter_text_truncation_candidates", "filter_table_truncation_candidates"),
    "chunking": ("ChunkPlan", "ChunkPlanConfig", "ChunkPrediction", "DocumentPredictions",
                 "PageProfile", "compute_boundaries", "build_chunks", "plan_chunks",
                 "synchronize_hierarchy", "merge_union", "merge_table_union"),
    "predictors": ("Predictor", "RulePredictor", "RemotePredictor", "FallbackPredictor",
                   "HierarchyPrediction", "PairPrediction", "CellMergeJudgement"),
    "apply": ("ResolvedDocument", "merge_text", "merge_tables", "assign_levels",
              "attach_links"),
    "tree": ("DocNode", "DocTree", "build_tree", "chunk_nodes", "summarize_nodes",
             "Summarizer", "ExtractiveSummarizer", "RemoteSummarizer"),
    "evaluation": ("LabeledTree", "teds", "tree_edit_distance", "hierarchy_tree", "pair_prf",
                   "merge_accuracy", "bbox_scores", "GoldAnnotations", "EvalReport"),
    "exporters": ("export_json", "export_markdown", "tree_from_json", "write_json"),
    "pipeline": ("PipelineConfig", "PipelineResult", "run_pipeline"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
