from __future__ import annotations

import dataclasses
import json
import re
import threading
import time

import pytest

import docstitch.apply
import docstitch.pipeline
import docstitch.predictors.remote
import docstitch.predictors.rules
import docstitch.tables
from docstitch.apply import check_table_conservation
from docstitch.errors import ConfigError
from docstitch.model import ElementType, validate_document
from docstitch.pipeline import PipelineConfig, run_pipeline
from docstitch.predictors.rules import RulePredictor
from docstitch.tree import NodeKind, RemoteSummarizer, summarize_nodes

from .conftest import load_corpus_doc
from .helpers import stack_elements
from .mock_backend import MockBackend


def test_every_corpus_document_passes_validation(corpus):
    for doc_id, doc in corpus.items():
        assert validate_document(doc).ok, doc_id


def test_corpus_shape_requirements(corpus):
    assert len(corpus) >= 10


def test_gold_annotation_idx_exist_in_their_documents(corpus):
    from .conftest import load_gold

    for doc_id, doc in corpus.items():
        gold = load_gold(doc_id)
        known = {e.idx for e in doc.elements}
        assert set(gold.hierarchy) <= known, doc_id
        assert set(gold.titles) <= known, doc_id
        for a, b in gold.text_pairs + gold.assoc_pairs:
            assert {a, b} <= known, doc_id
        for u, l, _ in gold.table_judgements:
            assert {u, l} <= known, doc_id


def test_assign_levels_clamps_out_of_range_levels():
    from docstitch.apply import ResolvedDocument, assign_levels

    d = stack_elements("t", [("title", "A", 0), ("title", "B", 0)])
    r = ResolvedDocument.from_document(d)
    assign_levels(r, {0: 0, 1: -3})
    assert r.levels == {0: 1, 1: 1}
    assert sum(1 for f in r.flags if f.startswith("LevelClamped")) == 2


def test_pipeline_with_well_behaved_remote_backend():
    doc = stack_elements(
        "remote_doc",
        [
            ("title", "Handbook", 0),        # 0
            ("title", "Overview", 0),        # 1 -> backend demotes to text
            ("text", "Intro paragraph.", 0), # 2
            ("title", "Details", 1),         # 3
            ("text", "More.", 1),            # 4
        ],
    )
    scripts = {
        "title_hierarchy": [
            {"idx": 0, "level": 1},
            {"idx": 1, "level": -1},
            {"idx": 3, "level": 2},
        ],
        "text_truncation": [],
        "association": [],
        "table_truncation": [],
    }
    with MockBackend(scripts) as backend:
        cfg = PipelineConfig(predictor_mode="remote", backend_url=backend.url)
        result = run_pipeline(doc, cfg)
    assert result.predictions.hierarchy == {0: 1, 1: -1, 3: 2}
    assert result.resolved.levels == {0: 1, 3: 2}
    # the demoted title is re-typed as text and lands in a section body
    demoted = result.resolved.by_idx[1]
    assert demoted.etype is ElementType.TEXT
    assert 1 not in result.resolved.levels
    section_ids = [n.node_id for n in result.tree.walk() if n.kind == NodeKind.SECTION]
    assert section_ids == ["sec0", "sec3"]
    body_idx = [e.idx for e in result.tree.node("sec0").body]
    assert body_idx == [1, 2]
    assert result.report.warnings == []


def test_remote_predictions_differ_from_rules_when_backend_says_so():
    doc = stack_elements(
        "remote_doc2",
        [
            ("title", "A", 0),
            ("text", "Unfinished fragment that the rules would merge be", 0),
            ("text", "cause of the lowercase opener.", 1),
        ],
    )
    # backend explicitly declines the pair
    with MockBackend({"title_hierarchy": [{"idx": 0, "level": 1}],
                      "text_truncation": [], "association": []}) as backend:
        cfg = PipelineConfig(predictor_mode="remote", backend_url=backend.url)
        remote_result = run_pipeline(doc, cfg)
    rules_result = run_pipeline(doc, PipelineConfig())
    assert rules_result.predictions.text_pairs == [(1, 2)]
    assert remote_result.predictions.text_pairs == []
    assert len(remote_result.resolved.elements) == 3


def test_remote_summarizer_round_trip():
    doc = stack_elements("s", [("title", "T", 0), ("text", "Body here.", 0)])
    result = run_pipeline(doc, PipelineConfig())
    with MockBackend({"summarize": {"summary": "backend summary"}}) as backend:
        summarize_nodes(result.tree, RemoteSummarizer(backend.url, cap_chars=50))
        assert result.tree.node("sec0").summary == "backend summary"
        body = backend.requests[0]["body"]
        assert set(body) == {"node_id", "title_path", "paragraphs"}


def test_remote_summarizer_failure_falls_back():
    doc = stack_elements("s", [("title", "T", 0), ("text", "Body here.", 0)])
    result = run_pipeline(doc, PipelineConfig())
    summarize_nodes(result.tree, RemoteSummarizer("http://127.0.0.1:9/", timeout=0.2))
    assert result.tree.node("sec0").summary == "Body here."
    assert any(f.startswith("SummarizerFallback") for f in result.tree.flags)


def test_remote_summarizer_non_json_body_falls_back():
    doc = stack_elements("s", [("title", "T", 0), ("text", "Body here.", 0)])
    with MockBackend({"summarize": "garbage"}) as backend:
        cfg = PipelineConfig(summarizer_mode="remote", summarizer_url=backend.url)
        result = run_pipeline(doc, cfg)
    assert result.tree.node("sec0").summary == "Body here."
    assert any(
        w.startswith("SummarizerFallback:sec0:") and "not JSON" in w
        for w in result.report.warnings
    )


def test_remote_summarizer_sends_bearer_token(monkeypatch):
    monkeypatch.setenv("DOCSTITCH_BACKEND_TOKEN", "sekrit")
    doc = stack_elements("s", [("title", "T", 0), ("text", "Body here.", 0)])
    with MockBackend({"summarize": {"summary": "backend summary"}}) as backend:
        cfg = PipelineConfig(summarizer_mode="remote", summarizer_url=backend.url)
        result = run_pipeline(doc, cfg)
        assert backend.requests
        for request in backend.requests:
            assert request["headers"].get("Authorization") == "Bearer sekrit"
    assert result.tree.node("sec0").summary == "backend summary"


def test_parallel_remote_calls_keyed_so_order_never_matters():
    doc = load_corpus_doc("field_manual")
    scripts = {
        "title_hierarchy": "garbage",  # degrade everything to rules
        "text_truncation": "garbage",
        "association": "garbage",
        "table_truncation": "garbage",
    }
    outputs = []
    for workers in (1, 4):
        with MockBackend(scripts) as backend:
            cfg = PipelineConfig(
                predictor_mode="remote", backend_url=backend.url,
                backend_timeout=5.0, parallelism=workers,
            )
            result = run_pipeline(doc, cfg)
            outputs.append(json.dumps(result.predictions.to_dict()))
    assert outputs[0] == outputs[1]


def test_remote_posts_come_from_the_dispatch_threads(monkeypatch, field_manual):
    posting_threads = []  # thread id per POST
    post_json = docstitch.predictors.remote.post_json

    def recording_post_json(*args, **kwargs):
        posting_threads.append(threading.get_ident())
        return post_json(*args, **kwargs)

    def slow_garbage(body):
        time.sleep(0.005)  # keeps every worker busy, so all of them post
        return "garbage"

    monkeypatch.setattr(docstitch.predictors.remote, "post_json", recording_post_json)
    scripts = dict.fromkeys(
        ("title_hierarchy", "text_truncation", "association", "table_truncation"), slow_garbage
    )
    with MockBackend(scripts) as backend:
        cfg = PipelineConfig(
            predictor_mode="remote", backend_url=backend.url, backend_timeout=5.0, parallelism=4
        )
        run_pipeline(field_manual, cfg)
    assert posting_threads
    assert threading.get_ident() not in posting_threads
    assert len(set(posting_threads)) >= 2


def test_warnings_are_ordered_by_subtask_then_chunk():
    tasks = ("title_hierarchy", "text_truncation", "association", "table_truncation")
    warnings = {}
    for doc_id in ("audit_report", "figures_focus"):
        with MockBackend({task: "garbage" for task in tasks}) as backend:
            cfg = PipelineConfig(
                predictor_mode="remote", backend_url=backend.url, stride=2, threshold=0
            )
            warnings[doc_id] = run_pipeline(load_corpus_doc(doc_id), cfg).report.warnings
        tagged = [re.match(r"(\w+)\[(\d+)\]:", w) for w in warnings[doc_id]]
        keys = [(m[1], int(m[2])) for m in tagged if m]
        assert keys == sorted(keys)
    assert {w.split("[")[0] for w in warnings["audit_report"]} == {
        "association", "hierarchy", "table", "text",
    }
    # One table pair, predicted once, replayed into both chunks that saw it.
    assert [w for w in warnings["audit_report"] if w.startswith("table")] == [
        "table[0]:repeated_header", "table[0]:degraded:remote->rules",
        "table[1]:repeated_header", "table[1]:degraded:remote->rules",
    ]
    # An association chunk's flags come before its unresolved entries.
    assert warnings["figures_focus"][:2] == [
        "association[0]:degraded:remote->rules", "association[0]:unresolved:0",
    ]


def test_config_file_round_trip_of_every_knob():
    raw = {
        "profile": "mineru",
        "chunking": {"stride": 6, "threshold": 1},
        "filters": {
            "terminators": [".", "?"],
            "sentence_cap_chars": 120,
            "width_band": [0.8, 1.2],
            "continuation_markers": ["continued"],
            "row_window": 2,
        },
        "predictor": {"mode": "remote", "backend_url": "http://example/", "timeout_s": 3, "parallelism": 2},
        "tree": {
            "node_chunk_chars": 900,
            "summarizer": "extractive",
            "summary_cap_chars": 150,
            "summary_max_sentences": 1,
        },
        "export": {"formats": ["json"]},
        "jobs": 2,
    }
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.profile == "mineru"
    assert (cfg.stride, cfg.threshold) == (6, 1)
    assert cfg.filters.rules.terminators == frozenset({".", "?"})
    assert cfg.filters.rules.sentence_cap_chars == 120
    assert cfg.filters.width_band == (0.8, 1.2)
    assert cfg.filters.row_window == 2
    assert cfg.predictor_mode == "remote" and cfg.backend_url == "http://example/"
    assert cfg.backend_timeout == 3.0 and cfg.parallelism == 2
    assert cfg.node_chunk_chars == 900
    assert cfg.summary_cap_chars == 150 and cfg.summary_max_sentences == 1
    assert cfg.export_formats == ("json",)
    assert cfg.jobs == 2


def test_config_rejects_bad_modes_and_ranges():
    with pytest.raises(ConfigError):
        PipelineConfig(predictor_mode="psychic")
    with pytest.raises(ConfigError):
        PipelineConfig(predictor_mode="remote", backend_url=None)
    with pytest.raises(ConfigError):
        PipelineConfig(node_chunk_chars=0)
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"predictor": {"mode": "rules", "surprise": 1}})
    for timeout in (0, -1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"predictor": {"timeout_s": timeout}})


@pytest.mark.parametrize(
    "raw",
    [
        {"chunking": {"stride": "eight"}},
        {"filters": {"width_band": 5}},
        {"filters": {"width_band": [0.9]}},
        {"filters": {"terminators": "."}},
        {"filters": {"prefix_patterns": ["("]}},
        {"predictor": {"timeout_s": "soon"}},
        {"export": {"formats": "json"}},
        {"profile": 7},
        {"jobs": [2]},
        {"jobs": True},
        {"chunking": {"stride": 2.5}},
        {"chunking": {"threshold": "1"}},
        {"chunking": {"stride": 8.0}},
        {"tree": {"summary_cap_chars": "300"}},
        {"filters": {"row_window": False}},
        {"filters": {"row_window": -1}},
        {"tree": {"summary_max_sentences": -1}},
        {"tree": {"summary_cap_chars": -3}},
        {"filters": {"sentence_cap_chars": -1}},
        {"predictor": {"timeout_s": True}},
        {"predictor": {"timeout_s": "1e1"}},
        {"filters": {"width_band": ["0.5", 1.0]}},
        {"filters": {"width_band": [0.5, True]}},
    ],
)
def test_config_rejects_wrong_typed_values(raw):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(raw)


def test_config_is_frozen():
    cfg = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.stride = 4  # type: ignore[misc]


def test_config_defaults_come_from_the_dataclasses():
    assert PipelineConfig.from_dict({}) == PipelineConfig()
    assert PipelineConfig.from_dict({"chunking": {}, "filters": {}}) == PipelineConfig()
    assert PipelineConfig.from_dict({"predictor": {"backend_url": None}}) == PipelineConfig()


def test_run_report_is_json_serializable_and_counts_consistent(corpus):
    for doc in corpus.values():
        result = run_pipeline(doc, PipelineConfig())
        blob = json.dumps(result.report.to_dict())
        assert json.loads(blob)["counts"]["warnings"] == len(result.report.warnings)


# -- duplicate work -------------------------------------------------------


def _count_calls(monkeypatch, owner, name: str, calls: list) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _table_candidates_per_chunk(monkeypatch) -> list:
    seen: list = []
    original = docstitch.pipeline.filter_table_truncation_candidates

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.extend((c.upper_idx, c.lower_idx) for c in result.candidates)
        return result

    monkeypatch.setattr(docstitch.pipeline, "filter_table_truncation_candidates", recording)
    return seen


def test_each_table_pair_predicted_once(monkeypatch, field_manual):
    seen = _table_candidates_per_chunk(monkeypatch)
    calls: list = []
    _count_calls(monkeypatch, RulePredictor, "predict_table_truncation", calls)
    result = run_pipeline(field_manual, PipelineConfig())
    distinct = sorted(set(seen))
    # overlapping chunks see the pair more than once ...
    assert distinct and len(seen) > len(distinct)
    # ... but it is predicted once
    assert sorted((req.upper_idx, req.lower_idx) for _, req in calls) == distinct
    assert [(u, l) for u, l, _ in result.predictions.table_judgements] == distinct


def test_each_table_pair_posted_once_in_remote_mode(monkeypatch, field_manual):
    seen = _table_candidates_per_chunk(monkeypatch)
    scripts = {
        "title_hierarchy": "garbage",
        "text_truncation": [],
        "association": [],
        "table_truncation": [],
    }
    with MockBackend(scripts) as backend:
        cfg = PipelineConfig(
            predictor_mode="remote", backend_url=backend.url, backend_timeout=5.0, parallelism=4
        )
        result = run_pipeline(field_manual, cfg)
        posted = [r["body"] for r in backend.requests if r["body"]["task"] == "table_truncation"]
    assert len(seen) > len(set(seen))
    assert len(posted) == len(set(seen))
    # the judgement is still recorded for every chunk that saw the pair
    assert len(result.predictions.table_judgements) == len(set(seen))


def test_parse_table_runs_at_most_once_per_table(monkeypatch, corpus):
    calls: list = []
    for module in (docstitch.tables, docstitch.apply, docstitch.predictors.rules):
        _count_calls(monkeypatch, module, "parse_table", calls)
    for doc_id, doc in corpus.items():
        calls.clear()
        result = run_pipeline(doc, PipelineConfig())
        tables = [e for e in doc.elements if e.etype is ElementType.TABLE]
        assert len(calls) <= len(tables), doc_id
        # only a table's own HTML is parsed, never a row window
        parsed = [args[0] for args in calls]
        assert set(parsed) <= {t.table_html for t in tables}, doc_id
        for t in tables:
            assert parsed.count(t.table_html) <= 1, (doc_id, t.idx)
        if doc_id == "tables_galore":
            assert result.report.counts["table_merges"] > 0


def test_zero_row_window_flags_each_pair_and_merges_nothing():
    # row_window 0 gives empty windows: no row to judge, so the pair is flagged.
    doc = load_corpus_doc("tables_galore")
    result = run_pipeline(doc, PipelineConfig.from_dict({"filters": {"row_window": 0}}))
    assert result.report.warnings == ["table[0]:unparseable_rows"] * 2
    assert result.report.counts["table_merges"] == 0


def test_chained_table_pair_follows_its_absorbed_upper():
    html = "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>"
    doc = stack_elements(
        "chain", [("table", "", p, {"table_html": html}) for p in range(3)]
    )
    result = run_pipeline(doc, PipelineConfig())
    assert [(u, l) for u, l, _ in result.predictions.table_judgements] == [(0, 1), (1, 2)]
    assert [e.idx for e in result.resolved.elements] == [0]
    assert result.resolved.merge_log.remap == {1: 0, 2: 0}
    assert not any(w.startswith("TableMergeSkipped") for w in result.report.warnings)
    assert result.report.counts["table_merges"] == 2
    assert check_table_conservation(doc, result.resolved) == []
    [table] = [n for n in result.tree.walk() if n.kind == NodeKind.VISUAL]
    assert [page for page, _ in table.bboxes] == [0, 1, 2]
