from __future__ import annotations

import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Iterable
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import docstitch.cli
import docstitch.exporters
from docstitch import errors
from docstitch.cli import _process_one, main
from docstitch.exporters import export_json
from docstitch.model import CanonicalDocument, ElementType, doc_id_of
from docstitch.pipeline import PipelineConfig, run_pipeline
from docstitch.predictors.remote import RemotePredictor

from .conftest import CORPUS_DIR, CORPUS_IDS, GOLD_DIR, GOLDEN_DIR
from .mock_backend import MockBackend, Seq
from .oracles import tree_to_dict

RAW = Path(__file__).parent / "fixtures" / "raw"
SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(*argv) -> int:
    return main(list(argv))


def run_python(code: str, *argv) -> subprocess.CompletedProcess:
    """``code`` with ``argv`` in a fresh interpreter that imports docstitch
    from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def run_cli_process(*argv, prelude: str = "") -> subprocess.CompletedProcess:
    """``docstitch.cli.main(argv)`` in a fresh interpreter that runs
    ``prelude`` first."""
    code = f"import sys\n{prelude}\nfrom docstitch.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return run_python(code, *argv)


def answering_backend(**overrides) -> MockBackend:
    """A backend that gives every title level 1 and finds no pairs."""
    scripts = {
        "title_hierarchy": lambda body: [{"idx": b["idx"], "level": 1} for b in body["blocks"]],
        "text_truncation": [],
        "association": [],
        "table_truncation": [],
    }
    return MockBackend({**scripts, **overrides})


def test_normalize_writes_canonical_json(tmp_path, capsys):
    out = tmp_path / "canon.json"
    report = tmp_path / "report.json"
    code = run_cli(
        "normalize", str(RAW / "mineru_blocks.json"),
        "--profile", "mineru", "--out", str(out), "--report", str(report),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["source_schema"] == "mineru"
    assert len(doc["elements"]) == 12
    rep = json.loads(report.read_text())
    assert rep["validation"]["ok"] is True


def test_normalize_unknown_profile_fails_cleanly(capsys):
    code = run_cli("normalize", str(RAW / "mineru_blocks.json"), "--profile", "bogus")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "ingest.SchemaUnknown"


CUSTOM_PROFILE = {
    "name": "custom",
    "fields": {"type": "t", "content": "c", "page": "p", "bbox": "b"},
    "label_map": {"body": "text"},
}


@pytest.mark.parametrize(
    "content, code, status",
    [
        ({k: v for k, v in CUSTOM_PROFILE.items() if k != "name"}, "ingest.MalformedInput", 3),
        ({**CUSTOM_PROFILE, "fields": ["t", "c", "p", "b"]}, "ingest.MalformedInput", 3),
        (
            {**CUSTOM_PROFILE, "fields": {**CUSTOM_PROFILE["fields"], "type": [["t"]]}},
            "ingest.MalformedInput", 3,
        ),
        ({**CUSTOM_PROFILE, "label_map": {"body": "paragraph"}}, "ingest.MalformedInput", 3),
        ({**CUSTOM_PROFILE, "drop_labels": "text"}, "ingest.MalformedInput", 3),
        ("{not json", "eval.SchemaMismatch", 3),
        (None, "cli.ConfigNotFound", 2),
    ],
    ids=["no-name", "fields-a-list", "mapping-nested", "unknown-type", "drop-labels-a-string",
         "not-json", "a-directory"],
)
def test_normalize_malformed_profile_file_fails_cleanly(tmp_path, capsys, content, code, status):
    profile = tmp_path / "custom.json"
    if content is None:
        profile.mkdir()
    else:
        profile.write_text(content if isinstance(content, str) else json.dumps(content))
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps([
        {"t": "body", "c": "hi", "p": 0, "b": [0, 0, 1, 1]},
        {"t": "text", "c": "there", "p": 0, "b": [0, 2, 1, 3]},
    ]))
    assert run_cli("normalize", str(raw), "--profile", str(profile)) == status
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == code


def test_readme_error_table_lists_every_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Error codes", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    listed = {code.strip().strip("`"): exit_.strip() for code, _, exit_ in rows}

    def codes(cls: type) -> list[type]:
        return [cls] + [sub for child in cls.__subclasses__() for sub in codes(child)]

    classes = codes(errors.DocstitchError)
    assert sorted(listed) == sorted(cls.code for cls in classes)
    for cls in classes:  # config errors exit 2, input errors 3
        if listed[cls.code] != "none":
            assert listed[cls.code] == ("2" if issubclass(cls, errors.ConfigError) else "3"), cls.code


def test_process_reproduces_pinned_goldens(tmp_path):
    code = run_cli(
        "process", str(CORPUS_DIR / "field_manual.json"),
        "--out-dir", str(tmp_path), "--format", "both",
    )
    assert code == 0
    got_tree = (tmp_path / "field_manual.tree.json").read_bytes()
    got_md = (tmp_path / "field_manual.md").read_bytes()
    assert got_tree == (GOLDEN_DIR / "field_manual.tree.json").read_bytes()
    assert got_md == (GOLDEN_DIR / "field_manual.md").read_bytes()
    for suffix in ("merge_log.json", "chunks.json", "predictions.json", "report.json"):
        assert (tmp_path / f"field_manual.{suffix}").exists()


def test_failed_artifact_write_keeps_previous_files(tmp_path, monkeypatch):
    args = ("process", str(CORPUS_DIR / "field_manual.json"), "--out-dir", str(tmp_path))
    assert run_cli(*args) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # A lone surrogate cannot be encoded as UTF-8, so writing the Markdown
    # artifact fails after its file was opened.
    monkeypatch.setattr(docstitch.cli, "export_markdown", lambda tree: "# partial\n\ud800")
    with pytest.raises(UnicodeEncodeError):
        run_cli(*args)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def generated_report(tmp_path: Path, monkeypatch, pages: int) -> Path:
    """A perfbench report of ``pages`` pages, saved as a canonical document."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    path = tmp_path / f"report{pages}.json"
    path.write_text(json.dumps(gen.make_report(random.Random(f"report:{pages}"), path.stem, pages)))
    return path


def test_streamed_tree_artifact_is_the_exported_text(tmp_path, monkeypatch):
    # DOC.tree.json reaches its file in pieces, several for the 120-page
    # report; the file is still byte for byte export_json's text and the
    # stdlib text of the oracle's dict.
    inputs = [CORPUS_DIR / f"{doc_id}.json" for doc_id in CORPUS_IDS]
    inputs.append(generated_report(tmp_path, monkeypatch, 120))
    out = tmp_path / "out"
    assert run_cli("process", *map(str, inputs), "--out-dir", str(out)) == 0
    for path in inputs:
        doc = CanonicalDocument.from_json(path.read_text())
        tree = run_pipeline(doc, PipelineConfig()).tree
        text = export_json(tree)
        assert text == json.dumps(tree_to_dict(tree), ensure_ascii=False, indent=2) + "\n"
        assert (out / f"{doc.doc_id}.tree.json").read_bytes() == text.encode(), doc.doc_id


def test_tree_artifact_write_holds_under_half_its_size(tmp_path, monkeypatch):
    # Writing DOC.tree.json used to hold its whole text twice (the str and
    # its UTF-8 bytes); streamed, its traced peak is a few pieces.
    report = generated_report(tmp_path, monkeypatch, 600)
    peaks = []
    write_json = docstitch.cli.write_json

    def traced(tree, fp):
        tracemalloc.start()
        try:
            write_json(tree, fp)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(docstitch.cli, "write_json", traced)
    assert run_cli("process", str(report), "--format", "json", "--out-dir", str(tmp_path)) == 0
    size = (tmp_path / "report600.tree.json").stat().st_size
    assert size > 2_000_000
    assert len(peaks) == 1 and peaks[0] < size / 2, (peaks, size)


def test_failed_streamed_tree_write_keeps_previous_file(tmp_path, monkeypatch):
    # The streamed counterpart of the test above: the tree's text fails
    # after its first piece has reached the temporary file.
    args = ("process", str(CORPUS_DIR / "field_manual.json"), "--out-dir", str(tmp_path))
    assert run_cli(*args) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(docstitch.exporters, "_PIECE_PARTS", 4)
    written = []
    write_json = docstitch.cli.write_json

    class FullAfterOnePiece:
        def __init__(self, fp):
            self.fp = fp

        def write(self, piece):
            if written:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(self.fp.write(piece))
            self.fp.flush()  # the first piece is in the temporary file

    monkeypatch.setattr(
        docstitch.cli, "write_json", lambda tree, fp: write_json(tree, FullAfterOnePiece(fp))
    )
    with pytest.raises(OSError, match="No space"):
        run_cli(*args)
    assert written
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_process_accepts_raw_input_with_profile(tmp_path):
    code = run_cli(
        "process", str(RAW / "mineru_blocks.json"),
        "--profile", "mineru", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "mineru_blocks.tree.json").exists()


def test_process_is_bit_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(
            "process", str(CORPUS_DIR / "long_appendix.json"), "--out-dir", str(out)
        ) == 0
    for name in ("long_appendix.tree.json", "long_appendix.md", "long_appendix.report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_process_missing_config_file(tmp_path, capsys):
    # A missing config, a directory as config and a directory as input all
    # exit 2 with a message naming the path.
    folder = tmp_path / "d.json"
    folder.mkdir()
    memo = str(CORPUS_DIR / "memo_single.json")
    absent = tmp_path / "absent.json"
    for argv, path in (
        ([memo, "--config", str(absent)], absent),
        ([memo, "--config", str(folder)], folder),
        ([str(folder)], folder),
    ):
        code = run_cli("process", *argv, "--out-dir", str(tmp_path / "out"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli.ConfigNotFound"
        assert str(path) in err["error"]["message"]


def test_process_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chunking": {"stride": 6}, "mystery": 1}))
    code = run_cli(
        "process", str(CORPUS_DIR / "memo_single.json"),
        "--config", str(cfg), "--out-dir", str(tmp_path),
    )
    assert code == 2


def test_process_wrong_typed_config_values_exit_2(tmp_path, capsys):
    for raw in (
        {"chunking": {"stride": "eight"}},
        {"filters": {"width_band": 5}},
        {"chunking": {"stride": 2.5, "threshold": "1"}},
        {"predictor": {"timeout_s": True}},
        {"predictor": {"timeout_s": 10**400}},
        {"filters": {"width_band": ["0.5", True]}},
        {"filters": {"row_window": -1}},
        {"tree": {"summary_max_sentences": -1}},
        {"tree": {"summary_cap_chars": -3}},
        {"filters": {"sentence_cap_chars": -1}},
        {"predictor": {"mode": "remote", "backend_url": "http://127.0.0.1:9/", "timeout_s": 0}},
        {"predictor": {"mode": "remote", "backend_url": "http://127.0.0.1:9/", "timeout_s": -1}},
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = run_cli(
            "process", str(CORPUS_DIR / "memo_single.json"),
            "--config", str(cfg), "--out-dir", str(tmp_path),
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli.ConfigError"


def test_process_malformed_canonical_document_exits_3(tmp_path, capsys):
    element = {"idx": 0, "content": "x", "page": 0, "bbox": [0, 0, 1, 1]}
    typed = {**element, "type": "table"}
    block = {"type": "text", "text": "x", "page_idx": 0, "bbox": [0, 0, 1, 1]}
    cases = [
        ({"doc_id": "d", "page_count": 1, "elements": [bad]}, "element #0 ")
        for bad in (
            element,
            {**typed, "type": "bogus"},
            {**typed, "page": "p"},
            {**typed, "content": 7},
            {**typed, "table_html": 5},
            {**typed, "idx": float("inf")},
            {**typed, "page": float("inf")},
            {**typed, "bbox": [0, 0]},
        )
    ] + [
        ({"doc_id": "d", "page_count": count, "elements": [typed]}, "document ")
        for count in (float("inf"), 0, -3, 2**70)  # 2**70: past the page bound
    ] + [
        # Raw MinerU blocks: a bad page, coordinate unit or page count.
        ([{**block, "page_idx": "one"}], "block #0 has a bad page field"),
        ([{**block, "page_idx": float("inf")}], "block #0 has a bad page field"),
        ({"blocks": [block], "coord_unit": "inches"}, "document has a bad coord_unit"),
        ({"blocks": [block], "page_count": "x"}, "document has a bad page_count"),
        ({"blocks": [block], "page_count": float("inf")}, "document has a bad page_count"),
        ({"blocks": [block], "page_count": 0}, "document has a bad page_count"),
        ([{**block, "page_idx": -2}], "document has a bad page_count"),
        # 2**70 lies outside the JSON integer range, so the block refuses it.
        ([{**block, "page_idx": 2**70}], "block #0 has a bad page field"),
    ]
    coded = [(raw, where, "ingest.MalformedInput") for raw, where in cases] + [
        ([{**block, "bbox": 5}], "block #0 has invalid bbox", "ingest.BBoxInvalid"),
    ]
    for raw, where, error in coded:
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(raw))
        code = run_cli("process", str(doc), "--profile", "mineru", "--out-dir", str(tmp_path / "out"))
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == error
        assert err["error"]["message"].startswith(where)


ALPHA = {"idx": 1, "type": "text", "content": "Alpha.", "page": 0, "bbox": [0, 0, 10, 10]}
BETA = {**ALPHA, "idx": 2, "content": "Beta.", "bbox": [0, 20, 10, 30]}
MINERU = {"type": "text", "text": "Alpha.", "page_idx": 0, "bbox": [0, 0, 10, 10]}


def _canonical(*elements: dict, **fields) -> dict:
    return {"doc_id": "d", "page_count": 1, "elements": list(elements), **fields}


# Each value has the wrong JSON type or range; the reader refuses it, as
# converting it (1.2 to 1, "0" to 0, true to 1, 7 to "7", null to "None",
# 0 to "") would rewrite the document.
@pytest.mark.parametrize(
    "raw, code",
    [
        (_canonical({**ALPHA, "idx": 1.2}, {**BETA, "idx": 1.7}), "ingest.MalformedInput"),
        (_canonical({**ALPHA, "bbox": ["0", "0", "NaN", "10"]}), "ingest.MalformedInput"),
        (_canonical({**ALPHA, "idx": True}), "ingest.MalformedInput"),
        (_canonical({**ALPHA, "page": "0"}), "ingest.MalformedInput"),
        (_canonical(ALPHA, page_count="1"), "ingest.MalformedInput"),
        (_canonical(ALPHA, doc_id=7), "ingest.MalformedInput"),
        (_canonical(ALPHA, doc_id=None), "ingest.MalformedInput"),
        (_canonical({**ALPHA, "content": 0}), "ingest.MalformedInput"),
        ({"doc_id": 7, "blocks": [MINERU]}, "ingest.MalformedInput"),
        ([{**MINERU, "text": 5}], "ingest.MalformedInput"),
        ([{**MINERU, "type": 5}], "ingest.MalformedInput"),
        ([{**MINERU, "page_idx": True}], "ingest.MalformedInput"),
        ([{**MINERU, "bbox": ["0", "0", "1", "1"]}], "ingest.BBoxInvalid"),
    ],
    ids=[
        "idx-fractions", "bbox-strings", "idx-bool", "page-string", "page-count-string",
        "doc-id-number", "doc-id-null", "content-zero", "raw-doc-id-number",
        "raw-content-number", "raw-label-number", "raw-page-bool", "raw-bbox-strings",
    ],
)
def test_process_takes_document_values_as_they_are(tmp_path, capsys, raw, code):
    doc, out = tmp_path / "doc.json", tmp_path / "out"
    doc.write_text(json.dumps(raw))
    assert run_cli("process", str(doc), "--profile", "mineru", "--out-dir", str(out)) == 3
    assert json.loads(capsys.readouterr().err)["error"]["code"] == code
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "raw",
    [
        {"chunking": {"stride": 2**53}},
        {"jobs": 2**53},
        {"profile": "\ud800"},
        {"predictor": {"backend_url": "http://\ud800/"}},
    ],
    ids=["stride-past-2-53", "jobs-past-2-53", "profile-surrogate", "url-surrogate"],
)
def test_process_config_values_outside_json_types_exit_2(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = run_cli(
        "process", str(CORPUS_DIR / "memo_single.json"), "--config", str(cfg),
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "cli.ConfigError"


@pytest.mark.parametrize(
    "summary", ["bad \ud800", None, 5, ["a"]], ids=["surrogate", "null", "number", "list"]
)
def test_process_surrogate_summary_falls_back(tmp_path, summary):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    with MockBackend({"summarize": {"summary": summary}}) as backend:
        cfg.write_text(json.dumps({"tree": {"summarizer": "remote", "summarizer_url": backend.url}}))
        code = run_cli(
            "process", str(CORPUS_DIR / "memo_single.json"), "--config", str(cfg),
            "--out-dir", str(out),
        )
    assert code == 0
    suffixes = ("tree.json", "md", "merge_log.json", "chunks.json", "predictions.json", "report.json")
    assert sorted(p.name for p in out.iterdir()) == sorted(f"memo_single.{s}" for s in suffixes)
    report = json.loads((out / "memo_single.report.json").read_text())
    flags = [w for w in report["warnings"] if w.startswith("SummarizerFallback:")]
    assert flags
    assert all("summarizer response has a bad summary field" in f for f in flags)


@pytest.mark.parametrize("kind", ["canonical", "mineru"])
def test_process_lone_surrogate_exits_3(tmp_path, capsys, kind):
    # json.loads accepts the escape "\ud800", but UTF-8 cannot encode it.
    text, bbox = "bad \ud800 text.", [0, 0, 1, 1]
    if kind == "canonical":
        element = {"idx": 0, "type": "text", "content": text, "page": 0, "bbox": bbox}
        raw, where = {"doc_id": "d", "page_count": 1, "elements": [element]}, "element #0 "
    else:
        raw, where = [{"type": "text", "text": text, "page_idx": 0, "bbox": bbox}], "block #0 "
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = run_cli("process", str(doc), "--profile", "mineru", "--out-dir", str(out))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "ingest.MalformedInput"
    assert err["error"]["message"].startswith(where)
    assert list(out.iterdir()) == []  # no artifact is written


def test_process_lone_surrogate_in_dropped_block_is_ignored(tmp_path):
    # A discarded block's text reaches no artifact, so it is not checked.
    bbox = [0, 0, 1, 1]
    raw = [
        {"type": "discarded", "text": "bad \ud800 footer", "page_idx": 0, "bbox": bbox},
        {"type": "text", "text": "Body text.", "page_idx": 0, "bbox": bbox},
    ]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("process", str(doc), "--profile", "mineru", "--out-dir", str(out)) == 0


def test_process_remote_unreachable_degrades_to_rules(tmp_path):
    code = run_cli(
        "process", str(CORPUS_DIR / "memo_single.json"),
        "--predictor", "remote", "--backend-url", "http://127.0.0.1:9/",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "memo_single.report.json").read_text())
    assert report["counts"]["warnings"] > 0
    # output equals the rules-mode golden despite the dead backend
    got = (tmp_path / "memo_single.tree.json").read_bytes()
    assert got == (GOLDEN_DIR / "memo_single.tree.json").read_bytes()


def degraded_warnings(out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "memo_single.report.json").read_text())
    return [w for w in report["warnings"] if w.endswith(":degraded:remote->rules")]


def _conflicts(key: str, rows: list[tuple]) -> list[dict]:
    return [{key: k, "kept": kept, "discarded": lost, "chunk": c} for k, kept, lost, c in rows]


def test_process_reports_every_chunk_conflict(tmp_path):
    # Chunks two pages apart overlap widely, and these scripts disagree with
    # themselves across chunks: a visual links to whichever title leads its
    # chunk, and title levels alternate on a scale set by the chunk's size.
    def first_title(body):
        titles = [b["idx"] for b in body["blocks"] if b["type"] == "title"]
        return [
            {"src": b["idx"], "tgt": titles[0]}
            for b in body["blocks"] if b["type"] in ("image", "table") and titles
        ]

    def alternating(body):
        n = len(body["blocks"])
        return [{"idx": b["idx"], "level": 1 + (i % 2) * n} for i, b in enumerate(body["blocks"])]

    cfg = tmp_path / "cfg.json"
    with answering_backend(association=first_title, title_hierarchy=alternating) as backend:
        cfg.write_text(json.dumps({
            "chunking": {"stride": 2, "threshold": 1},
            "predictor": {"mode": "remote", "backend_url": backend.url, "parallelism": 1},
        }))
        code = run_cli(
            "process", str(CORPUS_DIR / "field_manual.json"),
            "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
        )
    assert code == 0
    report = json.loads((tmp_path / "out" / "field_manual.report.json").read_text())
    assert report["union_conflicts"] == _conflicts("src", [
        (17, 1, 6, 1), (33, 6, 23, 2), (35, 6, 23, 2), (39, 6, 23, 2),
        (33, 6, 28, 3), (35, 6, 28, 3), (39, 6, 28, 3),
    ])
    # Levels are recorded as calibrated, before the final clamp to >= 1.
    assert report["sync"] == {
        "deviations": [0, -1, -3, -2, 10],
        "empty_overlaps": [],
        "conflicts": _conflicts("idx", [
            (1, 1, 0, 1), (2, 10, 11, 1), (4, 1, 0, 1), (6, 10, 11, 1), (8, 1, 0, 1),
            (11, 10, 11, 1), (12, 1, 0, 1), (14, 10, 11, 1), (16, 1, 0, 1),
            (6, 10, -2, 2), (8, 1, 13, 2), (11, 10, -2, 2), (12, 1, 13, 2), (14, 10, -2, 2),
            (16, 1, 13, 2), (19, 11, -2, 2), (21, 0, 13, 2),
            (23, -2, -1, 3), (26, 13, 11, 3), (28, -2, -1, 3), (30, 13, 11, 3),
            (31, -2, -1, 3), (36, 13, 11, 3), (38, -2, -1, 3),
            (43, -1, 16, 4), (46, -1, 16, 4),
        ]),
    }
    assert {tuple(c) for c in report["union_conflicts"]} == {("src", "kept", "discarded", "chunk")}
    assert {tuple(c) for c in report["sync"]["conflicts"]} == {("idx", "kept", "discarded", "chunk")}


def test_process_bool_and_float_judgement_entries_are_flagged(tmp_path):
    # true == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1.
    with answering_backend(table_truncation=[{"judgement": [True, 1.0]}]) as backend:
        code = run_cli(
            "process", str(CORPUS_DIR / "tables_galore.json"), "--predictor", "remote",
            "--backend-url", backend.url, "--out-dir", str(tmp_path),
        )
    assert code == 0
    asked = sum(1 for r in backend.requests if r["body"]["task"] == "table_truncation")
    report = json.loads((tmp_path / "tables_galore.report.json").read_text())
    flags = [w for w in report["warnings"] if ":judgement_invalid:" in w]
    assert asked and len(flags) == asked
    assert all(f.endswith(":judgement_invalid:judgement entries must be 0/1, got [True, 1.0]")
               for f in flags)
    predictions = json.loads((tmp_path / "tables_galore.predictions.json").read_text())
    assert all(j["judgement"] == [] for j in predictions["table_judgements"])


def test_process_remote_needs_nothing_outside_the_standard_library(tmp_path):
    with answering_backend() as backend:
        proc = run_cli_process(
            "process", str(CORPUS_DIR / "memo_single.json"),
            "--predictor", "remote", "--backend-url", backend.url, "--out-dir", str(tmp_path),
            prelude="sys.modules['requests'] = None  # any import of requests now fails",
        )
    assert proc.returncode == 0, proc.stderr
    assert backend.requests
    assert degraded_warnings(tmp_path) == []


def test_rules_mode_process_loads_no_transport_pool_or_evaluation(tmp_path):
    # Counted from before the import, so modules the interpreter's site
    # set-up loads do not count.  One input with --jobs 4 builds no pool.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import docstitch.cli\n"
        "imported = set(sys.modules) - before\n"
        "status = docstitch.cli.main(sys.argv[1:])\n"
        "print(json.dumps([status, sorted(imported), sorted(set(sys.modules) - before)]))\n"
    )
    proc = run_python(
        code, "process", str(CORPUS_DIR / "memo_single.json"), "--jobs", "4", "--out-dir", str(tmp_path)
    )
    status, imported, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0, proc.stderr
    assert "docstitch.cli" in imported
    unused = {"http.client", "urllib.request", "urllib.error", "ssl", "socket", "email",
              "concurrent.futures", "docstitch.evaluation"}
    assert unused.isdisjoint(imported)
    assert unused.isdisjoint(after_run)


def test_package_exports_resolve_on_first_use():
    namespace: dict = {}
    exec("from docstitch import *", namespace)
    assert set(docstitch.__all__) <= set(namespace)
    assert namespace["teds"] is docstitch.teds
    assert docstitch.GoldAnnotations.__module__ == "docstitch.evaluation"
    assert {"teds", "GoldAnnotations", "run_pipeline"} <= set(dir(docstitch))
    with pytest.raises(AttributeError, match="no_such_name"):
        docstitch.no_such_name


def test_bare_import_loads_and_binds_no_submodule():
    code = (
        "import json, sys\n"
        "import docstitch\n"
        "unknown = hasattr(docstitch, 'no_such_name')\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('docstitch')),\n"
        "                  hasattr(docstitch, 'pipeline'), unknown]))\n"
    )
    proc = run_python(code)
    assert json.loads(proc.stdout.splitlines()[-1]) == [["docstitch"], False, False], proc.stderr


def test_every_export_is_the_object_its_defining_module_holds():
    # Fresh interpreter: a name mistyped in the export table fails only here,
    # on first use.
    code = (
        "import json, sys\n"
        "import docstitch\n"
        "wrong = [n for n in docstitch.__all__\n"
        "         if getattr(sys.modules[getattr(docstitch, n).__module__], n) is not getattr(docstitch, n)]\n"
        "print(json.dumps([wrong, len(docstitch.__all__), len(set(docstitch.__all__))]))\n"
    )
    proc = run_python(code)
    wrong, n_names, n_distinct = json.loads(proc.stdout.splitlines()[-1])
    assert wrong == [] and n_names == n_distinct == 61, proc.stderr


def test_process_malformed_backend_url_degrades(tmp_path):
    proc = run_cli_process(
        "process", str(CORPUS_DIR / "memo_single.json"),
        "--predictor", "remote", "--backend-url", "not-a-url", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert degraded_warnings(tmp_path) == [
        "association[0]:degraded:remote->rules", "hierarchy[0]:degraded:remote->rules",
    ]


def test_process_nan_bbox_degrades_only_its_request():
    # The readers refuse a NaN coordinate, but a document built in memory
    # can hold one; json.dumps(allow_nan=False) refuses to encode it.
    doc = CanonicalDocument.from_json((CORPUS_DIR / "memo_single.json").read_text())
    pos = next(i for i, e in enumerate(doc.elements) if e.etype is ElementType.IMAGE_CAPTION)
    doc.elements[pos] = replace(doc.elements[pos], bbox=(float("nan"), 0.0, 100.0, 100.0))
    with answering_backend() as backend:
        cfg = PipelineConfig(predictor_mode="remote", backend_url=backend.url)
        result = run_pipeline(doc, cfg)
    degraded = [w for w in result.report.warnings if w.endswith(":degraded:remote->rules")]
    assert degraded == ["association[0]:degraded:remote->rules"]
    assert [r["body"]["task"] for r in backend.requests] == ["title_hierarchy"]


def test_process_backend_slower_than_timeout_degrades(tmp_path):
    released = threading.Event()

    def slow(body):
        released.wait(30)  # answers only once the client has given up
        return []

    # One dispatch thread posts the subtasks in order, so the title request
    # is answered before the single-threaded mock blocks on association.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"predictor": {"timeout_s": 1.0, "parallelism": 1}}))
    with answering_backend(association=slow) as backend:
        try:
            proc = run_cli_process(
                "process", str(CORPUS_DIR / "memo_single.json"), "--config", str(cfg),
                "--predictor", "remote", "--backend-url", backend.url, "--out-dir", str(tmp_path),
            )
        finally:
            released.set()
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert degraded_warnings(tmp_path) == ["association[0]:degraded:remote->rules"]


def test_process_backend_hanging_up_degrades(tmp_path):
    server = socket.create_server(("127.0.0.1", 0))

    def hang_up():  # read each request, then close without a reply
        while True:
            try:
                conn, _ = server.accept()
            except OSError:  # the server socket was shut down
                return
            with conn:
                conn.recv(1 << 16)

    thread = threading.Thread(target=hang_up, daemon=True)
    thread.start()
    try:
        host, port = server.getsockname()
        proc = run_cli_process(
            "process", str(CORPUS_DIR / "memo_single.json"),
            "--predictor", "remote", "--backend-url", f"http://{host}:{port}/",
            "--out-dir", str(tmp_path),
        )
    finally:
        server.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        server.close()
        thread.join(5)
    assert not thread.is_alive()
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert degraded_warnings(tmp_path) == [
        "association[0]:degraded:remote->rules", "hierarchy[0]:degraded:remote->rules",
    ]


def test_process_batch_with_jobs(tmp_path):
    code = run_cli(
        "process",
        str(CORPUS_DIR / "memo_single.json"),
        str(CORPUS_DIR / "desk_notes.json"),
        str(CORPUS_DIR / "columns_mix.json"),
        "--jobs", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    for doc_id in ("memo_single", "desk_notes", "columns_mix"):
        got = (tmp_path / f"{doc_id}.tree.json").read_bytes()
        assert got == (GOLDEN_DIR / f"{doc_id}.tree.json").read_bytes()


@pytest.mark.parametrize(
    "doc_id, name",
    [
        ("../escaped", "doc.json"),
        ("{tmp}/trav/abs", "doc.json"),
        ("x" * 300, "doc.json"),
        ("a\0b", "doc.json"),
        ("", "doc.json"),
        ("a\\b", "doc.json"),
        ("é" * 101, "doc.json"),  # 202 UTF-8 bytes
        (None, "../escaped.json"),  # a raw wrapper's doc_id
        (None, "y" * 201 + ".json"),  # a raw block list's file stem
        (None, "a\\b.json"),
    ],
    ids=["dotdot", "absolute", "300-chars", "nul", "empty", "backslash", "202-bytes",
         "raw-wrapper-dotdot", "raw-stem-201-chars", "raw-stem-backslash"],
)
def test_process_refuses_a_doc_id_that_is_not_a_file_name(tmp_path, capsys, doc_id, name):
    (tmp_path / "trav").mkdir()
    out, src = tmp_path / "out", tmp_path / "in"
    src.mkdir()
    if doc_id is not None:
        raw: object = _canonical(ALPHA, doc_id=doc_id.format(tmp=tmp_path))
    elif name.startswith(".."):
        raw, name = {"doc_id": name[:-5], "blocks": [MINERU]}, "doc.json"
    else:
        raw = [MINERU]
    (src / name).write_text(json.dumps(raw))
    before = set(tmp_path.rglob("*"))
    assert run_cli("process", str(src / name), "--profile", "mineru", "--out-dir", str(out)) == 3
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "ingest.MalformedInput"
    assert set(tmp_path.rglob("*")) == before | {out}  # nothing written anywhere


def test_doc_id_of_accepts_a_200_byte_file_name():
    assert doc_id_of("é" * 100) == "é" * 100
    assert doc_id_of("..") == ".."  # a name in --out-dir, not a path out of it


def test_process_refuses_a_repeated_idx(tmp_path, capsys, monkeypatch):
    doc, out = tmp_path / "doc.json", tmp_path / "out"
    doc.write_text(json.dumps(_canonical(ALPHA, {**BETA, "idx": 1})))
    calls: list = []
    monkeypatch.setattr(RemotePredictor, "_post", lambda self, body: calls.append(body))
    code = run_cli(
        "process", str(doc), "--predictor", "remote", "--backend-url", "http://127.0.0.1:9/",
        "--out-dir", str(out),
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"code": "ingest.MalformedInput", "message": "element idx 1 appears more than once"}
    assert list(out.iterdir()) == [] and calls == []


def test_process_reads_a_raw_wrapper_as_raw(tmp_path):
    blocks = json.loads((RAW / "mineru_blocks.json").read_text())[:2]
    wrapper, canonical = tmp_path / "wrapper.json", tmp_path / "canonical.json"
    wrapper.write_text(json.dumps({"doc_id": "w", "page_count": 1, "elements": blocks}))
    assert run_cli("normalize", str(wrapper), "--profile", "mineru", "--out", str(canonical)) == 0
    for path in (wrapper, canonical):
        out = tmp_path / path.stem
        assert run_cli("process", str(path), "--profile", "mineru", "--out-dir", str(out)) == 0
        assert run_cli("inspect-chunks", str(path), "--profile", "mineru",
                       "--out", str(out / "plans.json")) == 0
    for name in ("w.predictions.json", "w.tree.json", "plans.json"):
        assert (tmp_path / "wrapper" / name).read_bytes() == (tmp_path / "canonical" / name).read_bytes()


def _batch(tmp_path: Path, capsys, *inputs: Path, jobs: int = 1) -> tuple[int, dict, list, Path]:
    """``process`` of ``inputs`` into a fresh directory: the exit status, the
    stdout summary, the stderr error lines and the directory."""
    out = tmp_path / f"out-{jobs}"
    code = run_cli("process", *map(str, inputs), "--jobs", str(jobs), "--out-dir", str(out))
    captured = capsys.readouterr()
    errors_ = [json.loads(line) for line in captured.err.splitlines()]
    return code, json.loads(captured.out), errors_, out


def test_process_one_failed_input_costs_only_itself(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_canonical({**ALPHA, "idx": "1"})))
    memo, desk = CORPUS_DIR / "memo_single.json", CORPUS_DIR / "desk_notes.json"
    code, summary, errors_, out = _batch(tmp_path, capsys, memo, bad, desk)
    assert code == 3
    assert [e["error"]["code"] for e in errors_] == ["ingest.MalformedInput"]
    assert [p.get("doc_id") for p in summary["processed"]] == ["memo_single", None, "desk_notes"]
    assert summary["processed"][1] == {"input": "bad.json", "error": errors_[0]["error"]}
    for doc_id in ("memo_single", "desk_notes"):
        got = (out / f"{doc_id}.tree.json").read_bytes()
        assert got == (GOLDEN_DIR / f"{doc_id}.tree.json").read_bytes()
    assert len(list(out.iterdir())) == 12

    # An unreadable input is a config error: exit 2, the highest status wins.
    code, summary, errors_, _ = _batch(tmp_path, capsys, memo, tmp_path / "absent.json")
    assert code == 2
    assert [e["error"]["code"] for e in errors_] == ["cli.ConfigNotFound"]
    code, _, errors_, _ = _batch(tmp_path, capsys, tmp_path / "absent.json", bad, memo)
    assert code == 3
    assert [e["error"]["code"] for e in errors_] == ["cli.ConfigNotFound", "ingest.MalformedInput"]


def test_process_doc_id_collision_keeps_the_first_input(tmp_path, capsys):
    # Two different documents that both call themselves memo_single: the
    # first in argument order wins at any --jobs, and the second writes nothing.
    clash = tmp_path / "clash.json"
    desk = json.loads((CORPUS_DIR / "desk_notes.json").read_text())
    clash.write_text(json.dumps({**desk, "doc_id": "memo_single"}))
    inputs = (CORPUS_DIR / "memo_single.json", clash, CORPUS_DIR / "columns_mix.json", clash)
    runs = [_batch(tmp_path, capsys, *inputs, jobs=jobs) for jobs in (1, 3)]
    for code, summary, errors_, out in runs:
        assert code == 3
        assert [e["error"]["code"] for e in errors_] == ["cli.DuplicateDocId"] * 2
        assert [p.get("doc_id") for p in summary["processed"]] == [
            "memo_single", None, "columns_mix", None,
        ]
        for doc_id in ("memo_single", "columns_mix"):
            got = (out / f"{doc_id}.tree.json").read_bytes()
            assert got == (GOLDEN_DIR / f"{doc_id}.tree.json").read_bytes()
    (_, serial, _, serial_out), (_, parallel, _, parallel_out) = runs
    assert serial == parallel
    files = sorted(p.name for p in serial_out.iterdir())
    assert files == sorted(p.name for p in parallel_out.iterdir()) and len(files) == 12
    for name in files:
        assert (serial_out / name).read_bytes() == (parallel_out / name).read_bytes()


def test_process_unusable_out_dir_fails_before_the_run(tmp_path, monkeypatch, capsys):
    # An existing file as --out-dir, or a path below one, is a config error
    # raised before any input is loaded.
    afile = tmp_path / "afile"
    afile.write_text("")
    calls: list = []
    monkeypatch.setattr(docstitch.cli, "run_pipeline", lambda *args: calls.append(args))
    for out in (afile, afile / "sub"):
        code = run_cli("process", str(CORPUS_DIR / "memo_single.json"), "--out-dir", str(out))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli.ConfigError"
        assert str(out) in err["error"]["message"]
    assert calls == []


@pytest.mark.parametrize("enabled", [True, False])
def test_process_restores_the_collector_state(tmp_path, capsys, enabled):
    memo = str(CORPUS_DIR / "memo_single.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"doc_id": "bad", "page_count": 1, "elements": [{}]}))
    runs = (
        ([memo], 0),
        ([memo, str(CORPUS_DIR / "desk_notes.json"), "--jobs", "2"], 0),
        ([memo, str(tmp_path / "absent.json")], 2),
        ([memo, str(bad)], 3),
    )
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in runs:
            assert run_cli("process", *argv, "--out-dir", str(tmp_path / "out")) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def cycles_left_by(run) -> int:
    """The objects in reference cycles that ``run()`` leaves unreachable,
    counted with the collector paused as ``process`` pauses it."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("doc_id", CORPUS_IDS)
def test_process_one_leaves_no_reference_cycle(tmp_path, doc_id):
    path = CORPUS_DIR / f"{doc_id}.json"
    assert cycles_left_by(lambda: _process_one(path, PipelineConfig(), tmp_path)) == 0


def test_process_one_with_a_retried_request_leaves_no_reference_cycle(tmp_path):
    with answering_backend(text_truncation=Seq(["garbage", []])) as backend:
        cfg = PipelineConfig(predictor_mode="remote", backend_url=backend.url)
        path = CORPUS_DIR / "field_manual.json"
        assert cycles_left_by(lambda: _process_one(path, cfg, tmp_path)) == 0
    tasks = [r["body"]["task"] for r in backend.requests]
    assert tasks.count("text_truncation") == 3  # two chunks, the first one retried


def test_eval_pred_equals_gold_gives_maxima(tmp_path, capsys):
    gold_path = GOLD_DIR / "field_manual.gold.json"
    gold = json.loads(gold_path.read_text())
    pred = {
        "doc_id": "field_manual",
        "hierarchy": gold["hierarchy"],
        "text_pairs": gold["text_pairs"],
        "assoc_pairs": gold["assoc_pairs"],
        "table_judgements": gold["table_judgements"],
    }
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    out = tmp_path / "report.json"
    code = run_cli("eval", "--pred", str(pred_path), "--gold", str(gold_path), "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["teds"] == 1.0
    assert report["text_truncation"]["precision"] == 1.0
    assert report["text_truncation"]["recall"] == 1.0
    assert report["association"]["f1"] == 1.0
    assert report["table_merge"]["unit"] == 1.0


def test_eval_is_invariant_to_gold_pair_order(tmp_path):
    gold_path = GOLD_DIR / "field_manual.gold.json"
    gold = json.loads(gold_path.read_text())
    shuffled = dict(gold)
    shuffled["text_pairs"] = list(reversed(gold["text_pairs"]))
    shuffled["assoc_pairs"] = list(reversed(gold["assoc_pairs"]))
    shuffled_path = tmp_path / "gold2.json"
    shuffled_path.write_text(json.dumps(shuffled))
    pred_path = GOLDEN_DIR.parent / "golden" / "field_manual.predictions.json"

    # use the pipeline's own predictions artifact
    out_dir = tmp_path / "run"
    run_cli("process", str(CORPUS_DIR / "field_manual.json"), "--out-dir", str(out_dir))
    pred_path = out_dir / "field_manual.predictions.json"

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("eval", "--pred", str(pred_path), "--gold", str(gold_path), "--out", str(out1)) == 0
    assert run_cli("eval", "--pred", str(pred_path), "--gold", str(shuffled_path), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_with_retrieved_boxes(tmp_path):
    gold_path = GOLD_DIR / "field_manual.gold.json"
    retrieved = tmp_path / "retrieved.json"
    gold = json.loads(gold_path.read_text())
    retrieved.write_text(json.dumps(gold["evidence_gold"]))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps({"doc_id": "field_manual"}))
    out = tmp_path / "report.json"
    code = run_cli(
        "eval", "--pred", str(pred_path), "--gold", str(gold_path),
        "--retrieved", str(retrieved), "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bbox"]["recall"] == 1.0
    assert report["bbox"]["iou"] == 1.0


def test_eval_corrupted_gold_fails_with_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hierarchy": {"x": "y"}}))
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"doc_id": "d"}))
    code = run_cli("eval", "--pred", str(pred), "--gold", str(bad))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "eval.SchemaMismatch"


@pytest.mark.parametrize(
    "pred, gold_fields",
    [
        ({"hierarchy": [1, 2]}, {}),
        ({"hierarchy": {"0": float("inf")}}, {}),
        ({"text_pairs": [[float("inf"), 1]]}, {}),
        ({"doc_id": "field_manual"}, {"hierarchy": {"1": float("inf")}}),
        ({"hierarchy": {"3": 1.9}}, {}),
        ({"table_judgements": [{"upper_idx": "4", "lower_idx": 5, "judgement": []}]}, {}),
        ({"table_judgements": [{"upper_idx": 4, "lower_idx": 5, "judgement": [2, 0.5, True]}]}, {}),
        ({}, {"doc_id": None}),
        ({}, {"titles": {"1": 7}}),
        ({}, {"format_version": True}),
        # A key that str(int) would not write: "1_0" would read as 10, and
        # " 3 ", the Arabic-Indic 3 and "01" as 3, so two keys of one file
        # could name one idx.
        ({"hierarchy": {"1_0": 1}}, {}),
        ({"hierarchy": {" 3 ": 1}}, {}),
        ({"hierarchy": {"\u0663": 1}}, {}),
        ({"hierarchy": {"01": 1}}, {}),
        ({}, {"titles": {"1_0": "Scope"}}),
        ({}, {"titles": {" 3 ": "Scope"}}),
        ({}, {"titles": {"\u0663": "Scope"}}),
        ({}, {"titles": {"01": "Scope"}}),
    ],
    ids=["hierarchy-not-object", "level-infinite", "pair-infinite", "gold-level-infinite",
         "level-fraction", "pair-id-string", "judgement-fraction-bool", "gold-doc-id-null",
         "gold-title-number", "gold-version-bool", "key-underscore", "key-spaces",
         "key-arabic-indic-digit", "key-leading-zero", "gold-key-underscore", "gold-key-spaces",
         "gold-key-arabic-indic-digit", "gold-key-leading-zero"],
)
def test_eval_wrong_shaped_predictions_fail_with_schema_mismatch(tmp_path, capsys, pred, gold_fields):
    gold = {**json.loads((GOLD_DIR / "field_manual.gold.json").read_text()), **gold_fields}
    gold_path, pred_path = tmp_path / "gold.json", tmp_path / "pred.json"
    gold_path.write_text(json.dumps(gold))
    pred_path.write_text(json.dumps(pred))
    code = run_cli("eval", "--pred", str(pred_path), "--gold", str(gold_path))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "eval.SchemaMismatch"


@pytest.mark.parametrize(
    "retrieved, evidence",
    [
        ([["x", [0, 0, 1, 1]]], None),
        ([[0, [0, 0, 1]]], None),
        ({"0": [0, 0, 1, 1]}, None),
        ([[0, [0, 0, 1, 1]]], [[0, [0, 0, 1]]]),
        ([[float("inf"), [0, 0, 1, 1]]], None),
    ],
    ids=["page-not-int", "3-number-box", "not-a-list", "3-number-gold-box", "page-infinite"],
)
def test_eval_malformed_boxes_fail_with_schema_mismatch(tmp_path, capsys, retrieved, evidence):
    gold = json.loads((GOLD_DIR / "field_manual.gold.json").read_text())
    if evidence is not None:
        gold["evidence_gold"] = evidence
    gold_path, pred_path, boxes_path = (tmp_path / n for n in ("gold.json", "pred.json", "boxes.json"))
    gold_path.write_text(json.dumps(gold))
    pred_path.write_text(json.dumps({"doc_id": "field_manual"}))
    boxes_path.write_text(json.dumps(retrieved))
    code = run_cli(
        "eval", "--pred", str(pred_path), "--gold", str(gold_path), "--retrieved", str(boxes_path)
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "eval.SchemaMismatch"


def test_export_markdown_from_tree_artifact(tmp_path):
    out = tmp_path / "again.md"
    code = run_cli(
        "export", str(GOLDEN_DIR / "field_manual.tree.json"),
        "--format", "markdown", "--out", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN_DIR / "field_manual.md").read_bytes()


@pytest.mark.parametrize(
    "content, code",
    [
        (b"not json", "eval.SchemaMismatch"),
        (b"\xff\xfe", "eval.SchemaMismatch"),
        (b'{"doc_id": "x"}', "ingest.MalformedInput"),
        (b"[]", "ingest.MalformedInput"),
        (b'{"doc_id": "x", "coord_unit": "pixel", "root": {"node_id": "root"}}', "ingest.MalformedInput"),
        (b'{"doc_id": "x", "coord_unit": "pixel", "root": {"node_id": "root", "kind": "root",'
         b' "level": "top", "anchor": -1}}', "ingest.MalformedInput"),
        (b'{"doc_id": "x", "coord_unit": "pixel", "root": {"node_id": "root", "kind": "root",'
         b' "level": 0, "anchor": Infinity}}', "ingest.MalformedInput"),
        (b'{"doc_id": "x", "coord_unit": "pixel", "root": {"node_id": "root", "kind": "root",'
         b' "level": 0, "anchor": -1, "children": [{"node_id": "s", "kind": "section",'
         b' "level": 1, "anchor": 0, "title": 7}]}}', "ingest.MalformedInput"),
    ] + [
        (json.dumps({"doc_id": "x", "coord_unit": "pixel", "root": {
            "node_id": "root", "kind": "root", "level": 0, "anchor": -1, **fields,
        }}).encode(), "ingest.MalformedInput")
        for fields in (
            {"level": 2.9},
            {"body": [{**ALPHA, "page": True}]},
            {"bboxes": [[0, [60.0, 90.0]]]},
            {"bboxes": [[0, ["1", "2", "3", "NaN"]]]},
            {"title_path": "Gradient Field Manual"},
            {"node_id": None},
        )
    ] + [(b'{"doc_id": null, "coord_unit": "pixel", "root": {"node_id": "root",'
          b' "kind": "root", "level": 0, "anchor": -1}}', "ingest.MalformedInput")],
    ids=[
        "not-json", "not-utf8", "no-coord-unit", "not-an-object", "node-without-kind",
        "level-not-int", "anchor-infinite", "title-not-str", "level-fraction", "page-bool",
        "bbox-2-numbers", "bbox-strings", "title-path-string", "node-id-null", "doc-id-null",
    ],
)
def test_export_bad_tree_file_exits_3(tmp_path, capsys, content, code):
    tree = tmp_path / "tree.json"
    tree.write_bytes(content)
    assert run_cli("export", str(tree)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == code


def test_inspect_chunks(tmp_path):
    out = tmp_path / "plans.json"
    code = run_cli(
        "inspect-chunks", str(CORPUS_DIR / "long_appendix.json"),
        "--stride", "8", "--threshold", "2", "--out", str(out),
    )
    assert code == 0
    plans = json.loads(out.read_text())
    assert set(plans) == {"hierarchy", "text", "association", "table"}
    assert plans["hierarchy"]["boundaries"][0] == 0
    assert plans["hierarchy"]["realized_overlaps"]


def test_inspect_chunks_matches_process_chunks_artifact(tmp_path):
    out = tmp_path / "plans.json"
    assert run_cli("inspect-chunks", str(CORPUS_DIR / "long_appendix.json"), "--out", str(out)) == 0
    assert run_cli("process", str(CORPUS_DIR / "long_appendix.json"), "--out-dir", str(tmp_path)) == 0
    assert out.read_bytes() == (tmp_path / "long_appendix.chunks.json").read_bytes()
    plans = json.loads(out.read_text())
    assert {name: p["task_type"] for name, p in plans.items()} == {
        "hierarchy": "title", "text": "text", "association": "image", "table": "table",
    }


def test_bad_chunking_flags_are_config_errors(tmp_path, capsys):
    for flags in (["--stride", "0"], ["--stride", "4", "--threshold", "4"]):
        code = run_cli(
            "process", str(CORPUS_DIR / "memo_single.json"), *flags, "--out-dir", str(tmp_path)
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "chunking.BadConfig"
    # The flags are checked with the rest of the config, before any input
    # is read or the output directory is made.
    out = tmp_path / "out"
    code = run_cli("process", str(tmp_path / "nope.json"), "--stride", "0", "--out-dir", str(out))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "chunking.BadConfig"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, key, value",
    [
        ("--stride", ("chunking", "stride"), 2**53 + 1),
        ("--threshold", ("chunking", "threshold"), 2**53 + 1),
        ("--jobs", (None, "jobs"), 2**53 + 1),
        ("--node-chunk-chars", ("tree", "node_chunk_chars"), 2**53 + 1),
        ("--profile", (None, "profile"), "\ud800"),
        # An integer flag is read as str(int) writes it, as an object key is.
        ("--stride", ("chunking", "stride"), "1_0"),
        ("--threshold", ("chunking", "threshold"), " 3 "),
        ("--jobs", (None, "jobs"), "\u0663"),  # an Arabic-Indic digit
        ("--node-chunk-chars", ("tree", "node_chunk_chars"), "08"),
    ],
)
def test_settings_flag_is_read_by_its_config_keys_rule(tmp_path, capsys, flag, key, value):
    # A value the config file refuses is refused from the flag too, and the
    # error names the flag; neither reads an input or makes --out-dir.
    section, name = key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value} if section is None else {section: {name: value}}))
    out = tmp_path / "out"
    memo = str(CORPUS_DIR / "memo_single.json")
    for argv, where in (
        (["--config", str(cfg)], name if section is None else f"{section}.{name}"),
        ([flag, str(value)], flag),
    ):
        assert run_cli("process", memo, *argv, "--out-dir", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli.ConfigError"
        assert f"bad {where} field" in err["error"]["message"]
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["process", "memo.json", "--stride", "abc", "--out-dir", "out"],
        ["process", "memo.json"],
        [],
        ["bogus"],
        ["process", "memo.json", "--out-dir", "out", "--bogus"],
        ["inspect-chunks", "memo.json", "--jobs", "2"],
    ],
    ids=["not-an-int", "no-out-dir", "no-subcommand", "unknown-subcommand", "unknown-flag",
         "flag-of-another-subcommand"],
)
def test_usage_errors_are_one_coded_json_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"]["code"] == "cli.ConfigError"
    assert not (tmp_path / "out").exists()


def test_help_prints_usage_and_exits_0(capsys):
    for argv in (["--help"], ["process", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: docstitch")


def test_settings_precedence_is_flag_then_env_then_file(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"chunking": {"stride": 6}, "predictor": {"backend_url": "http://file/"}}
    ))

    def settings(*argv: str) -> tuple:
        args = docstitch.cli.build_parser().parse_args(["process", "in.json", "--out-dir", "o", *argv])
        config = docstitch.cli._build_config(args)
        return config.backend_url, config.stride

    monkeypatch.delenv("DOCSTITCH_BACKEND_URL", raising=False)
    assert settings() == (None, 8)
    assert settings("--config", str(cfg)) == ("http://file/", 6)
    monkeypatch.setenv("DOCSTITCH_BACKEND_URL", "http://env/")
    assert settings() == ("http://env/", 8)
    assert settings("--config", str(cfg)) == ("http://env/", 6)
    flags = ("--backend-url", "http://flag/", "--stride", "5")
    assert settings("--config", str(cfg), *flags) == ("http://flag/", 5)


def test_env_var_supplies_backend_url(tmp_path, monkeypatch, capsys):
    # env URL is used when no flag is given: unreachable -> fallback warnings
    monkeypatch.setenv("DOCSTITCH_BACKEND_URL", "http://127.0.0.1:9/")
    code = run_cli(
        "process", str(CORPUS_DIR / "desk_notes.json"),
        "--predictor", "remote", "--out-dir", str(tmp_path),
    )
    assert code == 0


def test_process_artifacts_match_pinned_digests(tmp_path):
    pinned = json.loads((GOLDEN_DIR / "artifact_digests.json").read_text())
    assert sorted(pinned) == CORPUS_IDS
    for doc_id, digests in pinned.items():
        assert run_cli(
            "process", str(CORPUS_DIR / f"{doc_id}.json"), "--out-dir", str(tmp_path)
        ) == 0
        for suffix, digest in digests.items():
            got = hashlib.sha256((tmp_path / f"{doc_id}.{suffix}").read_bytes()).hexdigest()
            assert got == digest, f"{doc_id}.{suffix}"


def test_make_corpus_check_reports_no_difference():
    # Regenerates the corpus, gold files, goldens, pinned scores and digests
    # in a temporary directory and compares them byte for byte with
    # tests/fixtures/, so drift in any of them fails here.
    tool = Path(__file__).resolve().parent.parent / "tools" / "make_corpus.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--check"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("no difference:")


HOSTILE = [
    float("inf"), float("-inf"), float("nan"), 2**70, -1, 0, "x", "", [], {}, None, True, 2.5,
    "\ud800", [1, 2],
]


def _reader_cases() -> dict[str, tuple[str, object, list[str]]]:
    """Per reader: the file it reads, a valid body, and the argv with
    {file} standing for that file's path."""
    gold = json.loads((GOLD_DIR / "field_manual.gold.json").read_text())
    fields = ("doc_id", "hierarchy", "text_pairs", "assoc_pairs", "table_judgements")
    pred = {k: gold[k] for k in fields}
    canonical = json.loads((CORPUS_DIR / "field_manual.json").read_text())
    raw = json.loads((RAW / "mineru_blocks.json").read_text())
    tree = json.loads((GOLDEN_DIR / "field_manual.tree.json").read_text())
    gold_path, pred_path = str(GOLD_DIR / "field_manual.gold.json"), "{pred}"
    return {
        "process": ("doc.json", canonical, ["process", "{file}", "--out-dir", "{out}"]),
        "process-mineru": (
            "doc.json", raw, ["process", "{file}", "--profile", "mineru", "--out-dir", "{out}"],
        ),
        "normalize": (
            "doc.json", raw, ["normalize", "{file}", "--profile", "mineru", "--out", "{out}/c.json"],
        ),
        "export-json": (
            "tree.json", tree, ["export", "{file}", "--format", "json", "--out", "{out}/t.json"],
        ),
        "export-markdown": ("tree.json", tree, ["export", "{file}", "--out", "{out}/t.md"]),
        "eval-pred": ("prediction.json", pred, ["eval", "--pred", "{file}", "--gold", gold_path]),
        "eval-gold": ("gold.json", gold, ["eval", "--pred", pred_path, "--gold", "{file}"]),
        "eval-retrieved": (
            "boxes.json", gold["evidence_gold"],
            ["eval", "--pred", pred_path, "--gold", gold_path, "--retrieved", "{file}"],
        ),
    }


READERS = _reader_cases()


def _paths(value: object, prefix: tuple = ()) -> list[tuple]:
    """The path of every value nested in ``value``."""
    if isinstance(value, dict):
        items: Iterable = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _replaced(value: object, path: tuple, new: object) -> object:
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)  # type: ignore[call-overload]
    copy[path[0]] = _replaced(copy[path[0]], path[1:], new)
    return copy


def _refuse_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON (RFC 8259)")


# A reader, then a path into its valid body.
READER_FIELDS = st.sampled_from(sorted(READERS)).flatmap(
    lambda reader: st.tuples(st.just(reader), st.sampled_from(_paths(READERS[reader][1])))
)


@settings(max_examples=400, deadline=None)
@given(field=READER_FIELDS, value=st.sampled_from(HOSTILE))
# A NaN coordinate, as a JSON token and as a numeric string.
@example(field=("process", ("elements", 0, "bbox", 2)), value=float("nan"))
@example(field=("process", ("elements", 0, "bbox", 2)), value="NaN")
def test_every_reader_survives_one_hostile_field(field, value):
    reader, path = field
    name, body, argv = READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        target, pred = Path(tmp) / name, Path(tmp) / "pred.json"
        target.write_text(json.dumps(_replaced(body, path, value)))
        pred.write_text(json.dumps(READERS["eval-pred"][1]))
        args = [a.format(file=target, out=out, pred=pred) for a in argv]
        # A UTF-8 stream that, like a terminal, refuses lone surrogates.
        streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
        with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
            code = main(args)
            for stream in streams:
                stream.flush()
        assert code in (0, 2, 3)
        if code == 0:  # every JSON file written is RFC 8259 JSON: no NaN or Infinity
            for written in out.iterdir():
                if written.suffix == ".json":
                    json.loads(written.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def _valid_reply(task: str, body: dict) -> list:
    """A well-formed reply to ``body``: every title at level 1, one pair
    from the first block to the last, or a two-column judgement."""
    blocks = [b["idx"] for b in body["blocks"]]
    if task == "title_hierarchy":
        return [{"idx": i, "level": 1} for i in blocks]
    if task == "table_truncation":
        return [{"judgement": [1, 0]}]
    return [{"src": blocks[0], "tgt": blocks[-1], "reason": "why"}]


# (task, path) for every field of a reply's first entry, which every reply
# to every request holds.
REPLY_FIELDS = [
    (task, path)
    for task in ("title_hierarchy", "text_truncation", "association", "table_truncation")
    for path in _paths(_valid_reply(task, {"blocks": [{"idx": 0}]}))
]


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(REPLY_FIELDS), value=st.sampled_from(HOSTILE + [10**400]))
# A bool id for title 1, the first title of field_manual, and a level that
# no float holds.
@example(field=("title_hierarchy", (0, "idx")), value=True)
@example(field=("title_hierarchy", (0, "level")), value=10**400)
def test_every_backend_reply_survives_one_hostile_field(field, value):
    task, path = field

    def post(self, body):
        reply = _valid_reply(body["task"], body)
        return _replaced(reply, path, value) if body["task"] == task else reply

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(RemotePredictor, "_post", post):
        code = main([
            "process", str(CORPUS_DIR / "field_manual.json"), "--predictor", "remote",
            "--backend-url", "http://127.0.0.1:9/", "--stride", "2", "--threshold", "1",
            "--out-dir", tmp,
        ])
        assert code == 0
        pred = str(Path(tmp) / "field_manual.predictions.json")
        assert main(["eval", "--pred", pred, "--gold", str(GOLD_DIR / "field_manual.gold.json")]) == 0
