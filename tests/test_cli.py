from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docstitch.cli
from docstitch import errors
from docstitch.cli import _process_one, main
from docstitch.pipeline import PipelineConfig

from .conftest import CORPUS_DIR, CORPUS_IDS, GOLD_DIR, GOLDEN_DIR
from .mock_backend import MockBackend, Seq

RAW = Path(__file__).parent / "fixtures" / "raw"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv) -> int:
    return main(list(argv))


def run_cli_process(*argv, prelude: str = "") -> subprocess.CompletedProcess:
    """``docstitch.cli.main(argv)`` in a fresh interpreter that runs
    ``prelude`` first."""
    code = f"import sys\n{prelude}\nfrom docstitch.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


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
        ([{**block, "page_idx": 2**70}], "document has a bad page_count"),
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


def test_process_surrogate_summary_falls_back(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    with MockBackend({"summarize": {"summary": "bad \ud800"}}) as backend:
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


def test_process_nan_bbox_degrades_only_its_request(tmp_path):
    doc = json.loads((CORPUS_DIR / "memo_single.json").read_text())
    caption = next(e for e in doc["elements"] if e["type"] == "image_caption")
    caption["bbox"] = ["NaN", 0, 100, 100]  # json.dumps(allow_nan=False) refuses it
    path = tmp_path / "memo_single.json"
    path.write_text(json.dumps(doc))
    with answering_backend() as backend:
        proc = run_cli_process(
            "process", str(path), "--predictor", "remote", "--backend-url", backend.url,
            "--out-dir", str(tmp_path / "out"),
        )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert degraded_warnings(tmp_path / "out") == ["association[0]:degraded:remote->rules"]
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
    ],
    ids=["hierarchy-not-object", "level-infinite", "pair-infinite", "gold-level-infinite"],
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
    ],
    ids=[
        "not-json", "not-utf8", "no-coord-unit", "not-an-object", "node-without-kind",
        "level-not-int", "anchor-infinite", "title-not-str",
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


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_reader_survives_one_hostile_field(data):
    reader = data.draw(st.sampled_from(sorted(READERS)), label="reader")
    name, body, argv = READERS[reader]
    path = data.draw(st.sampled_from(_paths(body)), label="path")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
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
