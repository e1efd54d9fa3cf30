from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import docstitch.cli
from docstitch.cli import main

from .conftest import CORPUS_DIR, CORPUS_IDS, GOLD_DIR, GOLDEN_DIR

RAW = Path(__file__).parent / "fixtures" / "raw"


def run_cli(*argv) -> int:
    return main(list(argv))


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
    code = run_cli(
        "process", str(CORPUS_DIR / "memo_single.json"),
        "--config", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path),
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "cli.ConfigNotFound"


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
        {"filters": {"width_band": ["0.5", True]}},
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
    for bad in (
        element,
        {**typed, "type": "bogus"},
        {**typed, "page": "p"},
        {**typed, "content": 7},
        {**typed, "table_html": 5},
    ):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"doc_id": "d", "page_count": 1, "elements": [bad]}))
        code = run_cli("process", str(doc), "--out-dir", str(tmp_path / "out"))
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "ingest.MalformedInput"
        assert err["error"]["message"].startswith("element #0 ")


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
    assert not out.exists()


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


def test_export_markdown_from_tree_artifact(tmp_path):
    out = tmp_path / "again.md"
    code = run_cli(
        "export", str(GOLDEN_DIR / "field_manual.tree.json"),
        "--format", "markdown", "--out", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN_DIR / "field_manual.md").read_bytes()


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
