"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is also a normal pytest assertion, so a red test is
a failed criterion.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from docstitch.apply import (
    ResolvedDocument,
    assign_levels,
    check_table_conservation,
    check_text_conservation,
    merge_text,
)
from docstitch.chunking import (
    ChunkPlanConfig,
    ChunkPrediction,
    PageProfile,
    build_chunks,
    compute_boundaries,
    synchronize_hierarchy,
)
from docstitch.evaluation import (
    LabeledTree,
    bbox_scores,
    merge_accuracy,
    pair_prf,
    teds,
    tree_edit_distance,
)
from docstitch.exporters import export_json, export_markdown
from docstitch.model import ElementType
from docstitch.pipeline import PipelineConfig, run_pipeline
from docstitch.tree import NodeKind, build_tree, chunk_nodes

from .conftest import CORPUS_DIR, CORPUS_IDS, GOLD_DIR, GOLDEN_DIR, load_corpus_doc
from .helpers import stack_elements
from .mock_backend import MockBackend
from .oracles import (
    all_trees_up_to,
    boundary_oracle,
    brute_tree_distance,
    chunk_oracle,
)


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_chunk_plan_formula_conformance():
    rng = random.Random(20240810)
    start = time.time()
    for _ in range(200):
        page_count = rng.randint(1, 120)
        stride = rng.randint(4, 12)
        threshold = rng.randint(0, stride - 1)
        counts = [rng.randint(0, 9) for _ in range(page_count)]
        cfg = ChunkPlanConfig(stride, threshold)
        got = compute_boundaries(PageProfile(counts), cfg)
        # exact agreement with the exhaustive window-scan oracle
        assert got == boundary_oracle(counts, stride, threshold)
        assert got[0] == 0
        for a, b in zip(got, got[1:]):
            assert stride - threshold <= b - a <= stride + threshold
        # argmax with smallest-index tie-breaking, re-verified per window
        for a, b in zip(got, got[1:]):
            lo, hi = a + stride - threshold, min(a + stride + threshold, page_count - 1)
            window = list(range(lo, hi + 1))
            best = max(counts[p] for p in window)
            assert counts[b] == best and b == min(p for p in window if counts[p] == best)
        chunks = build_chunks(got, page_count - 1)
        assert chunks == chunk_oracle(got, page_count - 1)
        covered = set()
        for s, e in chunks:
            covered.update(range(s, e + 1))
        assert covered == set(range(page_count))
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(1, f"200 randomized chunk plans match the oracle exactly ({elapsed:.2f}s)")


def test_criterion_2_synchronization_recovers_known_offsets():
    rng = random.Random(77)
    start = time.time()
    for _ in range(100):
        n_titles = rng.randint(6, 40)
        truth = {i: rng.randint(3, 8) for i in range(n_titles)}
        # consecutive chunks over the title list with >= 1 shared title
        chunks = []
        pos = 0
        while pos < n_titles:
            end = min(n_titles, pos + rng.randint(3, 8))
            chunks.append(list(range(pos, end)))
            if end == n_titles:
                break
            pos = end - rng.randint(1, 2)  # overlap of 1..2 titles
        preds = []
        for k, idxs in enumerate(chunks):
            offset = 0 if k == 0 else rng.randint(-2, 2)
            preds.append(ChunkPrediction(k, {i: truth[i] + offset for i in idxs}))
        result = synchronize_hierarchy(preds)
        assert result.levels == truth
        # identity when chunks agree
        agree = [ChunkPrediction(k, {i: truth[i] for i in idxs}) for k, idxs in enumerate(chunks)]
        agreed = synchronize_hierarchy(agree)
        assert agreed.levels == truth
        assert all(d == 0 for d in agreed.deviations)
    elapsed = time.time() - start
    assert elapsed < 2.0
    _report(2, f"100 randomized offset fixtures recovered exactly ({elapsed:.2f}s)")


SINGLE_CHUNK_DOCS = [
    doc_id
    for doc_id in CORPUS_IDS
    if load_corpus_doc(doc_id).page_count <= 6  # default stride 8, threshold 2
]


def test_criterion_3_single_chunk_equivalence():
    assert len(SINGLE_CHUNK_DOCS) >= 8
    for doc_id in SINGLE_CHUNK_DOCS:
        doc = load_corpus_doc(doc_id)
        chunked = run_pipeline(doc, PipelineConfig(stride=8, threshold=2))
        unchunked = run_pipeline(doc, PipelineConfig(stride=500, threshold=2))
        assert len(unchunked.chunk_plans["hierarchy"].chunks) == 1
        assert export_json(chunked.tree) == export_json(unchunked.tree)
        assert export_markdown(chunked.tree) == export_markdown(unchunked.tree)
        assert chunked.predictions.to_dict() == unchunked.predictions.to_dict()
    _report(3, f"chunked == unchunked byte-for-byte on {len(SINGLE_CHUNK_DOCS)} single-chunk fixtures")


def _to_labeled(t) -> LabeledTree:
    return LabeledTree(t[0], [_to_labeled(c) for c in t[1]])


def test_criterion_4_teds_oracle_equivalence():
    start = time.time()
    labels = ("a", "b")
    # (a) exhaustive cross product over every labeled tree up to 4 nodes
    small = all_trees_up_to(4, labels)
    assert len(small) == 102
    count = 0
    for ta in small:
        la = _to_labeled(ta)
        for tb in small:
            assert tree_edit_distance(la, _to_labeled(tb)) == brute_tree_distance(ta, tb)
            count += 1
    # (b) every labeled tree up to 6 nodes against seeded partners
    full = all_trees_up_to(6, labels)
    assert len(full) == 3238
    rng = random.Random(424242)
    for ta in full:
        la = _to_labeled(ta)
        for tb in rng.sample(full, 3):
            assert tree_edit_distance(la, _to_labeled(tb)) == brute_tree_distance(ta, tb)
            count += 1
    # (c) exhaustive over all unlabeled shapes up to 6 nodes
    shapes = all_trees_up_to(6, ("a",))
    assert len(shapes) == 65
    for ta in shapes:
        la = _to_labeled(ta)
        for tb in shapes:
            assert tree_edit_distance(la, _to_labeled(tb)) == brute_tree_distance(ta, tb)
            count += 1
    # worked examples
    a = LabeledTree("r").add(LabeledTree("x")).add(LabeledTree("y"))
    b = LabeledTree("r").add(LabeledTree("x")).add(LabeledTree("y"))
    assert teds(a, b) == 1.0
    c = LabeledTree("r").add(LabeledTree("a")).add(LabeledTree("b").add(LabeledTree("c")))
    d = LabeledTree("r").add(LabeledTree("a")).add(LabeledTree("b").add(LabeledTree("d")))
    assert teds(c, d) == pytest.approx(0.75)
    e = LabeledTree("r")
    f = LabeledTree("r")
    for ch in "abcd":
        f.add(LabeledTree(ch))
    assert teds(e, f) == pytest.approx(0.2)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(4, f"DP distance == brute force on {count} tree pairs + worked examples ({elapsed:.1f}s)")


def test_criterion_5_metric_arithmetic_and_permutation_invariance():
    # worked examples
    assert pair_prf([(1, 2)], [(1, 2)]).as_tuple() == (1.0, 1.0, 1.0)
    assert pair_prf([(1, 2), (3, 4)], [(1, 2), (5, 6)]).as_tuple() == (0.5, 0.5, 0.5)
    empty = pair_prf([], [(1, 2)])
    assert (empty.precision, empty.recall, empty.f1) == (1.0, 0.0, 0.0)
    assert empty.vacuous_precision

    assert merge_accuracy([[0, 1, 0]], [[0, 1, 0]]).unit == 1.0
    assert merge_accuracy([[]], [[]]).unit == 1.0
    partial = merge_accuracy([[0, 1]], [[1, 1]])
    assert partial.column == 0.5 and partial.unit_correct == 2 and partial.unit_total == 3

    box = [(0, [10.0, 10.0, 50.0, 50.0])]
    assert bbox_scores(box, box).recall == pytest.approx(1.0)
    assert bbox_scores(box, box).iou == pytest.approx(1.0)
    half = bbox_scores([(0, [0.0, 0.0, 100.0, 50.0])], [(0, [0.0, 0.0, 100.0, 100.0])])
    assert half.recall == pytest.approx(0.5) and half.iou == pytest.approx(0.5)
    two = bbox_scores(
        [(0, [0.0, 0.0, 10.0, 10.0])],
        [(0, [0.0, 0.0, 10.0, 10.0]), (1, [0.0, 0.0, 10.0, 10.0])],
    )
    assert two.recall == pytest.approx(0.5)

    # permutation invariance under 1000 random shuffles
    rng = random.Random(3)
    pred_pairs = [(i, i + 1) for i in range(0, 30, 2)]
    gold_pairs = [(i, i + 1) for i in range(0, 30, 3)]
    base_prf = pair_prf(pred_pairs, gold_pairs).as_tuple()
    preds = [[0, 1], [], [1, 1], [0], [1, 0, 1]]
    golds = [[0, 1], [0], [1, 0], [0], [1, 1, 1]]
    base_acc = merge_accuracy(preds, golds).unit
    retrieved = [(0, [0.0, 0.0, 10.0, 10.0]), (0, [5.0, 5.0, 15.0, 15.0]), (1, [0.0, 0.0, 4.0, 4.0])]
    gold_boxes = [(0, [2.0, 2.0, 12.0, 12.0]), (1, [1.0, 1.0, 3.0, 3.0])]
    base_bbox = bbox_scores(retrieved, gold_boxes)
    for _ in range(1000):
        p, g = pred_pairs[:], gold_pairs[:]
        rng.shuffle(p)
        rng.shuffle(g)
        assert pair_prf(p, g).as_tuple() == base_prf
        order = list(range(len(preds)))
        rng.shuffle(order)
        assert merge_accuracy([preds[i] for i in order], [golds[i] for i in order]).unit == base_acc
        r, gb = retrieved[:], gold_boxes[:]
        rng.shuffle(r)
        rng.shuffle(gb)
        shuffled = bbox_scores(r, gb)
        assert shuffled.recall == pytest.approx(base_bbox.recall)
        assert shuffled.iou == pytest.approx(base_bbox.iou)
    _report(5, "metric worked examples exact; invariant under 1000 shuffles")


def test_criterion_6_content_conservation_across_corpus():
    assert len(CORPUS_IDS) >= 10
    cfg = PipelineConfig()
    table_merge_docs = 0
    text_merge_docs = 0
    max_depth = 0
    for doc_id in CORPUS_IDS:
        doc = load_corpus_doc(doc_id)
        result = run_pipeline(doc, cfg)
        assert check_text_conservation(doc, result.resolved) == [], doc_id
        assert check_table_conservation(doc, result.resolved) == [], doc_id
        kinds = {r.kind for r in result.resolved.merge_log.records}
        if "table" in kinds:
            table_merge_docs += 1
        if "text" in kinds:
            text_merge_docs += 1
        if result.predictions.hierarchy:
            max_depth = max(max_depth, max(result.predictions.hierarchy.values()))
    assert table_merge_docs >= 3
    assert text_merge_docs >= 3
    assert max_depth >= 4
    _report(
        6,
        f"conservation holds on {len(CORPUS_IDS)} docs "
        f"({table_merge_docs} with table merges, {text_merge_docs} with text merges, depth {max_depth})",
    )


def test_criterion_7_end_to_end_golden_run(tmp_path):
    from docstitch.cli import main

    pinned_scores = json.loads((GOLDEN_DIR / "eval_scores.json").read_text())
    for doc_id in CORPUS_IDS:
        out_dir = tmp_path / doc_id
        assert main(
            [
                "process",
                str(CORPUS_DIR / f"{doc_id}.json"),
                "--out-dir",
                str(out_dir),
                "--format",
                "both",
            ]
        ) == 0
        got_tree = (out_dir / f"{doc_id}.tree.json").read_bytes()
        got_md = (out_dir / f"{doc_id}.md").read_bytes()
        assert got_tree == (GOLDEN_DIR / f"{doc_id}.tree.json").read_bytes(), doc_id
        assert got_md == (GOLDEN_DIR / f"{doc_id}.md").read_bytes(), doc_id

        # rule-baseline scores against gold annotations are pinned
        report_path = out_dir / "eval.json"
        assert main(
            [
                "eval",
                "--pred",
                str(out_dir / f"{doc_id}.predictions.json"),
                "--gold",
                str(GOLD_DIR / f"{doc_id}.gold.json"),
                "--out",
                str(report_path),
            ]
        ) == 0
        got_scores = json.loads(report_path.read_text())
        # the pinned artifact omits bbox (no retrieval in the golden run)
        assert got_scores == pinned_scores[doc_id], doc_id
    _report(7, f"{len(CORPUS_IDS)} golden runs bit-exact; eval scores match the pinned record")


def test_criterion_8_node_chunking_contract():
    # Joins are merged before the tree is built, as run_pipeline does, so
    # chunk_nodes sees each join as one element and can never split it.
    rng = random.Random(11)
    threshold = 500
    for _ in range(100):
        n_paras = rng.randint(2, 20)
        lengths = [rng.randint(20, 400) for _ in range(n_paras)]
        source = stack_elements(
            "gen", [("title", "S", 0)] + [("text", "x" * n, 1 + i // 5) for i, n in enumerate(lengths)]
        )
        joins = [(i, i + 1) for i in range(1, n_paras) if rng.random() < 0.3]
        resolved = merge_text(ResolvedDocument.from_document(source), joins)
        assert check_text_conservation(source, resolved) == []
        tree = chunk_nodes(build_tree(assign_levels(resolved, {0: 1})), threshold)
        [section] = tree.root.children
        paras = [e for e in resolved.elements if e.etype is ElementType.TEXT]

        if section.children:
            subs = section.children
            # order and total content preserved
            assert [e for s in subs for e in s.body] == paras
            # no subnode boundary on a truncation join
            sub_of = {e.idx: k for k, s in enumerate(subs) for e in s.body}
            for i, j in joins:
                assert sub_of[resolved.merge_log.resolve(i)] == sub_of[resolved.merge_log.resolve(j)]
            # every subnode except possibly the last meets the threshold rule
            for s in subs[:-1]:
                assert sum(len(e.content) for e in s.body) >= threshold
        else:
            # never split: the text before the last paragraph is too short
            assert section.body == paras
            assert sum(len(e.content) for e in paras[:-1]) < threshold
    _report(8, "100 generated sections: joins never split, order and content preserved")


ADVERSARIAL_SCRIPTS = {
    # malformed everywhere: non-JSON, wrong shapes, duplicate/missing idx
    "full_garbage": {
        "title_hierarchy": "garbage",
        "text_truncation": {"not": "a list"},
        "association": "garbage",
        "table_truncation": [{"wrong_key": []}],
    },
    # syntactically valid but adversarial: unknown pairs, duplicated idx,
    # type-rule violations, wrong-length judgements
    "adversarial": {
        "title_hierarchy": [{"idx": 0, "level": 1}, {"idx": 0, "level": 2}],
        "text_truncation": [
            {"src": 9999, "tgt": 10000, "reason": "fabricated"},
            {"src": 9999, "tgt": 10000, "reason": "duplicate"},
        ],
        "association": [{"src": 1, "tgt": 1, "reason": "self link"}],
        "table_truncation": [{"judgement": [1, 1, 1, 1, 1, 1, 1]}],
    },
}


@pytest.mark.parametrize("scenario", sorted(ADVERSARIAL_SCRIPTS))
def test_criterion_9_protocol_robustness(scenario, tmp_path):
    scripts = ADVERSARIAL_SCRIPTS[scenario]
    doc = load_corpus_doc("field_manual")
    with MockBackend(scripts) as backend:
        cfg = PipelineConfig(
            predictor_mode="remote", backend_url=backend.url, backend_timeout=5.0,
            parallelism=1,
        )
        result = run_pipeline(doc, cfg)
    # never corrupts output: conservation and completeness still hold
    assert check_text_conservation(doc, result.resolved) == []
    assert check_table_conservation(doc, result.resolved) == []
    assert result.tree.element_idx_multiset() == sorted(
        e.idx for e in result.resolved.elements
    )
    assert result.report.counts["warnings"] > 0
    for node in result.tree.walk():
        if node.kind != NodeKind.ROOT:
            assert node.summary is not None
    if scenario == "full_garbage":
        # full degradation reproduces the rules-mode golden bytes
        assert export_json(result.tree) == (
            (GOLDEN_DIR / "field_manual.tree.json").read_text()
        )
    # node-chunking contract still holds on the resulting tree
    for node in result.tree.walk():
        if node.kind == NodeKind.SECTION:
            subs = [c for c in node.children if c.kind == NodeKind.SUBNODE]
            for s in subs[:-1]:
                assert sum(len(e.content) for e in s.body) >= cfg.node_chunk_chars
    _report(9, f"{scenario}: degraded cleanly with warnings, invariants intact")
