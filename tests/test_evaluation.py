from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstitch.errors import SchemaMismatch
from docstitch.evaluation import (
    GoldAnnotations,
    LabeledTree,
    bbox_scores,
    evaluate,
    hierarchy_tree,
    merge_accuracy,
    pair_prf,
    teds,
    tree_edit_distance,
)

from .oracles import all_trees_up_to, brute_tree_distance


def leaf(label):
    return LabeledTree(label)


def test_identical_trees_teds_one():
    a = LabeledTree("r").add(leaf("x")).add(leaf("y"))
    b = LabeledTree("r").add(leaf("x")).add(leaf("y"))
    assert teds(a, b) == 1.0


def test_one_relabel_on_four_nodes():
    a = LabeledTree("r").add(leaf("a")).add(LabeledTree("b").add(leaf("c")))
    b = LabeledTree("r").add(leaf("a")).add(LabeledTree("b").add(leaf("d")))
    assert teds(a, b) == pytest.approx(0.75)


def test_single_root_vs_five_nodes():
    a = LabeledTree("r")
    b = LabeledTree("r")
    for ch in "abcd":
        b.add(leaf(ch))
    assert teds(a, b) == pytest.approx(0.2)


def _to_labeled(t) -> LabeledTree:
    return LabeledTree(t[0], [_to_labeled(c) for c in t[1]])


def test_dp_matches_brute_force_on_small_trees():
    trees = all_trees_up_to(3, ("a", "b"))
    for ta in trees:
        for tb in trees:
            assert tree_edit_distance(_to_labeled(ta), _to_labeled(tb)) == brute_tree_distance(ta, tb)


def test_dp_matches_brute_force_on_random_larger_trees():
    rng = random.Random(99)
    trees = all_trees_up_to(6, ("a", "b"))
    for _ in range(300):
        ta, tb = rng.choice(trees), rng.choice(trees)
        assert tree_edit_distance(_to_labeled(ta), _to_labeled(tb)) == brute_tree_distance(ta, tb)


def test_teds_symmetry_and_bounds():
    rng = random.Random(5)
    trees = all_trees_up_to(5, ("a", "b"))
    for _ in range(100):
        ta, tb = rng.choice(trees), rng.choice(trees)
        a, b = _to_labeled(ta), _to_labeled(tb)
        s1, s2 = teds(a, b), teds(b, a)
        assert s1 == pytest.approx(s2)
        assert 0.0 <= s1 <= 1.0
        assert teds(a, a) == 1.0


def test_hierarchy_tree_uses_parent_rule():
    levels = {10: 1, 11: 2, 12: 2, 13: 1}
    titles = {10: "A", 11: "B", 12: "C", 13: "D"}
    tree = hierarchy_tree(levels, titles)
    assert [c.label for c in tree.children] == ["A", "D"]
    assert [c.label for c in tree.children[0].children] == ["B", "C"]


def test_hierarchy_tree_counts_levels_below_1_as_1():
    titles = {1: "A", 2: "B", 3: "C", 4: "D"}
    tree = hierarchy_tree({1: 0, 2: 2, 3: -3, 4: 2}, titles)
    assert tree == hierarchy_tree({1: 1, 2: 2, 3: 1, 4: 2}, titles)
    assert [c.label for c in tree.children] == ["A", "C"]


def test_hierarchy_tree_skips_demotions_and_normalizes_labels():
    tree = hierarchy_tree({1: 1, 2: -1}, {1: "  spaced   title ", 2: "gone"})
    assert [c.label for c in tree.children] == ["spaced title"]


def test_pair_prf_exact_match():
    assert pair_prf([(1, 2)], [(1, 2)]).as_tuple() == (1.0, 1.0, 1.0)


def test_pair_prf_half():
    result = pair_prf([(1, 2), (3, 4)], [(1, 2), (5, 6)])
    assert result.as_tuple() == (0.5, 0.5, 0.5)


def test_pair_prf_empty_pred_vacuous():
    result = pair_prf([], [(1, 2)])
    assert result.precision == 1.0
    assert result.vacuous_precision
    assert result.recall == 0.0
    assert result.f1 == 0.0


def test_pair_prf_both_empty():
    result = pair_prf([], [])
    assert result.as_tuple() == (1.0, 1.0, 1.0)
    assert result.vacuous_precision


def test_pair_prf_permutation_invariant():
    pred = [(1, 2), (3, 4), (5, 6)]
    gold = [(3, 4), (9, 9)]
    base = pair_prf(pred, gold).as_tuple()
    rng = random.Random(0)
    for _ in range(50):
        p, g = pred[:], gold[:]
        rng.shuffle(p)
        rng.shuffle(g)
        assert pair_prf(p, g).as_tuple() == base


def test_merge_accuracy_exact():
    report = merge_accuracy([[0, 1, 0]], [[0, 1, 0]])
    assert report.unit == 1.0 and report.vector == 1.0


def test_merge_accuracy_both_empty():
    report = merge_accuracy([[]], [[]])
    assert report.unit == 1.0
    assert report.continuation == 1.0


def test_merge_accuracy_column_counting():
    report = merge_accuracy([[0, 1]], [[1, 1]])
    # continuation unit correct; 1 of 2 column units correct
    assert report.unit_correct == 2 and report.unit_total == 3
    assert report.column == 0.5


def test_merge_accuracy_length_mismatch_counts_gold_columns_wrong():
    report = merge_accuracy([[1]], [[1, 1]])
    assert report.unit_correct == 1  # only the continuation unit
    assert report.unit_total == 3


def test_merge_accuracy_requires_aligned_lists():
    with pytest.raises(SchemaMismatch):
        merge_accuracy([[1]], [[1], [0]])


def test_merge_accuracy_permutation_invariant():
    preds = [[0, 1], [], [1, 1]]
    golds = [[0, 1], [0], [1, 0]]
    base = merge_accuracy(preds, golds).unit
    rng = random.Random(1)
    order = list(range(3))
    for _ in range(20):
        rng.shuffle(order)
        assert merge_accuracy([preds[i] for i in order], [golds[i] for i in order]).unit == base


def test_bbox_identical():
    boxes = [(0, [10, 10, 50, 50])]
    scores = bbox_scores(boxes, boxes)
    assert scores.recall == pytest.approx(1.0)
    assert scores.iou == pytest.approx(1.0)


def test_bbox_half_cover_inside_gold():
    gold = [(0, [0, 0, 100, 100])]
    retrieved = [(0, [0, 0, 100, 50])]
    scores = bbox_scores(retrieved, gold)
    assert scores.recall == pytest.approx(0.5)
    assert scores.iou == pytest.approx(0.5)


def test_bbox_two_disjoint_golds_one_covered():
    gold = [(0, [0, 0, 10, 10]), (1, [0, 0, 10, 10])]
    retrieved = [(0, [0, 0, 10, 10])]
    scores = bbox_scores(retrieved, gold)
    assert scores.recall == pytest.approx(0.5)


def test_bbox_overlapping_rectangles_union_not_double_counted():
    gold = [(0, [0, 0, 10, 10]), (0, [5, 0, 15, 10])]  # union area 150
    retrieved = [(0, [0, 0, 15, 10])]
    scores = bbox_scores(retrieved, gold)
    assert scores.recall == pytest.approx(1.0)
    assert scores.iou == pytest.approx(1.0)


def test_bbox_empty_gold_reported_as_undefined():
    scores = bbox_scores([(0, [0, 0, 5, 5])], [])
    assert scores.recall is None


@settings(max_examples=60, deadline=None)
@given(
    dx=st.floats(min_value=-500, max_value=500),
    dy=st.floats(min_value=-500, max_value=500),
)
def test_bbox_translation_invariance(dx, dy):
    gold = [(0, [0.0, 0.0, 40.0, 30.0]), (0, [20.0, 10.0, 60.0, 50.0])]
    retrieved = [(0, [10.0, 5.0, 50.0, 45.0])]

    def shift(boxes):
        return [(p, [b[0] + dx, b[1] + dy, b[2] + dx, b[3] + dy]) for p, b in boxes]

    base = bbox_scores(retrieved, gold)
    moved = bbox_scores(shift(retrieved), shift(gold))
    assert moved.recall == pytest.approx(base.recall, rel=1e-9)
    assert moved.iou == pytest.approx(base.iou, rel=1e-9)


def test_gold_annotations_round_trip():
    gold = GoldAnnotations(
        doc_id="d",
        hierarchy={1: 1, 2: 2},
        titles={1: "A", 2: "B"},
        text_pairs=[(3, 4)],
        assoc_pairs=[(5, 1)],
        table_judgements=[(7, 8, [0, 1])],
        evidence_gold=[(0, (1.0, 2.0, 3.0, 4.0))],  # a box reads as a tuple, like a bbox
    )
    again = GoldAnnotations.from_dict(gold.to_dict())
    assert again == gold


def test_gold_annotations_bad_file_raises():
    with pytest.raises(SchemaMismatch):
        GoldAnnotations.from_dict({"format_version": 1})  # missing doc_id
    with pytest.raises(SchemaMismatch):
        GoldAnnotations.from_dict({"doc_id": "x", "table_judgements": [{"nope": 1}]})
    with pytest.raises(SchemaMismatch):
        GoldAnnotations.from_dict({"doc_id": "x", "hierarchy": [1]})  # not an object


def test_evaluate_aligns_table_judgements_on_gold_pairs():
    gold = GoldAnnotations(doc_id="d", table_judgements=[(1, 2, [0, 1]), (5, 6, [])])
    # (5, 6) is missing, so it counts as []; (8, 9) is not a gold pair.
    predictions = {
        "table_judgements": [
            {"upper_idx": 8, "lower_idx": 9, "judgement": [1]},
            {"upper_idx": 1, "lower_idx": 2, "judgement": [0, 1]},
        ]
    }
    report = evaluate(gold, predictions)
    assert report.merge == merge_accuracy([[0, 1], []], [[0, 1], []])
    assert report.merge.vector == 1.0


def test_evaluate_scores_only_what_gold_annotates():
    gold = GoldAnnotations(doc_id="d", text_pairs=[(1, 2)])
    report = evaluate(gold, {"hierarchy": {"0": 1}, "text_pairs": [[1, 2]]}, [(0, [0, 0, 1, 1])])
    assert (report.teds, report.merge, report.bbox) == (None, None, None)
    assert report.text_prf.f1 == 1.0
    assert report.assoc_prf == pair_prf([], [])

    gold = GoldAnnotations(doc_id="d", hierarchy={0: 1}, titles={0: "A"})
    assert evaluate(gold, {"hierarchy": {"0": 1}}).teds == 1.0

