from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstitch.chunking import (
    ChunkPlanConfig,
    ChunkPrediction,
    PageProfile,
    build_chunks,
    compute_boundaries,
    merge_table_union,
    merge_union,
    plan_chunks,
    round_half_away,
    synchronize_hierarchy,
)
from docstitch.errors import BadConfig

from .oracles import boundary_oracle, chunk_oracle


def test_bad_config_rejected():
    with pytest.raises(BadConfig):
        ChunkPlanConfig(stride=4, threshold=4)
    with pytest.raises(BadConfig):
        ChunkPlanConfig(stride=0, threshold=0)


def test_short_document_single_boundary():
    assert compute_boundaries(PageProfile([0] * 4), ChunkPlanConfig(8, 2)) == [0]


def test_worked_example_boundaries():
    profile = PageProfile([3, 1, 0, 2, 4, 1, 2, 5, 1, 0, 2, 1])
    assert compute_boundaries(profile, ChunkPlanConfig(5, 1)) == [0, 4, 10]


def test_all_zero_counts_tie_to_window_start():
    assert compute_boundaries(PageProfile([0] * 12), ChunkPlanConfig(5, 2)) == [0, 3, 6, 9]


def test_worked_example_chunks():
    assert build_chunks([0], 3) == [(0, 3)]
    chunks = build_chunks([0, 4, 10], 11)
    assert chunks == [(0, 5), (3, 11), (9, 11)]
    # first two overlap on pages {3,4,5}
    assert chunks[0][1] - chunks[1][0] + 1 == 3
    assert build_chunks([0, 5], 5) == [(0, 5), (4, 5)]


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(1.4) == 1
    assert round_half_away(-1.6) == -2
    assert round_half_away(0.0) == 0


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=120),
    stride=st.integers(min_value=4, max_value=12),
    data=st.data(),
)
def test_boundaries_match_window_scan_oracle(counts, stride, data):
    threshold = data.draw(st.integers(min_value=0, max_value=stride - 1))
    profile = PageProfile(counts)
    cfg = ChunkPlanConfig(stride, threshold)
    got = compute_boundaries(profile, cfg)
    assert got == boundary_oracle(counts, stride, threshold)
    # spacing and the b0 anchor
    assert got[0] == 0
    for a, b in zip(got, got[1:]):
        assert stride - threshold <= b - a <= stride + threshold
    # coverage of the derived chunks
    chunks = build_chunks(got, len(counts) - 1)
    assert chunks == chunk_oracle(got, len(counts) - 1)
    covered = set()
    for s, e in chunks:
        covered.update(range(s, e + 1))
    assert covered == set(range(len(counts)))
    # consecutive chunks share exactly three pages away from the ends
    p_max = len(counts) - 1
    for b, (c1, c2) in zip(got[1:], zip(chunks, chunks[1:])):
        overlap = min(c1[1], c2[1]) - c2[0] + 1
        if 1 <= b <= p_max - 1:
            assert overlap == 3
        else:
            assert overlap >= 2


def test_plan_is_deterministic():
    counts = [random.Random(7).randint(0, 5) for _ in range(40)]
    a = plan_chunks(PageProfile(counts), ChunkPlanConfig(8, 2))
    b = plan_chunks(PageProfile(counts), ChunkPlanConfig(8, 2))
    assert a.boundaries == b.boundaries and a.chunks == b.chunks


def test_sync_single_chunk_is_identity():
    result = synchronize_hierarchy([ChunkPrediction(0, {10: 1, 11: 2})])
    assert result.levels == {10: 1, 11: 2}
    assert result.deviations == [0]


def test_sync_worked_example():
    preds = [
        ChunkPrediction(0, {1: 2, 2: 3}),
        ChunkPrediction(1, {1: 1, 2: 2, 3: 2}),
    ]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 2, 2: 3, 3: 3}
    assert result.deviations == [0, 1]


def test_sync_zero_deviation():
    preds = [ChunkPrediction(0, {1: 2}), ChunkPrediction(1, {1: 2, 4: 3})]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 2, 4: 3}


def test_sync_agreeing_chunks_is_identity():
    levels = {1: 1, 2: 2, 3: 2, 4: 3}
    preds = [
        ChunkPrediction(0, {1: 1, 2: 2, 3: 2}),
        ChunkPrediction(1, {2: 2, 3: 2, 4: 3}),
    ]
    result = synchronize_hierarchy(preds)
    assert result.levels == levels
    assert result.deviations == [0, 0]


def test_sync_empty_overlap_flagged_and_deviation_zero():
    preds = [ChunkPrediction(0, {1: 1}), ChunkPrediction(1, {9: 4})]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 1, 9: 4}
    assert result.empty_overlaps == [1]


def test_sync_shift_invariance():
    # raw levels stay >= 1 under every shift so the -1 sentinel is not hit
    base = [
        ChunkPrediction(0, {1: 1, 2: 4}),
        ChunkPrediction(1, {2: 4, 3: 5}),
    ]
    expected = synchronize_hierarchy(base).levels
    assert expected == {1: 1, 2: 4, 3: 5}
    for k in (-3, -1, 1, 2, 5):
        shifted = [
            ChunkPrediction(0, {1: 1, 2: 4}),
            ChunkPrediction(1, {2: 4 + k, 3: 5 + k}),
        ]
        assert synchronize_hierarchy(shifted).levels == expected


def test_sync_uses_calibrated_levels_transitively():
    # chunk1 is offset by +1, chunk2 agrees with chunk1's raw scale, so its
    # deviation must come from the calibrated values to stay consistent.
    preds = [
        ChunkPrediction(0, {1: 2, 2: 3}),
        ChunkPrediction(1, {2: 2, 3: 3}),   # deviation +1
        ChunkPrediction(2, {3: 3, 4: 4}),   # overlap title 3 calibrated to 4
    ]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 2, 2: 3, 3: 4, 4: 5}
    assert result.deviations == [0, 1, 1]


def test_sync_minus_one_passes_through_unshifted():
    preds = [
        ChunkPrediction(0, {1: 2, 2: 3}),
        ChunkPrediction(1, {2: 2, 5: -1, 6: 2}),
    ]
    result = synchronize_hierarchy(preds)
    assert result.levels[5] == -1
    assert result.levels[6] == 3


def test_sync_title_calibrated_to_minus_one_is_not_demoted():
    # Deviation -2 takes title 3 to -1 and title 4 to 0.  Only a raw -1
    # demotes, so both are clamped to 1: title 3 stays a title.
    preds = [ChunkPrediction(0, {1: 1, 2: 1}), ChunkPrediction(1, {2: 3, 3: 1, 4: 2})]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 1, 2: 1, 3: 1, 4: 1}
    assert result.deviations == [0, -2]

    # A calibrated -1 counts in a later chunk's overlap: title 3 sets chunk
    # 2's deviation to -1 - 2.
    result = synchronize_hierarchy([*preds, ChunkPrediction(2, {3: 2, 5: 5})])
    assert result.levels == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2}
    assert result.deviations == [0, -2, -3]
    assert result.empty_overlaps == []


def test_sync_clamps_final_levels_to_one():
    preds = [
        ChunkPrediction(0, {1: 1, 2: 1}),
        ChunkPrediction(1, {2: 3, 3: 5}),  # deviation -2
    ]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 1, 2: 1, 3: 3}


def test_sync_conflict_keeps_earlier_chunk():
    # per-title deviations disagree (0 vs 2), so calibration cannot make the
    # overlap levels coincide; the earlier chunk's values must win.
    preds = [
        ChunkPrediction(0, {1: 1, 2: 2, 3: 5}),
        ChunkPrediction(1, {2: 2, 3: 3}),  # avg deviation (0 + 2) / 2 -> 1
    ]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 1, 2: 2, 3: 5}
    assert {c["idx"] for c in result.conflicts} == {2, 3}


def test_sync_completion_order_does_not_matter():
    preds = [
        ChunkPrediction(1, {2: 1, 3: 2}),
        ChunkPrediction(0, {1: 1, 2: 2}),
    ]
    result = synchronize_hierarchy(preds)
    assert result.levels == {1: 1, 2: 2, 3: 3}


def test_union_dedup_and_order():
    preds = [
        ChunkPrediction(0, [(7, 8)]),
        ChunkPrediction(1, [(7, 8), (20, 21)]),
    ]
    result = merge_union(preds)
    assert result.pairs == [(7, 8), (20, 21)]
    assert result.conflicts == []


def test_union_association_conflict_keeps_earlier_chunk():
    preds = [
        ChunkPrediction(0, [(12, 5)]),
        ChunkPrediction(1, [(12, 6)]),
    ]
    result = merge_union(preds, unique_src=True)
    assert result.pairs == [(12, 5)]
    assert result.conflicts == [{"src": 12, "kept": 5, "discarded": 6, "chunk": 1}]


def test_table_union_conflict():
    preds = [
        ChunkPrediction(0, [(1, 2, [0, 1])]),
        ChunkPrediction(1, [(1, 2, [1, 1]), (9, 10, [0, 0])]),
    ]
    result = merge_table_union(preds)
    assert result.judgements == [(1, 2, [0, 1]), (9, 10, [0, 0])]
    assert result.conflicts == [{"pair": [1, 2], "kept": [0, 1], "discarded": [1, 1], "chunk": 1}]
    assert list(result.conflicts[0]) == ["pair", "kept", "discarded", "chunk"]
