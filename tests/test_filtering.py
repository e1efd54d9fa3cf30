from __future__ import annotations

from docstitch.filtering import (
    BoundaryKind,
    FilterConfig,
    filter_association_candidates,
    filter_table_truncation_candidates,
    filter_text_truncation_candidates,
    filter_titles,
)
from docstitch.model import ElementType

from .helpers import stack_elements


def test_no_titles_gives_empty_sequence():
    d = stack_elements("t", [("text", "a.", 0), ("text", "b.", 0)])
    assert len(filter_titles(d)) == 0


def test_titles_projected_in_reading_order():
    d = stack_elements(
        "t",
        [
            ("text", "x.", 0),
            ("title", "A", 0),
            ("table", "", 0, {"table_html": "<table><tr><td>1</td></tr></table>"}),
            ("title", "B", 0),
            ("text", "y.", 1),
            ("title", "C", 1),
            ("title", "D", 1),
        ],
    )
    seq = filter_titles(d)
    assert [t.content for t in seq] == ["A", "B", "C", "D"]
    assert [t.idx for t in seq] == [1, 3, 5, 6]


def test_golden_fixture_has_23_titles_across_9_pages(field_manual):
    seq = filter_titles(field_manual)
    assert len(seq) == 23
    assert field_manual.page_count == 9
    # hand-enumerated idx set from the fixture definition
    assert [t.idx for t in seq] == [
        1, 2, 4, 6, 8, 11, 12, 14, 16, 19, 21, 23, 26, 28, 30, 31,
        36, 38, 41, 43, 44, 46, 47,
    ]


def test_association_candidates_empty_for_text_only():
    d = stack_elements("t", [("text", "a.", 0), ("text", "b.", 0)])
    assert len(filter_association_candidates(d)) == 0


def test_association_candidates_project_the_seven_types():
    d = stack_elements(
        "t",
        [
            ("image", "", 0, {"asset_ref": "x.png"}),
            ("image_caption", "cap", 0),
            ("text", "a.", 0),
            ("text", "b.", 0),
            ("text", "c.", 0),
            ("text", "d.", 0),
            ("text", "e.", 0),
        ],
    )
    cands = filter_association_candidates(d)
    assert len(cands) == 2
    assert all(c.etype is not ElementType.TEXT for c in cands)


def test_golden_fixture_association_multiset(field_manual):
    cands = filter_association_candidates(field_manual)
    by_type: dict[str, int] = {}
    for item in cands:
        by_type[item.etype.value] = by_type.get(item.etype.value, 0) + 1
    # 23 titles, 2 images, 2 tables, 2 image captions, 2 table captions
    assert by_type == {
        "title": 23,
        "image": 2,
        "table": 2,
        "image_caption": 2,
        "table_caption": 2,
    }
    assert len(cands) == 31


def test_terminated_src_and_clean_opener_excluded():
    d = stack_elements(
        "t",
        [("text", "This sentence ends here.", 0), ("text", "1.1 Overview", 0)],
    )
    assert filter_text_truncation_candidates(d) == []


def test_unterminated_pair_becomes_candidate_with_tail_and_head():
    d = stack_elements(
        "t",
        [("text", "First part. And the proposed meth", 0), ("text", "od achieves more. Then on.", 1)],
    )
    cands = filter_text_truncation_candidates(d)
    assert len(cands) == 1
    c = cands[0]
    assert (c.src_idx, c.tgt_idx) == (0, 1)
    assert c.src_tail == "And the proposed meth"
    assert c.tgt_head == "od achieves more."
    assert c.boundary_kind == BoundaryKind.PAGE_BREAK


def test_golden_fixture_14_pairs_5_candidates(field_manual):
    texts = [e for e in field_manual.elements if e.etype is ElementType.TEXT]
    assert len(texts) == 15  # hence 14 adjacent pairs
    cands = filter_text_truncation_candidates(field_manual)
    # hand application of the exclusion rule to the fixture
    assert [(c.src_idx, c.tgt_idx) for c in cands] == [
        (9, 10), (15, 20), (22, 24), (27, 29), (42, 45),
    ]


def test_each_adjacent_pair_emitted_at_most_once(field_manual):
    cands = filter_text_truncation_candidates(field_manual)
    keys = [(c.src_idx, c.tgt_idx) for c in cands]
    assert len(keys) == len(set(keys))


def test_boundary_kinds():
    d = stack_elements(
        "t",
        [
            ("text", "left column bottom contin", 0, {"bbox": (60, 400, 290, 440)}),
            ("text", "ues at top right", 0, {"bbox": (310, 40, 540, 80)}),
            ("text", "then an image splits the", 1),
            ("image", "", 1, {"asset_ref": "x.png"}),
            ("text", "following sentence badly", 1),
        ],
    )
    cands = filter_text_truncation_candidates(d)
    kinds = {(c.src_idx, c.tgt_idx): c.boundary_kind for c in cands}
    assert kinds[(0, 1)] == BoundaryKind.COLUMN_BREAK
    assert kinds[(2, 4)] == BoundaryKind.INTERLEAVED_BLOCK


def _table_doc(upper_html, lower_html, lower_caption=None, upper_bbox=None, lower_bbox=None):
    specs = [
        ("table", "", 0, {"table_html": upper_html, "bbox": upper_bbox or (60, 200, 540, 400)}),
    ]
    if lower_caption:
        specs.append(("table_caption", lower_caption, 1, {"bbox": (60, 30, 540, 50)}))
    specs.append(("table", "", 1, {"table_html": lower_html, "bbox": lower_bbox or (60, 60, 540, 300)}))
    specs.append(("text", "After the table.", 1, {"bbox": (60, 320, 540, 360)}))
    return stack_elements("t", specs)


H2 = "<table><tr><td>a</td><td>b</td></tr></table>"
H3 = "<table><tr><td>a</td><td>b</td><td>c</td></tr></table>"
H5 = "<table><tr><td>a</td><td>b</td><td>c</td><td>d</td><td>e</td></tr></table>"


def test_matching_boundary_tables_become_candidate():
    result = filter_table_truncation_candidates(_table_doc(H5, H5))
    assert len(result.candidates) == 1
    cand = result.candidates[0]
    assert (cand.upper_rows.n_cols, cand.lower_rows.n_cols) == (5, 5)
    assert 0.9 <= cand.width_ratio <= 1.1


def test_mismatched_columns_without_marker_rejected():
    result = filter_table_truncation_candidates(_table_doc(H3, H5))
    assert result.candidates == []


def test_mismatched_columns_with_continuation_marker_pass():
    result = filter_table_truncation_candidates(
        _table_doc(H3, H5, lower_caption="Table 2 (continued)")
    )
    assert len(result.candidates) == 1
    assert result.candidates[0].lower_caption == "Table 2 (continued)"


def test_width_ratio_gate_is_mandatory():
    result = filter_table_truncation_candidates(
        _table_doc(H3, H3, lower_caption="continued", lower_bbox=(60, 60, 240, 300))
    )
    assert result.candidates == []


def test_unparseable_table_skipped_and_recorded():
    result = filter_table_truncation_candidates(_table_doc("<div>junk</div>", H3))
    assert result.candidates == []
    assert len(result.skipped) == 1
    assert result.skipped[0]["upper_idx"] == 0


def test_row_windows_config():
    big = "<table>" + "".join(f"<tr><td>r{i}</td></tr>" for i in range(10)) + "</table>"
    cfg = FilterConfig(row_window=2)
    result = filter_table_truncation_candidates(_table_doc(big, big), cfg)
    cand = result.candidates[0]
    assert [cand.upper_rows.row_text(r) for r in range(cand.upper_rows.n_rows)] == [["r8"], ["r9"]]
    assert [cand.lower_rows.row_text(r) for r in range(cand.lower_rows.n_rows)] == [["r0"], ["r1"]]


def test_filters_are_projections(field_manual):
    all_idx = {e.idx for e in field_manual.elements}
    assert {t.idx for t in filter_titles(field_manual)} <= all_idx
    assert {i.idx for i in filter_association_candidates(field_manual)} <= all_idx
    for c in filter_text_truncation_candidates(field_manual):
        assert {c.src_idx, c.tgt_idx} <= all_idx


def test_table_candidates_span_exactly_one_page_boundary(field_manual, corpus):
    for doc in corpus.values():
        result = filter_table_truncation_candidates(doc)
        index = doc.index()
        for cand in result.candidates:
            assert index[cand.lower_idx].page == index[cand.upper_idx].page + 1
