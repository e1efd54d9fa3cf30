from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstitch.model import CanonicalDocument, PageIndex, page_count_of, validate_document

from .helpers import doc, el


def test_valid_document_has_empty_report():
    d = doc(
        "ok",
        2,
        [
            el(0, "title", "A", 0),
            el(1, "text", "body", 0),
            el(2, "text", "more", 1),
        ],
    )
    assert validate_document(d).ok


def test_inverted_bbox_reported_with_idx():
    d = doc("bad", 1, [el(0, "text", "x", 0, bbox=(500, 100, 100, 140))])
    report = validate_document(d)
    assert report.codes() == ["BBoxInvalid"]
    assert report.violations[0].idx == 0


def test_page_out_of_range():
    d = doc("bad", 1, [el(0, "text", "x", 1)])
    assert "PageOutOfRange" in validate_document(d).codes()


def test_non_monotone_idx_and_page():
    d = doc(
        "bad",
        2,
        [el(5, "text", "x", 1), el(3, "text", "y", 0)],
    )
    codes = validate_document(d).codes()
    assert "IdxNotIncreasing" in codes
    assert "PageOrder" in codes


def test_table_without_html_flagged():
    d = doc("bad", 1, [el(0, "table", "", 0)])
    assert "TableHtmlMissing" in validate_document(d).codes()


def test_html_on_non_table_flagged():
    d = doc("bad", 1, [el(0, "text", "x", 0, table_html="<table></table>")])
    assert "TableHtmlUnexpected" in validate_document(d).codes()


def test_document_json_round_trip():
    d = doc(
        "rt",
        2,
        [
            el(0, "table", "", 0, table_html="<table><tr><td>x</td></tr></table>"),
            el(1, "image", "", 1, asset_ref="img/1.png"),
        ],
    )
    again = CanonicalDocument.from_json(d.to_json())
    assert again == d


# -- page index -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    page_count=st.integers(min_value=1, max_value=8),
    # pages drawn beyond 0..page_count-1 and in any order, so documents
    # carry PageOrder and PageOutOfRange violations
    pages=st.lists(st.integers(min_value=-3, max_value=11), max_size=40),
    queries=st.lists(
        st.tuples(st.integers(min_value=-4, max_value=12), st.integers(min_value=-4, max_value=12)),
        min_size=1,
        max_size=10,
    ),
)
def test_page_index_matches_brute_force_scan(page_count, pages, queries):
    d = doc("p", page_count, [el(i, "text", f"e{i}", p) for i, p in enumerate(pages)])
    index = PageIndex(d)
    for s, t in queries:
        assert index.on_pages(s, t) == [e for e in d.elements if s <= e.page <= t]


def test_page_count_is_bounded():
    assert page_count_of(100_000) == 100_000
    for count in (0, 100_001, 2**70):
        with pytest.raises(ValueError):
            page_count_of(count)
