from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstitch.ingest import normalize_elements
from docstitch.model import (
    MAX_JSON_INT,
    CanonicalDocument,
    CanonicalElement,
    ElementType,
    PageIndex,
    bbox_is_valid,
    bbox_of,
    int_key,
    json_int,
    json_number,
    json_str,
    page_count_of,
    validate_document,
)

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


# -- the value rules every reader shares ------------------------------------


def test_json_int_is_an_int_within_rfc_8259_range():
    for v in (0, -1, MAX_JSON_INT, -MAX_JSON_INT):
        assert json_int(v) == v
    for v in (True, False, 1.0, 1.2, "1", None, [1]):
        with pytest.raises(TypeError):
            json_int(v)
    for v in (MAX_JSON_INT + 1, -MAX_JSON_INT - 1, 10**400):
        with pytest.raises(ValueError):
            json_int(v)


def test_int_key_is_an_integer_as_str_writes_it():
    for value in (0, 7, -3, MAX_JSON_INT, -MAX_JSON_INT):
        assert int_key(str(value)) == value
    for key in ("1_0", " 3 ", "\u0663", "01", "-0", "+1", "", "x", str(MAX_JSON_INT + 1)):
        with pytest.raises((TypeError, ValueError)):
            int_key(key)


def test_json_number_is_a_finite_int_or_float():
    assert json_number(3) == 3.0 and type(json_number(3)) is float
    assert json_number(-2.5) == -2.5
    for v in (True, "1e1", None, [1.0]):
        with pytest.raises(TypeError):
            json_number(v)
    for v in (float("nan"), float("inf"), float("-inf"), 10**400):
        with pytest.raises((ValueError, OverflowError)):
            json_number(v)


def test_json_str_refuses_null_and_lone_surrogates():
    assert json_str("") == ""
    for v in (None, 7, ["a"]):
        with pytest.raises(TypeError):
            json_str(v)
    with pytest.raises(ValueError):
        json_str("\ud800")


def test_bbox_of_takes_4_finite_numbers_as_floats():
    assert bbox_of([0, 1, 2.5, 3]) == (0.0, 1.0, 2.5, 3.0)
    assert bbox_of((0.0, 1.0, 2.0, 3.0)) == (0.0, 1.0, 2.0, 3.0)  # an element's tuple
    for v in ([0, 0, 1], [0, 0, 1, 1, 1], ["0", "0", "1", "1"], [0, 0, True, 1],
              [0, 0, float("nan"), 1], [0, 0, float("inf"), 1], [0, 0, 10**400, 1], "0011", None):
        with pytest.raises((ValueError, OverflowError)):
            bbox_of(v)
    assert not bbox_is_valid([0, 0, float("nan"), 1])
    assert not bbox_is_valid(["0", "0", "1", "1"])
    assert bbox_is_valid((0.0, 0.0, 1.0, 1.0))


# -- shared pages and boxes -------------------------------------------------

# A small pool, so that values repeat: zeros of both signs, ints equal to
# floats, and pages equal to coordinates.
_COORDS = [0, 0.0, -0.0, 1, 1.0, 2.5, 60, 60.0, 300.0, -7.5]
_SPAN = st.sampled_from([(low, high) for low in _COORDS for high in _COORDS if low < high])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0, 1, 2, 60, 300, 301]), _SPAN, _SPAN),
        min_size=1, max_size=12,
    )
)
def test_shared_values_change_no_value(blocks):
    raw = [
        {"type": "text", "content": f"b{i}", "page": page, "bbox": [x0, y0, x1, y1]}
        for i, (page, (x0, x1), (y0, y1)) in enumerate(blocks)
    ]
    expected = [
        CanonicalElement(i, ElementType.TEXT, b["content"], json_int(b["page"]), bbox_of(b["bbox"]))
        for i, b in enumerate(raw)
    ]
    canonical = {"doc_id": "d", "page_count": 302, "elements": [{"idx": i, **b} for i, b in enumerate(raw)]}
    for loaded in (
        CanonicalDocument.from_dict(canonical).elements,
        normalize_elements(raw, "generic").document.elements,
    ):
        assert loaded == expected
        assert [repr(e.bbox) for e in loaded] == [repr(e.bbox) for e in expected]
        assert all(type(e.page) is int for e in loaded)
        # Equal boxes with no zero are one object.
        boxes: dict = {}
        for e in loaded:
            if all(e.bbox):
                assert boxes.setdefault(e.bbox, e.bbox) is e.bbox
