from __future__ import annotations

import time

import pytest

from docstitch.errors import ColumnMismatch, TableHtmlUnparseable
from docstitch.tables import _TableHtmlParser, merge_grids, parse_table
from docstitch.textrules import join_fragments


def test_simple_grid_dimensions():
    grid = parse_table("<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>")
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert grid.row_text(0) == ["a", "b"]


def test_colspan_is_clamped_to_1000():
    html = '<table>' + '<tr><td colspan="2000000000">a</td></tr>' * 2 + '</table>'
    parser = _TableHtmlParser()
    parser.feed(html)
    assert [cell[2] for row in parser.raw_rows for cell in row] == [1000, 1000]
    start = time.perf_counter()
    grid = parse_table(html)
    assert time.perf_counter() - start < 1.0
    assert (grid.n_rows, grid.n_cols) == (2, 1000)


def test_grid_past_the_slot_cap_is_refused():
    def rows(n: int) -> str:
        return '<table>' + '<tr><td colspan="1000">a</td></tr>' * n + '</table>'

    assert parse_table(rows(100)).n_cols == 1000  # 100,000 slots: the cap
    with pytest.raises(TableHtmlUnparseable, match="exceeds 100000 slots"):
        parse_table(rows(101))
    # Ragged: 200 one-slot rows under one 1000-column row.
    with pytest.raises(TableHtmlUnparseable, match="slots"):
        parse_table('<table><tr><td colspan="1000">a</td></tr>' + '<tr><td>b</td></tr>' * 200 + '</table>')
    # Overlapping: each row's wide cell runs into the tall cell beside it.
    tall = '<tr><td>a</td><td rowspan="100" colspan="999">b</td></tr>'
    overlapping = '<table>' + tall + '<tr><td colspan="1000" rowspan="100">c</td></tr>' * 99 + '</table>'
    start = time.perf_counter()
    with pytest.raises(TableHtmlUnparseable, match="slots"):
        parse_table(overlapping)
    assert time.perf_counter() - start < 1.0


def test_colspan_expansion():
    grid = parse_table('<table><tr><td colspan="2">wide</td></tr><tr><td>a</td><td>b</td></tr></table>')
    assert grid.n_cols == 2
    assert grid.row_text(0) == ["wide", "wide"]


def test_rowspan_expansion():
    grid = parse_table(
        '<table><tr><td rowspan="2">tall</td><td>r1</td></tr><tr><td>r2</td></tr></table>'
    )
    assert grid.n_rows == 2
    assert grid.row_text(1) == ["tall", "r2"]


def test_rowspan_clamped_to_table_height():
    grid = parse_table('<table><tr><td rowspan="9">x</td><td>y</td></tr></table>')
    assert grid.n_rows == 1


def test_ragged_table_rejected():
    with pytest.raises(TableHtmlUnparseable):
        parse_table("<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table>")


def test_empty_html_rejected():
    with pytest.raises(TableHtmlUnparseable):
        parse_table("")
    with pytest.raises(TableHtmlUnparseable):
        parse_table("<table></table>")


def test_serialization_round_trip_preserves_grid():
    html = (
        '<table><tr><th>h1</th><th colspan="2">h2</th></tr>'
        '<tr><td rowspan="2">a</td><td>b</td><td>c</td></tr>'
        "<tr><td>d</td><td>e</td></tr></table>"
    )
    grid = parse_table(html)
    again = parse_table(grid.to_html())
    assert again.n_rows == grid.n_rows and again.n_cols == grid.n_cols
    for r in range(grid.n_rows):
        assert again.row_text(r) == grid.row_text(r)


def test_rows_window_head_and_tail():
    grid = parse_table("<table>" + "".join(f"<tr><td>r{i}</td></tr>" for i in range(5)) + "</table>")
    assert [grid.row_window(2, tail=False).row_text(r) for r in (0, 1)] == [["r0"], ["r1"]]
    assert [grid.row_window(2, tail=True).row_text(r) for r in (0, 1)] == [["r3"], ["r4"]]
    assert grid.row_window(9, tail=True).n_rows == 5
    assert grid.row_window(2, tail=True).n_cols == 1


def test_fragment_without_table_wrapper_parses():
    grid = parse_table("<tr><td>a</td><td>b</td></tr>")
    assert (grid.n_rows, grid.n_cols) == (1, 2)


def _grid(rows):
    html = "<table>" + "".join(
        "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows
    ) + "</table>"
    return parse_table(html)


def test_merge_all_zero_is_simple_concatenation():
    upper = _grid([["h1", "h2", "h3"], ["a", "b", "c"]])
    lower = _grid([["d", "e", "f"]])
    outcome = merge_grids(upper, lower, [0, 0, 0], join_fragments)
    assert outcome.grid.n_rows == 3
    assert outcome.grid.row_text(2) == ["d", "e", "f"]
    assert not outcome.dropped_header


def test_merge_drops_repeated_header_row():
    upper = _grid([["h1", "h2"], ["a", "b"]])
    lower = _grid([["h1", "h2"], ["c", "d"]])
    outcome = merge_grids(upper, lower, [0, 0], join_fragments)
    assert outcome.dropped_header
    assert outcome.grid.n_rows == 3
    assert outcome.grid.row_text(2) == ["c", "d"]


def test_partial_fusion_uses_row_span_and_preserves_rectangle():
    upper = _grid([["h1", "h2", "h3"], ["x", "2023-", "y"]])
    lower = _grid([["p", "01-15", "q"]])
    outcome = merge_grids(upper, lower, [0, 1, 0], join_fragments)
    grid = outcome.grid
    assert grid.n_cols == 3
    assert grid.n_rows == 3
    # fused column spans the two boundary rows with the joined text
    assert grid.row_text(1)[1] == "2023-01-15"
    assert grid.row_text(2)[1] == "2023-01-15"
    assert grid.row_text(1)[0] == "x" and grid.row_text(2)[0] == "p"
    assert outcome.fused == [
        {"column": 1, "upper": "2023-", "lower": "01-15", "joined": "2023-01-15"}
    ]
    # serializes and re-parses to the same rectangle
    reparsed = parse_table(grid.to_html())
    assert reparsed.n_cols == 3 and reparsed.n_rows == 3


def test_all_ones_collapses_boundary_rows_into_one():
    upper = _grid([["head", "row"], ["decom-", "2023-"]])
    lower = _grid([["posed", "01-15"], ["z", "w"]])
    outcome = merge_grids(upper, lower, [1, 1], join_fragments)
    grid = outcome.grid
    assert grid.n_rows == 3
    assert grid.row_text(1) == ["decomposed", "2023-01-15"]
    assert grid.row_text(2) == ["z", "w"]


def test_column_mismatch_raises():
    with pytest.raises(ColumnMismatch):
        merge_grids(_grid([["a", "b"]]), _grid([["c", "d", "e"]]), [0, 0], join_fragments)
    with pytest.raises(ColumnMismatch):
        merge_grids(_grid([["a", "b"]]), _grid([["c", "d"]]), [0], join_fragments)


def test_fusion_rejects_spans_crossing_the_boundary():
    upper = parse_table(
        '<table><tr><td rowspan="2">tall</td><td>u1</td></tr><tr><td>u2</td></tr></table>'
    )
    lower = _grid([["a", "b"]])
    with pytest.raises(TableHtmlUnparseable):
        merge_grids(upper, lower, [1, 0], join_fragments)
    # all-zero concatenation is still fine
    outcome = merge_grids(upper, lower, [0, 0], join_fragments)
    assert outcome.grid.n_rows == 3


@pytest.mark.parametrize(
    "cell, text",
    [
        ("<p>North</p><p>South</p>", "North South"),
        ("<div>12</div><div>34</div>", "12 34"),
        ("Total<table><tr><td>12</td><td>34</td></tr></table>", "Total 12 34"),
        ("a<br>b<br/>c", "a b c"),
        ("<span>Net</span><b>work</b> <sup>1</sup><a href='#'>x</a>", "Network 1x"),
    ],
)
def test_block_tags_in_a_cell_read_as_a_space_and_inline_tags_join(cell, text):
    grid = parse_table(f"<table><tr><td>{cell}</td><td>z</td></tr></table>")
    assert grid.row_text(0) == [text, "z"]


@pytest.mark.parametrize("attrs", ['rowspan="two"', 'colspan="1.5"', 'rowspan="" colspan="x"'])
def test_non_integer_span_reads_as_one(attrs):
    grid = parse_table(f"<table><tr><td {attrs}>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>")
    assert [grid.row_text(r) for r in range(2)] == [["a", "b"], ["c", "d"]]


@pytest.mark.parametrize("value, span", [
    ("2px", 2), (" 3", 3), ("\t\n\f\r2", 2), ("+2", 2), ("002", 2), ("1_0", 1), ("\u0662", 1),
    ("1.5", 1), ("0", 1), ("-2", 1), ("++2", 1), ("\u00a02", 1), ("", 1), ("2" + "0" * 5000, 100_000),
], ids=lambda v: ascii(v)[:12])
def test_span_is_read_by_the_whatwg_non_negative_integer_rules(value, span):
    # Leading ASCII whitespace, one optional "+", then ASCII digits up to the
    # first non-digit; a span past the grid's slot cap reads as the cap, and
    # a colspan is then clamped to 1000.
    parser = _TableHtmlParser()
    parser.feed(f'<table><tr><td colspan="{value}" rowspan="{value}">a</td></tr></table>')
    assert parser.raw_rows[0][0][1:3] == (span, min(span, 1000))


def test_colspan_with_a_unit_covers_two_slots():
    grid = parse_table('<table><tr><td colspan="2px">a</td></tr><tr><td>b</td><td>c</td></tr></table>')
    assert [grid.row_text(r) for r in range(2)] == [["a", "a"], ["b", "c"]]


@pytest.mark.parametrize("html, rows", [
    ('<tr><td rowspan="x" colspan="2">a</td></tr><tr><td>b</td><td>c</td></tr>',
     [["a", "a"], ["b", "c"]]),
    ('<tr><td rowspan="2" colspan="two">a</td><td>z</td></tr><tr><td>c</td></tr>',
     [["a", "z"], ["a", "c"]]),
], ids=["bad_rowspan", "bad_colspan"])
def test_each_span_attribute_is_read_on_its_own(html, rows):
    # An unreadable value in one attribute leaves the other one standing.
    grid = parse_table(f"<table>{html}</table>")
    assert [grid.row_text(r) for r in range(grid.n_rows)] == rows


def test_cell_without_a_row_opens_one():
    grid = parse_table("<table><td>a</td><td>b</td></table>")
    assert (grid.n_rows, grid.row_text(0)) == (1, ["a", "b"])


def test_overlap_is_named_before_a_ragged_slot():
    # Row 1's wide cell takes slots (1,1) and (1,2), but the tall cell of
    # row 0 already holds (1,2); row 2 also leaves slot (2,1) uncovered.
    html = (
        '<table><tr><td>a</td><td>b</td><td rowspan="3">t</td></tr>'
        '<tr><td>c</td><td colspan="2">d</td></tr><tr><td>e</td></tr></table>'
    )
    with pytest.raises(TableHtmlUnparseable, match=r"^overlapping cells at slot \(1,2\)$"):
        parse_table(html)
    html = '<table><tr><td>a</td><td rowspan="2">b</td></tr><tr><td colspan="2">c</td></tr></table>'
    with pytest.raises(TableHtmlUnparseable, match=r"^overlapping cells at slot \(1,1\)$"):
        parse_table(html)


def test_slices_and_merges_keep_the_parsed_rows():
    grid = parse_table(
        '<table><tr><th colspan="2">h</th><td rowspan="3">t</td></tr>'
        '<tr><td rowspan="2">a</td><td>b</td></tr><tr><td>c</td></tr></table>'
    )
    middle = grid.slice_rows(1, 3)
    assert middle.to_html() == (
        '<table><tr><td rowspan="2">a</td><td>b</td><td rowspan="2">t</td></tr>'
        "<tr><td>c</td></tr></table>"
    )
    assert grid.row_window(0, tail=True).n_cols == 3  # no rows, still three columns
    stacked = merge_grids(grid, middle, [0, 0, 0], join_fragments).grid
    assert stacked.to_html() == grid.to_html()[:-len("</table>")] + middle.to_html(fragment=True) + "</table>"
    assert stacked.cell_texts() == grid.cell_texts() + middle.cell_texts()
