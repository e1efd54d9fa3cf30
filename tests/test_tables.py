from __future__ import annotations

import pytest

from docstitch.errors import ColumnMismatch, TableHtmlUnparseable
from docstitch.tables import merge_grids, parse_table
from docstitch.textrules import join_fragments


def test_simple_grid_dimensions():
    grid = parse_table("<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>")
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert grid.row_text(0) == ["a", "b"]


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
    assert "r0" in grid.row_window_html(2, tail=False)
    assert "r4" in grid.row_window_html(2, tail=True)
    assert "r0" not in grid.row_window_html(2, tail=True)
    assert grid.n_cols == 1


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
