"""HTML table grid model: span expansion, row windows, cross-page merging.

Tables arrive as HTML fragments inside table elements.  Everything that
reasons about them (column-count gates, header-repeat detection, boundary
cell fusion) works on an expanded rectangular grid where rowspan/colspan
cells own a block of slots.  Serialization back to HTML preserves spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from html.parser import HTMLParser
from typing import Callable, NamedTuple, Optional

from .errors import ColumnMismatch, TableHtmlUnparseable
from .model import CanonicalElement

# The WHATWG HTML table model clamps colspan to 1000
# (https://html.spec.whatwg.org/multipage/tables.html#attr-tdth-colspan).
MAX_COLSPAN = 1000
# The largest expanded grid TableGrid builds, parsed or merged: a 1000-row,
# 100-column table, about 0.1 s and 20 MB to parse.  The largest table in
# the test fixtures and the benchmark documents has 9 slots.
MAX_GRID_SLOTS = 100_000


class LogicalCell(NamedTuple):
    text: str
    rowspan: int = 1
    colspan: int = 1
    header: bool = False


# Tags that end a line inside a cell, so the words on either side do not
# run together: <br> and the block elements, of this or a nested table.
_LINE_BREAKS = frozenset(
    "br p div li ul ol h1 h2 h3 h4 h5 h6 table tr td th hr blockquote pre dl dt dd".split()
)


class TableGrid:
    """A table's logical cells placed on a rectangular grid of slots.

    ``rows[r]`` lists the cells that start in row r, left to right, as HTML
    lists them.  Placement follows the WHATWG "forming a table" algorithm
    (https://html.spec.whatwg.org/multipage/tables.html#forming-a-table):
    each cell takes the first free slot of its row, and its rowspan is
    clamped to the rows below.  A grid of more than ``MAX_GRID_SLOTS``
    slots, overlapping cells and an uncovered slot are refused, in that
    order.  ``owners[r][c]`` gives the (row, col) origin of the cell
    covering slot (r, c), and ``cells[(r, c)]`` the cell at that origin.
    ``n_cols`` is the least width, so a grid cut to no rows keeps its own.
    """

    def __init__(self, rows: list[list[LogicalCell]], n_cols: int = 0):
        n_rows = len(rows)
        self.rows: list[list[LogicalCell]] = []
        self.cells: dict[tuple[int, int], LogicalCell] = {}
        self.owners: list[list[Optional[tuple[int, int]]]] = [[] for _ in range(n_rows)]
        overlap: Optional[tuple[int, int]] = None
        slots = 0
        for r, row in enumerate(rows):
            line = self.owners[r]
            placed = []
            col = 0
            for cell in row:
                while col < len(line) and line[col] is not None:
                    col += 1
                if cell.rowspan > n_rows - r:
                    cell = cell._replace(rowspan=n_rows - r)
                end = col + cell.colspan
                n_cols = max(n_cols, end)
                # A rectangular grid covers each of its rows x columns slots
                # once; counting both refuses a ragged or overlapping table
                # before it allocates more than the cap.
                slots += cell.rowspan * cell.colspan
                if slots > MAX_GRID_SLOTS or n_rows * n_cols > MAX_GRID_SLOTS:
                    raise TableHtmlUnparseable(f"table grid exceeds {MAX_GRID_SLOTS} slots")
                origin = (r, col)
                for rr in range(r, r + cell.rowspan):
                    below = self.owners[rr]
                    below.extend([None] * (col - len(below)))
                    if overlap is None and any(below[col:end]):
                        overlap = (rr, next(c for c in range(col, end) if below[c]))
                    below[col:end] = [origin] * cell.colspan
                self.cells[origin] = cell
                placed.append(cell)
                col = end
            self.rows.append(placed)
        if overlap is not None:
            raise TableHtmlUnparseable(f"overlapping cells at slot ({overlap[0]},{overlap[1]})")
        for r, line in enumerate(self.owners):
            line.extend([None] * (n_cols - len(line)))
            if None in line:
                raise TableHtmlUnparseable(f"uncovered slot ({r},{line.index(None)}): ragged table")
        self.n_rows, self.n_cols = n_rows, n_cols

    def row_text(self, r: int) -> list[str]:
        """Expanded view of one row; covered slots repeat their owner's text."""
        return [self.cells[origin].text for origin in self.owners[r]]  # type: ignore[index]

    def cell_texts(self) -> list[str]:
        """All logical cell texts in grid order (for conservation checks)."""
        return [cell.text for row in self.rows for cell in row]

    def row_is_simple(self, r: int) -> bool:
        """True when no logical cell crosses the horizontal line above or below row r."""
        return all(
            origin[0] == r and self.cells[origin].rowspan == 1  # type: ignore[index]
            for origin in self.owners[r]
        )

    def slice_rows(self, start: int, stop: int) -> TableGrid:
        """Rows [start, stop) as a new grid; spans are clipped at the cut lines."""
        if not (0 <= start <= stop <= self.n_rows):
            raise ValueError(f"bad row slice [{start}, {stop})")
        if start == stop:
            return TableGrid([], self.n_cols)
        # The cells covering the first row start there; placement clips the bottom.
        top = []
        for origin in dict.fromkeys(self.owners[start]):
            cell = self.cells[origin]  # type: ignore[index]
            if origin[0] < start:  # type: ignore[index]
                cell = cell._replace(rowspan=cell.rowspan - start + origin[0])  # type: ignore[index]
            top.append(cell)
        return TableGrid([top] + self.rows[start + 1 : stop], self.n_cols)

    def row_window(self, n: int, tail: bool) -> TableGrid:
        """The first (tail=False) or last (tail=True) n rows."""
        k = min(n, self.n_rows)
        return self.slice_rows(self.n_rows - k, self.n_rows) if tail else self.slice_rows(0, k)

    def to_html(self, fragment: bool = False) -> str:
        body = "".join("<tr>" + "".join(map(_cell_html, row)) + "</tr>" for row in self.rows)
        return body if fragment else f"<table>{body}</table>"


def _cell_html(cell: LogicalCell) -> str:
    tag = "th" if cell.header else "td"
    attrs = ""
    if cell.rowspan > 1:
        attrs += f' rowspan="{cell.rowspan}"'
    if cell.colspan > 1:
        attrs += f' colspan="{cell.colspan}"'
    return f"<{tag}{attrs}>{escape(cell.text)}</{tag}>"


def _span(value: Optional[str]) -> int:
    """A ``rowspan`` or ``colspan`` value, read on its own: at least 1, and 1
    when it is missing, empty or not an integer."""
    try:
        return max(1, int(value or 1))
    except ValueError:
        return 1


class _TableHtmlParser(HTMLParser):
    """Collects raw rows of LogicalCells; html.parser lowercases tag names."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.raw_rows: list[list[LogicalCell]] = []
        self._row: Optional[list[LogicalCell]] = None
        self._cell: Optional[list[str]] = None
        self._cell_attrs: tuple[int, int, bool] = (1, 1, False)
        self._table_depth = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _LINE_BREAKS and self._cell is not None:
            self._cell.append("\n")
        if tag == "table":
            self._table_depth += 1
            return
        if self._table_depth != 1:
            return
        if tag == "tr":
            self._close_row()
            self._row = []
        elif tag in ("td", "th"):
            self._close_cell()
            if self._row is None:
                self._row = []
            a = dict(attrs)
            rowspan = _span(a.get("rowspan"))
            colspan = min(MAX_COLSPAN, _span(a.get("colspan")))
            self._cell = []
            self._cell_attrs = (rowspan, colspan, tag == "th")

    def handle_endtag(self, tag: str) -> None:
        if tag in _LINE_BREAKS and self._cell is not None:
            self._cell.append("\n")
        if tag == "table":
            if self._table_depth == 1:
                self._close_row()
            self._table_depth = max(0, self._table_depth - 1)
        elif self._table_depth != 1:
            return
        elif tag in ("td", "th"):
            self._close_cell()
        elif tag == "tr":
            self._close_row()

    def handle_data(self, data: str) -> None:
        if self._cell is not None:
            self._cell.append(data)

    def _close_cell(self) -> None:
        if self._cell is None:
            return
        text = " ".join("".join(self._cell).split())
        assert self._row is not None
        self._row.append(LogicalCell(text, *self._cell_attrs))
        self._cell = None

    def _close_row(self) -> None:
        self._close_cell()
        if self._row is not None:
            self.raw_rows.append(self._row)
            self._row = None


def parse_table(html: str) -> TableGrid:
    """Parse an HTML table into a rectangular grid.

    Rowspans are clamped to the table height and colspans to
    ``MAX_COLSPAN``.  Ragged tables (rows whose expanded widths disagree)
    are rejected rather than padded, and so is a grid of more than
    ``MAX_GRID_SLOTS`` slots.
    """
    if not html or "<" not in html:
        raise TableHtmlUnparseable("empty or non-HTML table body")
    parser = _TableHtmlParser()
    # Tolerate bare <tr> fragments (row windows) without a <table> wrapper.
    text = html if "<table" in html.lower() else f"<table>{html}</table>"
    try:
        parser.feed(text)
        parser.close()
    except Exception as exc:  # html.parser raises rarely, but be safe
        raise TableHtmlUnparseable(f"html parse failure: {exc}") from exc
    rows = [row for row in parser.raw_rows if row]
    if not rows:
        raise TableHtmlUnparseable("no table rows found")
    return TableGrid(rows)


class TableGrids:
    """Parsed table elements for one run: each table's HTML is parsed once.

    Grids are keyed by element idx and tied to the HTML they were parsed
    from, so a table rewritten by a merge is parsed afresh.  Parse failures
    are kept too and raise again on every lookup.  Grids are shared, so
    callers must not mutate them.
    """

    def __init__(self) -> None:
        self._parsed: dict[int, tuple[str, TableGrid | str]] = {}

    def grid(self, table: CanonicalElement) -> TableGrid:
        html = table.table_html or ""
        hit = self._parsed.get(table.idx)
        if hit is None or hit[0] != html:
            try:
                hit = (html, parse_table(html))
            except TableHtmlUnparseable as exc:
                hit = (html, exc.message)
            self._parsed[table.idx] = hit
        if isinstance(hit[1], str):
            raise TableHtmlUnparseable(hit[1])
        return hit[1]


@dataclass
class TableMergeOutcome:
    grid: TableGrid
    dropped_header: bool
    fused: list[dict]  # per fused column: {"column", "upper", "lower", "joined"}


def merge_grids(
    upper: TableGrid,
    lower: TableGrid,
    judgement: list[int],
    join: Callable[[str, str], str],
) -> TableMergeOutcome:
    """Stack two page fragments of one logical table, fusing boundary cells.

    ``judgement[j] == 1`` fuses the upper fragment's last-row cell and the
    lower fragment's first-row cell in column j into one cell.  Fused columns
    keep rectangularity via a rowspan over the two boundary rows; when every
    column fuses, the two boundary rows collapse into a single row.  A lower
    first row exactly repeating the upper header row is dropped first.
    """
    if upper.n_cols != lower.n_cols:
        raise ColumnMismatch(f"column counts differ: {upper.n_cols} vs {lower.n_cols}")
    if len(judgement) != upper.n_cols:
        raise ColumnMismatch(
            f"judgement length {len(judgement)} != column count {upper.n_cols}"
        )

    dropped_header = False
    if lower.n_rows >= 1 and lower.row_text(0) == upper.row_text(0):
        lower = lower.slice_rows(1, lower.n_rows)
        dropped_header = True

    fused_cols = [j for j, q in enumerate(judgement) if q == 1]
    fused_log: list[dict] = []

    if lower.n_rows == 0 or not fused_cols:
        return TableMergeOutcome(TableGrid(upper.rows + lower.rows), dropped_header, fused_log)

    boundary_u = upper.n_rows - 1
    if not upper.row_is_simple(boundary_u) or not lower.row_is_simple(0):
        raise TableHtmlUnparseable(
            "cell fusion requires span-free boundary rows on both fragments"
        )

    upper_last = [upper.cells[origin] for origin in upper.owners[boundary_u]]  # type: ignore[index]
    lower_first = [lower.cells[origin] for origin in lower.owners[0]]  # type: ignore[index]
    all_fused = len(fused_cols) == upper.n_cols
    top: list[LogicalCell] = []
    bottom: list[LogicalCell] = []
    for j, (u, lo) in enumerate(zip(upper_last, lower_first)):
        if judgement[j] == 1:
            joined = join(u.text, lo.text)
            fused_log.append({"column": j, "upper": u.text, "lower": lo.text, "joined": joined})
            top.append(LogicalCell(joined, 1 if all_fused else 2, 1, u.header))
        else:
            top.append(LogicalCell(u.text, 1, 1, u.header))
            bottom.append(LogicalCell(lo.text, 1, 1, lo.header))

    boundary = [top, bottom] if bottom else [top]
    grid = TableGrid(upper.rows[:boundary_u] + boundary + lower.rows[1:])
    return TableMergeOutcome(grid, dropped_header, fused_log)
