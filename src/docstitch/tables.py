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
from typing import Callable, Optional

from .errors import ColumnMismatch, TableHtmlUnparseable
from .model import CanonicalElement

# The WHATWG HTML table model clamps colspan to 1000
# (https://html.spec.whatwg.org/multipage/tables.html#attr-tdth-colspan).
MAX_COLSPAN = 1000
# The largest expanded grid parse_table builds: a 1000-row, 100-column
# table, about 0.1 s and 20 MB to parse.  The largest table in the test
# fixtures and the benchmark documents has 9 slots.
MAX_GRID_SLOTS = 100_000


@dataclass(frozen=True)
class LogicalCell:
    text: str
    rowspan: int = 1
    colspan: int = 1
    header: bool = False


class TableGrid:
    """Rectangular expanded grid over a set of logical cells.

    ``owners[r][c]`` gives the (row, col) origin of the logical cell covering
    slot (r, c); ``cells[(r, c)]`` holds the logical cells keyed by origin.
    """

    def __init__(self, cells: dict[tuple[int, int], LogicalCell], n_rows: int, n_cols: int):
        self.cells = cells
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.owners: list[list[Optional[tuple[int, int]]]] = [
            [None] * n_cols for _ in range(n_rows)
        ]
        for (r, c), cell in cells.items():
            for dr in range(cell.rowspan):
                for dc in range(cell.colspan):
                    rr, cc = r + dr, c + dc
                    if rr >= n_rows or cc >= n_cols:
                        raise TableHtmlUnparseable(
                            f"cell at ({r},{c}) spans outside the {n_rows}x{n_cols} grid"
                        )
                    if self.owners[rr][cc] is not None:
                        raise TableHtmlUnparseable(
                            f"overlapping cells at slot ({rr},{cc})"
                        )
                    self.owners[rr][cc] = (r, c)
        for r in range(n_rows):
            for c in range(n_cols):
                if self.owners[r][c] is None:
                    raise TableHtmlUnparseable(f"uncovered slot ({r},{c}): ragged table")

    def slot_text(self, r: int, c: int) -> str:
        return self.cells[self.owners[r][c]].text  # type: ignore[index]

    def row_text(self, r: int) -> list[str]:
        """Expanded view of one row; covered slots repeat their owner's text."""
        return [self.slot_text(r, c) for c in range(self.n_cols)]

    def cell_texts(self) -> list[str]:
        """All logical cell texts in grid order (for conservation checks)."""
        return [self.cells[key].text for key in sorted(self.cells)]

    def row_is_simple(self, r: int) -> bool:
        """True when no logical cell crosses the horizontal line above or below row r."""
        for c in range(self.n_cols):
            orow, ocol = self.owners[r][c]  # type: ignore[misc]
            cell = self.cells[(orow, ocol)]
            if orow != r or cell.rowspan != 1:
                return False
        return True

    def slice_rows(self, start: int, stop: int) -> TableGrid:
        """Rows [start, stop) as a new grid; spans are clipped at the cut lines."""
        if not (0 <= start <= stop <= self.n_rows):
            raise ValueError(f"bad row slice [{start}, {stop})")
        new_cells: dict[tuple[int, int], LogicalCell] = {}
        for r in range(start, stop):
            for c in range(self.n_cols):
                orow, ocol = self.owners[r][c]  # type: ignore[misc]
                cell = self.cells[(orow, ocol)]
                origin_r = max(orow, start) - start
                if (origin_r, ocol) in new_cells:
                    continue
                span = min(orow + cell.rowspan, stop) - start - origin_r
                if span != cell.rowspan:  # clipped at a cut line
                    cell = LogicalCell(cell.text, span, cell.colspan, cell.header)
                new_cells[(origin_r, ocol)] = cell
        return TableGrid(new_cells, stop - start, self.n_cols)

    def row_window(self, n: int, tail: bool) -> TableGrid:
        """The first (tail=False) or last (tail=True) n rows."""
        k = min(n, self.n_rows)
        return self.slice_rows(self.n_rows - k, self.n_rows) if tail else self.slice_rows(0, k)

    def to_html(self, fragment: bool = False) -> str:
        rows = []
        for r in range(self.n_rows):
            parts = ["<tr>"]
            for c in range(self.n_cols):
                origin = self.owners[r][c]
                if origin != (r, c):
                    continue
                cell = self.cells[(r, c)]
                tag = "th" if cell.header else "td"
                attrs = ""
                if cell.rowspan > 1:
                    attrs += f' rowspan="{cell.rowspan}"'
                if cell.colspan > 1:
                    attrs += f' colspan="{cell.colspan}"'
                parts.append(f"<{tag}{attrs}>{escape(cell.text)}</{tag}>")
            parts.append("</tr>")
            rows.append("".join(parts))
        body = "".join(rows)
        return body if fragment else f"<table>{body}</table>"


class _TableHtmlParser(HTMLParser):
    """Collects raw rows of (text, rowspan, colspan, header) tuples."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.raw_rows: list[list[tuple[str, int, int, bool]]] = []
        self._row: Optional[list[tuple[str, int, int, bool]]] = None
        self._cell: Optional[list[str]] = None
        self._cell_attrs: tuple[int, int, bool] = (1, 1, False)
        self._table_depth = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        tag = tag.lower()
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
            try:
                rowspan = max(1, int(a.get("rowspan") or 1))
                colspan = min(MAX_COLSPAN, max(1, int(a.get("colspan") or 1)))
            except ValueError:
                rowspan, colspan = 1, 1
            self._cell = []
            self._cell_attrs = (rowspan, colspan, tag == "th")
        elif tag == "br" and self._cell is not None:
            self._cell.append("\n")

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
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
        rowspan, colspan, header = self._cell_attrs
        assert self._row is not None
        self._row.append((text, rowspan, colspan, header))
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
    raw_rows = [r for r in parser.raw_rows if r]
    if not raw_rows:
        raise TableHtmlUnparseable("no table rows found")

    n_rows = len(raw_rows)
    cells: dict[tuple[int, int], LogicalCell] = {}
    # occupancy[r] is the set of columns already covered in row r by spans
    occupied: list[set[int]] = [set() for _ in range(n_rows)]
    n_cols = 0
    slots = 0
    for r, row in enumerate(raw_rows):
        col = 0
        for text_, rowspan, colspan, header in row:
            while col in occupied[r]:
                col += 1
            rowspan = min(rowspan, n_rows - r)
            # A rectangular grid covers each of its rows x columns slots
            # once; counting both refuses a ragged or overlapping table
            # before it allocates more than the cap.
            slots += rowspan * colspan
            if max(slots, n_rows * (col + colspan)) > MAX_GRID_SLOTS:
                raise TableHtmlUnparseable(f"table grid exceeds {MAX_GRID_SLOTS} slots")
            cells[(r, col)] = LogicalCell(text_, rowspan, colspan, header)
            for dr in range(rowspan):
                for dc in range(colspan):
                    occupied[r + dr].add(col + dc)
            col += colspan
        n_cols = max(n_cols, max(occupied[r]) + 1 if occupied[r] else 0)

    try:
        return TableGrid(cells, n_rows, n_cols)
    except TableHtmlUnparseable:
        raise
    except Exception as exc:
        raise TableHtmlUnparseable(str(exc)) from exc


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
        grid = _stack(upper, lower)
        return TableMergeOutcome(grid, dropped_header, fused_log)

    boundary_u = upper.n_rows - 1
    if not upper.row_is_simple(boundary_u) or not lower.row_is_simple(0):
        raise TableHtmlUnparseable(
            "cell fusion requires span-free boundary rows on both fragments"
        )

    upper_last = [upper.cells[upper.owners[boundary_u][c]] for c in range(upper.n_cols)]  # type: ignore[index]
    lower_first = [lower.cells[lower.owners[0][c]] for c in range(lower.n_cols)]  # type: ignore[index]

    cells = {origin: cell for origin, cell in upper.cells.items() if origin[0] < boundary_u}

    all_fused = len(fused_cols) == upper.n_cols
    for j in range(upper.n_cols):
        u_text = upper_last[j].text
        l_text = lower_first[j].text
        if j in set(fused_cols):
            joined = join(u_text, l_text)
            fused_log.append({"column": j, "upper": u_text, "lower": l_text, "joined": joined})
            span = 1 if all_fused else 2
            cells[(boundary_u, j)] = LogicalCell(joined, span, 1, upper_last[j].header)
        else:
            cells[(boundary_u, j)] = LogicalCell(u_text, 1, 1, upper_last[j].header)
            if not all_fused:
                cells[(boundary_u + 1, j)] = LogicalCell(l_text, 1, 1, lower_first[j].header)

    boundary_rows = 1 if all_fused else 2
    offset = boundary_u + boundary_rows
    for (r, c), cell in lower.cells.items():
        if r == 0:
            continue
        cells[(r - 1 + offset, c)] = cell

    n_rows = boundary_u + boundary_rows + (lower.n_rows - 1)
    grid = TableGrid(cells, n_rows, upper.n_cols)
    return TableMergeOutcome(grid, dropped_header, fused_log)


def _stack(upper: TableGrid, lower: TableGrid) -> TableGrid:
    cells = dict(upper.cells)
    for (r, c), cell in lower.cells.items():
        cells[(r + upper.n_rows, c)] = cell
    return TableGrid(cells, upper.n_rows + lower.n_rows, upper.n_cols)
