"""Seeded input documents for the docstitch benchmark.

Every document numbers its headings in one decimal outline from start to
end, the way a real report does.  Concatenating unrelated documents instead
mixes numbering styles, drives the rule hierarchy tens of levels deep and
turns JSON export into the bottleneck, which is not the traffic the
benchmark is meant to show.

The rates are those of the repository's own corpus, not guesses.  Element
counts per page are those of ``tests/fixtures/corpus/field_manual.json``
(9 pages, 49 elements), the corpus document that tiled 200 times gives the
size of ``long_report``; the shapes and variants of cross-page tables are
those of the six table pairs in the corpus gold files.
``python3 perfbench/corpus_rates.py`` recounts both next to the constants
below.

The seed chooses content and positions, never quantities: each feature
has a fixed count per page, so two seeds give documents of the same page and
element counts and, within a few per cent, the same work.

Only the standard library is used; documents are plain dicts in the
canonical layout (``CanonicalDocument.to_dict``) or MinerU-style raw block
lists for ``docstitch process --profile mineru``.
"""

from __future__ import annotations

import random

WORDS = (
    "audit budget cable crew depot drill engine field filter gauge harbor "
    "index joint ledger margin meter module network office output panel "
    "permit pilot pump quota rack record relay route sample sensor shelf "
    "shift signal site stock supply survey switch system tank target task "
    "team tender track trial truck valve vendor volume welder window yard "
    "zone asset batch beacon boiler cargo chart client column control "
    "cycle datum design device estate factor fleet frame grade growth "
    "hazard intake layer limit lining load matrix method motor notice "
    "order outlet parcel period plant policy portal profile program "
    "project region report review rotor safety scope season sector series "
    "service socket source stage status storage stream study summary "
    "tariff tool transit unit update usage vessel wave weight"
).split()

TOPICS = (
    "Operations Safety Logistics Staffing Maintenance Procurement Finance "
    "Inspection Training Transport Storage Reporting Compliance Planning "
    "Quality Energy Facilities Security Sampling Calibration Archive Review"
).split()

# Counts in field_manual's 9 pages; a document of n pages gets
# round(count * n / 9) of each.  A split paragraph is two text elements, a
# figure an image and its caption, a table pair two captioned tables.
UNIT_PAGES = 9
FEATURE_COUNTS = {
    "headings": 22,
    "paragraphs": 9,
    "page_splits": 1,
    "cross_splits": 2,
    "figures": 2,
    "formulas": 1,
    "table_pairs": 1,
    "continued_captions": 1,
    "headers": 1,
    "footers": 1,
}
# field_manual's headings at gold levels 2 / 3 / 4 (level 1 is its title).
LEVEL_COUNTS = (6, 10, 6)
# Words per text element; field_manual has 3-12, mean 6.2.
TEXT_WORDS = (3, 9)
# The corpus's six cross-page table pairs: 2-3 columns, 1-2 body rows on
# each side, a cell split over the break in four, the header row repeated
# on the new page in two.
TABLE_COLUMNS = (2, 3)
TABLE_BODY_ROWS = (1, 2)
SPLIT_CELL_SHARE = 4 / 6
REPEATED_HEADER_SHARE = 2 / 6
PAGE_W, MARGIN = 600.0, 60.0


def _sentence(rng: random.Random, end: str = ".") -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(*TEXT_WORDS))]
    return " ".join(words).capitalize() + end


def _count(feature: str, pages: int) -> int:
    return round(FEATURE_COUNTS[feature] * pages / UNIT_PAGES)


def _per_page(rng: random.Random, total: int, pages: int) -> list[int]:
    """``total`` items over ``pages`` pages, as evenly as whole numbers allow."""
    counts = [total // pages] * pages
    for page in rng.sample(range(pages), total % pages):
        counts[page] += 1
    return counts


def _levels(rng: random.Random, n: int) -> list[int]:
    unit = sum(LEVEL_COUNTS)
    counts = [round(c * n / unit) for c in LEVEL_COUNTS[:2]]
    counts.append(max(0, n - sum(counts)))
    levels = [1] * counts[0] + [2] * counts[1] + [3] * counts[2]
    rng.shuffle(levels)
    return levels[:n]


class _Headings:
    """One decimal outline ("2.", "2.1", "2.1.3") for the whole document."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counters = [0, 0, 0]

    def next(self, level: int) -> str:
        if level >= 2 and self.counters[0] == 0:
            level = 1
        if level == 3 and self.counters[1] == 0:
            level = 2
        self.counters[level - 1] += 1
        for deeper in range(level, 3):
            self.counters[deeper] = 0
        topic = self.rng.choice(TOPICS)
        number = ".".join(str(v) for v in self.counters[:level])
        return f"{number}. {topic}" if level == 1 else f"{number} {topic}"


def _table_html(header: list[str] | None, rows: list[list[str]]) -> str:
    head = "<tr>" + "".join(f"<th>{h}</th>" for h in header) + "</tr>" if header else ""
    body = "".join("<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows)
    return f"<table>{head}{body}</table>"


def _cell(rng: random.Random, col: int) -> str:
    if col == 0:
        return rng.choice(WORDS).capitalize()
    if col == 1:
        return f"20{rng.randint(20, 39)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    return str(rng.randint(1, 9999))


def _rows(rng: random.Random, n_cols: int) -> list[list[str]]:
    return [[_cell(rng, c) for c in range(n_cols)] for _ in range(rng.randint(*TABLE_BODY_ROWS))]


def make_report(seed_rng: random.Random, doc_id: str, pages: int) -> dict:
    """One canonical document of ``pages`` pages with fixed feature counts."""
    rng = random.Random(seed_rng.getrandbits(64))
    all_pages = list(range(pages))

    # Page-end features (a table or paragraph continuing overleaf) claim
    # distinct pages that have a next page.
    inner = all_pages[:-1]
    n_pairs = min(len(inner), _count("table_pairs", pages))
    n_cross = min(len(inner) - n_pairs, _count("cross_splits", pages))
    ends = rng.sample(inner, n_pairs + n_cross)
    pair_pages = set(ends[:n_pairs])
    cross_pages = set(ends[n_pairs:])
    n_continued = min(n_pairs, _count("continued_captions", pages))
    continued = set(rng.sample(sorted(pair_pages), n_continued))
    header_pages = set(rng.sample(all_pages, min(pages, _count("headers", pages))))
    footer_pages = set(rng.sample(all_pages, min(pages, _count("footers", pages))))

    # Body items of each page, in a seeded order.
    body: list[list[str]] = [[] for _ in all_pages]
    for feature, item in (("headings", "heading"), ("paragraphs", "paragraph"),
                          ("page_splits", "split"), ("figures", "figure"), ("formulas", "formula")):
        for page, n in enumerate(_per_page(rng, _count(feature, pages), pages)):
            body[page] += [item] * n
    for items in body:
        rng.shuffle(items)
    levels = iter(_levels(rng, sum(items.count("heading") for items in body)))

    headings = _Headings(rng)
    doc_title = f"{rng.choice(TOPICS)} Field Manual"
    elements: list[dict] = []
    y = 0.0
    figure = table_no = 0
    pending_lower: dict | None = None  # lower half of a cross-page table
    pending_text: str | None = None  # tail of a paragraph cut at the page end

    def add(etype: str, page: int, content: str = "", width: float = PAGE_W - 2 * MARGIN,
            height: float = 40.0, **extra) -> None:
        nonlocal y
        elements.append({
            "idx": len(elements),
            "type": etype,
            "content": content,
            "page": page,
            "bbox": [MARGIN, y, MARGIN + width, y + height],
            "table_html": extra.get("table_html"),
            "asset_ref": extra.get("asset_ref"),
        })
        y += height + 10.0

    def split_paragraph() -> tuple[str, str]:
        head = _sentence(rng, end="")
        return head, " ".join(rng.choice(WORDS) for _ in range(rng.randint(*TEXT_WORDS))) + "."

    for page in all_pages:
        y = 20.0
        if page in header_pages:
            add("page_header", page, doc_id.upper().replace("_", " "), height=20.0)
        if pending_text is not None:
            add("text", page, pending_text, height=40.0)
            pending_text = None
        if pending_lower is not None:
            if pending_lower["caption"]:
                add("table_caption", page, pending_lower["caption"])
            add("table", page, table_html=pending_lower["html"], width=pending_lower["width"], height=80.0)
            pending_lower = None
        if page == 0:
            add("title", page, doc_title)
        for item in body[page]:
            if item == "heading":
                add("title", page, headings.next(next(levels)))
            elif item == "paragraph":
                add("text", page, _sentence(rng))
            elif item == "split":
                head, tail = split_paragraph()
                add("text", page, head)
                add("text", page, tail)
            elif item == "figure":
                figure += 1
                add("image", page, asset_ref=f"figs/fig{figure}.png", height=200.0)
                add("image_caption", page, f"Figure {figure}: {_sentence(rng)}")
            else:
                add("formula", page, f"x_{page} = {rng.randint(2, 9)} y + {rng.randint(1, 99)}")
        if page in pair_pages:
            table_no += 1
            n_cols = rng.randint(*TABLE_COLUMNS)
            header = [rng.choice(TOPICS) for _ in range(n_cols)]
            upper_rows, lower_rows = _rows(rng, n_cols), _rows(rng, n_cols)
            if rng.random() < SPLIT_CELL_SHARE:
                # A date split over the page break: "2031-" / "04-17".
                upper_rows[-1][1] = f"20{rng.randint(20, 39)}-"
                lower_rows[0][1] = f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            repeat = rng.random() < REPEATED_HEADER_SHARE
            width = PAGE_W - 2 * MARGIN - rng.choice((0.0, 20.0, 40.0))
            add("table_caption", page, f"Table {table_no}: {_sentence(rng)}")
            add("table", page, table_html=_table_html(header, upper_rows), width=width, height=80.0)
            pending_lower = {
                "html": _table_html(header if repeat else None, lower_rows),
                "width": width,
                "caption": f"Table {table_no} (continued)" if page in continued else None,
            }
        elif page in cross_pages:
            head, pending_text = split_paragraph()
            add("text", page, head)
        if page in footer_pages:
            add("page_footer", page, f"page {page + 1}", height=20.0)

    return {
        "doc_id": doc_id,
        "page_count": pages,
        "coord_unit": "pixel",
        "source_schema": "generic",
        "elements": elements,
    }


MINERU_LABELS = {
    "page_header": "header",
    "page_footer": "page_number",
    "formula": "interline_equation",
}


def to_mineru(doc: dict) -> list[dict]:
    """The document as a MinerU-style content list."""
    blocks = []
    for e in doc["elements"]:
        etype = e["type"]
        block = {"type": MINERU_LABELS.get(etype, etype), "page_idx": e["page"], "bbox": e["bbox"]}
        if etype == "table":
            block["table_body"] = e["table_html"]
        elif etype == "image":
            block["img_path"] = e["asset_ref"]
        else:
            block["text"] = e["content"]
        blocks.append(block)
    return blocks


def type_shares(docs: list[dict]) -> dict[str, float]:
    counts: dict[str, int] = {}
    total = 0
    for doc in docs:
        for e in doc["elements"]:
            counts[e["type"]] = counts.get(e["type"], 0) + 1
            total += 1
    return {k: round(v / total, 4) for k, v in sorted(counts.items())}
