"""Canonical document model shared by every pipeline stage.

A document is a reading-order sequence of typed blocks.  Each block carries
its page, bounding box and a document-global index; the index is the only
identity used anywhere downstream (filters, predictions, merges, tree nodes
all reference blocks by ``idx``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from math import isfinite
from typing import Iterable, Optional

from .errors import BAD_FIELD, MalformedInput, bad_field
from .jsonio import dumps_pretty


class ElementType(str, Enum):
    """Closed vocabulary of block types after label alignment."""

    TITLE = "title"
    TEXT = "text"
    IMAGE = "image"
    TABLE = "table"
    IMAGE_CAPTION = "image_caption"
    TABLE_CAPTION = "table_caption"
    IMAGE_FOOTNOTE = "image_footnote"
    TABLE_FOOTNOTE = "table_footnote"
    PAGE_HEADER = "page_header"
    PAGE_FOOTER = "page_footer"
    FORMULA = "formula"
    OTHER = "other"


# Types that can carry an association link, and where the link may point.
VISUAL_TYPES = frozenset({ElementType.IMAGE, ElementType.TABLE})
CAPTION_LINK_TARGET = {
    ElementType.IMAGE_CAPTION: ElementType.IMAGE,
    ElementType.IMAGE_FOOTNOTE: ElementType.IMAGE,
    ElementType.TABLE_CAPTION: ElementType.TABLE,
    ElementType.TABLE_FOOTNOTE: ElementType.TABLE,
}
# Page furniture sits outside the main body flow.
FURNITURE_TYPES = frozenset({ElementType.PAGE_HEADER, ElementType.PAGE_FOOTER})


BBox = tuple[float, float, float, float]
PageBox = tuple[int, BBox]

# The rules every reader applies to the values of its JSON input.  A value
# is taken as it is: a bool, a float or a numeric string is not an integer,
# and nothing is rounded, truncated or parsed into the type wanted.

# RFC 8259 section 6: integers in this range are exact in every JSON
# implementation.
MAX_JSON_INT = 2**53 - 1
_NUMBER_TYPES = frozenset({int, float})


def json_int(value: object) -> int:
    """A JSON integer within ±MAX_JSON_INT.  Raises TypeError for another
    type (a bool too) and ValueError outside the range."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    if not -MAX_JSON_INT <= value <= MAX_JSON_INT:
        raise ValueError(f"expected an integer within ±(2**53 - 1), got {value!r}")
    return value


def int_key(key: str) -> int:
    """An object key or CLI flag naming an integer as ``str(int)`` writes it:
    ASCII digits with an optional leading minus, no space, underscore, '+' or
    leading zero, within ±MAX_JSON_INT; so two keys never name one integer."""
    value = json_int(int(key))
    if key != str(value):
        raise ValueError(f"expected an integer as str(int) writes it, got {key!r}")
    return value


def json_number(value: object) -> float:
    """A finite JSON number (not a bool), as a float."""
    if type(value) not in _NUMBER_TYPES:
        raise TypeError(f"expected a number, got {value!r}")
    if not isfinite(value):  # OverflowError for an int past the float range
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def json_str(value: object) -> str:
    """A required string: ``check_strings``'s rule, but not null."""
    if value is None:
        raise TypeError("expected a string, got None")
    check_strings(value)
    return value  # type: ignore[return-value]


# Artifacts are written to OUT_DIR/<doc_id>.<suffix> by way of a temporary
# .<doc_id>.<suffix>.<pid>.<thread id>.tmp beside it; 200 bytes keeps both
# names within the 255-byte file-name limit.
MAX_DOC_ID_BYTES = 200


def doc_id_of(value: object) -> str:
    """A document id, which names the document's artifact files: a
    non-empty string of at most MAX_DOC_ID_BYTES UTF-8 bytes with no '/',
    '\\' or NUL."""
    doc_id = json_str(value)
    if not 0 < len(doc_id.encode("utf-8")) <= MAX_DOC_ID_BYTES or any(
        c in doc_id for c in "/\\\0"
    ):
        raise ValueError(
            f"a doc_id is a file name of 1 to {MAX_DOC_ID_BYTES} UTF-8 bytes"
            f" without '/', '\\' or NUL, got {doc_id!r}"
        )
    return doc_id


def bbox_of(value: object) -> BBox:
    """``[x0, y0, x1, y1]`` (or an element's tuple): 4 finite numbers, as
    floats.  Every element has a bbox, so the tests are inline: no call per
    number."""
    if (type(value) is list or type(value) is tuple) and len(value) == 4:  # type: ignore[arg-type]
        x0, y0, x1, y1 = value  # type: ignore[misc]
        numbers = _NUMBER_TYPES
        if (
            type(x0) in numbers and type(y0) in numbers
            and type(x1) in numbers and type(y1) in numbers
        ):
            # OverflowError for an int past the float range.
            x0, y0, x1, y1 = box = (float(x0), float(y0), float(x1), float(y1))
            # v - v is 0.0 for a finite float, and NaN for NaN or an infinity.
            if x0 - x0 + y0 - y0 + x1 - x1 + y1 - y1 == 0.0:
                return box
    raise ValueError(f"a bbox holds 4 finite numbers, got {value!r}")


def bbox_is_valid(bbox: object) -> bool:
    """Whether ``bbox`` is 4 finite numbers with x0 < x1 and y0 < y1."""
    try:
        x0, y0, x1, y1 = bbox_of(bbox)
    except BAD_FIELD:
        return False
    return x0 < x1 and y0 < y1


def page_boxes(value: object) -> list[PageBox]:
    """``[[page, [x0, y0, x1, y1]], ...]``: an integer page and a bbox each."""
    if type(value) is not list:
        raise TypeError(f"expected a list of [page, bbox] pairs, got {value!r}")
    return [(json_int(page), bbox_of(box)) for page, box in value]


# Chunk planning and page profiles allocate per page, so a page count is
# bounded: 55 times the 1,800 pages of the long_report benchmark document.
MAX_PAGES = 100_000


def page_count_of(value: object) -> int:
    """A document's page count: an integer from 1 to ``MAX_PAGES``."""
    count = json_int(value)
    if count < 1:
        raise ValueError(f"a document covers at least one page, got page_count {count}")
    if count > MAX_PAGES:
        raise ValueError(f"a document covers at most {MAX_PAGES} pages, got page_count {count}")
    return count


def string_list(value: object) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple; anything else is a TypeError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def check_strings(*values: object) -> None:
    """Each value is None or a str that can be written as UTF-8.

    ``json.loads`` lets a lone surrogate escape such as ``"\\ud800"``
    through, and writing such a string fails only at the end of a run.
    Raises TypeError, or ValueError (a UnicodeEncodeError).
    """
    for value in values:
        if value is not None:
            if type(value) is not str:
                raise TypeError(f"expected a string, got {value!r}")
            value.encode("utf-8")


@dataclass(frozen=True)
class CanonicalElement:
    """One OCR block in canonical form.

    ``content`` may be empty for image/table bodies held as references;
    tables carry their body as ``table_html`` instead.
    """

    idx: int
    etype: ElementType
    content: str
    page: int
    bbox: BBox
    table_html: Optional[str] = None
    asset_ref: Optional[str] = None

    def with_type(self, etype: ElementType) -> CanonicalElement:
        return replace(self, etype=etype)

    def to_dict(self) -> dict:
        out = {
            "idx": self.idx,
            "type": self.etype.value,
            "content": self.content,
            "page": self.page,
            "bbox": list(self.bbox),
            "table_html": self.table_html,
            "asset_ref": self.asset_ref,
        }
        return out

    @classmethod
    def from_dict(cls, d: dict) -> CanonicalElement:
        # Arguments evaluate in field order, so the first bad field is the
        # one a MalformedInput names.
        element = cls(
            json_int(d["idx"]),
            ElementType(d["type"]),
            "" if (content := d.get("content")) is None else content,
            json_int(d["page"]),
            bbox_of(d["bbox"]),
            d.get("table_html"),
            d.get("asset_ref"),
        )
        check_strings(element.content, element.table_html, element.asset_ref)
        return element


class CoordUnit(str, Enum):
    PIXEL = "pixel"
    NORMALIZED = "normalized"


@dataclass
class CanonicalDocument:
    """Reading-order element sequence plus document metadata."""

    doc_id: str
    page_count: int
    elements: list[CanonicalElement]
    coord_unit: CoordUnit = CoordUnit.PIXEL
    source_schema: str = "generic"

    def index(self) -> dict[int, CanonicalElement]:
        return {e.idx: e for e in self.elements}

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "page_count": self.page_count,
            "coord_unit": self.coord_unit.value,
            "source_schema": self.source_schema,
            "elements": [e.to_dict() for e in self.elements],
        }

    def to_json(self) -> str:
        return dumps_pretty(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> CanonicalDocument:
        """Raises MalformedInput naming a missing or unreadable field."""
        pos = None
        try:
            elements = []
            for pos, e in enumerate(d["elements"]):
                elements.append(CanonicalElement.from_dict(e))
            pos = None
            return cls(
                doc_id=doc_id_of(d["doc_id"]),
                page_count=page_count_of(d["page_count"]),
                coord_unit=CoordUnit(d.get("coord_unit", "pixel")),
                source_schema=d.get("source_schema", "generic"),
                elements=elements,
            )
        except BAD_FIELD as exc:
            where = "document" if pos is None else f"element #{pos}"
            raise bad_field(MalformedInput, where, exc) from exc

    @classmethod
    def from_json(cls, text: str) -> CanonicalDocument:
        return cls.from_dict(json.loads(text))


class PageIndex:
    """Element positions bucketed by page, built once per document.

    ``on_pages`` costs the pages asked for, not a scan of the whole
    document.  Gathered positions are sorted, so an element whose page
    breaks the page order (reported as ``PageOrder``, still processed)
    keeps its reading-order place, and pages outside ``0..page_count-1``
    are indexed like any other.
    """

    def __init__(self, doc: CanonicalDocument):
        self._elements = doc.elements
        self._buckets: dict[int, list[int]] = {}
        for pos, e in enumerate(doc.elements):
            self._buckets.setdefault(e.page, []).append(pos)

    def on_pages(self, start: int, end: int) -> list[CanonicalElement]:
        """Elements whose page lies in the inclusive range [start, end]."""
        if end - start + 1 <= len(self._buckets):
            pages: Iterable[int] = range(start, end + 1)
        else:
            pages = [p for p in self._buckets if start <= p <= end]
        positions = [pos for p in pages for pos in self._buckets.get(p, ())]
        positions.sort()
        return [self._elements[pos] for pos in positions]


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validation."""

    code: str
    idx: Optional[int]
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, idx: Optional[int], message: str) -> None:
        self.violations.append(Violation(code, idx, message))

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [asdict(v) for v in self.violations],
        }


def validate_document(doc: CanonicalDocument) -> ValidationReport:
    """Check every structural invariant; never raises, only reports."""
    report = ValidationReport()
    prev_idx: Optional[int] = None
    prev_page: Optional[int] = None
    seen: set[int] = set()
    for e in doc.elements:
        if e.idx in seen:
            report.add("DuplicateIdx", e.idx, f"idx {e.idx} appears more than once")
        seen.add(e.idx)
        if prev_idx is not None and e.idx <= prev_idx:
            report.add(
                "IdxNotIncreasing",
                e.idx,
                f"idx {e.idx} does not increase after {prev_idx}",
            )
        if prev_page is not None and e.page < prev_page:
            report.add(
                "PageOrder",
                e.idx,
                f"page {e.page} decreases after page {prev_page}",
            )
        if not (0 <= e.page < doc.page_count):
            report.add(
                "PageOutOfRange",
                e.idx,
                f"page {e.page} outside 0..{doc.page_count - 1}",
            )
        if not bbox_is_valid(e.bbox):
            report.add("BBoxInvalid", e.idx, f"bbox {e.bbox} is degenerate or inverted")
        if e.etype is ElementType.TABLE and e.table_html is None:
            report.add("TableHtmlMissing", e.idx, "table element without table_html")
        if e.etype is not ElementType.TABLE and e.table_html is not None:
            report.add(
                "TableHtmlUnexpected",
                e.idx,
                f"{e.etype.value} element carries table_html",
            )
        prev_idx = e.idx
        prev_page = max(prev_page, e.page) if prev_page is not None else e.page
    return report

