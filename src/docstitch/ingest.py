"""Normalize raw OCR block lists into the canonical element sequence.

Label alignment is data, not code: each supported OCR flavour is described
by a profile file (JSON) that maps raw field names and raw type labels onto
the canonical schema.  New OCR models are added by dropping a profile file
next to the built-in ones, no code changes.

Profile file format (all keys required unless noted)::

    {
      "name": "mineru",
      "description": "free text",
      "fields": {
        "type":       "type",            # raw key, or list of keys tried in order
        "content":    ["text", "content"],
        "page":       ["page_idx", "page"],
        "bbox":       "bbox",
        "table_html": ["table_body", "html"],   # optional
        "asset_ref":  ["img_path", "image_path"] # optional
      },
      "label_map":   {"doc_title": "title", ...},
      "drop_labels": ["discarded"]       # optional; dropped and counted
    }

Unknown raw labels map to ``other`` and are counted in the normalization
report rather than failing the ingest; downstream filters ignore ``other``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Union

from .errors import BAD_FIELD, BBoxInvalid, MalformedInput, SchemaUnknown, bad_field
from .jsonio import read_json
from .model import (
    CanonicalDocument,
    CanonicalElement,
    CoordUnit,
    ElementType,
    bbox_is_valid,
    bbox_of,
    check_strings,
    doc_id_of,
    json_int,
    json_str,
    page_count_of,
    string_list,
)

_REQUIRED_FIELDS = ("type", "page", "bbox")


@dataclass(frozen=True)
class Profile:
    """One OCR-model mapping profile, loaded from its JSON description."""

    name: str
    fields: dict[str, tuple[str, ...]]
    label_map: dict[str, ElementType]
    drop_labels: frozenset[str]
    description: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> Profile:
        """Raises MalformedInput naming a missing or unreadable field."""
        try:
            fields = {
                canonical: string_list([raw] if isinstance(raw, str) else raw)
                for canonical, raw in d.get("fields", {}).items()
            }
            missing = [f for f in _REQUIRED_FIELDS if f not in fields]
            if missing:
                raise ValueError(f"no mapping for the canonical fields {missing}")
            profile = cls(
                name=json_str(d["name"]),
                fields=fields,
                label_map={k: ElementType(v) for k, v in d.get("label_map", {}).items()},
                drop_labels=frozenset(string_list(d.get("drop_labels", []))),
                description=d.get("description", ""),
            )
            check_strings(profile.description)
            return profile
        except BAD_FIELD as exc:
            raise bad_field(MalformedInput, "profile", exc) from exc

    def pick(self, block: dict, canonical_field: str) -> Any:
        for key in self.fields.get(canonical_field, ()):
            if key in block and block[key] is not None:
                return block[key]
        return None


@functools.cache
def _builtin_profiles() -> dict[str, Profile]:
    profiles = {}
    for entry in sorted(Path(__file__).with_name("profiles").glob("*.json")):
        profile = Profile.from_dict(json.loads(entry.read_text(encoding="utf-8")))
        profiles[profile.name] = profile
    return profiles


def registered_profiles() -> dict[str, Profile]:
    return dict(_builtin_profiles())


def load_profile(name_or_path: str) -> Profile:
    """Resolve a registered profile name, or load a profile file by path."""
    profiles = registered_profiles()
    if name_or_path in profiles:
        return profiles[name_or_path]
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        return Profile.from_dict(read_json(path))  # type: ignore[arg-type]
    raise SchemaUnknown(
        f"unknown profile {name_or_path!r}; registered: {sorted(profiles)}"
    )


@dataclass
class NormalizationReport:
    """Accounting for everything the mapping changed or dropped."""

    unknown_labels: dict[str, int] = field(default_factory=dict)
    dropped: list[dict] = field(default_factory=list)
    element_count: int = 0

    def count_unknown(self, label: str) -> None:
        self.unknown_labels[label] = self.unknown_labels.get(label, 0) + 1

    def to_dict(self) -> dict:
        return {
            "element_count": self.element_count,
            "unknown_labels": dict(sorted(self.unknown_labels.items())),
            "dropped": self.dropped,
        }


@dataclass
class NormalizationResult:
    document: CanonicalDocument
    report: NormalizationReport


def _as_block_list(raw_doc: Union[dict, list]) -> tuple[list[dict], dict]:
    """Accept either a bare block array or a wrapper object with metadata."""
    if isinstance(raw_doc, list):
        return raw_doc, {}
    if isinstance(raw_doc, dict):
        for key in ("blocks", "elements", "content_list"):
            if key in raw_doc and isinstance(raw_doc[key], list):
                return raw_doc[key], raw_doc
        raise MalformedInput("raw document object has no blocks/elements array")
    raise MalformedInput(f"raw document must be a JSON array or object, got {type(raw_doc).__name__}")


def _checked(where: str, convert: Callable[..., Any], *values: Any, key: str = "") -> Any:
    """``convert(*values)``; a value it rejects is MalformedInput naming ``where``."""
    try:
        return convert(*values)
    except BAD_FIELD as exc:
        raise bad_field(MalformedInput, where, exc, key) from exc


def normalize_elements(
    raw_doc: Union[dict, list],
    schema: Union[str, Profile],
    doc_id: str = "doc",
) -> NormalizationResult:
    """Map one raw OCR document into a CanonicalDocument.

    Deterministic: the same bytes and profile always produce the same
    document.  Source reading order is preserved; idx is assigned densely
    after profile-declared drops.
    """
    profile = schema if isinstance(schema, Profile) else load_profile(schema)
    blocks, meta = _as_block_list(raw_doc)

    report = NormalizationReport()
    elements: list[CanonicalElement] = []
    idx = 0
    for pos, block in enumerate(blocks):
        if not isinstance(block, dict):
            raise MalformedInput(f"block #{pos} is not an object")
        raw_label = profile.pick(block, "type")
        if raw_label is None:
            raise MalformedInput(f"block #{pos} is missing its type field")
        _checked(f"block #{pos}", json_str, raw_label, key="type")
        if raw_label in profile.drop_labels:
            report.dropped.append({"position": pos, "label": raw_label})
            continue
        etype = profile.label_map.get(raw_label)
        if etype is None:
            report.count_unknown(raw_label)
            etype = ElementType.OTHER

        page = profile.pick(block, "page")
        if page is None:
            raise MalformedInput(f"block #{pos} is missing its page field")
        bbox_raw = profile.pick(block, "bbox")
        if bbox_raw is None:
            raise MalformedInput(f"block #{pos} is missing its bbox field")
        if not bbox_is_valid(bbox_raw):
            raise BBoxInvalid(f"block #{pos} has invalid bbox {bbox_raw!r}")

        content = profile.pick(block, "content")
        content = "" if content is None else content
        table_html = profile.pick(block, "table_html")
        if etype is ElementType.TABLE:
            table_html = "" if table_html is None else table_html
        else:
            table_html = None
        asset_ref = profile.pick(block, "asset_ref")
        # Only strings that reach an artifact: a dropped block keeps its label.
        _checked(f"block #{pos}", check_strings, content, table_html, asset_ref)

        elements.append(
            CanonicalElement(
                idx=idx,
                etype=etype,
                content=content,
                page=_checked(f"block #{pos}", json_int, page, key="page"),
                bbox=bbox_of(bbox_raw),
                table_html=table_html,
                asset_ref=asset_ref,
            )
        )
        idx += 1

    report.element_count = len(elements)
    page_count = meta.get("page_count")
    if page_count is None:
        page_count = max((e.page for e in elements), default=0) + 1
    document = CanonicalDocument(
        doc_id=_checked("document", doc_id_of, meta.get("doc_id", doc_id), key="doc_id"),
        page_count=_checked("document", page_count_of, page_count, key="page_count"),
        coord_unit=_checked(
            "document", CoordUnit, meta.get("coord_unit", "pixel"), key="coord_unit"
        ),
        source_schema=profile.name,
        elements=elements,
    )
    return NormalizationResult(document=document, report=report)
