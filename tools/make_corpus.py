#!/usr/bin/env python3
"""Regenerate the hand-designed fixture corpus and its pinned goldens.

The corpus documents are authored here (content, layout and expected
structures were designed together and the expectations in the test suite
were derived by hand from these definitions).  Run after any deliberate
rule change, then re-review the diffs before committing:

    python3 tools/make_corpus.py

With ``--check`` it regenerates everything into a temporary directory
instead, compares it byte for byte with ``tests/fixtures/`` and exits 1
naming each file that differs, is missing or is extra:

    python3 tools/make_corpus.py --check

Writes:
    tests/fixtures/corpus/<doc>.json        canonical documents
    tests/fixtures/gold/<doc>.gold.json     gold annotations
    tests/fixtures/golden/<doc>.tree.json   pinned tree artifacts (rules mode)
    tests/fixtures/golden/<doc>.md          pinned markdown artifacts
    tests/fixtures/golden/eval_scores.json  pinned rule-baseline scores
    tests/fixtures/golden/artifact_digests.json  sha256 of every other
                                            ``process`` artifact per document
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from docstitch.cli import main as cli_main  # noqa: E402
from docstitch.evaluation import GoldAnnotations, evaluate  # noqa: E402
from docstitch.exporters import export_json, export_markdown  # noqa: E402
from docstitch.model import (  # noqa: E402
    CanonicalDocument,
    CanonicalElement,
    CoordUnit,
    ElementType,
    validate_document,
)
from docstitch.pipeline import PipelineConfig, run_pipeline  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
# The fixture directories this script writes, every file in them.
GENERATED_DIRS = ("corpus", "gold", "golden")
# The process artifacts pinned by digest; tree.json and .md are pinned whole.
DIGESTED_ARTIFACTS = ("chunks.json", "predictions.json", "report.json", "merge_log.json")


def build(doc_id: str, specs, page_count=None) -> CanonicalDocument:
    """specs: (etype, content, page[, kwargs]) in reading order; boxes stack."""
    elements = []
    y_by_page: dict[int, float] = {}
    for idx, spec in enumerate(specs):
        etype, content, page = spec[0], spec[1], spec[2]
        kwargs = dict(spec[3]) if len(spec) > 3 else {}
        y = y_by_page.get(page, 40.0)
        bbox = kwargs.pop("bbox", (60.0, y, 540.0, y + 40.0))
        y_by_page[page] = bbox[3] + 10.0
        elements.append(
            CanonicalElement(
                idx=idx,
                etype=ElementType(etype),
                content=content,
                page=page,
                bbox=tuple(float(v) for v in bbox),
                **kwargs,
            )
        )
    pages = page_count or (max((e.page for e in elements), default=0) + 1)
    return CanonicalDocument(
        doc_id=doc_id, page_count=pages, coord_unit=CoordUnit.PIXEL, elements=elements
    )


def field_manual() -> tuple[CanonicalDocument, dict]:
    """Flagship: 9 pages, 23 titles (depth 4), 15 texts (14 adjacent pairs,
    5 filter candidates, 2 rule merges), one cross-page table ([0,1,0]),
    two figures with captions."""
    u_html = (
        "<table><tr><th>Item</th><th>Date</th><th>Status</th></tr>"
        "<tr><td>Helmet</td><td>2024-03-01</td><td>ok</td></tr>"
        "<tr><td>Rope</td><td>2024-</td><td>ok</td></tr></table>"
    )
    l_html = (
        "<table><tr><td></td><td>03-02</td><td>ok</td></tr>"
        "<tr><td>Ladder</td><td>2024-03-05</td><td>worn</td></tr></table>"
    )
    specs = [
        ("page_header", "GRADIENT CORP", 0),                                   # 0
        ("title", "Gradient Field Manual", 0),                                 # 1
        ("title", "1. Operations", 0),                                         # 2
        ("text", "The manual explains daily operations.", 0),                  # 3
        ("title", "1.1 Staffing", 0),                                          # 4
        ("text", "Staff rotate weekly.", 0),                                   # 5
        ("title", "1.2 Logistics", 1),                                         # 6
        ("text", "Supplies arrive by truck and are logged on arrival.", 1),    # 7
        ("title", "1.2.1 Supplies", 1),                                        # 8
        ("text", "Critical items are flagged for manual recount and the list is decom-", 1),  # 9
        ("text", "posed into shelf-stable and perishable groups.", 1),         # 10
        ("title", "1.2.2 Transport", 1),                                       # 11
        ("title", "2. Safety", 2),                                             # 12
        ("text", "Safety briefings happen at dawn.", 2),                       # 13
        ("title", "2.1 Equipment", 2),                                         # 14
        ("text", "Helmets are issued to every crew member", 2),                # 15
        ("title", "2.1.1 Helmets", 2),                                         # 16
        ("image", "", 2, {"asset_ref": "figs/helmet.png"}),                    # 17
        ("image_caption", "Figure 1: Standard issue helmet.", 2),              # 18
        ("title", "2.1.2 Harnesses", 3),                                       # 19
        ("text", "Harness checks follow the helmet inspection.", 3),           # 20
        ("title", "2.2 Training", 3),                                          # 21
        ("text", "Refresher courses test the proposed meth", 3),               # 22
        ("title", "3. Procedures", 4),                                         # 23
        ("text", "od achieves full compliance in drills.", 4),                 # 24
        ("formula", "v = d / t", 4),                                           # 25
        ("title", "3.1 Setup", 4),                                             # 26
        ("text", "Setup begins with the perimeter:", 4),                       # 27
        ("title", "3.2 Checks", 5),                                            # 28
        ("text", "all cones are placed before sunrise.", 5),                   # 29
        ("title", "3.2.1 Morning", 5),                                         # 30
        ("title", "3.2.2 Evening", 5),                                         # 31
        ("table_caption", "Table 1: Inspection schedule", 5),                  # 32
        ("table", "", 5, {"table_html": u_html}),                              # 33
        ("table_caption", "Table 1 (continued)", 6),                           # 34
        ("table", "", 6, {"table_html": l_html}),                              # 35
        ("title", "4. Reporting", 6),                                          # 36
        ("text", "Reports are filed in triplicate.", 6),                       # 37
        ("title", "4.1 Forms", 6),                                             # 38
        ("image", "", 6, {"asset_ref": "figs/form.png"}),                      # 39
        ("image_caption", "Figure 2: Reporting form.", 6),                     # 40
        ("title", "4.2 Archive", 7),                                           # 41
        ("text", "Archives are kept for seven years", 7),                      # 42
        ("title", "5. Review", 7),                                             # 43
        ("title", "5.1 Quarterly", 8),                                         # 44
        ("text", "2024 marked the first early disposal.", 8),                  # 45
        ("title", "5.2 Annual", 8),                                            # 46
        ("title", "6. Closing", 8),                                            # 47
        ("page_footer", "page 9", 8),                                          # 48
    ]
    doc = build("field_manual", specs)
    levels = {1: 1}
    levels.update({i: 2 for i in (2, 12, 23, 36, 43, 47)})
    levels.update({i: 3 for i in (4, 6, 14, 21, 26, 28, 38, 41, 44, 46)})
    levels.update({i: 4 for i in (8, 11, 16, 19, 30, 31)})
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "field_manual",
        "hierarchy": {str(k): v for k, v in sorted(levels.items())},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        # (27, 29) is a true continuation the rule baseline misses on purpose.
        "text_pairs": [[9, 10], [22, 24], [27, 29]],
        "assoc_pairs": [
            [17, 16], [18, 17], [32, 33], [33, 31], [34, 35], [35, 31], [39, 38], [40, 39]
        ],
        "table_judgements": [{"upper_idx": 33, "lower_idx": 35, "judgement": [0, 1, 0]}],
        "evidence_gold": [
            [5, [60.0, 220.0, 540.0, 260.0]],
            [6, [60.0, 40.0, 540.0, 80.0]],
        ],
    }
    return doc, gold


def audit_report() -> tuple[CanonicalDocument, dict]:
    """Chain truncation (a->b->c), header-repeat table merge, and a
    rejected unequal-column boundary pair."""
    pair_upper = (
        "<table><tr><th>Account</th><th>Balance</th></tr>"
        "<tr><td>Cash</td><td>100</td></tr></table>"
    )
    pair_lower = (
        "<table><tr><th>Account</th><th>Balance</th></tr>"
        "<tr><td>Bonds</td><td>250</td></tr></table>"
    )
    trail_2col = "<table><tr><td>x</td><td>y</td></tr></table>"
    lead_3col = "<table><tr><td>a</td><td>b</td><td>c</td></tr></table>"
    specs = [
        ("title", "Audit Report 2024", 0),                                     # 0
        ("title", "1. Findings", 0),                                           # 1
        ("text", "The ledger shows a sys-", 0),                                # 2
        ("text", "tematic rounding offset that accumu-", 1),                   # 3
        ("text", "lates across quarters.", 1),                                 # 4
        ("title", "2. Evidence", 1),                                           # 5
        ("table_caption", "Balances by account", 1),                           # 6
        ("table", "", 1, {"table_html": pair_upper}),                          # 7
        ("table", "", 2, {"table_html": pair_lower}),                          # 8
        ("text", "Totals were reconciled against bank statements.", 2),        # 9
        ("table", "", 2, {"table_html": trail_2col}),                          # 10
        ("table", "", 3, {"table_html": lead_3col}),                           # 11
        ("title", "3. Remarks", 3),                                            # 12
        ("text", "No material misstatements were found.", 3),                  # 13
    ]
    doc = build("audit_report", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "audit_report",
        "hierarchy": {"0": 1, "1": 2, "5": 2, "12": 2},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [[2, 3], [3, 4]],
        "assoc_pairs": [[6, 7], [7, 5], [8, 5], [10, 5], [11, 5]],
        "table_judgements": [{"upper_idx": 7, "lower_idx": 8, "judgement": [0, 0]}],
        "evidence_gold": [],
    }
    return doc, gold


def prose_tale() -> tuple[CanonicalDocument, dict]:
    """Sparse uniform headings (shape grouping), long bodies for node
    chunking, one mid-word truncation inside a chapter."""
    para = (
        "The road unwound slowly beneath their boots, and every turn of it "
        "brought a new rumor of weather: first a dry wind off the terraces, "
        "then the smell of rain that never arrived, then the dust again. "
        "They walked until the lamps of the village showed like sparks, "
        "and nobody spoke of the bridge until the bridge itself appeared."
    )  # ~325 chars, so five of these cross the default subnode threshold early
    specs = [
        ("title", "Chapter One", 0),                                           # 0
        ("text", para, 0),                                                     # 1
        ("text", para, 0),                                                     # 2
        ("text", para, 1),                                                     # 3
        ("text", para, 1),                                                     # 4
        ("text", para, 1),                                                     # 5
        ("title", "Chapter Two", 2),                                           # 6
        ("text", para, 2),                                                     # 7
        ("text", "The ferryman counted the coins twice and pock-", 2),         # 8
        ("text", "eted them with a shrug before casting off.", 3),             # 9
        ("text", para, 3),                                                     # 10
        ("text", para, 3),                                                     # 11
        ("title", "Chapter Three", 4),                                         # 12
        ("text", para, 4),                                                     # 13
        ("text", para, 4),                                                     # 14
    ]
    doc = build("prose_tale", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "prose_tale",
        "hierarchy": {"0": 1, "6": 1, "12": 1},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [[8, 9]],
        "assoc_pairs": [],
        "table_judgements": [],
        "evidence_gold": [],
    }
    return doc, gold


def survey_depth4() -> tuple[CanonicalDocument, dict]:
    """Numbered outline to depth 4 with no document title (offset 0), a
    plain heading nested under a numbered one, and a level jump (1 -> 3)."""
    specs = [
        ("title", "1. Scope", 0),                                              # 0
        ("text", "The survey covers four districts.", 0),                      # 1
        ("title", "1.1 Sampling", 0),                                          # 2
        ("title", "1.1.1 Frames", 0),                                          # 3
        ("title", "1.1.1.1 Urban frames", 1),                                  # 4
        ("text", "Urban frames were drawn from the register.", 1),             # 5
        ("title", "2. Instruments", 1),                                        # 6
        ("title", "Discussion Notes", 1),                                      # 7
        ("text", "Questionnaires were piloted twice.", 1),                     # 8
        ("title", "3. Results", 2),                                            # 9
        ("title", "3.1.1 Detail tables", 2),                                   # 10
        ("text", "Non-response stayed below five percent.", 2),                # 11
    ]
    doc = build("survey_depth4", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "survey_depth4",
        "hierarchy": {
            "0": 1, "2": 2, "3": 3, "4": 4, "6": 1, "7": 2, "9": 1, "10": 3
        },
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [],
        "assoc_pairs": [],
        "table_judgements": [],
        "evidence_gold": [],
    }
    return doc, gold


def cjk_brochure() -> tuple[CanonicalDocument, dict]:
    """CJK truncation joins (no space) and a continued table flagged by a
    marker caption; the CJK boundary cells lack connective tails, so the
    rule baseline keeps them separate (gold says fuse: a deliberate miss)."""
    u_html = (
        "<table><tr><th>项目</th><th>负责人</th></tr>"
        "<tr><td>安全检查记</td><td>王工</td></tr></table>"
    )
    l_html = (
        "<table><tr><td>录与归档</td><td>李工</td></tr>"
        "<tr><td>设备维护</td><td>赵工</td></tr></table>"
    )
    specs = [
        ("title", "施工简报", 0),                                               # 0
        ("text", "本月完成了脚手架加固，所有班组按计划轮换。", 0),                   # 1
        ("text", "下月将开展高空作业培训，重点覆盖新入场的施", 0),                   # 2
        ("text", "工人员与转岗人员。", 1),                                        # 3
        ("table_caption", "表一：任务分工", 1),                                   # 4
        ("table", "", 1, {"table_html": u_html}),                              # 5
        ("table_caption", "表一（续表）", 2),                                     # 6
        ("table", "", 2, {"table_html": l_html}),                              # 7
        ("text", "以上安排自下周一起执行。", 2),                                   # 8
    ]
    doc = build("cjk_brochure", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "cjk_brochure",
        "hierarchy": {"0": 1},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [[2, 3]],
        "assoc_pairs": [[4, 5], [5, 0], [6, 7], [7, 0]],
        "table_judgements": [{"upper_idx": 5, "lower_idx": 7, "judgement": [1, 0]}],
        "evidence_gold": [],
    }
    return doc, gold


def tables_galore() -> tuple[CanonicalDocument, dict]:
    """Three boundary pairs: full-row fusion (all ones), a repeated header,
    and a width-band rejection; plus an unparseable table that is skipped."""
    ones_u = (
        "<table><tr><th>Key</th><th>Value</th></tr>"
        "<tr><td>alpha-</td><td>2024-</td></tr></table>"
    )
    ones_l = "<table><tr><td>numeric</td><td>06-30</td></tr><tr><td>beta</td><td>7</td></tr></table>"
    head_u = (
        "<table><tr><th>City</th><th>Count</th></tr>"
        "<tr><td>Arles</td><td>12</td></tr></table>"
    )
    head_l = (
        "<table><tr><th>City</th><th>Count</th></tr>"
        "<tr><td>Basel</td><td>31</td></tr></table>"
    )
    wide = "<table><tr><td>w1</td><td>w2</td></tr></table>"
    narrow = "<table><tr><td>n1</td><td>n2</td></tr></table>"
    broken = "<div>not a table at all</div>"
    specs = [
        ("title", "Data Annex", 0),                                            # 0
        ("table", "", 0, {"table_html": ones_u}),                              # 1
        ("table", "", 1, {"table_html": ones_l}),                              # 2
        ("text", "Continuing values are shown above.", 1),                     # 3
        ("table", "", 1, {"table_html": head_u}),                              # 4
        ("table", "", 2, {"table_html": head_l}),                              # 5
        ("text", "Counts refresh nightly.", 2),                                # 6
        ("table", "", 2, {"table_html": wide, "bbox": (60.0, 300.0, 540.0, 380.0)}),   # 7
        ("table", "", 3, {"table_html": narrow, "bbox": (60.0, 40.0, 300.0, 120.0)}),  # 8
        ("text", "The narrow table is unrelated.", 3),                         # 9
        ("table", "", 3, {"table_html": broken}),                              # 10
        ("table", "", 4, {"table_html": wide}),                                # 11
    ]
    doc = build("tables_galore", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "tables_galore",
        "hierarchy": {"0": 1},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [],
        "assoc_pairs": [[1, 0], [2, 0], [4, 0], [5, 0], [7, 0], [8, 0], [10, 0], [11, 0]],
        "table_judgements": [
            {"upper_idx": 1, "lower_idx": 2, "judgement": [1, 1]},
            {"upper_idx": 4, "lower_idx": 5, "judgement": [0, 0]},
        ],
        "evidence_gold": [],
    }
    return doc, gold


def empty_doc() -> tuple[CanonicalDocument, dict]:
    doc = CanonicalDocument(
        doc_id="empty_doc", page_count=1, coord_unit=CoordUnit.PIXEL, elements=[]
    )
    gold = {
        "format_version": 1,
        "doc_id": "empty_doc",
        "hierarchy": {},
        "titles": {},
        "text_pairs": [],
        "assoc_pairs": [],
        "table_judgements": [],
        "evidence_gold": [],
    }
    return doc, gold


def memo_single() -> tuple[CanonicalDocument, dict]:
    specs = [
        ("title", "Office Memo", 0),                                           # 0
        ("text", "The kitchen closes early on Friday.", 0),                    # 1
        ("text", "Badge readers will be serviced at noon.", 0),                # 2
        ("image", "", 0, {"asset_ref": "figs/badge.png"}),                     # 3
        ("image_caption", "New badge reader location.", 0),                    # 4
        ("text", "Contact facilities with questions.", 0),                     # 5
    ]
    doc = build("memo_single", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "memo_single",
        "hierarchy": {"0": 1},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [],
        "assoc_pairs": [[3, 0], [4, 3]],
        "table_judgements": [],
        "evidence_gold": [],
    }
    return doc, gold


def long_appendix() -> tuple[CanonicalDocument, dict]:
    """30 pages, numbered sections throughout, one truncation pair deep in
    the document and a cross-page table around page 20."""
    specs: list = [("title", "Appendix Collection", 0)]
    filler = "Measurements continue in the tables that follow."
    lower_html = '<table><tr><td>R2</td><td>final</td></tr></table>'
    section = 0
    for page in range(30):
        if page == 21:
            # A continued table sits above the page's headings.
            specs.append(("table", "", page, {"table_html": lower_html}))
        if page % 3 == 0:
            section += 1
            specs.append(("title", f"{section}. Series {section}", page))
        specs.append(("title", f"{section}.{page % 3 + 1} Block {page}", page))
        if page == 7:
            specs.append(("text", "The calibration curve flattens be-", page))
        elif page == 8:
            specs.append(("text", "yond the second knee of the response.", page))
            specs.append(("text", filler, page))
        elif page == 20:
            specs.append(
                (
                    "table",
                    "",
                    page,
                    {
                        "table_html": "<table><tr><th>Run</th><th>Value</th></tr>"
                        "<tr><td>R1</td><td>10-</td></tr></table>"
                    },
                )
            )
        elif page == 21:
            specs.append(("text", filler, page))
        else:
            specs.append(("text", filler, page))
    doc = build("long_appendix", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    # Gold levels: document title 1, "N." 2, "N.M" 3.
    levels = {}
    for idx, content in titles.items():
        if content == "Appendix Collection":
            levels[idx] = 1
        elif content.split(".")[1].startswith(" "):
            levels[idx] = 2
        else:
            levels[idx] = 3
    text_pair = []
    texts = [e.idx for e in doc.elements if e.etype is ElementType.TEXT]
    by_idx = doc.index()
    for a, b in zip(texts, texts[1:]):
        if by_idx[a].content.endswith("be-"):
            text_pair.append([a, b])
    tables = [e.idx for e in doc.elements if e.etype is ElementType.TABLE]
    # Each table is governed by the nearest preceding heading.
    assoc = []
    for t in tables:
        preceding = [i for i in titles if i < t]
        assoc.append([t, max(preceding)])
    table_pair = [
        {"upper_idx": tables[0], "lower_idx": tables[1], "judgement": [0, 1]}
    ]
    gold = {
        "format_version": 1,
        "doc_id": "long_appendix",
        "hierarchy": {str(k): v for k, v in sorted(levels.items())},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": text_pair,
        "assoc_pairs": assoc,
        "table_judgements": table_pair,
        "evidence_gold": [],
    }
    return doc, gold


def figures_focus() -> tuple[CanonicalDocument, dict]:
    """Visual before any title (root fallback), an orphan caption with no
    visual in reach, and a caption linking across a page boundary."""
    specs = [
        ("image", "", 0, {"asset_ref": "figs/frontispiece.png"}),              # 0
        ("image_caption", "The frontispiece.", 0),                             # 1
        ("title", "Plates", 0),                                                # 2
        ("text", "Plates are reproduced at full size.", 0),                    # 3
        ("image", "", 2, {"asset_ref": "figs/plate-2.png"}),                   # 4
        ("image_caption", "Plate II, seen from the west bank.", 3),            # 5
        ("title", "Notes", 3),                                                 # 6
        ("text", "Notes follow the plate order.", 3),                          # 7
        ("image_caption", "An orphan caption with nothing to claim.", 5),      # 8
        ("text", "The appendix lists sources.", 5),                            # 9
    ]
    doc = build("figures_focus", specs, page_count=6)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "figures_focus",
        "hierarchy": {"2": 1, "6": 1},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [],
        "assoc_pairs": [[1, 0], [4, 2], [5, 4]],
        "table_judgements": [],
        "evidence_gold": [],
    }
    return doc, gold


def desk_notes() -> tuple[CanonicalDocument, dict]:
    """No titles at all: everything is preamble under the root, plus
    furniture, a formula and an unknown-type block."""
    specs = [
        ("page_header", "desk notes", 0),
        ("text", "Water the plant on Mondays.", 0),
        ("formula", "x = (-b ± sqrt(b^2 - 4ac)) / 2a", 0),
        ("other", "[stamp]", 0),
        ("text", "Return library books.", 1),
        ("page_footer", "1/2", 1),
    ]
    doc = build("desk_notes", specs)
    gold = {
        "format_version": 1,
        "doc_id": "desk_notes",
        "hierarchy": {},
        "titles": {},
        "text_pairs": [],
        "assoc_pairs": [],
        "table_judgements": [],
        "evidence_gold": [],
    }
    return doc, gold


def columns_mix() -> tuple[CanonicalDocument, dict]:
    """Column-break and interleaved-block truncations on one page."""
    specs = [
        ("title", "Minutes", 0),                                               # 0
        ("text", "the committee reviewed the bud-", 0, {"bbox": (60.0, 400.0, 290.0, 440.0)}),  # 1
        ("text", "get and approved it.", 0, {"bbox": (310.0, 40.0, 540.0, 80.0)}),              # 2
        ("text", "Results improved as shown by fig-", 1),                      # 3
        ("image", "", 1, {"asset_ref": "figs/trend.png"}),                     # 4
        ("image_caption", "Attendance trend.", 1),                             # 5
        ("text", "ure eight's trend line.", 1),                                # 6
        ("text", "The meeting closed at nine.", 1),                            # 7
    ]
    doc = build("columns_mix", specs)
    titles = {e.idx: e.content for e in doc.elements if e.etype is ElementType.TITLE}
    gold = {
        "format_version": 1,
        "doc_id": "columns_mix",
        "hierarchy": {"0": 1},
        "titles": {str(k): v for k, v in sorted(titles.items())},
        "text_pairs": [[1, 2], [3, 6]],
        "assoc_pairs": [[4, 0], [5, 4]],
        "table_judgements": [],
        "evidence_gold": [],
    }
    return doc, gold


BUILDERS = [
    field_manual,
    audit_report,
    prose_tale,
    survey_depth4,
    cjk_brochure,
    tables_galore,
    empty_doc,
    memo_single,
    long_appendix,
    figures_focus,
    desk_notes,
    columns_mix,
]


def artifact_digests(doc_path: Path) -> dict[str, str]:
    """sha256 of each digested artifact ``docstitch process`` writes for a document."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["process", str(doc_path), "--out-dir", out])
        if code != 0:
            raise SystemExit(f"{doc_path.stem}: process failed")
        return {
            suffix: hashlib.sha256((Path(out) / f"{doc_path.stem}.{suffix}").read_bytes()).hexdigest()
            for suffix in DIGESTED_ARTIFACTS
        }


def generate(fixtures: Path) -> None:
    """Write the corpus, gold files and goldens under ``fixtures``."""
    corpus_dir, gold_dir, golden_dir = (fixtures / name for name in GENERATED_DIRS)
    for directory in (corpus_dir, gold_dir, golden_dir):
        directory.mkdir(parents=True, exist_ok=True)

    cfg = PipelineConfig()
    scores = {}
    digests = {}
    for builder in BUILDERS:
        doc, gold = builder()
        report = validate_document(doc)
        if not report.ok:
            raise SystemExit(f"{doc.doc_id}: fixture fails validation: {report.codes()}")
        (corpus_dir / f"{doc.doc_id}.json").write_text(doc.to_json(), encoding="utf-8")
        (gold_dir / f"{doc.doc_id}.gold.json").write_text(
            json.dumps(gold, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )

        result = run_pipeline(doc, cfg)
        (golden_dir / f"{doc.doc_id}.tree.json").write_text(
            export_json(result.tree), encoding="utf-8"
        )
        (golden_dir / f"{doc.doc_id}.md").write_text(
            export_markdown(result.tree), encoding="utf-8"
        )

        eval_report = evaluate(GoldAnnotations.from_dict(gold), result.predictions.to_dict())
        scores[doc.doc_id] = eval_report.to_dict()
        digests[doc.doc_id] = artifact_digests(corpus_dir / f"{doc.doc_id}.json")
        print(f"{doc.doc_id}: ok ({len(doc.elements)} elements)")

    (golden_dir / "eval_scores.json").write_text(
        json.dumps(scores, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    (golden_dir / "artifact_digests.json").write_text(
        json.dumps(dict(sorted(digests.items())), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(BUILDERS)} corpus documents + goldens")


def _files(fixtures: Path) -> dict[str, Path]:
    return {
        str(path.relative_to(fixtures)): path
        for name in GENERATED_DIRS
        for path in sorted((fixtures / name).glob("*"))
        if path.is_file()
    }


def check() -> int:
    """Regenerate into a temporary directory; 1 if any fixture differs."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            generate(Path(tmp))
        fresh, pinned = _files(Path(tmp)), _files(FIXTURES)
        problems = [f"missing from tests/fixtures: {n}" for n in sorted(set(fresh) - set(pinned))]
        problems += [f"not generated: tests/fixtures/{n}" for n in sorted(set(pinned) - set(fresh))]
        problems += [
            f"differs: tests/fixtures/{n}"
            for n in sorted(set(fresh) & set(pinned))
            if fresh[n].read_bytes() != pinned[n].read_bytes()
        ]
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"no difference: {len(fresh)} files under tests/fixtures/{{{','.join(GENERATED_DIRS)}}}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh regeneration with tests/fixtures/ instead of writing it",
    )
    if parser.parse_args().check:
        return check()
    generate(FIXTURES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
