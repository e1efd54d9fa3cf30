#!/usr/bin/env python3
"""Recount the corpus figures that ``perfbench/gen.py`` takes its rates from.

Run from the root of a source checkout::

    python3 perfbench/corpus_rates.py

It reads ``tests/fixtures/corpus`` and ``tests/fixtures/gold`` (read only)
and prints, next to the constants of ``gen.py``:

* the element counts of ``field_manual`` per feature, which ``gen.py``
  scales per page;
* the title levels of ``field_manual``'s gold hierarchy;
* the words per text element of ``field_manual``;
* the shapes and variants of every cross-page table pair in the corpus gold
  files (columns, body rows, split cells, repeated header rows);
* the element-type shares of ``field_manual`` and of the whole corpus.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

CORPUS = ROOT / "tests" / "fixtures" / "corpus"
GOLD = ROOT / "tests" / "fixtures" / "gold"
_ROW = re.compile(r"<tr>(.*?)</tr>", re.S)


def load(name: str) -> tuple[dict, dict]:
    doc = json.loads((CORPUS / f"{name}.json").read_text(encoding="utf-8"))
    gold = json.loads((GOLD / f"{name}.gold.json").read_text(encoding="utf-8"))
    return doc, gold


def feature_counts(doc: dict, gold: dict) -> dict[str, int]:
    """The counts ``gen.FEATURE_COUNTS`` names, read off one document."""
    by_idx = {e["idx"]: e for e in doc["elements"]}
    types = Counter(e["type"] for e in doc["elements"])
    splits = [(by_idx[a]["page"], by_idx[b]["page"]) for a, b in gold["text_pairs"]]
    cross = sum(1 for a, b in splits if a != b)
    continued = sum(1 for e in doc["elements"] if e["type"] == "table_caption" and "continued" in e["content"])
    return {
        "headings": types["title"] - 1,  # the first title is the document's
        "paragraphs": types["text"] - 2 * len(splits),
        "page_splits": len(splits) - cross,
        "cross_splits": cross,
        "figures": types["image"],
        "formulas": types["formula"],
        "table_pairs": len(gold["table_judgements"]),
        "continued_captions": continued,
        "headers": types["page_header"],
        "footers": types["page_footer"],
    }


def table_pairs() -> list[dict]:
    pairs = []
    for path in sorted(GOLD.glob("*.gold.json")):
        doc, gold = load(path.name[: -len(".gold.json")])
        by_idx = {e["idx"]: e for e in doc["elements"]}
        for j in gold["table_judgements"]:
            upper, lower = by_idx[j["upper_idx"]]["table_html"], by_idx[j["lower_idx"]]["table_html"]
            lower_rows = _ROW.findall(lower)
            pairs.append({
                "doc": doc["doc_id"],
                "columns": len(j["judgement"]),
                "upper_body_rows": sum(1 for r in _ROW.findall(upper) if "<th" not in r),
                "lower_body_rows": sum(1 for r in lower_rows if "<th" not in r),
                "split_cell": any(j["judgement"]),
                "repeated_header": any("<th" in r for r in lower_rows),
            })
    return pairs


def shares(docs: list[dict]) -> dict[str, float]:
    return gen.type_shares([d for d in docs if d["elements"]])


def main() -> int:
    doc, gold = load("field_manual")
    print(f"field_manual: {doc['page_count']} pages, {len(doc['elements'])} elements")
    print(f"  {'feature':20s} {'corpus':>6s} {'gen.py':>6s}  (per {gen.UNIT_PAGES} pages)")
    for key, n in feature_counts(doc, gold).items():
        print(f"  {key:20s} {n:6d} {gen.FEATURE_COUNTS[key]:6d}")
    levels = Counter(gold["hierarchy"].values())
    print(f"  heading levels 2/3/4: {[levels[k] for k in (2, 3, 4)]}   gen.py: {list(gen.LEVEL_COUNTS)}")
    words = [len(e["content"].split()) for e in doc["elements"] if e["type"] == "text"]
    print(f"  words per text: {min(words)}-{max(words)}, mean {sum(words) / len(words):.1f}   "
          f"gen.py: {gen.TEXT_WORDS[0]}-{gen.TEXT_WORDS[1]}")
    pairs = table_pairs()
    print(f"cross-page table pairs in the corpus gold files: {len(pairs)}")
    for p in pairs:
        print(f"  {json.dumps(p)}")
    print(f"  split cell in {sum(p['split_cell'] for p in pairs)}, repeated header in "
          f"{sum(p['repeated_header'] for p in pairs)}   gen.py: shares {gen.SPLIT_CELL_SHARE:.3f}, "
          f"{gen.REPEATED_HEADER_SHARE:.3f}")
    print(f"element types, field_manual: {json.dumps(shares([doc]))}")
    corpus = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(CORPUS.glob("*.json"))]
    print(f"element types, whole corpus ({sum(len(d['elements']) for d in corpus)} elements): "
          f"{json.dumps(shares(corpus))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
