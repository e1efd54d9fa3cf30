from __future__ import annotations

import enum
import io
import json
import random
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import docstitch.exporters
from docstitch.apply import ResolvedDocument
from docstitch.exporters import export_json, export_markdown, tree_from_json, write_json
from docstitch.model import CanonicalDocument, CanonicalElement, CoordUnit, ElementType
from docstitch.pipeline import PipelineConfig, run_pipeline
from docstitch.tree import DocNode, DocTree, NodeKind, build_tree

from .conftest import GOLDEN_DIR
from .helpers import stack_elements
from .oracles import tree_to_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree_for(specs, levels):
    d = stack_elements("t", specs)
    r = ResolvedDocument.from_document(d)
    r.levels = levels
    return build_tree(r)


def test_markdown_heading_marker_count_matches_level():
    tree = _tree_for([("title", "Report", 0)], {0: 1})
    assert export_markdown(tree).startswith("# Report\n")
    tree = _tree_for([("title", "Deep", 0)], {0: 3})
    assert export_markdown(tree).startswith("### Deep\n")


def test_markdown_renders_tables_as_html_blocks():
    html = "<table><tr><td>x</td></tr></table>"
    tree = _tree_for(
        [("title", "T", 0), ("table", "", 0, {"table_html": html})], {0: 1}
    )
    assert html in export_markdown(tree)


def test_markdown_renders_images_with_captions():
    d = stack_elements(
        "t",
        [
            ("title", "T", 0),
            ("image", "", 0, {"asset_ref": "figs/x.png"}),
            ("image_caption", "The caption.", 0),
        ],
    )
    r = ResolvedDocument.from_document(d)
    r.levels = {0: 1}
    r.caption_links = {2: 1}
    md = export_markdown(build_tree(r))
    assert "![The caption.](figs/x.png)" in md


def test_markdown_emits_no_coordinates(corpus):
    for doc_id, doc in corpus.items():
        md = (GOLDEN_DIR / f"{doc_id}.md").read_text()
        for e in doc.elements:
            assert str(e.bbox[0]) not in md or e.bbox[0] in (0.0, 1.0)


def test_root_only_tree_exports():
    tree = DocTree(
        doc_id="nil",
        coord_unit=CoordUnit.PIXEL,
        root=DocNode(node_id="root", kind=NodeKind.ROOT, level=0, anchor=-1),
    )
    doc = json.loads(export_json(tree))
    assert doc["root"]["children"] == []
    assert export_markdown(tree) == "\n"


def test_json_round_trip_fixpoint(corpus):
    cfg = PipelineConfig()
    for doc in corpus.values():
        tree = run_pipeline(doc, cfg).tree
        first = export_json(tree)
        again = export_json(tree_from_json(first))
        assert again == first


def test_json_round_trip_preserves_markdown(corpus):
    cfg = PipelineConfig()
    for doc in corpus.values():
        tree = run_pipeline(doc, cfg).tree
        md_before = export_markdown(tree)
        md_after = export_markdown(tree_from_json(export_json(tree)))
        assert md_after == md_before


def test_tree_loader_shares_boxes_and_keeps_zero_signs():
    # A loaded tree's elements share one object per distinct page and box;
    # a box that holds a zero is never shared, so its -0.0 is written back.
    boxes = [(1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0), (0.0, 1.0, 2.0, 3.0), (-0.0, 1.0, 2.0, 3.0)]
    body = [CanonicalElement(i, ElementType.TEXT, f"b{i}", i % 2, box) for i, box in enumerate(boxes)]
    text = export_json(DocTree("d", CoordUnit.PIXEL, DocNode("root", NodeKind.ROOT, 0, -1, body=body)))
    tree = tree_from_json(text)
    assert export_json(tree) == text
    loaded = tree.root.body
    assert loaded[0].bbox is loaded[1].bbox
    assert [repr(e.bbox) for e in loaded] == [repr(box) for box in boxes]


def test_json_export_peak_memory_is_below_three_times_its_text(monkeypatch):
    # Export is the memory peak of a run: written as text with no
    # intermediate dict, its traced peak stays near 2x the output.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    raw = gen.make_report(random.Random("long_report:1"), "long_report", 225)
    tree = run_pipeline(CanonicalDocument.from_dict(raw), PipelineConfig()).tree
    tracemalloc.start()
    try:
        text = export_json(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), peak / len(text)


class Pieces(io.StringIO):
    """A text file that counts its writes."""

    writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_write_json_pieces_join_to_export_json(corpus, monkeypatch):
    # The 120-page report spans several pieces; and wherever a piece ends
    # (after any node: one part per piece at the extreme), the pieces join
    # to export_json's text.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    report = gen.make_report(random.Random("report:120"), "report", 120)
    docs = [*corpus.values(), CanonicalDocument.from_dict(report)]
    trees = [run_pipeline(doc, PipelineConfig()).tree for doc in docs]
    texts = [export_json(tree) for tree in trees]
    fp = Pieces()
    write_json(trees[-1], fp)
    assert fp.writes >= 3
    for parts in (1, 2, 3, 7):
        monkeypatch.setattr(docstitch.exporters, "_PIECE_PARTS", parts)
        for tree, text in zip(trees, texts):
            fp = Pieces()
            write_json(tree, fp)
            assert fp.getvalue() == text, (parts, tree.doc_id)
            assert export_json(tree) == text


# -- fuzz: exporters never fail on any valid tree -------------------------

node_ids = st.integers(min_value=0, max_value=10_000)
texts = st.text(max_size=40)


@st.composite
def doc_trees(draw):
    counter = {"n": 0}

    def new_node(kind, level):
        counter["n"] += 1
        return DocNode(
            node_id=f"n{counter['n']}",
            kind=kind,
            level=level,
            anchor=counter["n"],
            title_text=draw(texts) if kind == NodeKind.SECTION else None,
            title_path=[],
            summary=draw(st.one_of(st.none(), texts)),
            body=[
                CanonicalElement(
                    idx=counter["n"] * 100 + i,
                    etype=ElementType.TEXT,
                    content=draw(texts),
                    page=0,
                    bbox=(0.0, float(i), 10.0, float(i) + 1.0),
                )
                for i in range(draw(st.integers(min_value=0, max_value=3)))
            ],
        )

    root = DocNode(node_id="root", kind=NodeKind.ROOT, level=0, anchor=-1)
    sections = draw(st.integers(min_value=0, max_value=4))
    for _ in range(sections):
        sec = new_node(NodeKind.SECTION, 1)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            sec.children.append(new_node(NodeKind.SUBNODE, 1))
        root.children.append(sec)
    return DocTree(doc_id="fuzz", coord_unit=CoordUnit.PIXEL, root=root)


@settings(max_examples=60, deadline=None)
@given(tree=doc_trees())
def test_exporters_never_fail_on_generated_trees(tree):
    text = export_json(tree)
    assert export_json(tree_from_json(text)) == text
    export_markdown(tree)


# -- the template writer against the stdlib -------------------------------


class Kind(str, enum.Enum):
    SECTION = "section"


awkward_texts = st.text(max_size=12) | st.sampled_from(
    ["", "é 漢字 🙂", '"quoted" \\ back\\slash', "\x00\x1f\t\n\r\x7f", "\ud800", "%s %r {}"]
)
coords = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e16, 5e-324])
)
boxes = st.lists(coords, min_size=0, max_size=6).flatmap(
    lambda b: st.sampled_from([b, tuple(b)])
)
elements = st.builds(
    CanonicalElement,
    idx=st.integers(min_value=-5, max_value=10**6),
    etype=st.sampled_from(list(ElementType)),
    content=awkward_texts,
    page=st.integers(min_value=-1, max_value=10**4),
    bbox=boxes,
    table_html=st.none() | awkward_texts,
    asset_ref=st.none() | awkward_texts,
)
pairs = st.tuples(st.integers(min_value=0, max_value=99), boxes).flatmap(
    lambda p: st.sampled_from([p, list(p)])
) | st.lists(coords, max_size=3)


@st.composite
def awkward_trees(draw):
    """Trees of every element type and awkward scalar, with sections nested
    down to ``depth`` (so at least 3 deep whenever depth >= 3)."""

    def node(depth, kind):
        kinds = st.sampled_from([NodeKind.SECTION, NodeKind.SUBNODE, NodeKind.VISUAL, Kind.SECTION])
        width = draw(st.integers(min_value=1, max_value=2)) if depth else 0
        return DocNode(
            node_id=draw(awkward_texts),
            kind=kind,
            level=draw(st.integers(min_value=0, max_value=9)),
            anchor=draw(st.integers(min_value=-1, max_value=10**6)),
            title_text=draw(st.none() | awkward_texts),
            title_path=draw(st.lists(awkward_texts, max_size=3)),
            summary=draw(st.none() | awkward_texts),
            body=draw(st.lists(elements, max_size=3)),
            bboxes=draw(st.lists(pairs, max_size=3)),
            children=[node(depth - 1, draw(kinds)) for _ in range(width)],
        )

    depth = draw(st.integers(min_value=0, max_value=4))
    return DocTree(
        doc_id=draw(awkward_texts),
        coord_unit=draw(st.sampled_from(list(CoordUnit))),
        root=node(depth, NodeKind.ROOT),
    )


@settings(max_examples=100, deadline=None)
@given(tree=awkward_trees())
def test_json_export_is_the_stdlib_text_of_the_oracle_dict(tree):
    assert export_json(tree) == json.dumps(tree_to_dict(tree), ensure_ascii=False, indent=2) + "\n"

