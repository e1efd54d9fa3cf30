from __future__ import annotations

from docstitch.apply import ResolvedDocument
from docstitch.pipeline import PipelineConfig
from docstitch.tree import (
    ExtractiveSummarizer,
    NodeKind,
    build_tree,
    chunk_nodes,
    summarize_nodes,
)

from .helpers import stack_elements


def _resolved_with_levels(doc, levels, caption_links=None, section_links=None):
    r = ResolvedDocument.from_document(doc)
    r.levels = dict(levels)
    r.caption_links = dict(caption_links or {})
    r.section_links = dict(section_links or {})
    return r


def test_parent_is_nearest_preceding_smaller_level():
    d = stack_elements(
        "t",
        [
            ("title", "A", 0),
            ("title", "B", 0),
            ("title", "C", 1),
            ("title", "D", 1),
        ],
    )
    tree = build_tree(_resolved_with_levels(d, {0: 1, 1: 2, 2: 2, 3: 1}))
    root = tree.root
    assert [c.title_text for c in root.children] == ["A", "D"]
    assert [c.title_text for c in root.children[0].children] == ["B", "C"]


def test_level_jump_parents_to_nearest_smaller():
    d = stack_elements("t", [("title", "A", 0), ("title", "B", 0)])
    tree = build_tree(_resolved_with_levels(d, {0: 1, 1: 3}))
    assert tree.root.children[0].children[0].title_text == "B"


def test_preamble_text_attaches_to_root():
    d = stack_elements(
        "t", [("text", "before any title.", 0), ("title", "A", 0), ("text", "body.", 0)]
    )
    tree = build_tree(_resolved_with_levels(d, {1: 1}))
    assert [e.idx for e in tree.root.body] == [0]
    assert [e.idx for e in tree.root.children[0].body] == [2]


def test_furniture_attaches_to_root():
    d = stack_elements(
        "t",
        [("page_header", "hdr", 0), ("title", "A", 0), ("page_footer", "ftr", 0)],
    )
    tree = build_tree(_resolved_with_levels(d, {1: 1}))
    assert [e.idx for e in tree.root.body] == [0, 2]


def test_visual_node_with_caption_under_linked_section():
    d = stack_elements(
        "t",
        [
            ("title", "A", 0),
            ("title", "B", 0),
            ("image", "", 0, {"asset_ref": "x.png"}),
            ("image_caption", "cap", 0),
        ],
    )
    tree = build_tree(
        _resolved_with_levels(
            d, {0: 1, 1: 2}, caption_links={3: 2}, section_links={2: 0}
        )
    )
    section_a = tree.root.children[0]
    visuals = [c for c in section_a.children if c.kind == NodeKind.VISUAL]
    assert len(visuals) == 1
    assert [e.idx for e in visuals[0].body] == [2, 3]


def test_unlinked_visual_falls_back_to_current_section():
    d = stack_elements(
        "t",
        [("title", "A", 0), ("image", "", 0, {"asset_ref": "x.png"})],
    )
    tree = build_tree(_resolved_with_levels(d, {0: 1}))
    section = tree.root.children[0]
    assert any(c.kind == NodeKind.VISUAL for c in section.children)


def test_visual_linked_to_a_non_section_falls_back_with_a_flag():
    d = stack_elements(
        "t",
        [("title", "A", 0), ("text", "body", 0), ("image", "", 0, {"asset_ref": "x.png"})],
    )
    tree = build_tree(_resolved_with_levels(d, {0: 1}, section_links={2: 1}))
    section = tree.root.children[0]
    assert [c.anchor for c in section.children if c.kind == NodeKind.VISUAL] == [2]
    assert tree.flags == ["VisualLinkUnplaced:2->1"]


def test_element_completeness(corpus):
    cfg = PipelineConfig()
    for doc in corpus.values():
        from docstitch.pipeline import run_pipeline

        result = run_pipeline(doc, cfg)
        tree_idx = result.tree.element_idx_multiset()
        resolved_idx = sorted(e.idx for e in result.resolved.elements)
        assert tree_idx == resolved_idx


def test_level_monotone_along_paths(corpus):
    from docstitch.pipeline import run_pipeline

    cfg = PipelineConfig()
    for doc in corpus.values():
        tree = run_pipeline(doc, cfg).tree

        def walk(node):
            for child in node.children:
                if child.kind == NodeKind.SECTION:
                    assert child.level > node.level
                walk(child)

        walk(tree.root)


def _section_with_paragraphs(lengths, threshold_marker=None):
    specs = [("title", "S", 0)]
    for i, n in enumerate(lengths):
        specs.append(("text", "x" * n, 0))
    d = stack_elements("t", specs)
    return build_tree(_resolved_with_levels(d, {0: 1}))


def test_chunk_nodes_below_threshold_unchanged():
    tree = _section_with_paragraphs([100, 100])
    chunk_nodes(tree, threshold=1000)
    section = tree.root.children[0]
    assert section.children == []
    assert len(section.body) == 2


def test_chunk_nodes_worked_example():
    # five paragraphs of 400 chars, threshold 1000: split after the third
    tree = _section_with_paragraphs([400] * 5)
    chunk_nodes(tree, threshold=1000)
    section = tree.root.children[0]
    assert section.body == []
    sizes = [len(c.body) for c in section.children]
    assert sizes == [3, 2]
    assert all(c.kind == NodeKind.SUBNODE for c in section.children)


def test_chunk_nodes_preserves_order_and_content():
    tree = _section_with_paragraphs([300, 500, 700, 200])
    section = tree.root.children[0]
    before = [e.idx for e in section.body]
    chunk_nodes(tree, threshold=600)
    after = [e.idx for c in section.children for e in c.body]
    assert after == before


def test_chunk_nodes_subnodes_inherit_title_path():
    tree = _section_with_paragraphs([800, 800])
    chunk_nodes(tree, threshold=500)
    section = tree.root.children[0]
    for sub in section.children:
        assert sub.title_path == section.title_path


def test_summarize_empty_section_uses_title():
    d = stack_elements("t", [("title", "Lonely Heading", 0)])
    tree = build_tree(_resolved_with_levels(d, {0: 1}))
    summarize_nodes(tree, ExtractiveSummarizer(max_sentences=2, cap_chars=50))
    assert tree.root.children[0].summary == "Lonely Heading"


def test_summarize_extractive_takes_lead_sentences():
    d = stack_elements(
        "t", [("title", "S", 0), ("text", "One. Two. Three.", 0)]
    )
    tree = build_tree(_resolved_with_levels(d, {0: 1}))
    summarize_nodes(tree, ExtractiveSummarizer(max_sentences=2, cap_chars=100))
    assert tree.root.children[0].summary == "One. Two."


def test_summarize_respects_cap():
    d = stack_elements("t", [("title", "S", 0), ("text", "word " * 200, 0)])
    tree = build_tree(_resolved_with_levels(d, {0: 1}))
    summarize_nodes(tree, ExtractiveSummarizer(max_sentences=5, cap_chars=40))
    assert len(tree.root.children[0].summary) <= 40


def test_summarize_mocked_backend_passthrough_and_fallback():
    from docstitch.tree import Summarizer

    class Fixed(Summarizer):
        name = "fixed"

        def summarize(self, node_id, title_path, paragraphs):
            return "custom summary"

    d = stack_elements("t", [("title", "S", 0), ("text", "Body text.", 0)])
    tree = build_tree(_resolved_with_levels(d, {0: 1}))
    summarize_nodes(tree, Fixed())
    assert tree.root.children[0].summary == "custom summary"


def test_summarize_backend_failure_falls_back_with_flag():
    from docstitch.errors import BackendUnavailable
    from docstitch.tree import Summarizer

    class Broken(Summarizer):
        name = "broken"

        def summarize(self, node_id, title_path, paragraphs):
            raise BackendUnavailable("nope")

    d = stack_elements("t", [("title", "S", 0), ("text", "Body text.", 0)])
    tree = build_tree(_resolved_with_levels(d, {0: 1}))
    summarize_nodes(tree, Broken())
    assert tree.root.children[0].summary == "Body text."
    assert any(f.startswith("SummarizerFallback") for f in tree.flags)


def test_every_non_root_node_gets_a_summary(corpus):
    from docstitch.pipeline import run_pipeline

    for doc in corpus.values():
        tree = run_pipeline(doc, PipelineConfig()).tree
        for node in tree.walk():
            if node.kind != NodeKind.ROOT:
                assert node.summary is not None


def test_node_boxes_cover_every_fragment_at_node_chunk_chars_50(corpus):
    # Each node lists, in order, the boxes of its title element (a section),
    # its body elements and, for a split section, its subnodes' elements;
    # a merged element lists one box per fragment, in a subnode too.
    from docstitch.pipeline import run_pipeline

    cfg = PipelineConfig.from_dict({"tree": {"node_chunk_chars": 50}})
    merged_in_subnodes = 0
    for doc in corpus.values():
        result = run_pipeline(doc, cfg)
        by_idx = result.resolved.by_idx
        fragments = {
            r.src_idx: [(f["page"], tuple(f["bbox"])) for f in r.fragments]
            for r in result.resolved.merge_log.records
        }

        def boxes(elements):
            return [b for e in elements for b in fragments.get(e.idx, [(e.page, tuple(e.bbox))])]

        for node in result.tree.walk():
            expected = boxes([by_idx[node.anchor]]) if node.kind == NodeKind.SECTION else []
            expected += boxes(node.body)
            if node.kind == NodeKind.SECTION:
                expected += boxes(
                    e for c in node.children if c.kind == NodeKind.SUBNODE for e in c.body
                )
            assert [(p, tuple(b)) for p, b in node.bboxes] == expected, (doc.doc_id, node.node_id)
            if node.kind == NodeKind.SUBNODE:
                merged_in_subnodes += sum(e.idx in fragments for e in node.body)
    assert merged_in_subnodes > 0
