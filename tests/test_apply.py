from __future__ import annotations

from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstitch.apply import (
    ResolvedDocument,
    assign_levels,
    attach_links,
    check_table_conservation,
    check_text_conservation,
    merge_tables,
    merge_text,
)
from docstitch.model import ElementType
from docstitch.tables import parse_table
from docstitch.textrules import join_fragments
from docstitch.tree import NodeKind, build_tree

from .helpers import stack_elements


def _resolved(doc):
    return ResolvedDocument.from_document(doc)


def test_merge_text_space_join():
    d = stack_elements(
        "t", [("text", "propagation can", 0), ("text", "be decomposed", 1)]
    )
    r = merge_text(_resolved(d), [(0, 1)])
    assert len(r.elements) == 1
    assert r.elements[0].content == "propagation can be decomposed"
    assert r.merge_log.remap == {1: 0}


def test_merge_text_dehyphenation():
    d = stack_elements("t", [("text", "decom-", 0), ("text", "posed", 1)])
    r = merge_text(_resolved(d), [(0, 1)])
    assert r.elements[0].content == "decomposed"


def test_merge_text_chain_collapses_transitively():
    d = stack_elements(
        "t",
        [
            ("text", "one two", 0),
            ("text", "three four", 1),
            ("text", "five.", 1),
        ],
    )
    r = merge_text(_resolved(d), [(0, 1), (1, 2)])
    assert len(r.elements) == 1
    assert r.elements[0].content == "one two three four five."
    assert r.merge_log.records[0].absorbed == [1, 2]
    assert r.merge_log.resolve(2) == 0


def test_merge_text_non_adjacent_pair_skipped_and_flagged():
    d = stack_elements(
        "t",
        [
            ("text", "a", 0),
            ("text", "b", 0),
            ("text", "c", 0),
        ],
    )
    r = merge_text(_resolved(d), [(0, 2)])
    assert len(r.elements) == 3
    assert any(f.startswith("PairNotAdjacent") for f in r.flags)


def test_merge_text_second_pair_on_a_fragment_is_flagged_duplicated():
    d = stack_elements("t", [("text", "a", 0), ("text", "b", 0)])
    r = merge_text(_resolved(d), [(0, 1), (0, 1)])
    assert [e.content for e in r.elements] == ["a b"]
    assert r.flags == ["PairDuplicated:0->1"]


def test_merge_text_keeps_src_geometry_and_idx():
    d = stack_elements("t", [("text", "left", 0), ("text", "right", 1)])
    src_bbox = d.elements[0].bbox
    r = merge_text(_resolved(d), [(0, 1)])
    assert r.elements[0].idx == 0
    assert r.elements[0].bbox == src_bbox
    # absorbed geometry is recoverable from the log
    frag_pages = [f["page"] for f in r.merge_log.records[0].fragments]
    assert frag_pages == [0, 1]


U3 = (
    "<table><tr><th>Item</th><th>Date</th><th>Status</th></tr>"
    "<tr><td>Rope</td><td>2023-</td><td>ok</td></tr></table>"
)
L3 = "<table><tr><td></td><td>01-15</td><td>ok</td></tr></table>"


def _table_doc():
    return stack_elements(
        "t",
        [
            ("table", "", 0, {"table_html": U3}),
            ("table", "", 1, {"table_html": L3}),
        ],
    )


def test_merge_tables_partial_fusion():
    d = _table_doc()
    r = merge_tables(_resolved(d), [(0, 1, [0, 1, 0])])
    assert len(r.elements) == 1
    merged = r.elements[0]
    assert "2023-01-15" in (merged.table_html or "")
    assert r.merge_log.records[0].judgement == [0, 1, 0]
    assert r.merge_log.records[0].fused[0]["joined"] == "2023-01-15"
    assert r.merge_log.remap == {1: 0}


def test_merge_tables_empty_judgement_is_noop():
    d = _table_doc()
    r = merge_tables(_resolved(d), [(0, 1, [])])
    assert len(r.elements) == 2
    assert r.merge_log.records == []


def test_merge_tables_column_mismatch_flagged():
    d = stack_elements(
        "t",
        [
            ("table", "", 0, {"table_html": "<table><tr><td>a</td></tr></table>"}),
            ("table", "", 1, {"table_html": "<table><tr><td>a</td><td>b</td></tr></table>"}),
        ],
    )
    r = merge_tables(_resolved(d), [(0, 1, [1])])
    assert len(r.elements) == 2
    assert r.merge_log.records == []
    assert r.flags == ["TableMergeSkipped:0->1:column counts differ: 1 vs 2"]


@pytest.mark.parametrize(
    "pair, flag",
    [
        ((0, 7), "TableMergeSkipped:0->7:table pair (0, 7) not in document"),
        ((0, 2), "TableMergeSkipped:0->2:merge_tables endpoints must both be tables"),
    ],
)
def test_merge_tables_skips_a_missing_or_non_table_endpoint(pair, flag):
    d = stack_elements("t", [("table", "", 0, {"table_html": U3}), ("table", "", 1, {"table_html": L3}),
                             ("text", "after", 1)])
    r = merge_tables(_resolved(d), [(*pair, [0, 0, 0])])
    assert (len(r.elements), r.merge_log.records, r.flags) == (3, [], [flag])


def test_merge_past_the_slot_cap_is_skipped_and_conserves():
    # Two 501x100 tables hold 50,100 slots each; merged they would hold
    # 100,200, a table the parser refuses.
    def table(tag: str) -> str:
        return "<table>" + "".join(
            "<tr>" + f"<td>{tag}{r}</td>" * 100 + "</tr>" for r in range(501)
        ) + "</table>"

    d = stack_elements("t", [("table", "", 0, {"table_html": table("u")}),
                             ("table", "", 1, {"table_html": table("l")}),
                             ("table", "", 2, {"table_html": table("m")})])
    r = merge_tables(_resolved(d), [(0, 1, [0] * 100), (1, 2, [0] * 100)])
    assert r.merge_log.records == []
    assert r.flags == [
        "TableMergeSkipped:0->1:table grid exceeds 100000 slots",
        "TableMergeSkipped:1->2:table grid exceeds 100000 slots",
    ]
    assert check_table_conservation(d, r) == []


def test_merge_tables_conservation_check(corpus):
    # exercised against the real merged corpus docs in acceptance; here a
    # direct unit check on the partial fusion
    d = _table_doc()
    r = merge_tables(_resolved(d), [(0, 1, [0, 1, 0])])
    assert check_table_conservation(d, r) == []


def _three_page_table():
    # A fused cell in each joint: "con-" + "tinued" and "over-" + "flow".
    pages = [
        "<table><tr><th>k</th><th>v</th></tr><tr><td>a</td><td>con-</td></tr></table>",
        "<table><tr><td>b</td><td>tinued</td></tr><tr><td>c</td><td>over-</td></tr></table>",
        "<table><tr><td>d</td><td>flow</td></tr></table>",
    ]
    return stack_elements("t", [("table", "", page, {"table_html": html}) for page, html in enumerate(pages)])


@pytest.mark.parametrize(
    "pairs, records",
    [([(0, 1), (1, 2)], [(0, [1]), (0, [2])]), ([(1, 2), (0, 1)], [(1, [2]), (0, [1])])],
    ids=["in_order", "reversed"],
)
def test_merge_tables_follows_a_chain_over_three_pages(pairs, records):
    d = _three_page_table()
    r = merge_tables(_resolved(d), [(upper, lower, [0, 1]) for upper, lower in pairs])
    assert list(r.by_idx) == [0]
    assert r.flags == []
    assert [(m.src_idx, m.absorbed) for m in r.merge_log.records] == records
    assert r.merge_log.resolve(2) == 0
    cells = parse_table(r.by_idx[0].table_html).cell_texts()
    assert sorted(cells) == sorted(["k", "v", "a", "continued", "b", "c", "overflow", "d"])
    assert check_table_conservation(d, r) == []
    [node] = [n for n in build_tree(r).walk() if n.kind == NodeKind.VISUAL]
    assert [(page, tuple(box)) for page, box in node.bboxes] == [(e.page, e.bbox) for e in d.elements]


def test_table_conservation_catches_a_lost_chain_fragment():
    d = _three_page_table()
    r = merge_tables(_resolved(d), [(0, 1, [0, 1]), (1, 2, [0, 1])])
    merged = r.by_idx[0]
    r.by_idx[0] = replace(merged, table_html=merged.table_html.replace("<td>d</td>", "<td></td>"))
    assert check_table_conservation(d, r) == ["table 0: cell multiset not conserved"]


def test_merge_tables_skips_a_pair_whose_lower_table_holds_the_upper():
    row = "<table><tr><td>{}</td><td>{}</td></tr></table>"
    d = stack_elements("t", [("table", "", 0, {"table_html": row.format("a", "b")}),
                             ("table", "", 1, {"table_html": row.format("c", "d")})])
    r = merge_tables(_resolved(d), [(0, 1, [0, 0]), (1, 0, [0, 0])])
    assert list(r.by_idx) == [0]
    assert r.merge_log.remap == {1: 0}
    assert r.flags == ["TableMergeSkipped:1->0:table 0 already holds table 1"]
    assert sorted(parse_table(r.by_idx[0].table_html).cell_texts()) == ["a", "b", "c", "d"]
    assert check_table_conservation(d, r) == []


def test_assign_levels_stores_and_demotes():
    d = stack_elements(
        "t",
        [("title", "Keep", 0), ("title", "Not a title", 0), ("text", "body.", 0)],
    )
    r = assign_levels(_resolved(d), {0: 1, 1: -1})
    assert r.levels == {0: 1}
    assert r.by_idx[1].etype is ElementType.TEXT
    assert 1 not in r.levels


def test_assign_levels_missing_title_defaults_to_previous():
    d = stack_elements(
        "t",
        [("title", "A", 0), ("title", "B", 0), ("title", "C", 0)],
    )
    r = assign_levels(_resolved(d), {0: 1, 2: 2})
    assert r.levels == {0: 1, 1: 1, 2: 2}
    assert any(f.startswith("UnknownTitle:1") for f in r.flags)


def test_assign_levels_unknown_idx_flagged_and_skipped():
    d = stack_elements("t", [("title", "A", 0)])
    r = assign_levels(_resolved(d), {0: 1, 42: 3})
    assert r.levels == {0: 1}
    assert any(f.startswith("UnknownIdx:42") for f in r.flags)


def test_attach_links_routes_by_type():
    d = stack_elements(
        "t",
        [
            ("title", "Sec", 0),
            ("image", "", 0, {"asset_ref": "a.png"}),
            ("image_caption", "cap", 0),
        ],
    )
    r = attach_links(
        _resolved(d), [(2, 1), (1, 0)]
    )
    assert r.caption_links == {2: 1}
    assert r.section_links == {1: 0}


def test_attach_links_type_violation_dropped():
    d = stack_elements(
        "t",
        [("title", "Sec", 0), ("image_caption", "cap", 0)],
    )
    r = attach_links(_resolved(d), [(1, 0)])
    assert r.caption_links == {}
    assert any(f.startswith("TypeRuleViolation") for f in r.flags)


def test_attach_links_keeps_the_first_of_two_targets():
    d = stack_elements(
        "t",
        [("title", "A", 0), ("image", "", 0, {"asset_ref": "a.png"}), ("title", "B", 0)],
    )
    r = attach_links(_resolved(d), [(1, 0), (1, 0), (1, 2)])
    assert r.section_links == {1: 0}
    assert r.flags == ["LinkConflict:1->2 (kept 0)"]


def test_attach_links_remaps_absorbed_idx():
    d = stack_elements(
        "t",
        [
            ("title", "Sec", 0),
            ("table", "", 0, {"table_html": U3}),
            ("table", "", 1, {"table_html": L3}),
            ("table_caption", "cont.", 1),
        ],
    )
    r = _resolved(d)
    merge_tables(r, [(1, 2, [0, 0, 0])])
    attach_links(r, [(3, 2), (2, 0)])
    # caption pointed at the absorbed lower table; resolves to the survivor
    assert r.caption_links == {3: 1}
    assert r.section_links == {1: 0}


def test_empty_predictions_are_identity(corpus):
    for doc in corpus.values():
        r = _resolved(doc)
        merge_text(r, [])
        assign_levels(r, {
            e.idx: 1 for e in doc.elements if e.etype is ElementType.TITLE
        })
        attach_links(r, [])
        assert [e.idx for e in r.elements] == [e.idx for e in doc.elements]
        assert [e.content for e in r.elements] == [e.content for e in doc.elements]


# -- property tests -------------------------------------------------------

words = st.text(
    alphabet="abcdefghij -", min_size=1, max_size=12
).map(lambda s: s.strip() or "w")


@settings(max_examples=80, deadline=None)
@given(contents=st.lists(words, min_size=2, max_size=8), data=st.data())
def test_content_conservation_under_random_chains(contents, data):
    d = stack_elements("t", [("text", c, i) for i, c in enumerate(contents)])
    # pick a random subset of adjacent pairs (chains allowed)
    pair_flags = data.draw(
        st.lists(st.booleans(), min_size=len(contents) - 1, max_size=len(contents) - 1)
    )
    pairs = [(i, i + 1) for i, on in enumerate(pair_flags) if on]
    r = merge_text(_resolved(d), pairs)
    assert check_text_conservation(d, r) == []
    # every element accounted for: survivors + absorbed = original
    survivor_idx = {e.idx for e in r.elements}
    absorbed = set(r.merge_log.remap)
    assert survivor_idx | absorbed == {e.idx for e in d.elements}
    assert not (survivor_idx & absorbed)
    # merged contents equal the fold of their fragments
    for record in r.merge_log.records:
        expected = reduce(join_fragments, (f["content"] for f in record.fragments))
        assert r.by_idx[record.src_idx].content == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_table_conservation_under_random_judgements(data):
    # Three or four one-row tables of two columns, some repeating the first
    # table's row as a header; judgements in any order, reversed and repeated.
    n = data.draw(st.integers(3, 4))
    rows = data.draw(st.lists(st.sampled_from([("h", "k"), ("a", "b-"), ("c", "d"), ("e-", "f")]),
                              min_size=n, max_size=n))
    d = stack_elements("t", [
        ("table", "", page, {"table_html": f"<table><tr><td>{u}</td><td>{v}</td></tr></table>"})
        for page, (u, v) in enumerate(rows)
    ])
    idx = st.integers(0, n - 1)
    columns = st.one_of(st.just([]), st.lists(st.integers(0, 1), min_size=2, max_size=2))
    judgement = st.tuples(idx, idx, columns).filter(lambda j: j[0] != j[1])
    judgements = data.draw(st.lists(judgement, max_size=8))
    r = merge_tables(_resolved(d), judgements)
    assert check_table_conservation(d, r) == []
    assert all(r.merge_log.resolve(e.idx) in r.by_idx for e in d.elements)
