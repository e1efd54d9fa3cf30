from __future__ import annotations

import pytest

from docstitch.filtering import (
    TablePairCandidate,
    filter_association_candidates,
    filter_text_truncation_candidates,
    filter_titles,
)
from docstitch.predictors import RulePredictor
from docstitch.predictors.rules import outline_depth, shape_signature
from docstitch.tables import parse_table

from .helpers import stack_elements


@pytest.fixture
def rules():
    return RulePredictor()


def _title_seq(*contents):
    d = stack_elements("t", [("title", c, 0) for c in contents])
    return filter_titles(d.elements)


@pytest.mark.parametrize(
    "title,depth",
    [
        ("1. Intro", 1),
        ("2)", 1),
        ("3.1 Methods", 2),
        ("1.1.2 Deep", 3),
        ("1.Challenge", 1),
        ("2000", 1),
        ("Report", None),
        ("(a) item", None),
    ],
)
def test_outline_depth(title, depth):
    assert outline_depth(title) == depth


def test_shape_signature_groups_years():
    assert shape_signature("2000") == shape_signature("2010") == shape_signature("2020")
    assert shape_signature("Day1") != shape_signature("Afternoon")


def test_identical_prefix_shape_gives_one_level(rules):
    pred = rules.predict_title_hierarchy(_title_seq("2000", "2010", "2020"))
    assert list(pred.levels.values()) == [1, 1, 1]


def test_leading_plain_title_shifts_numbered_depths(rules):
    pred = rules.predict_title_hierarchy(
        _title_seq("Report", "1.Challenge", "2.Method", "3.Result")
    )
    assert list(pred.levels.values()) == [1, 2, 2, 2]


def test_dot_depth_levels(rules):
    pred = rules.predict_title_hierarchy(_title_seq("1. A", "1.1 B", "1.1.2 C"))
    assert list(pred.levels.values()) == [1, 2, 3]


def test_plain_title_after_numbered_nests_below(rules):
    pred = rules.predict_title_hierarchy(_title_seq("1. A", "Sidebar", "2. B"))
    assert list(pred.levels.values()) == [1, 2, 1]


def test_minimum_level_is_one(rules):
    # numbering starts at depth 2 only; levels normalize so the min is 1
    pred = rules.predict_title_hierarchy(_title_seq("1.1 A", "1.2 B", "1.2.1 C"))
    assert min(pred.levels.values()) == 1
    assert list(pred.levels.values()) == [1, 1, 2]


def test_golden_fixture_title_levels(field_manual):
    pred = RulePredictor().predict_title_hierarchy(filter_titles(field_manual.elements))
    assert pred.levels[1] == 1
    assert [pred.levels[i] for i in (2, 12, 23, 36, 43, 47)] == [2] * 6
    assert [pred.levels[i] for i in (8, 11, 16, 19, 30, 31)] == [4] * 6


def test_text_truncation_rules(rules, field_manual):
    cands = filter_text_truncation_candidates(field_manual.elements)
    pred = rules.predict_text_truncation(cands)
    # hand application: only the hyphen and mid-word pairs merge
    assert pred.pairs == [(9, 10), (22, 24)]


def test_text_truncation_pair_subset_of_candidates(rules, corpus):
    for doc in corpus.values():
        cands = filter_text_truncation_candidates(doc.elements)
        pred = rules.predict_text_truncation(cands)
        assert set(pred.pairs) <= {(c.src.idx, c.tgt.idx) for c in cands}


def test_association_same_page_caption(rules):
    d = stack_elements(
        "t",
        [
            ("image", "", 0, {"asset_ref": "a.png"}),
            ("image_caption", "cap", 0),
        ],
    )
    pred = rules.predict_association(filter_association_candidates(d.elements))
    assert (1, 0) in pred.pairs


def test_association_nearest_preceding_title(rules):
    d = stack_elements(
        "t",
        [
            ("title", "Sec A", 0),
            ("title", "Sec B", 0),
            ("table", "", 0, {"table_html": "<table><tr><td>x</td></tr></table>"}),
        ],
    )
    pred = rules.predict_association(filter_association_candidates(d.elements))
    assert (2, 1) in pred.pairs


def test_association_unresolved_caption_flagged(rules):
    d = stack_elements(
        "t",
        [
            ("image_caption", "orphan", 0),
            ("image", "", 3, {"asset_ref": "far.png"}),  # two pages away
            ("title", "T", 3),
        ],
    )
    pred = rules.predict_association(filter_association_candidates(d.elements))
    # The image is unresolved too: no title precedes it.
    assert pred.flags == ["unresolved:0", "unresolved:1"]
    assert [(f.code, f.detail) for f in pred.flags] == [("unresolved", "0"), ("unresolved", "1")]
    assert all(src != 0 for src, _ in pred.pairs)


def test_association_respects_caption_kind(rules):
    d = stack_elements(
        "t",
        [
            ("table", "", 0, {"table_html": "<table><tr><td>x</td></tr></table>"}),
            ("image_caption", "figure caption", 0),
            ("image", "", 1, {"asset_ref": "b.png"}),
        ],
    )
    pred = rules.predict_association(filter_association_candidates(d.elements))
    # image_caption must link to the image on the next page, not the table
    assert (1, 2) in pred.pairs


def _cand(upper_rows, lower_rows, lower_caption=None):
    return TablePairCandidate(
        upper_idx=1,
        lower_idx=2,
        upper_caption=None,
        lower_caption=lower_caption,
        upper_rows=parse_table(upper_rows),
        lower_rows=parse_table(lower_rows),
    )


def test_table_rules_column_mismatch_empty(rules):
    cand = _cand("<tr><td>a</td></tr>", "<tr><td>a</td><td>b</td></tr>")
    assert rules.predict_table_truncation(cand).columns == []


def test_table_rules_header_repeat_all_zero(rules):
    cand = _cand(
        "<tr><td>City</td><td>Count</td><td>Note</td></tr>",
        "<tr><td>City</td><td>Count</td><td>Note</td></tr><tr><td>Basel</td><td>3</td><td>-</td></tr>",
    )
    pred = rules.predict_table_truncation(cand)
    assert pred.columns == [0, 0, 0]
    assert "repeated_header" in pred.flags


def test_table_rules_hyphen_fragment(rules):
    cand = _cand(
        "<tr><td>x</td><td>frag-</td><td>y</td></tr>",
        "<tr><td>p</td><td>ment</td><td>q</td></tr>",
    )
    assert rules.predict_table_truncation(cand).columns == [0, 1, 0]


def test_rule_baseline_fully_deterministic(field_manual):
    a, b = RulePredictor(), RulePredictor()
    titles = filter_titles(field_manual.elements)
    assert a.predict_title_hierarchy(titles).levels == b.predict_title_hierarchy(titles).levels
    cands = filter_text_truncation_candidates(field_manual.elements)
    assert a.predict_text_truncation(cands).pairs == b.predict_text_truncation(cands).pairs
    assoc = filter_association_candidates(field_manual.elements)
    assert a.predict_association(assoc).pairs == b.predict_association(assoc).pairs
