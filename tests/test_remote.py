from __future__ import annotations

import pytest

from docstitch.errors import BackendUnavailable, MalformedResponse
from docstitch.filtering import (
    FilterConfig,
    filter_association_candidates,
    filter_text_truncation_candidates,
    filter_titles,
)
from docstitch.predictors import FallbackPredictor, RulePredictor
from docstitch.predictors.remote import RemotePredictor
from docstitch.textrules import TextRules

from .helpers import stack_elements
from .mock_backend import MockBackend, Seq


@pytest.fixture
def small_doc():
    return stack_elements(
        "t",
        [
            ("title", "Alpha", 0),
            ("text", "Broken sen", 0),
            ("text", "tence continues.", 1),
            ("title", "Beta", 1),
            ("image", "", 1, {"asset_ref": "x.png"}),
            ("image_caption", "cap", 1),
        ],
    )


def test_hierarchy_request_and_response(small_doc):
    titles = filter_titles(small_doc.elements)
    with MockBackend({"title_hierarchy": [{"idx": 0, "level": 1}, {"idx": 3, "level": 2}]}) as be:
        pred = RemotePredictor(be.url).predict_title_hierarchy(titles)
        assert pred.levels == {0: 1, 3: 2}
        body = be.requests[0]["body"]
        assert body["task"] == "title_hierarchy"
        assert body["blocks"][0] == {
            "idx": 0,
            "type": "title",
            "content": "Alpha",
            "page": 0,
            "bbox": [60.0, 40.0, 540.0, 80.0],
        }


def test_hierarchy_missing_idx_retried_then_error(small_doc):
    titles = filter_titles(small_doc.elements)
    with MockBackend({"title_hierarchy": [{"idx": 0, "level": 1}]}) as be:
        with pytest.raises(MalformedResponse):
            RemotePredictor(be.url).predict_title_hierarchy(titles)
        assert len(be.requests) == 2  # one retry


def test_hierarchy_retry_can_recover(small_doc):
    titles = filter_titles(small_doc.elements)
    ok = [{"idx": 0, "level": 1}, {"idx": 3, "level": 1}]
    with MockBackend({"title_hierarchy": Seq(["garbage", ok])}) as be:
        pred = RemotePredictor(be.url).predict_title_hierarchy(titles)
        assert pred.levels == {0: 1, 3: 1}


def test_duplicate_idx_is_malformed(small_doc):
    titles = filter_titles(small_doc.elements)
    dup = [{"idx": 0, "level": 1}, {"idx": 0, "level": 2}, {"idx": 3, "level": 1}]
    with MockBackend({"title_hierarchy": dup}) as be:
        with pytest.raises(MalformedResponse):
            RemotePredictor(be.url).predict_title_hierarchy(titles)


@pytest.mark.parametrize(
    "level, ok",
    [(2**53 - 1, True), (-(2**53 - 1), True), (2**53, False), (10**400, False), (True, False)],
    ids=["2**53-1", "-(2**53-1)", "2**53", "10**400", "true"],
)
def test_hierarchy_levels_are_json_integers_within_2_53(small_doc, level, ok):
    titles = filter_titles(small_doc.elements)
    reply = [{"idx": 0, "level": level}, {"idx": 3, "level": 1}]
    with MockBackend({"title_hierarchy": reply}) as be:
        if ok:
            assert RemotePredictor(be.url).predict_title_hierarchy(titles).levels[0] == level
        else:
            with pytest.raises(MalformedResponse):
                RemotePredictor(be.url).predict_title_hierarchy(titles)


def test_pairs_outside_candidate_set_dropped_and_flagged(small_doc):
    cands = filter_text_truncation_candidates(small_doc.elements)
    assert [(c.src.idx, c.tgt.idx) for c in cands] == [(1, 2)]
    resp = [{"src": 1, "tgt": 2, "reason": "ok"}, {"src": 9, "tgt": 10, "reason": "bogus"}]
    with MockBackend({"text_truncation": resp}) as be:
        pred = RemotePredictor(be.url).predict_text_truncation(cands)
        assert pred.pairs == [(1, 2)]
        assert pred.flags == ["dropped_non_candidate:9->10"]


def test_text_truncation_request_bytes_are_pinned(corpus):
    # audit_report holds the chain 2 -> 3 -> 4, so element 3 is sent once,
    # and a 12-character sentence cap makes its head and tail differ.
    cfg = FilterConfig(rules=TextRules(sentence_cap_chars=12))
    cands = filter_text_truncation_candidates(corpus["audit_report"].elements, cfg)
    with MockBackend({"text_truncation": []}) as be:
        RemotePredictor(be.url).predict_text_truncation(cands)
        assert be.requests[0]["raw"] == (
            b'{"task": "text_truncation", "blocks": ['
            b'{"idx": 2, "type": "text", "content": "shows a sys-", "page": 0, '
            b'"bbox": [60.0, 140.0, 540.0, 180.0]}, '
            b'{"idx": 3, "type": "text", "content": "tematic roun ... that accumu-", '
            b'"page": 1, "bbox": [60.0, 40.0, 540.0, 80.0]}, '
            b'{"idx": 4, "type": "text", "content": "lates across", "page": 1, '
            b'"bbox": [60.0, 90.0, 540.0, 130.0]}]}'
        )


def test_association_type_rule_violations_dropped(small_doc):
    assoc = filter_association_candidates(small_doc.elements)
    resp = [
        {"src": 5, "tgt": 4},  # caption -> image: fine
        {"src": 5, "tgt": 0},  # caption -> title: violates the link rules
    ]
    with MockBackend({"association": resp}) as be:
        pred = RemotePredictor(be.url).predict_association(assoc)
        assert pred.pairs == [(5, 4)]
        assert pred.flags == ["dropped_type_rule:5->0"]


def test_table_judgement_length_mismatch_degrades_to_empty():
    from docstitch.filtering import TablePairCandidate
    from docstitch.tables import parse_table

    cand = TablePairCandidate(1, 2, None, None, parse_table("<tr><td>a</td><td>b</td></tr>"),
                              parse_table("<tr><td>c</td><td>d</td></tr>"))
    with MockBackend({"table_truncation": [{"judgement": [1, 0, 1]}]}) as be:
        pred = RemotePredictor(be.url).predict_table_truncation(cand)
        assert pred.columns == []
        assert pred.flags and "judgement_invalid" in pred.flags[0]
        body = be.requests[0]["body"]
        assert body["upper_row"] == "<tr><td>a</td><td>b</td></tr>"


@pytest.mark.parametrize("judgement", [[True, 1], [1.0, 0], [0, 2]], ids=["bool", "float", "two"])
def test_table_judgement_entries_must_be_integers_0_or_1(judgement):
    from docstitch.filtering import TablePairCandidate
    from docstitch.tables import parse_table

    cand = TablePairCandidate(1, 2, None, None, parse_table("<tr><td>a</td><td>b</td></tr>"),
                              parse_table("<tr><td>c</td><td>d</td></tr>"))
    with MockBackend({"table_truncation": [{"judgement": judgement}]}) as be:
        pred = RemotePredictor(be.url).predict_table_truncation(cand)
    assert pred.columns == []
    assert pred.flags == [f"judgement_invalid:judgement entries must be 0/1, got {judgement!r}"]


def test_http_error_raises_backend_unavailable(small_doc):
    titles = filter_titles(small_doc.elements)
    with MockBackend({"title_hierarchy": 500}) as be:
        with pytest.raises(BackendUnavailable):
            RemotePredictor(be.url).predict_title_hierarchy(titles)


def test_unreachable_backend_raises(small_doc):
    titles = filter_titles(small_doc.elements)
    predictor = RemotePredictor("http://127.0.0.1:9/", timeout=0.2)
    with pytest.raises(BackendUnavailable):
        predictor.predict_title_hierarchy(titles)


def test_auth_token_header_from_env(small_doc, monkeypatch):
    monkeypatch.setenv("DOCSTITCH_BACKEND_TOKEN", "sekrit")
    titles = filter_titles(small_doc.elements)
    with MockBackend({"title_hierarchy": [{"idx": 0, "level": 1}, {"idx": 3, "level": 1}]}) as be:
        RemotePredictor(be.url).predict_title_hierarchy(titles)
        assert be.requests[0]["headers"].get("Authorization") == "Bearer sekrit"


def test_fallback_predictor_degrades_per_call(small_doc, caplog):
    titles = filter_titles(small_doc.elements)
    remote = RemotePredictor("http://127.0.0.1:9/", timeout=0.2)
    predictor = FallbackPredictor(remote, RulePredictor())
    pred = predictor.predict_title_hierarchy(titles)
    assert pred.levels  # rule baseline answered
    assert any("degraded" in f for f in pred.flags)
    [record] = [r for r in caplog.records if r.name == "docstitch.predictors"]
    assert record.levelname == "WARNING"
    assert record.getMessage().startswith("predict_title_hierarchy: remote failed (backend unreachable")


def test_fallback_used_after_persistent_malformed(small_doc):
    titles = filter_titles(small_doc.elements)
    with MockBackend({"title_hierarchy": "garbage"}) as be:
        predictor = FallbackPredictor(RemotePredictor(be.url), RulePredictor())
        pred = predictor.predict_title_hierarchy(titles)
        assert set(pred.levels) == {0, 3}
        assert len(be.requests) == 2  # initial + one retry before degrading
