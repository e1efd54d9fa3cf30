from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstitch.textrules import CLOSERS, DEFAULT_TERMINATORS, TextRules, join_fragments

from . import oracles


@pytest.fixture
def rules():
    return TextRules()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("A full sentence.", True),
        ("Ends with a question?", True),
        ("中文句子。", True),
        ('He said "stop."', True),
        ("(see appendix.)", True),
        ("ends with colon:", True),
        ("no terminator here", False),
        ("trailing hyphen-", False),
        ("", False),
    ],
)
def test_ends_terminated(rules, text, expected):
    assert rules.ends_terminated(text) is expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1.1 Overview", True),
        ("2) Next item", True),
        ("(a) case one", True),
        ("iv. roman", True),
        ("• bullet point", True),
        ("Uppercase opener", False),
        ("lowercase opener", False),
    ],
)
def test_starts_listlike(rules, text, expected):
    assert rules.starts_listlike(text) is expected


def test_clean_opener_accepts_uppercase(rules):
    assert rules.clean_opener("The next sentence")
    assert rules.clean_opener("1.1 Overview")
    assert not rules.clean_opener("od achieves good results")


def test_split_sentences_keeps_terminators(rules):
    assert rules.split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]


def test_split_sentences_trailing_fragment(rules):
    assert rules.split_sentences("Done. And then") == ["Done.", "And then"]


# Terminators, closers, whitespace, CJK and letters, plus regex
# metacharacters that a custom terminator set may hold.
SENTENCE_ALPHABET = sorted(DEFAULT_TERMINATORS | CLOSERS) + list(" \t\n\u3000中文Ab-^\\[|")
custom_terminators = st.frozensets(
    st.one_of(
        st.sampled_from(["]", "^", "-", "\\", "[", ".", ")", "\n", "中"]),  # ")" is a closer
        st.sampled_from(["", "..", "?!", "。」"]),  # never match: not one character
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(
    st.text(SENTENCE_ALPHABET, max_size=40),
    st.one_of(st.just(DEFAULT_TERMINATORS), custom_terminators),
    st.integers(0, 4),
)
def test_split_sentences_matches_character_oracle(text, terminators, limit):
    rules = TextRules(terminators=terminators)
    expected = oracles.split_sentences(text, terminators, CLOSERS)
    assert rules.split_sentences(text) == expected
    assert rules.split_sentences(text, limit) == expected[:limit]


def test_first_and_last_sentence_with_cap():
    rules = TextRules(sentence_cap_chars=5)
    assert rules.first_sentence("abcdefghij") == "abcde"
    assert rules.last_sentence("abcdefghij") == "fghij"  # tail keeps the end


def test_join_space():
    assert join_fragments("propagation can", "be decomposed") == "propagation can be decomposed"


def test_join_elides_hyphen_after_letter():
    assert join_fragments("decom-", "posed") == "decomposed"


def test_join_keeps_hyphen_after_digit():
    assert join_fragments("2023-", "01-15") == "2023-01-15"


def test_join_cjk_without_space():
    assert join_fragments("这是第一", "部分内容") == "这是第一部分内容"


def test_join_empty_sides():
    assert join_fragments("", "x") == "x"
    assert join_fragments("x", "") == "x"
