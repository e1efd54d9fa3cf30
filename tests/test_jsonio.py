from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstitch.jsonio import dumps_pretty
from docstitch.model import ElementType


class Level(enum.IntEnum):
    TOP = 1


class Tag(str, enum.Enum):
    NOTE = "nöte\n"


class Mapping(dict):
    pass


def stdlib(obj: object) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2)


strings = st.text() | st.text(st.characters(max_codepoint=0x1F)) | st.sampled_from(
    ["", "\ud800", " ", "é 漢字 🙂", '"\\/', "\x7f"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
    | strings
    | st.sampled_from([Tag.NOTE, Level.TOP, ElementType.TABLE])
)
keys = (
    strings
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.none()
    | st.sampled_from([Tag.NOTE, Level.TOP])
)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | st.dictionaries(st.text(), children, max_size=4).map(Mapping)
    )


values = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(values)
def test_matches_stdlib_pretty_json(value):
    assert dumps_pretty(value) == stdlib(value)


unsupported = st.sampled_from([object(), {1, 2}, b"bytes", 1j, frozenset()])
bad_values = st.recursive(
    unsupported,
    lambda children: st.tuples(values, children).map(list)
    | st.builds(lambda k, v: {k: v}, st.text(), children),
    max_leaves=5,
)
bad_keys = st.builds(lambda k, v: {"ok": 1, k: v}, st.sampled_from([(1,), frozenset(), b"k"]), values)


@settings(max_examples=100, deadline=None)
@given(bad_values | bad_keys)
def test_unsupported_values_raise_the_stdlib_type_error(value):
    with pytest.raises(TypeError) as expected:
        stdlib(value)
    with pytest.raises(TypeError) as got:
        dumps_pretty(value)
    assert str(got.value) == str(expected.value)
