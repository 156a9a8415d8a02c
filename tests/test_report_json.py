"""The analyze report's JSON writer, ``cli._ReportEncoder``.

It must write exactly what the stdlib writes with
``ensure_ascii=False, sort_keys=True, indent=2`` on every JSON value it
accepts, and refuse what the report never holds.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from jeopardy_iaa.cli import _ReportEncoder

characters = st.one_of(
    st.sampled_from(['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f", " ", "é", "⊤", "😀", "\U0010ffff"]),
    st.characters(),
)
texts = st.text(characters, max_size=12)
integers = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.sampled_from([0, -1, 2**63, -(2**63) - 1]),
)
scalars = st.one_of(texts, integers, st.booleans(), st.none())
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(texts, inner, max_size=5),
    max_leaves=25,
)


def stdlib_text(value) -> str:
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)


@settings(deadline=None)
@given(json_values)
def test_encoder_writes_the_stdlib_indented_text(value):
    assert _ReportEncoder().encode(value) == stdlib_text(value)


# a report shares one row object among many labels; the encoder writes
# a shared row's text once and reuses it
shared_rows = st.lists(json_values, min_size=1, max_size=4).flatmap(
    lambda rows: st.dictionaries(texts, st.sampled_from(rows), max_size=8).map(
        lambda labels: {"labels": labels, "rows": rows, "nested": [labels]}
    )
)


@settings(deadline=None)
@given(shared_rows)
def test_encoder_writes_shared_objects_as_the_stdlib_does(value):
    assert _ReportEncoder().encode(value) == stdlib_text(value)


def test_encoder_ignores_the_options_it_is_built_with():
    value = {"b": [1, True, None, "x"], "a": {}, "c": [], "é": [[], {"k": -3}]}
    assert json.dumps(value, cls=_ReportEncoder) == stdlib_text(value)


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": (1, 2)}, (1,), [1, 2, (3,)], {"k": {1.0}}])
def test_encoder_refuses_floats_tuples_and_other_types(value):
    with pytest.raises(TypeError):
        _ReportEncoder().encode(value)
