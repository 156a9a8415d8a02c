"""The analyze report's JSON writer, ``cli._ReportEncoder``.

It must write exactly what the stdlib writes with
``ensure_ascii=False, sort_keys=True, indent=2`` on every report that
``analysis_report`` returns, and refuse a value that a report never holds
rather than write it.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.cli import _ReportEncoder, analysis_report

from conftest import ALL_FIXTURES, load_labeled, random_labeled_program, sugar_library


def stdlib_text(report) -> str:
    return json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2)


def source_report(source: str) -> dict:
    return analysis_report(annotate(desugar_program(parse(source))))


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(6, 30), st.booleans())
def test_encoder_writes_the_stdlib_indented_text(seed, budget, branching):
    report = analysis_report(random_labeled_program(random.Random(seed), budget, branching))
    assert _ReportEncoder().encode(report) == stdlib_text(report)


def corpus() -> list[dict]:
    """The report of every fixture and of a generated sugar library."""
    reports = [analysis_report(load_labeled(fixture.name)) for fixture in ALL_FIXTURES]
    return reports + [source_report(sugar_library(40, random.Random(3)))]


# a report shares one label row among the labels of a (function, kind);
# the writer writes a shared row's text once and reuses it
def test_encoder_writes_shared_objects_as_the_stdlib_does():
    for report in corpus():
        assert _ReportEncoder().encode(report) == stdlib_text(report)


def test_the_corpus_holds_the_cases_the_writer_special_cases():
    reports = corpus()
    rows = [row for report in reports for row in report["configurations"]]
    # the seeds, whose implicit labels are empty, called by the top level
    assert any(row["caller"] == "⊤" and row["implicit_labels"] == [] for row in rows)
    assert any(row["inverted"] for row in rows) and not all(row["inverted"] for row in rows)
    assert any(report["hints"] == [] for report in reports)
    assert any(report["hints"] for report in reports)
    # label keys sort as strings, not as numbers
    assert any("10" in report["labels"] and "2" in report["labels"] for report in reports)
    text = _ReportEncoder().encode(reports[0])
    assert text.index('\n    "10": {') < text.index('\n    "2": {')


def test_inverted_is_written_as_a_bool_when_label_1_was_written_first():
    # True and 1 are one dict key, so a memo of label texts must not see bools
    report = {
        "configurations": [
            {
                "argument_labels": [1],
                "callee": "f",
                "caller": "g",
                "direction": "up",
                "implicit_labels": [0, 1],
                "inverted": True,
            }
        ],
        "hints": [{"call_label": 1, "function": "g", "witness_labels": [1, "output"]}],
        "labels": {"1": {"function": "g", "kind": "application"}},
    }
    text = _ReportEncoder().encode(report)
    assert '"inverted": true\n' in text
    assert text == stdlib_text(report)


def test_encoder_ignores_the_options_it_is_built_with():
    report = analysis_report(load_labeled("fib.jpd"))
    written = json.dumps(report, cls=_ReportEncoder, indent=4, ensure_ascii=True, sort_keys=False)
    assert written == stdlib_text(report)


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": (1, 2)}, (1,), [1, 2, (3,)], {"k": {1.0}}])
def test_encoder_refuses_floats_tuples_and_other_types(value):
    # as a label in a label list, as a name, and as a label's kind
    for place in ("label", "name", "kind"):
        report = analysis_report(load_labeled("fib.jpd"))
        if place == "label":
            report["configurations"][-1]["implicit_labels"].append(value)
        elif place == "name":
            report["hints"][0]["function"] = value
        else:
            report["labels"]["3"] = {"function": "fib", "kind": value}
        with pytest.raises(TypeError):
            _ReportEncoder().encode(report)
