"""The analyze report's writer, ``cli.analysis_report``.

Its JSON must be exactly what the stdlib writes with
``ensure_ascii=False, sort_keys=True, indent=2`` for the dict that the
earlier report builder (``test_report_differential.reference_report``)
returned, and its text format must say what its JSON says, line by row.
"""

from __future__ import annotations

import json
import random
import re

from hypothesis import given, settings, strategies as st

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.cli import analysis_report

from conftest import ALL_FIXTURES, load_labeled, random_labeled_program, sugar_library
from test_report_differential import reference_report, stdlib_text


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(6, 30), st.booleans())
def test_json_report_is_the_stdlib_text_of_the_reference(seed, budget, branching):
    program = random_labeled_program(random.Random(seed), budget, branching)
    assert analysis_report(program, "json") == stdlib_text(reference_report(program))


def corpus() -> list:
    """Every fixture and a generated sugar library, labeled."""
    programs = [load_labeled(fixture.name) for fixture in ALL_FIXTURES]
    source = sugar_library(40, random.Random(3))
    return programs + [annotate(desugar_program(parse(source)))]


# the labels of a (function, kind) share one row, whose text the writer
# writes once and reuses
def test_json_report_writes_shared_rows_as_the_stdlib_does():
    for program in corpus():
        assert analysis_report(program, "json") == stdlib_text(reference_report(program))


def test_the_corpus_holds_the_cases_the_writer_special_cases():
    texts = [analysis_report(program, "json") for program in corpus()]
    reports = [json.loads(text) for text in texts]
    rows = [row for report in reports for row in report["configurations"]]
    # the seeds, whose implicit labels are empty, called by the top level
    assert any(row["caller"] == "⊤" and row["implicit_labels"] == [] for row in rows)
    assert any(row["inverted"] for row in rows) and not all(row["inverted"] for row in rows)
    assert any(report["hints"] == [] for report in reports)
    assert any(report["hints"] for report in reports)
    # label keys sort as strings, not as numbers
    assert any("10" in report["labels"] and "2" in report["labels"] for report in reports)
    assert texts[0].index('\n    "10": {') < texts[0].index('\n    "2": {')


def test_inverted_is_written_as_a_bool_in_a_report_with_label_1():
    # True and 1 are one dict key, so a memo of label texts must not see bools
    text = analysis_report(load_labeled("fib.jpd"), "json")
    rows = json.loads(text)["configurations"]
    assert any(1 in row["argument_labels"] + row["implicit_labels"] for row in rows)
    assert any(row["inverted"] is True for row in rows)
    assert all(type(row["inverted"]) is bool for row in rows)
    assert '"inverted": true\n' in text


CONFIGURATION_LINE = re.compile(
    r"(?P<caller>\S+) -> (?P<callee>\S+|\(invert \S+\)) \[(?P<direction>up|down)\] "
    r"A=\{(?P<arguments>[^}]*)\} I=\{(?P<implicits>[^}]*)\}"
)
HINT_LINE = re.compile(
    r"  (?P<function>\S+) call@(?P<call_label>\d+): branching argument available in both "
    r"directions \(program points \{(?P<witnesses>[^}]*)\}\)"
)


def label_list(text: str) -> list:
    return [int(l) if l.isdigit() else l for l in text.split(", ")] if text else []


def check_the_formats_agree(program) -> None:
    """Each line of the text report parses back to its JSON row or hint."""
    report = json.loads(analysis_report(program, "json"))
    lines = analysis_report(program, "text").split("\n")
    rows, hints = report["configurations"], report["hints"]
    if hints:
        assert lines[len(rows) : len(rows) + 2] == ["", "hints:"]
    assert len(lines) == len(rows) + (2 + len(hints) if hints else 0)
    for line, row in zip(lines, rows):
        fields = CONFIGURATION_LINE.fullmatch(line)
        assert fields, line
        callee = f"(invert {row['callee']})" if row["inverted"] else row["callee"]
        assert fields["caller"] == row["caller"] and fields["callee"] == callee
        assert fields["direction"] == row["direction"]
        assert label_list(fields["arguments"]) == row["argument_labels"]
        assert label_list(fields["implicits"]) == row["implicit_labels"]
    for line, hint in zip(lines[len(rows) + 2 :], hints):
        fields = HINT_LINE.fullmatch(line)
        assert fields, line
        assert fields["function"] == hint["function"]
        assert int(fields["call_label"]) == hint["call_label"]
        assert label_list(fields["witnesses"]) == hint["witness_labels"]


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(6, 30), st.booleans())
def test_the_text_report_says_what_the_json_report_says(seed, budget, branching):
    check_the_formats_agree(random_labeled_program(random.Random(seed), budget, branching))


# few random programs have hints; most fixtures do
def test_the_text_report_says_what_the_json_report_says_on_the_corpus():
    for program in corpus():
        check_the_formats_agree(program)
