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

import pytest
from hypothesis import example, given, settings, strategies as st

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.analysis import Configurations, configurations
from jeopardy_iaa.cli import _TEMPLATES, _mask_texts, analysis_report

from conftest import ALL_FIXTURES, load_labeled, random_labeled_program, report_text, sugar_library
from test_report_differential import reference_report, stdlib_text


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(6, 30), st.booleans())
def test_json_report_is_the_stdlib_text_of_the_reference(seed, budget, branching):
    program = random_labeled_program(random.Random(seed), budget, branching)
    assert report_text(program, "json") == stdlib_text(reference_report(program))


def corpus() -> list:
    """Every fixture and a generated sugar library, labeled."""
    programs = [load_labeled(fixture.name) for fixture in ALL_FIXTURES]
    source = sugar_library(40, random.Random(3))
    return programs + [annotate(desugar_program(parse(source)))]


# the labels of a (function, kind) share one row, whose text the writer
# writes once and reuses
def test_json_report_writes_shared_rows_as_the_stdlib_does():
    for program in corpus():
        assert report_text(program, "json") == stdlib_text(reference_report(program))


@pytest.mark.parametrize("form", ["json", "text"])
def test_only_the_seed_rows_are_written_in_pieces_that_are_not_ascii(form):
    # the text layer copies an ASCII piece into its output as it is; a
    # piece that names the top-level caller, ⊤, is stored at two bytes a
    # character and encoded a character at a time, so no other row may
    # share one with it
    for program in corpus():
        pieces: list[str] = []
        analysis_report(program, form, pieces.append)
        wide = [piece for piece in pieces if not piece.isascii()]
        assert len(wide) <= 2
        for piece in wide:
            assert "⊤" in piece
            assert piece.count('"caller": ' if form == "json" else " -> ") <= 1


def test_the_corpus_holds_the_cases_the_writer_special_cases():
    programs = corpus()
    texts = [report_text(program, "json") for program in programs]
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
    # masks the writer slices out of the universe, and masks it reads a
    # byte at a time, from byte 0 and from above it
    masks = [
        mask
        for program in programs
        for (_, _, arguments), implicits in configurations(program).groups.items()
        for mask in (arguments, *implicits)
    ]
    assert any(mask and not scattered(mask) for mask in masks)
    spans = [byte_span(mask) for mask in masks if scattered(mask)]
    assert any(high - low >= 3 for low, high in spans)
    assert any(low == 0 for low, _ in spans) and any(low > 0 for low, _ in spans)


def scattered(mask: int) -> int:
    """Nonzero unless the mask's bits are one run or none."""
    return mask & (mask + (mask & -mask))


def byte_span(mask: int) -> tuple[int, int]:
    """The mask's lowest set byte and one past its highest."""
    return ((mask & -mask).bit_length() - 1) // 8, (mask.bit_length() + 7) // 8


TEXT_OF = {"json": lambda label: json.dumps(label, ensure_ascii=False), "text": str}


@st.composite
def universes_and_masks(draw) -> tuple[list, list[int]]:
    """A label universe, integers then ``input`` and ``output``, and masks
    over it, written in turn through one writer."""
    integers = sorted(draw(st.sets(st.integers(0, 10**4), max_size=40)))
    universe = integers + ["input", "output"]
    masks = draw(st.lists(st.integers(0, 2 ** len(universe) - 1), min_size=1, max_size=8))
    return universe, masks


TWENTY = list(range(1, 21)) + ["input", "output"]


@settings(deadline=None, max_examples=300)
@given(universes_and_masks())
# bits 7 and 8, 15 and 16, in scattered masks
@example((TWENTY, [1 << 7 | 1 << 16, 1 << 8 | 1 << 15, 1 | 1 << 7 | 1 << 8, 1 << 15 | 1 << 16 | 1]))
# runs across a byte boundary, alone and in a scattered mask
@example((TWENTY, [0b111 << 6, 0b1111 << 14, 0b1111 << 6 | 1 << 20, 1 | 0b11 << 15]))
# lowest set byte above 0, as the first mask and after one from byte 0
@example((TWENTY, [1 << 9 | 1 << 17, 1 << 16 | 1 << 19, 1 | 1 << 20, 1 << 10 | 1 << 12]))
# input alone, output alone, both with integer labels, and with none
@example((TWENTY, [1 << 20, 1 << 21, 1 << 20 | 1 << 21 | 0b101, 0b11 << 20 | 1 << 9]))
@example((["input", "output"], [0b01, 0b10, 0b11, 0]))
# the empty mask, before and after a scattered one
@example((TWENTY, [0, 0b101, 0]))
def test_a_mask_is_written_as_its_label_list(universe_and_masks):
    universe, masks = universe_and_masks
    unmask = Configurations({}, universe).unmask
    for form, text in TEXT_OF.items():
        brackets = _TEMPLATES[form][0]
        empty, opened, separator, closed = brackets
        labels = _mask_texts(list(map(text, universe)), brackets)
        for mask in masks:
            expected = opened + separator.join(map(text, unmask(mask))) + closed
            assert labels(mask) == (expected if mask else empty)


def test_inverted_is_written_as_a_bool_in_a_report_with_label_1():
    # True and 1 are one dict key, so a memo of label texts must not see bools
    text = report_text(load_labeled("fib.jpd"), "json")
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
    report = json.loads(report_text(program, "json"))
    lines = report_text(program, "text").split("\n")
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


# (invert g) and (invert (invert (invert g))) both run backward, so a call
# through either, read backward, runs g forward: one callee, one row
ODD_MARKERS = """
data nat = [z] [s nat].
g v = case v of ; [z] -> [z] ; [s w] -> [s w].
f x = case x of ; [z] -> (invert g) x ; [s k] -> (invert (invert (invert g))) x.
main f.
"""


def test_references_in_one_direction_share_a_row():
    program = annotate(desugar_program(parse(ODD_MARKERS)))
    rows = json.loads(report_text(program, "json"))["configurations"]
    assert len({json.dumps(row, sort_keys=True) for row in rows}) == len(rows) == 5
    lines = report_text(program, "text").split("\n")
    assert len(set(lines)) == len(lines) == 5
    check_the_formats_agree(program)
