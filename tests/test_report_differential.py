"""The report writer, ``analysis_report``, against the per-configuration
report builder it replaced.

The reference below is a verbatim copy of the earlier report builder:
it sorted every configuration by ``CallConfiguration.sort_key``, which
ran ``_label_order`` on both label sets, and built each row from that
key.  The writer's JSON must be the stdlib's indented text of the
reference's dict, byte for byte, on every fixture, on the generated
scaling families and on random programs.  Its text format must be what
the analyze command printed from that dict, copied here as
``reference_text``, on every fixture and on random programs.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.analysis import Hint, configurations, symmetry_hints
from jeopardy_iaa.cli import analysis_report
from jeopardy_iaa.labeler import LabeledProgram
from jeopardy_iaa.syntax import INPUT, OUTPUT

from conftest import (
    ALL_FIXTURES,
    diamond,
    label_rows,
    load_labeled,
    nested_scrutinees,
    random_labeled_program,
    ring,
)


# -- the reference: the earlier report builder, verbatim ---------------------


def sort_key(self):
    return (
        self.caller,
        self.callee.name,
        self.callee.inversions,
        _label_order(self.argument_labels),
        _label_order(self.implicit_labels),
    )


_SYMBOLIC = (INPUT, OUTPUT)  # in label_sort_key order


def _label_order(labels) -> tuple[list, tuple]:
    """Orders label sets as ``sorted(map(label_sort_key, labels))`` does,
    with every comparison made in C.

    Symbolic labels follow all integers; the infinity marker makes an
    integer prefix followed by a symbolic label compare above a longer
    integer run, and the symbolic tuple breaks ties between equal runs.
    """
    integers = sorted(labels.difference(_SYMBOLIC))
    symbolic = tuple(l for l in _SYMBOLIC if l in labels)
    if symbolic:
        integers.append(math.inf)
    return integers, symbolic


def _labels_json(order: tuple[list, tuple]) -> list:
    """A label set in label_sort_key order, from its ``_label_order`` pair:
    the integers without the ``inf`` marker, then the symbolic labels."""
    integers, symbolic = order
    return integers[:-1] + list(symbolic) if symbolic else integers


def _configuration_row(key: tuple) -> dict:
    """The report row of the configuration whose sort key is ``key``."""
    caller, callee, depth, argument_order, implicit_order = key
    inverted = depth % 2 == 1  # each inversion flips the direction
    return {
        "caller": caller,
        "callee": callee,
        "inverted": inverted,
        "direction": "up" if inverted else "down",
        "argument_labels": _labels_json(argument_order),
        "implicit_labels": _labels_json(implicit_order),
    }


def _hint_row(hint: Hint) -> dict:
    return {
        "function": hint.function,
        "call_label": hint.call_label,
        "witness_labels": list(hint.witness_labels),
    }


def reference_report(labeled: LabeledProgram) -> dict:
    """The analyze command's payload: configurations, hints, label index."""
    found = configurations(labeled)
    hints = symmetry_hints(labeled, found)
    # unique keys: a name and an inversion depth fix the callee
    keys = sorted(map(sort_key, found))
    # one row object per (function, kind), shared by all of its labels; the
    # encoder writes the text of a shared row once
    rows: dict[tuple[str, str], dict] = {}
    labels = {}
    for label, (function, kind, _) in label_rows(labeled).items():
        row = rows.get((function, kind))
        if row is None:
            row = rows[function, kind] = {"function": function, "kind": kind}
        labels[str(label)] = row
    return {
        "configurations": [_configuration_row(key) for key in keys],
        "hints": [_hint_row(h) for h in hints],
        "labels": labels,
    }


def reference_text(report: dict) -> str:
    """The text format's lines, as ``_cmd_analyze`` printed them from the
    reference's dict, joined without the last newline."""
    lines = []
    for row in report["configurations"]:
        callee = row["callee"] if not row["inverted"] else f"(invert {row['callee']})"
        arguments = ", ".join(map(str, row["argument_labels"]))
        implicits = ", ".join(map(str, row["implicit_labels"]))
        lines.append(
            f"{row['caller']} -> {callee} [{row['direction']}] "
            f"A={{{arguments}}} I={{{implicits}}}"
        )
    if report["hints"]:
        lines.append("")
        lines.append("hints:")
        for hint in report["hints"]:
            witnesses = ", ".join(str(l) for l in hint["witness_labels"])
            lines.append(
                f"  {hint['function']} call@{hint['call_label']}: "
                f"branching argument available in both directions "
                f"(program points {{{witnesses}}})"
            )
    return "\n".join(lines)


# -- the checks ----------------------------------------------------------------


def _outcome(build, program):
    try:
        return build(program)
    except Exception as error:  # the reference's failure must be the same
        return type(error)


def stdlib_text(report: dict) -> str:
    return json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2)


def _check(program: LabeledProgram) -> None:
    expected = _outcome(reference_report, program)
    text = _outcome(lambda p: analysis_report(p, "json"), program)
    if isinstance(expected, type):
        assert text is expected
        return
    assert text == stdlib_text(expected)


def labeled(source: str) -> LabeledProgram:
    return annotate(desugar_program(parse(source)))


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_grouped_report_matches_the_reference_on_fixtures(fixture):
    _check(load_labeled(fixture.name))


GENERATED = (
    [(f"diamond-{k}", diamond(k)) for k in range(1, 11)]
    + [(f"ring-{n}", ring(n)) for n in (1, 5, 40, 140)]
    + [(f"nested-{depth}", nested_scrutinees(depth)) for depth in range(1, 7)]
)


@pytest.mark.parametrize("source", [s for _, s in GENERATED], ids=[i for i, _ in GENERATED])
def test_grouped_report_matches_the_reference_on_generated_programs(source):
    _check(labeled(source))


def test_grouped_report_matches_the_reference_on_random_programs():
    rng = random.Random(10)
    for index in range(300):
        budget = rng.randint(6, 30)
        _check(random_labeled_program(rng, budget, branching=index % 2 == 1))


def _check_text(program: LabeledProgram) -> None:
    expected = _outcome(reference_report, program)
    text = _outcome(lambda p: analysis_report(p, "text"), program)
    if isinstance(expected, type):
        assert text is expected
        return
    assert text == reference_text(expected)


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_text_report_matches_the_reference_on_fixtures(fixture):
    _check_text(load_labeled(fixture.name))


def test_text_report_matches_the_reference_on_random_programs():
    rng = random.Random(11)
    for index in range(300):
        budget = rng.randint(6, 30)
        _check_text(random_labeled_program(rng, budget, branching=index % 2 == 1))


def test_the_corpus_groups_several_implicit_sets_and_symbolic_labels():
    # diamond-4's backward calls to g share argument labels across paths,
    # and main's forward calls see ``input``
    found = configurations(labeled(diamond(4)))
    assert max(map(len, found.groups.values())) > 1
    implicit_labels = [found.unmask(m) for masks in found.groups.values() for m in masks]
    assert any("input" in labels for labels in implicit_labels)
    assert any("output" in labels for labels in implicit_labels)
