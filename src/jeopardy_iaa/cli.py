"""Command-line interface.

    jeopardy-iaa parse    FILE
    jeopardy-iaa desugar  FILE
    jeopardy-iaa label    FILE
    jeopardy-iaa analyze  FILE [--format text|json] [--show-labels]
    jeopardy-iaa run      FILE INPUT [--trace] [--max-calls N]

Exit codes: 0 success, 1 language-level diagnostics, 2 I/O errors
(a closed output pipe and a source that is not UTF-8 too), 3 runtime
errors, located as ``FILE:line:col:`` when their label has a span.
Every command validates the program before running any later stage.
JSON output is deterministic: the same input file always produces
identical bytes.
The report reads the analysis' groups of label masks, keyed by
(caller, callee, argument mask): it orders the groups once, sorts only a
group of two or more implicit masks, and turns each mask into its label
list once; the rows of a group share one argument list.  A mask's bits
rise in the report's label order, integers then ``input`` then
``output``, so sorting masks by their bit lists is sorting label sets.
A writer made for the report produces ``analyze --format json``: its
text is byte for byte that of ``json.dumps(report, ensure_ascii=False,
sort_keys=True, indent=2)``.
``run --trace`` prints the calls' arguments through ``pretty_values``,
which writes a node that arguments share once and then reuses its
text; the result is printed through ``pretty_value``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring
from typing import Sequence

from .analysis import Hint, configurations, symmetry_hints
from .desugar import desugar_program
from .evaluator import DEFAULT_MAX_CALLS, EvalError, run_main
from .labeler import LabeledProgram, annotate
from .parser import ParseError, line_col, parse, parse_value
from .printer import pretty_program, pretty_value, pretty_values
from .syntax import (
    Diagnostic,
    Program,
    Span,
    constructor_table,
    validate,
    validate_value,
)

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_IO = 2
EXIT_RUNTIME = 3


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_source(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise _CommandError(EXIT_IO, f"cannot read {path}: {error.strerror or error}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise _CommandError(
            EXIT_IO,
            f"cannot read {path}: not UTF-8 text "
            f"(byte 0x{data[error.start]:02x} at offset {error.start})",
        ) from None
    # the newline translation of a file opened in text mode
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_and_validate(path: str) -> tuple[str, Program]:
    source = _read_source(path)
    try:
        program = parse(source)
    except ParseError as error:
        line, column = line_col(source, error.span.start)
        raise _CommandError(
            EXIT_DIAGNOSTICS, f"{path}:{line}:{column}: parse error: {error.message}"
        ) from None
    diagnostics = validate(program)
    if diagnostics:
        raise _CommandError(
            EXIT_DIAGNOSTICS, "\n".join(_format_diagnostic(path, source, d) for d in diagnostics)
        )
    return source, program


def _format_diagnostic(path: str, source: str, diagnostic: Diagnostic) -> str:
    if diagnostic.span is not None:
        line, column = line_col(source, diagnostic.span.start)
        return f"{path}:{line}:{column}: {diagnostic}"
    return f"{path}: {diagnostic}"


def _core(path: str) -> LabeledProgram:
    _, program = _parse_and_validate(path)
    return annotate(desugar_program(program))


def _cmd_parse(args: argparse.Namespace) -> int:
    _, program = _parse_and_validate(args.file)
    print(pretty_program(program), end="")
    return EXIT_OK


def _cmd_desugar(args: argparse.Namespace) -> int:
    labeled = _core(args.file)
    print(pretty_program(labeled.program), end="")
    return EXIT_OK


def _cmd_label(args: argparse.Namespace) -> int:
    labeled = _core(args.file)
    print(pretty_program(labeled.program, labels=True), end="")
    return EXIT_OK


def _hint_row(hint: Hint) -> dict:
    return {
        "function": hint.function,
        "call_label": hint.call_label,
        "witness_labels": list(hint.witness_labels),
    }


def analysis_report(labeled: LabeledProgram) -> dict:
    """The analyze command's payload: configurations, hints, label index.

    Configurations are listed by caller, callee name, inversion depth,
    argument labels and implicit labels, each label set in bit order:
    the integers, then ``input``, then ``output``.  They come grouped
    by (caller, callee, argument mask): the groups are ordered once, only
    a group of two or more implicit masks is sorted, each mask is turned
    into its label list once, and the rows of a group share one
    argument-list object.
    """
    found = configurations(labeled)
    hints = symmetry_hints(labeled, found)
    unmask, order = found.unmask, found.order
    # unique keys: a name and an inversion count fix the callee
    groups = sorted(
        (
            (caller, callee.name, callee.inversions, order(arguments)),
            callee.backward,
            arguments,
            implicits,
        )
        for (caller, callee, arguments), implicits in found.groups.items()
    )
    configuration_rows = []
    for (caller, name, _, _), inverted, arguments, implicits in groups:
        direction = "up" if inverted else "down"
        argument_labels = unmask(arguments)
        if len(implicits) > 1:
            implicits = sorted(implicits, key=order)
        configuration_rows += [
            {
                "caller": caller,
                "callee": name,
                "inverted": inverted,
                "direction": direction,
                "argument_labels": argument_labels,
                "implicit_labels": unmask(implicit),
            }
            for implicit in implicits
        ]
    # one row object per (function, kind), shared by all of its labels; the
    # encoder writes the text of a shared row once
    rows: dict[tuple[str, str], dict] = {}
    labels = {}
    for label, (function, kind, _) in labeled.index.items():
        row = rows.get((function, kind))
        if row is None:
            row = rows[function, kind] = {"function": function, "kind": kind}
        labels[str(label)] = row
    return {
        "configurations": configuration_rows,
        "hints": [_hint_row(h) for h in hints],
        "labels": labels,
    }


class _Texts(dict):
    """The JSON text of each label, name and kind of one report, made the
    first time it is asked for: ``str`` of an int, ``encode_basestring``
    of a str.  A bool never comes in, since ``True`` and ``1`` are one key."""

    def __missing__(self, value: int | str) -> str:
        text = self[value] = str(value) if type(value) is int else encode_basestring(value)
        return text


def _splice(parts: list[str], head: str, brackets: str, items: list[str]) -> None:
    """Appends a report member to ``parts``: ``head``, then its list or
    dict of ``items``, one item per line at indentation 4."""
    if not items:
        parts.append(head + brackets)
        return
    spliced = [",\n    "] * (2 * len(items))
    spliced[0] = head + brackets[0] + "\n    "
    spliced[1::2] = items
    parts += spliced
    parts.append("\n  " + brackets[1])


class _ReportEncoder(json.JSONEncoder):
    """Writes an ``analysis_report`` as ``json.dumps(report,
    ensure_ascii=False, sort_keys=True, indent=2)`` does, whatever options
    it is built with, and takes nothing but such a report.

    It knows the report's three members and the keys of their rows: each
    row is one f-string with its keys in sorted order, each label, name
    and kind is converted once per report, and a label row shared by many
    labels, or an argument list shared by the rows of a group, is written
    once: its text is kept by the object's identity.  ``_cmd_analyze``
    calls it through ``json.dumps``, so a wrapper around
    ``cli.json.dumps`` times it.
    """

    def encode(self, report: dict) -> str:
        text = _Texts().__getitem__

        def labels(values: list) -> str:
            if not values:
                return "[]"
            return "[\n        " + ",\n        ".join(map(text, values)) + "\n      ]"

        # analysis_report shares one argument list among the rows of a group
        argument_texts: dict[int, str] = {}  # id of a list -> its text

        def arguments(values: list) -> str:
            values_text = argument_texts.get(id(values))
            if values_text is None:
                values_text = argument_texts[id(values)] = labels(values)
            return values_text

        configurations = [
            f'{{\n      "argument_labels": {arguments(row["argument_labels"])},\n'
            f'      "callee": {text(row["callee"])},\n'
            f'      "caller": {text(row["caller"])},\n'
            f'      "direction": {text(row["direction"])},\n'
            f'      "implicit_labels": {labels(row["implicit_labels"])},\n'
            f'      "inverted": {"true" if row["inverted"] else "false"}\n    }}'
            for row in report["configurations"]
        ]
        hints = [
            f'{{\n      "call_label": {text(row["call_label"])},\n'
            f'      "function": {text(row["function"])},\n'
            f'      "witness_labels": {labels(row["witness_labels"])}\n    }}'
            for row in report["hints"]
        ]
        # analysis_report shares one row among the labels of a (function, kind)
        made: dict[int, str] = {}  # id of a row -> its text
        label_items = []
        for key, row in sorted(report["labels"].items()):
            row_text = made.get(id(row))
            if row_text is None:
                row_text = made[id(row)] = (
                    f'{{\n      "function": {text(row["function"])},\n'
                    f'      "kind": {text(row["kind"])}\n    }}'
                )
            label_items.append(f"{encode_basestring(key)}: {row_text}")
        # A member joined on its own would be copied again into the
        # document's text; that copy raised the peak RSS of analyze on
        # ring-144 from 29 to 36 MB (Linux, CPython 3.11).
        parts: list[str] = []
        _splice(parts, '{\n  "configurations": ', "[]", configurations)
        _splice(parts, ',\n  "hints": ', "[]", hints)
        _splice(parts, ',\n  "labels": ', "{}", label_items)
        parts.append("\n}")
        return "".join(parts)


def _cmd_analyze(args: argparse.Namespace) -> int:
    labeled = _core(args.file)
    if args.show_labels:
        print(pretty_program(labeled.program, labels=True))
    report = analysis_report(labeled)
    if args.format == "json":
        print(json.dumps(report, cls=_ReportEncoder))
        return EXIT_OK
    for row in report["configurations"]:
        callee = row["callee"] if not row["inverted"] else f"(invert {row['callee']})"
        arguments = ", ".join(map(str, row["argument_labels"]))
        implicits = ", ".join(map(str, row["implicit_labels"]))
        print(
            f"{row['caller']} -> {callee} [{row['direction']}] "
            f"A={{{arguments}}} I={{{implicits}}}"
        )
    if report["hints"]:
        print()
        print("hints:")
        for hint in report["hints"]:
            witnesses = ", ".join(str(l) for l in hint["witness_labels"])
            print(
                f"  {hint['function']} call@{hint['call_label']}: "
                f"branching argument available in both directions "
                f"(program points {{{witnesses}}})"
            )
    return EXIT_OK


def _runtime_error(path: str, source: str, labeled: LabeledProgram, error: EvalError) -> str:
    """A runtime error, located like a parse diagnostic when its label has
    a span; ``input`` and a label without one have no place in the source."""
    message = f"runtime error: {error.kind} at {error.label}: {error.message}"
    info = labeled.index.get(error.label)
    if info is None or info.span is None:
        return message
    line, column = line_col(source, info.span.start)
    return f"{path}:{line}:{column}: {message}"


def _input_error(text: str, span: Span, problem: object) -> str:
    """A parse error or a diagnostic in the input value, located in it."""
    line, column = line_col(text, span.start)
    return f"invalid input value at {line}:{column}: {problem}"


def _cmd_run(args: argparse.Namespace) -> int:
    source, program = _parse_and_validate(args.file)
    labeled = annotate(desugar_program(program))
    try:
        value = parse_value(args.input)
    except ParseError as error:
        raise _CommandError(
            EXIT_DIAGNOSTICS, _input_error(args.input, error.span, error.message)
        ) from None
    table, _ = constructor_table(labeled.program)
    diagnostics = validate_value(value, table)
    if diagnostics:
        raise _CommandError(
            EXIT_DIAGNOSTICS, "\n".join(_input_error(args.input, d.span, d) for d in diagnostics)
        )
    try:
        result, trace = run_main(labeled, value, max_calls=args.max_calls)
    except EvalError as error:
        raise _CommandError(
            EXIT_RUNTIME, _runtime_error(args.file, source, labeled, error)
        ) from None
    if args.trace:
        arguments = pretty_values(event.argument for event in trace)
        for event, argument in zip(trace, arguments):
            print(f"call {event.caller} -> {event.callee} @ {event.application_label}: {argument}")
    print(pretty_value(result))
    return EXIT_OK


def _call_budget(text: str) -> int:
    """The value of ``--max-calls``: a whole number of calls, 0 or more."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {budget}")
    return budget


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jeopardy-iaa",
        description="Front end and available-implicit-arguments analyzer for Jeopardy programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and validate, print the program back")
    p_parse.add_argument("file")
    p_parse.set_defaults(handler=_cmd_parse)

    p_desugar = sub.add_parser("desugar", help="print the core (sugar-free) program")
    p_desugar.add_argument("file")
    p_desugar.set_defaults(handler=_cmd_desugar)

    p_label = sub.add_parser("label", help="print the core program with {-n-} point markers")
    p_label.add_argument("file")
    p_label.set_defaults(handler=_cmd_label)

    p_analyze = sub.add_parser("analyze", help="compute reachable call configurations")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.add_argument(
        "--show-labels",
        action="store_true",
        help="print the labeled program before the report",
    )
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_run = sub.add_parser("run", help="run the main function on a value")
    p_run.add_argument("file")
    p_run.add_argument("input", help="argument value, e.g. '[successor [zero]]' or 3")
    p_run.add_argument("--trace", action="store_true", help="print every call")
    p_run.add_argument("--max-calls", type=_call_budget, default=DEFAULT_MAX_CALLS)
    p_run.set_defaults(handler=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except _CommandError as error:
        print(error.message, file=sys.stderr)
        return error.code
    except BrokenPipeError:
        # the reader went away: send what is still buffered to the null
        # device, so that the flush at exit does not fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("jeopardy-iaa: output closed before it was written (broken pipe)", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
