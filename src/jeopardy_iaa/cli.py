"""Command-line interface.

    jeopardy-iaa parse    FILE
    jeopardy-iaa desugar  FILE
    jeopardy-iaa label    FILE
    jeopardy-iaa analyze  FILE [--format text|json] [--show-labels]
    jeopardy-iaa run      FILE INPUT [--trace] [--max-calls N]

Exit codes: 0 success, 1 language-level diagnostics, 2 I/O errors
(a closed output pipe too), 3 runtime errors.  Every command validates
the program before running any later stage.  JSON output is
deterministic: the same input file always produces identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring
from typing import Sequence

from .analysis import CallConfiguration, Hint, configurations, symmetry_hints
from .desugar import desugar_program
from .evaluator import DEFAULT_MAX_CALLS, EvalError, run_main
from .labeler import LabeledProgram, annotate
from .parser import ParseError, line_col, parse, parse_value
from .printer import pretty_program, pretty_value
from .syntax import Diagnostic, Program, constructor_table, validate, validate_value

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
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise _CommandError(EXIT_IO, f"cannot read {path}: {error.strerror or error}") from None


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


def analysis_report(labeled: LabeledProgram) -> dict:
    """The analyze command's payload: configurations, hints, label index."""
    found = configurations(labeled)
    hints = symmetry_hints(labeled, found)
    # unique keys: a name and an inversion depth fix the callee
    keys = sorted(map(CallConfiguration.sort_key, found))
    # one row object per (function, kind), shared by all of its labels; the
    # encoder writes the text of a shared row once
    rows: dict[tuple[str, str], dict] = {}
    labels = {}
    for label, (function, kind, _) in sorted(labeled.index.items()):
        row = rows.get((function, kind))
        if row is None:
            row = rows[function, kind] = {"function": function, "kind": kind}
        labels[str(label)] = row
    return {
        "configurations": [_configuration_row(key) for key in keys],
        "hints": [_hint_row(h) for h in hints],
        "labels": labels,
    }


def _json_value(value, newline: str) -> str:
    """The text of ``value``; each of its lines after the first starts
    with ``newline``'s indentation."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is list or kind is dict:
        if not value:
            return "[]" if kind is list else "{}"
        inner = newline + "  "
        opening, closing, items = _json_items(value, inner)
        return opening + inner + ("," + inner).join(items) + newline + closing
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_items(value: list | dict, inner: str) -> tuple[str, str, list[str]]:
    """The brackets of a list or dict and the text of each item, key
    included, for items indented at ``inner``."""
    if type(value) is list:
        return "[", "]", [str(v) if type(v) is int else _json_value(v, inner) for v in value]
    items = []
    made: dict[int, str] = {}  # id of a member value -> its text
    for k, v in sorted(value.items()):
        text = made.get(id(v))
        if text is None:
            text = made[id(v)] = _json_value(v, inner)
        items.append(encode_basestring(k) + ": " + text)
    return "{", "}", items


class _ReportEncoder(json.JSONEncoder):
    """Writes the text of ``json.dumps(o, ensure_ascii=False,
    sort_keys=True, indent=2)``, whatever options it is built with.

    Keys are sorted, strings are escaped as ``encode_basestring`` does
    (non-ASCII kept), every container item sits on its own line indented
    two spaces per level, items end in ``,`` and keys in ``": "``, and an
    empty container is ``{}`` or ``[]``.  The values are dicts with string
    keys, lists, strings, ints, bools and None; anything else, floats and
    tuples included, raises TypeError.  Each container is one
    ``str.join``, where the stdlib's indented form runs its pure-Python
    generators; the items of a top-level dict's members go straight into
    the document's join instead.
    """

    def encode(self, o) -> str:
        if type(o) is not dict or not o:
            return _json_value(o, "\n")
        # A report member holds one item per configuration or label.  Joined
        # on its own, its text would be copied again into the document's; that
        # copy raised the peak RSS of analyze on ring-144 from 29 to 36 MB
        # (Linux, CPython 3.11).
        parts = ["{"]
        separator = "\n  "
        for key, member in sorted(o.items()):
            parts.append(separator + encode_basestring(key) + ": ")
            separator = ",\n  "
            if (type(member) is list or type(member) is dict) and member:
                opening, closing, items = _json_items(member, "\n    ")
                spliced = [",\n    "] * (2 * len(items))
                spliced[0] = opening + "\n    "
                spliced[1::2] = items
                parts += spliced
                parts.append("\n  " + closing)
            else:
                parts.append(_json_value(member, "\n  "))
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
        arguments = ", ".join(str(l) for l in row["argument_labels"])
        implicits = ", ".join(str(l) for l in row["implicit_labels"])
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


def _cmd_run(args: argparse.Namespace) -> int:
    labeled = _core(args.file)
    try:
        value = parse_value(args.input)
    except ParseError as error:
        line, column = line_col(args.input, error.span.start)
        raise _CommandError(
            EXIT_DIAGNOSTICS, f"invalid input value at {line}:{column}: {error.message}"
        ) from None
    table, _ = constructor_table(labeled.program)
    diagnostics = validate_value(value, table)
    if diagnostics:
        raise _CommandError(
            EXIT_DIAGNOSTICS, "\n".join(f"input value: {d}" for d in diagnostics)
        )
    try:
        result, trace = run_main(labeled, value, max_calls=args.max_calls)
    except EvalError as error:
        raise _CommandError(
            EXIT_RUNTIME, f"runtime error: {error.kind} at {error.label}: {error.message}"
        ) from None
    if args.trace:
        for event in trace:
            print(
                f"call {event.caller} -> {event.callee} @ {event.application_label}: "
                f"{pretty_value(event.argument)}"
            )
    print(pretty_value(result))
    return EXIT_OK


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
    p_run.add_argument("--max-calls", type=int, default=DEFAULT_MAX_CALLS)
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
