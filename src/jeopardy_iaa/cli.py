"""Command-line interface.

    jeopardy-iaa parse    FILE
    jeopardy-iaa desugar  FILE
    jeopardy-iaa label    FILE
    jeopardy-iaa analyze  FILE [--format text|json] [--show-labels]
    jeopardy-iaa run      FILE INPUT [--trace] [--max-calls N]

Exit codes: 0 success, 1 language-level diagnostics, 2 I/O errors
(a closed output pipe and a source that is not UTF-8 too), 3 runtime
errors, located as ``FILE:line:col:`` where their labeled node starts.
Every command validates the program before running any later stage.
JSON output is deterministic: the same input file always produces
identical bytes.
One walk over the analysis' groups of label masks, keyed by (caller,
callee, argument mask), writes the report: it orders the groups once,
sorts only a group of two or more implicit masks, and writes a group's
row up to its implicit labels once.  A mask's bits rise in the report's
label order, integers then ``input`` then ``output``, so sorting masks
by their bit lists is sorting label sets.  Each label becomes text once
per report, and a mask becomes text with no label list between: a run of
bits joins a slice of those texts, any other mask one text per byte from
the report's per-byte tables.  The text and JSON formats differ only in
their templates; the JSON is what
``json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2)``
writes, byte for byte, for the report as a dict, which is never built.
``run --trace`` prints the calls' arguments through ``pretty_values``,
which writes a node that arguments share once and then reuses its
text; the result is printed through ``pretty_value``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import os
import sys
from itertools import islice
from typing import Callable, Sequence

from .analysis import configurations, symmetry_hints
from .desugar import desugar_program
from .evaluator import DEFAULT_MAX_CALLS, EvalError, run_main
from .labeler import LabeledProgram, annotate
from .parser import ParseError, line_col, parse, parse_value
from .printer import pretty_program, pretty_value, pretty_values
from .syntax import (
    Diagnostic,
    Program,
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
        diagnostic = Diagnostic("parse error", error.message, error.offset)
        raise _CommandError(
            EXIT_DIAGNOSTICS, _format_diagnostic(path, source, diagnostic)
        ) from None
    diagnostics = validate(program)
    if diagnostics:
        raise _CommandError(
            EXIT_DIAGNOSTICS, "\n".join(_format_diagnostic(path, source, d) for d in diagnostics)
        )
    return source, program


def _format_diagnostic(path: str, source: str, diagnostic: Diagnostic) -> str:
    if diagnostic.offset is not None:
        line, column = line_col(source, diagnostic.offset)
        return f"{path}:{line}:{column}: {diagnostic}"
    return f"{path}: {diagnostic}"


def _core(path: str) -> tuple[str, LabeledProgram]:
    source, program = _parse_and_validate(path)
    return source, annotate(desugar_program(program))


def _cmd_parse(args: argparse.Namespace) -> None:
    _, program = _parse_and_validate(args.file)
    print(pretty_program(program), end="")


def _cmd_desugar(args: argparse.Namespace) -> None:
    _, labeled = _core(args.file)
    print(pretty_program(labeled.program), end="")


def _cmd_label(args: argparse.Namespace) -> None:
    _, labeled = _core(args.file)
    print(pretty_program(labeled.program, labels=True), end="")


# Each format's templates: a label list's (empty, open, separator, close)
# texts, a configuration row split around its implicit labels, an inverted
# callee and a hint row.  JSON's are json.dumps(report, ensure_ascii=False,
# sort_keys=True, indent=2)'s layout.
_TEMPLATES = {
    "json": (
        ("[]", "[\n        ", ",\n        ", "\n      ]"),
        '{{\n      "argument_labels": {arguments},\n      "callee": {callee},\n'
        '      "caller": {caller},\n      "direction": "{direction}",\n      "implicit_labels": ',
        ',\n      "inverted": {inverted}\n    }}',
        "{}",
        '{{\n      "call_label": {call_label},\n      "function": {function},\n'
        '      "witness_labels": {witnesses}\n    }}',
    ),
    "text": (
        ("{}", "{", ", ", "}"),
        "{caller} -> {callee} [{direction}] A={arguments} I=",
        "",
        "(invert {})",
        "  {function} call@{call_label}: branching argument available in both directions"
        " (program points {witnesses})",
    ),
}


class _Quoted(dict):
    """The JSON text of each name and kind of one report, made the first
    time it is asked for."""

    def __missing__(self, value: str) -> str:
        quoted = self[value] = json.dumps(value, ensure_ascii=False)
        return quoted


class _ByteTexts(dict):
    """The text of each value of one byte of a mask, made when first asked
    for: its set bits' label ``texts``, each after a ``separator``."""

    __slots__ = ("texts", "separator")

    def __init__(self, texts: list[str], separator: str) -> None:
        self.texts, self.separator = texts, separator

    def __missing__(self, byte: int) -> str:
        bits, separator = enumerate(self.texts), self.separator
        joined = self[byte] = "".join([separator + text for i, text in bits if byte >> i & 1])
        return joined


def _mask_texts(texts: list[str], brackets: tuple) -> Callable[[int], str]:
    """Writes a mask as ``brackets``' (empty, open, separator, close) list
    of its labels' ``texts``: a run of bits from a slice of ``texts``, any
    other mask a byte at a time, from one lazy table per byte."""
    empty, opened, separator, closed = brackets
    cut = len(separator)
    tables: list[_ByteTexts] = []

    def labels(mask: int) -> str:
        lowest = mask & -mask
        if not mask & (mask + lowest):
            # one run of bits or none, such as the mask of a node's labels
            run = texts[lowest.bit_length() - 1 : mask.bit_length()]
            return opened + separator.join(run) + closed if mask else empty
        low, high = (lowest.bit_length() - 1) >> 3, (mask.bit_length() + 7) >> 3
        for start in range(8 * len(tables), 8 * high, 8):
            tables.append(_ByteTexts(texts[start : start + 8], separator))
        values = (mask >> 8 * low).to_bytes(high - low, "little")
        parts = map(dict.__getitem__, islice(tables, low, None), values)
        return opened + "".join(parts)[cut:] + closed

    return labels


def _splice(parts: list[str], head: str, brackets: str, items: list[str]) -> None:
    """Appends a JSON report member to ``parts``: ``head``, then its list
    or dict of ``items``, one item per line at indentation 4."""
    if not items:
        parts.append(head + brackets)
        return
    spliced = [",\n    "] * (2 * len(items))
    spliced[0] = head + brackets[0] + "\n    "
    spliced[1::2] = items
    parts += spliced
    parts.append("\n  " + brackets[1])


def analysis_report(labeled: LabeledProgram, form: str) -> str:
    """The analyze command's report in ``form``, ``"text"`` or ``"json"``:
    configurations, hints and, in JSON, the label index.

    Configurations are listed by caller, callee name, inversion depth,
    argument labels and implicit labels, each label set in bit order:
    the integers, then ``input``, then ``output``.  They come grouped by
    (caller, callee, argument mask): the groups are ordered once, only a
    group of two or more implicit masks is sorted, and a group's row is
    written up to its implicit labels once.  ``_mask_texts`` writes masks.
    """
    found = configurations(labeled)
    hints = symmetry_hints(labeled, found)
    order = found.order
    brackets, head, tail, inverted_callee, hint_row = _TEMPLATES[form]
    _, opened, separator, closed = brackets
    text = _Quoted().__getitem__ if form == "json" else str
    # each label's text, made once: the integers, then input and output;
    # a comprehension, since map(str, ...) took 1.4 times as long
    texts = [str(label) for label in range(labeled.label_count)]
    texts += map(text, found.universe[-2:])
    labels = _mask_texts(texts, brackets)

    # unique keys: a name and an inversion count fix the callee
    groups = sorted(
        ((caller, callee.name, callee.inversions, order(arguments)), callee, arguments, masks)
        for (caller, callee, arguments), masks in found.groups.items()
    )
    rows = []
    for (caller, name, _, _), callee, arguments, masks in groups:
        inverted = callee.backward
        fields = {
            "arguments": labels(arguments),
            "callee": inverted_callee.format(text(name)) if inverted else text(name),
            "caller": text(caller),
            "direction": "up" if inverted else "down",
            "inverted": "true" if inverted else "false",
        }
        group_head, group_tail = head.format_map(fields), tail.format_map(fields)
        # a key spells every bit up to the mask's highest, even for one mask
        if len(masks) > 1:
            masks = sorted(masks, key=order)
        rows += [group_head + labels(implicits) + group_tail for implicits in masks]
    # a hint has one witness label or more
    hint_rows = [
        hint_row.format(
            function=text(hint.function),
            call_label=texts[hint.call_label],
            witnesses=opened + separator.join([texts[i] for i in hint.witness_labels]) + closed,
        )
        for hint in hints
    ]
    if form == "text":
        return "\n".join(rows + ["", "hints:"] + hint_rows if hint_rows else rows)
    # a function's labels run from its parameter's label to the next
    # function's, and the labels of a (function, kind) share their row's
    # text; the keys are digit strings, sorted as strings, and the index
    # lists the labels in order, so a label indexes its row
    kinds = [node.kind for node in labeled.index.values()]
    starts = [definition.parameter.label for definition in labeled.functions.values()]
    rows_by_label: list[str] = []
    for function, start, end in zip(labeled.functions, starts, starts[1:] + [len(kinds)]):
        run = kinds[start:end]
        row_of = {
            kind: f'{{\n      "function": {text(function)},\n      "kind": {text(kind)}\n    }}'
            for kind in set(run)
        }
        rows_by_label += map(row_of.__getitem__, run)
    entries = [
        f'"{texts[label]}": {rows_by_label[label]}'
        for label in sorted(range(len(rows_by_label)), key=texts.__getitem__)
    ]
    # A member joined on its own would be copied again into the
    # document's text; that copy raised the peak RSS of analyze on
    # ring-144 from 29 to 36 MB (Linux, CPython 3.11).
    parts: list[str] = []
    _splice(parts, '{\n  "configurations": ', "[]", rows)
    _splice(parts, ',\n  "hints": ', "[]", hint_rows)
    _splice(parts, ',\n  "labels": ', "{}", entries)
    parts.append("\n}")
    return "".join(parts)


def _cmd_analyze(args: argparse.Namespace) -> None:
    _, labeled = _core(args.file)
    if args.show_labels:
        print(pretty_program(labeled.program, labels=True))
    print(analysis_report(labeled, args.format))


def _runtime_error(path: str, source: str, labeled: LabeledProgram, error: EvalError) -> str:
    """A runtime error, located like a parse diagnostic when its label has
    an offset; ``input`` and a label without one have no place in the source."""
    message = f"runtime error: {error.kind} at {error.label}: {error.message}"
    node = labeled.index.get(error.label)
    if node is None or node.offset is None:
        return message
    line, column = line_col(source, node.offset)
    return f"{path}:{line}:{column}: {message}"


def _input_error(text: str, offset: int, problem: object) -> str:
    """A parse error or a diagnostic in the input value, located in it."""
    line, column = line_col(text, offset)
    return f"invalid input value at {line}:{column}: {problem}"


def _cmd_run(args: argparse.Namespace) -> None:
    source, labeled = _core(args.file)
    try:
        value = parse_value(args.input)
    except ParseError as error:
        raise _CommandError(
            EXIT_DIAGNOSTICS, _input_error(args.input, error.offset, error.message)
        ) from None
    table, _ = constructor_table(labeled.program)
    diagnostics = validate_value(value, table)
    if diagnostics:
        raise _CommandError(
            EXIT_DIAGNOSTICS, "\n".join(_input_error(args.input, d.offset, d) for d in diagnostics)
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


def _call_budget(text: str) -> int:
    """The value of ``--max-calls``: a whole number of calls, 0 or more."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {budget}")
    return budget


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept: building it
    takes about twenty times as long as parsing one command line with it."""
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
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Unbuffered (python -u), one write(2) into a pipe whose reader
        # leaves part-way takes what fits, and the text layer drops the
        # rest with no error.  A buffered writer writes the rest, and so
        # meets the broken pipe.
        buffered = io.BufferedWriter(stdout.buffer)
        sys.stdout = io.TextIOWrapper(buffered, stdout.encoding, stdout.errors, write_through=True)
    # No pass makes a reference cycle (each breaks its walker's own), so
    # reference counting frees every tree, and the cycle collector, paused
    # here, would only walk live ones: 45 times in an analyze of a large
    # library.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args.handler(args)
        sys.stdout.flush()
        return EXIT_OK
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
    finally:
        if sys.stdout is not stdout:
            # detached, so that neither layer closes the file descriptor
            sys.stdout.detach().detach()
            sys.stdout = stdout
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
