"""Command-line behavior: exit codes, report formats, stability."""

from __future__ import annotations

import contextlib
import fcntl
import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.cli import build_arg_parser, main
from jeopardy_iaa.printer import pretty_program

from conftest import (
    ALL_FIXTURES,
    FIXTURES,
    diamond,
    fixture_source,
    mutate,
    random_core_program,
    report_text,
    sugar_library,
)

SRC = Path(__file__).resolve().parents[1] / "src"

FIB = str(FIXTURES / "fib.jpd")

REPORT_SCHEMA = {
    "type": "object",
    "required": ["configurations", "hints", "labels"],
    "additionalProperties": False,
    "properties": {
        "configurations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "caller",
                    "callee",
                    "inverted",
                    "direction",
                    "argument_labels",
                    "implicit_labels",
                ],
                "additionalProperties": False,
                "properties": {
                    "caller": {"type": "string"},
                    "callee": {"type": "string"},
                    "inverted": {"type": "boolean"},
                    "direction": {"enum": ["down", "up"]},
                    "argument_labels": {"$ref": "#/$defs/labels"},
                    "implicit_labels": {"$ref": "#/$defs/labels"},
                },
            },
        },
        "hints": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["function", "call_label", "witness_labels"],
                "additionalProperties": False,
                "properties": {
                    "function": {"type": "string"},
                    "call_label": {"$ref": "#/$defs/label"},
                    "witness_labels": {"$ref": "#/$defs/labels"},
                },
            },
        },
        "labels": {
            "type": "object",
            "patternProperties": {
                "^[0-9]+$": {
                    "type": "object",
                    "required": ["function", "kind"],
                    "properties": {
                        "function": {"type": "string"},
                        "kind": {"type": "string"},
                    },
                }
            },
            "additionalProperties": False,
        },
    },
    "$defs": {
        "label": {
            "anyOf": [{"type": "integer"}, {"enum": ["input", "output"]}]
        },
        "labels": {"type": "array", "items": {"$ref": "#/$defs/label"}},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys):
    code, out, err = run_cli(capsys, "parse", FIB)
    assert code == 0
    assert "main fibonacci." in out
    assert err == ""


def test_parse_missing_file(capsys):
    code, _, err = run_cli(capsys, "parse", str(FIXTURES / "no_such.jpd"))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv", [["parse"], ["desugar"], ["label"], ["analyze"], ["run", None, "[z]"]], ids=lambda a: a[0]
)
def test_a_source_that_is_not_utf8_is_a_read_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.jpd"
    bad.write_bytes(b"data nat = [z] [s nat].\nf x = x.\nmain f.\n\xff\n")
    argv = [str(bad) if arg is None else arg for arg in argv]
    if len(argv) == 1:
        argv.append(str(bad))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"cannot read {bad}: not UTF-8 text (byte 0xff at offset 41)\n"


def test_sources_read_with_any_line_ending(capsys, tmp_path):
    source = "data nat = [z] [s nat].\nf x = case x of ; [z] -> [z] ; [s y] -> f y.\nmain f.\n"
    expected = None
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "lines.jpd"
        path.write_bytes(source.replace("\n", newline).encode("utf-8"))
        result = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert result[0] == 0
        expected = expected or result
        assert result == expected


def test_parse_reports_validation(capsys, tmp_path):
    bad = tmp_path / "bad.jpd"
    bad.write_text("f x = foo x. main f.", encoding="utf-8")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert "foo" in err


@pytest.mark.parametrize("main_ref", ["g", "(invert (invert g))"])
def test_an_undefined_main_is_located(capsys, tmp_path, main_ref):
    bad = tmp_path / "bad.jpd"
    bad.write_text(f"data d = [c].\nf x = x.\nmain {main_ref}.\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert (code, out) == (1, "")
    assert err == f"{bad}:3:6: undefined-function: function 'g' is not defined\n"


def test_parse_reports_syntax_error_with_position(capsys, tmp_path):
    bad = tmp_path / "bad.jpd"
    bad.write_text("f x = [c. main f.", encoding="utf-8")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert ":1:" in err


@pytest.mark.parametrize(
    "source, located",
    [
        # a term that is not a pattern fails at its first token
        ("f x = case x of ; g y -> x. main f.", "1:19: parse error: expected a pattern, found 'g'"),
        ("f x = case x of ; [c (g y)] -> x. main f.", "1:19: parse error: expected a pattern, found '['"),
        # a token that starts no pattern fails where it stands
        ("f x = case x of ; case -> x. main f.", "1:19: parse error: expected a pattern, found 'case'"),
        ("f (invert g) = x. main f.", "1:4: parse error: expected a pattern, found 'invert'"),
        ("f x = let (g x) = x in x. main f.", "1:11: parse error: expected a pattern, found '('"),
    ],
    ids=["application-branch", "nested-application-branch", "case-branch", "inverted-parameter", "let-binder"],
)
def test_parse_locates_a_pattern_position_that_holds_no_pattern(capsys, tmp_path, source, located):
    path = tmp_path / "pattern.jpd"
    path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(path))
    assert (code, out) == (1, "")
    assert err == f"{path}:{located}\n"


def test_desugar_prints_core(capsys):
    code, out, _ = run_cli(capsys, "desugar", FIB)
    assert code == 0
    assert "sum w1" in out


def test_label_prints_markers(capsys):
    code, out, _ = run_cli(capsys, "label", FIB)
    assert code == 0
    assert "{-0-}" in out


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", FIB)
    assert code == 0
    assert "⊤ -> fibonacci [down] A={input} I={}" in out
    assert "hints:" in out


def test_analyze_show_labels(capsys):
    code, out, _ = run_cli(capsys, "analyze", FIB, "--show-labels")
    assert code == 0
    assert "{-0-}" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run_cli(capsys, "analyze", FIB, "--format", "json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert len(report["configurations"]) == 12


def test_analyze_json_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "analyze", FIB, "--format", "json")
    _, second, _ = run_cli(capsys, "analyze", FIB, "--format", "json")
    assert first.encode() == second.encode()


def test_the_readme_shows_the_real_fib_report(capsys):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    excerpt = re.search(r"fib\.jpd`'s report.*?```\n(.*?)```", readme, re.S)[1]
    count = re.search(r"\((\d+) for\s+`fib\.jpd`\)", readme)[1]
    code, out, _ = run_cli(capsys, "analyze", FIB, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert int(count) == len(report["configurations"])
    # without its "..." lines and the commas before them, the excerpt is
    # the report cut to its first row, first hint and first label
    kept: list[str] = []
    for line in excerpt.splitlines():
        if line.strip() == "...":
            kept[-1] = kept[-1].removesuffix(",")
        else:
            kept.append(line)
    first = {
        "configurations": report["configurations"][:1],
        "hints": report["hints"][:1],
        "labels": dict(list(report["labels"].items())[:1]),
    }
    assert "\n".join(kept) == json.dumps(first, ensure_ascii=False, sort_keys=True, indent=2)


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_analyze_runs_on_every_fixture(capsys, path):
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0, err
    jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_run_numeral(capsys):
    code, out, _ = run_cli(capsys, "run", FIB, "3")
    assert code == 0
    three = "[successor [successor [successor [zero]]]]"
    assert out.strip() == f"({three}, {three})"


def test_run_zero(capsys):
    code, out, _ = run_cli(capsys, "run", FIB, "[zero]")
    assert code == 0
    assert out.strip().endswith("[zero])")


def test_run_reads_the_list_cells_it_prints(capsys, tmp_path):
    path = tmp_path / "id.jpd"
    path.write_text("data nat = [zero] [successor nat].\nid x = x.\nmain id.\n", encoding="utf-8")
    for value in ("([zero] : [])", "([zero] : ([successor [zero]] : []))", "(([] : []), [zero])"):
        code, out, err = run_cli(capsys, "run", str(path), value)
        assert (code, out, err) == (0, value + "\n", "")


def test_run_trace(capsys):
    code, out, _ = run_cli(capsys, "run", FIB, "2", "--trace")
    assert code == 0
    assert "call ⊤ -> fibonacci @ input" in out
    assert "call fibber -> sum @ 24" in out


def test_run_undeclared_constructor(capsys):
    code, _, err = run_cli(capsys, "run", FIB, "[unheard_of]")
    assert code == 1
    assert "unheard_of" in err


# each diagnostic of an input value on its own line, located in the value
@pytest.mark.parametrize(
    ("source", "value", "located"),
    [
        (None, "[succ [zero]]", ["1:1: undefined-constructor: constructor 'succ' is not declared"]),
        (
            None,
            "([zero], [successor])",
            ["1:10: arity-mismatch: constructor 'successor' takes 1 argument(s), got 0"],
        ),
        (
            "data t = [c]. f x = x. main f.",
            "([c], 1)",
            [
                "1:7: undefined-constructor: constructor 'successor' is not declared",
                "1:7: undefined-constructor: constructor 'zero' is not declared",
            ],
        ),
    ],
    ids=["undefined", "nested-arity", "numeral-without-zero"],
)
def test_run_locates_each_diagnostic_of_the_input_value(capsys, tmp_path, source, value, located):
    path = FIB
    if source is not None:
        path = tmp_path / "no_zero.jpd"
        path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), value)
    assert (code, out) == (1, "")
    assert err == "".join(f"invalid input value at {line}\n" for line in located)


# the nodes of a numeral all start at it: one line per constructor, not per node
def test_parse_reports_an_undeclared_numeral_once_per_constructor(capsys, tmp_path):
    source = tmp_path / "no_nat.jpd"
    source.write_text("f x = 400.\nmain f.\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(source))
    assert (code, out) == (1, "")
    assert err == (
        f"{source}:1:7: undefined-constructor: constructor 'successor' is not declared\n"
        f"{source}:1:7: undefined-constructor: constructor 'zero' is not declared\n"
    )


def test_run_reports_an_undeclared_input_numeral_once_per_constructor(capsys):
    code, out, err = run_cli(capsys, "run", str(FIXTURES / "first_match.jpd"), "400")
    assert (code, out) == (1, "")
    assert err == (
        "invalid input value at 1:1: undefined-constructor: constructor 'successor' is not declared\n"
        "invalid input value at 1:1: undefined-constructor: constructor 'zero' is not declared\n"
    )


def test_run_runtime_error_exit_code(capsys, tmp_path):
    looping = tmp_path / "loop.jpd"
    looping.write_text("data d = [c]. spin x = spin x. main spin.", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(looping), "[c]", "--max-calls", "50")
    assert code == 3
    assert "call-budget-exceeded" in err


def test_run_budget_spent_at_the_top_level_call_names_the_input(capsys):
    code, out, err = run_cli(capsys, "run", FIB, "3", "--max-calls", "0")
    assert (code, out) == (3, "")
    assert err == "runtime error: call-budget-exceeded at input: more than 0 calls; looping program?\n"


def test_run_refuses_a_negative_call_budget(capsys):
    for budget, problem in [("-1", "must be 0 or more, got -1"), ("abc", "invalid int value: 'abc'")]:
        with pytest.raises(SystemExit) as stopped:
            main(["run", FIB, "3", "--max-calls", budget])
        captured = capsys.readouterr()
        assert (stopped.value.code, captured.out) == (2, "")
        assert captured.err.startswith("usage: jeopardy-iaa run ")
        assert captured.err.endswith(f"error: argument --max-calls: {problem}\n")


def test_run_inverted_main(capsys, tmp_path):
    inverted = tmp_path / "inv.jpd"
    inverted.write_text("data d = [c]. f x = x. main (invert f).", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(inverted), "[c]")
    assert code == 3
    assert "inverted-call" in err


def test_run_no_branch_matched_prints_the_value(capsys, tmp_path):
    partial = tmp_path / "partial.jpd"
    partial.write_text(
        "data nat = [zero] [successor nat]. f n = case n of ; [zero] -> [zero]. main f.",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "run", str(partial), "3")
    assert code == 3
    assert out == ""
    assert err == (
        f"{partial}:1:42: runtime error: no-branch-matched at 1: "
        "no case branch matched value [successor [successor [successor [zero]]]]\n"
    )


LOCATED = [
    (
        "data nat = [zero] [successor nat].\nf n =\n  case n of\n  ; [zero] -> [zero].\nmain f.\n",
        ["3"],
        "3:3: runtime error: no-branch-matched at 1: "
        "no case branch matched value [successor [successor [successor [zero]]]]",
    ),
    (
        "data d = [c].\nspin x =\n  spin x.\nmain spin.\n",
        ["[c]", "--max-calls", "5"],
        "3:3: runtime error: call-budget-exceeded at 1: more than 5 calls; looping program?",
    ),
    (
        "data d = [c].\n\nf x = (invert f) x.\n\nmain f.\n",
        ["[c]"],
        "3:7: runtime error: inverted-call at 1: backward execution is not supported",
    ),
    (
        "data d = [a].\ng (x, y) = x.\nf v = g v.\nmain f.\n",
        ["[a]"],
        "2:3: runtime error: no-branch-matched at 1: no case branch matched value [a]",
    ),
    # applications whose argument is not a pattern: the desugarer hoists
    # the argument and rebuilds the application at the same place
    (
        "data t = [c].\nid x = x.\nf x = f (id x).\nmain f.\n",
        ["[c]", "--max-calls", "2"],
        "3:7: runtime error: call-budget-exceeded at 7: more than 2 calls; looping program?",
    ),
    (
        "data t = [c].\nid x = x.\nf x = (invert id) (id x).\nmain f.\n",
        ["[c]"],
        "3:7: runtime error: inverted-call at 7: backward execution is not supported",
    ),
]


@pytest.mark.parametrize(
    "source, arguments, located",
    LOCATED,
    ids=[
        "no-branch-matched",
        "call-budget",
        "inverted-call",
        "parameter-mismatch",
        "hoisted-call-budget",
        "hoisted-inverted-call",
    ],
)
def test_run_locates_a_runtime_error_at_its_label(capsys, tmp_path, source, arguments, located):
    path = tmp_path / "located.jpd"
    path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), *arguments)
    assert (code, out) == (3, "")
    assert err == f"{path}:{located}\n"


def test_run_locates_a_parameter_mismatch_at_the_parameter(capsys):
    # main_sum.jpd's parameter tuple becomes a case located at the tuple
    path = FIXTURES / "main_sum.jpd"
    code, out, err = run_cli(capsys, "run", str(path), "[zero]")
    assert (code, out) == (3, "")
    assert err == f"{path}:3:5: runtime error: no-branch-matched at 1: no case branch matched value [zero]\n"


def numeral_text(n: int) -> str:
    return "[successor " * n + "[zero]" + "]" * n


# quad n = 4n, built inside a pending case, so twice n = quad (quad n) = 16n
TWICE = (
    "data nat = [zero] [successor nat].\n"
    "quad n = case n of ; [zero] -> [zero] ; [successor k] ->"
    " case quad k of ; r -> [successor [successor [successor [successor r]]]].\n"
    "twice n = case quad n of ; q -> quad q.\n"
    "main twice.\n"
)


@pytest.mark.parametrize(
    "source, value, expected",
    [
        ("main_sum.jpd", "(399, 29)", numeral_text(428)),
        ("fib.jpd", "14", f"({numeral_text(610)}, {numeral_text(14)})"),
        (TWICE, "400", numeral_text(6400)),
    ],
    ids=["sum-399-29", "fib-14", "twice-400"],
)
def test_run_is_bounded_by_the_call_budget_only(capsys, tmp_path, source, value, expected):
    if source.endswith(".jpd"):
        path = FIXTURES / source
    else:
        path = tmp_path / "twice.jpd"
        path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), value)
    assert (code, err) == (0, "")
    assert out == expected + "\n"


@pytest.mark.parametrize("command", ["parse", "desugar", "label"])
def test_printing_commands_take_the_largest_numeral(capsys, tmp_path, command):
    source = tmp_path / "n400.jpd"
    source.write_text(
        "data nat = [zero] [successor nat].\nf x = case x of ; 400 -> 400 ; y -> [zero].\nmain f.\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, command, str(source))
    assert (code, err) == (0, "")
    assert out.count("[successor ") == 1 + 2 * 400  # the data definition, two numerals
    if command != "label":
        assert out.count(numeral_text(400)) == 2


def test_parse_refuses_a_numeral_too_large(capsys, tmp_path):
    source = tmp_path / "big.jpd"
    source.write_text("data nat = [zero] [successor nat].\nf x = 3000.\nmain f.\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "parse", str(source))
    assert code == 1
    assert err == f"{source}:2:7: parse error: numeral too large\n"


def test_run_refuses_an_input_numeral_too_large(capsys):
    code, out, err = run_cli(capsys, "run", str(FIXTURES / "main_sum.jpd"), "(2000, 0)")
    assert code == 1
    assert out == ""
    assert err == "invalid input value at 1:2: numeral too large\n"


@pytest.mark.parametrize("command", ["parse", "desugar", "label", "analyze", "run"])
def test_a_unicode_digit_in_a_source_is_a_located_parse_error(capsys, tmp_path, command):
    source = tmp_path / "digit.jpd"
    source.write_text("data t = [z].\nf x = ².\nmain f.\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(source), *(["[z]"] if command == "run" else []))
    assert (code, out) == (1, "")
    assert err == f"{source}:2:7: parse error: unexpected character '²'\n"


@pytest.mark.parametrize("value", ["³", "٣"])
def test_a_unicode_digit_in_a_run_input_is_a_located_error(capsys, value):
    code, out, err = run_cli(capsys, "run", FIB, value)
    assert (code, out) == (1, "")
    assert err == f"invalid input value at 1:1: unexpected character '{value}'\n"


def list_program(item: str, length: int) -> str:
    return f"id y = y.\nf x = {' : '.join([item] * length)}.\nmain f.\n"


@pytest.mark.parametrize("item", ["x", "id x"], ids=["variables", "applications"])
def test_a_long_list_is_a_located_parse_error(capsys, tmp_path, item):
    source = tmp_path / "list.jpd"
    source.write_text(list_program(item, 1000), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(source))
    assert (code, out) == (1, "")
    assert err.startswith(f"{source}:2:") and err.endswith(": parse error: nesting too deep\n")


@pytest.mark.parametrize(
    "item", ["x", "id x", "f x"], ids=["variables", "applications", "self-calls"]
)
def test_a_300_item_list_analyzes(capsys, tmp_path, item):
    source = tmp_path / "list.jpd"
    source.write_text(list_program(item, 300), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(source))
    # catches a closure that builds all 300 successors again on each of the
    # 600 pops of an f configuration: that took 9 s, skipping them 0.4 s
    assert time.perf_counter() - started <= 3
    assert (code, err) == (0, "")
    assert "⊤ -> f [down] A={input} I={}\n" in out


def invert_chain(n: int) -> str:
    return "(invert " * n + "id" + ")" * n


# an inversion chain as the main declaration, and as the callee of an application
CHAIN_PROGRAMS = {
    "main": lambda n: f"id x = x.\nmain {invert_chain(n)}.\n",
    "callee": lambda n: f"id x = x.\nf x = {invert_chain(n)} x.\nmain f.\n",
}


@pytest.mark.parametrize("command", ["parse", "analyze"])
@pytest.mark.parametrize("position", ["main", "callee"])
def test_an_inversion_chain_too_deep_is_a_located_parse_error(capsys, tmp_path, command, position):
    source = tmp_path / "chain.jpd"
    source.write_text(CHAIN_PROGRAMS[position](2000), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(source))
    assert (code, out) == (1, "")
    # one line, at the marker that passes the parser's nesting bound
    line, column, message = err.removeprefix(f"{source}:").split(":", 2)
    assert (line, message) == ("2", " parse error: nesting too deep\n")
    assert source.read_text(encoding="utf-8").splitlines()[1][int(column) - 1 :].startswith("(invert ")


@pytest.mark.parametrize("position", ["main", "callee"])
def test_a_deep_inversion_chain_analyzes(capsys, tmp_path, position):
    source = tmp_path / "chain.jpd"
    source.write_text(CHAIN_PROGRAMS[position](300), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(source))
    assert (code, err) == (0, "")
    assert "id [down]" in out


def successor_chain(depth: int) -> str:
    return (
        "data nat = [zero] [successor nat].\nbump n = [successor n].\n"
        f"f n = {'[successor ' * depth}(bump n){']' * depth}.\nmain f.\n"
    )


# the deepest chain that the parser's nesting bound lets through
DEEPEST_CHAIN = 396


def test_the_deepest_successor_chain_is_the_last_that_parses(capsys, tmp_path):
    source = tmp_path / "chain.jpd"
    source.write_text(successor_chain(DEEPEST_CHAIN + 1), encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(source))
    assert (code, out) == (1, "")
    assert err.startswith(f"{source}:3:") and err.endswith(": parse error: nesting too deep\n")


@pytest.mark.parametrize("depth", [360, DEEPEST_CHAIN])
def test_a_deep_successor_chain_runs_through_every_stage(tmp_path, depth):
    # in a child process, whose stack is a user's and not the test runner's:
    # under the default recursion limit, no stage may take three frames per
    # constructor level
    source = tmp_path / "chain.jpd"
    source.write_text(successor_chain(depth), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for command in ("desugar", "label", "analyze"):
        child = subprocess.run(
            [sys.executable, "-m", "jeopardy_iaa", command, str(source)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert (child.returncode, child.stderr) == (0, b""), command
        assert child.stdout


# each shape, and the deepest nesting of it that the parser's bound lets
# through: a case or a let costs one level, a parenthesised argument two
NESTED_TERMS = {
    "scrutinee cases": (lambda n: "case " * n + "x" + " of ; y -> y" * n, 398),
    "lets": (lambda n: "".join(f"let y{i} = id x in " for i in range(n)) + "x", 398),
    "applications": (lambda n: "id (" * n + "x" + ")" * n, 199),
}


@pytest.mark.parametrize("shape", NESTED_TERMS)
def test_the_deepest_nested_terms_run_through_every_stage(capsys, tmp_path, shape):
    build, depth = NESTED_TERMS[shape]
    source = tmp_path / "nested.jpd"
    source.write_text(f"id x = x.\nf x = {build(depth + 1)}.\nmain f.\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(source))
    assert (code, out) == (1, "")
    assert err.endswith(": parse error: nesting too deep\n")
    # the deepest that parses, in a child process as for the successor chain
    source.write_text(f"id x = x.\nf x = {build(depth)}.\nmain f.\n", encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for command in (["desugar"], ["label"], ["analyze", "--format", "json", "--show-labels"]):
        child = subprocess.run(
            [sys.executable, "-m", "jeopardy_iaa", *command, str(source)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert (child.returncode, child.stderr) == (0, b""), command
        assert child.stdout


# a child process that parses each file under the default recursion
# limit, then desugars and labels them all under a limit of 600
STACK_BUDGET = """\
import sys
from jeopardy_iaa import parse
from jeopardy_iaa.desugar import desugar_program
from jeopardy_iaa.labeler import annotate
programs = [parse(open(path, encoding="utf-8").read()) for path in sys.argv[1:]]
sys.setrecursionlimit(600)
for program in programs:
    core = desugar_program(program)
    annotate(core)
"""


def test_desugaring_and_labeling_take_one_frame_per_nesting_level(tmp_path):
    # the deepest successor chain and 398 nested cases in branch position:
    # at two frames per level, either pass would need about 800
    chain = tmp_path / "chain.jpd"
    chain.write_text(successor_chain(DEEPEST_CHAIN), encoding="utf-8")
    cases = tmp_path / "cases.jpd"
    cases.write_text(f"id x = x.\nf x = {'case id x of ; y -> ' * 398}y.\nmain f.\n", encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", STACK_BUDGET, str(chain), str(cases)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, b"")


def application_list(length: int) -> str:
    return (
        "data nat = [zero] [successor nat].\nbump n = [successor n].\n"
        f"f n = {' : '.join(['bump n'] * length)} : [].\nmain f.\n"
    )


# the longest list of applications that the parser's nesting bound lets through
LONGEST_LIST = 398


def test_the_longest_list_of_applications_is_the_last_that_parses(capsys, tmp_path):
    source = tmp_path / "list.jpd"
    source.write_text(application_list(LONGEST_LIST + 1), encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(source))
    assert (code, out) == (1, "")
    assert err.startswith(f"{source}:3:") and err.endswith(": parse error: nesting too deep\n")


@pytest.mark.parametrize("length", [329, LONGEST_LIST])
def test_a_long_list_of_applications_analyzes(tmp_path, length):
    # in a child process, as for the successor chain
    source = tmp_path / "list.jpd"
    source.write_text(application_list(length), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "jeopardy_iaa", "analyze", str(source)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert b"f -> bump [down]" in child.stdout


@pytest.mark.parametrize(
    "command", [["desugar"], ["label"], ["analyze", "--show-labels"]], ids=lambda c: c[0]
)
def test_a_long_list_of_applications_prints(tmp_path, command):
    # hoisting the applications nests one case per element, which the
    # core printer writes off the host stack
    source = tmp_path / "list.jpd"
    source.write_text(application_list(LONGEST_LIST), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "jeopardy_iaa", command[0], str(source), *command[1:]],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout.count(b"case") >= LONGEST_LIST


@pytest.mark.parametrize("command", ["parse", "desugar", "label", "analyze", "run"])
@pytest.mark.parametrize(
    "source, diagnostic",
    [
        ("data t = [pair t t t] [z].\nf x = (f x, x).\nmain f.\n", "2:7: arity-mismatch: constructor 'pair' takes 3"),
        ("data t = [cons t] [z].\nf x = (f x : x).\nmain f.\n", "2:8: arity-mismatch: constructor 'cons' takes 1"),
        # both cells start at y, so the place is reported once
        (
            "data t = [cons t t t] [a].\nf x = case x of ; (y : [a]) : [a] -> y.\nmain f.\n",
            "2:20: arity-mismatch: constructor 'cons' takes 3",
        ),
    ],
    ids=["pair", "cons", "cons-in-cons"],
)
def test_sugar_under_a_user_constructor_of_another_arity(capsys, tmp_path, command, source, diagnostic):
    path = tmp_path / "sugar.jpd"
    path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), *(["[z]"] if command == "run" else []))
    assert (code, out) == (1, "")
    assert err == f"{path}:{diagnostic} argument(s), got 2\n"


def _printed(command: str, source: str, form: str = "json") -> str:
    """What ``command`` prints for ``source``, ``analyze`` in ``form``."""
    program = parse(source)
    if command == "parse":
        return pretty_program(program)
    labeled = annotate(desugar_program(program))
    if command == "analyze":
        return report_text(labeled, form)
    return pretty_program(labeled.program, labels=command == "label")


def _child_env(**settings: str) -> dict[str, str]:
    """The environment of a ``python -m jeopardy_iaa`` child: this one's,
    buffered unless ``settings`` say otherwise, with the package on the path."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(env, **settings)


@pytest.mark.parametrize(
    "command, form",
    [("parse", None), ("desugar", None), ("label", None), ("analyze", "json"), ("analyze", "text")],
    ids=["parse", "desugar", "label", "analyze", "analyze-text"],
)
def test_printing_into_a_closed_pipe_exits_without_a_traceback(tmp_path, command, form):
    # The output is at least four times what a pipe holds, so the writer
    # is still writing when the reader closes its end, however it splits
    # its writes: analyze meets the closed pipe part-way through its rows.
    # Unbuffered, a raw stdout hands the output to one write(2), and the
    # text layer drops what a pipe closed half-way did not take; with no
    # later write the loss would go unseen unless main buffers it, so both
    # modes run.
    read_end, write_end = os.pipe()
    try:
        capacity = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read_end)
        os.close(write_end)
    if command == "analyze":
        sources = (diamond(k) for k in itertools.count(7))
    else:
        sources = (sugar_library(250 << i, random.Random(5)) for i in itertools.count())
    text = next(text for text in sources if len(_printed(command, text, form)) >= 4 * capacity)
    source = tmp_path / "big.jpd"
    source.write_text(text, encoding="utf-8")
    options = ["--format", form] if command == "analyze" else []
    for env in (_child_env(), _child_env(PYTHONUNBUFFERED="1")):
        child = subprocess.Popen(
            [sys.executable, "-m", "jeopardy_iaa", command, str(source), *options],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert child.stdout.readline().endswith(b"\n")
        child.stdout.close()
        err = child.stderr.read().decode("utf-8")
        child.stderr.close()
        assert child.wait(timeout=60) == 2, env.get("PYTHONUNBUFFERED")
        assert "Traceback" not in err
        assert "broken pipe" in err


# A child that measures how much its own peak RSS grows in main.  Linux
# records the old address space's high-water mark at exec, so a child of
# this grown process would start from that mark and see no growth; it
# is started from a small process in between, as perfbench's Launcher is.
_REPORT_GROWTH = """
import resource, sys
from jeopardy_iaa.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(sys.argv[1:])
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(code, grown, file=sys.stderr)
"""
_SPAWN = (
    "import os, sys; pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ);"
    " sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))"
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
def test_analyze_writes_its_report_without_holding_it(tmp_path):
    # diamond-12's JSON report is 4.8 MB; a writer that joined it into one
    # document grew the child by 19.5 MB, one that writes each row by 1.3 MB
    # (CPython 3.11)
    source = diamond(12)
    path = tmp_path / "diamond-12.jpd"
    path.write_text(source, encoding="utf-8")
    size = len(_printed("analyze", source).encode("utf-8"))
    for env in (_child_env(), _child_env(PYTHONUNBUFFERED="1")):
        child = subprocess.run(
            [sys.executable, "-c", _SPAWN, "-c", _REPORT_GROWTH, "analyze", str(path), "--format", "json"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
        code, grown_kib = map(int, child.stderr.split())
        assert code == 0
        assert grown_kib * 1024 < size / 2, env.get("PYTHONUNBUFFERED")


# A child that limits its own address space to what it holds after
# importing the package, plus 40 MB, and then runs main.
_OUT_OF_MEMORY = """
import os, resource, sys
from jeopardy_iaa.cli import main
with open("/proc/self/statm") as statm:
    pages = int(statm.read().split()[0])
limit = pages * os.sysconf("SC_PAGE_SIZE") + (40 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the address space from /proc")
def test_running_out_of_memory_exits_3_with_one_line(tmp_path):
    # diamond-20's analysis peaks near 400 MB, ten times the headroom; the
    # backward walk meets the limit within a second (CPython 3.11)
    path = tmp_path / "diamond-20.jpd"
    path.write_text(diamond(20), encoding="utf-8")
    for env in (_child_env(), _child_env(PYTHONUNBUFFERED="1")):
        child = subprocess.run(
            [sys.executable, "-c", _OUT_OF_MEMORY, "analyze", str(path), "--format", "json"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
        err = child.stderr.decode("utf-8")
        assert (child.returncode, err) == (3, f"{path}: out of memory\n")


@pytest.mark.parametrize(
    "args",
    [
        ["parse"],
        ["desugar"],
        ["label"],
        ["analyze", "--show-labels"],
        ["analyze", "--format", "json"],
        ["run", "--trace"],
    ],
)
def test_unbuffered_output_is_the_buffered_output(args):
    # No in-process run has a raw stdout under its text layer, so only a
    # child started with -u reaches the writer main puts over one.
    command, *options = args
    argv = [command, FIB, "3", *options] if command == "run" else [command, FIB, *options]
    buffered, unbuffered = (
        subprocess.run(
            [sys.executable, *flags, "-m", "jeopardy_iaa", *argv],
            capture_output=True,
            env=_child_env(),
            timeout=60,
        )
        for flags in ([], ["-u"])
    )
    assert (buffered.returncode, buffered.stderr) == (0, b"")
    assert buffered.stdout
    assert (unbuffered.returncode, unbuffered.stdout, unbuffered.stderr) == (0, buffered.stdout, b"")


@pytest.mark.parametrize("program", ["fib", "sugar-library", "diamond-10"])
def test_analyze_json_is_the_same_under_every_hash_seed(capsys, tmp_path, program):
    # the report writer reuses the text of a label row shared by many
    # labels, keyed by its (function, kind) read from a set, and the report
    # reads configurations from dicts and sets; no hash may reach the output
    if program == "fib":
        source = FIB
    else:
        source = str(tmp_path / f"{program}.jpd")
        text = sugar_library(130, random.Random(5)) if program == "sugar-library" else diamond(10)
        Path(source).write_text(text, encoding="utf-8")
    code, in_process, _ = run_cli(capsys, "analyze", source, "--format", "json")
    assert code == 0
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for seed in ("0", "1"):
        child = subprocess.run(
            [sys.executable, "-m", "jeopardy_iaa", "analyze", source, "--format", "json"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            timeout=60,
        )
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout == in_process.encode("utf-8")


# -- no traceback ---------------------------------------------------------------

CORPUS = (
    [fixture_source(path.name) for path in ALL_FIXTURES]
    + [sugar_library(1 + seed % 4, random.Random(seed)) for seed in range(8)]
    + [
        pretty_program(random_core_program(random.Random(seed), budget=12, branching=seed % 2 == 1))
        for seed in range(8)
    ]
)

# value literals of three tokens or more, so that three deletions leave one
VALUE_LITERALS = [
    "[zero]",
    "[successor [successor [zero]]]",
    "([zero], [successor [zero]])",
    "([zero] : ([zero] : []))",
    "[c1 [c0]]",
    "[a]",
]


@st.composite
def sources(draw):
    """A corpus source, mutated half the time: few mutants parse, so the
    intact half is what reaches the later stages."""
    source = draw(st.sampled_from(CORPUS))
    return mutate(draw, source) if draw(st.booleans()) else source


@st.composite
def run_inputs(draw):
    """A numeral up to past the largest, or a value literal, mutated half
    the time."""
    if draw(st.booleans()):
        return str(draw(st.integers(0, 450)))
    literal = draw(st.sampled_from(VALUE_LITERALS))
    return mutate(draw, literal) if draw(st.booleans()) else literal


@settings(deadline=None, max_examples=300)
@given(source=sources(), value=run_inputs())
def test_no_generated_source_or_input_escapes_the_exit_codes(tmp_path_factory, source, value):
    path = tmp_path_factory.mktemp("mutant") / "mutant.jpd"
    path.write_text(source, encoding="utf-8")
    file = str(path)
    for argv in (
        ["parse", file],
        ["desugar", file],
        ["label", file],
        ["analyze", file],
        ["analyze", "--format", "json", file],
        ["run", "--max-calls", "50", file, value],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv


# -- the cycle collector ---------------------------------------------------------

# an input for each fixture's main, and run's exit code on it
RUN_INPUTS = {
    "fib.jpd": ("2", 0),
    "first_match.jpd": ("[a]", 0),
    "identity.jpd": ("[]", 0),
    "invert_main.jpd": ("[c]", 3),
    "main_sum.jpd": ("(2, 1)", 0),
    "mutual.jpd": ("[z]", 0),
    "ring10.jpd": ("[z]", 0),
    "selfrec.jpd": ("[z]", 0),
    "sugar_soup.jpd": ("2", 0),
}

PRINTING_COMMANDS = (
    ["parse"],
    ["desugar"],
    ["label"],
    ["analyze"],
    ["analyze", "--format", "json", "--show-labels"],
)


def test_no_command_leaves_a_cycle_of_its_own(tmp_path):
    # main pauses the cycle collector, so a tree that a cycle holds would
    # stay until a later collection.  Building the argument parser leaves
    # argparse's formatter in a cycle, and so does a usage error; main
    # builds the parser once, so it is built here, before the first run.
    build_arg_parser()
    library = tmp_path / "library.jpd"
    library.write_text(sugar_library(40, random.Random(5)), encoding="utf-8")
    broken = tmp_path / "broken.jpd"
    broken.write_text("f x = .\nmain f.\n", encoding="utf-8")
    runs = [
        ([*command, str(path)], 0)
        for path in [*ALL_FIXTURES, library]
        for command in PRINTING_COMMANDS
    ]
    for path in ALL_FIXTURES:
        value, code = RUN_INPUTS[path.name]
        runs.append((["run", "--trace", str(path), value], code))
    runs += [
        (["parse", str(broken)], 1),
        (["run", FIB, "[z]"], 1),
        (["analyze", str(tmp_path / "missing.jpd")], 2),
        (["run", "--max-calls", "0", FIB, "3"], 3),
    ]
    flags = gc.get_debug()
    try:
        for argv, expected in runs:
            gc.collect()
            gc.set_debug(flags | gc.DEBUG_SAVEALL)
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            gc.collect()
            gc.set_debug(flags)
            assert code == expected, argv
            assert [repr(thing)[:80] for thing in gc.garbage] == [], argv
            gc.garbage.clear()
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["analyze", FIB], 0),
        (["run", FIB, "[z]"], 1),
        (["parse", str(FIXTURES / "no_such.jpd")], 2),
        (["run", "--max-calls", "0", FIB, "3"], 3),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3"],
)
def test_main_leaves_the_cycle_collector_as_it_found_it(capsys, argv, expected):
    assert gc.isenabled()
    assert run_cli(capsys, *argv)[0] == expected
    assert gc.isenabled()
    gc.disable()
    try:
        assert run_cli(capsys, *argv)[0] == expected
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_main_enables_the_collector_again_after_a_closed_pipe(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["parse", FIB]) == 2
        monkeypatch.undo()
    assert gc.isenabled()


def test_main_gives_the_same_results_again_and_after_a_usage_error(capsys):
    # one argument parser serves every call: no option of one command
    # line may reach the next
    runs = [
        ["analyze", FIB, "--format", "json", "--show-labels"],
        ["analyze", FIB],
        ["run", FIB, "3", "--trace", "--max-calls", "2"],
        ["run", FIB, "3"],
        ["run", FIB, "[z]"],
        ["parse", str(FIXTURES / "no_such.jpd")],
    ]
    first = [run_cli(capsys, *argv) for argv in runs]
    assert [code for code, _, _ in first] == [0, 0, 3, 0, 1, 2]
    assert [run_cli(capsys, *argv) for argv in runs[::-1]] == first[::-1]
    with pytest.raises(SystemExit):
        main(["analyze", FIB, "--format", "xml"])
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert [run_cli(capsys, *argv) for argv in runs] == first


def test_main_enables_the_collector_again_after_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--max-calls", "-1", FIB, "3"])
    assert gc.isenabled()


def test_no_collection_starts_while_a_command_runs(capsys, tmp_path):
    source = tmp_path / "library.jpd"
    source.write_text(sugar_library(130, random.Random(5)), encoding="utf-8")
    starts = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    # argparse builds fewer objects than a first-generation collection
    # waits for; what main built counts towards the next one after it
    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(["analyze", str(source)])
    finally:
        gc.callbacks.remove(count)
    assert (code, starts) == (0, [])
    assert capsys.readouterr().out
