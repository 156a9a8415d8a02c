from __future__ import annotations

import pytest

from jeopardy_iaa import parse, parse_value, validate
from jeopardy_iaa.parser import ParseError, line_col
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    FunctionRef,
    Var,
    fun_defs,
)

from conftest import fixture_source


def test_fib_program_shape():
    program = parse(fixture_source("fib.jpd"))
    functions = list(fun_defs(program))
    assert [f.name for f in functions] == ["sum", "fibber", "fibonacci_pair", "fibonacci"]
    data = [d for d in program.definitions if isinstance(d, DataDef)]
    assert len(data) == 1
    assert data[0].constructors == (("zero", ()), ("successor", ("natural_number",)))
    assert program.main == FunctionRef("fibonacci")


def test_parse_is_separate_from_validation():
    program = parse("main f.")
    assert program.main == FunctionRef("f")
    assert any(d.kind == "undefined-function" for d in validate(program))


def test_inverted_application():
    program = parse("data d = [c]. f x = (invert f) x. main f.")
    body = next(fun_defs(program)).body
    assert isinstance(body, Apply)
    assert body.callee == FunctionRef("f", 1)


def test_an_inverted_reference_in_argument_position_takes_the_next_atom():
    body = next(fun_defs(parse("f x = h (invert g) x. main f."))).body
    assert body == Apply(FunctionRef("h"), Apply(FunctionRef("g", 1), Var("x")))
    with pytest.raises(ParseError, match="expected '.' after function body, found 'x'"):
        parse("f x = h g x. main f.")


def test_main_can_be_inverted():
    program = parse("f x = x. main (invert f).")
    assert program.main == FunctionRef("f", 1)


def test_tuple_of_patterns_collapses():
    body = next(fun_defs(parse("f x = (x, x). main f."))).body
    assert body == Con("pair", (Var("x"), Var("x")))


def test_tuple_with_application_stays_sugar():
    body = next(fun_defs(parse("f x = (f x, x). main f."))).body
    assert isinstance(body, ConApp) and body.name == "pair"
    assert isinstance(body.args[0], Apply)


def test_application_argument_kinds():
    program = parse("f x = f (f x). g y = f y. main f.")
    f_body = next(fun_defs(program)).body
    assert isinstance(f_body, Apply)
    assert isinstance(f_body.argument, Apply)
    g_body = list(fun_defs(program))[1].body
    assert g_body == Apply(FunctionRef("f"), Var("y"))


def test_numeral_encoding():
    body = next(fun_defs(parse("f x = 2. main f."))).body
    two = Con("successor", (Con("successor", (Con("zero"),)),))
    assert body == two


def test_empty_list_and_cons():
    body = next(fun_defs(parse("f x = (x : []). main f."))).body
    assert body == Con("cons", (Var("x"), Con("nil")))


def test_wildcards_get_distinct_fresh_names():
    body = next(fun_defs(parse("f p = case p of ; (_, _) -> []. main f."))).body
    assert isinstance(body, Case)
    pattern = body.branches[0][0]
    names = [arg.name for arg in pattern.args]
    assert names == ["_1", "_2"]


def test_case_scrutinee_ascription():
    body = next(fun_defs(parse("data t = [c]. f x = case x : t of ; y -> y. main f."))).body
    assert isinstance(body, Case)
    assert body.scrutinee_type == "t"


def test_cons_scrutinee_requires_no_ambiguity():
    # without a following type name, the colon belongs to a cons cell
    body = next(fun_defs(parse("f x = case (x : []) of ; y -> y. main f."))).body
    assert body.scrutinee == Con("cons", (Var("x"), Con("nil")))


def test_parameter_ascription_forms():
    program = parse("data t = [c]. f (x : t) : t = x. main f.")
    definition = next(fun_defs(program))
    assert definition.parameter == Var("x")
    assert definition.parameter_type == "t"
    assert definition.return_type == "t"


def test_let_parses():
    program = parse("data t = [c]. f x = let y : t = f x in y. main f.")
    body = next(fun_defs(program)).body
    assert isinstance(body, Case)
    assert body.scrutinee_type == "t"


def test_keywords_are_reserved():
    with pytest.raises(ParseError):
        parse("case x = x. main case.")
    with pytest.raises(ParseError):
        parse("f invert = invert. main f.")


def test_duplicate_main_rejected():
    with pytest.raises(ParseError):
        parse("f x = x. main f. main f.")


def test_missing_main_rejected():
    with pytest.raises(ParseError):
        parse("f x = x.")


def test_parse_error_has_an_offset():
    source = "f x = [c. main f."
    with pytest.raises(ParseError) as info:
        parse(source)
    assert line_col(source, info.value.offset) == (1, 9)


def test_underscore_prefixed_identifier_rejected():
    with pytest.raises(ParseError):
        parse("f _x = x. main f.")


def test_three_tuples_rejected():
    with pytest.raises(ParseError):
        parse("f x = (x, x, x). main f.")


def test_comments_are_skipped():
    program = parse("-- a comment\nf x = x. -- trailing\nmain f.\n")
    assert next(fun_defs(program)).name == "f"


def test_value_literals():
    assert parse_value("[zero]") == Con("zero")
    assert parse_value("2") == Con("successor", (Con("successor", (Con("zero"),)),))
    assert parse_value("([zero], [nil])") == Con("pair", (Con("zero"), Con("nil")))
    with pytest.raises(ParseError):
        parse_value("[zero] trailing")


@pytest.mark.parametrize(
    "text", ["401", "(0, 401)", "1000000", "9" * 5000], ids=["401", "pair", "million", "5000-digits"]
)
def test_numerals_are_bounded_by_the_nesting_limit(text):
    with pytest.raises(ParseError, match="numeral too large") as caught:
        parse_value(text)
    # at the numeral's first digit
    offset = caught.value.offset
    assert text[offset].isdigit() and not text[offset - 1 : offset].isdigit()


def test_numeral_at_the_nesting_limit_is_accepted():
    value = parse_value("0400")
    depth = 0
    while value.args:
        value = value.args[0]
        depth += 1
    assert depth == 400


@pytest.mark.parametrize("digit", ["²", "٣", "３"], ids=["superscript", "arabic-indic", "fullwidth"])
def test_numerals_are_ascii_digits(digit):
    source = f"data t = [z].\nf x = {digit}.\nmain f.\n"
    with pytest.raises(ParseError, match=f"unexpected character '{digit}'") as caught:
        parse(source)
    assert line_col(source, caught.value.offset) == (2, 7)
    for text, column in ((digit, 0), (f"1{digit}", 1), (f"({digit}, 0)", 1)):
        with pytest.raises(ParseError, match=f"unexpected character '{digit}'") as caught:
            parse_value(text)
        assert caught.value.offset == column


@pytest.mark.parametrize(
    "read, text, message",
    [
        (parse, "f x = x\nmain f.\n", "expected '.' after function body, found 'main'"),
        (parse, "f x = let y = x. main f.", "expected 'in', found '.'"),
        (parse_value, "(1)", "expected ',' or ':' in a pair or list value, found ')'"),
        (parse, "data t = [c. main f.", "expected ']', found '.'"),
    ],
    ids=["described", "keyword", "value", "token-kind"],
)
def test_expected_token_messages(read, text, message):
    # a description prints as written; only a bare token kind is quoted
    with pytest.raises(ParseError) as caught:
        read(text)
    assert caught.value.message == message


def list_of(item: str, length: int) -> str:
    return " : ".join([item] * length)


@pytest.mark.parametrize("item", ["x", "f x"], ids=["variables", "applications"])
def test_a_list_counts_its_length_toward_the_nesting_bound(item):
    source = f"f x = {list_of(item, 1000)}.\nmain f.\n"
    with pytest.raises(ParseError, match="nesting too deep") as caught:
        parse(source)
    # at the atom of the 400th item: the body's term and that atom are
    # the other two levels
    start = caught.value.offset
    assert (source[start], source.count(":", 0, start)) == ("x", 399)
    assert parse(f"f x = {list_of(item, 300)}.\nmain f.\n").main == FunctionRef("f")
