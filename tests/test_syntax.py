"""Well-formedness validation: accept the flagship fixture, reject
programs that break exactly one rule each."""

from __future__ import annotations

from jeopardy_iaa import parse, validate
from jeopardy_iaa.syntax import FunctionRef, flip

from conftest import fixture_source


def kinds(program_text: str) -> list[str]:
    return [d.kind for d in validate(parse(program_text))]


def test_fib_program_is_clean():
    assert validate(parse(fixture_source("fib.jpd"))) == []


def test_undefined_function():
    assert "undefined-function" in kinds("f x = foo x. main f.")


def test_undefined_main_function():
    assert "undefined-function" in kinds("main f.")


def test_constructor_arity_mismatch():
    text = "data d = [successor d] [zero]. f x = [successor]. main f."
    assert "arity-mismatch" in kinds(text)


def test_undefined_constructor():
    assert "undefined-constructor" in kinds("f x = [c]. main f.")


def test_duplicate_function():
    assert "duplicate-function" in kinds("f x = x. f y = y. main f.")


def test_duplicate_constructor():
    text = "data a = [c]. data b = [c a]. f x = x. main f."
    assert "duplicate-constructor" in kinds(text)


def test_nonlinear_binding_pattern():
    text = "f (x, x) = x. main f."
    assert "nonlinear-pattern" in kinds(text)


def test_unbound_variable():
    assert "unbound-variable" in kinds("f x = y. main f.")


def test_duplicate_variable_in_term_is_fine():
    # terms may copy a binding; linearity applies to binding patterns only
    assert kinds("f x = (x, x). main f.") == []


def test_wildcard_binds_nothing():
    assert kinds("data d = [c]. f _ = [c]. main f.") == []
    assert "unbound-variable" in kinds("data d = [c]. f _ = _. main f.")


def test_builtin_constructors_need_no_declaration():
    assert kinds("f x = (x, []). main f.") == []


def test_numerals_require_declared_naturals():
    assert "undefined-constructor" in kinds("f x = 2. main f.")
    clean = "data n = [zero] [successor n]. f x = 2. main f."
    assert kinds(clean) == []


def test_function_ref_helpers():
    ref = FunctionRef("f", 2)
    assert (ref.name, ref.inversions) == ("f", 2)
    assert flip(ref) == FunctionRef("f", 1)
    assert flip(FunctionRef("f")) == FunctionRef("f", 1)


def diagnosed(program_text: str) -> list[tuple[str, str]]:
    return [(d.kind, d.message.split("'")[1]) for d in validate(parse(program_text))]


def test_pattern_diagnostics_put_constructors_before_variables():
    assert diagnosed("f (x, (x, [q])) = x. main f.") == [
        ("undefined-constructor", "q"),
        ("nonlinear-pattern", "x"),
    ]
    assert diagnosed("f x = [a x w [q]]. main f.") == [
        ("undefined-constructor", "a"),
        ("undefined-constructor", "q"),
        ("unbound-variable", "w"),
    ]
