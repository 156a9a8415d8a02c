"""Well-formedness validation: accept the flagship fixture, reject
programs that break exactly one rule each."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import example, given, strategies as st

from jeopardy_iaa import parse, syntax, validate
from jeopardy_iaa.analysis import CallConfiguration, Hint
from jeopardy_iaa.evaluator import CallEvent
from jeopardy_iaa.labeler import LabeledProgram
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    ConstructorInfo,
    DataDef,
    Diagnostic,
    FunDef,
    FunctionRef,
    Program,
    Var,
    flip,
)

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
    assert flip(FunctionRef("f", 3)) == FunctionRef("f", 0)


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


# -- records -------------------------------------------------------------------

# the classes whose ``offset`` stays out of ==, hash and repr
LOCATED = (Var, Con, Apply, Case, ConApp, FunctionRef, DataDef, FunDef)
RECORDS = LOCATED + (
    Program,
    Diagnostic,
    ConstructorInfo,
    CallConfiguration,
    Hint,
    CallEvent,
    LabeledProgram,
)

_field_values = st.none() | st.integers(0, 3) | st.sampled_from(["a", "b"]) | st.just(())
_offsets = st.none() | st.integers(0, 9)


def test_the_properties_cover_every_record_class():
    names = ("syntax", "parser", "printer", "desugar", "labeler", "evaluator", "analysis", "cli")
    found = {
        value
        for module in map(importlib.import_module, (f"jeopardy_iaa.{name}" for name in names))
        for value in vars(module).values()
        if isinstance(value, type) and value.__setattr__ is syntax._immutable
    }
    assert found == set(RECORDS)
    assert len(RECORDS) == 15


def _compared(cls: type) -> tuple[str, ...]:
    return tuple(name for name in cls.__slots__ if not (cls in LOCATED and name == "offset"))


@given(st.sampled_from(RECORDS), st.lists(_field_values, min_size=5, max_size=5), _offsets, _offsets)
def test_a_record_compares_hashes_and_shows_its_fields(cls, values, one, two):
    names = _compared(cls)
    fields = dict(zip(names, values))
    offsets = ({"offset": one}, {"offset": two}) if cls in LOCATED else ({}, {})
    a, b = cls(**fields, **offsets[0]), cls(*fields.values(), **offsets[1])
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, name) for name in names] == values[: len(names)]


@given(st.sampled_from(RECORDS), st.sampled_from(RECORDS), st.lists(_field_values, min_size=5, max_size=5))
@example(Apply, Con, [FunctionRef("f"), Var("x"), 3, None, None])
@example(Var, FunctionRef, ["f", 1, None, None, None])
def test_records_of_two_classes_are_never_equal(one, two, values):
    a = one(*values[: len(_compared(one))])
    b = two(*values[: len(_compared(two))])
    assert (a == b) is (one is two)
    assert (a != b) is (one is not two)


def test_a_diagnostic_compares_and_shows_its_offset():
    one, two = Diagnostic("k", "m", 0), Diagnostic("k", "m", 1)
    assert one != two and hash(one) == hash(Diagnostic("k", "m", 0))
    assert one != Diagnostic("k", "m") and one != Diagnostic("k", "n", 0)
    assert repr(one) == "Diagnostic(kind='k', message='m', offset=0)"


def test_record_keywords_and_defaults():
    assert Apply(label=3, argument=Var("x"), callee=FunctionRef("f")) == Apply(FunctionRef("f"), Var("x"), 3)
    assert (Var("x").label, Var("x").offset) == (None, None)
    assert (Con("c").args, FunctionRef("f").inversions) == ((), 0)
    assert Diagnostic("k", "m").offset is None
    assert ConstructorInfo((None,)).builtin is False
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var("x", colour=1)
    with pytest.raises(TypeError):
        Case(Var("x"), None)
