"""Sugar elimination rules, checked against hand-applied rewrites."""

from __future__ import annotations

import pytest

from jeopardy_iaa import parse, validate
from jeopardy_iaa.desugar import desugar_program
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    FunctionRef,
    Var,
    fun_defs,
    pattern_variables,
)

from conftest import ALL_FIXTURES, assert_core, load_core


def body_of(program, name):
    for fd in fun_defs(program):
        if fd.name == name:
            return fd.body
    raise KeyError(name)


def test_application_with_pattern_argument_unchanged():
    core = desugar_program(parse("f x = f x. main f."))
    assert body_of(core, "f") == Apply(FunctionRef("f"), Var("x"))


def test_application_with_composite_argument_hoists():
    # hand application of the nested-call rewrite: the inner call becomes
    # the scrutinee of a case binding a fresh variable
    core = load_core("fib.jpd")
    branch_body = body_of(core, "fibonacci_pair").branches[1][1]
    expected = Case(
        Apply(FunctionRef("fibonacci_pair"), Var("k")),
        None,
        ((Var("w1"), Apply(FunctionRef("fibber"), Var("w1"))),),
    )
    assert branch_body == expected


def test_application_case_carries_declared_parameter_type():
    program = parse("data t = [c]. g (x : t) = x. f y = g (g y). main f.")
    core = desugar_program(program)
    body = body_of(core, "f")
    assert isinstance(body, Case)
    assert body.scrutinee_type == "t"
    assert body.branches == ((Var("w1"), Apply(FunctionRef("g"), Var("w1"))),)


def test_let_becomes_case():
    program = parse("data t = [c]. f x = let y : t = f x in y. main f.")
    body = body_of(desugar_program(program), "f")
    expected = Case(
        Apply(FunctionRef("f"), Var("x")),
        "t",
        ((Var("y"), Var("y")),),
    )
    assert body == expected


def test_empty_list_is_nil_pattern():
    body = body_of(desugar_program(parse("f x = []. main f.")), "f")
    assert body == Con("nil")


def test_all_pattern_constructor_unchanged():
    program = parse("data n = [zero] [successor n]. f x = [successor [zero]]. main f.")
    body = body_of(desugar_program(program), "f")
    assert body == Con("successor", (Con("zero"),))


def test_constructor_hoisting_rule():
    # hand application of the parameter and constructor rewrites:
    #   f (m, n) = [pair (sum (m, n)) m]
    #   ->  f w1 = case w1 of (m, n) -> case sum (m, n) of w2 -> [pair w2 m]
    program = parse(
        "data natural_number = [zero] [successor natural_number]."
        " sum (m, n) = m."
        " f (m, n) = [pair (sum (m, n)) m]."
        " main f."
    )
    assert isinstance(body_of(program, "f"), ConApp)
    core = desugar_program(program)
    pair_mn = Con("pair", (Var("m"), Var("n")))
    expected = Case(
        Var("w1"),
        None,
        (
            (
                pair_mn,
                Case(
                    Apply(FunctionRef("sum"), pair_mn),
                    None,
                    ((Var("w2"), Con("pair", (Var("w2"), Var("m")))),),
                ),
            ),
        ),
    )
    assert next(fd for fd in fun_defs(core) if fd.name == "f").parameter == Var("w1")
    assert body_of(core, "f") == expected


def test_multi_argument_hoisting_is_left_to_right():
    program = parse(
        "data t = [c t t t] [k]."
        " f x = [c (f x) [k] (f [k])]."
        " main f."
    )
    body = body_of(desugar_program(program), "f")
    # leftmost hoisted argument's case is outermost
    assert isinstance(body, Case)
    assert body.scrutinee == Apply(FunctionRef("f"), Var("x"))
    assert body.scrutinee_type == "t"
    inner = body.branches[0][1]
    assert isinstance(inner, Case)
    assert inner.scrutinee == Apply(FunctionRef("f"), Con("k"))
    leaf = inner.branches[0][1]
    assert leaf == Con("c", (Var("w1"), Con("k"), Var("w2")))


def test_pattern_parameter_becomes_variable_plus_case():
    core = load_core("fib.jpd")
    sum_def = next(fd for fd in fun_defs(core) if fd.name == "sum")
    assert sum_def.parameter == Var("w1")
    assert isinstance(sum_def.body, Case)
    assert sum_def.body.scrutinee == Var("w1")
    assert sum_def.body.branches[0][0] == Con("pair", (Var("m"), Var("n")))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_idempotence(path):
    once = load_core(path.name)
    assert desugar_program(once) == once


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_output_is_core(path):
    core = load_core(path.name)
    assert_core(core)
    assert validate(core) == []


def test_fresh_variables_do_not_capture():
    program = parse("f (w1, w2) = (f (w1, w2), w2). main f.")
    core = desugar_program(program)
    definition = next(fun_defs(core))
    assert definition.parameter.name == "w3"
    user_names = {"w1", "w2"}
    fresh_names = {
        v.name
        for fd in fun_defs(core)
        for v in pattern_variables(fd.parameter)
    }
    assert not (fresh_names & user_names)


def test_builtin_injection_only_when_needed():
    core = load_core("fib.jpd")
    injected = [d for d in core.definitions if isinstance(d, DataDef) and d.type_name == "builtin"]
    assert len(injected) == 1
    assert injected[0].constructors == (("pair", ("builtin", "builtin")),)

    plain = desugar_program(parse("data d = [c]. f x = [c]. main f."))
    assert all(not isinstance(d, DataDef) or d.type_name == "d" for d in plain.definitions)


def test_builtin_injection_for_sugar_met_only_in_patterns():
    # the parser builds these pair, cons and nil patterns directly
    core = desugar_program(parse("f (a, b : []) = (b, a). main f."))
    injected = [d for d in core.definitions if isinstance(d, DataDef)]
    assert [name for name, _ in injected[0].constructors] == ["cons", "nil", "pair"]


def test_the_injected_type_takes_a_name_the_program_leaves_free():
    core = desugar_program(parse("data builtin = [b]. f x = (x, x). main f."))
    data = [(d.type_name, d.constructors) for d in core.definitions if isinstance(d, DataDef)]
    assert data == [("builtin", (("b", ()),)), ("builtin2", (("pair", ("builtin2", "builtin2")),))]


def test_assert_core_finds_sugar_below_a_case():
    with pytest.raises(AssertionError, match="still contains sugar"):
        assert_core(parse("f x = case x of ; y -> (f y, y). main f."))


def test_user_pair_with_wrong_arity_is_an_error():
    program = parse("data d = [pair d d d] [c]. f x = (f x, x). main f.")
    assert [d.kind for d in validate(program)] == ["arity-mismatch"]


HAND_DESUGARED_FIB = """
data natural_number = [zero] [successor natural_number].
data builtin = [pair builtin builtin].

sum w1 =
  case w1 of
  ; (m, n) -> case m of
              ; [zero] -> n
              ; [successor k] -> sum (k, [successor n]).

fibber w1 =
  case w1 of
  ; (m, n) -> case sum (m, n) of
              ; w2 -> (w2, m).

fibonacci_pair n =
  case n of
  ; [zero] -> ([successor [zero]], [successor [zero]])
  ; [successor k] -> case fibonacci_pair k of
                     ; w1 -> fibber w1.

fibonacci n =
  case fibonacci_pair n of
  ; (_, nth) -> (nth, n).

main fibonacci.
"""


def test_semantics_preserved_against_hand_desugaring():
    from jeopardy_iaa import annotate, run_main
    from jeopardy_iaa.syntax import Con

    reference = parse(HAND_DESUGARED_FIB)
    assert validate(reference) == []
    assert_core(reference)
    reference_labeled = annotate(reference)
    pipeline_labeled = annotate(load_core("fib.jpd"))

    def nat(n):
        value = Con("zero")
        for _ in range(n):
            value = Con("successor", (value,))
        return value

    for n in range(6):
        expected, _ = run_main(reference_labeled, nat(n))
        actual, _ = run_main(pipeline_labeled, nat(n))
        assert actual == expected
