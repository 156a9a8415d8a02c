"""Forward interpreter: pattern matching, first-match cases, tracing."""

from __future__ import annotations

import pytest

from jeopardy_iaa import annotate, desugar_program, parse, parse_value, run_main
from jeopardy_iaa.analysis import configurations
from jeopardy_iaa.evaluator import EvalError, match_pattern
from jeopardy_iaa.syntax import Con, TOP, Var

from conftest import load_labeled


def labeled(source: str):
    return annotate(desugar_program(parse(source)))


def nat(n: int) -> Con:
    value = Con("zero")
    for _ in range(n):
        value = Con("successor", (value,))
    return value


def nat_of(value: Con) -> int:
    count = 0
    while value.name == "successor":
        count += 1
        value = value.args[0]
    assert value.name == "zero"
    return count


def reference_fibonacci_pair(n: int) -> tuple[int, int]:
    adjacent = (1, 1)
    for _ in range(n):
        adjacent = (adjacent[0] + adjacent[1], adjacent[0])
    return adjacent


# ---------------------------------------------------------------------------
# Pattern matching


def test_match_zero():
    assert match_pattern(Con("zero"), Con("zero")) == {}


def test_match_binds_components():
    pattern = Con("successor", (Var("k"),))
    assert match_pattern(pattern, nat(1)) == {"k": Con("zero")}


def test_match_failure():
    assert match_pattern(Con("zero"), nat(1)) is None
    assert match_pattern(Con("pair", (Var("a"),)), Con("pair", (nat(0), nat(0)))) is None


# ---------------------------------------------------------------------------
# Whole-program runs


def test_identity_program():
    program = labeled("data d = [c]. f x = x. main f.")
    value, trace = run_main(program, Con("c"))
    assert value == Con("c")
    assert [(e.caller, e.callee) for e in trace] == [(TOP, "f")]


def test_sum_first_branch():
    program = load_labeled("main_sum.jpd")
    value, _ = run_main(program, Con("pair", (nat(0), nat(3))))
    assert value == nat(3)


def test_sum_totals():
    program = load_labeled("main_sum.jpd")
    for m in range(4):
        for n in range(4):
            value, _ = run_main(program, Con("pair", (nat(m), nat(n))))
            assert nat_of(value) == m + n


def test_fibonacci_base_case():
    program = load_labeled("fib.jpd")
    value, _ = run_main(program, nat(0))
    assert value == Con("pair", (nat(1), nat(0)))


def test_fibonacci_against_reference():
    program = load_labeled("fib.jpd")
    for n in range(6):
        value, _ = run_main(program, nat(n))
        assert value.name == "pair"
        first, second = value.args
        _, nth = reference_fibonacci_pair(n)
        assert nat_of(first) == nth
        assert nat_of(second) == n


def test_fibonacci_trace_edges():
    program = load_labeled("fib.jpd")
    _, trace = run_main(program, nat(3))
    edges = {(e.caller, e.callee) for e in trace}
    assert edges == {
        (TOP, "fibonacci"),
        ("fibonacci", "fibonacci_pair"),
        ("fibonacci_pair", "fibonacci_pair"),
        ("fibonacci_pair", "fibber"),
        ("fibber", "sum"),
        ("sum", "sum"),
    }


def test_trace_is_deterministic():
    program = load_labeled("fib.jpd")
    first = run_main(program, nat(4))
    second = run_main(program, nat(4))
    assert first == second


def test_first_match_order_matters():
    from conftest import fixture_source

    shadowing = labeled(fixture_source("first_match.jpd"))
    value, _ = run_main(shadowing, Con("b"))
    assert value == Con("a")

    permuted = labeled(
        "data d = [a] [b].\n"
        "f x = case x of ; [b] -> [b] ; _ -> [a].\n"
        "main f."
    )
    value, _ = run_main(permuted, Con("b"))
    assert value == Con("b")


def test_no_branch_matched():
    program = labeled("data d = [a] [b]. f x = case x of ; [a] -> [a]. main f.")
    with pytest.raises(EvalError) as info:
        run_main(program, Con("b"))
    assert info.value.kind == "no-branch-matched"
    assert isinstance(info.value.label, int)


def test_inverted_main_is_refused():
    program = labeled("data d = [c]. f x = x. main (invert f).")
    with pytest.raises(EvalError) as info:
        run_main(program, Con("c"))
    assert info.value.kind == "inverted-call"


def test_a_reference_inverted_twice_runs_forward():
    program = labeled(
        "data d = [c]. g x = x. f x = (invert (invert g)) x. main (invert (invert f))."
    )
    result, trace = run_main(program, Con("c"))
    assert result == Con("c")
    assert [(event.caller, event.callee) for event in trace] == [(TOP, "f"), ("f", "g")]


def test_inverted_application_is_refused():
    program = load_labeled("invert_main.jpd")
    with pytest.raises(EvalError) as info:
        run_main(program, Con("c"))
    assert info.value.kind == "inverted-call"


def test_call_budget():
    program = labeled(
        "data d = [c]. spin x = spin x. main spin."
    )
    with pytest.raises(EvalError) as info:
        run_main(program, Con("c"), max_calls=100)
    assert info.value.kind == "call-budget-exceeded"
    # the budget counts calls, the top-level one included: sum (2, 1) makes 3
    summing = load_labeled("main_sum.jpd")
    argument = Con("pair", (nat(2), nat(1)))
    assert nat_of(run_main(summing, argument, max_calls=3)[0]) == 3
    with pytest.raises(EvalError) as info:
        run_main(summing, argument, max_calls=2)
    assert info.value.kind == "call-budget-exceeded"


def test_trace_agrees_with_analysis():
    program = load_labeled("fib.jpd")
    down_edges = {
        (c.caller, c.callee.name)
        for c in configurations(program)
        if not c.callee.backward
    }
    for n in range(6):
        _, trace = run_main(program, nat(n))
        for event in trace:
            assert (event.caller, event.callee) in down_edges


def test_input_sugar_round_trip():
    assert parse_value("3") == nat(3)


def test_sum_calls_itself_after_the_top_level_call():
    program = load_labeled("main_sum.jpd")
    value, trace = run_main(program, Con("pair", (nat(2), nat(1))))
    assert nat_of(value) == 3
    assert [(e.caller, e.callee) for e in trace] == [(TOP, "sum"), ("sum", "sum"), ("sum", "sum")]


def test_parameter_mismatch_on_hand_built_program():
    from jeopardy_iaa import annotate
    from jeopardy_iaa.syntax import Con, DataDef, FunDef, FunctionRef, Program

    program = Program(
        (
            DataDef("d", (("a", ()), ("b", ()))),
            FunDef("f", Con("a"), None, None, Con("a")),
        ),
        FunctionRef("f"),
    )
    labeled = annotate(program)
    with pytest.raises(EvalError) as info:
        run_main(labeled, Con("b"))
    assert info.value.kind == "parameter-mismatch"
