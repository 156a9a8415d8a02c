"""Round-trip discipline: printed programs re-parse to identical trees."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from jeopardy_iaa import annotate, desugar_program, parse, parse_value, pretty_program, printer
from jeopardy_iaa.evaluator import run_main
from jeopardy_iaa.printer import (
    KEPT_LINES,
    pretty_funref,
    pretty_pattern,
    pretty_value,
    pretty_values,
)
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    FunDef,
    FunctionRef,
    Pattern,
    Program,
    Term,
    Var,
    is_wildcard_name,
)

import test_nodes
from conftest import ALL_FIXTURES, load_core, load_labeled


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_round_trip_fixture(path):
    first = parse(path.read_text(encoding="utf-8"))
    second = parse(pretty_program(first))
    assert first == second


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_round_trip_core_program(path):
    core = load_core(path.name)
    assert parse(pretty_program(core)) == core


def test_nested_inversion_prints_with_parens():
    assert pretty_funref(FunctionRef("f", 2)) == "(invert (invert f))"


def test_wildcards_print_back_as_underscore():
    source = "f p = case p of ; (_, _) -> []. main f."
    printed = pretty_program(parse(source))
    assert "_1" not in printed
    assert parse(printed) == parse(source)


def test_cons_parameter_round_trips():
    source = "data l = [nil] [cons l l]. f ((x : xs)) = x. main f."
    first = parse(source)
    assert parse(pretty_program(first)) == first


def test_value_printing():
    pair = Con("pair", (Con("zero"), Con("nil")))
    assert pretty_value(pair) == "([zero], [])"
    assert pretty_value(Con("cons", (Con("zero"), Con("nil")))) == "([zero] : [])"


def test_label_annotations_appear():
    from conftest import load_labeled

    printed = pretty_program(load_labeled("fib.jpd").program, labels=True)
    assert "{-0-}" in printed and "{-58-}" in printed


def test_random_core_programs_round_trip():
    import random

    from conftest import random_labeled_program

    rng = random.Random(97)
    for _ in range(300):
        program = random_labeled_program(rng).program
        unlabeled = parse(pretty_program(program))
        assert pretty_program(unlabeled) == pretty_program(program)


def test_mixed_sugar_round_trip():
    source = (
        "data n = [zero] [successor n]. "
        "f x = [successor (f x)]. "
        "g x = (f x, (f x : [])). "
        "main f."
    )
    first = parse(source)
    assert parse(pretty_program(first)) == first


ASCRIBED = (
    "data nat = [zero] [successor nat].\n\n"
    "data list = [nil] [cons nat list].\n\n"
    "f (x : nat) : nat = x.\n\n"
    "g ((h : t) : list) = h.\n\n"
    "main f.\n"
)


def test_definition_ascriptions_print_and_read_back():
    program = parse(ASCRIBED)
    core = desugar_program(program)
    assert pretty_program(program) == ASCRIBED
    assert "\n\nf (x : nat) : nat = x.\n\ng (w1 : list) =\n" in pretty_program(core)
    assert parse(pretty_program(core)) == core
    labeled = pretty_program(annotate(core).program, labels=True)
    assert "\n\nf (x{-0-} : nat) : nat = x{-1-}.\n\ng (w1{-2-} : list) =\n" in labeled


# -- the one node loop on generated terms ---------------------------------------


def program_of(body: Term) -> Program:
    return Program((FunDef("f", Var("a"), None, None, body),), FunctionRef("f"))


_b = FunctionRef("b")
_case = Case(Var("a"), None, ((Con("a"), Var("b")), (Var("c"), Var("c"))))


@settings(deadline=None, max_examples=300)
@given(test_nodes.terms | test_nodes.core_terms)
# a case as a branch body other than the last, and as a scrutinee
@example(Case(Var("a"), None, ((Con("a"), _case), (Var("b"), Var("b")))))
@example(Case(_case, None, ((Var("b"), Var("b")),)))
# applications to a pattern, to a case and to an application, and a case,
# in a list cell and in [c …]
@example(ConApp("cons", (Apply(_b, Var("a")), ConApp("cons", (Apply(_b, _case), _case)))))
@example(ConApp("c", (Apply(_b, Var("a")), Apply(_b, Apply(_b, Var("a"))), _case)))
# a case as a pair's first element
@example(ConApp("pair", (_case, Var("a"))))
def test_printed_terms_read_back(term):
    printed = pretty_program(program_of(term))
    assert pretty_program(parse(printed)) == printed


# -- the iterative writer against the recursive printer it replaced -------------
#
# reference_pattern and reference_value are the earlier recursive
# pretty_pattern and pretty_value, copied verbatim apart from their names,
# so that the reference shares no code with the writer it checks.


def _lab(label: int | None, labels: bool) -> str:
    return f"{{-{label}-}}" if labels and label is not None else ""


def reference_pattern(pattern: Pattern, labels: bool = False) -> str:
    if isinstance(pattern, Var):
        name = "_" if is_wildcard_name(pattern.name) and not labels else pattern.name
        return f"{name}{_lab(pattern.label, labels)}"
    suffix = _lab(pattern.label, labels)
    if pattern.name == "pair" and len(pattern.args) == 2:
        first = reference_pattern(pattern.args[0], labels)
        second = reference_pattern(pattern.args[1], labels)
        return f"({first}, {second}){suffix}"
    if pattern.name == "cons" and len(pattern.args) == 2:
        head = reference_pattern(pattern.args[0], labels)
        tail = reference_pattern(pattern.args[1], labels)
        return f"({head} : {tail}){suffix}"
    if pattern.name == "nil" and not pattern.args:
        return f"[]{suffix}"
    if not pattern.args:
        return f"[{pattern.name}]{suffix}"
    args = " ".join(reference_pattern(arg, labels) for arg in pattern.args)
    return f"[{pattern.name} {args}]{suffix}"


def reference_value(value: Con) -> str:
    if value.name == "pair" and len(value.args) == 2:
        return f"({reference_value(value.args[0])}, {reference_value(value.args[1])})"
    if value.name == "cons" and len(value.args) == 2:
        return f"({reference_value(value.args[0])} : {reference_value(value.args[1])})"
    if value.name == "nil" and not value.args:
        return "[]"
    if not value.args:
        return f"[{value.name}]"
    args = " ".join(reference_value(arg) for arg in value.args)
    return f"[{value.name} {args}]"


# pair, cons and nil at every arity, so that the sugar and its near misses show
_constructors = st.sampled_from(["pair", "cons", "nil", "zero", "successor"])
_labels = st.none() | st.integers(0, 99)

patterns = st.recursive(
    st.builds(Var, st.sampled_from(["x", "k", "_1", "_12"]), _labels),
    lambda inner: st.builds(Con, _constructors, st.lists(inner, max_size=3).map(tuple), _labels),
    max_leaves=12,
)

values = st.recursive(
    st.builds(Con, _constructors),
    lambda inner: st.builds(Con, _constructors, st.lists(inner, max_size=3).map(tuple)),
    max_leaves=12,
)


@settings(deadline=None, max_examples=300)
@given(patterns, st.booleans())
def test_pattern_writer_is_the_recursive_printer(pattern, labels):
    assert pretty_pattern(pattern, labels) == reference_pattern(pattern, labels)


@settings(deadline=None, max_examples=300)
@given(values)
def test_value_writer_is_the_recursive_printer(value):
    assert pretty_value(value) == reference_value(value)


@settings(deadline=None, max_examples=300)
@given(values)
def test_printed_values_read_back(value):
    # run prints its result with pretty_value and reads its input with
    # parse_value, so a printed result is a valid input
    assert parse_value(pretty_value(value)) == value


# -- the writer that reuses shared subtrees against the plain one ----------------


@st.composite
def shared_values(draw):
    """A list of values drawn from a pool in which each node is built from
    earlier ones, so that the same object recurs across values and within
    one value, as in ``pair(x, x)``."""
    pool = [Con(name) for name in draw(st.lists(_constructors, min_size=1, max_size=3))]
    for _ in range(draw(st.integers(0, 8))):
        arity = draw(st.integers(1, 3))
        if draw(st.booleans()):
            args = (draw(st.sampled_from(pool)),) * arity
        else:
            args = tuple(draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity)))
        pool.append(Con(draw(_constructors), args))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


_TRACED = {name: load_labeled(name) for name in ("fib.jpd", "main_sum.jpd")}


def trace_arguments(name: str, value: str) -> list[Con]:
    _, trace = run_main(_TRACED[name], parse_value(value))
    return [event.argument for event in trace]


traces = st.one_of(
    st.integers(0, 9).map(lambda n: trace_arguments("fib.jpd", str(n))),
    st.tuples(st.integers(0, 60), st.integers(0, 20)).map(
        lambda mn: trace_arguments("main_sum.jpd", f"({mn[0]}, {mn[1]})")
    ),
)


@settings(deadline=None, max_examples=300)
@given(shared_values() | traces)
def test_shared_writer_is_the_plain_printer(values):
    assert list(pretty_values(values)) == [reference_value(v) for v in values]


@pytest.mark.parametrize("kept_lines", [0, 1, KEPT_LINES])
def test_shared_writer_after_forgetting(monkeypatch, kept_lines):
    # a trace of 301 lines forgets its nodes at least four times at the
    # default bound, and after nearly every line at 0 and 1
    monkeypatch.setattr(printer, "KEPT_LINES", kept_lines)
    values = trace_arguments("main_sum.jpd", "(300, 3)")
    assert list(pretty_values(values)) == [reference_value(v) for v in values]


def test_shared_writer_keeps_the_ids_it_records():
    # every value is built as it is asked for and dropped once printed: had
    # the writer not kept the nodes it records, CPython would hand their ids
    # to later values, whose text would then be taken from the memo
    leaves = ("zero", "nil", "z")

    def fresh():
        for i in range(300):
            yield Con("pair", tuple(Con("s", (Con(leaves[j % 3]),)) for j in (i, i + 1)))

    texts = ("[zero]", "[]", "[z]")
    expected = [f"([s {texts[i % 3]}], [s {texts[(i + 1) % 3]}])" for i in range(300)]
    assert list(pretty_values(fresh())) == expected
