"""Labeling: deterministic pre-order numbering of every program point."""

from __future__ import annotations

import random

import pytest

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.analysis import _summary
from jeopardy_iaa.labeler import label_mask
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    FunDef,
    FunctionRef,
    Program,
    Var,
    fun_defs,
    nodes,
)

from conftest import (
    ALL_FIXTURES,
    label_rows,
    load_core,
    load_labeled,
    random_labeled_program,
    sugar_library,
)
from reference_analysis import labels_of


def test_identity_program_labels():
    labeled = annotate(desugar_program(parse("f x = x. main f.")))
    definition = labeled.functions["f"]
    assert definition.parameter.label == 0
    assert definition.body.label == 1
    assert labeled.label_count == 2


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_labels_are_exactly_a_range(path):
    labeled = load_labeled(path.name)

    occurrences: list[int] = []

    def collect(node):
        if isinstance(node, Con):
            occurrences.append(node.label)
            for arg in node.args:
                collect(arg)
        elif isinstance(node, Apply):
            occurrences.append(node.label)
            collect(node.argument)
        elif isinstance(node, Case):
            occurrences.append(node.label)
            collect(node.scrutinee)
            for p, b in node.branches:
                collect(p)
                collect(b)
        else:  # Var
            occurrences.append(node.label)

    for fd in labeled.functions.values():
        collect(fd.parameter)
        collect(fd.body)

    # each label used exactly once, and together they are 0..N-1
    assert sorted(occurrences) == list(range(labeled.label_count))
    assert set(labeled.index) == set(range(labeled.label_count))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_annotation_is_deterministic(path):
    core = load_core(path.name)
    first = annotate(core)
    second = annotate(core)
    assert first.program == second.program
    assert first.index == second.index


def as_mask(labels) -> int:
    return sum(1 << label for label in labels)


def check_masks(labeled) -> None:
    """Pre-order numbering makes every subtree's labels one interval, which
    ``label_mask`` reads off the node's rightmost spine, and a function's
    own labels one interval too, which the analysis strips on entry."""
    for fd in labeled.functions.values():
        for root in (fd.parameter, fd.body):
            for node in nodes(root):
                assert label_mask(node) == as_mask(labels_of(node))
        own, _ = _summary((fd.name, False), labeled)
        assert own == as_mask(labels_of(fd.parameter) | labels_of(fd.body))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_a_mask_holds_exactly_the_labels_of_a_fixture_node(path):
    check_masks(load_labeled(path.name))


def test_a_mask_holds_exactly_the_labels_of_a_random_program_node():
    rng = random.Random(20261019)
    for index in range(300):
        check_masks(random_labeled_program(rng, budget=6 + index % 25, branching=index % 2 == 1))


@pytest.mark.parametrize("seed", range(4))
def test_a_mask_holds_exactly_the_labels_of_a_library_node(seed):
    check_masks(annotate(desugar_program(parse(sugar_library(30, random.Random(seed))))))


def test_parent_labels_include_children(fib_labeled):
    def check(node):
        own = labels_of(node)
        children = []
        if isinstance(node, Con):
            children = list(node.args)
        elif isinstance(node, Apply):
            children = [node.argument]
        elif isinstance(node, Case):
            children = [node.scrutinee]
            for p, b in node.branches:
                children += [p, b]
        for child in children:
            assert labels_of(child) <= own
            check(child)

    for fd in fib_labeled.functions.values():
        check(fd.parameter)
        check(fd.body)


def test_fib_label_table(fib_labeled):
    """Pin the numbering of the flagship fixture's interesting points."""
    functions = fib_labeled.functions
    assert functions["sum"].parameter.label == 0
    assert functions["sum"].body.label == 1
    recursive_sum = functions["sum"].body.branches[0][1].branches[1][1]
    assert recursive_sum.label == 12
    assert labels_of(recursive_sum.argument) == frozenset({13, 14, 15, 16})

    fibber_case = functions["fibber"].body
    assert fibber_case.label == 18
    sum_call = fibber_case.branches[0][1].scrutinee
    assert sum_call.label == 24
    assert labels_of(sum_call.argument) == frozenset({25, 26, 27})

    fib_call = functions["fibonacci"].body.scrutinee
    assert fib_call.label == 51
    assert labels_of(fib_call.argument) == frozenset({52})

    assert fib_labeled.label_count == 59


def test_index_records_function_and_kind(fib_labeled):
    rows = label_rows(fib_labeled)
    assert rows[0][:2] == ("sum", "variable")
    assert rows[1][1] == "case"
    assert rows[24][:2] == ("fibber", "application")
    assert rows[53][1] == "constructor"
    assert [node.kind for node in fib_labeled.index.values()] == [kind for _, kind, _ in rows.values()]


def assert_index_is_the_tree(labeled):
    """The index maps each label to the labeled node that carries it: the
    nodes of every labeled definition, in pre-order, are the index's
    values, the same objects in the same order."""
    walked = [
        node
        for definition in fun_defs(labeled.program)
        for root in (definition.parameter, definition.body)
        for node in nodes(root)
    ]
    assert [id(node) for node in labeled.index.values()] == [id(node) for node in walked]
    assert all(node.label == label for label, node in labeled.index.items())


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_the_index_is_the_labeled_tree_of_a_fixture(path):
    assert_index_is_the_tree(load_labeled(path.name))


@pytest.mark.parametrize("seed", range(3))
def test_the_index_is_the_labeled_tree_of_a_library(seed):
    assert_index_is_the_tree(annotate(desugar_program(parse(sugar_library(30, random.Random(seed))))))


def test_the_index_is_the_labeled_tree_of_a_random_program():
    rng = random.Random(28)
    for index in range(200):
        assert_index_is_the_tree(random_labeled_program(rng, budget=6 + index % 25, branching=index % 2 == 1))


@pytest.mark.parametrize(
    "sugar",
    [
        Apply(FunctionRef("f"), Apply(FunctionRef("f"), Var("y"))),
        Apply(FunctionRef("f"), Case(Var("y"), None, ((Var("z"), Var("z")),))),
        ConApp("pair", (Apply(FunctionRef("f"), Var("y")), Var("y"))),
    ],
    ids=["general-apply", "apply-case", "con-app"],
)
def test_annotate_refuses_sugar_in_a_case_branch(sugar):
    body = Case(Var("x"), None, ((Con("zero"), Var("x")), (Var("y"), sugar)))
    program = Program((FunDef("f", Var("x"), None, None, body),), FunctionRef("f"))
    with pytest.raises(ValueError, match="cannot label sugared term"):
        annotate(program)


def test_labeling_ignores_formatting():
    dense = annotate(desugar_program(parse("f x = case x of ; y -> f y. main f.")))
    spaced = annotate(
        desugar_program(parse("-- comment\nf   x =\n  case x of\n  ; y -> f y.\n\nmain f.\n"))
    )
    assert dense.program == spaced.program

