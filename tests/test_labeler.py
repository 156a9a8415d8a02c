"""Labeling: deterministic pre-order numbering of every program point."""

from __future__ import annotations

import gc
import random

import pytest

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.analysis import _summary
from jeopardy_iaa.labeler import label_mask
from jeopardy_iaa.syntax import Apply, Case, Con, nodes

from conftest import (
    ALL_FIXTURES,
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
    assert fib_labeled.index[0].function == "sum"
    assert fib_labeled.index[0].kind == "variable"
    assert fib_labeled.index[1].kind == "case"
    assert fib_labeled.index[24].function == "fibber"
    assert fib_labeled.index[24].kind == "application"
    assert fib_labeled.index[53].kind == "constructor"


def test_labeling_ignores_formatting():
    dense = annotate(desugar_program(parse("f x = case x of ; y -> f y. main f.")))
    spaced = annotate(
        desugar_program(parse("-- comment\nf   x =\n  case x of\n  ; y -> f y.\n\nmain f.\n"))
    )
    assert dense.program == spaced.program


def test_desugaring_and_labeling_leave_no_cycles():
    # each pass's recursive walker holds itself through its closure;
    # unless the pass breaks that cycle, what the walker holds, the label
    # index among it, waits for the cycle collector to be freed
    program = parse(sugar_library(40, random.Random(5)))
    gc.collect()
    gc.disable()
    try:
        annotate(desugar_program(program))
        assert gc.collect() == 0
    finally:
        gc.enable()
