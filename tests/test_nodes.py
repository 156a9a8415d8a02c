"""The one tree walker, ``syntax.nodes``, and the walks built on it.

``nodes`` must visit exactly what a plain recursive pre-order over the
node records' fields visits, on every kind of tree, and everything
built on it must survive trees far deeper than the Python stack.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.desugar import assert_core
from jeopardy_iaa.evaluator import instantiate, match_pattern
from jeopardy_iaa.printer import pretty_pattern, pretty_value
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    FunDef,
    FunctionRef,
    GeneralApply,
    Program,
    Var,
    constructor_table,
    nodes,
    pattern_variables,
    validate,
    validate_value,
)

from conftest import ALL_FIXTURES, fixture_source, random_labeled_program
from reference_analysis import labels_of

NODE_TYPES = (Var, Con, Apply, Case, ConApp, GeneralApply)


def reference_preorder(node):
    """Recursive pre-order: the node, then every node-valued field in
    declaration order, tuples flattened left to right."""
    yield node
    for name in node.__slots__:
        yield from _nodes_below(getattr(node, name))


def _nodes_below(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _nodes_below(item)
    elif isinstance(value, NODE_TYPES):
        yield from reference_preorder(value)


# -- generated trees -----------------------------------------------------------

_names = st.sampled_from(["a", "b", "c"])
_labels = st.none() | st.integers(0, 50)
_refs = st.builds(FunctionRef, _names, st.integers(0, 3))

patterns = st.recursive(
    st.builds(Var, _names, _labels),
    lambda inner: st.builds(Con, _names, st.lists(inner, max_size=3).map(tuple), _labels),
    max_leaves=8,
)

def _branches(terms):
    return st.lists(st.tuples(patterns, terms), min_size=1, max_size=3).map(tuple)


_leaf_terms = patterns | st.builds(Apply, _refs, patterns, _labels)

core_terms = st.recursive(
    _leaf_terms,
    lambda inner: st.builds(Case, inner, st.none(), _branches(inner), _labels),
    max_leaves=6,
)

terms = st.recursive(
    _leaf_terms,
    lambda inner: st.one_of(
        st.builds(Case, inner, st.none(), _branches(inner), _labels),
        st.builds(ConApp, _names, st.lists(inner, min_size=1, max_size=3).map(tuple)),
        # pair and list sugar, as the parser builds it
        st.builds(ConApp, st.sampled_from(["pair", "cons"]), st.tuples(inner, inner)),
        st.builds(GeneralApply, _refs, inner),
    ),
    max_leaves=6,
)


@settings(deadline=None)
@given(st.one_of(patterns, core_terms, terms))
def test_nodes_is_the_recursive_preorder(tree):
    assert [id(n) for n in nodes(tree)] == [id(n) for n in reference_preorder(tree)]


# -- labels --------------------------------------------------------------------


def _assert_labels_partition(labeled):
    for fd in labeled.functions.values():
        assigned = {label for label, info in labeled.index.items() if info.function == fd.name}
        assert labels_of(fd.parameter) | labels_of(fd.body) == assigned


def test_labels_of_covers_what_the_labeler_assigns_on_fixtures():
    for path in ALL_FIXTURES:
        _assert_labels_partition(annotate(desugar_program(parse(fixture_source(path.name)))))


def test_labels_of_covers_what_the_labeler_assigns_on_random_programs():
    rng = random.Random(3)
    for index in range(200):
        _assert_labels_partition(random_labeled_program(rng, budget=6 + index % 25))


# -- depth ---------------------------------------------------------------------

DEPTH = 20_000


def test_walks_do_not_use_the_python_stack():
    pattern = Var("x", label=DEPTH)
    for label in range(DEPTH - 1, -1, -1):
        pattern = Con("successor", (pattern,), label=label)
    value = Con("zero")
    for _ in range(DEPTH):
        value = Con("successor", (value,))
    data = DataDef("nat", (("zero", ()), ("successor", ("nat",))))
    body = pattern
    for _ in range(DEPTH):
        body = Case(body, None, ((Var("y"), Var("y")),))
    program = Program((data, FunDef("f", Var("x"), None, None, body)), FunctionRef("f"))
    table, _ = constructor_table(program)

    assert sum(1 for _ in nodes(pattern)) == DEPTH + 1
    assert sum(1 for _ in nodes(value)) == DEPTH + 1
    assert sum(1 for _ in nodes(body)) == 4 * DEPTH + 1  # 3 per case, then the pattern
    assert labels_of(pattern) == frozenset(range(DEPTH + 1))
    assert [v.name for v in pattern_variables(pattern)] == ["x"]
    assert validate_value(value, table) == []
    assert_core(program)
    assert validate(Program((data, FunDef("g", pattern, None, None, Var("x"))), FunctionRef("g"))) == []

    numeral = "[successor " * DEPTH + "[zero]" + "]" * DEPTH
    assert pretty_value(value) == numeral
    assert pretty_pattern(pattern) == "[successor " * DEPTH + "x" + "]" * DEPTH
    closing = "".join(f"]{{-{label}-}}" for label in range(DEPTH - 1, -1, -1))
    assert pretty_pattern(pattern, labels=True) == "[successor " * DEPTH + f"x{{-{DEPTH}-}}" + closing
    assert match_pattern(pattern, Con("successor", (value,))) == {"x": Con("successor", (Con("zero"),))}
    # compared as text: record equality recurses
    assert pretty_value(instantiate(pattern, {"x": Con("zero")})) == numeral
