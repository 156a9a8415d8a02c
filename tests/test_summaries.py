"""Differential checks of the summary-based closure and the indexed hints.

``configurations``, which works on label masks, must equal a naive FIFO
closure over the one-step reference rule ``call``, including the type
of any exception raised, and ``symmetry_hints`` on its result must
equal the linear scan that compares every configuration of the naive
closure against every call site.  Each backward summary must hold
exactly the calls that the per-path rule ``term_up`` reaches, and the
merged walk must end with exactly its availability sets.  The report's
order of label masks must be ``label_sort_key`` order.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.analysis import (
    Configurations,
    Hint,
    UndefinedCalleeError,
    _branching_parameter_paths,
    _subpattern_at,
    _summary,
    _walk_up,
    call,
    configurations,
    seed_configurations,
    symmetry_hints,
    term_up,
)
from jeopardy_iaa.labeler import labels_of
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    FunDef,
    FunctionRef,
    Pattern,
    Program,
    Term,
    Var,
)

from conftest import (
    ALL_FIXTURES,
    diamond,
    load_labeled,
    nested_scrutinees,
    random_label_sets,
    random_labeled_program,
    ring,
)

NESTED_SCRUTINEES = [nested_scrutinees(depth) for depth in range(1, 7)]


def labeled(source):
    return annotate(desugar_program(parse(source)))


def label_sort_key(label):
    """The report's order of labels: integers first, then input/output."""
    if isinstance(label, int):
        return (0, label)
    return (1, label)


def unmask(mask):
    """The integer labels of a mask without symbolic bits."""
    return frozenset(bit for bit in range(mask.bit_length()) if mask >> bit & 1)


def naive_configurations(program):
    seeds = seed_configurations(program)
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        for reached in call(queue.popleft(), program):
            if reached not in seen:
                seen.add(reached)
                queue.append(reached)
    return frozenset(seen)


# The recursive walks that symmetry_hints used before it was built on
# syntax.nodes, kept verbatim so that the reference shares no code with
# the walker it checks.


def _pattern_vars(pattern: Pattern) -> list[Var]:
    if isinstance(pattern, Var):
        return [pattern]
    out: list[Var] = []
    for arg in pattern.args:
        out.extend(_pattern_vars(arg))
    return out


def _variable_occurrences(fd: FunDef) -> dict[str, frozenset[int]]:
    """Labels of every occurrence of each variable name in a definition."""
    acc: dict[str, set[int]] = {}

    def pattern(p: Pattern) -> None:
        if isinstance(p, Var):
            if p.label is not None:
                acc.setdefault(p.name, set()).add(p.label)
            return
        for arg in p.args:
            pattern(arg)

    def term(t: Term) -> None:
        if isinstance(t, (Var, Con)):
            pattern(t)
        elif isinstance(t, Apply):
            pattern(t.argument)
        elif isinstance(t, Case):
            term(t.scrutinee)
            for p, b in t.branches:
                pattern(p)
                term(b)

    pattern(fd.parameter)
    term(fd.body)
    return {name: frozenset(labels) for name, labels in acc.items()}


def _call_sites(term: Term) -> list[Apply]:
    if isinstance(term, (Var, Con)):
        return []
    if isinstance(term, Apply):
        return [term]
    if isinstance(term, Case):
        sites = _call_sites(term.scrutinee)
        for _, body in term.branches:
            sites.extend(_call_sites(body))
        return sites
    return []


def linear_hints(program, configs):
    """Every call site scans every configuration for its caller and callee."""
    hints = []
    paths_cache = {fd.name: _branching_parameter_paths(fd) for fd in program.functions.values()}
    for fd in program.functions.values():
        occurrences = _variable_occurrences(fd)
        for site in _call_sites(fd.body):
            callee = site.callee.name
            paths = paths_cache.get(callee, ())
            if not paths:
                continue
            site_labels = labels_of(site.argument)
            down = [
                c
                for c in configs
                if c.caller == fd.name
                and c.callee.name == callee
                and not c.callee.backward
                and c.argument_labels == site_labels
            ]
            up = [
                c
                for c in configs
                if c.caller == fd.name
                and c.callee.name == callee
                and c.callee.backward
            ]
            if not down or not up:
                continue
            witness = set()
            for path in paths:
                sub = _subpattern_at(site.argument, path)
                if sub is None:
                    continue
                names = [v.name for v in _pattern_vars(sub)]
                if not names:
                    continue
                per_path = set()
                for name in names:
                    occs = occurrences.get(name, frozenset())
                    down_hits = {
                        l
                        for c in down
                        for l in occs & (c.argument_labels | c.implicit_labels)
                        if isinstance(l, int)
                    }
                    up_hits = {
                        l
                        for c in up
                        for l in occs & (c.argument_labels | c.implicit_labels)
                        if isinstance(l, int)
                    }
                    if not down_hits or not up_hits:
                        per_path.clear()
                        break
                    per_path |= down_hits | up_hits
                witness |= per_path
            if witness:
                hints.append(Hint(fd.name, callee, site.label, tuple(sorted(witness))))
    hints.sort(key=lambda h: (h.function, h.call_label))
    return hints


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as error:  # the reference's exception type is the expected result
        return type(error)


def _check(program):
    expected = _outcome(naive_configurations, program)
    found = _outcome(configurations, program)
    actual = frozenset(found) if isinstance(found, Configurations) else found
    assert actual == expected
    if isinstance(expected, frozenset):
        assert symmetry_hints(program, found) == linear_hints(program, expected)


def test_random_programs_match_the_reference():
    rng = random.Random(20221206)
    for index in range(1000):
        _check(random_labeled_program(rng, budget=6 + index % 25, branching=index % 2 == 1))


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_fixtures_match_the_reference(fixture):
    _check(load_labeled(fixture.name))


# f x = f x : f x : … : f x, a summary with many successors that many
# pops share
SELF_CALLS = f"id y = y.\nf x = {' : '.join(['f x'] * 40)}.\nmain f.\n"


@pytest.mark.parametrize(
    "source", [diamond(k) for k in range(1, 7)] + [ring(1), ring(5), SELF_CALLS] + NESTED_SCRUTINEES
)
def test_generated_programs_match_the_reference(source):
    _check(labeled(source))


def _check_backward_summaries(program):
    """Every function reached backward: its summary against ``term_up``."""
    reached = {c.callee.name for c in configurations(program) if c.callee.backward}
    assert reached
    for name in reached:
        body = program.functions[name].body
        paths = term_up(name, frozenset(), body, program)
        expected: dict = {}
        for configs, _ in paths:
            for c in configs:
                expected.setdefault((c.callee, c.argument_labels), set()).add(c.implicit_labels)
        _, calls = _summary((name, True), program)
        actual = {
            (callee, unmask(arguments)): set(map(unmask, gains))
            for (callee, arguments), gains in calls.items()
        }
        assert actual == expected
        # the sets that the walk ends with, when its result is read
        assert set(map(unmask, _walk_up({0}, body, 0, program, {}))) == {
            available for _, available in paths
        }


def test_backward_summaries_match_term_up_on_random_programs():
    rng = random.Random(20261018)
    for index in range(300):
        program = random_labeled_program(rng, budget=6 + index % 25, branching=index % 2 == 1)
        _check_backward_summaries(program)


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_backward_summaries_match_term_up_on_fixtures(fixture):
    _check_backward_summaries(load_labeled(fixture.name))


GENERATED = (
    [(f"diamond-{k}", diamond(k)) for k in range(1, 9)]
    + [(f"ring-{n}", ring(n)) for n in (1, 5)]
    + [(f"nested-{depth}", source) for depth, source in enumerate(NESTED_SCRUTINEES, 1)]
)


@pytest.mark.parametrize("source", [s for _, s in GENERATED], ids=[i for i, _ in GENERATED])
def test_backward_summaries_match_term_up_on_generated_programs(source):
    _check_backward_summaries(labeled(source))


@pytest.mark.parametrize("body", [Apply(FunctionRef("q"), Var("z")), Apply(FunctionRef("q", 1), Var("z"))])
@pytest.mark.parametrize("main", [FunctionRef("h"), FunctionRef("h", 1)])
def test_undefined_callee_raises_like_the_reference(body, main):
    program = annotate(Program((FunDef("h", Var("z"), None, None, body),), main))
    assert _outcome(configurations, program) is UndefinedCalleeError
    _check(program)


def test_report_order_is_label_sort_key_order():
    # no configurations over six labels: bit i for label i < 6, then
    # input and output
    bits = {**{label: label for label in range(6)}, "input": 6, "output": 7}
    empty = Configurations({}, [*range(6), "input", "output"])
    rng = random.Random(7)
    sets = [frozenset(), frozenset({"input"}), frozenset({"output"}), frozenset({"input", "output"})]
    for _ in range(300):
        small, big = random_label_sets(rng, universe=6)
        sets += [small, big]
    masks = [sum(1 << bits[label] for label in labels) for labels in sets]
    for labels, mask in zip(sets, masks):
        assert empty.unmask(mask) == sorted(labels, key=label_sort_key)
    for a, mask_a in zip(sets, masks):
        for b, mask_b in zip(sets[:60], masks[:60]):
            expected = sorted(map(label_sort_key, a)) < sorted(map(label_sort_key, b))
            assert (empty.order(mask_a) < empty.order(mask_b)) == expected
