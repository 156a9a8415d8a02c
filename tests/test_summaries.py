"""Differential checks of the summary-based closure, the one-step rule
and the indexed hints, against the frozenset rules of
``reference_analysis``.

``configurations``, which works on label masks, must equal a naive FIFO
closure over the reference's one-step rule ``call``, including the type
of any exception raised, and ``symmetry_hints`` on its result must
equal the linear scan that compares every configuration of the naive
closure against every call site; at every call site, the parts of the
argument that ``_branching_parts`` finds must be those at the component
paths of the old path walk, copied here.  The package's ``call``, which
reads one call's successors off the same summaries for the benchmark's
tracer, must equal the reference ``call`` on every configuration of a
corpus, as a set and in size.  Each backward summary must hold exactly
the calls that the reference's per-path rule ``term_up`` reaches, and
the merged walk must end with exactly its availability sets.  The
report's order of label masks must be ``label_sort_key`` order.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.analysis import (
    CallConfiguration,
    Configurations,
    Hint,
    UndefinedCalleeError,
    _branching_parts,
    _summary,
    _walk_up,
    call,
    configurations,
    symmetry_hints,
)
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    FunDef,
    FunctionRef,
    INPUT,
    OUTPUT,
    Pattern,
    Program,
    TOP,
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
    sugar_library,
)
from reference_analysis import call as reference_call, labels_of, seed_configurations, term_up

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
        for reached in reference_call(queue.popleft(), program):
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


# The path logic that symmetry_hints used before it matched the callee's
# case spine against each site's argument directly: _subpattern_at,
# _branching_parameter_paths and _variable_paths, copied verbatim from
# analysis.py at commit 3b5aa8e, so that the reference shares no code
# with the walk it checks.


def _subpattern_at(pattern: Pattern, path: tuple[int, ...]) -> Pattern | None:
    """Descend a component path; a variable absorbs any remaining path."""
    node = pattern
    for index in path:
        if isinstance(node, Var):
            return node
        if index >= len(node.args):
            return None
        node = node.args[index]
    return node


def _branching_parameter_paths(fd: FunDef) -> tuple[tuple[int, ...], ...]:
    """Component paths of the parameter that the body's branching inspects.

    Walks the body's case spine, tracking which variables are bound to
    which component of the (single, variable) parameter; every case with
    two or more branches whose scrutinee is such a variable contributes
    that variable's component path.
    """
    if not isinstance(fd.parameter, Var):
        return ()
    found: list[tuple[int, ...]] = []

    def walk(term: Term, binding: dict[str, tuple[int, ...]]) -> None:
        if not isinstance(term, Case):
            return
        scrutinee_path: tuple[int, ...] | None = None
        scrutinee = term.scrutinee
        if isinstance(scrutinee, Var):
            scrutinee_path = binding.get(scrutinee.name)
        if scrutinee_path is not None and len(term.branches) > 1:
            if scrutinee_path not in found:
                found.append(scrutinee_path)
        for pattern, body in term.branches:
            extended = dict(binding)
            if scrutinee_path is not None:
                for var, sub_path in _variable_paths(pattern):
                    extended[var.name] = scrutinee_path + sub_path
            walk(body, extended)

    walk(fd.body, {fd.parameter.name: ()})
    return tuple(found)


def _variable_paths(pattern: Pattern) -> list[tuple[Var, tuple[int, ...]]]:
    if isinstance(pattern, Var):
        return [(pattern, ())]
    out: list[tuple[Var, tuple[int, ...]]] = []
    for index, arg in enumerate(pattern.args):
        for var, sub in _variable_paths(arg):
            out.append((var, (index,) + sub))
    return out


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
        _check_branching_parts(program)


def _check_branching_parts(program):
    """At every call site, whether or not configurations reach it, the
    parts of its argument that the callee branches on are those at the
    reference's component paths."""
    for fd in program.functions.values():
        for site in _call_sites(fd.body):
            callee = program.functions[site.callee.name]
            paths = _branching_parameter_paths(callee)
            expected = {_subpattern_at(site.argument, path) for path in paths} - {None}
            assert set(_branching_parts(callee, site.argument)) == expected


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


# Corner cases of matching a callee's case spine against a site's
# argument.  In SHADOWED, b lies past the end of [e x], and so does the
# inner p that [d p] binds: it shadows the parameter p, so the two-way
# case on it inspects no part of the argument, and there is no hint.
SHADOWED = (
    "data t = [e t] [c t t] [d t] [z] [s t].\n"
    "g p = case p of ; [c a b] -> case b of ; [d p] -> case p of"
    " ; [z] -> [z] ; [s k] -> [s k] ; [z] -> [z] ; [z] -> [z].\n"
    "f x = case g [e x] of ; r -> (r, x).\nmain f.\n"
)
# g branches on k alone, two constructor levels below its parameter
DESTRUCTURING = (
    "data t = [c t t] [d t t] [z] [s t].\n"
    "g p = case p of ; [c a b] -> case b of"
    " ; [s k] -> case k of ; [z] -> [z] ; [s m] -> [s m].\n"
)
# the variable x absorbs k; so does w, one level below [c y w]
ABSORBED = DESTRUCTURING + "f x = case g x of ; r -> (r, x).\nmain f.\n"
ABSORBED_BELOW = (
    DESTRUCTURING + "f [c y w] = case g [c y w] of ; r -> (r, [c y w]).\nmain f.\n"
)
# [d y w] has the arity of [c a b]: b stands for w, whatever the name
RENAMED = DESTRUCTURING + "f [c y w] = case g [d y w] of ; r -> (r, [c y w]).\nmain f.\n"
CORNER_CASES = [SHADOWED, ABSORBED, ABSORBED_BELOW, RENAMED]


@pytest.mark.parametrize(
    "source",
    [diamond(k) for k in range(1, 7)]
    + [ring(1), ring(5), SELF_CALLS]
    + NESTED_SCRUTINEES
    + CORNER_CASES,
)
def test_generated_programs_match_the_reference(source):
    _check(labeled(source))


@pytest.mark.parametrize(
    "source, witnesses",
    [
        (SHADOWED, []),
        (ABSORBED, [(21, 25)]),
        (ABSORBED_BELOW, [(23, 28, 34)]),
        (RENAMED, [(23, 28, 34)]),
    ],
    ids=["shadowed", "absorbed", "absorbed-below", "renamed"],
)
def test_the_corner_cases_hint_where_the_argument_holds_the_part(source, witnesses):
    program = labeled(source)
    hints = symmetry_hints(program, configurations(program))
    assert [hint.witness_labels for hint in hints] == witnesses


# Random callee spines against random site arguments.  g's nested cases
# scrutinize mostly variables that an enclosing pattern binds, and may
# rebind the parameter's name p; some scrutinize q, which nothing binds,
# or an application.  Constructors of one arity go by several names, and
# the site's argument is a constructor of random name and arity over
# random parts, so its parts may end above, at or below those that g's
# patterns name.
_SHAPES = (("z", 0), ("e", 1), ("s", 1), ("c", 2), ("d", 2), ("k", 3))


def _constructed(parts):
    return st.sampled_from(_SHAPES).flatmap(
        lambda shape: st.tuples(*[parts] * shape[1]).map(lambda args: Con(shape[0], args))
    )


def _shaped(names):
    return st.recursive(st.sampled_from(names).map(Var), _constructed, max_leaves=4)


_SPINE_PATTERNS = _shaped(("p", "a", "q"))
_UNBOUND_SCRUTINEES = st.sampled_from([Var("q"), Apply(FunctionRef("g"), Var("p"))])


@st.composite
def _spines(draw, bound=("p",), depth=4):
    """A case whose branch bodies nest up to ``depth - 1`` further cases."""
    scrutinee = draw(st.sampled_from(bound).map(Var) | _UNBOUND_SCRUTINEES)
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = draw(_SPINE_PATTERNS)
        if depth == 1 or draw(st.booleans()):
            body = draw(_SPINE_PATTERNS)
        else:
            inner = sorted({*bound, *(v.name for v in _pattern_vars(pattern))})
            body = draw(_spines(tuple(inner), depth - 1))
        branches.append((pattern, body))
    return Case(scrutinee, None, tuple(branches))


_SITE_NAMES = ("x", "y", "w")


@settings(max_examples=300, deadline=None)
@given(
    _spines(),
    _constructed(_shaped(_SITE_NAMES)),
    st.lists(st.sampled_from(_SITE_NAMES), max_size=3),
)
def test_random_spines_and_site_arguments_match_the_reference(spine, argument, kept):
    # f [k x y w] = case g <argument> of ; r -> [c r [k <kept>]]
    parameter = Con("k", tuple(map(Var, _SITE_NAMES)))
    result = Con("c", (Var("r"), Con("k", tuple(map(Var, kept)))))
    body = Case(Apply(FunctionRef("g"), argument), None, ((Var("r"), result),))
    program = Program(
        (FunDef("g", Var("p"), None, None, spine), FunDef("f", parameter, None, None, body)),
        FunctionRef("f"),
    )
    _check(annotate(program))


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


def _check_calls(program):
    """The package's ``call`` against the reference's, on every
    configuration that the program reaches: the same configurations, and
    as many, since the tracer counts them with ``len``."""
    for config in configurations(program):
        expected = reference_call(config, program)
        reached = call(config, program)
        assert frozenset(reached) == expected
        assert len(reached) == len(expected)


CALL_CORPUS = {
    "fixtures": lambda: [load_labeled(fixture.name) for fixture in ALL_FIXTURES],
    "generated": lambda: [
        labeled(source)
        for source in [diamond(k) for k in range(1, 11)]
        + [ring(n) for n in (5, 40, 140)]
        + [nested_scrutinees(3), nested_scrutinees(6)]
    ],
    "random": lambda: [
        random_labeled_program(random.Random(seed), budget=6 + seed % 25, branching=seed % 2 == 1)
        for seed in range(800)
    ],
    "library": lambda: [labeled(sugar_library(40, random.Random(seed))) for seed in range(20)],
}


@pytest.mark.parametrize("family", CALL_CORPUS)
def test_call_matches_the_reference_on_every_configuration(family):
    for program in CALL_CORPUS[family]():
        _check_calls(program)


def test_call_on_an_undefined_callee_raises_like_the_reference():
    # h calls q, which is not defined: calling q fails in either
    # direction, and so does calling h backward, which looks up the body
    # root of every callee it reaches
    program = annotate(
        Program((FunDef("h", Var("z"), None, None, Apply(FunctionRef("q"), Var("z"))),), FunctionRef("h"))
    )
    configs = [
        CallConfiguration(TOP, FunctionRef("q"), frozenset({INPUT}), frozenset()),
        CallConfiguration(TOP, FunctionRef("q", 1), frozenset({OUTPUT}), frozenset()),
        CallConfiguration(TOP, FunctionRef("h", 1), frozenset({OUTPUT}), frozenset()),
    ]
    for config in configs:
        with pytest.raises(UndefinedCalleeError):
            reference_call(config, program)
        with pytest.raises(UndefinedCalleeError):
            call(config, program)
    forward = CallConfiguration(TOP, FunctionRef("h"), frozenset({INPUT}), frozenset())
    assert frozenset(call(forward, program)) == reference_call(forward, program)


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
