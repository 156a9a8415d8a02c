"""Call-configuration analysis: directions, body walks, the fixed point,
the configuration order, and symmetry hints.

The body walks and the one-step rule are checked by hand on the
frozenset reference rules (``reference_analysis``); a single call also
on the package's ``call``, which must agree with them."""

from __future__ import annotations

import random

import pytest

from jeopardy_iaa import annotate, desugar_program, parse
from jeopardy_iaa.analysis import CallConfiguration, call, configurations, symmetry_hints
from jeopardy_iaa.syntax import FunctionRef, INPUT, OUTPUT, flip

from conftest import (
    ALL_FIXTURES,
    load_labeled,
    pointwise_below,
    random_label_sets,
    random_labeled_program,
)
from reference_analysis import call as reference_call, seed_configurations, term_down, term_up


def labeled(source: str):
    return annotate(desugar_program(parse(source)))


# ---------------------------------------------------------------------------
# Call directions


def test_backward_references():
    assert FunctionRef("f").backward is False
    assert FunctionRef("f", 1).backward is True
    assert FunctionRef("f", 2).backward is False


def test_direction_alternates_with_wrapping():
    for inversions in range(5):
        ref = FunctionRef("f", inversions)
        assert ref.backward is (inversions % 2 == 1)
        assert flip(ref).backward is not ref.backward
        assert flip(flip(ref)).backward is ref.backward


# ---------------------------------------------------------------------------
# Forward body walk

NESTED = """
data d = [a] [b d].
f x =
  case x of
  ; [a]   -> f x
  ; [b k] -> case k of
             ; [a]   -> g k
             ; [b j] -> g j.
g x = x.
main f.
"""


def test_term_down_pattern_is_empty(fib_labeled):
    body = fib_labeled.functions["fibonacci"].body.branches[0][1]
    assert term_down("fibonacci", frozenset(), body) == frozenset()


def test_term_down_fibonacci_body(fib_labeled):
    body = fib_labeled.functions["fibonacci"].body
    result = term_down("fibonacci", frozenset({INPUT}), body)
    assert result == frozenset(
        {
            CallConfiguration(
                "fibonacci",
                FunctionRef("fibonacci_pair"),
                frozenset({52}),
                frozenset({INPUT}),
            )
        }
    )


def test_term_down_nested_case():
    # hand evaluation: each branch body sees the scrutinee's and its own
    # branch pattern's labels on top of the incoming availability
    program = labeled(NESTED)
    body = program.functions["f"].body
    result = term_down("f", frozenset({INPUT}), body)
    assert result == frozenset(
        {
            CallConfiguration("f", FunctionRef("f"), frozenset({5}), frozenset({INPUT, 2, 3})),
            CallConfiguration("f", FunctionRef("g"), frozenset({12}), frozenset({INPUT, 2, 6, 7, 9, 10})),
            CallConfiguration("f", FunctionRef("g"), frozenset({16}), frozenset({INPUT, 2, 6, 7, 9, 13, 14})),
        }
    )


# ---------------------------------------------------------------------------
# Backward body walk


def test_term_up_pattern_rule():
    program = labeled("f x = x. main f.")
    body = program.functions["f"].body
    result = term_up("f", frozenset({OUTPUT}), body, program)
    assert result == frozenset({(frozenset(), frozenset({OUTPUT, 1}))})


def test_term_up_flips_the_callee():
    program = labeled("data d = [c]. f x = (invert g) x. g x = x. main f.")
    body = program.functions["f"].body
    ((configs, _available),) = term_up("f", frozenset(), body, program)
    (config,) = configs
    assert config.callee == FunctionRef("g")
    assert not config.callee.backward


def test_term_up_nested_case():
    program = labeled(NESTED)
    body = program.functions["f"].body
    result = frozenset().union(*(c for c, _ in term_up("f", frozenset({OUTPUT}), body, program)))
    assert result == frozenset(
        {
            CallConfiguration("f", FunctionRef("f", 1), frozenset({1}), frozenset({OUTPUT})),
            CallConfiguration("f", FunctionRef("g", 1), frozenset({18}), frozenset({OUTPUT})),
        }
    )


def test_term_up_argument_is_callee_body_root(fib_labeled):
    # inverse fibonacci consumes fibonacci_pair's output: the emitted
    # configuration's argument is the callee body's root program point
    body = fib_labeled.functions["fibonacci"].body
    results = term_up("fibonacci", frozenset({OUTPUT}), body, fib_labeled)
    configs = frozenset().union(*(c for c, _ in results))
    (config,) = configs
    assert config.callee == FunctionRef("fibonacci_pair", 1)
    assert config.argument_labels == frozenset({33})
    assert OUTPUT in config.implicit_labels
    assert {53, 54, 55} <= config.implicit_labels  # branch pattern labels
    assert {56, 57, 58} <= config.implicit_labels  # result pattern labels


# ---------------------------------------------------------------------------
# Single calls


def test_call_first_step(fib_labeled):
    seed, _ = seed_configurations(fib_labeled)
    result = reference_call(seed, fib_labeled)
    assert frozenset(call(seed, fib_labeled)) == result
    assert result == frozenset(
        {
            CallConfiguration(
                "fibonacci",
                FunctionRef("fibonacci_pair"),
                frozenset({52}),
                frozenset({INPUT}),
            )
        }
    )


def test_call_on_bare_pattern_body():
    program = labeled("f x = x. main f.")
    down, up = seed_configurations(program)
    for config in (down, up):
        assert reference_call(config, program) == frozenset()
        assert len(call(config, program)) == 0


def test_recursive_call_strips_own_labels(fib_labeled):
    configs = configurations(fib_labeled)
    (recursive,) = [
        c
        for c in configs
        if c.caller == "sum" and not c.callee.backward
    ]
    own = set(range(0, 17))  # labels of sum's parameter and body
    fresh = reference_call(recursive, fib_labeled)
    assert fresh == frozenset({recursive}) == frozenset(call(recursive, fib_labeled))
    # availability entering the recursion excludes this incarnation's
    # program points except the path re-accumulated inside the body
    assert recursive.implicit_labels & own == {2, 3, 4, 5, 7, 10, 11}


# ---------------------------------------------------------------------------
# The fixed point


def test_identity_program_has_only_seeds():
    program = labeled("f x = x. main f.")
    assert frozenset(configurations(program)) == frozenset(seed_configurations(program))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_seeds_are_present(path):
    program = load_labeled(path.name)
    assert set(seed_configurations(program)) <= frozenset(configurations(program))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_result_is_closed_under_call(path):
    program = load_labeled(path.name)
    configs = frozenset(configurations(program))
    for config in configs:
        assert reference_call(config, program) <= configs


@pytest.mark.parametrize(
    "name", ["identity.jpd", "selfrec.jpd", "mutual.jpd", "main_sum.jpd", "invert_main.jpd"]
)
def test_leastness_on_small_fixtures(name):
    # every non-seed configuration is derivable from another member, so
    # removing it breaks closure: nothing is spurious
    program = load_labeled(name)
    configs = frozenset(configurations(program))
    seeds = set(seed_configurations(program))
    for config in configs - seeds:
        rest = configs - {config}
        assert any(config in reference_call(other, program) for other in rest)


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_the_result_yields_each_configuration_once(path):
    # configurations keeps label masks and builds a configuration only when
    # iterated; its size is the number of distinct records it yields
    configs = configurations(load_labeled(path.name))
    listed = list(configs)
    assert len(configs) == len(listed) == len(set(listed))


def test_determinism_across_independent_runs():
    first = configurations(load_labeled("fib.jpd"))
    second = configurations(load_labeled("fib.jpd"))
    assert frozenset(first) == frozenset(second)


def test_forward_edges_match_dynamic_reality(fib_labeled, fib_oracle):
    configs = configurations(fib_labeled)
    forward = {
        (c.caller, c.callee.name)
        for c in configs
        if not c.callee.backward
    }
    assert forward == {tuple(edge) for edge in fib_oracle["forward_edges"]}


# ---------------------------------------------------------------------------
# The configuration order


def test_monotonicity_spot_check():
    rng = random.Random(20240811)
    for _ in range(200):
        program = random_labeled_program(rng)
        small, big = random_label_sets(rng, program.label_count)
        body = program.functions["h"].body
        assert pointwise_below(
            term_down("h", small, body), term_down("h", big, body)
        )
        up_small = frozenset().union(*(c for c, _ in term_up("h", small, body, program)))
        up_big = frozenset().union(*(c for c, _ in term_up("h", big, body, program)))
        assert pointwise_below(up_small, up_big)


# ---------------------------------------------------------------------------
# Symmetry hints


def test_fib_hints(fib_labeled, fib_oracle):
    configs = configurations(fib_labeled)
    hints = symmetry_hints(fib_labeled, configs)
    as_rows = [
        {
            "function": h.function,
            "call_label": h.call_label,
            "witness_labels": list(h.witness_labels),
        }
        for h in hints
    ]
    assert as_rows == fib_oracle["hints"]
    (fibber_hint,) = [h for h in hints if h.function == "fibber"]
    assert fibber_hint.callee == "sum"


def test_no_hints_for_bare_pattern_main():
    program = labeled("f x = x. main f.")
    assert symmetry_hints(program, configurations(program)) == []


def test_no_hints_when_sum_is_main():
    program = load_labeled("main_sum.jpd")
    hints = symmetry_hints(program, configurations(program))
    assert hints == []
