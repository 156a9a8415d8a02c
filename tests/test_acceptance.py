"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line so the whole gate can be read
off a verbose run.  Expected values come from executing the analysis
rules by hand over the labeled flagship fixture; they are frozen in
fixtures/fib_oracle.json.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from jeopardy_iaa import parse
from jeopardy_iaa.analysis import call, configurations, symmetry_hints
from jeopardy_iaa.desugar import desugar_program
from jeopardy_iaa.evaluator import run_main
from jeopardy_iaa.parser import ParseError
from jeopardy_iaa.printer import pretty_program
from jeopardy_iaa.syntax import Con, FunctionRef, INPUT, TOP, flip

from conftest import (
    ALL_FIXTURES,
    load_labeled,
    pointwise_below,
    random_label_sets,
    random_labeled_program,
    report_text,
)
from reference_analysis import seed_configurations, term_down, term_up


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def nat(n: int) -> Con:
    value = Con("zero")
    for _ in range(n):
        value = Con("successor", (value,))
    return value


def test_criterion_1_flagship_reproduction(fib_labeled, fib_oracle):
    with criterion(1, "flagship configuration set"):
        started = time.perf_counter()
        report = json.loads(report_text(fib_labeled, "json"))
        elapsed = time.perf_counter() - started

        assert report["configurations"] == fib_oracle["configurations"]

        forward = {
            (row["caller"], row["callee"])
            for row in report["configurations"]
            if row["direction"] == "down"
        }
        backward = {
            (row["caller"], row["callee"])
            for row in report["configurations"]
            if row["direction"] == "up"
        }
        assert forward == {tuple(e) for e in fib_oracle["forward_edges"]}
        assert backward == {tuple(e) for e in fib_oracle["backward_edges"]}
        # the two entry points and the named call chain are all present
        assert (TOP, "fibonacci") in forward
        assert (TOP, "fibonacci") in backward
        for edge in [
            ("fibonacci", "fibonacci_pair"),
            ("fibonacci_pair", "fibber"),
            ("fibber", "sum"),
            ("sum", "sum"),
        ]:
            assert edge in forward

        assert elapsed < 1.0


def test_criterion_2_first_derivation_step(fib_labeled, fib_oracle):
    with criterion(2, "first step from the forward entry"):
        forward_seed, _ = seed_configurations(fib_labeled)
        result = call(forward_seed, fib_labeled)
        assert len(result) == 1
        (config,) = result
        assert config.caller == "fibonacci"
        assert config.callee == FunctionRef("fibonacci_pair")
        assert INPUT in config.implicit_labels
        expected = next(
            row
            for row in fib_oracle["configurations"]
            if row["caller"] == "fibonacci" and row["direction"] == "down"
        )
        assert sorted(config.argument_labels, key=str) == sorted(
            expected["argument_labels"], key=str
        )
        assert set(config.implicit_labels) == set(expected["implicit_labels"])


def test_criterion_3_bidirectional_hint(fib_labeled, fib_oracle):
    with criterion(3, "fibber's sum argument available both ways"):
        hints = symmetry_hints(fib_labeled, configurations(fib_labeled))
        (hint,) = [h for h in hints if h.function == "fibber"]
        assert hint.callee == "sum"
        assert hint.call_label == 24
        expected = next(h for h in fib_oracle["hints"] if h["function"] == "fibber")
        assert list(hint.witness_labels) == expected["witness_labels"]


STRESS_FIXTURES = [
    "fib.jpd",
    "selfrec.jpd",
    "mutual.jpd",
    "ring10.jpd",
    "invert_main.jpd",
    "sugar_soup.jpd",
]


def test_criterion_4_termination_and_determinism():
    with criterion(4, "termination and determinism on the stress suite"):
        for name in STRESS_FIXTURES:
            started = time.perf_counter()
            first = frozenset(configurations(load_labeled(name)))
            second = frozenset(configurations(load_labeled(name)))
            elapsed = time.perf_counter() - started
            assert first == second, name
            assert elapsed < 5.0, name


def test_criterion_5_monotonicity():
    with criterion(5, "order preservation over 1000 random cases"):
        rng = random.Random(0xBEEF)
        for _ in range(1000):
            program = random_labeled_program(rng)
            small, big = random_label_sets(rng, program.label_count)
            body = program.functions["h"].body

            assert pointwise_below(
                term_down("h", small, body), term_down("h", big, body)
            )

            callee = rng.choice([FunctionRef("h"), FunctionRef("g"), FunctionRef("h", 1)])
            arguments = frozenset(
                label for label in range(program.label_count) if rng.random() < 0.2
            )
            lo = call(_config("t", callee, arguments, small), program)
            hi = call(_config("t", callee, arguments, big), program)
            assert pointwise_below(lo, hi)

            up_lo = frozenset().union(
                *(c for c, _ in term_up("h", small, body, program))
            )
            up_hi = frozenset().union(
                *(c for c, _ in term_up("h", big, body, program))
            )
            assert pointwise_below(up_lo, up_hi)


def _config(caller, callee, arguments, implicits):
    from jeopardy_iaa.analysis import CallConfiguration

    return CallConfiguration(caller, callee, arguments, implicits)


def test_criterion_6_involution_and_direction():
    with criterion(6, "direction flipping is exhaustively involutive"):
        for inversions in range(5):
            ref = FunctionRef("f", inversions)
            assert ref.backward is (inversions % 2 == 1)
            assert flip(ref).backward is not ref.backward
            assert flip(flip(ref)).backward is ref.backward


def test_criterion_7_dynamic_soundness(fib_labeled):
    with criterion(7, "dynamic traces agree with the forward analysis"):
        down_edges = {
            (c.caller, c.callee.name)
            for c in configurations(fib_labeled)
            if not c.callee.backward
        }

        def reference(n: int) -> int:
            adjacent = (1, 1)
            for _ in range(n):
                adjacent = (adjacent[0] + adjacent[1], adjacent[0])
            return adjacent[1]

        def as_int(value: Con) -> int:
            count = 0
            while value.name == "successor":
                count += 1
                value = value.args[0]
            assert value.name == "zero"
            return count

        for n in range(6):
            value, trace = run_main(fib_labeled, nat(n))
            for event in trace:
                assert (event.caller, event.callee) in down_edges
            first, second = value.args
            assert as_int(first) == reference(n)
            assert as_int(second) == n


def test_criterion_8_front_end_round_trips():
    with criterion(8, "round trips, idempotence, and parser fuzzing"):
        for path in ALL_FIXTURES:
            source = path.read_text(encoding="utf-8")
            first = parse(source)
            assert parse(pretty_program(first)) == first, path.name
            core = desugar_program(first)
            assert desugar_program(core) == core, path.name
            assert parse(pretty_program(core)) == core, path.name

        rng = random.Random(0xF00D)
        for _ in range(10_000):
            length = rng.randint(0, 60)
            garbage = bytes(rng.randrange(256) for _ in range(length)).decode("latin-1")
            try:
                parse(garbage)
            except ParseError:
                pass  # the only acceptable failure mode
