from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from jeopardy_iaa import annotate, desugar_program, parse, validate
from jeopardy_iaa.cli import analysis_report
from jeopardy_iaa.parser import tokenize
from jeopardy_iaa.syntax import Apply, Con, ConApp, Program, Var, fun_defs, nodes

FIXTURES = Path(__file__).parent / "fixtures"

ALL_FIXTURES = sorted(FIXTURES.glob("*.jpd"))


def fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_program(name: str):
    program = parse(fixture_source(name))
    assert validate(program) == []
    return program


def load_core(name: str):
    return desugar_program(load_program(name))


def load_labeled(name: str):
    return annotate(load_core(name))


def report_text(labeled, form: str) -> str:
    """The analyze report of ``labeled`` in ``form``: what
    ``analysis_report`` writes, joined."""
    pieces: list[str] = []
    analysis_report(labeled, form, pieces.append)
    return "".join(pieces)


def is_general_application(node) -> bool:
    """Whether ``node`` is an application whose argument is not a pattern,
    the one application that desugaring rewrites."""
    return type(node) is Apply and type(node.argument) is not Var and type(node.argument) is not Con


def assert_core(program: Program) -> None:
    """Raise if any sugared node survived desugaring."""
    for definition in fun_defs(program):
        if not isinstance(definition.parameter, Var):
            raise AssertionError(f"function '{definition.name}' still has a pattern parameter")
        if any(type(node) is ConApp or is_general_application(node) for node in nodes(definition.body)):
            raise AssertionError(f"function '{definition.name}' still contains sugar")


# each labeled node type's kind, spelled out here rather than read from
# the ``kind`` attribute that the report prints
KIND_NAMES = {"Var": "variable", "Con": "constructor", "Apply": "application", "Case": "case"}


def label_rows(labeled) -> dict[int, tuple[str, str, int | None]]:
    """Each label's function, kind and start offset, in label order, found
    by walking every labeled definition with ``nodes``."""
    rows = {}
    for definition in fun_defs(labeled.program):
        for root in (definition.parameter, definition.body):
            for node in nodes(root):
                rows[node.label] = (definition.name, KIND_NAMES[type(node).__name__], node.offset)
    return dict(sorted(rows.items()))


@pytest.fixture(scope="session")
def fib_labeled():
    return load_labeled("fib.jpd")


@pytest.fixture(scope="session")
def fib_oracle():
    return json.loads((FIXTURES / "fib_oracle.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Random core programs for order-preservation (monotonicity) checks.

import random  # noqa: E402

from jeopardy_iaa.syntax import (  # noqa: E402
    Apply,
    Case,
    Con,
    DataDef,
    FunDef,
    FunctionRef,
)

_CONSTRUCTORS = (("c0", 0), ("c1", 1), ("c2", 2))
_CALLEES = ("f", "g", "h")
_VARS = ("x", "y", "z")


def _random_pattern(rng: random.Random, budget: int):
    if budget <= 1 or rng.random() < 0.4:
        return Var(rng.choice(_VARS)), 1
    name, arity = rng.choice(_CONSTRUCTORS)
    used = 1
    args = []
    for _ in range(arity):
        arg, spent = _random_pattern(rng, max(1, (budget - used) // max(1, arity)))
        args.append(arg)
        used += spent
    return Con(name, tuple(args)), used


def _random_ref(rng: random.Random):
    name = rng.choice(_CALLEES)
    return FunctionRef(name, sum(rng.random() < 0.3 for _ in range(rng.randint(0, 2))))


def _random_core_term(rng: random.Random, budget: int):
    roll = rng.random()
    if budget <= 2 or roll < 0.3:
        return _random_pattern(rng, budget)
    if roll < 0.6:
        pattern, used = _random_pattern(rng, max(1, budget - 1))
        return Apply(_random_ref(rng), pattern), used + 1
    branch_count = rng.randint(1, 2)
    used = 1
    scrutinee, spent = _random_core_term(rng, max(1, (budget - used) // (branch_count + 1)))
    used += spent
    branches = []
    for _ in range(branch_count):
        pattern, spent = _random_pattern(rng, max(1, (budget - used) // 2))
        used += spent
        body, spent = _random_core_term(rng, max(1, budget - used))
        used += spent
        branches.append((pattern, body))
    return Case(scrutinee, None, tuple(branches)), used


def random_labeled_program(rng: random.Random, budget: int = 12, branching: bool = False):
    """``random_core_program``, labeled."""
    return annotate(random_core_program(rng, budget, branching))


def random_core_program(rng: random.Random, budget: int = 12, branching: bool = False):
    """A core program whose function ``h`` has a random body.

    With ``branching``, ``f`` cases on its parameter, so call sites of
    ``f`` can earn symmetry hints.
    """
    body, _ = _random_core_term(rng, budget)
    data = DataDef("d", (("c0", ()), ("c1", ("d",)), ("c2", ("d", "d"))))
    f_body = Var("x")
    if branching:
        f_body = Case(
            Var("x"),
            None,
            ((Con("c0", ()), Var("x")), (Con("c1", (Var("w"),)), Var("w"))),
        )
    return Program(
        (
            data,
            FunDef("f", Var("x"), None, None, f_body),
            FunDef("g", Var("y"), None, None, Apply(FunctionRef("f"), Var("y"))),
            FunDef("h", Var("z"), None, None, body),
        ),
        FunctionRef("h"),
    )


def random_label_sets(rng: random.Random, universe: int):
    """A random pair (small, big) with small a subset of big."""
    pool = list(range(universe)) + ["input", "output"]
    big = frozenset(l for l in pool if rng.random() < 0.4)
    small = frozenset(l for l in big if rng.random() < 0.6)
    return small, big


def pointwise_below(lo, hi) -> bool:
    """Every configuration in ``lo`` is dominated by one in ``hi`` with
    the same caller, callee, and argument labels."""
    for config in lo:
        if not any(
            config.caller == other.caller
            and config.callee == other.callee
            and config.argument_labels == other.argument_labels
            and config.implicit_labels <= other.implicit_labels
            for other in hi
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Generated scaling families, as sources.


def diamond(k: int) -> str:
    """k sequential two-way cases; each branch calls a two-branch ``g``
    and each result is the scrutinee of the next case.

    The report has 2^k + 2k + 1 configurations: the k forward calls to
    ``g`` see one availability each, the backward walk enumerates the
    2^k branch paths.
    """
    body = f"x{k}"
    for i in range(k, 0, -1):
        body = (
            f"case (case x{i - 1} of\n  ; [z] -> g x{i - 1}\n"
            f"  ; [s y{i}] -> g y{i}) of\n  ; x{i} -> {body}"
        )
    return (
        "data t = [z] [s t].\n\n"
        "g v =\n  case v of\n  ; [z] -> [z]\n  ; [s w] -> [s w].\n\n"
        f"f x0 =\n  {body}.\n\nmain f.\n"
    )


def nested_scrutinees(depth: int) -> str:
    """``depth`` cases nested in scrutinee position, the innermost on
    ``x``, with an application of ``g`` in every branch.

    The backward walk of ``f`` meets 2^depth paths, and the scrutinee
    under the outermost case sits under ``depth - 1`` further
    scrutinee cases, which random programs rarely nest past 2.
    """
    term = "x"
    for i in range(1, depth + 1):
        scrutinee = term if i == 1 else f"({term})"
        term = f"case {scrutinee} of\n  ; [z] -> g x\n  ; [s a{i}] -> g a{i}"
    return (
        "data t = [z] [s t].\n\n"
        "g v =\n  case v of\n  ; [z] -> [z]\n  ; [s w] -> [s w].\n\n"
        f"f x =\n  {term}.\n\nmain f.\n"
    )


def ring(n: int) -> str:
    """n functions, each calling the next; 3n + 1 configurations."""
    names = [f"r_{i}" for i in range(n)]
    parts = ["data t = [z] [s t]."]
    for i, name in enumerate(names):
        parts.append(
            f"{name} x =\n  case x of\n  ; [z]   -> [z]\n  ; [s k] -> {names[(i + 1) % n]} k."
        )
    parts.append(f"main {names[0]}.")
    return "\n\n".join(parts) + "\n"


def sugar_library(functions: int, rng: random.Random) -> str:
    """``functions`` sugar-heavy functions: let, pairs, lists, numerals
    and nested applications, each calling earlier ones; main is the last."""
    parts = ["data nat = [zero] [successor nat].", "inc n = [successor n]."]
    names = ["inc"]
    for i in range(functions):
        name, callee = f"lib_{i}", rng.choice(names)
        a, b = rng.randrange(7), rng.randrange(7)
        shapes = (
            f"{name} (a, b) =\n  let c : nat = {a} in\n  ({callee} ({callee} a), (c : (b : ({b} : []))))",
            f"{name} xs =\n  case xs of\n  ; (h : t) -> ({callee} (h, t), [successor {a}])\n  ; [] -> ({b}, [])",
            f"{name} p =\n  case p of\n  ; (a, b) ->\n    let c = inc (inc b) in\n    (c : ({callee} a : ({a} : [])))",
            f"{name} q =\n  case q of\n  ; (x, (y, z)) -> let w = {callee} (x, (y : [])) in (w, (z, {a}))\n"
            f"  ; r -> ({callee} (r, {b}), r)",
        )
        parts.append(shapes[rng.randrange(len(shapes))] + ".")
        names.append(name)
    parts.append(f"main {names[-1]}.")
    return "\n\n".join(parts) + "\n"


def mutate(draw, source: str) -> str:
    """``source`` with one to three tokens deleted, duplicated or swapped
    with their neighbour."""
    texts = [token.text for token in tokenize(source)[:-1]]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(texts) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if edit == "delete":
            del texts[at]
        elif edit == "duplicate":
            texts.insert(at, texts[at])
        elif at + 1 < len(texts):
            texts[at], texts[at + 1] = texts[at + 1], texts[at]
    return " ".join(texts)
