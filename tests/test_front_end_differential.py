"""The regex scanner, the constructor-built labeler and the
constructor-built desugarer against the character loop and the
``dataclasses.replace`` labeler and desugarer they replaced.

The references are kept here verbatim.  The scanners agree on every
input except one: the reference reads any Unicode digit (``²``, ``٣``)
as part of a numeral, where numerals are ASCII digits only.  The
labelers agree on labels, on the label index and on every node's span;
the desugarers on the core program and on every node's span.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from jeopardy_iaa import desugar_program, labeler, parse
from jeopardy_iaa.desugar import _Desugarer, _Fresh
from jeopardy_iaa.parser import ParseError, tokenize as scan
from jeopardy_iaa.printer import pretty_program
from jeopardy_iaa.syntax import (
    KEYWORDS,
    Apply,
    Case,
    Con,
    ConApp,
    FunDef,
    GeneralApply,
    Pattern,
    Program,
    Span,
    Term,
    Var,
    nodes,
)

from conftest import ALL_FIXTURES, fixture_source, random_core_program, sugar_library


def replace(node, **changes):
    """``dataclasses.replace`` for a syntax record: a copy with the named
    fields changed; an unknown field name is a ``TypeError``."""
    fields = {name: getattr(node, name) for name in node.__slots__}
    return type(node)(**{**fields, **changes})


# -- reference scanner ------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'number', 'wildcard', 'eof', a keyword, or a punct
    text: str
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


def _is_name_start(c: str) -> bool:
    return c.isalpha() and c.isascii()


def _is_name_char(c: str) -> bool:
    return (c.isalnum() and c.isascii()) or c == "_"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if source.startswith("--", i):
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if source.startswith("->", i):
            tokens.append(Token("->", "->", i, i + 2))
            i += 2
            continue
        if c in ".;,()[]=:":
            tokens.append(Token(c, c, i, i + 1))
            i += 1
            continue
        if c == "_":
            if i + 1 < n and _is_name_char(source[i + 1]):
                raise ParseError(
                    "identifiers must start with a letter",
                    Span(i, i + 1),
                )
            tokens.append(Token("wildcard", "_", i, i + 1))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("number", source[i:j], i, j))
            i = j
            continue
        if _is_name_start(c):
            j = i
            while j < n and _is_name_char(source[j]):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "name"
            tokens.append(Token(kind, text, i, j))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", Span(i, i + 1))
    tokens.append(Token("eof", "", n, n))
    return tokens


# -- reference labeler ------------------------------------------------------


@dataclass(frozen=True)
class LabelInfo:
    """What a label points at: enclosing function and node kind."""

    function: str
    kind: str  # 'variable' | 'constructor' | 'application' | 'case'
    span: Span | None = None


@dataclass(frozen=True)
class LabeledProgram:
    program: Program
    index: dict[int, LabelInfo]
    functions: dict[str, FunDef]

    @property
    def label_count(self) -> int:
        return len(self.index)


class _Labeler:
    def __init__(self) -> None:
        self.counter = 0
        self.index: dict[int, LabelInfo] = {}

    def _next(self, function: str, kind: str, span: Span | None) -> int:
        label = self.counter
        self.counter += 1
        self.index[label] = LabelInfo(function, kind, span)
        return label

    def pattern(self, p: Pattern, function: str) -> Pattern:
        if isinstance(p, Var):
            return replace(p, label=self._next(function, "variable", p.span))
        label = self._next(function, "constructor", p.span)
        args = tuple(self.pattern(arg, function) for arg in p.args)
        return replace(p, label=label, args=args)

    def term(self, t: Term, function: str) -> Term:
        if isinstance(t, (Var, Con)):
            return self.pattern(t, function)
        if isinstance(t, Apply):
            label = self._next(function, "application", t.span)
            return replace(t, label=label, argument=self.pattern(t.argument, function))
        if isinstance(t, Case):
            label = self._next(function, "case", t.span)
            scrutinee = self.term(t.scrutinee, function)
            branches = tuple(
                (self.pattern(p, function), self.term(b, function))
                for p, b in t.branches
            )
            return replace(t, label=label, scrutinee=scrutinee, branches=branches)
        raise ValueError(f"cannot label sugared term {t!r}; desugar first")


def annotate(program: Program) -> LabeledProgram:
    """Assign labels to every program point of a core program."""
    labeler = _Labeler()
    definitions = []
    functions: dict[str, FunDef] = {}
    for definition in program.definitions:
        if not isinstance(definition, FunDef):
            definitions.append(definition)
            continue
        parameter = labeler.pattern(definition.parameter, definition.name)
        body = labeler.term(definition.body, definition.name)
        labeled = replace(definition, parameter=parameter, body=body)
        definitions.append(labeled)
        functions[definition.name] = labeled
    labeled_program = Program(tuple(definitions), program.main)
    return LabeledProgram(labeled_program, labeler.index, functions)


# -- reference desugarer -----------------------------------------------------
#
# The two methods that rebuilt a node with ``dataclasses.replace``; the
# rest of the desugarer is shared.


class _ReplaceDesugarer(_Desugarer):
    def desugar_fun_def(self, definition: FunDef) -> FunDef:
        self.fresh = _Fresh(self.used)
        parameter = definition.parameter
        body = definition.body
        if not isinstance(parameter, Var):
            fresh = self.fresh.next()
            body = Case(
                fresh,
                definition.parameter_type,
                ((parameter, body),),
                span=parameter.span,
            )
            parameter = fresh
        body = self.desugar_term(body)
        return replace(definition, parameter=parameter, body=body)

    def desugar_term(self, term: Term) -> Term:
        if isinstance(term, (Var, Con)):
            return term
        if isinstance(term, Apply):
            return term
        if isinstance(term, Case):
            scrutinee = self.desugar_term(term.scrutinee)
            branches = tuple((p, self.desugar_term(b)) for p, b in term.branches)
            return replace(term, scrutinee=scrutinee, branches=branches)
        if isinstance(term, GeneralApply):
            return self._desugar_application(term.callee, term.argument)
        if isinstance(term, ConApp):
            return self.desugar_constructor(term.name, term.args)
        raise TypeError(f"unknown term node: {term!r}")  # pragma: no cover


# -- scanner ------------------------------------------------------------------


def scanned(scanner, text: str):
    """The tokens as plain tuples, or the error's message and span."""
    try:
        return [(t.kind, t.text, t.start, t.end) for t in scanner(text)]
    except ParseError as error:
        return error.message, error.span


def is_unicode_digit(c: str) -> bool:
    return c.isdigit() and not c.isascii()


# the language's characters, the ones that are almost tokens, and three
# that are not: a superscript two, an Arabic-Indic three, a no-break space
characters = st.sampled_from(list("abzAZ09 \t\r\n.;,()[]=:_->") + ["²", "٣", "\xa0"])
fragments = st.sampled_from(
    ["case", "of", "let", "in", "data", "main", "invert"]
    + ["--", "->", "x_1", "_0", "_a", "__", "42", "\n"]
)
sources = st.lists(st.one_of(characters, fragments), max_size=40).map("".join)


@settings(deadline=None, max_examples=500)
@given(sources)
@example("f x = ².")
@example("12٣4")
@example("-- ² in a comment\n_ ²")
@example("_x")
@example("a\xa0b")
def test_scanner_agrees_with_the_character_loop(text):
    new = scanned(scan, text)
    stop = new[1].start if type(new) is tuple else None
    if stop is not None and is_unicode_digit(text[stop]):
        # the one intended difference: the reference read this digit as
        # part of a numeral; up to it, the two scanners agree
        assert new[0] == f"unexpected character {text[stop]!r}"
        assert scanned(scan, text[:stop]) == scanned(tokenize, text[:stop])
        old = scanned(tokenize, text)
        assert type(old) is list or old[1].start > stop
    else:
        assert new == scanned(tokenize, text)


def test_scanner_token_list_ends_in_one_end_marker():
    tokens = scan("f x = x. -- done")
    assert [t.kind for t in tokens].count("eof") == 1
    assert tokens[-1] == ("eof", "", 16, 16)


# -- labeler ------------------------------------------------------------------


def assert_spans_alike(new: Program, old: Program) -> None:
    """Spans never take part in equality, so compare them node by node."""
    assert len(new.definitions) == len(old.definitions)
    for new_def, old_def in zip(new.definitions, old.definitions):
        assert new_def.span == old_def.span
        if type(new_def) is not FunDef:
            continue
        for root in ("parameter", "body"):
            new_nodes = list(nodes(getattr(new_def, root)))
            old_nodes = list(nodes(getattr(old_def, root)))
            assert [(type(n), n.span) for n in new_nodes] == [(type(n), n.span) for n in old_nodes]


def assert_labeled_alike(program: Program) -> None:
    new, old = labeler.annotate(program), annotate(program)
    assert new.program == old.program
    assert new.functions == old.functions
    assert [(k, tuple(v)) for k, v in new.index.items()] == [
        (k, (v.function, v.kind, v.span)) for k, v in old.index.items()
    ]
    assert_spans_alike(new.program, old.program)


def assert_desugared_alike(program: Program) -> None:
    new, old = desugar_program(program), _ReplaceDesugarer(program).run()
    assert new == old
    assert_spans_alike(new, old)


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_labeler_agrees_on_every_fixture(path):
    assert_labeled_alike(desugar_program(parse(fixture_source(path.name))))


def test_labeler_agrees_on_a_sugar_heavy_source():
    assert_labeled_alike(desugar_program(parse(sugar_library(130, random.Random(3)))))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_desugarer_agrees_on_every_fixture(path):
    assert_desugared_alike(parse(fixture_source(path.name)))


def test_desugarer_agrees_on_a_sugar_heavy_source():
    program = parse(sugar_library(130, random.Random(3)))
    assert_desugared_alike(program)
    # the spans compared are real ones, not a run of Nones
    core = desugar_program(program)
    assert sum(n.span is not None for d in core.definitions if type(d) is FunDef for n in nodes(d.body)) > 1000


@pytest.mark.parametrize("seed", range(40))
def test_labeler_agrees_on_random_programs(seed):
    rng = random.Random(seed)
    program = random_core_program(rng, budget=rng.randrange(6, 30), branching=seed % 2 == 1)
    assert_labeled_alike(program)
    # printed and read back, the same program carries source spans
    assert_labeled_alike(parse(pretty_program(program)))
