"""The regex scanner, the constructor-built labeler and the
constructor-built desugarer against the character loop and the
``dataclasses.replace`` labeler and desugarer they replaced, and the
parser's pattern positions, read by the term grammar, against the
pattern grammar that read them before.

The references are kept here verbatim.  The reference desugarer is the
class-based one, copied whole: ``_names``, ``_Fresh`` and
``_Desugarer``, so it shares no code with the desugarer under test.  The
scanners agree on every input except one: the reference reads any
Unicode digit (``²``, ``٣``) as part of a numeral, where numerals are
ASCII digits only.  The labelers agree on labels, on each label's
function, kind and offset, and on every node's start offset; the
desugarers on the core program and on every node's offset but one
kind: an application that the desugarer
rebuilds from one whose argument is not a pattern now keeps that
application's offset, where the reference left it without one.  The
parsers agree on every source the pattern grammar accepts, trees and
offsets alike; where
it fails, the term grammar fails with the same error, or inside a
pattern position in one of two ways: ``expected a pattern`` at the first
token of a term that is not a pattern, or a term error no earlier than
the pattern grammar's.  The value reader, which builds located ``Con``
trees and reads brackets with the term parser's bracket reader, against
the reader that built unlocated value records: they agree on every
literal, but for one message: where a parenthesis' first value is
followed by neither ',' nor ':', the reader under test names both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from jeopardy_iaa import desugar_program, labeler, parse
from jeopardy_iaa.parser import ParseError, _Parser, parse_value, tokenize as scan
from jeopardy_iaa.printer import pretty_program, pretty_value
from jeopardy_iaa.syntax import (
    KEYWORDS,
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    FunDef,
    FunctionRef,
    Pattern,
    Program,
    Term,
    Var,
    constructor_table,
    fun_defs,
    nodes,
)

from conftest import (
    ALL_FIXTURES,
    fixture_source,
    is_general_application,
    label_rows,
    mutate,
    nested_scrutinees,
    random_core_program,
    sugar_library,
)


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
            tokens.append(Token("->", "->", i))
            i += 2
            continue
        if c in ".;,()[]=:":
            tokens.append(Token(c, c, i))
            i += 1
            continue
        if c == "_":
            if i + 1 < n and _is_name_char(source[i + 1]):
                raise ParseError("identifiers must start with a letter", i)
            tokens.append(Token("wildcard", "_", i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("number", source[i:j], i))
            i = j
            continue
        if _is_name_start(c):
            j = i
            while j < n and _is_name_char(source[j]):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "name"
            tokens.append(Token(kind, text, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("eof", "", n))
    return tokens


# -- reference labeler ------------------------------------------------------


@dataclass(frozen=True)
class LabelInfo:
    """What a label points at: enclosing function and node kind."""

    function: str
    kind: str  # 'variable' | 'constructor' | 'application' | 'case'
    offset: int | None = None


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

    def _next(self, function: str, kind: str, offset: int | None) -> int:
        label = self.counter
        self.counter += 1
        self.index[label] = LabelInfo(function, kind, offset)
        return label

    def pattern(self, p: Pattern, function: str) -> Pattern:
        if isinstance(p, Var):
            return replace(p, label=self._next(function, "variable", p.offset))
        label = self._next(function, "constructor", p.offset)
        args = tuple(self.pattern(arg, function) for arg in p.args)
        return replace(p, label=label, args=args)

    def term(self, t: Term, function: str) -> Term:
        if isinstance(t, (Var, Con)):
            return self.pattern(t, function)
        if isinstance(t, Apply):
            label = self._next(function, "application", t.offset)
            return replace(t, label=label, argument=self.pattern(t.argument, function))
        if isinstance(t, Case):
            label = self._next(function, "case", t.offset)
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
# ``_names``, ``_Fresh`` and ``_Desugarer`` verbatim from the desugarer
# that was a class, before it became one function with one walker.  On
# them, ``_ReplaceDesugarer`` puts back the two methods that rebuilt a
# node with ``dataclasses.replace``, the application rewrite that left
# the rebuilt application without an offset, and the constructor rewrite
# they call.


def _names(program: Program) -> tuple[set[str], set[str]]:
    """Every identifier the program uses, and the constructor names that
    its function definitions mention."""
    used: set[str] = set()
    mentioned: set[str] = set()
    for definition in program.definitions:
        if isinstance(definition, DataDef):
            used.add(definition.type_name)
            for con_name, components in definition.constructors:
                used.add(con_name)
                used.update(components)
            continue
        used.add(definition.name)
        for root in (definition.parameter, definition.body):
            for node in nodes(root):
                kind = type(node)
                if kind is Var:
                    used.add(node.name)
                elif kind is Con or kind is ConApp:
                    mentioned.add(node.name)
    used |= mentioned
    return used, mentioned


class _Fresh:
    """Deterministic per-definition fresh variable supply.

    Variables are definition-scoped, so the counter restarts for every
    definition; only identifiers used anywhere in the program are
    skipped.
    """

    def __init__(self, used: set[str]):
        self.used = used
        self.counter = 0

    def next(self) -> Var:
        while True:
            self.counter += 1
            name = f"w{self.counter}"
            if name not in self.used:
                return Var(name)


class _Desugarer:
    def __init__(self, program: Program):
        self.program = program
        self.used, self.mentioned = _names(program)
        self.fun_types = {
            fd.name: fd.parameter_type for fd in fun_defs(program)
        }
        self.constructors, _ = constructor_table(program)
        self.fresh: _Fresh | None = None

    def run(self) -> Program:
        definitions = []
        for definition in self.program.definitions:
            if isinstance(definition, DataDef):
                definitions.append(definition)
                continue
            definitions.append(self.desugar_fun_def(definition))
        # a mentioned pair/cons/nil the program does not declare
        builtins = sorted(
            name for name in self.mentioned if self.constructors[name].builtin
        )
        if builtins:
            type_name = "builtin"
            suffix = 1
            while type_name in self.used:
                suffix += 1
                type_name = f"builtin{suffix}"
            constructors = tuple(
                (name, (type_name,) * self.constructors[name].arity) for name in builtins
            )
            definitions.append(DataDef(type_name, constructors))
        return Program(tuple(definitions), self.program.main)

    def desugar_fun_def(self, definition: FunDef) -> FunDef:
        self.fresh = _Fresh(self.used)
        parameter = definition.parameter
        body = definition.body
        if not isinstance(parameter, Var):
            fresh = self.fresh.next()
            body = Case(fresh, definition.parameter_type, ((parameter, body),), offset=parameter.offset)
            parameter = fresh
        return definition.rebuilt(parameter, self.desugar_term(body))

    def desugar_term(self, term: Term) -> Term:
        if isinstance(term, (Var, Con, Apply)) and not is_general_application(term):
            return term
        if isinstance(term, Case):
            scrutinee = self.desugar_term(term.scrutinee)
            branches = tuple((p, self.desugar_term(b)) for p, b in term.branches)
            return Case(scrutinee, term.scrutinee_type, branches, term.label, term.offset)
        if is_general_application(term):
            # the rebuilt application starts where the source application
            # did, so a runtime error there is located
            callee, offset = term.callee, term.offset
            return self._hoisted(
                (term.argument,),
                (self.fun_types.get(callee.name),),
                lambda argument: Apply(callee, argument, offset=offset),
            )
        if isinstance(term, ConApp):
            name = term.name
            return self._hoisted(
                term.args, self.constructors[name].components, lambda *patterns: Con(name, patterns)
            )
        raise TypeError(f"unknown term node: {term!r}")  # pragma: no cover

    def _hoisted(
        self,
        args: tuple[Term, ...],
        ascriptions: tuple[str | None, ...],
        rebuild: Callable[..., Term],
    ) -> Term:
        """``rebuild`` applied to the arguments as patterns: each argument is
        desugared, then each one that is not a pattern is bound to a fresh
        variable by a case ascribed with its entry in ``ascriptions``, the
        leftmost argument's case outermost.  A loop, not a comprehension,
        desugars the arguments: one Python frame fewer per nesting level."""
        assert self.fresh is not None
        desugared: list[Term] = []
        for arg in args:
            desugared.append(self.desugar_term(arg))
        hoisted: list[tuple[Var, Term, str | None]] = []
        patterns: list[Pattern] = []
        for arg, ascription in zip(desugared, ascriptions):
            if type(arg) is Var or type(arg) is Con:
                patterns.append(arg)
            else:
                fresh = self.fresh.next()
                hoisted.append((fresh, arg, ascription))
                patterns.append(fresh)
        result = rebuild(*patterns)
        for fresh, arg, ascription in reversed(hoisted):
            result = Case(arg, ascription, ((fresh, result),))
        return result




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
                offset=parameter.offset,
            )
            parameter = fresh
        body = self.desugar_term(body)
        return replace(definition, parameter=parameter, body=body)

    def desugar_term(self, term: Term) -> Term:
        if isinstance(term, (Var, Con)):
            return term
        if isinstance(term, Apply) and not is_general_application(term):
            return term
        if isinstance(term, Case):
            scrutinee = self.desugar_term(term.scrutinee)
            branches = tuple((p, self.desugar_term(b)) for p, b in term.branches)
            return replace(term, scrutinee=scrutinee, branches=branches)
        if is_general_application(term):
            return self._desugar_application(term.callee, term.argument)
        if isinstance(term, ConApp):
            return self.desugar_constructor(term.name, term.args)
        raise TypeError(f"unknown term node: {term!r}")  # pragma: no cover

    def desugar_constructor(self, name: str, args: tuple[Term, ...]) -> Term:
        return self._hoisted(
            args, self.constructors[name].components, lambda *patterns: Con(name, patterns)
        )

    def _desugar_application(self, callee: FunctionRef, argument: Term) -> Term:
        assert self.fresh is not None
        desugared = self.desugar_term(argument)
        if isinstance(desugared, (Var, Con)):
            return Apply(callee, desugared)
        fresh = self.fresh.next()
        return Case(
            desugared,
            self.fun_types.get(callee.name),
            ((fresh, Apply(callee, fresh)),),
        )


# -- reference pattern grammar -------------------------------------------------
#
# The recursive-descent grammar that read patterns before pattern
# positions were read by the term grammar, with its offset helper.
# ``_pattern`` dispatches to it as the parser's pattern positions did:
# a branch or a parameter's pair component to ``parse_pattern``, an
# atom to ``parse_pattern_atom``.


def _pattern_start(pattern: Pattern) -> int:
    return pattern.offset if pattern.offset is not None else 0


class _PatternGrammarParser(_Parser):
    def _pattern(self, read):
        return self.parse_pattern() if read == self.parse_term else self.parse_pattern_atom()

    def parse_pattern(self) -> Pattern:
        # cons chains are right-associative: a : b : c = a : (b : c)
        self._enter()
        try:
            head = self.parse_pattern_atom()
            if self.peek().kind == ":":
                self.advance()
                tail = self.parse_pattern()
                return Con("cons", (head, tail), offset=_pattern_start(head))
            return head
        finally:
            self._leave()

    def parse_pattern_atom(self) -> Pattern:
        self._enter()
        try:
            token = self.peek()
            if token.kind == "name":
                self.advance()
                return Var(token.text, offset=token.start)
            if token.kind == "wildcard":
                self.advance()
                return self.fresh_wildcard(token.start)
            if token.kind == "number":
                return self._nat_pattern(self._numeral(), token.start)
            if token.kind == "[":
                start = self.advance()
                if self.peek().kind == "]":
                    self.advance()
                    return Con("nil", (), offset=start.start)
                name = self.expect("name", "a constructor name")
                args: list[Pattern] = []
                while self.peek().kind != "]":
                    args.append(self.parse_pattern_atom())
                self.advance()
                return Con(name.text, tuple(args), offset=start.start)
            if token.kind == "(":
                start = self.advance()
                first = self.parse_pattern()
                if self.peek().kind == ",":
                    self.advance()
                    second = self.parse_pattern()
                    self.expect(")")
                    return Con("pair", (first, second), offset=start.start)
                self.expect(")")
                return first
            self.fail(f"expected a pattern, found {token.text or 'end of input'!r}", token)
            raise AssertionError  # unreachable
        finally:
            self._leave()


class _RecordingParser(_Parser):
    """The parser under test, noting where each pattern position it is
    reading starts, so that a failure shows which ones were open."""

    def __init__(self, source: str):
        super().__init__(source)
        self.open_patterns: list[int] = []

    def _pattern(self, read):
        self.open_patterns.append(self.peek().start)
        pattern = super()._pattern(read)
        self.open_patterns.pop()
        return pattern


# -- scanner ------------------------------------------------------------------


def scanned(scanner, text: str):
    """The tokens as plain tuples, or the error's message and offset."""
    try:
        return [(t.kind, t.text, t.start) for t in scanner(text)]
    except ParseError as error:
        return error.message, error.offset


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
    stop = new[1] if type(new) is tuple else None
    if stop is not None and is_unicode_digit(text[stop]):
        # the one intended difference: the reference read this digit as
        # part of a numeral; up to it, the two scanners agree
        assert new[0] == f"unexpected character {text[stop]!r}"
        assert scanned(scan, text[:stop]) == scanned(tokenize, text[:stop])
        old = scanned(tokenize, text)
        assert type(old) is list or old[1] > stop
    else:
        assert new == scanned(tokenize, text)


def test_scanner_token_list_ends_in_one_end_marker():
    tokens = scan("f x = x. -- done")
    assert [t.kind for t in tokens].count("eof") == 1
    assert tokens[-1] == ("eof", "", 16)


# -- labeler ------------------------------------------------------------------


def located(program: Program) -> list:
    """Everything in a program that has an offset, in source order: ``main``,
    each definition, and each node of a function body or parameter, an
    application followed by its callee."""
    found: list = [program.main]
    for definition in program.definitions:
        found.append(definition)
        if type(definition) is not FunDef:
            continue
        for root in (definition.parameter, definition.body):
            for node in nodes(root):
                found.append(node)
                if type(node) is Apply:
                    found.append(node.callee)
    return found


def assert_offsets_alike(new: Program, old: Program, rebuilt: dict[int, int] | None = None) -> None:
    """Offsets never take part in equality, so compare them node by node.
    ``rebuilt`` maps the ``id`` of a callee to the offset that the new
    side's application of it has where the old side has none."""
    rebuilt = rebuilt or {}
    new_nodes, old_nodes = located(new), located(old)
    assert [type(n) for n in new_nodes] == [type(o) for o in old_nodes]
    for n, o in zip(new_nodes, old_nodes):
        if type(n) is Apply and id(n.callee) in rebuilt:
            assert (n.offset, o.offset) == (rebuilt[id(n.callee)], None)
        else:
            assert n.offset == o.offset


def assert_labeled_alike(program: Program) -> None:
    new, old = labeler.annotate(program), annotate(program)
    assert new.program == old.program
    assert new.functions == old.functions
    assert list(label_rows(new).items()) == [
        (k, (v.function, v.kind, v.offset)) for k, v in old.index.items()
    ]
    assert_offsets_alike(new.program, old.program)


def assert_desugared_alike(program: Program) -> int:
    """Compare the desugarers; the count of applications rebuilt from a
    general application, one whose argument is not a pattern, the one
    place where their offsets differ."""
    new, old = desugar_program(program), _ReplaceDesugarer(program).run()
    assert new == old
    # the one intended difference: the application rebuilt from a
    # general application keeps its offset, where the reference left it none
    rebuilt = {
        id(node.callee): node.offset
        for definition in program.definitions
        if type(definition) is FunDef
        for node in nodes(definition.body)
        if is_general_application(node)
    }
    assert_offsets_alike(new, old, rebuilt)
    return len(rebuilt)


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
    assert assert_desugared_alike(program) > 50
    # the offsets compared are real ones, not a run of Nones
    core = desugar_program(program)
    assert sum(n.offset is not None for d in core.definitions if type(d) is FunDef for n in nodes(d.body)) > 1000


@pytest.mark.parametrize("seed", range(40))
def test_labeler_agrees_on_random_programs(seed):
    rng = random.Random(seed)
    program = random_core_program(rng, budget=rng.randrange(6, 30), branching=seed % 2 == 1)
    assert_labeled_alike(program)
    # printed and read back, the same program carries source offsets
    assert_labeled_alike(parse(pretty_program(program)))


# -- pattern positions ----------------------------------------------------------


def parsed(parser: type[_Parser], source: str) -> Program | ParseError:
    try:
        return parser(source).parse_program()
    except ParseError as error:
        return error


def assert_parsed_alike(source: str) -> str:
    """Parse with the term grammar in pattern positions and with the
    pattern grammar; say how the two outcomes relate."""
    old = parsed(_PatternGrammarParser, source)
    recording = _RecordingParser(source)
    try:
        new: Program | ParseError = recording.parse_program()
    except ParseError as error:
        new = error
    if type(old) is Program:
        assert type(new) is Program
        assert new == old
        assert_offsets_alike(new, old)
        return "accepted"
    assert type(new) is ParseError
    if (new.message, new.offset) == (old.message, old.offset):
        return "same error"
    # they differ only inside a pattern position that the term grammar
    # reads, which starts no later than where the pattern grammar failed
    assert recording.open_patterns and recording.open_patterns[0] <= old.offset
    # the source scanned, or both would have failed alike
    token = next(t.text for t in scan(source) if t.start == new.offset)
    if new.message == f"expected a pattern, found {token!r}":
        # a term that is not a pattern, rejected at its first token
        assert new.offset in recording.open_patterns
        assert new.offset <= old.offset
        return "not a pattern"
    # the term grammar read on where the pattern grammar stopped
    assert new.offset >= old.offset
    return "term error"


# every pattern shape in every pattern position, unparenthesised cons
# chains included, which the generated sources do not write
PATTERN_SHAPES = """\
data nat = [zero] [successor nat].
data t = [c] [d t t].
f (a, b : c : d) : nat =
  case a of
  ; x : y : z -> x
  ; (_, [d _ (p, q : r)]) -> p
  ; [] -> 2
  ; 1 : _ -> let (u, 0 : v) : nat = b in u
  ; ((w)) -> let _ = w in [c].
g ((h : t : u)) = (h, t : u).
k (x : nat) = case x of ; [d (1, _) ((y))] -> y ; _ -> x.
main f.
"""

PATTERN_SOURCES = (
    [PATTERN_SHAPES]
    + [fixture_source(path.name) for path in ALL_FIXTURES]
    + [sugar_library(1 + seed % 8, random.Random(seed)) for seed in range(40)]
    + [nested_scrutinees(depth) for depth in range(1, 6)]
)


@pytest.mark.parametrize("index", range(len(PATTERN_SOURCES)))
def test_pattern_positions_parse_as_the_pattern_grammar_did(index):
    assert assert_parsed_alike(PATTERN_SOURCES[index]) == "accepted"


@st.composite
def mutants(draw):
    """A corpus source, mutated."""
    return mutate(draw, draw(st.sampled_from(PATTERN_SOURCES)))


@settings(deadline=None, max_examples=500)
@given(mutants())
@example("f x = case x of ; g y -> x. main f.")
@example("f x = case x of ; [c (g y)] -> x. main f.")
@example("f x = case x of ; (x, ) -> x. main f.")
@example("f (invert g) = x. main f.")
def test_mutated_sources_parse_or_fail_as_the_pattern_grammar_did(source):
    assert_parsed_alike(source)


# each shape, and how deep it may nest in a branch under the bound of 400:
# a bracket or a cons item costs one level, a parenthesis or a pair two
# (the atom and the term inside it), and the function body, the case
# branch and the innermost atom take three
NESTED_PATTERNS = {
    "bracket": (lambda n: "[c " * n + "x" + "]" * n, 397),
    "parenthesis": (lambda n: "(" * n + "x" + ")" * n, 198),
    "pair": (lambda n: "(x, " * n + "x" + ")" * n, 198),
    "cons": (lambda n: "x : " * n + "x", 397),
}


def deepest_branch_pattern(parser: type[_Parser], shape) -> tuple[int, ParseError]:
    """The deepest nesting of ``shape`` that a branch pattern may have,
    and the error one level deeper."""
    def source(n: int) -> str:
        return f"f x = case x of ; {shape(n)} -> x. main f."

    low, high = 0, 1000  # accepted at low, refused at high
    while high - low > 1:
        middle = (low + high) // 2
        if type(parsed(parser, source(middle))) is Program:
            low = middle
        else:
            high = middle
    return low, parsed(parser, source(high))


@pytest.mark.parametrize("shape", NESTED_PATTERNS)
def test_nested_branch_patterns_meet_the_nesting_bound_where_they_did(shape):
    build, expected = NESTED_PATTERNS[shape]
    deepest, error = deepest_branch_pattern(_Parser, build)
    old_deepest, old_error = deepest_branch_pattern(_PatternGrammarParser, build)
    assert (deepest, error.message, error.offset) == (old_deepest, old_error.message, old_error.offset)
    assert (deepest, error.message) == (expected, "nesting too deep")


# -- reference value reader ------------------------------------------------------
#
# The value reader before a value was a ``Con``: its two methods
# verbatim, but for the record they build, the ``Value`` record then,
# which had a ``Con``'s name and arguments and nothing else.


class _ValueRecordParser(_Parser):
    def parse_value(self) -> Con:
        self._enter()
        try:
            token = self.peek()
            if token.kind == "number":
                return self._nat_value(self._numeral())
            if token.kind == "[":
                self.advance()
                if self.peek().kind == "]":
                    self.advance()
                    return Con("nil")
                name = self.expect("name", "a constructor name")
                args: list[Con] = []
                while self.peek().kind != "]":
                    args.append(self.parse_value())
                self.advance()
                return Con(name.text, tuple(args))
            if token.kind == "(":
                self.advance()
                first = self.parse_value()
                name = "cons" if self.peek().kind == ":" else "pair"
                self.expect(":" if name == "cons" else ",", "',' in pair value")
                second = self.parse_value()
                self.expect(")")
                return Con(name, (first, second))
            self.fail(f"expected a value, found {token.text or 'end of input'!r}", token)
            raise AssertionError  # unreachable
        finally:
            self._leave()

    def _nat_value(self, n: int) -> Con:
        result = Con("zero")
        for _ in range(n):
            result = Con("successor", (result,))
        return result


# -- values -----------------------------------------------------------------------


def old_parse_value(source: str) -> Con:
    """``parse_value`` with the reference reader."""
    parser = _ValueRecordParser(source)
    value = parser.parse_value()
    trailing = parser.peek()
    if trailing.kind != "eof":
        parser.fail(f"unexpected input after value: {trailing.text!r}", trailing)
    return value


def outcome(read, text: str) -> Con | tuple[str, int]:
    """The value that ``read`` finds in ``text``, or the error's message
    and offset."""
    try:
        return read(text)
    except ParseError as error:
        return error.message, error.offset


# the one intended difference: where a parenthesis' first value is not
# followed by ',' or ':', the message names both, at the same offset
OLD_PAIR_MESSAGE = "expected ',' in pair value, found "
NEW_PAIR_MESSAGE = "expected ',' or ':' in a pair or list value, found "


def assert_values_alike(text: str) -> str:
    """Read ``text`` with both value readers and require the same printed
    tree, or the same message and offset; say which."""
    new, old = outcome(parse_value, text), outcome(old_parse_value, text)
    if type(old) is tuple:
        message, offset = old
        if message.startswith(OLD_PAIR_MESSAGE):
            message = NEW_PAIR_MESSAGE + message[len(OLD_PAIR_MESSAGE) :]
        assert new == (message, offset)
        return "same error"
    assert type(new) is Con
    # compared as text: record equality recurses
    assert pretty_value(new) == pretty_value(old)
    assert_located(new, text)
    return "accepted"


def assert_located(value: Con, text: str) -> None:
    """The root starts the literal; a numeral's nodes all start at the
    numeral, and every other node at its opening bracket or parenthesis,
    before its arguments, which start in order."""
    assert value.offset == len(text) - len(text.lstrip())
    for node in nodes(value):
        start = node.offset
        if text[start].isdigit():
            assert all(arg.offset == start for arg in node.args)
            continue
        assert text[start] in "[("
        at = start
        for arg in node.args:
            assert at < arg.offset
            at = arg.offset


_constructors = st.sampled_from(["pair", "cons", "nil", "zero", "successor"])

values = st.recursive(
    st.builds(Con, _constructors),
    lambda inner: st.builds(Con, _constructors, st.lists(inner, max_size=3).map(tuple)),
    max_leaves=12,
)


@settings(deadline=None, max_examples=300)
@given(values)
def test_printed_values_read_as_the_value_records_did(value):
    assert assert_values_alike(pretty_value(value)) == "accepted"


@pytest.mark.parametrize("zeros", ["", "0", "000"])
def test_numerals_read_as_the_value_records_did(zeros):
    outcomes = [assert_values_alike(zeros + str(n)) for n in range(402)]
    # the largest numeral is 400
    assert outcomes == ["accepted"] * 401 + ["same error"]


# each nesting, n levels deep; a node of any kind costs one level of the
# bound of 400, so 399 levels above a leaf are the deepest
NESTED_VALUES = {
    "bracket": lambda n: "[successor " * n + "[zero]" + "]" * n,
    "pair": lambda n: "([zero], " * n + "[zero]" + ")" * n,
    "left-pair": lambda n: "(" * n + "[zero]" + ", [zero])" * n,
    "list": lambda n: "([zero] : " * n + "[]" + ")" * n,
}


@pytest.mark.parametrize("shape", NESTED_VALUES)
def test_nested_values_read_as_the_value_records_did(shape):
    outcomes = [assert_values_alike(NESTED_VALUES[shape](n)) for n in range(1, 402)]
    assert outcomes == ["accepted"] * 399 + ["same error"] * 2
    assert outcome(parse_value, NESTED_VALUES[shape](400))[0] == "nesting too deep"


@st.composite
def value_mutants(draw):
    """A nested value literal, mutated."""
    build = NESTED_VALUES[draw(st.sampled_from(sorted(NESTED_VALUES)))]
    return mutate(draw, build(draw(st.integers(1, 401))))


@settings(deadline=None, max_examples=300)
@given(value_mutants())
@example("(1)")
@example("([zero] [zero])")
@example("[]]")
@example("")
@example("[1 2]")
@example("(x, 1)")
def test_mutated_values_read_as_the_value_records_did(text):
    assert_values_alike(text)
