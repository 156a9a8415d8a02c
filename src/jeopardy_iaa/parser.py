"""Concrete-syntax parser for Jeopardy source files.

Definitions end with ``.``; case branches are introduced by ``;`` and use
``->``; constructor forms are bracketed ``[c t1 ... tn]``; pairs are
written ``(t1, t2)``, list cells ``t1 : t2`` and the empty list ``[]``;
comments run from ``--`` to end of line.  Natural-number literals,
written in ASCII digits, stand for their ``[zero]``/``[successor ...]``
encodings.  The wildcard ``_`` parses as a fresh reserved variable
(printed back as ``_``).

Ascription ambiguities are resolved in favour of the type annotation: in
``case t : x of``, ``let p : x = ...`` and a parenthesised parameter
``f (p : x) = ...`` the name after ``:`` is a type; a cons pattern in
those positions needs its own parentheses.

Pairs and list cells are read as the ``pair``/``cons`` constructor
terms they stand for, and ``let p : tau = t in t'`` as
``case t : tau of ; p -> t'``.  A constructor term collapses to core
pattern form whenever its parts are all patterns, so
``(k, [successor n])`` parses as the pattern ``[pair k [successor n]]``;
it stays a ``ConApp`` only when a non-pattern part forces it.  An
application ``g t`` is an ``Apply`` whatever its argument.

A pattern is a term, and the term grammar reads both.  ``_pattern``
reads a branch, a parameter, a parameter's pair component or a ``let``
binder, and fails with ``expected a pattern`` at its first token when
that token starts no pattern (``case``) or the term is not a ``Var`` or
``Con`` (``g y``).  A term error inside the term is reported as such.

A value literal is a pattern without variables: ``parse_value`` reads
it as a ``Con`` tree, with brackets and numerals as in a term, and a
parenthesis only as a pair or a list cell.

Every node records only where it starts: a bracket, a pair or a case at
its first token, a list cell or an application at its first item, and
each node of a numeral at the numeral.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    FunDef,
    FunctionRef,
    KEYWORDS,
    Pattern,
    Program,
    Term,
    Var,
)

_MAX_DEPTH = 400


class ParseError(Exception):
    """Malformed input, with the offset of the offending character or
    token."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


def line_col(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character index into the decoded
    text, for error display."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    column = offset - (source.rfind("\n", 0, offset) + 1) + 1
    return line, column


class Token(NamedTuple):
    kind: str  # 'name', 'number', 'wildcard', 'eof', a keyword, or a punct
    text: str
    start: int


# One alternative per token class, ASCII only; whitespace and comments
# match without a group, so their ``lastgroup`` is None.  A ``_`` that
# starts an identifier matches nothing and is reported where it stands.
_TOKEN = re.compile(
    r"[ \t\r\n]+|--[^\n]*"
    r"|(?P<punct>->|[.;,()\[\]=:])"
    r"|(?P<number>[0-9]+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<wildcard>_(?![A-Za-z0-9_]))"
)


def tokenize(source: str) -> list[Token]:
    """The tokens of ``source``, ending in one ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token's own __new__ is a Python-level call
    end = 0
    for found in _TOKEN.finditer(source):
        start, stop = found.span()
        if start != end:
            break  # source[end] starts no token
        end = stop
        kind = found.lastgroup
        if kind is None:
            continue
        text = found.group()
        if kind == "punct":
            kind = text
        elif kind == "name" and text in KEYWORDS:
            kind = text
        append(new(Token, (kind, text, start)))
    if end < len(source):
        if source[end] == "_":
            raise ParseError("identifiers must start with a letter", end)
        raise ParseError(f"unexpected character {source[end]!r}", end)
    append(Token("eof", "", end))
    return tokens


_ATOM_START = ("name", "number", "wildcard", "[", "(")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        tokens = tokenize(source)
        # two more end markers, so that ``peek`` up to two ahead is an index
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0
        self.wildcards = 0
        self.depth = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str, expected: str | None = None) -> Token:
        token = self.peek()
        if token.kind != kind:
            self.fail(f"expected {expected or repr(kind)}, found {token.text or 'end of input'!r}", token)
        return self.advance()

    def fail(self, message: str, token: Token | None = None) -> None:
        token = token or self.peek()
        raise ParseError(message, token.start)

    def fresh_wildcard(self, offset: int) -> Var:
        self.wildcards += 1
        return Var(f"_{self.wildcards}", offset=offset)

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("nesting too deep")

    def _leave(self) -> None:
        self.depth -= 1

    def _numeral(self) -> int:
        """Consume a numeral token; its value is the nesting depth it
        stands for, so it is bounded like any other nesting."""
        token = self.advance()
        digits = token.text.lstrip("0")
        if len(digits) > len(str(_MAX_DEPTH)) or int(digits or "0") > _MAX_DEPTH:
            self.fail("numeral too large", token)
        return int(token.text)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        definitions: list[DataDef | FunDef] = []
        main: FunctionRef | None = None
        while self.peek().kind != "eof":
            token = self.peek()
            if token.kind == "data":
                definitions.append(self.parse_data_def())
            elif token.kind == "main":
                if main is not None:
                    self.fail("duplicate main declaration", token)
                self.advance()
                main = self.parse_funref()
                self.expect(".", "'.' after main declaration")
            elif token.kind == "name":
                definitions.append(self.parse_fun_def())
            else:
                self.fail(
                    f"expected a definition, found {token.text or 'end of input'!r}",
                    token,
                )
        if main is None:
            self.fail("missing main declaration")
        return Program(tuple(definitions), main)

    def parse_data_def(self) -> DataDef:
        start = self.expect("data")
        type_name = self.expect("name", "a datatype name")
        self.expect("=")
        constructors: list[tuple[str, tuple[str, ...]]] = []
        while self.peek().kind == "[":
            self.advance()
            con_name = self.expect("name", "a constructor name")
            components: list[str] = []
            while self.peek().kind == "name":
                components.append(self.advance().text)
            self.expect("]")
            constructors.append((con_name.text, tuple(components)))
        if not constructors:
            self.fail("a data definition needs at least one constructor")
        self.expect(".", "'.' after data definition")
        return DataDef(type_name.text, tuple(constructors), start.start)

    def parse_fun_def(self) -> FunDef:
        name = self.expect("name")
        parameter, parameter_type = self.parse_parameter()
        return_type: str | None = None
        if self.peek().kind == ":":
            self.advance()
            return_type = self.expect("name", "a type name").text
        self.expect("=", "'=' after function header")
        body = self.parse_term()
        self.expect(".", "'.' after function body")
        return FunDef(name.text, parameter, parameter_type, return_type, body, name.start)

    def parse_parameter(self) -> tuple[Pattern, str | None]:
        if self.peek().kind != "(":
            return self._pattern(self.parse_atom_term), None
        start = self.advance()
        pattern = self._pattern(self.parse_atom_term)
        token = self.peek()
        if token.kind == ":":
            self.advance()
            type_name = self.expect("name", "a type name").text
            self.expect(")")
            return pattern, type_name
        if token.kind == ",":
            self.advance()
            second = self._pattern(self.parse_term)
            self.expect(")")
            return Con("pair", (pattern, second), offset=start.start), None
        self.expect(")")
        return pattern, None

    def parse_funref(self) -> FunctionRef:
        # each (invert ...) marker is one level of nesting
        start = self.peek()
        markers = 0
        while self.peek().kind == "(":
            self._enter()
            markers += 1
            self.advance()
            self.expect("invert", "'invert'")
        token = self.peek()
        if token.kind != "name":
            self.fail("expected a function reference", token)
        self.advance()
        for _ in range(markers):
            self.expect(")")
        self.depth -= markers
        return FunctionRef(token.text, markers, start.start)

    # -- patterns -----------------------------------------------------------

    def _pattern(self, read: Callable[[], Term]) -> Pattern:
        """The term that ``read`` (``parse_term`` or ``parse_atom_term``)
        finds at a pattern position, which must be a pattern."""
        token = self.peek()
        pattern = read() if token.kind in _ATOM_START else None
        if type(pattern) is not Var and type(pattern) is not Con:
            self.fail(f"expected a pattern, found {token.text or 'end of input'!r}", token)
        return pattern

    def _nat_pattern(self, n: int, offset: int) -> Pattern:
        # positional: a call with a keyword costs a fifth more
        result: Pattern = Con("zero", (), None, offset)
        for _ in range(n):
            result = Con("successor", (result,), None, offset)
        return result

    # -- terms --------------------------------------------------------------

    def parse_term(self, scrutinee: bool = False) -> Term:
        self._enter()
        try:
            token = self.peek()
            if token.kind == "case":
                return self.parse_case()
            if token.kind == "let":
                return self.parse_let()
            items = [self.parse_app_or_atom()]
            while self.peek().kind == ":":
                if scrutinee and self.peek(1).kind == "name" and self.peek(2).kind == "of":
                    break  # the ':' belongs to the case ascription
                self.advance()
                self._enter()  # each item after a ':' is one level deeper
                items.append(self.parse_app_or_atom())
            self.depth -= len(items) - 1
            return self._fold_cons(items)
        finally:
            self._leave()

    def _fold_cons(self, items: list[Term]) -> Term:
        result = items[-1]
        for item in reversed(items[:-1]):
            result = _constructor_term("cons", (item, result), item.offset)
        return result

    def parse_case(self) -> Case:
        start = self.expect("case")
        scrutinee = self.parse_term(scrutinee=True)
        scrutinee_type: str | None = None
        if self.peek().kind == ":":
            self.advance()
            scrutinee_type = self.expect("name", "a type name").text
        self.expect("of", "'of'")
        branches: list[tuple[Pattern, Term]] = []
        if self.peek().kind == ";":
            self.advance()
        while True:
            pattern = self._pattern(self.parse_term)
            self.expect("->", "'->'")
            body = self.parse_term()
            branches.append((pattern, body))
            if self.peek().kind != ";":
                break
            self.advance()
        return Case(scrutinee, scrutinee_type, tuple(branches), offset=start.start)

    def parse_let(self) -> Case:
        start = self.expect("let")
        pattern = self._pattern(self.parse_atom_term)
        type_name: str | None = None
        if self.peek().kind == ":":
            self.advance()
            type_name = self.expect("name", "a type name").text
        self.expect("=", "'=' in let binding")
        bound = self.parse_term()
        self.expect("in", "'in'")
        body = self.parse_term()
        return Case(bound, type_name, ((pattern, body),), offset=start.start)

    def parse_app_or_atom(self) -> Term:
        token = self.peek()
        if token.kind == "name" and self.peek(1).kind in _ATOM_START:
            self.advance()
            callee = FunctionRef(token.text, offset=token.start)
        elif token.kind == "(" and self.peek(1).kind == "invert":
            callee = self.parse_funref()
        else:
            return self.parse_atom_term()
        return Apply(callee, self.parse_atom_term(), offset=callee.offset)

    def parse_atom_term(self) -> Term:
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
                return self.parse_bracket_term(self.parse_atom_term)
            if token.kind == "(":
                if self.peek(1).kind == "invert":
                    return self.parse_app_or_atom()
                start = self.advance()
                first = self.parse_term()
                if self.peek().kind == ",":
                    self.advance()
                    second = self.parse_term()
                    self.expect(")", "')' after pair")
                    return _constructor_term("pair", (first, second), start.start)
                self.expect(")")
                return first
            self.fail(f"expected a term, found {token.text or 'end of input'!r}", token)
            raise AssertionError  # unreachable
        finally:
            self._leave()

    def parse_bracket_term(self, read: Callable[[], Term]) -> Term:
        """``[]`` or ``[c e1 ... en]``, each element read by ``read``:
        ``parse_atom_term`` in a term, ``parse_value`` in a value."""
        start = self.expect("[")
        if self.peek().kind == "]":
            self.advance()
            return Con("nil", (), offset=start.start)
        name = self.expect("name", "a constructor name")
        args: list[Term] = []
        while self.peek().kind != "]":
            args.append(read())
        self.advance()
        return _constructor_term(name.text, tuple(args), start.start)

    # -- values -------------------------------------------------------------

    def parse_value(self) -> Con:
        """A value: a ``Con`` tree with no variables, one nesting level
        per node; a parenthesis is a pair or a list cell, never a group."""
        self._enter()
        try:
            token = self.peek()
            if token.kind == "number":
                return self._nat_pattern(self._numeral(), token.start)
            if token.kind == "[":
                return self.parse_bracket_term(self.parse_value)
            if token.kind == "(":
                start = self.advance()
                first = self.parse_value()
                name = "cons" if self.peek().kind == ":" else "pair"
                self.expect(":" if name == "cons" else ",", "',' or ':' in a pair or list value")
                second = self.parse_value()
                self.expect(")")
                return Con(name, (first, second), None, start.start)
            self.fail(f"expected a value, found {token.text or 'end of input'!r}", token)
            raise AssertionError  # unreachable
        finally:
            self._leave()


def _constructor_term(name: str, args: tuple[Term, ...], offset: int) -> Term:
    """A constructor applied to terms: a pattern when every argument is
    one, otherwise a ``ConApp`` for the desugarer to take apart."""
    if all(type(arg) is Var or type(arg) is Con for arg in args):
        return Con(name, args, None, offset)
    return ConApp(name, args, offset)


def parse(source: str) -> Program:
    """Parse a whole source file into a sugared program."""
    return _Parser(source).parse_program()


def parse_value(source: str) -> Con:
    """Parse a value literal: constructor syntax, a pair, a list cell
    ``(h : t)``, or a numeral.  Every node carries its start offset."""
    parser = _Parser(source)
    value = parser.parse_value()
    trailing = parser.peek()
    if trailing.kind != "eof":
        parser.fail(f"unexpected input after value: {trailing.text!r}", trailing)
    return value
