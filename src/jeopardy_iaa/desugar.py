"""Sugar elimination: rewrites parsed programs into core form.

Core form admits only three term shapes: a pattern (a ``Var`` or
``Con``, standing as a term by itself), an application of a function
reference to a plain pattern, and a case statement.  The rewrites are:

* a constructor term with non-pattern arguments hoists each such
  argument into an enclosing case binding a fresh variable, left to
  right with the leftmost case outermost, ascribed with the
  constructor's declared component type when present;
* an application argument that is not a pattern is hoisted the same
  way, ascribed with the callee's declared parameter type when present;
* a function whose parameter is not a single variable gets a fresh
  variable parameter and a case on it, so every core function has a
  single variable parameter.

Fresh variables are named ``w1``, ``w2``, ... per definition, skipping
every identifier that occurs anywhere in the program, so they can never
capture and the result still parses.  When a program uses pair/cons/nil
without declaring them, a data definition for the missing constructors
is appended; re-running the desugarer on its own output is the
identity.

Pair, list and ``let`` sugar never reach this module: the parser reads
them as the constructor terms and cases they stand for.
"""

from __future__ import annotations

from typing import Callable

from .syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    FunDef,
    GeneralApply,
    Pattern,
    Program,
    SUGAR_TERM_TYPES,
    Term,
    Var,
    constructor_table,
    fun_defs,
    nodes,
)


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
            body = Case(fresh, definition.parameter_type, ((parameter, body),), span=parameter.span)
            parameter = fresh
        return definition.rebuilt(parameter, self.desugar_term(body))

    def desugar_term(self, term: Term) -> Term:
        if isinstance(term, (Var, Con, Apply)):
            return term
        if isinstance(term, Case):
            scrutinee = self.desugar_term(term.scrutinee)
            branches = tuple((p, self.desugar_term(b)) for p, b in term.branches)
            return Case(scrutinee, term.scrutinee_type, branches, term.label, term.span)
        if isinstance(term, GeneralApply):
            # the rebuilt application keeps the source application's span,
            # so a runtime error there is located
            callee, span = term.callee, term.span
            return self._hoisted(
                (term.argument,),
                (self.fun_types.get(callee.name),),
                lambda argument: Apply(callee, argument, span=span),
            )
        if isinstance(term, ConApp):
            return self.desugar_constructor(term.name, term.args)
        raise TypeError(f"unknown term node: {term!r}")  # pragma: no cover

    def desugar_constructor(self, name: str, args: tuple[Term, ...]) -> Term:
        return self._hoisted(
            args, self.constructors[name].components, lambda *patterns: Con(name, patterns)
        )

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


def desugar_program(program: Program) -> Program:
    """Rewrite a validated program into core form."""
    return _Desugarer(program).run()


def assert_core(program: Program) -> None:
    """Raise if any sugared node survived desugaring."""
    for definition in fun_defs(program):
        if not isinstance(definition.parameter, Var):
            raise AssertionError(f"function '{definition.name}' still has a pattern parameter")
        if any(isinstance(node, SUGAR_TERM_TYPES) for node in nodes(definition.body)):
            raise AssertionError(f"function '{definition.name}' still contains sugar")
