"""Sugar elimination: rewrites parsed programs into core form.

Core form admits only three term shapes: a pattern, an application of a
function reference to a plain pattern, and a case statement.  The
rewrites are:

* a constructor term with non-pattern arguments hoists each such
  argument into an enclosing case binding a fresh variable, left to
  right with the leftmost case outermost;
* pair and cons sugar reduce to ``pair``/``cons`` constructor terms,
  the empty list to ``[nil]``;
* an application argument that is not a pattern is hoisted the same
  way, ascribed with the callee's declared parameter type when present;
* ``let p : tau = t in t'`` becomes ``case t : tau of p -> t'``;
* a function whose parameter is not a single variable gets a fresh
  variable parameter and a case on it, so every core function has a
  single variable parameter.

Fresh variables are named ``w1``, ``w2``, ... per definition, skipping
every identifier that occurs anywhere in the program, so they can never
capture and the result still parses.  When a program uses pair/cons/nil
without declaring them, a data definition for the missing constructors
is appended; re-running the desugarer on its own output is the
identity.
"""

from __future__ import annotations

from dataclasses import replace

from .syntax import (
    Apply,
    BUILTIN_CONSTRUCTORS,
    Case,
    Con,
    ConApp,
    ConsTerm,
    DataDef,
    FunDef,
    FunctionRef,
    GeneralApply,
    LetTerm,
    Pattern,
    PatternTerm,
    Program,
    SUGAR_TERM_TYPES,
    Term,
    TupleTerm,
    Var,
    data_defs,
    fun_defs,
    nodes,
    underlying_name,
)


class DesugarError(Exception):
    """A sugar form clashes with a user declaration it depends on."""


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
        self.declared: dict[str, tuple[int, tuple[str | None, ...]]] = {}
        for definition in data_defs(program):
            for con_name, components in definition.constructors:
                self.declared.setdefault(con_name, (len(components), components))
        self.needed_builtins: set[str] = set()
        self.fresh: _Fresh | None = None

    # -- builtin bookkeeping ------------------------------------------------

    def _require_builtin(self, name: str) -> None:
        arity = BUILTIN_CONSTRUCTORS[name]
        declared = self.declared.get(name)
        if declared is None:
            self.needed_builtins.add(name)
        elif declared[0] != arity:
            raise DesugarError(
                f"'{name}' sugar needs a {arity}-ary constructor, but "
                f"'{name}' is declared with arity {declared[0]}"
            )

    def _component_types(self, con_name: str) -> tuple[str | None, ...]:
        declared = self.declared.get(con_name)
        if declared is not None:
            return declared[1]
        return (None,) * BUILTIN_CONSTRUCTORS.get(con_name, 0)

    # -- rewriting ----------------------------------------------------------

    def run(self) -> Program:
        definitions = []
        for definition in self.program.definitions:
            if isinstance(definition, DataDef):
                definitions.append(definition)
                continue
            definitions.append(self.desugar_fun_def(definition))
        for pattern_con in ("pair", "cons", "nil"):
            # patterns collapsed at parse time also rely on the builtins
            if pattern_con not in self.declared and pattern_con in self.mentioned:
                self.needed_builtins.add(pattern_con)
        if self.needed_builtins:
            type_name = "builtin"
            suffix = 1
            while type_name in self.used:
                suffix += 1
                type_name = f"builtin{suffix}"
            constructors = tuple(
                (name, ((type_name,) * BUILTIN_CONSTRUCTORS[name]))
                for name in sorted(self.needed_builtins)
            )
            definitions.append(DataDef(type_name, constructors))
        return Program(tuple(definitions), self.program.main)

    def desugar_fun_def(self, definition: FunDef) -> FunDef:
        self.fresh = _Fresh(self.used)
        parameter = definition.parameter
        body = definition.body
        if not isinstance(parameter, Var):
            fresh = self.fresh.next()
            body = Case(
                PatternTerm(fresh),
                definition.parameter_type,
                ((parameter, body),),
            )
            parameter = fresh
        body = self.desugar_term(body)
        return replace(definition, parameter=parameter, body=body)

    def desugar_term(self, term: Term) -> Term:
        if isinstance(term, PatternTerm):
            return term
        if isinstance(term, Apply):
            return term
        if isinstance(term, Case):
            scrutinee = self.desugar_term(term.scrutinee)
            branches = tuple((p, self.desugar_term(b)) for p, b in term.branches)
            return replace(term, scrutinee=scrutinee, branches=branches)
        if isinstance(term, LetTerm):
            return Case(
                self.desugar_term(term.bound),
                term.type_name,
                ((term.pattern, self.desugar_term(term.body)),),
                span=term.span,
            )
        if isinstance(term, GeneralApply):
            return self._desugar_application(term.callee, term.argument)
        if isinstance(term, TupleTerm):
            self._require_builtin("pair")
            return self.desugar_constructor("pair", (term.first, term.second))
        if isinstance(term, ConsTerm):
            self._require_builtin("cons")
            return self.desugar_constructor("cons", (term.head, term.tail))
        if isinstance(term, ConApp):
            return self.desugar_constructor(term.name, term.args)
        raise TypeError(f"unknown term node: {term!r}")  # pragma: no cover

    def _desugar_application(self, callee: FunctionRef, argument: Term) -> Term:
        assert self.fresh is not None
        desugared = self.desugar_term(argument)
        if isinstance(desugared, PatternTerm):
            return Apply(callee, desugared.pattern)
        fresh = self.fresh.next()
        return Case(
            desugared,
            self.fun_types.get(underlying_name(callee)),
            ((fresh, Apply(callee, fresh)),),
        )

    def desugar_constructor(self, name: str, args: tuple[Term, ...]) -> Term:
        """Hoist non-pattern constructor arguments into nested cases.

        Arguments already in pattern form stay in place; the leftmost
        hoisted argument's case ends up outermost.
        """
        assert self.fresh is not None
        desugared = [self.desugar_term(arg) for arg in args]
        component_types = self._component_types(name)
        hoisted: list[tuple[Var, Term, str | None]] = []
        final_args: list[Pattern] = []
        for index, arg in enumerate(desugared):
            if isinstance(arg, PatternTerm):
                final_args.append(arg.pattern)
            else:
                fresh = self.fresh.next()
                ascription = component_types[index] if index < len(component_types) else None
                hoisted.append((fresh, arg, ascription))
                final_args.append(fresh)
        result: Term = PatternTerm(Con(name, tuple(final_args)))
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
