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
capture and the result still parses: each definition draws them from a
new generator.  When a program uses pair/cons/nil without declaring
them, a data definition for the missing constructors is appended;
re-running the desugarer on its own output is the identity.

``desugar_program`` keeps its tables as locals and rewrites with one
inner walker, which takes one Python frame per nesting level, as
``validate`` and ``annotate`` do.

Pair, list and ``let`` sugar never reach this module: the parser reads
them as the constructor terms and cases they stand for.
"""

from __future__ import annotations

from itertools import count

from .syntax import (
    BUILTIN_CONSTRUCTORS,
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    Program,
    Term,
    Var,
    constructor_table,
    fun_defs,
    nodes,
)


def desugar_program(program: Program) -> Program:
    """Rewrite a validated program into core form."""
    # every identifier the program uses, and the constructor names that
    # its function definitions mention
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
    constructors, _ = constructor_table(program)
    fun_types = {fd.name: fd.parameter_type for fd in fun_defs(program)}

    def term(t: Term) -> Term:
        # loops, not comprehensions, and no helper call: one Python frame
        # per nesting level
        kind = type(t)
        if kind is Var or kind is Con:
            return t
        if kind is Case:
            scrutinee = term(t.scrutinee)
            branches = []
            for p, b in t.branches:
                branches.append((p, term(b)))
            return Case(scrutinee, t.scrutinee_type, tuple(branches), t.label, t.offset)
        if kind is Apply:
            argument = t.argument
            if type(argument) is Var or type(argument) is Con:
                return t
            args, ascriptions = (argument,), (fun_types.get(t.callee.name),)
        elif kind is ConApp:
            args, ascriptions = t.args, constructors.get(t.name, (None,) * len(t.args))
        else:  # pragma: no cover - exhaustive over Term
            raise TypeError(f"unknown term node: {t!r}")
        # desugar every argument, then bind each one that is not a pattern
        # to a fresh variable, the leftmost argument's case outermost
        desugared = []
        for arg in args:
            desugared.append(term(arg))
        hoisted = []
        patterns = []
        for arg, ascription in zip(desugared, ascriptions):
            if type(arg) is Var or type(arg) is Con:
                patterns.append(arg)
            else:
                variable = next(fresh)
                hoisted.append((variable, arg, ascription))
                patterns.append(variable)
        if kind is Apply:
            # the rebuilt application starts where the source application
            # did, so a runtime error there is located
            result = Apply(t.callee, patterns[0], offset=t.offset)
        else:
            result = Con(t.name, tuple(patterns))
        for variable, arg, ascription in reversed(hoisted):
            result = Case(arg, ascription, ((variable, result),))
        return result

    definitions = []
    for definition in program.definitions:
        if isinstance(definition, DataDef):
            definitions.append(definition)
            continue
        fresh = (Var(name) for name in map("w{}".format, count(1)) if name not in used)
        parameter = definition.parameter
        body = definition.body
        if not isinstance(parameter, Var):
            variable = next(fresh)
            body = Case(variable, definition.parameter_type, ((parameter, body),), offset=parameter.offset)
            parameter = variable
        definitions.append(definition.rebuilt(parameter, term(body)))
    # the walker holds itself through its closure; break that cycle, so
    # that reference counting, not the cycle collector, frees what it holds
    del term
    # a mentioned pair/cons/nil the program does not declare
    builtins = sorted(mentioned - constructors.keys())
    if builtins:
        type_name = "builtin"
        suffix = 1
        while type_name in used:
            suffix += 1
            type_name = f"builtin{suffix}"
        components = tuple((name, (type_name,) * BUILTIN_CONSTRUCTORS[name]) for name in builtins)
        definitions.append(DataDef(type_name, components))
    return Program(tuple(definitions), program.main)

