"""Pretty printer for Jeopardy programs, terms, patterns, and values.

Output re-parses to a structurally identical tree: pair constructors,
in patterns and terms alike, print as ``(a, b)``, cons cells as
``(h : t)``, ``nil`` as ``[]``, and compiler-generated wildcard
variables as ``_``.  The parser reads ``let`` as a case, so a ``let``
prints as that case.  Cons cells and nested case statements are always
parenthesised, which keeps the printed form unambiguous without
tracking operator context.  A value is a pattern without variables or
labels, so ``pretty_value`` is another name for ``pretty_pattern``.

With ``labels=True`` every labeled node is suffixed with a ``{-n-}``
marker.  That form is for human inspection of analysis reports and is
not meant to be parsed back.
"""

from __future__ import annotations

from .syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    DataDef,
    FunDef,
    FunctionRef,
    GeneralApply,
    Pattern,
    Program,
    Term,
    Var,
    is_wildcard_name,
)


def _lab(label: int | None, labels: bool) -> str:
    return f"{{-{label}-}}" if labels and label is not None else ""


def pretty_funref(ref: FunctionRef) -> str:
    return "(invert " * ref.inversions + ref.name + ")" * ref.inversions


def pretty_pattern(pattern: Pattern, labels: bool = False) -> str:
    """Print a pattern.  The writer keeps its own stack of nodes and
    closing text, so a tree of any depth is safe."""
    out: list[str] = []
    stack: list[Pattern | str] = [pattern]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
            continue
        if kind is Var:
            name = "_" if is_wildcard_name(node.name) and not labels else node.name
            out.append(f"{name}{_lab(node.label, labels)}")
            continue
        # no call when unlabeled: a traced run prints every argument
        suffix = _lab(node.label, labels) if labels else ""
        name, args = node.name, node.args
        if len(args) == 2 and (name == "pair" or name == "cons"):
            out.append("(")
            stack += (")" + suffix, args[1], ", " if name == "pair" else " : ", args[0])
        elif not args:
            out.append(("[]" if name == "nil" else f"[{name}]") + suffix)
        else:
            out.append("[" + name)
            stack.append("]" + suffix)
            for arg in reversed(args):
                stack += (arg, " ")
    return "".join(out)


pretty_value = pretty_pattern


def pretty_term(term: Term, labels: bool = False, indent: int = 0, atom: bool = False) -> str:
    if isinstance(term, (Var, Con)):
        return pretty_pattern(term, labels)
    if isinstance(term, Apply):
        callee = f"{pretty_funref(term.callee)}{_lab(term.label, labels)}"
        text = f"{callee} {pretty_pattern(term.argument, labels)}"
        return f"({text})" if atom else text
    if isinstance(term, GeneralApply):
        argument = pretty_term(term.argument, labels, indent, atom=True)
        text = f"{pretty_funref(term.callee)} {argument}"
        return f"({text})" if atom else text
    if isinstance(term, Case):
        return _pretty_case(term, labels, indent, atom)
    if isinstance(term, ConApp):
        name, args = term.name, term.args
        if len(args) == 2 and name == "pair":
            return f"({pretty_term(args[0], labels, indent)}, {pretty_term(args[1], labels, indent)})"
        atoms = [pretty_term(arg, labels, indent, atom=True) for arg in args]
        if len(args) == 2 and name == "cons":
            return f"({atoms[0]} : {atoms[1]})"
        return f"[{name} {' '.join(atoms)}]"
    raise TypeError(f"unknown term node: {term!r}")  # pragma: no cover


def _pretty_case(term: Case, labels: bool, indent: int, atom: bool) -> str:
    scrutinee = pretty_term(term.scrutinee, labels, indent, atom=isinstance(term.scrutinee, Case))
    ascription = f" : {term.scrutinee_type}" if term.scrutinee_type else ""
    pad = " " * (indent + 2)
    lines = [f"case{_lab(term.label, labels)} {scrutinee}{ascription} of"]
    for pattern, body in term.branches:
        rendered = pretty_term(body, labels, indent + 2, atom=isinstance(body, Case))
        lines.append(f"{pad}; {pretty_pattern(pattern, labels)} -> {rendered}")
    text = "\n".join(lines)
    if atom:
        return f"({text})"
    return text


def pretty_definition(definition: DataDef | FunDef, labels: bool = False) -> str:
    if isinstance(definition, DataDef):
        constructors = []
        for name, components in definition.constructors:
            inner = " ".join((name,) + components)
            constructors.append(f"[{inner}]")
        return f"data {definition.type_name} = {' '.join(constructors)}."
    parameter = pretty_pattern(definition.parameter, labels)
    if definition.parameter_type:
        parameter = f"({parameter} : {definition.parameter_type})"
    elif (
        isinstance(definition.parameter, Con)
        and definition.parameter.name == "cons"
        and len(definition.parameter.args) == 2
    ):
        # already printed as (h : t); the extra parens keep the colon
        # from reading as a parameter ascription
        parameter = f"({parameter})"
    header = f"{definition.name} {parameter}"
    if definition.return_type:
        header += f" : {definition.return_type}"
    if isinstance(definition.body, Case):
        body = pretty_term(definition.body, labels, indent=2)
        return f"{header} =\n  {body}."
    body = pretty_term(definition.body, labels)
    return f"{header} = {body}."


def pretty_program(program: Program, labels: bool = False) -> str:
    parts = [pretty_definition(d, labels) for d in program.definitions]
    parts.append(f"main {pretty_funref(program.main)}.")
    return "\n\n".join(parts) + "\n"
