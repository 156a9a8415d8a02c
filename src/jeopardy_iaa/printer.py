"""Pretty printer for Jeopardy programs, terms, patterns, and values.

Output re-parses to a structurally identical tree: pair constructors,
in patterns and terms alike, print as ``(a, b)``, cons cells as
``(h : t)``, ``nil`` as ``[]``, and compiler-generated wildcard
variables as ``_``.  The parser reads ``let`` as a case, so a ``let``
prints as that case.  Cons cells and nested case statements are always
parenthesised, which keeps the printed form unambiguous without
tracking operator context.  A value is a pattern without variables or
labels, so ``pretty_value`` is another name for ``pretty_pattern``;
``pretty_values`` prints a sequence of values, such as a call trace's
arguments, and writes a node they share once.  The three run one node
loop.  Terms have a writer of their own.  Both writers keep their own
stack, so a tree of any depth is safe.

With ``labels=True`` every labeled node is suffixed with a ``{-n-}``
marker.  That form is for human inspection of analysis reports and is
not meant to be parsed back.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
    """Print a pattern."""
    return next(_write((pattern,), labels, None))


pretty_value = pretty_pattern


def pretty_values(values: Iterable[Con]) -> Iterator[str]:
    """Print each value of a sequence in turn, as ``pretty_value`` would.

    A node met again, in the same value or a later one, costs one
    fragment: its earlier text is reused, not written again.  A call trace
    shares most of each argument with earlier ones, so its Python-level
    work grows with its distinct nodes, not its printed ones.  The text
    kept for reuse is bounded by ``KEPT_LINES``.
    """
    return _write(values, False, {})


# The texts that pretty_values joins for reuse are parts of the lines it
# prints, at most one line's worth per line.  Once they add up to more than
# this many of its longest lines, it forgets every node: what it keeps stays
# below KEPT_LINES + 1 of its longest lines, and at most one value in
# KEPT_LINES + 1 is printed without the text of the values before it.
KEPT_LINES = 64


def _write(
    patterns: Iterable[Pattern], labels: bool, memo: dict[int, tuple[Con, int, int]] | None
) -> Iterator[str]:
    """The one node loop behind every pattern and value printer.

    ``memo`` maps the ``id`` of each composite node written so far to the
    node itself, which keeps the ``id`` from being reused, and the range
    of fragments its text takes up in ``out``; it is ``None`` when there
    is nothing to share.  A node met again appends that text as one
    fragment, which becomes the node's range; ``kept`` counts the text
    joined for that.
    """
    out: list[str] = []
    kept = longest = 0
    for pattern in patterns:
        first = len(out)
        stack: list[Pattern | str | tuple[Con, int]] = [pattern]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is str:
                out.append(node)
                continue
            if kind is tuple:
                # the end of a composite node's text
                node, start = node
                memo[id(node)] = (node, start, len(out))
                continue
            if kind is Var:
                name = "_" if is_wildcard_name(node.name) and not labels else node.name
                out.append(f"{name}{_lab(node.label, labels)}")
                continue
            # no call when unlabeled: a traced run prints every argument
            suffix = _lab(node.label, labels) if labels else ""
            name, args = node.name, node.args
            if not args:
                out.append(("[]" if name == "nil" else f"[{name}]") + suffix)
                continue
            if memo is not None:
                seen = memo.get(id(node))
                if seen is not None:
                    _, start, end = seen
                    memo[id(node)] = (node, len(out), len(out) + 1)
                    if end - start == 1:
                        out.append(out[start])
                    else:
                        text = "".join(out[start:end])
                        kept += len(text)
                        out.append(text)
                    continue
                stack.append((node, len(out)))
            if len(args) == 2 and (name == "pair" or name == "cons"):
                out.append("(")
                stack += (")" + suffix, args[1], ", " if name == "pair" else " : ", args[0])
            else:
                out.append("[" + name)
                stack.append("]" + suffix)
                for arg in reversed(args):
                    stack += (arg, " ")
        text = "".join(out[first:])
        yield text
        if memo is not None:
            longest = max(longest, len(text))
            if kept > KEPT_LINES * longest:
                out.clear()
                memo.clear()
                kept = 0


def pretty_term(term: Term, labels: bool = False, indent: int = 0) -> str:
    """Print a term; ``indent`` is the column its case branches are
    indented from."""
    out: list[str] = []
    stack: list[str | tuple[Term, int, bool]] = [(term, indent, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        term, indent, atom = item
        kind = type(term)
        if kind is Var or kind is Con:
            out.append(pretty_pattern(term, labels))
            continue
        if kind is ConApp:
            name, args = term.name, term.args
            if len(args) == 2 and name == "pair":
                out.append("(")
                stack += (")", (args[1], indent, False), ", ", (args[0], indent, False))
            elif len(args) == 2 and name == "cons":
                out.append("(")
                stack += (")", (args[1], indent, True), " : ", (args[0], indent, True))
            else:
                out.append("[" + name)
                stack.append("]")
                for arg in reversed(args):
                    stack += ((arg, indent, True), " ")
            continue
        if atom:
            out.append("(")
            stack.append(")")
        if kind is Apply:
            callee = f"{pretty_funref(term.callee)}{_lab(term.label, labels)}"
            out.append(f"{callee} {pretty_pattern(term.argument, labels)}")
        elif kind is GeneralApply:
            out.append(f"{pretty_funref(term.callee)} ")
            stack.append((term.argument, indent, True))
        elif kind is Case:
            pad = "\n" + " " * (indent + 2) + "; "
            for pattern, body in reversed(term.branches):
                branch = f"{pad}{pretty_pattern(pattern, labels)} -> "
                stack += ((body, indent + 2, type(body) is Case), branch)
            ascription = f" : {term.scrutinee_type}" if term.scrutinee_type else ""
            stack += (f"{ascription} of", (term.scrutinee, indent, type(term.scrutinee) is Case))
            out.append(f"case{_lab(term.label, labels)} ")
        else:
            raise TypeError(f"unknown term node: {term!r}")  # pragma: no cover
    return "".join(out)


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
