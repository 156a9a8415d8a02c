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
arguments, and writes a node they share once.  Terms, patterns and
values run one node loop with a stack of its own, so a tree of any depth
is safe.

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


class _Parens:
    """A term that its parent prints in parentheses."""

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        self.term = term


def _atom(term: Term) -> Term | _Parens:
    """``term`` as an argument of a list cell, ``[c …]`` or application."""
    kind = type(term)
    return _Parens(term) if kind is Apply or kind is Case else term


def _write(
    nodes: Iterable[Term],
    labels: bool,
    memo: dict[int, tuple[Con, int, int]] | None,
    indent: int = 0,
) -> Iterator[str]:
    """The one node loop behind every printer of terms, patterns and values.

    ``indent`` is the column case branches are indented from; an int on
    the stack sets it for a case's branch bodies and back after them.
    ``memo`` maps the ``id`` of each composite node written so far to the
    node itself, which keeps the ``id`` from being reused, and the range of
    fragments its text takes up in ``out``; it is ``None`` when there is
    nothing to share.  A node met again appends that text as one fragment,
    which becomes the node's range; ``kept`` counts the text joined for
    that.  ``Con`` is tested right after the loop's own markers: a value is
    all ``Con``, and ``run`` prints every traced call's argument here.
    """
    out: list[str] = []
    kept = longest = 0
    for root in nodes:
        first = len(out)
        stack: list[Term | _Parens | str | int | tuple[Con, int]] = [root]
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
            if kind is Con:
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
            elif kind is ConApp:
                name, args, suffix = node.name, node.args, ""
                if len(args) != 2 or name != "pair":
                    args = [_atom(arg) for arg in args]
            else:
                if kind is Var:
                    name = "_" if is_wildcard_name(node.name) and not labels else node.name
                    out.append(f"{name}{_lab(node.label, labels)}")
                elif kind is int:
                    indent = node
                elif kind is _Parens:
                    out.append("(")
                    stack += (")", node.term)
                elif kind is Apply:
                    out.append(f"{pretty_funref(node.callee)}{_lab(node.label, labels)} ")
                    stack.append(_atom(node.argument))
                elif kind is Case:
                    pad = "\n" + " " * (indent + 2) + "; "
                    stack.append(indent)
                    for pattern, body in reversed(node.branches):
                        body = _Parens(body) if type(body) is Case else body
                        stack += (body, " -> ", pattern, pad)
                    ascription = f" : {node.scrutinee_type}" if node.scrutinee_type else ""
                    scrutinee = node.scrutinee
                    if type(scrutinee) is Case:
                        scrutinee = _Parens(scrutinee)
                    stack += (indent + 2, f"{ascription} of", scrutinee)
                    out.append(f"case{_lab(node.label, labels)} ")
                else:
                    raise TypeError(f"unknown node: {node!r}")  # pragma: no cover
                continue
            # a Con or a ConApp with arguments
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


def pretty_definition(definition: DataDef | FunDef, labels: bool = False) -> str:
    if isinstance(definition, DataDef):
        constructors = []
        for name, components in definition.constructors:
            inner = " ".join((name,) + components)
            constructors.append(f"[{inner}]")
        return f"data {definition.type_name} = {' '.join(constructors)}."
    # a case body starts on a line of its own, its branches indented from 2
    indent = 2 if isinstance(definition.body, Case) else 0
    parameter, body = _write((definition.parameter, definition.body), labels, None, indent)
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
    return f"{header} =\n  {body}." if indent else f"{header} = {body}."


def pretty_program(program: Program, labels: bool = False) -> str:
    parts = [pretty_definition(d, labels) for d in program.definitions]
    parts.append(f"main {pretty_funref(program.main)}.")
    return "\n\n".join(parts) + "\n"
