"""Program-point labeling for core programs.

Every pattern and term node of a core program gets a unique integer
label, counting from 0 and never resetting: definitions in source
order, within a function the parameter pattern first and then the body,
each traversed pre-order with children left to right.  Labeling is a
pure function of the core tree, so two runs agree exactly.

Pre-order numbering makes the labels of every subtree one interval,
from the node's own label to the label at the end of its rightmost
spine, and a function's own labels one interval from its parameter to
the end of its body.  ``label_mask`` rests on that: a node's labels as
the bits of an int, built without walking the subtree.

A pattern used as a term is labeled as the pattern it is, so it has no
program point beyond the pattern's own.  Function references and type
ascriptions are not program points.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import (
    Apply,
    Case,
    Con,
    FunDef,
    Pattern,
    Program,
    Span,
    Term,
    Var,
    nodes,
    record,
)


class LabelInfo(NamedTuple):
    """What a label points at: enclosing function and node kind."""

    function: str
    kind: str  # 'variable' | 'constructor' | 'application' | 'case'
    span: Span | None = None


@record()
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
        if type(p) is Var:
            return Var(p.name, self._next(function, "variable", p.span), p.span)
        label = self._next(function, "constructor", p.span)
        args = tuple([self.pattern(arg, function) for arg in p.args])
        return Con(p.name, args, label, p.span)

    def term(self, t: Term, function: str) -> Term:
        kind = type(t)
        if kind is Var or kind is Con:
            return self.pattern(t, function)
        if kind is Apply:
            label = self._next(function, "application", t.span)
            return Apply(t.callee, self.pattern(t.argument, function), label, t.span)
        if kind is Case:
            label = self._next(function, "case", t.span)
            scrutinee = self.term(t.scrutinee, function)
            branches = tuple(
                [(self.pattern(p, function), self.term(b, function)) for p, b in t.branches]
            )
            return Case(scrutinee, t.scrutinee_type, branches, label, t.span)
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
        labeled = definition.rebuilt(parameter, body)
        definitions.append(labeled)
        functions[definition.name] = labeled
    labeled_program = Program(tuple(definitions), program.main)
    return LabeledProgram(labeled_program, labeler.index, functions)


# node types that are program points, named as in error messages
_POINT_KINDS = {Var: "pattern", Con: "pattern", Apply: "application", Case: "case"}


def labels_of(node: Pattern | Term) -> frozenset[int]:
    """All labels on a node and its descendants.

    Requires a labeled core tree; an unlabeled or sugared node is an
    error rather than silently contributing nothing.
    """
    if type(node) is Var and node.label is not None:
        return frozenset((node.label,))
    out: list[int] = []
    for n in nodes(node):
        kind = type(n)
        if kind not in _POINT_KINDS:
            raise ValueError(f"cannot collect labels from sugared term {n!r}")
        if n.label is None:
            raise ValueError(f"unlabeled {_POINT_KINDS[kind]} node: {n!r}")
        out.append(n.label)
    return frozenset(out)


def label_mask(node: Pattern | Term) -> int:
    """The labels of a labeled core node and its descendants as the bits
    of an int: label *i* is bit *i*.  They are one interval, from the
    node's label to the label that ends its rightmost spine."""
    last = node
    while True:
        kind = type(last)
        if kind is Case:
            last = last.branches[-1][1]
        elif kind is Apply:
            last = last.argument
        elif kind is Con and last.args:
            last = last.args[-1]
        else:
            return (2 << last.label) - (1 << node.label)


def body_root_label(term: Term) -> int:
    """The label of a labeled core term's root program point."""
    if term.label is None:
        raise ValueError(f"unlabeled term node: {term!r}")
    return term.label
