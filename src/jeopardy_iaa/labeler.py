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

``annotate`` labels with two inner walkers, one for patterns and one
for terms, taking one Python frame per nesting level; the next label is
the size of the index built so far.
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


def annotate(program: Program) -> LabeledProgram:
    """Assign labels to every program point of a core program."""
    index: dict[int, LabelInfo] = {}

    # loops, not comprehensions, here and in term: a comprehension is one
    # Python frame more per nesting level
    def pattern(p: Pattern) -> Pattern:
        label = len(index)
        if type(p) is Var:
            index[label] = LabelInfo(function, "variable", p.span)
            return Var(p.name, label, p.span)
        index[label] = LabelInfo(function, "constructor", p.span)
        args = []
        for arg in p.args:
            args.append(pattern(arg))
        return Con(p.name, tuple(args), label, p.span)

    def term(t: Term) -> Term:
        kind = type(t)
        if kind is Var or kind is Con:
            return pattern(t)
        label = len(index)
        if kind is Apply:
            index[label] = LabelInfo(function, "application", t.span)
            return Apply(t.callee, pattern(t.argument), label, t.span)
        if kind is Case:
            index[label] = LabelInfo(function, "case", t.span)
            scrutinee = term(t.scrutinee)
            branches = []
            for p, b in t.branches:
                branches.append((pattern(p), term(b)))
            return Case(scrutinee, t.scrutinee_type, tuple(branches), label, t.span)
        raise ValueError(f"cannot label sugared term {t!r}; desugar first")

    definitions = []
    functions: dict[str, FunDef] = {}
    for definition in program.definitions:
        if not isinstance(definition, FunDef):
            definitions.append(definition)
            continue
        function = definition.name
        labeled = definition.rebuilt(pattern(definition.parameter), term(definition.body))
        definitions.append(labeled)
        functions[function] = labeled
    # each walker holds itself through its closure; break that cycle, so
    # that reference counting, not the cycle collector, frees what they hold
    del pattern, term
    return LabeledProgram(Program(tuple(definitions), program.main), index, functions)


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

