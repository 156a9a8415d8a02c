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
ascriptions are not program points.  ``annotate`` is where core form is
checked: a ``ConApp``, or an ``Apply`` whose argument is not a ``Var``
or ``Con``, is sugar, and labeling it raises ``ValueError``.

``annotate`` labels patterns and terms with one walker, ``label``,
taking one Python frame per nesting level.  The next label is the
length of the index, in which a node with children takes its slot
before they take theirs, so the index lists the labels in order.
"""

from __future__ import annotations

from .syntax import (
    Apply,
    Case,
    Con,
    FunDef,
    Pattern,
    Program,
    Term,
    Var,
    record,
)


@record()
class LabeledProgram:
    """A labeled core program.  ``index`` maps each label, in order, to
    the node of ``program`` that carries it.  ``functions`` holds the
    labeled definitions in source order: a function's labels run from
    its parameter's label up to the next function's, or to the end."""

    program: Program
    index: dict[int, Pattern | Term]
    functions: dict[str, FunDef]

    @property
    def label_count(self) -> int:
        return len(self.index)


def annotate(program: Program) -> LabeledProgram:
    """Assign labels to every program point of a core program."""
    index: dict[int, Pattern | Term] = {}

    # loops, not comprehensions: a comprehension is one Python frame more
    # per nesting level
    def label(t: Term) -> Term:
        number = len(index)
        index[number] = None  # taken before the children's labels
        kind = type(t)
        if kind is Var:
            node = Var(t.name, number, t.offset)
        elif kind is Con:
            args = []
            for arg in t.args:
                args.append(label(arg))
            node = Con(t.name, tuple(args), number, t.offset)
        elif kind is Apply and (type(t.argument) is Var or type(t.argument) is Con):
            node = Apply(t.callee, label(t.argument), number, t.offset)
        elif kind is Case:
            scrutinee = label(t.scrutinee)
            branches = []
            for p, b in t.branches:
                branches.append((label(p), label(b)))
            node = Case(scrutinee, t.scrutinee_type, tuple(branches), number, t.offset)
        else:
            raise ValueError(f"cannot label sugared term {t!r}; desugar first")
        index[number] = node
        return node

    definitions = []
    functions: dict[str, FunDef] = {}
    for definition in program.definitions:
        if not isinstance(definition, FunDef):
            definitions.append(definition)
            continue
        labeled = definition.rebuilt(label(definition.parameter), label(definition.body))
        definitions.append(labeled)
        functions[definition.name] = labeled
    # the walker holds itself through its closure; break that cycle, so
    # that reference counting, not the cycle collector, frees what it holds
    del label
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

