"""The analysis rules on frozensets of labels: the reference that the
tests compare the package's mask-based analysis against.

Copied verbatim from ``src/jeopardy_iaa`` at commit 2342490, where
``analysis.py`` shipped every transfer rule twice: on label masks, as it
still does, and on frozensets, as here.  ``term_down``, ``term_up``,
``_definition``, ``call``, ``seed_configurations`` and their aliases come
from ``analysis.py``; ``labels_of``, ``_POINT_KINDS`` and
``body_root_label`` from ``labeler.py``.  Only the imports differ: the
records and the exception are the package's own, so that a
configuration here equals one that the package yields.

``call`` is the one-step rule, built on two body walks.  Walking a body
in the conventional direction (``term_down``) is direct: a pattern calls
nothing, an application yields one configuration, and a case passes the
scrutinee's and branch pattern's labels as extra availability into each
branch.  Walking against the conventional direction (``term_up``) starts
from the result instead, so the walk returns pairs of (configurations,
labels known "from the future") per inverse path: a result pattern makes
its labels available, an application flips the callee and consumes the
callee's body root as its argument, and a case analyzes branch bodies
before the scrutinee.  ``term_up`` walks each scrutinee once per body
path.
"""

from __future__ import annotations

from jeopardy_iaa.analysis import CallConfiguration, UndefinedCalleeError
from jeopardy_iaa.labeler import LabeledProgram
from jeopardy_iaa.syntax import (
    Apply,
    Case,
    Con,
    FunDef,
    FunctionRef,
    INPUT,
    OUTPUT,
    Pattern,
    TOP,
    Term,
    Var,
    flip,
    nodes,
)

# ---------------------------------------------------------------------------
# From labeler.py


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


def body_root_label(term: Term) -> int:
    """The label of a labeled core term's root program point."""
    if term.label is None:
        raise ValueError(f"unlabeled term node: {term!r}")
    return term.label


# ---------------------------------------------------------------------------
# From analysis.py


LabelSet = frozenset  # of Label

ConfigurationSet = frozenset  # of CallConfiguration

_EMPTY: frozenset = frozenset()


def term_down(caller: str, implicit: LabelSet, term: Term) -> ConfigurationSet:
    """Configurations reachable from a term in the conventional direction.

    A pattern contains no application.  An application yields the single
    configuration for its call site; its direction is not stored, being
    recomputable from the callee reference.  A case contributes its
    scrutinee's configurations unchanged and each branch body's with the
    scrutinee's and branch pattern's labels added to the availability.
    """
    if isinstance(term, (Var, Con)):
        return _EMPTY
    if isinstance(term, Apply):
        config = CallConfiguration(
            caller, term.callee, labels_of(term.argument), frozenset(implicit)
        )
        return frozenset((config,))
    if isinstance(term, Case):
        result = set(term_down(caller, implicit, term.scrutinee))
        scrutinee_labels = labels_of(term.scrutinee)
        for pattern, body in term.branches:
            branch_implicit = frozenset(implicit) | scrutinee_labels | labels_of(pattern)
            result |= term_down(caller, branch_implicit, body)
        return frozenset(result)
    raise ValueError(f"cannot analyze sugared term {term!r}")


UpResult = frozenset  # of (ConfigurationSet, LabelSet) pairs


def term_up(
    caller: str, implicit: LabelSet, term: Term, program: LabeledProgram
) -> UpResult:
    """Configurations and future-available labels for the inverse direction.

    Each element pairs the configurations reached on one inverse path
    through the term with the labels whose values are known once the
    term's result is known.
    """
    if isinstance(term, (Var, Con)):
        return frozenset(((_EMPTY, frozenset(implicit) | labels_of(term)),))
    if isinstance(term, Apply):
        callee_def = _definition(program, term.callee.name)
        config = CallConfiguration(
            caller,
            flip(term.callee),
            frozenset((body_root_label(callee_def.body),)),
            frozenset(implicit),
        )
        available = (
            frozenset(implicit) | labels_of(term.argument) | {body_root_label(term)}
        )
        return frozenset(((frozenset((config,)), available),))
    if isinstance(term, Case):
        results: set[tuple[ConfigurationSet, LabelSet]] = set()
        own = {body_root_label(term)}
        for pattern, body in term.branches:
            for body_configs, body_available in term_up(caller, implicit, body, program):
                scrutinee_implicit = body_available | labels_of(pattern)
                for head_configs, head_available in term_up(
                    caller, scrutinee_implicit, term.scrutinee, program
                ):
                    results.add(
                        (body_configs | head_configs, frozenset(own) | head_available)
                    )
        return frozenset(results)
    raise ValueError(f"cannot analyze sugared term {term!r}")


def _definition(program: LabeledProgram, name: str) -> FunDef:
    definition = program.functions.get(name)
    if definition is None:
        raise UndefinedCalleeError(f"function '{name}' is not defined")
    return definition


def call(config: CallConfiguration, program: LabeledProgram) -> ConfigurationSet:
    """All configurations reachable by performing one configured call.

    The availability entering the callee is the caller-side argument and
    implicit labels minus every label belonging to the callee itself;
    whatever the callee contributes on the path to an inner call site is
    re-accumulated by the body walk.
    """
    definition = _definition(program, config.callee.name)
    own_labels = labels_of(definition.parameter) | labels_of(definition.body)
    entering = (config.implicit_labels | config.argument_labels) - own_labels
    name = definition.name
    if not config.callee.backward:
        return term_down(name, entering, definition.body)
    configs: set[CallConfiguration] = set()
    for reached, _available in term_up(name, entering, definition.body, program):
        configs |= reached
    return frozenset(configs)


def seed_configurations(program: LabeledProgram) -> tuple[CallConfiguration, CallConfiguration]:
    """The two top-level entry configurations: forward and backward."""
    main = program.program.main
    forward = CallConfiguration(TOP, main, frozenset((INPUT,)), _EMPTY)
    # main wrapped once more, not flipped: the report orders the two entry
    # rows by marker count, the forward one first
    backward = CallConfiguration(
        TOP, FunctionRef(main.name, main.inversions + 1), frozenset((OUTPUT,)), _EMPTY
    )
    return forward, backward
