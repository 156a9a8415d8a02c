"""Abstract syntax for the Jeopardy invertible functional language.

Jeopardy is a first-order functional language with algebraic data types,
case discrimination, and explicit function inversion written
``(invert f)``.  This module defines the trees shared by every pipeline
stage:

* patterns and terms, in both sugared (as parsed) and core
  (post-desugaring) form,
* function references: a defined function's name and the number of
  ``(invert ...)`` markers around it, whose parity is the direction a
  call through the reference runs in,
* data and function definitions and whole programs,
* ``nodes``, the one pre-order traversal of pattern and term trees that
  every read-only walk is built on,
* ``validate``, the well-formedness check every downstream stage
  assumes has passed.

All nodes are immutable records (see ``record``), safe to share across
threads once built.  Source spans never participate in equality, so
structural comparison is layout-independent.
"""

from __future__ import annotations

from typing import Iterator, Union

# Program points carry integer labels.  The two symbolic labels stand for
# the values supplied by whoever runs the program: its input when running
# forward, its output when running backward.  They appear only in
# analysis results, never on syntax nodes.
Label = Union[int, str]
INPUT: Label = "input"
OUTPUT: Label = "output"

# Reserved caller name for the top level (the entity that runs the
# program).  Not a parseable identifier, so it cannot clash with user
# function names.
TOP = "⊤"

# Constructors presumed by tuple and list sugar; injected into a program
# by the desugarer when used but not declared.
BUILTIN_CONSTRUCTORS: dict[str, int] = {"pair": 2, "cons": 2, "nil": 0}

KEYWORDS = frozenset({"data", "main", "case", "of", "invert", "let", "in"})

# Wildcards and other compiler-generated variables use names starting
# with an underscore, which the lexer refuses in user identifiers.
WILDCARD_PREFIX = "_"


def is_wildcard_name(name: str) -> bool:
    return name.startswith(WILDCARD_PREFIX)


def _immutable(self, name: str, value: object = None) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def record(*hidden: str):
    """Class decorator for an immutable record of annotated fields, defaults
    last.  ``__slots__`` names the fields in order.  ``==`` holds only within
    one class; it, ``hash`` and ``repr`` skip the fields named in ``hidden``.
    ``__init__``, ``==``, ``hash`` and ``repr`` are compiled once per class;
    ``__init__`` stores each field through its slot's own setter: a ``Con``
    is built in about a quarter less time than through
    ``object.__setattr__`` (CPython 3.11)."""

    def make(cls: type) -> type:
        fields = tuple(cls.__annotations__)
        shown = [name for name in fields if name not in hidden]
        namespace = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
        # the defaults move out of the class, where they would clash with the slots
        scope = {f"{name}_": namespace.pop(name) for name in fields if name in namespace}
        params = ", ".join(f"{name}={name}_" if f"{name}_" in scope else name for name in fields)
        mine, theirs = ("".join(f"{side}.{name}," for name in shown) for side in ("self", "other"))
        values = ", ".join(f"{name}={{self.{name}!r}}" for name in shown)
        exec(
            f"def __init__(self, {params}):\n"
            + "".join(f"    _set_{name}(self, {name})\n" for name in fields)
            + "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
            f"def __hash__(self):\n    return hash(({mine}))\n"
            f"def __repr__(self):\n    return f'{{type(self).__qualname__}}({values})'\n",
            scope,
        )
        namespace.update((name, scope[name]) for name in ("__init__", "__eq__", "__hash__", "__repr__"))
        namespace.update(__slots__=fields, __setattr__=_immutable, __delattr__=_immutable)
        made = type(cls)(cls.__name__, cls.__bases__, namespace)
        # the slots exist only now; __init__ finds their setters when called
        scope.update((f"_set_{name}", vars(made)[name].__set__) for name in fields)
        return made

    return make


@record()
class Span:
    """Byte-offset range into the source text."""

    start: int
    end: int


# ---------------------------------------------------------------------------
# Patterns


@record("span")
class Var:
    """Pattern variable.  Wildcards are freshened to reserved ``_N`` names."""

    name: str
    label: int | None = None
    span: Span | None = None


@record("span")
class Con:
    """Constructor pattern ``[c p1 ... pn]``.  A runtime value is a ``Con``
    tree with no variables or labels."""

    name: str
    args: tuple["Pattern", ...] = ()
    label: int | None = None
    span: Span | None = None


Pattern = Union[Var, Con]


# ---------------------------------------------------------------------------
# Terms

# Core terms are the only forms that survive desugaring: a pattern, which
# is a term of its own with no program point beyond the pattern's, an
# application of a function reference to a plain pattern, and a case
# statement.


@record("span")
class Apply:
    """Core application ``g p`` of a function reference to a pattern."""

    callee: "FunctionRef"
    argument: Pattern
    label: int | None = None
    span: Span | None = None


@record("span")
class Case:
    """``case t : tau of ; p1 -> t1 ; ...`` with first-match semantics."""

    scrutinee: "Term"
    scrutinee_type: str | None
    branches: tuple[tuple[Pattern, "Term"], ...]
    label: int | None = None
    span: Span | None = None


# Sugared terms, eliminated by the desugarer.  The parser reads pairs,
# list cells and ``let`` as the constructor terms and cases they stand
# for, so these two are the only sugar left.


@record("span")
class ConApp:
    """Constructor applied to at least one non-pattern argument."""

    name: str
    args: tuple["Term", ...]
    span: Span | None = None


@record("span")
class GeneralApply:
    """Application whose argument is an arbitrary term, not yet a pattern."""

    callee: "FunctionRef"
    argument: "Term"
    span: Span | None = None


Term = Union[Var, Con, Apply, Case, ConApp, GeneralApply]

SUGAR_TERM_TYPES = (ConApp, GeneralApply)


# ---------------------------------------------------------------------------
# Function references


@record("span")
class FunctionRef:
    """A defined function's name under ``inversions`` ``(invert ...)``
    markers."""

    name: str
    inversions: int = 0
    span: Span | None = None

    @property
    def backward(self) -> bool:
        """Whether a call through the reference runs against the
        conventional direction: each marker flips it, so an odd count."""
        return self.inversions % 2 == 1


def flip(ref: FunctionRef) -> FunctionRef:
    """The reference interpreted in the other direction.

    Unwraps one inversion marker when present, otherwise adds one.
    """
    return FunctionRef(ref.name, ref.inversions - 1 if ref.inversions else 1)


# ---------------------------------------------------------------------------
# Traversal


def nodes(root: Pattern | Term) -> Iterator[Pattern | Term]:
    """Every node of a pattern or term (core or sugared) tree.

    Pre-order, children left to right, in source order: a case's
    scrutinee, then each branch's pattern and body.  The walk keeps its
    own stack, so a tree of any depth is safe.
    """
    stack = [root]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        kind = type(node)
        if kind is Var:
            continue
        if kind is Con or kind is ConApp:
            stack += node.args[::-1]
        elif kind is Apply or kind is GeneralApply:
            push(node.argument)
        elif kind is Case:
            for pattern, body in reversed(node.branches):
                push(body)
                push(pattern)
            push(node.scrutinee)
        else:
            raise TypeError(f"not a pattern or term node: {node!r}")


def pattern_variables(pattern: Pattern) -> Iterator[Var]:
    return (node for node in nodes(pattern) if type(node) is Var)


# ---------------------------------------------------------------------------
# Definitions and programs


@record("span")
class DataDef:
    """``data tau = [c1 tau...] ... [cn tau...].``"""

    type_name: str
    constructors: tuple[tuple[str, tuple[str, ...]], ...]
    span: Span | None = None


@record("span")
class FunDef:
    """``f (p : tau_p) : tau_t = t.`` with both type ascriptions optional."""

    name: str
    parameter: Pattern
    parameter_type: str | None
    return_type: str | None
    body: Term
    span: Span | None = None

    def rebuilt(self, parameter: Pattern, body: Term) -> FunDef:
        """This definition with another parameter and body."""
        return FunDef(self.name, parameter, self.parameter_type, self.return_type, body, self.span)


Definition = Union[DataDef, FunDef]


@record()
class Program:
    definitions: tuple[Definition, ...]
    main: FunctionRef


def fun_defs(program: Program) -> Iterator[FunDef]:
    for definition in program.definitions:
        if isinstance(definition, FunDef):
            yield definition


def data_defs(program: Program) -> Iterator[DataDef]:
    for definition in program.definitions:
        if isinstance(definition, DataDef):
            yield definition


# ---------------------------------------------------------------------------
# Validation


@record()
class Diagnostic:
    """A single well-formedness violation with an optional location."""

    kind: str
    message: str
    span: Span | None = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@record()
class ConstructorInfo:
    """Declared shape of one constructor."""

    components: tuple[str | None, ...]
    data_type: str | None
    builtin: bool = False

    @property
    def arity(self) -> int:
        return len(self.components)


def constructor_table(program: Program) -> tuple[dict[str, ConstructorInfo], list[Diagnostic]]:
    """Constructor environment for a program.

    User declarations win over the built-in pair/cons/nil entries; a
    built-in entry is added only when the name is not declared at all.
    Duplicate declarations are reported, first declaration kept.
    """
    table: dict[str, ConstructorInfo] = {}
    diagnostics: list[Diagnostic] = []
    for definition in data_defs(program):
        for con_name, components in definition.constructors:
            if con_name in table:
                diagnostics.append(
                    Diagnostic(
                        "duplicate-constructor",
                        f"constructor '{con_name}' declared more than once",
                        definition.span,
                    )
                )
                continue
            table[con_name] = ConstructorInfo(tuple(components), definition.type_name)
    for con_name, arity in BUILTIN_CONSTRUCTORS.items():
        if con_name not in table:
            table[con_name] = ConstructorInfo((None,) * arity, None, builtin=True)
    return table, diagnostics


def _check_constructor(
    name: str, argc: int, span: Span | None, table: dict[str, ConstructorInfo], out: list[Diagnostic]
) -> None:
    info = table.get(name)
    if info is None:
        out.append(
            Diagnostic(
                "undefined-constructor",
                f"constructor '{name}' is not declared",
                span,
            )
        )
    elif info.arity != argc:
        out.append(
            Diagnostic(
                "arity-mismatch",
                f"constructor '{name}' takes {info.arity} "
                f"argument(s), got {argc}",
                span,
            )
        )


def _check_pattern(
    root: Pattern,
    table: dict[str, ConstructorInfo],
    out: list[Diagnostic],
    bound: frozenset[str] | None = None,
) -> set[str]:
    """Check a pattern in one walk; return its variables' names.

    Every constructor must be declared with the right arity.  A pattern
    that binds (``bound`` is None) must be linear; a pattern in term
    position must use only variables in ``bound``, and may repeat them,
    since a term may copy a binding.  All constructor diagnostics come
    before the variable diagnostics, each group in pre-order.  A
    constructor diagnostic is reported once per place: the nodes of a
    numeral all share its span.
    """
    names: set[str] = set()
    constructors: list[Diagnostic] = []
    variables: list[Diagnostic] = []
    for node in nodes(root):
        if type(node) is not Var:
            _check_constructor(node.name, len(node.args), node.span, table, constructors)
        elif bound is None:
            if node.name in names:
                variables.append(
                    Diagnostic(
                        "nonlinear-pattern",
                        f"variable '{node.name}' bound twice in one pattern",
                        node.span,
                    )
                )
            names.add(node.name)
        elif node.name not in bound:
            variables.append(
                Diagnostic(
                    "unbound-variable",
                    f"variable '{node.name}' is not in scope",
                    node.span,
                )
            )
    if constructors:
        out.extend(dict.fromkeys(constructors))
    out.extend(variables)
    return names


def validate(program: Program) -> list[Diagnostic]:
    """All well-formedness violations of a (possibly sugared) program.

    Empty result means: function and constructor names are unique, every
    call target and constructor occurrence is declared with the right
    arity, binding patterns are left-linear, every term variable is in
    scope, and the main declaration names a defined function.  Type
    ascriptions are stored but never checked.
    """
    diagnostics: list[Diagnostic] = []
    table, table_diags = constructor_table(program)
    diagnostics.extend(table_diags)

    functions: dict[str, FunDef] = {}
    for definition in fun_defs(program):
        if definition.name in functions:
            diagnostics.append(
                Diagnostic(
                    "duplicate-function",
                    f"function '{definition.name}' defined more than once",
                    definition.span,
                )
            )
            continue
        functions[definition.name] = definition

    def check_ref(ref: FunctionRef, span: Span | None) -> None:
        if ref.name not in functions:
            diagnostics.append(
                Diagnostic(
                    "undefined-function",
                    f"function '{ref.name}' is not defined",
                    span,
                )
            )

    def check_term(term: Term, bound: frozenset[str]) -> None:
        if isinstance(term, (Var, Con)):
            _check_pattern(term, table, diagnostics, bound)
        elif isinstance(term, Apply):
            check_ref(term.callee, term.span)
            _check_pattern(term.argument, table, diagnostics, bound)
        elif isinstance(term, GeneralApply):
            check_ref(term.callee, term.span)
            check_term(term.argument, bound)
        elif isinstance(term, Case):
            check_term(term.scrutinee, bound)
            for pattern, body in term.branches:
                names = _check_pattern(pattern, table, diagnostics)
                check_term(body, bound | names)
        elif isinstance(term, ConApp):
            _check_constructor(term.name, len(term.args), term.span, table, diagnostics)
            for arg in term.args:
                check_term(arg, bound)
        else:  # pragma: no cover - exhaustive over Term
            raise TypeError(f"unknown term node: {term!r}")

    for definition in fun_defs(program):
        if definition.name in functions and functions[definition.name] is not definition:
            continue  # duplicate, already reported
        bound = frozenset(_check_pattern(definition.parameter, table, diagnostics))
        check_term(definition.body, bound)

    check_ref(program.main, program.main.span)
    return diagnostics


def validate_value(value: Con, table: dict[str, ConstructorInfo]) -> list[Diagnostic]:
    """Check a runtime value, a ``Con`` tree without variables or labels,
    against a program's constructor table."""
    diagnostics: list[Diagnostic] = []
    _check_pattern(value, table, diagnostics)
    return diagnostics
