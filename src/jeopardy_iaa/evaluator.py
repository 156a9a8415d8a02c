"""Strict forward interpreter for labeled core programs.

Evaluation is call-by-value: an application instantiates its argument
pattern from the environment, records the call, and runs the callee's
body in a fresh environment.  Case branches are tried in source order
and the first match commits.  Backward execution is not implemented;
applying a reference whose direction is inverse is a runtime error.

Every run produces, besides its result, the ordered trace of calls it
performed (including the synthetic top-level call), which downstream
checks compare against the static analysis.  Pending work lives on the
interpreter's own stack, not Python's, so the configurable call budget
is the only bound on a run; it guards against divergence.
"""

from __future__ import annotations

from .labeler import LabeledProgram
from .printer import pretty_value
from .syntax import (
    Apply,
    Case,
    Con,
    INPUT,
    Label,
    Pattern,
    TOP,
    Var,
    nodes,
    record,
)

DEFAULT_MAX_CALLS = 1_000_000


@record()
class CallEvent:
    """One dynamic call: who called what, on which value, from where.

    The top-level call is recorded with the caller marker and the
    symbolic input label instead of an application program point.
    """

    caller: str
    callee: str
    argument: Con
    application_label: Label


class EvalError(Exception):
    """Runtime failure, carrying its kind and the offending program point."""

    def __init__(self, kind: str, label: Label | None, message: str):
        super().__init__(message)
        self.kind = kind
        self.label = label
        self.message = message


Environment = dict[str, Con]


def match_pattern(pattern: Pattern, value: Con) -> Environment | None:
    """Bind a left-linear pattern against a value, or report no match."""
    bindings: Environment = {}
    pairs = [(pattern, value)]
    while pairs:
        pattern, value = pairs.pop()
        if type(pattern) is Var:
            bindings[pattern.name] = value
        elif pattern.name != value.name or len(pattern.args) != len(value.args):
            return None
        else:
            pairs += zip(pattern.args, value.args)
    return bindings


def instantiate(pattern: Pattern, env: Environment) -> Con:
    """Build the value a pattern denotes under an environment: a ``Con``
    tree with no variables or labels."""
    if type(pattern) is Var:
        return _lookup(pattern, env)
    # reversed pre-order meets every node after its subtrees, whose values
    # sit on top of ``built`` with the first argument's uppermost
    built: list[Con] = []
    for node in reversed(list(nodes(pattern))):
        if type(node) is Var:
            built.append(_lookup(node, env))
        elif node.args:
            arity = len(node.args)
            arguments = tuple(built[: -arity - 1 : -1])
            del built[-arity:]
            built.append(Con(node.name, arguments))
        else:
            built.append(Con(node.name))
    return built[0]


def _lookup(variable: Var, env: Environment) -> Con:
    try:
        return env[variable.name]
    except KeyError:
        raise EvalError(
            "unbound-variable",
            variable.label,
            f"variable '{variable.name}' is not bound",
        ) from None


def run_main(
    program: LabeledProgram,
    argument: Con,
    max_calls: int = DEFAULT_MAX_CALLS,
) -> tuple[Con, list[CallEvent]]:
    """Call the declared main function on a value in the empty context.

    Returns the result and the complete ordered call trace.  Running an
    inverted main is refused, and runaway recursion is cut off by the
    call budget, the only bound on a run.

    Core terms are patterns, applications and cases, so the only work
    left pending is a case waiting for the value of its scrutinee; those
    cases wait on ``pending``, off the Python stack.  An application
    jumps into the callee's body and pushes nothing.
    """
    main = program.program.main
    if main.backward:
        raise EvalError("inverted-call", INPUT, "backward execution is not supported")
    trace: list[CallEvent] = []
    pending: list[tuple[str, Case, Environment]] = []
    # the call to make next; the top-level call's site is the input
    caller, callee, site = TOP, main.name, INPUT
    while True:
        if len(trace) >= max_calls:
            raise EvalError(
                "call-budget-exceeded",
                site,
                f"more than {max_calls} calls; looping program?",
            )
        definition = program.functions[callee]
        trace.append(CallEvent(caller, callee, argument, site))
        env = match_pattern(definition.parameter, argument)
        if env is None:
            raise EvalError(
                "parameter-mismatch",
                site,
                f"argument does not match the parameter of '{callee}'",
            )
        function, term = callee, definition.body
        # run the body until its next call; a value resumes the innermost
        # pending case, or is the result when none is left
        while type(term) is not Apply:
            if type(term) is Case:
                pending.append((function, term, env))
                term = term.scrutinee
                continue
            value = instantiate(term, env)
            if not pending:
                return value, trace
            function, case, env = pending.pop()
            for pattern, body in case.branches:
                bindings = match_pattern(pattern, value)
                if bindings is not None:
                    env, term = env | bindings, body
                    break
            else:
                raise EvalError(
                    "no-branch-matched",
                    case.label,
                    f"no case branch matched value {pretty_value(value)}",
                )
        if term.callee.backward:
            raise EvalError(
                "inverted-call",
                term.label,
                "backward execution is not supported",
            )
        argument = instantiate(term.argument, env)
        caller, callee, site = function, term.callee.name, term.label
