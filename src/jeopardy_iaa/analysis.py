"""Available implicit arguments analysis over labeled core programs.

The analysis computes every call configuration reachable from the two
top-level entry points: running main forward on its input, and running
its inverse backward from its output.  A call configuration records

* the caller (a function name, or the top-level marker),
* the callee reference, possibly inversion-wrapped,
* the labels of the argument handed to the callee, and
* the labels of everything implicitly available at the call: values
  already in hand on the path that reaches the call site.

Stepping through a callee strips the callee's own labels from the
incoming availability, which is what bounds the treatment of recursion
to a single unrolling: a recursive call can see implicit arguments from
the previous incarnation but cannot tell incarnations apart beyond that.

The one-step rule is ``call``, built on two body walks.  Walking a body
in the conventional direction (``term_down``) is direct: a pattern calls
nothing, an application yields one configuration, and a case passes the
scrutinee's and branch pattern's labels as extra availability into each
branch.  Walking against the conventional direction (``term_up``) starts
from the result instead, so the walk returns pairs of (configurations,
labels known "from the future") per inverse path: a result pattern makes
its labels available, an application flips the callee and consumes the
callee's body root as its argument, and a case analyzes branch bodies
before the scrutinee.  ``term_up`` walks each scrutinee once per body
path; it stays as the per-path reference rule that tests compare with.

Either walk only ever unions the entering availability with labels
taken from the body, so a configured call reaches exactly the
configurations ``(callee', arguments, entering | T)`` for a fixed set of
triples per callee and direction: its *summary*, in the manner of IFDS
summary edges (Reps, Horwitz & Sagiv, POPL'95).  ``configurations``
builds each summary once, the first time a callee is reached in a
direction, by walking the body with empty availability.  The backward
summary comes from one bottom-up walk that keeps a set of availability
sets per call, since only the union over paths is ever used.  It walks
each node once and builds an availability set only where a call
records it or a later node reads it; the body's own result is never
read.  The reachability fixed point is then a FIFO worklist of set
unions over exact-equality deduplicated configurations; no tree is
walked per popped configuration, and a configuration whose callee
calls nothing in its direction is recorded but never queued.

Configurations carry a complete-lattice order (same caller, callee, and
argument labels; inclusion on implicit labels), exposed for clients and
property checks.  The fixed point itself keeps configurations per path
rather than joining them, preserving path-sensitive availability.
"""

from __future__ import annotations

from collections import deque

from .labeler import LabeledProgram, body_root_label, labels_of
from .syntax import (
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
    pattern_variables,
    record,
)


class UndefinedCalleeError(Exception):
    """A configuration's callee has no definition; validation prevents this."""


LabelSet = frozenset  # of Label


@record()
class CallConfiguration:
    """One reachable call: caller, callee, argument labels, implicit labels."""

    caller: str
    callee: FunctionRef
    argument_labels: LabelSet
    implicit_labels: LabelSet


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


def configurations(program: LabeledProgram) -> ConfigurationSet:
    """Least set of call configurations reachable from the entry points.

    FIFO worklist closure over the callees' summaries; termination
    follows from the finite label universe.  The result is the set that
    closing over ``call`` gives, so it does not depend on pop order.  A
    configuration whose callee reaches no call in its direction is
    recorded but never queued.
    """
    summaries: dict[tuple[str, bool], _Summary] = {}

    def summary_of(key: tuple[str, bool]) -> _Summary:
        summary = summaries.get(key)
        if summary is None:
            summary = summaries[key] = _summary(key, program)
        return summary

    seeds = seed_configurations(program)
    seen: set[CallConfiguration] = set(seeds)
    queue: deque[tuple[CallConfiguration, _Summary]] = deque()
    for seed in seeds:
        summary = summary_of((seed.callee.name, seed.callee.backward))
        if summary[2]:
            queue.append((seed, summary))
    while queue:
        config, (name, own_labels, reachable, expanded) = queue.popleft()
        entering = (config.implicit_labels | config.argument_labels) - own_labels
        # the successors of a pop depend only on its summary and entering
        # set; a set is recorded only for summaries with several successors,
        # where expanding it again costs more than hashing the set
        if len(reachable) > 1:
            if entering in expanded:
                continue
            expanded.add(entering)
        for callee, arguments, gained, key in reachable:
            reached = CallConfiguration(name, callee, arguments, entering | gained)
            size = len(seen)
            seen.add(reached)
            if len(seen) > size:
                summary = summary_of(key)
                if summary[2]:
                    queue.append((reached, summary))
    return frozenset(seen)


# A callee's name, its own labels, the (callee reference, argument labels,
# gained labels, the callee's summary key) of every call its body reaches
# in one direction, and the entering sets already expanded through it.
_Summary = tuple[
    str,
    LabelSet,
    list[tuple[FunctionRef, LabelSet, LabelSet, tuple[str, bool]]],
    set[LabelSet],
]


def _summary(key: tuple[str, bool], program: LabeledProgram) -> _Summary:
    """What ``call`` gives for a callee and direction, with the entering
    availability left out."""
    name, backward = key
    definition = _definition(program, name)
    if not backward:
        reached = term_down(name, _EMPTY, definition.body)
        calls = [(c.callee, c.argument_labels, (c.implicit_labels,)) for c in reached]
    else:
        walked: dict[tuple[FunctionRef, LabelSet], set[LabelSet]] = {}
        _walk_up({_EMPTY}, definition.body, None, program, walked)
        calls = [(callee, arguments, gains) for (callee, arguments), gains in walked.items()]
    reachable = []
    for callee, arguments, gains in calls:
        callee_key = (callee.name, callee.backward)
        reachable += [(callee, arguments, gained, callee_key) for gained in gains]
    own_labels = labels_of(definition.parameter) | labels_of(definition.body)
    return name, own_labels, reachable, set()


def _walk_up(
    implicits: set[LabelSet],
    term: Term,
    then: LabelSet | None,
    program: LabeledProgram,
    calls: dict[tuple[FunctionRef, LabelSet], set[LabelSet]],
) -> set[LabelSet]:
    """``term_up`` for every entering availability in ``implicits`` at once,
    merged over paths.

    Records the implicit labels that some inverse path brings to each
    call, keyed by the flipped callee and its argument labels, in
    ``calls``.  Returns every availability set that some path ends with,
    each joined with ``then``.  Every step distributes over the union of
    ``implicits``, so each node is walked at most once, a scrutinee on
    the union of its branches' results, where ``term_up`` walks it once
    per path through the branch bodies.

    A set is built only where an application records it or a later node
    reads it.  ``then`` is None where nothing reads the result: the walk
    then records calls and returns an empty set, and a case whose
    scrutinee holds no application walks its branches for their calls
    only.  A pattern scrutinee's labels go into each branch's ``then``,
    so each path pays one union there.
    """
    kind = type(term)
    if kind is Var or kind is Con:
        if then is None:
            return set()
        gained = labels_of(term) | then
        return {implicit | gained for implicit in implicits}
    if kind is Apply:
        argument = frozenset((body_root_label(_definition(program, term.callee.name).body),))
        calls.setdefault((flip(term.callee), argument), set()).update(implicits)
        if then is None:
            return set()
        gained = labels_of(term.argument) | {body_root_label(term)} | then
        return {implicit | gained for implicit in implicits}
    if kind is Case:
        scrutinee = term.scrutinee
        if then is not None:
            then = then | {body_root_label(term)}
        if type(scrutinee) is Var or type(scrutinee) is Con:
            if then is not None:
                then = then | labels_of(scrutinee)
            available: set[LabelSet] = set()
            for pattern, body in term.branches:
                branch_then = None if then is None else labels_of(pattern) | then
                available |= _walk_up(implicits, body, branch_then, program, calls)
            return available
        bodies_read = then is not None or any(type(node) is Apply for node in nodes(scrutinee))
        scrutinee_implicits: set[LabelSet] = set()
        for pattern, body in term.branches:
            body_then = labels_of(pattern) if bodies_read else None
            scrutinee_implicits |= _walk_up(implicits, body, body_then, program, calls)
        return _walk_up(scrutinee_implicits, scrutinee, then, program, calls)
    raise ValueError(f"cannot analyze sugared term {term!r}")


# ---------------------------------------------------------------------------
# The configuration lattice


def compare_configurations(a: CallConfiguration, b: CallConfiguration) -> str:
    """Order two configurations: 'less', 'equal', 'greater' or 'incomparable'.

    Configurations compare only when caller, callee, and argument labels
    agree; then inclusion of the implicit label sets decides.
    """
    if (a.caller, a.callee, a.argument_labels) != (b.caller, b.callee, b.argument_labels):
        return "incomparable"
    if a.implicit_labels == b.implicit_labels:
        return "equal"
    if a.implicit_labels < b.implicit_labels:
        return "less"
    if a.implicit_labels > b.implicit_labels:
        return "greater"
    return "incomparable"


def join_configurations(a: CallConfiguration, b: CallConfiguration) -> CallConfiguration:
    """Least upper bound: union of implicit labels; same key required."""
    _require_same_key(a, b)
    return CallConfiguration(
        a.caller, a.callee, a.argument_labels, a.implicit_labels | b.implicit_labels
    )


def meet_configurations(a: CallConfiguration, b: CallConfiguration) -> CallConfiguration:
    """Greatest lower bound: intersection of implicit labels; same key required."""
    _require_same_key(a, b)
    return CallConfiguration(
        a.caller, a.callee, a.argument_labels, a.implicit_labels & b.implicit_labels
    )


def _require_same_key(a: CallConfiguration, b: CallConfiguration) -> None:
    if (a.caller, a.callee, a.argument_labels) != (b.caller, b.callee, b.argument_labels):
        raise ValueError("configurations with different keys have no join or meet")


# ---------------------------------------------------------------------------
# Branching-symmetry hints


@record()
class Hint:
    """A call site whose callee's branching is decidable both ways.

    ``witness_labels`` are program points in the calling function whose
    values carry the callee's scrutinized argument: at least one of them
    is available on a forward path to the call and at least one on a
    backward path, so the callee's branch choice can be recovered in
    either execution direction there.
    """

    function: str
    callee: str
    call_label: int
    witness_labels: tuple[int, ...]


def symmetry_hints(program: LabeledProgram, configs: ConfigurationSet) -> list[Hint]:
    """Call sites where the callee's branching scrutinee is available
    in both execution directions.

    Only callees that actually branch (a case with two or more branches)
    on a component of their own parameter are considered.  The forward
    side is matched per call site through its argument labels; the
    backward side is matched per caller and callee, since inverse-walk
    configurations do not record the site they were emitted from.  A
    label counts as available on a side when some configuration matched
    there holds it, so each side's labels are unioned once per key and
    every call site looks its keys up.
    """
    down: dict[tuple[str, str, LabelSet], set] = {}
    up: dict[tuple[str, str], set] = {}
    for c in configs:
        if c.callee.backward:
            labels = up.setdefault((c.caller, c.callee.name), set())
        else:
            labels = down.setdefault((c.caller, c.callee.name, c.argument_labels), set())
        labels |= c.argument_labels
        labels |= c.implicit_labels

    hints: list[Hint] = []
    paths_cache: dict[str, tuple[tuple[int, ...], ...]] = {}
    for fd in program.functions.values():
        paths_cache[fd.name] = _branching_parameter_paths(fd)

    callers = {caller for caller, _, _ in down}
    for fd in program.functions.values():
        if fd.name not in callers:
            continue  # no site of a function that calls nothing forward can match
        occurrences: dict[str, set[int]] = {}
        sites: list[Apply] = []
        for root in (fd.parameter, fd.body):
            for node in nodes(root):
                kind = type(node)
                if kind is Var:
                    occurrences.setdefault(node.name, set()).add(node.label)
                elif kind is Apply:
                    sites.append(node)
        for site in sites:
            callee = site.callee.name
            paths = paths_cache.get(callee, ())
            if not paths:
                continue
            down_labels = down.get((fd.name, callee, labels_of(site.argument)))
            up_labels = up.get((fd.name, callee))
            if down_labels is None or up_labels is None:
                continue
            witness = _site_witness(site.argument, paths, occurrences, down_labels, up_labels)
            if witness:
                hints.append(
                    Hint(fd.name, callee, body_root_label(site), tuple(sorted(witness)))
                )
    hints.sort(key=lambda h: (h.function, h.call_label))
    return hints


def _site_witness(
    argument: Pattern,
    paths: tuple[tuple[int, ...], ...],
    occurrences: dict[str, set[int]],
    down_labels: set,
    up_labels: set,
) -> set[int]:
    witness: set[int] = set()
    for path in paths:
        sub = _subpattern_at(argument, path)
        if sub is None:
            continue
        names = [v.name for v in pattern_variables(sub)]
        if not names:
            continue  # a ground scrutinee component branches statically
        per_path: set[int] = set()
        for name in names:
            occs = occurrences.get(name, frozenset())
            down_hits = occs & down_labels
            up_hits = occs & up_labels
            if not down_hits or not up_hits:
                per_path.clear()
                break
            per_path |= down_hits | up_hits
        witness |= per_path
    return witness


def _subpattern_at(pattern: Pattern, path: tuple[int, ...]) -> Pattern | None:
    """Descend a component path; a variable absorbs any remaining path."""
    node = pattern
    for index in path:
        if isinstance(node, Var):
            return node
        if index >= len(node.args):
            return None
        node = node.args[index]
    return node


def _branching_parameter_paths(fd: FunDef) -> tuple[tuple[int, ...], ...]:
    """Component paths of the parameter that the body's branching inspects.

    Walks the body's case spine, tracking which variables are bound to
    which component of the (single, variable) parameter; every case with
    two or more branches whose scrutinee is such a variable contributes
    that variable's component path.
    """
    if not isinstance(fd.parameter, Var):
        return ()
    found: list[tuple[int, ...]] = []

    def walk(term: Term, binding: dict[str, tuple[int, ...]]) -> None:
        if not isinstance(term, Case):
            return
        scrutinee_path: tuple[int, ...] | None = None
        scrutinee = term.scrutinee
        if isinstance(scrutinee, Var):
            scrutinee_path = binding.get(scrutinee.name)
        if scrutinee_path is not None and len(term.branches) > 1:
            if scrutinee_path not in found:
                found.append(scrutinee_path)
        for pattern, body in term.branches:
            extended = dict(binding)
            if scrutinee_path is not None:
                for var, sub_path in _variable_paths(pattern):
                    extended[var.name] = scrutinee_path + sub_path
            walk(body, extended)

    walk(fd.body, {fd.parameter.name: ()})
    return tuple(found)


def _variable_paths(pattern: Pattern) -> list[tuple[Var, tuple[int, ...]]]:
    if isinstance(pattern, Var):
        return [(pattern, ())]
    out: list[tuple[Var, tuple[int, ...]]] = []
    for index, arg in enumerate(pattern.args):
        for var, sub in _variable_paths(arg):
            out.append((var, (index,) + sub))
    return out
