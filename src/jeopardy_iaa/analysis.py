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

Performing a configured call is one gen/kill transfer,
``(entering & ~own) | gained``: the entering availability loses the
callee's own labels and gains, at each call the body reaches, only
labels taken from the body.  So a callee reaches exactly the
configurations ``(callee', arguments, entering | T)`` for a fixed set
of triples per callee and direction: its *summary*, in the manner of
IFDS summary edges (Reps, Horwitz & Sagiv, POPL'95).  ``_summary``
builds one by walking the body with empty availability.  Forward,
``_walk_down`` is direct: a pattern calls nothing, an application
records one call, and a case passes the scrutinee's and branch
pattern's labels as extra availability into each branch.  Backward,
``_walk_up`` starts from the result: a result pattern makes its labels
available, an application flips the callee and consumes the callee's
body root as its argument, and a case walks its branch bodies before
its scrutinee.  It keeps a set of availability sets per call, since
only the union over paths is ever used, walks each node once, and
builds an availability set only where a call records it or a later
node may read it; the body's own result is never read.

``configurations`` builds each summary once, the first time a callee is
reached in a direction, and closes over the summaries with a FIFO
worklist; no tree is walked per popped configuration, and a
configuration whose callee calls nothing in its direction is recorded
but never queued.  The summaries, the fixed point and the hints hold
label sets as bit masks (Kildall, POPL'73): label *i* is bit *i* of a
Python int, and ``input`` and ``output`` are the two bits after the
last label.  The labeler numbers nodes in pre-order, so a node's labels
are one interval of bits, which ``labeler.label_mask`` computes from
the node's rightmost spine without a walk, and a function's own labels
are one interval from its parameter to the end of its body.  The fixed
point deduplicates ints in one set per (caller, callee, argument mask),
which is also the report's grouping, and returns those groups as
``Configurations``: a sized, iterable view that builds a
``CallConfiguration`` and its frozensets only when iterated.  It is not
a set: membership would have to re-encode frozensets of labels as
masks, and no caller asks for it.  On the path behind ``analyze`` no
record and no frozenset of labels is built; hashing and uniting
frozensets was most of the fixed point's time on branch-heavy code.
The fixed point keeps configurations per path rather than joining them,
preserving path-sensitive availability.

``call`` reads one configured call's successors off the callee's
summary; it exists for the benchmark's tracer, which counts them.  The
rules on frozensets of labels, which walk a body per call and a
scrutinee once per backward path, are kept in the tests as the
reference that this module is checked against.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import compress
from operator import or_

from .labeler import LabeledProgram, label_mask
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


@record()
class CallConfiguration:
    """One reachable call: caller, callee, argument labels, implicit labels."""

    caller: str
    callee: FunctionRef
    argument_labels: frozenset
    implicit_labels: frozenset


def _definition(program: LabeledProgram, name: str) -> FunDef:
    definition = program.functions.get(name)
    if definition is None:
        raise UndefinedCalleeError(f"function '{name}' is not defined")
    return definition


# bin(mask)[:1:-1] holds a mask's bits from bit 0 up as b"0"/b"1"; these
# make them the 0/1 selectors of itertools.compress, and a sort key
_SELECTORS = bytes.maketrans(b"01", b"\0\1")
_ORDER = bytes.maketrans(b"01", b"10")

# (caller, callee, argument mask) -> the implicit masks reached with it
_Groups = dict[tuple[str, FunctionRef, int], set[int]]


class Configurations:
    """What ``configurations`` returns: a sized, iterable view of the
    reached configurations, kept as label masks.

    ``groups`` maps each (caller, callee, argument mask) to the set of
    implicit masks reached with it.  Bit *i* of a mask is
    ``universe[i]``: the integer labels, then ``input`` and ``output``,
    which is the report's label order.  Iterating yields each
    configuration once, as a ``CallConfiguration`` with label frozensets
    built on the way; ``frozenset(view)`` is the set it stands for.
    """

    __slots__ = ("groups", "universe", "_size")

    def __init__(self, groups: _Groups, universe: list) -> None:
        self.groups = groups
        self.universe = universe
        self._size = sum(map(len, groups.values()))

    def unmask(self, mask: int) -> list:
        """A mask's labels, in bit order."""
        return list(compress(self.universe, bin(mask)[:1:-1].encode().translate(_SELECTORS)))

    @staticmethod
    def order(mask: int) -> bytes:
        """A sort key under which masks sort as their label lists do, in
        the report's order: as the ascending lists of their bits.

        The key spells the mask's bits from bit 0 up to its highest set
        bit, a set bit as b"0" and a clear one as b"1".  Two bit lists
        differ first at a bit that one mask has: that mask sorts first if
        the other has a higher bit, and last if not, when the other's
        list is a prefix of its own.  At that position its key has b"0",
        where the other's key has b"1" or has already ended.
        """
        return bin(mask)[:1:-1].encode().translate(_ORDER) if mask else b""

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        unmask = self.unmask
        for (caller, callee, arguments), implicits in self.groups.items():
            argument_labels = frozenset(unmask(arguments))
            for implicit in implicits:
                yield CallConfiguration(
                    caller, callee, argument_labels, frozenset(unmask(implicit))
                )


def configurations(program: LabeledProgram) -> Configurations:
    """Least set of call configurations reachable from the entry points.

    FIFO worklist closure over the callees' summaries, on label masks;
    termination follows from the finite label universe.  The result is
    the set that closing over the one-step rule gives, so it does not
    depend on pop order.  A configuration whose callee reaches no call
    in its direction is recorded but never queued.
    """
    count = program.label_count
    groups: _Groups = {}
    summaries: dict[tuple[str, bool], _Summary] = {}

    def summary_of(key: tuple[str, bool]) -> _Summary:
        summary = summaries.get(key)
        if summary is None:
            own, calls = _summary(key, program)
            reachable = []
            for (callee, arguments), gains in calls.items():
                group = groups.setdefault((key[0], callee, arguments), set())
                callee_key = (callee.name, callee.backward)
                reachable += [(arguments, gained, group, callee_key) for gained in gains]
            summary = summaries[key] = (~own, reachable, set())
        return summary

    main = program.program.main
    # main wrapped once more, not flipped: the report orders the two entry
    # rows by marker count, the forward one first
    seeds = ((main, 1 << count), (FunctionRef(main.name, main.inversions + 1), 2 << count))
    queue: deque[tuple[int, _Summary]] = deque()
    for callee, argument in seeds:
        groups[TOP, callee, argument] = {0}
        summary = summary_of((callee.name, callee.backward))
        if summary[1]:
            queue.append((argument, summary))
    while queue:
        available, (keep, reachable, expanded) = queue.popleft()
        entering = available & keep
        # the successors of a pop depend only on its summary and entering
        # mask, so a pair already expanded is skipped
        if entering in expanded:
            continue
        expanded.add(entering)
        for arguments, gained, group, key in reachable:
            implicit = entering | gained
            if implicit not in group:
                group.add(implicit)
                summary = summaries.get(key) or summary_of(key)
                if summary[1]:
                    queue.append((implicit | arguments, summary))
    return Configurations(groups, [*range(count), INPUT, OUTPUT])


def call(config: CallConfiguration, program: LabeledProgram) -> Configurations:
    """The configurations that performing one configured call reaches,
    read off the callee's summary; the benchmark's tracer counts them.

    The availability entering the callee is the caller-side argument and
    implicit labels minus every label belonging to the callee itself.
    """
    count = program.label_count
    symbols = {INPUT: 1 << count, OUTPUT: 2 << count}
    available = 0
    for label in config.argument_labels | config.implicit_labels:
        available |= symbols[label] if label in symbols else 1 << label
    name, backward = config.callee.name, config.callee.backward
    own, calls = _summary((name, backward), program)
    entering = available & ~own
    groups = {
        (name, callee, arguments): {entering | gained for gained in gains}
        for (callee, arguments), gains in calls.items()
    }
    return Configurations(groups, [*range(count), INPUT, OUTPUT])


# The complement of a callee's own labels, the (argument mask, gained
# mask, group of the configurations it reaches, the callee's summary key)
# of every call its body reaches in one direction, and the entering masks
# already expanded through it.
_Summary = tuple[int, list[tuple[int, int, set[int], tuple[str, bool]]], set[int]]

# (callee reference, argument mask) -> the implicit masks it is reached with
_Calls = dict[tuple[FunctionRef, int], set[int]]


def _summary(key: tuple[str, bool], program: LabeledProgram) -> tuple[int, _Calls]:
    """One configured call of a callee in a direction, with the entering
    availability left out, on masks: the callee's own labels, and the
    implicit masks its body brings to each call it reaches."""
    name, backward = key
    definition = _definition(program, name)
    calls: _Calls = {}
    if backward:
        _walk_up({0}, definition.body, None, program, calls)
    else:
        _walk_down(0, definition.body, calls)
    return label_mask(definition.parameter) | label_mask(definition.body), calls


def _walk_down(implicit: int, term: Term, calls: _Calls) -> None:
    """The forward walk: records in ``calls`` the implicit mask that each
    application is reached with."""
    kind = type(term)
    if kind is Apply:
        calls.setdefault((term.callee, label_mask(term.argument)), set()).add(implicit)
    elif kind is Case:
        _walk_down(implicit, term.scrutinee, calls)
        implicit |= label_mask(term.scrutinee)
        for pattern, body in term.branches:
            _walk_down(implicit | label_mask(pattern), body, calls)


def _walk_up(
    implicits: set[int],
    term: Term,
    then: int | None,
    program: LabeledProgram,
    calls: _Calls,
) -> set[int]:
    """The backward walk, for every entering availability in
    ``implicits`` at once, merged over paths.

    Records the implicit masks that some inverse path brings to each
    call, keyed by the flipped callee and its argument mask, in
    ``calls``.  Returns every availability mask that some path ends
    with, each joined with ``then``.  Every step distributes over the
    union of ``implicits``, so each node is walked at most once, a
    scrutinee on the union of its branches' results, not once per path
    through the branch bodies.

    ``then`` is None where nothing reads the result: the walk then
    records calls and returns an empty set.  A scrutinee that is not a
    pattern reads its branches' results, so their bodies get their
    pattern's labels as ``then``.  A pattern scrutinee's labels go into
    each branch's ``then``, so each path pays one union there.
    """
    kind = type(term)
    if kind is Apply:
        argument = 1 << _definition(program, term.callee.name).body.label
        calls.setdefault((flip(term.callee), argument), set()).update(implicits)
    elif kind is Case:
        scrutinee = term.scrutinee
        if then is not None:
            then |= 1 << term.label
        if type(scrutinee) is Var or type(scrutinee) is Con:
            if then is not None:
                then |= label_mask(scrutinee)
            available: set[int] = set()
            for pattern, body in term.branches:
                branch_then = None if then is None else label_mask(pattern) | then
                available |= _walk_up(implicits, body, branch_then, program, calls)
            return available
        scrutinee_implicits: set[int] = set()
        for pattern, body in term.branches:
            scrutinee_implicits |= _walk_up(implicits, body, label_mask(pattern), program, calls)
        return _walk_up(scrutinee_implicits, scrutinee, then, program, calls)
    if then is None:
        return set()
    # a pattern's labels, or an application's own label and its argument's
    gained = label_mask(term) | then
    return {implicit | gained for implicit in implicits}


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


def symmetry_hints(program: LabeledProgram, configs: Configurations) -> list[Hint]:
    """Call sites where the callee's branching scrutinee is available
    in both execution directions.

    Only the parts of a site's argument that its callee branches on are
    considered (``_branching_parts``).  The forward side is matched per
    call site through its argument labels; the backward side is matched
    per caller and callee, since inverse-walk configurations do not
    record the site they were emitted from.  A label counts as available
    on a side when some configuration matched there holds it, so each
    side's masks are ORed once per key.  A part joins the witness when
    each of its variables has occurrences on both sides.
    """
    down: dict[tuple[str, str, int], int] = {}
    up: dict[tuple[str, str], int] = {}
    for (caller, callee, arguments), implicits in configs.groups.items():
        labels = reduce(or_, implicits, arguments)
        if callee.backward:
            key = (caller, callee.name)
            up[key] = up.get(key, 0) | labels
        else:
            key = (caller, callee.name, arguments)
            down[key] = down.get(key, 0) | labels

    hints: list[Hint] = []
    callers = {caller for caller, _, _ in down}
    for fd in program.functions.values():
        if fd.name not in callers:
            continue  # no site of a function that calls nothing forward can match
        occurrences: dict[str, int] = {}  # a variable's name -> mask of its occurrences
        sites: list[Apply] = []
        for root in (fd.parameter, fd.body):
            for node in nodes(root):
                kind = type(node)
                if kind is Var:
                    occurrences[node.name] = occurrences.get(node.name, 0) | 1 << node.label
                elif kind is Apply:
                    sites.append(node)
        for site in sites:
            callee = site.callee.name
            down_labels = down.get((fd.name, callee, label_mask(site.argument)))
            up_labels = up.get((fd.name, callee))
            if down_labels is None or up_labels is None:
                continue
            witness = 0
            for part in _branching_parts(program.functions[callee], site.argument):
                masks = [occurrences[variable.name] for variable in pattern_variables(part)]
                if all(mask & down_labels and mask & up_labels for mask in masks):
                    witness |= reduce(or_, masks, 0) & (down_labels | up_labels)
            if witness:
                hints.append(
                    Hint(fd.name, callee, site.label, tuple(configs.unmask(witness)))
                )
    hints.sort(key=lambda h: (h.function, h.call_label))
    return hints


def _branching_parts(callee: FunDef, argument: Pattern) -> list[Pattern]:
    """The parts of a call site's argument that the callee branches on.

    Walks the callee's case spine on its own stack, with each variable
    bound to the part of ``argument`` that it stands for, the parameter
    to all of it.  A variable part absorbs every part below it; a
    constructor part's parts are its arguments by position, whatever its
    name; past the argument's end a variable is bound to None, which
    still shadows an outer binding of its name.  Every case of two or
    more branches whose scrutinee is bound to a part contributes it.
    """
    if type(callee.parameter) is not Var or type(callee.body) is not Case:
        return []
    parts: list[Pattern] = []
    spine: list[tuple[Case, dict]] = [(callee.body, {callee.parameter.name: argument})]
    while spine:
        term, bound = spine.pop()
        scrutinee = term.scrutinee
        tracked = type(scrutinee) is Var and scrutinee.name in bound
        part = bound[scrutinee.name] if tracked else None
        if part is not None and len(term.branches) > 1:
            parts.append(part)
        for pattern, body in term.branches:
            if type(body) is not Case:
                continue
            inner = dict(bound)
            # each pattern position against its part, left to right; the
            # pattern of an untracked scrutinee binds nothing, so a name it
            # rebinds keeps its part
            pending: list[tuple[Pattern, Pattern | None]] = [(pattern, part)] if tracked else []
            while pending:
                position, at = pending.pop()
                if type(position) is Var:
                    inner[position.name] = at
                    continue
                args = position.args
                below = at.args + (None,) * len(args) if type(at) is Con else (at,) * len(args)
                pending += [*zip(args, below)][::-1]
            spine.append((body, inner))
    return parts
