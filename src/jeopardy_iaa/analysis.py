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
direction, by walking the body with empty availability: ``_walk_down``
forward, and backward one bottom-up walk, ``_walk_up``, that keeps a set
of availability sets per call, since only the union over paths is ever
used.  It walks each node once and builds an availability set only
where a call records it or a later node reads it; the body's own result
is never read.  The reachability fixed point is then a FIFO worklist;
no tree is walked per popped configuration, and a configuration whose
callee calls nothing in its direction is recorded but never queued.

Each step is a gen/kill transfer, ``(entering & ~own) | gained``, so
the summaries, the fixed point and the hints run on label sets as bit
masks (Kildall, POPL'73): label *i* is bit *i* of a Python int, and
``input`` and ``output`` are the two bits after the last label.  The
labeler numbers nodes in pre-order, so a node's labels are one interval
of bits, which ``labeler.label_mask`` computes from the node's rightmost
spine without a walk, and a function's own labels are one interval from
its parameter to the end of its body.  The fixed point deduplicates ints
in one set per (caller, callee, argument mask), which is also the
report's grouping, and returns those groups as ``Configurations``: a
sized, iterable view that builds a ``CallConfiguration`` and its
frozensets only when iterated.  It is not a set: membership would have
to re-encode frozensets of labels as masks, and no caller asks for it.
On the path behind ``analyze`` no record and no frozenset of labels is
built; hashing and uniting frozensets was most of the fixed point's time
on branch-heavy code.  ``term_down``, ``term_up`` and ``call`` stay on
frozensets, as the reference rules that the tests and the benchmark's
tracer use.  The fixed point keeps configurations per path rather than
joining them, preserving path-sensitive availability.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import compress
from operator import or_

from .labeler import LabeledProgram, body_root_label, label_mask, labels_of
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
        lowest = mask & -mask
        if not mask & (mask + lowest):
            # one run of bits or none, such as the mask of a node's labels
            return self.universe[lowest.bit_length() - 1 : mask.bit_length()]
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
    the set that closing over ``call`` gives, so it does not depend on
    pop order.  A configuration whose callee reaches no call in its
    direction is recorded but never queued.
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

    queue: deque[tuple[int, _Summary]] = deque()
    for seed, argument in zip(seed_configurations(program), (1 << count, 2 << count)):
        callee = seed.callee
        groups[TOP, callee, argument] = {0}
        summary = summary_of((callee.name, callee.backward))
        if summary[1]:
            queue.append((argument, summary))
    while queue:
        available, (keep, reachable, expanded) = queue.popleft()
        entering = available & keep
        # the successors of a pop depend only on its summary and entering
        # mask; a mask is recorded only for summaries with several
        # successors, where expanding it again costs more than hashing it
        if len(reachable) > 1:
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


# The complement of a callee's own labels, the (argument mask, gained
# mask, group of the configurations it reaches, the callee's summary key)
# of every call its body reaches in one direction, and the entering masks
# already expanded through it.
_Summary = tuple[int, list[tuple[int, int, set[int], tuple[str, bool]]], set[int]]

# (callee reference, argument mask) -> the implicit masks it is reached with
_Calls = dict[tuple[FunctionRef, int], set[int]]


def _summary(key: tuple[str, bool], program: LabeledProgram) -> tuple[int, _Calls]:
    """What ``call`` gives for a callee and direction, with the entering
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
    """``term_down`` on masks: records in ``calls`` the implicit mask that
    each application is reached with."""
    kind = type(term)
    if kind is Apply:
        calls.setdefault((term.callee, label_mask(term.argument)), set()).add(implicit)
    elif kind is Case:
        _walk_down(implicit, term.scrutinee, calls)
        implicit |= label_mask(term.scrutinee)
        for pattern, body in term.branches:
            _walk_down(implicit | label_mask(pattern), body, calls)
    elif kind is not Var and kind is not Con:
        raise ValueError(f"cannot analyze sugared term {term!r}")


def _walk_up(
    implicits: set[int],
    term: Term,
    then: int | None,
    program: LabeledProgram,
    calls: _Calls,
) -> set[int]:
    """``term_up`` on masks for every entering availability in
    ``implicits`` at once, merged over paths.

    Records the implicit masks that some inverse path brings to each
    call, keyed by the flipped callee and its argument mask, in
    ``calls``.  Returns every availability mask that some path ends
    with, each joined with ``then``.  Every step distributes over the
    union of ``implicits``, so each node is walked at most once, a
    scrutinee on the union of its branches' results, where ``term_up``
    walks it once per path through the branch bodies.

    A mask is built only where an application records it or a later
    node reads it.  ``then`` is None where nothing reads the result: the
    walk then records calls and returns an empty set, and a case whose
    scrutinee holds no application walks its branches for their calls
    only.  A pattern scrutinee's labels go into each branch's ``then``,
    so each path pays one union there.
    """
    kind = type(term)
    if kind is Var or kind is Con:
        if then is None:
            return set()
        gained = label_mask(term) | then
        return {implicit | gained for implicit in implicits}
    if kind is Apply:
        argument = 1 << body_root_label(_definition(program, term.callee.name).body)
        calls.setdefault((flip(term.callee), argument), set()).update(implicits)
        if then is None:
            return set()
        # the application's own label and its argument's
        gained = label_mask(term) | then
        return {implicit | gained for implicit in implicits}
    if kind is Case:
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
        bodies_read = then is not None or any(type(node) is Apply for node in nodes(scrutinee))
        scrutinee_implicits: set[int] = set()
        for pattern, body in term.branches:
            body_then = label_mask(pattern) if bodies_read else None
            scrutinee_implicits |= _walk_up(implicits, body, body_then, program, calls)
        return _walk_up(scrutinee_implicits, scrutinee, then, program, calls)
    raise ValueError(f"cannot analyze sugared term {term!r}")


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

    Only callees that actually branch (a case with two or more branches)
    on a component of their own parameter are considered.  The forward
    side is matched per call site through its argument labels; the
    backward side is matched per caller and callee, since inverse-walk
    configurations do not record the site they were emitted from.  A
    label counts as available on a side when some configuration matched
    there holds it, so each side's masks are ORed once per key, and each
    call site ANDs them with the masks of its variables' occurrences.
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
    paths_cache: dict[str, tuple[tuple[int, ...], ...]] = {}
    for fd in program.functions.values():
        paths_cache[fd.name] = _branching_parameter_paths(fd)

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
            paths = paths_cache.get(callee, ())
            if not paths:
                continue
            down_labels = down.get((fd.name, callee, label_mask(site.argument)))
            up_labels = up.get((fd.name, callee))
            if down_labels is None or up_labels is None:
                continue
            witness = _site_witness(site.argument, paths, occurrences, down_labels, up_labels)
            if witness:
                hints.append(
                    Hint(fd.name, callee, body_root_label(site), tuple(configs.unmask(witness)))
                )
    hints.sort(key=lambda h: (h.function, h.call_label))
    return hints


def _site_witness(
    argument: Pattern,
    paths: tuple[tuple[int, ...], ...],
    occurrences: dict[str, int],
    down_labels: int,
    up_labels: int,
) -> int:
    witness = 0
    for path in paths:
        sub = _subpattern_at(argument, path)
        if sub is None:
            continue
        names = [v.name for v in pattern_variables(sub)]
        if not names:
            continue  # a ground scrutinee component branches statically
        per_path = 0
        for name in names:
            occs = occurrences.get(name, 0)
            down_hits = occs & down_labels
            up_hits = occs & up_labels
            if not down_hits or not up_hits:
                per_path = 0
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
