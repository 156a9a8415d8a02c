"""Seeded job streams for the four benchmark workloads.

Each workload is an endless stream of jobs made from a ``random.Random``
seeded with the workload name and ``--seed``.  Sizes come in fixed
blocks: every block of jobs holds the same multiset of sizes, shuffled.
That keeps the median and 90th percentile inside one size class on
every seed, so that two runs of the same code read alike.

The timed streams hold only jobs well within today's limits, so no
timed job fails at this commit.  ``probe`` gives the jobs that cross
those limits: a short seeded list per workload, run once before timing,
whose failures are counted and reported.

Every job carries a reference that does not come from the analyzer:
closed-form configuration counts and call edges that follow from each
program's shape, the function names the generator wrote, and, for
``run`` jobs, results and call traces computed in Python.

This module does not import the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

TOP = "⊤"  # the analyzer's name for the top-level caller

FIB = "tests/fixtures/fib.jpd"
SUM = "tests/fixtures/main_sum.jpd"

# Today's limits, measured at the seed commit with the default recursion
# limit: desugar raises RecursionError from a constructor nesting of 330,
# the parser refuses one of 397, `run` exhausts the host stack from
# sum (198, n) and fib 12.  A timed job stays well below them and must
# succeed; a probe job crosses them and may fail, which is counted.
NESTING_OK = (150, 300)
NESTING_RECURSION = (340, 390)
NESTING_REFUSED = (410, 480)
SUM_WITHIN_LIMITS = 150
FIB_WITHIN_LIMITS = 9
SUM_BEYOND_LIMITS = (200, 400)
FIB_BEYOND_LIMITS = (12, 13, 14)

# Generator parameters.  Sizes are smaller than the hand measurements in
# ROADMAP item 1 so that an 18 s run holds over 100 jobs even when the
# host runs at half speed, which puts at least ten jobs beyond the 90th
# percentile.  Each block puts the median and the 90th percentile inside
# one size class, away from its edges.
PARAMS = {
    "branchy": {
        "program": "diamond-k: k sequential two-way cases, each branch calls a two-branch g",
        "block_k": [7, 7, 7, 8, 8, 8, 9, 9, 10, 10],
    },
    "ring": {
        "program": "ring-N: N functions, each calling the next",
        "block_n": [30, 30, 30, 60, 60, 60, 100, 100, 140, 140],
        "n_jitter": 5,
    },
    "library": {
        "program": "sugar-heavy filler functions, a short chain from main, one deep nesting",
        "block_functions": [110, 115, 120, 125, 130, 130, 135, 140, 146, 146],
        "functions_jitter": 4,
        "chain": [2, 6],
        "nesting": NESTING_OK,
        "probe_nesting": {"recursion": [NESTING_RECURSION] * 2, "refused": [NESTING_REFUSED] * 2},
    },
    "run": {
        "program": "run on fib.jpd and main_sum.jpd, a quarter of the jobs with --trace",
        "block_fib_n": list(range(FIB_WITHIN_LIMITS + 1)),
        "sum_m_strata": 5,
        "sum_m_max": SUM_WITHIN_LIMITS,
        "sum_n_max": 30,
        # the slowest fifth of a block, where the 90th percentile falls
        "traced_sum_m": [110, SUM_WITHIN_LIMITS],
        "traced_sum_strata": 4,
        "traced_fib_per_block": 1,
        "probe_fib_n": FIB_BEYOND_LIMITS,
        "probe_sum_m": [SUM_BEYOND_LIMITS] * 4,
    },
}


# jobs per block: every block holds the same multiset of sizes
BLOCK = {
    "branchy": len(PARAMS["branchy"]["block_k"]),
    "ring": len(PARAMS["ring"]["block_n"]),
    "library": len(PARAMS["library"]["block_functions"]),
    "run": len(PARAMS["run"]["block_fib_n"]) + PARAMS["run"]["sum_m_strata"]
    + PARAMS["run"]["traced_sum_strata"] + PARAMS["run"]["traced_fib_per_block"],
}


@dataclass(frozen=True)
class AnalyzeReference:
    configurations: int
    edges: frozenset  # of (caller, callee, direction)
    functions: frozenset  # names in the label index


@dataclass(frozen=True)
class RunReference:
    result: str
    calls: tuple | None  # (caller, callee, argument) per traced call, or None


@dataclass(frozen=True)
class Job:
    stratum: str  # size class, named in reports
    command: tuple  # CLI arguments; the file is ``source`` written to a path, or a fixture
    source: str | None
    reference: AnalyzeReference | RunReference
    within_limits: bool


# -- names ------------------------------------------------------------------


def _name(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.randrange(16 ** 4):04x}"


def _both(edges) -> frozenset:
    return frozenset((a, b, d) for a, b in edges for d in ("down", "up"))


# -- branchy ----------------------------------------------------------------


def diamond(k: int, rng: random.Random) -> tuple[str, AnalyzeReference]:
    """k sequential two-way cases; each result is the next scrutinee.

    Gives 2^k + 2k + 1 configurations: the k forward calls to g see one
    availability each, the backward walk enumerates the 2^k branch paths.
    """
    t, z, s = _name(rng, "t"), _name(rng, "z"), _name(rng, "s")
    f, g, x, y = _name(rng, "f"), _name(rng, "g"), _name(rng, "x"), _name(rng, "y")
    body = f"{x}{k}"
    for i in range(k, 0, -1):
        body = (
            f"case (case {x}{i - 1} of\n  ; [{z}] -> {g} {x}{i - 1}\n"
            f"  ; [{s} {y}{i}] -> {g} {y}{i}) of\n  ; {x}{i} -> {body}"
        )
    source = (
        f"data {t} = [{z}] [{s} {t}].\n\n"
        f"{g} v =\n  case v of\n  ; [{z}] -> [{z}]\n  ; [{s} w] -> [{s} w].\n\n"
        f"{f} {x}0 =\n  {body}.\n\nmain {f}.\n"
    )
    reference = AnalyzeReference(
        2 ** k + 2 * k + 1, _both([(TOP, f), (f, g)]), frozenset((f, g))
    )
    return source, reference


# -- ring -------------------------------------------------------------------


def ring(n: int, rng: random.Random) -> tuple[str, AnalyzeReference]:
    """n functions, each calling the next; 3n + 1 configurations."""
    t, z, s, prefix = _name(rng, "t"), _name(rng, "z"), _name(rng, "s"), _name(rng, "r")
    names = [f"{prefix}_{i}" for i in range(n)]
    parts = [f"data {t} = [{z}] [{s} {t}]."]
    for i, name in enumerate(names):
        parts.append(
            f"{name} x =\n  case x of\n  ; [{z}]   -> [{z}]\n  ; [{s} k] -> {names[(i + 1) % n]} k."
        )
    parts.append(f"main {names[0]}.")
    edges = [(TOP, names[0])] + [(names[i], names[(i + 1) % n]) for i in range(n)]
    return "\n\n".join(parts) + "\n", AnalyzeReference(3 * n + 1, _both(edges), frozenset(names))


# -- library ----------------------------------------------------------------

_NAT = "data natural_number = [zero] [successor natural_number]."


def _filler(name: str, rng: random.Random, pair_functions: list[str]) -> str:
    """One sugar-heavy function: let, tuples, lists, numerals, nested arguments."""
    shape = rng.randrange(5) if pair_functions else 0
    a, b = rng.randrange(7), rng.randrange(7)
    if shape == 0:
        return (
            f"{name} (a, b) =\n  let c : natural_number = {a} in\n"
            f"  (bump (bump a), (c : (b : ({b} : []))))."
        )
    callee = rng.choice(pair_functions)
    if shape == 1:
        return (
            f"{name} xs =\n  case xs of\n  ; (h : t) -> ({callee} (h, t), [successor {a}])\n"
            f"  ; [] -> ({b}, [])."
        )
    if shape == 2:
        return (
            f"{name} p =\n  case p of\n  ; (a, b) ->\n    let c = bump (bump b) in\n"
            f"    (c : (bump a : ({a} : ({b} : []))))."
        )
    if shape == 3:
        return f"{name} n = {callee} (bump (bump n), [successor [successor {a}]])."
    return (
        f"{name} q =\n  case q of\n  ; (x, (y, z)) -> let w = {callee} (x, (y : [])) in (w, (z, {a}))\n"
        f"  ; r -> ({callee} (r, {b}), r)."
    )


def library(
    functions: int, chain: int, nesting: int, rng: random.Random
) -> tuple[str, AnalyzeReference]:
    """Filler functions main never reaches, a chain main does, and one
    function whose body nests ``nesting`` constructors around a call.

    The chain c0 -> ... -> c{chain} -> bump gives 2 * chain + 4
    configurations.
    """
    prefix = _name(rng, "lib")
    parts = [_NAT, "bump n = [successor n]."]
    names = ["bump"]
    pair_functions: list[str] = []
    for i in range(functions):
        name = f"{prefix}_{i}"
        text = _filler(name, rng, pair_functions)
        if text.startswith(f"{name} (a, b)"):
            pair_functions.append(name)
        parts.append(text)
        names.append(name)
    links = [f"{prefix}_c{i}" for i in range(chain + 1)]
    for here, there in zip(links, links[1:]):
        parts.append(
            f"{here} x =\n  case x of\n  ; [zero] -> [zero]\n  ; [successor k] -> {there} k."
        )
    parts.append(f"{links[-1]} x = bump x.")
    deep = f"{prefix}_deep"
    parts.append(f"{deep} n = " + "[successor " * nesting + "(bump n)" + "]" * nesting + ".")
    parts.append(f"main {links[0]}.")
    names += links + [deep]
    edges = [(TOP, links[0])] + list(zip(links, links[1:])) + [(links[-1], "bump")]
    reference = AnalyzeReference(2 * chain + 4, _both(edges), frozenset(names))
    return "\n\n".join(parts) + "\n", reference


# -- run --------------------------------------------------------------------


def _nat(n: int) -> str:
    return "[successor " * n + "[zero]" + "]" * n


def _pair(a: str, b: str) -> str:
    return f"({a}, {b})"


def sum_reference(m: int, n: int, traced: bool) -> RunReference:
    calls = [(TOP, "sum", _pair(_nat(m), _nat(n)))]
    for i in range(1, m + 1):
        calls.append(("sum", "sum", _pair(_nat(m - i), _nat(n + i))))
    return RunReference(_nat(m + n), tuple(calls) if traced else None)


def fib_reference(n: int, traced: bool) -> RunReference:
    """fibonacci n = (second of fibonacci_pair n, n), with the call order
    of a strict evaluator that records each call before its body runs."""
    calls = [(TOP, "fibonacci", _nat(n))]

    def add(caller: str, m: int, k: int) -> int:
        calls.append((caller, "sum", _pair(_nat(m), _nat(k))))
        for i in range(1, m + 1):
            calls.append(("sum", "sum", _pair(_nat(m - i), _nat(k + i))))
        return m + k

    def fib_pair(caller: str, k: int) -> tuple[int, int]:
        calls.append((caller, "fibonacci_pair", _nat(k)))
        if k == 0:
            return 1, 1
        m, j = fib_pair("fibonacci_pair", k - 1)
        calls.append(("fibonacci_pair", "fibber", _pair(_nat(m), _nat(j))))
        return add("fibber", m, j), m

    _, nth = fib_pair("fibonacci", n)
    return RunReference(_pair(_nat(nth), _nat(n)), tuple(calls) if traced else None)


# -- streams ----------------------------------------------------------------


def _analyze(source_and_reference, stratum: str, within_limits: bool = True) -> Job:
    source, reference = source_and_reference
    return Job(stratum, ("analyze", None, "--format", "json"), source, reference, within_limits)


def _branchy(rng: random.Random) -> Iterator[Job]:
    while True:
        for k in _shuffled(PARAMS["branchy"]["block_k"], rng):
            yield _analyze(diamond(k, rng), f"k={k}")


def _ring(rng: random.Random) -> Iterator[Job]:
    p = PARAMS["ring"]
    while True:
        for n in _shuffled(p["block_n"], rng):
            yield _analyze(ring(n + rng.randrange(p["n_jitter"]), rng), f"N~{n}")


def _library(rng: random.Random) -> Iterator[Job]:
    p = PARAMS["library"]
    while True:
        for functions in _shuffled(p["block_functions"], rng):
            program = library(
                functions + rng.randrange(p["functions_jitter"]),
                rng.randrange(*p["chain"]),
                rng.randrange(*p["nesting"]),
                rng,
            )
            yield _analyze(program, f"functions~{functions}")


def _sum_job(m: int, rng: random.Random, trace: bool, within_limits: bool) -> Job:
    n = rng.randrange(PARAMS["run"]["sum_n_max"])
    flag = ("--trace",) if trace else ()
    return Job(
        f"sum{'+trace' if trace else ''}", ("run", SUM, f"({m}, {n})") + flag, None,
        sum_reference(m, n, trace), within_limits,
    )


def _fib_job(n: int, trace: bool, within_limits: bool) -> Job:
    flag = ("--trace",) if trace else ()
    return Job(
        f"fib{'+trace' if trace else ''}", ("run", FIB, str(n)) + flag, None,
        fib_reference(n, trace), within_limits,
    )


def _strata(low: int, high: int, count: int, rng: random.Random) -> list[int]:
    """One value from each of ``count`` equal strata of [low, high)."""
    width = (high - low) // count
    return [low + i * width + rng.randrange(width) for i in range(count)]


def _run(rng: random.Random) -> Iterator[Job]:
    p = PARAMS["run"]
    while True:
        block = [("fib", n, False) for n in p["block_fib_n"]]
        block += [("fib", rng.choice(p["block_fib_n"]), True) for _ in range(p["traced_fib_per_block"])]
        block += [("sum", m, False) for m in _strata(0, p["sum_m_max"], p["sum_m_strata"], rng)]
        block += [("sum", m, True) for m in _strata(*p["traced_sum_m"], p["traced_sum_strata"], rng)]
        for kind, size, trace in _shuffled(block, rng):
            yield _fib_job(size, trace, True) if kind == "fib" else _sum_job(size, rng, trace, True)


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


STREAMS = {"branchy": _branchy, "ring": _ring, "library": _library, "run": _run}


def jobs(workload: str, seed: int) -> Iterator[Job]:
    """The workload's job stream; the same seed gives the same jobs."""
    return STREAMS[workload](random.Random(f"{workload}:{seed}"))


def probe(workload: str, seed: int) -> list[Job]:
    """Jobs that cross today's limits, for the workloads that have them:
    library sources nested past desugar's and the parser's limits, and
    ``run`` inputs past the host stack.  The same seed gives the same jobs."""
    rng = random.Random(f"probe:{workload}:{seed}")
    p = PARAMS[workload]
    if workload == "library":
        low, high = p["block_functions"][0], p["block_functions"][-1] + p["functions_jitter"]
        return [
            _analyze(
                library(rng.randrange(low, high), rng.randrange(*p["chain"]), rng.randrange(*nesting), rng),
                kind, within_limits=False,
            )
            for kind, ranges in p["probe_nesting"].items()
            for nesting in ranges
        ]
    if workload == "run":
        fibs = [_fib_job(n, rng.random() < 0.5, False) for n in p["probe_fib_n"]]
        return fibs + [
            _sum_job(rng.randrange(*m), rng, rng.random() < 0.5, False) for m in p["probe_sum_m"]
        ]
    return []
