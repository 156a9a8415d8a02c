"""Benchmark for the ``analyze`` and ``run`` commands of jeopardy-iaa.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Works in the checkout that holds this file.  Workloads (generator
parameters in ``workloads.PARAMS``): ``branchy`` (diamond-k), ``ring``
(ring-N), ``library`` (large sugar-heavy sources) and ``run`` (the
evaluator on fib.jpd and main_sum.jpd).

Every timed job stays well within today's limits, so none fails at
this commit.  Before timing, ``library`` and ``run`` also run a short
seeded probe of jobs that cross those limits (``workloads.probe``); its
failures count in ``ok_frac`` and in the exit counts of the traced run,
not in the timing samples or in the result line's ``failed``.

Load is a closed loop with one client: one job at a time in this
process, and at most one CLI subprocess at a time, each waited for.
Interpreter settings stay at their defaults, so in-process jobs meet the
same recursion limit and garbage collector as the command.

``--trace 0`` measures the end-to-end metrics: the in-process job loop
for ``--seconds``, in parts, each followed by a seeded sample of its
jobs as real ``python -m jeopardy_iaa`` subprocesses and by the start-up
of a process that only imports ``jeopardy_iaa.cli``.  ``--trace 1`` runs jobs for
half the time untraced, then the same jobs again with a span around
every call ``jeopardy_iaa.cli`` makes into another module, and reports
per-layer metrics and the tracing overhead.

All times are wall times scaled to a reference host speed (see
``hostspeed.py``); the unscaled in-process figures are printed as a
comment.  Every job's output is checked against a reference the
analyzer did not produce.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without the program's sources (``src/jeopardy_iaa``) the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import harness
import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench-work")
ORACLE = "tests/fixtures/fib_oracle.json"
# The timed loop runs in PARTS, each followed by SETUP_SAMPLES start-ups
# and one block of its jobs (the workload's size mix) as subprocesses,
# so that subprocess figures sample the whole run.
PARTS = 4
SETUP_SAMPLES = 5
CALIBRATE_EVERY_S = 0.1  # of job time
GATE_RUN_N = 6

# The end-to-end metrics.  ok_frac is 1 - failed_frac, over the timed
# jobs and the limit probe; BENCHMARK.json bounds it because failed_frac
# reads 0 on workloads without a probe.
END_TO_END_UNITS = {
    "job_s_p50": "s",
    "job_s_p90": "s",
    "jobs_per_s": "1/s",
    "cli_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "ok_frac": "ratio",
}


class Run:
    """One benchmark run: the program under test, its jobs and findings."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.problems: list[str] = []  # reasons the run is not correct
        self.stream = workloads.jobs(workload, seed)
        self.probe_jobs = workloads.probe(workload, seed)
        self.jobs: list[workloads.Job] = []
        self.speed = hostspeed.HostSpeed()

    # -- jobs -------------------------------------------------------------

    def job(self, index: int) -> workloads.Job:
        while len(self.jobs) <= index:
            job = next(self.stream)
            if job.source is not None:
                (self.work / f"{len(self.jobs)}.jpd").write_text(job.source, encoding="utf-8")
            self.jobs.append(job)
        return self.jobs[index]

    def args(self, index: int) -> list[str]:
        job = self.job(index)
        return harness.argv(job, str(self.work / f"{index}.jpd") if job.source else None)

    def in_process(self, index: int) -> harness.Outcome:
        seconds, code, stdout, stderr = harness.run_in_process(self.cli.main, self.args(index))
        return self.judged(index, harness.judge(self.job(index), seconds, code, stdout, stderr))

    def judged(self, index: int, outcome: harness.Outcome) -> harness.Outcome:
        job = self.job(index)
        if outcome.kind == "wrong_output":
            self.problems.append(f"job {index} ({job.stratum}): {outcome.detail}")
        elif outcome.kind != "ok" and job.within_limits:
            self.problems.append(
                f"job {index} ({job.stratum}) is within today's limits but gave "
                f"{outcome.kind}: {outcome.detail}"
            )
        return outcome

    def loop(
        self, seconds: float, count: float = math.inf, job=None, first: int = 0
    ) -> tuple[list, list[float]]:
        """Closed loop: run jobs from index ``first`` on, back to back,
        until ``seconds`` have passed or ``count`` jobs ran, checking each
        output between jobs and sampling the host's speed after every
        ``CALIBRATE_EVERY_S`` of job time.  Returns the outcomes and their
        times scaled to reference speed."""
        job = job or self.in_process
        outcomes, starts = [], []
        deadline = perf_counter() + seconds
        since_sample = CALIBRATE_EVERY_S
        while perf_counter() < deadline and len(outcomes) < count:
            if since_sample >= CALIBRATE_EVERY_S:
                self.speed.sample()
                since_sample = 0.0
            starts.append(perf_counter())
            outcomes.append(job(first + len(outcomes)))
            since_sample += outcomes[-1].seconds
        self.speed.sample()
        scaled = [o.seconds * self.speed.scale(at, at + o.seconds) for o, at in zip(outcomes, starts)]
        return outcomes, scaled

    # -- checks before timing ---------------------------------------------

    def gate(self) -> None:
        """The analysis of fib.jpd must match the hand-derived oracle, and
        running it must match the Python reference."""
        oracle = json.loads(Path(ORACLE).read_text(encoding="utf-8"))
        _, code, stdout, stderr = harness.run_in_process(
            self.cli.main, ["analyze", workloads.FIB, "--format", "json"]
        )
        if code != 0:
            self.problems.append(f"fib.jpd analysis exited {code}: {stderr.strip()[:120]}")
            return
        report = json.loads(stdout)
        for key in ("configurations", "hints"):
            if report[key] != oracle[key]:
                self.problems.append(f"fib.jpd {key} differ from {ORACLE}")
        if len(report["labels"]) != oracle["label_count"]:
            self.problems.append(f"fib.jpd has {len(report['labels'])} labels, oracle {oracle['label_count']}")
        job = workloads.Job(
            "gate", ("run", workloads.FIB, str(GATE_RUN_N)), None,
            workloads.fib_reference(GATE_RUN_N, False), True,
        )
        outcome = harness.judge(job, *harness.run_in_process(self.cli.main, list(job.command)))
        if outcome.kind != "ok":
            self.problems.append(f"run fib.jpd {GATE_RUN_N}: {outcome.kind} {outcome.detail}")

    def limits(self) -> list[harness.Outcome]:
        """Run each limit probe job once, in-process.  A failure is
        counted; a wrong result is not correct."""
        outcomes = []
        for index, job in enumerate(self.probe_jobs):
            path = self.work / f"probe-{index}.jpd"
            if job.source is not None:
                path.write_text(job.source, encoding="utf-8")
            result = harness.run_in_process(self.cli.main, harness.argv(job, str(path)))
            outcome = harness.judge(job, *result)
            if outcome.kind == "wrong_output":
                self.problems.append(f"probe job {index} ({job.stratum}): {outcome.detail}")
            outcomes.append(outcome)
        return outcomes

    # -- subprocesses -----------------------------------------------------

    def subprocesses(self, launcher: harness.Launcher, commands: list[list[str]]) -> list[tuple]:
        """Run ``python ARGS`` for each command, one after another; each
        result's seconds are scaled to reference speed."""
        results, starts = [], []
        for args in commands:
            self.speed.sample()
            starts.append(perf_counter())
            results.append(launcher.run(args))
        self.speed.sample()
        return [(r[0] * self.speed.scale(at, at + r[0]), *r[1:]) for r, at in zip(results, starts)]

    def setup_seconds(self, launcher: harness.Launcher) -> list[float]:
        """Start-up every invocation pays: a process that only imports the CLI."""
        results = self.subprocesses(launcher, [["-c", "import jeopardy_iaa.cli"]] * SETUP_SAMPLES)
        for _, code, _, stderr, _ in results:
            if code != 0:
                self.problems.append(f"importing jeopardy_iaa.cli failed: {stderr.strip()[-120:]}")
        return [r[0] for r in results]

    def cli_samples(
        self, launcher: harness.Launcher, outcomes: list[harness.Outcome], first: int
    ) -> tuple[list[float], list[int]]:
        """Run a seeded sample of the timed jobs from index ``first`` on as
        the real command: one block from a seeded block boundary.  Its
        stdout must equal the in-process bytes."""
        block = workloads.BLOCK[self.workload]
        starts = [i for i in range(first, len(outcomes) - block + 1) if i % block == 0] or [first]
        start = random.Random(f"cli:{self.workload}:{self.seed}:{first}").choice(starts)
        chosen = range(start, min(start + block, len(outcomes)))
        results = self.subprocesses(launcher, [["-m", "jeopardy_iaa", *self.args(i)] for i in chosen])
        for index, (seconds, code, stdout, stderr, _) in zip(chosen, results):
            mine = outcomes[index]
            theirs = self.judged(index, harness.judge(self.job(index), seconds, code, stdout, stderr))
            if theirs.kind != mine.kind or theirs.digest != mine.digest:
                self.problems.append(
                    f"job {index}: command gave {theirs.kind}, in-process {mine.kind}; "
                    f"stdout {'equal' if theirs.digest == mine.digest else 'differs'}"
                )
        return [r[0] for r in results], [r[4] for r in results]


def end_to_end(times: list[float], outcomes, probed, setup, cli_times, rss) -> dict:
    failed = sum(o.kind != "ok" for o in outcomes + probed)
    executed = len(outcomes) + len(probed)
    return {
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[-1],
        "jobs_per_s": len(times) / sum(times),
        "cli_s_p50": statistics.median(cli_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss) / 1024,
        "failed_frac": failed / executed,
        "ok_frac": 1 - failed / executed,
    }


def measure(run: Run, seconds: float, probed: list) -> tuple[list, dict, list[str]]:
    """The untraced run: end-to-end metrics and notes on the samples."""
    warm = run.in_process(0)  # fills caches; compared with the timed run of job 0
    outcomes, times, setup, cli_times, rss = [], [], [], [], []
    launcher = harness.Launcher(run.env, run.work)
    try:
        for _ in range(PARTS):
            first = len(outcomes)
            part, part_times = run.loop(seconds / PARTS, first=first)
            outcomes += part
            times += part_times
            setup += run.setup_seconds(launcher)
            part_cli, part_rss = run.cli_samples(launcher, outcomes, first)
            cli_times += part_cli
            rss += part_rss
    finally:
        launcher.close()
    if outcomes[0].digest != warm.digest:
        run.problems.append("two in-process runs of job 0 wrote different bytes")
    metrics = end_to_end(times, outcomes, probed, setup, cli_times, rss)
    raw = [o.seconds for o in outcomes]
    units = run.speed.seconds
    notes = [
        f"samples: {len(times)} jobs, {sum(t > metrics['job_s_p90'] for t in times)} beyond p90; "
        f"{len(cli_times)} CLI subprocesses; {len(setup)} start-ups",
        f"host speed: {len(units)} calibration units, median {statistics.median(units):.5f} s, "
        f"range {min(units):.5f}-{max(units):.5f} s, reference {hostspeed.REFERENCE_UNIT_S} s",
        f"unscaled in-process wall time: job_s_p50 {statistics.median(raw):.6g}, "
        f"job_s_p90 {statistics.quantiles(raw, n=10)[-1]:.6g}, jobs_per_s {len(raw) / sum(raw):.6g}",
    ]
    return outcomes, metrics, notes


def trace(run: Run, seconds: float, probed: list) -> tuple[list, dict, list[str]]:
    """The traced run: jobs untraced, then the same jobs traced."""
    run.in_process(0)  # warm-up, as in the untraced run
    untraced, untraced_times = run.loop(seconds / 2)
    tracer = spans.Tracer(run.cli)
    counters = spans.Counters()
    job_span = tracer.wrap("job", harness.run_in_process)
    intervals: dict = {}

    def traced(index, args: list[str]) -> tuple:
        tracer.job = index
        start = perf_counter()
        result = job_span(run.cli.main, args)
        intervals[index] = (start, perf_counter())
        counters.take(tracer.captured)
        counters.add("output_bytes", len(result[2]))
        return result

    def traced_job(index: int) -> harness.Outcome:
        seconds, code, stdout, stderr = traced(index, run.args(index))
        return run.judged(index, harness.judge(run.job(index), seconds, code, stdout, stderr))

    tracer.install()
    try:
        # the reference gate first, so every layer has spans on every workload
        traced("gate0", ["analyze", workloads.FIB, "--format", "json"])
        traced("gate1", ["run", workloads.FIB, str(GATE_RUN_N)])
        outcomes, traced_times = run.loop(math.inf, len(untraced), traced_job)
    finally:
        tracer.remove()
    scale = {job: run.speed.scale(*interval) for job, interval in intervals.items()}
    overhead = statistics.median(traced_times) - statistics.median(untraced_times)
    exits = Counter(o.kind for o in outcomes + probed)
    metrics = spans.layer_metrics(tracer.spans, counters, exits, overhead, scale)
    out = run.work.parent / f"spans-{run.workload}-{run.seed}.json"
    out.write_text(json.dumps(tracer.records()), encoding="utf-8")
    notes = [f"samples: {len(outcomes)} traced jobs, {len(tracer.spans)} spans in {out}"]
    return outcomes, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not Path("src/jeopardy_iaa/cli.py").is_file():
        print("perfbench: src/jeopardy_iaa not found; run inside a checkout", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import jeopardy_iaa.cli as cli

    if Path(cli.__file__).resolve() != (ROOT / "src/jeopardy_iaa/cli.py").resolve():
        print(f"perfbench: imported {cli.__file__}, not this checkout's", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(cli, args.workload, args.seed, work)
        run.gate()
        probed = run.limits()
        outcomes, metrics, notes = (trace if args.trace else measure)(run, args.seconds, probed)
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
        f"load=closed-loop clients=1 subprocesses-at-once=1 threads={threading.active_count()}"
    )
    for note in notes:
        print(f"# {note}")
    print(f"# outcomes: {dict(sorted(Counter(o.kind for o in outcomes).items()))}")
    if probed:
        kinds = dict(sorted(Counter(o.kind for o in probed).items()))
        print(f"# limit probe: {len(probed)} jobs past today's limits, outcomes {kinds}")
    for problem in run.problems[:20]:
        print(f"# INCORRECT: {problem}")
    units = {m["name"]: m["unit"] for m in wanted} if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": len(outcomes),
        "failed": sum(o.kind != "ok" for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
