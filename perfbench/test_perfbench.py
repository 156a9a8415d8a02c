"""Tests for the benchmark itself, on tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jeopardy_iaa import cli  # noqa: E402
from jeopardy_iaa.parser import parse  # noqa: E402
from jeopardy_iaa.syntax import validate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ANALYZE = ("analyze", None, "--format", "json")


def first(workload: str, seed: int, count: int) -> list[workloads.Job]:
    return list(itertools.islice(workloads.jobs(workload, seed), count))


def outcome(job: workloads.Job, tmp_path: Path) -> harness.Outcome:
    path = tmp_path / "job.jpd"
    if job.source is not None:
        path.write_text(job.source, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(ROOT)  # run jobs name fixtures relative to the checkout
    try:
        result = harness.run_in_process(cli.main, harness.argv(job, str(path)))
    finally:
        os.chdir(cwd)
    return harness.judge(job, *result)


@pytest.mark.parametrize("workload", sorted(workloads.STREAMS))
def test_same_seed_same_jobs(workload):
    assert first(workload, 7, 12) == first(workload, 7, 12)
    assert first(workload, 7, 12) != first(workload, 8, 12)


@pytest.mark.parametrize("workload", sorted(workloads.STREAMS))
def test_same_seed_same_probe(workload):
    assert workloads.probe(workload, 7) == workloads.probe(workload, 7)
    if workload in ("branchy", "ring"):
        assert workloads.probe(workload, 7) == []
    else:
        assert workloads.probe(workload, 7) != workloads.probe(workload, 8)
        assert not any(job.within_limits for job in workloads.probe(workload, 7))


@pytest.mark.parametrize("workload", ["branchy", "ring", "library"])
def test_programs_within_limits_parse_and_validate(workload):
    jobs = first(workload, 3, 12)
    assert all(job.within_limits for job in jobs)
    for job in jobs:
        assert validate(parse(job.source)) == []


def test_timed_run_jobs_succeed(tmp_path):
    jobs = first("run", 3, workloads.BLOCK["run"])
    assert all(job.within_limits for job in jobs)
    assert [outcome(job, tmp_path).kind for job in jobs] == ["ok"] * len(jobs)


@pytest.mark.parametrize("workload", ["library", "run"])
def test_probe_jobs_fail_cleanly_or_succeed(workload, tmp_path):
    known = {"library": {"ok", "traceback", "exit_1"}, "run": {"ok", "exit_3"}}[workload]
    for job in workloads.probe(workload, 3):
        assert outcome(job, tmp_path).kind in known, job.command


@pytest.mark.parametrize("k", range(1, 7))
def test_diamond_has_2_to_the_k_plus_2k_plus_1_configurations(k, tmp_path):
    source, reference = workloads.diamond(k, random.Random(k))
    assert reference.configurations == 2 ** k + 2 * k + 1
    job = workloads.Job("t", ANALYZE, source, reference, True)
    assert outcome(job, tmp_path).kind == "ok"


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_ring_has_3n_plus_1_configurations(n, tmp_path):
    source, reference = workloads.ring(n, random.Random(n))
    assert reference.configurations == 3 * n + 1
    job = workloads.Job("t", ANALYZE, source, reference, True)
    assert outcome(job, tmp_path).kind == "ok"


@pytest.mark.parametrize("chain", [0, 1, 3])
def test_library_chain_configurations(chain, tmp_path):
    source, reference = workloads.library(6, chain, 4, random.Random(chain))
    job = workloads.Job("t", ANALYZE, source, reference, True)
    assert outcome(job, tmp_path).kind == "ok"


def test_library_nesting_crosses_todays_limits(tmp_path):
    kinds = {}
    for nesting in (workloads.NESTING_OK[1] - 1, workloads.NESTING_RECURSION[0], workloads.NESTING_REFUSED[0]):
        source, reference = workloads.library(3, 1, nesting, random.Random(nesting))
        job = workloads.Job("t", ANALYZE, source, reference, False)
        kinds[nesting] = outcome(job, tmp_path).kind
    assert list(kinds.values())[0] == "ok"
    assert all(kind in ("ok", "traceback", "exit_1") for kind in kinds.values())


@pytest.mark.parametrize("traced", [False, True])
def test_run_references_match_the_evaluator(traced, tmp_path):
    for n in range(7):
        flag = ("--trace",) if traced else ()
        job = workloads.Job("t", ("run", workloads.FIB, str(n)) + flag, None, workloads.fib_reference(n, traced), True)
        assert outcome(job, tmp_path).kind == "ok", n
    for m, n in [(0, 0), (3, 2), (20, 7)]:
        args = ("run", workloads.SUM, f"({m}, {n})") + (("--trace",) if traced else ())
        job = workloads.Job("t", args, None, workloads.sum_reference(m, n, traced), True)
        assert outcome(job, tmp_path).kind == "ok", (m, n)


def test_check_rejects_a_wrong_report(tmp_path):
    source, reference = workloads.ring(3, random.Random(0))
    wrong = workloads.AnalyzeReference(reference.configurations + 1, reference.edges, reference.functions)
    assert outcome(workloads.Job("t", ANALYZE, source, wrong, True), tmp_path).kind == "wrong_output"
    wrong_run = workloads.sum_reference(3, 1, traced=False)
    job = workloads.Job("t", ("run", workloads.SUM, "(3, 2)"), None, wrong_run, True)
    assert outcome(job, tmp_path).kind == "wrong_output"


def test_benchmark_json_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.STREAMS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_baseline_records_the_generator_parameters():
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    for name, params in workloads.PARAMS.items():
        assert baseline["workloads"][name]["generator"] == json.loads(json.dumps(params))


def _main(*args: str) -> list[str]:
    out = io.StringIO()
    cwd = os.getcwd()
    try:
        with contextlib.redirect_stdout(out):
            assert run.main(list(args)) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printer_emits_every_metric_with_its_unit(trace):
    lines = _main("--workload", "run", "--seed", "1", "--seconds", "0.3", "--trace", trace)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    units = run.END_TO_END_UNITS if trace == "0" else {m["name"]: m["unit"] for m in wanted}
    printed = {line.split()[0]: line.split()[-1] for line in lines if not line.startswith(("#", "{"))}
    assert printed == units
    # one client: no thread left behind, every child process reaped
    assert threading.active_count() == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_layer_metrics_cover_the_per_layer_table():
    names = {m["name"] for m in SPEC["per_layer"]}
    tracer = spans.Tracer(cli)
    tracer.spans.extend(
        [(name, 0.0, 1.0, None, 0) for name in [*spans.WRAPPED, "json.dumps", "job"]]
    )
    counters = spans.Counters()
    for name in ("tokens", "configurations", "emitted", "evaluator_calls"):
        counters.add(name, 1)
    assert set(spans.layer_metrics(tracer.spans, counters, {}, 0.0, {0: 1.0})) == names
