"""Running one job through the real command path, and judging its result.

A job runs either in-process, through ``jeopardy_iaa.cli.main`` with
standard output captured as the UTF-8 bytes the command would write, or
as a ``python -m jeopardy_iaa`` subprocess started by ``launcher.py``,
whose wall time and peak RSS come from ``os.wait4``.  Subprocesses run
one at a time, and each is waited for before the next starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import AnalyzeReference, Job

_CALL_LINE = re.compile(r"call (\S+) -> (\S+) @ (?:input|\d+): (.*)")


@dataclass(frozen=True)
class Outcome:
    seconds: float
    kind: str  # "ok", "wrong_output", "traceback", or "exit_<code>"
    digest: str  # sha256 of stdout
    detail: str  # first line of the complaint, for failures


def argv(job: Job, path: str | None) -> list[str]:
    """The job's command line, with its generated source at ``path``."""
    return [path if part is None else part for part in job.command]


def run_in_process(main, args: list[str]) -> tuple[float, int | None, bytes, str]:
    """Time ``main(args)`` from reading the file to the bytes written.

    Returns seconds, the exit code (None when an exception escaped),
    stdout bytes and stderr text, which for an escaped exception is its
    traceback.
    """
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    code: int | None
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as stop:  # argparse refusing the command line
            code = stop.code if isinstance(stop.code, int) else 1
        except Exception as error:  # an escaped traceback is a result to count
            code = None
            err.write("Traceback (most recent call last):\n")
            err.write("".join(traceback.format_exception_only(error)))
        out.flush()
    seconds = perf_counter() - start
    return seconds, code, out.buffer.getvalue(), err.getvalue()


class Launcher:
    """A small long-lived process that runs ``python ARGS`` children for
    us, so their max RSS is not inflated by this process's own."""

    def __init__(self, env: dict, work: Path):
        self.work = work
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, args: list[str]) -> tuple[float, int, bytes, str, int]:
        """Run ``python ARGS`` to completion; returns seconds, exit code,
        stdout, stderr and the child's max RSS in KiB."""
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"args": args, "stdout": str(out), "stderr": str(err)}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        answer = json.loads(self.process.stdout.readline())
        stderr = err.read_bytes().decode("utf-8", "replace")
        return answer["seconds"], answer["code"], out.read_bytes(), stderr, answer["maxrss"]

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


def judge(job: Job, seconds: float, code: int | None, stdout: bytes, stderr: str) -> Outcome:
    """Classify a finished job: a traceback, a non-zero exit, or an exit 0
    whose output does or does not match the job's reference."""
    digest = hashlib.sha256(stdout).hexdigest()
    if code is None or "Traceback (most recent call last)" in stderr:
        return Outcome(seconds, "traceback", digest, stderr.strip().splitlines()[-1])
    if code != 0:
        return Outcome(seconds, f"exit_{code}", digest, (stderr.strip().splitlines() or [""])[0])
    complaint = check(job, stdout)
    return Outcome(seconds, "wrong_output" if complaint else "ok", digest, complaint or "")


def check(job: Job, stdout: bytes) -> str | None:
    """Compare a successful job's output with its reference."""
    text = stdout.decode("utf-8")
    reference = job.reference
    if isinstance(reference, AnalyzeReference):
        report = json.loads(text)
        rows = report["configurations"]
        if len(rows) != reference.configurations:
            return f"{len(rows)} configurations, expected {reference.configurations}"
        edges = {(r["caller"], r["callee"], r["direction"]) for r in rows}
        if edges != reference.edges:
            return f"call edges {sorted(edges ^ reference.edges)[:3]} differ"
        functions = {info["function"] for info in report["labels"].values()}
        if functions != reference.functions:
            return f"label index covers {sorted(functions ^ reference.functions)[:3]} wrongly"
        return None
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 2:
        return "output does not end in one newline"
    if lines[-2] != reference.result:
        return f"result {lines[-2][:60]!r}, expected {reference.result[:60]!r}"
    traced = lines[:-2]
    expected = reference.calls or ()
    if len(traced) != len(expected):
        return f"{len(traced)} trace lines, expected {len(expected)}"
    for index, (line, call) in enumerate(zip(traced, expected)):
        match = _CALL_LINE.fullmatch(line)
        if match is None or match.groups() != call:
            return f"trace line {index + 1} is {line[:60]!r}, expected {call!r}"[:160]
    return None
