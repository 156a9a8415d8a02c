"""Spans around the calls that ``jeopardy_iaa.cli`` makes into each module.

``Tracer.install`` rebinds the public functions as they are named in
``jeopardy_iaa.cli`` to timing wrappers, so ``cli.main`` runs the same
code with a span around each layer; ``remove`` puts the originals back.
Nothing under ``src/`` is edited.  Spans stay in memory until the run
ends.  Counts that need extra work (tokens, emitted configurations) are
taken after each job, outside every span.
"""

from __future__ import annotations

import json
import types
from collections import defaultdict
from time import perf_counter

# name in jeopardy_iaa.cli -> layer it belongs to
WRAPPED = {
    "parse": "front_end",
    "validate": "front_end",
    "desugar_program": "front_end",
    "annotate": "front_end",
    "configurations": "analysis",
    "symmetry_hints": "analysis",
    "analysis_report": "report",
    "run_main": "evaluator",
    "parse_value": "evaluator",
    "validate_value": "evaluator",
    "pretty_value": "evaluator",
}
_CAPTURED = ("parse", "annotate", "configurations", "symmetry_hints", "run_main")


class Tracer:
    def __init__(self, cli):
        self.cli = cli
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.job = None
        self.captured: list = []  # (name, args, result) of the current job
        self._stack: list[int] = []
        self._saved: dict = {}

    def install(self) -> None:
        for name in WRAPPED:
            self._saved[name] = getattr(self.cli, name)
            setattr(self.cli, name, self.wrap(name, self._saved[name]))
        self._saved["json"] = self.cli.json
        self.cli.json = types.SimpleNamespace(dumps=self.wrap("json.dumps", json.dumps))

    def remove(self) -> None:
        for name, original in self._saved.items():
            setattr(self.cli, name, original)
        self._saved.clear()

    def wrap(self, name: str, function):
        spans, stack, captured = self.spans, self._stack, self.captured
        keep = name in _CAPTURED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if keep:
                captured.append((name, args, result))
            return result

        return traced

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


class Counters:
    """Work counts per layer, from the values the wrapped calls saw."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value
        self.calls[name] += 1

    def mean(self, name: str) -> float:
        return self.sums[name] / max(self.calls[name], 1)

    def take(self, captured: list) -> None:
        from jeopardy_iaa.analysis import call
        from jeopardy_iaa.parser import tokenize

        labeled = None
        for name, args, result in captured:
            if name == "parse":
                self.add("tokens", len(tokenize(args[0])) - 1)  # less the end marker
            elif name == "annotate":
                labeled = result
                self.add("labels", len(result.index))
            elif name == "configurations":
                self.add("configurations", len(result))
                self.add("emitted", sum(len(call(c, args[0])) for c in result))
                for config in result:
                    self.add("implicit_labels", len(config.implicit_labels))
            elif name == "symmetry_hints":
                self.add("hints", len(result))
                kinds = (info.kind for info in labeled.index.values())
                self.add("call_sites", sum(kind == "application" for kind in kinds))
            elif name == "run_main":
                self.add("evaluator_calls", len(result[1]))
        captured.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(
    spans: list, counters: Counters, exits: dict, overhead: float, scale: dict
) -> dict:
    """Per-layer metrics: mean self seconds per call, work counts and
    rates, each layer's share of traced job time, failure counts.
    ``scale`` maps each job id to the factor that brings its times to
    reference host speed."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for (name, _, _, _, job), seconds in zip(spans, own):
        total[name] += seconds * scale[job]
        count[name] += 1

    def per_call(name: str) -> float:
        return total[name] / max(count[name], 1)

    job_time = sum(total.values())  # every span lies inside a job span
    share = defaultdict(float)
    for name, seconds in total.items():
        share[WRAPPED.get(name, "report" if name == "json.dumps" else "other")] += seconds
    c = counters
    return {
        "parser.parse_s": per_call("parse"),
        "parser.tokens_per_s": c.sums["tokens"] / total["parse"],
        "syntax.validate_s": per_call("validate"),
        "desugar.desugar_s": per_call("desugar_program"),
        "labeler.annotate_s": per_call("annotate"),
        "labeler.labels": c.mean("labels"),
        "analysis.configurations_s": per_call("configurations"),
        "analysis.configurations": c.mean("configurations"),
        "analysis.configs_per_s": c.sums["configurations"] / total["configurations"],
        "analysis.new_config_ratio": c.sums["configurations"] / c.sums["emitted"],
        "analysis.implicit_labels_mean": c.mean("implicit_labels"),
        "analysis.symmetry_hints_s": per_call("symmetry_hints"),
        "analysis.call_sites": c.mean("call_sites"),
        "analysis.hints": c.mean("hints"),
        "cli.report_self_s": per_call("analysis_report"),
        "cli.json_s": per_call("json.dumps"),
        "cli.output_mb": c.mean("output_bytes") / 2 ** 20,
        "evaluator.run_main_s": per_call("run_main"),
        "evaluator.calls": c.mean("evaluator_calls"),
        "evaluator.calls_per_s": c.sums["evaluator_calls"] / total["run_main"],
        "parser.parse_value_s": per_call("parse_value"),
        "syntax.validate_value_s": per_call("validate_value"),
        "printer.pretty_value_s": per_call("pretty_value"),
        "cli.exit_1": exits.get("exit_1", 0),
        "cli.exit_3": exits.get("exit_3", 0),
        "cli.tracebacks": exits.get("traceback", 0),
        "front_end.share": share["front_end"] / job_time,
        "analysis.share": share["analysis"] / job_time,
        "report.share": share["report"] / job_time,
        "evaluator.share": share["evaluator"] / job_time,
        "trace.overhead_s": overhead,
    }

