"""Span recorder for the traced run, and the layer metrics derived from spans.

``Recorder.install`` replaces mvskew's public functions at every module
attribute through which the CLI and the library modules call them (for
example ``mvskew.cli.load_csv``, ``mvskew.projection.standardize`` and
``mvskew.bootstrap.max_skew``). Each call then records a span: name, start,
end, parent span and the exception type if it raised. Spans stay in memory
until ``dump`` writes them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

import numpy as np

# defining module -> public functions the traced run wraps
TARGETS = {
    "cli": ("main",),
    "data": ("load_csv", "covariance", "inv_sqrt", "standardize"),
    "moments": ("third_moment",),
    "measures": ("fisher_skew", "mardia_skewness", "partial_skewness"),
    "projection": ("max_skew",),
    "symmetrize": ("min_skew",),
    "bootstrap": ("skew_boot",),
}


def _rows_cols(args, kwargs) -> dict:
    n, d = np.shape(getattr(args[0], "values", args[0]))
    return {"n": n, "d": d}


# extra fields recorded on a span, computed from the call's arguments
NOTES = {
    "data.load_csv": lambda args, kwargs: {"bytes": os.path.getsize(args[0])},
    "moments.third_moment": _rows_cols,
    "bootstrap.skew_boot": lambda args, kwargs: {"replicates": kwargs["replicates"]},
}


class Recorder:
    """Spans of one process's calls into the wrapped functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            if note is not None:
                span.update(note(args, kwargs))
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at every mvskew module attribute bound to it."""
        modules = {short: importlib.import_module(f"mvskew.{short}") for short in TARGETS}
        wrappers = {}
        for short, names in TARGETS.items():
            for name in names:
                fn = getattr(modules[short], name)
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is not None and value is fn:
                    setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    """Spans a traced job wrote; none if it ended before writing them."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def job_totals(spans: list[dict]) -> Counter:
    """Sums over one job's spans: self time, calls, errors and the noted fields."""
    covered = Counter()
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    by_id = {span["id"]: span for span in spans}
    totals = Counter()
    for span in spans:
        name, duration = span["name"], span["end"] - span["start"]
        totals[f"{name}.self"] += duration - covered[span["id"]]
        totals[f"{name}.total"] += duration
        totals[f"{name}.calls"] += 1
        totals[f"{name}.errors"] += "error" in span
        for key in ("bytes", "replicates"):
            totals[f"{name}.{key}"] += span.get(key, 0)
        if name == "moments.third_moment":
            totals["gflop"] += 2 * span["n"] * span["d"] ** 3 / 1e9
            totals["mb_moved"] += span["n"] * span["d"] ** 2 * 8 / 1e6
        parent = by_id.get(span["parent"])
        if (parent is not None and parent["name"] == "bootstrap.skew_boot"
                and span.get("error") == "SingularityError"):
            totals["redraws"] += 1
    return totals


def layer_metrics(totals: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its summed job totals."""
    out = {
        "cli.self_s": totals["cli.main.self"],
        "cli.main.calls": totals["cli.main.calls"],
        "cli.main.errors": totals["cli.main.errors"],
    }
    for short, names in TARGETS.items():
        for name in names:
            key = f"{short}.{name}"
            if key == "cli.main":
                continue
            out[f"{key}.s"] = totals[f"{key}.self"]
            out[f"{key}.calls"] = totals[f"{key}.calls"]
            out[f"{key}.errors"] = totals[f"{key}.errors"]

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    out["data.load_csv.mb_per_s"] = rate(totals["data.load_csv.bytes"] / 1e6,
                                         totals["data.load_csv.total"])
    out["moments.third_moment.gflop"] = totals["gflop"]
    out["moments.third_moment.mb_moved"] = totals["mb_moved"]
    out["bootstrap.skew_boot.replicates_per_s"] = rate(
        totals["bootstrap.skew_boot.replicates"], totals["bootstrap.skew_boot.total"])
    out["bootstrap.redraws"] = totals["redraws"]
    return out
