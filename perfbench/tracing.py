"""Span recording around the program's public functions, from outside.

``install(recorder)`` replaces each function listed in ``SPANS`` with a
wrapper that records a span: name, start, end, parent span and job id.
The replacement is made in every ``compositae`` module that holds a
reference to the function, because the modules import each other's
functions by name.  Nothing under ``src/`` changes.

Spans stay in memory until ``Recorder.dump`` writes them out as JSON
lines.  ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); a dotted attribute names a method.
# Every writer of the formats layer records under one name.
SPANS = [
    ("cli.main", "compositae.cli", "main"),
    ("catalog.parse", "compositae.catalog", "parse_function_spec"),
    ("catalog.series", "compositae.catalog", "catalog_series"),
    ("series.mul", "compositae.series", "PowerSeries.__mul__"),
    ("series.div", "compositae.series", "PowerSeries.__truediv__"),
    ("series.pow", "compositae.series", "PowerSeries.__pow__"),
    ("triangle.from_series", "compositae.triangle", "composita_from_series"),
    ("calculus.compose_series", "compositae.calculus", "compose_series"),
    ("calculus.composita_compose", "compositae.calculus", "composita_compose"),
    ("calculus.inverse_series", "compositae.calculus", "inverse_series"),
    ("calculus.reciprocal", "compositae.calculus", "reciprocal_composita"),
    ("funceq.solve", "compositae.funceq", "solve_functional_equation"),
    ("riordan.build", "compositae.riordan", "riordan_build"),
    ("riordan.apply", "compositae.riordan", "riordan_apply"),
    ("identities.associativity", "compositae.identities", "check_associativity"),
    ("identities.derivative", "compositae.identities", "check_derivative_identity"),
    ("identities.inverse", "compositae.identities", "check_inverse_identity"),
    ("identities.funceq", "compositae.identities", "check_funceq_identity"),
] + [
    ("formats.render", "compositae.formats", writer)
    for writer in ("triangle_text", "triangle_csv", "triangle_records",
                   "series_text", "series_csv", "series_records")
]
SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))

# Counting done after a wrapped call returns is itself recorded as a span
# under this name, so it is charged to the trace, not to a layer.
COUNT_SPAN = "trace.count"


def _triangle_entries(order: int) -> int:
    return order * (order + 1) // 2


def _count_table(result) -> dict:
    bits = max(
        max(v.numerator.bit_length(), v.denominator.bit_length())
        for row in result.rows for v in row
    )
    return {"entries": _triangle_entries(result.order), "max_bits": bits}


def _count_solution(result) -> dict:
    return {"a_entries": _triangle_entries(result.a_table.order)}


_COUNTERS = {
    "triangle.from_series": _count_table,
    "funceq.solve": _count_solution,
}


class Recorder:
    """In-memory span list: [name, start, end, parent, job, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                count = [COUNT_SPAN, span[2], 0.0, span[3], self.job, None]
                spans.append(count)
                span[5] = counter(result)
                count[2] = perf_counter()
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job, counts in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                if counts:
                    record.update(counts)
                handle.write(json.dumps(record) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every function in ``SPANS`` wherever a compositae module holds it."""
    import compositae  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "compositae"]
    for name, module, attr in SPANS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, recorder.wrap(name, getattr(cls, method)))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def summarize(spans: list[dict]) -> dict:
    """Per-name call counts and self times, plus the counts at boundaries.

    A span's self time is its duration minus the durations of its direct
    children; the calls of one process never overlap, so the children
    of a span are disjoint.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span["name"]] += 1
        self_s[span["name"]] += span["end"] - span["start"] - child_time[i]

    built = [s for s in spans if s["name"] == "triangle.from_series"]
    # useful_ratio: entries of each outermost solve's a_table over the
    # entries of every triangle built beneath it.
    solve_root: dict[int, int] = {}
    useful = built_under_solve = 0
    for i, span in enumerate(spans):
        parent = span["parent"]
        root = solve_root.get(parent) if parent >= 0 else None
        if span["name"] == "funceq.solve" and root is None:
            solve_root[i] = i
            useful += span.get("a_entries", 0)
        elif root is not None:
            solve_root[i] = root
            if span["name"] == "triangle.from_series":
                built_under_solve += span.get("entries", 0)
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "entries_built": sum(s.get("entries", 0) for s in built),
        "max_bits": max((s.get("max_bits", 0) for s in built), default=0),
        "useful_ratio": useful / built_under_solve if built_under_solve else 0.0,
        "root_s": sum(s["end"] - s["start"] for s in spans if s["parent"] < 0),
    }
