"""Spans recorded from outside swigc, by wrapping its public functions.

The tracer replaces each traced function at every ``swigc`` module that
binds it (``d_separated`` is bound in ``dsep``, ``identify``, ``cli`` and
the package itself), so calls between modules are seen without any change
to the program.  Spans nest through a stack, stay in memory as tuples and
are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer (swigc module) -> public functions whose calls are timed.
TRACED = {
    "dsl": ("parse_study", "serialize"),
    "estimand": ("compile_study",),
    "swig": ("split",),
    "dsep": ("d_separated", "open_paths"),
    "identify": ("identify_estimand", "identify_term"),
    "formula": ("render",),
    "oracle": (
        "random_scm",
        "enumerate_table",
        "eval_formula",
        "true_estimand",
        "validate_consistency",
        "check_soundness",
    ),
    "markup": ("to_tikz", "to_dot"),
    "graph": ("canonical_json",),
    "cli": ("main",),
}


def _scm_counts(scm) -> dict:
    return {"entries": sum(len(eq.table) for eq in scm.equations.values())}


def _table_counts(table) -> dict:
    return {
        "rows": len(table.rows),
        "worlds": len(table.contexts),
        "cells": sum(len(row.values) for row in table.rows),
    }


# Counts read from the returned objects of these functions.
COUNTERS = {"oracle.random_scm": _scm_counts, "oracle.enumerate_table": _table_counts}

REQUEST = "request"

# Span fields, in tuple order.
ID, PARENT, NAME, START, END, COUNTS = range(6)


class Tracer:
    """Collects spans; ``stack`` holds the ids of the spans still open."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.patched: list[tuple] = []
        self.missing: list[str] = []

    def call(self, name: str, fn, args, kwargs, counter=None):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, None)
        if counter is not None:
            # Counted after the span closes; the parent's self time pays for it.
            self.spans[sid] = (sid, parent, name, start, end, counter(out))
        return out

    def install(self, package) -> None:
        """Wrap every traced function at every ``package`` module binding it."""
        prefix = package.__name__
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")
        ]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package.__name__}.{layer}")
            for fn_name in names:
                span = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(span)
                    continue
                wrapper = self._wrapper(span, original, COUNTERS.get(span))
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        self.patched.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self.patched):
            setattr(module, fn_name, original)
        self.patched.clear()

    def _wrapper(self, span: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(span, fn, args, kwargs, counter)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        reach = s[START]
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            lo, hi = max(c[START], reach, s[START]), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def roots_of(spans: list[tuple]) -> list[int]:
    """The id of the root span above each span (a span is its own root)."""
    root: list[int] = []
    for s in spans:
        root.append(s[ID] if s[PARENT] is None else root[s[PARENT]])
    return root


def _under(spans: list[tuple], name: str) -> list[bool]:
    """Whether each span has an ancestor called ``name``."""
    inside: list[bool] = []
    for s in spans:
        p = s[PARENT]
        inside.append(p is not None and (inside[p] or spans[p][NAME] == name))
    return inside


def layer_totals(spans: list[tuple], refused: set[int]) -> dict[str, float]:
    """Summed calls, self milliseconds and counts per traced function.

    ``refused`` holds the ids of request spans that ended in
    ``SupportTooLarge``; the table entries built inside them are waste.
    """
    totals: dict[str, float] = {}
    roots = roots_of(spans)
    in_identify = _under(spans, "identify.identify_estimand")
    for s, own in zip(spans, self_times(spans)):
        name = s[NAME]
        if name == "dsep.d_separated" and in_identify[s[ID]]:
            totals["identify.dsep_calls"] = totals.get("identify.dsep_calls", 0) + 1
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.ms"] = totals.get(f"{name}.ms", 0.0) + own * 1000.0
        for key, value in (s[COUNTS] or {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
            if key == "entries" and roots[s[ID]] in refused:
                totals["oracle.refused_entries"] = totals.get("oracle.refused_entries", 0) + value
    return totals


def per_label(spans: list[tuple], requests: list[tuple[int, str]]) -> dict[str, dict]:
    """Mean duration (ms) and ``dsep`` calls per request, by request label.

    ``requests`` pairs each request's root span id with its label.
    """
    roots = roots_of(spans)
    label_of = dict(requests)
    count = Counter(label for _, label in requests)
    rows = {label: {"ms": 0.0, "d_separated": 0, "open_paths": 0} for label in count}
    for rid, label in requests:
        rows[label]["ms"] += (spans[rid][END] - spans[rid][START]) * 1000.0
    for s in spans:
        layer, _, fn = s[NAME].partition(".")
        if layer == "dsep" and s[ID] not in label_of:
            rows[label_of[roots[s[ID]]]][fn] += 1
    return {
        label: {key: value / count[label] for key, value in row.items()}
        for label, row in sorted(rows.items())
    }
