"""Layer spans recorded from outside braidlex.

The tracer wraps chosen public functions of the braidlex modules, in every
braidlex module namespace that binds them (``spectral`` imports
``recurrent_matrix`` by name, for instance), records one span per call and
restores the originals afterwards.  Private hot helpers such as
``configs._apply`` or ``oracle._rewrites`` are left alone: wrapping them
would cost more than the work they do.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: Wrapped functions, as "module.function" under the braidlex package.
TRACED = (
    "cli.cmd_table",
    "cli.cmd_count",
    "cli.cmd_states",
    "cli.cmd_matrix",
    "cli.cmd_verify",
    "automaton.build",
    "automaton.recurrent_states",
    "automaton.recurrent_matrix",
    "automaton.boolean_primitive",
    "automaton.count_words",
    "automaton.ending_letter_counts",
    "automaton.state_after",
    "spectral.analyze",
    "spectral.perron",
    "spectral.proportions",
    "spectral.bound_report",
    "matrixgen.build_R_direct",
    "matrixgen.to_matrix_market",
    "matrixgen.canonical_full_ordering",
    "oracle.enumerate_language",
    "oracle.minimal_forbidden_prefixes",
    "configs.psi",
)

MODULES = ("cli", "automaton", "configs", "matrixgen", "oracle", "spectral")


def _count_build(counts, args, result):
    counts["automaton.states"] += len(result)


def _count_primitive(counts, args, result):
    # base, current and next boolean powers: one dim x dim bitset each
    dim = args[0].dim
    counts["automaton.boolean_primitive.bitset_bytes"] = max(
        counts["automaton.boolean_primitive.bitset_bytes"], 3 * dim * dim // 8
    )


def _count_recurrent(counts, args, result):
    counts["automaton.recurrent.dim"] += result.dim
    counts["automaton.recurrent.nnz"] += len(result.entries)


def _count_words(counts, args, result):
    live = sum(1 for t in args[0].transitions if t >= 0)
    counts["automaton.count_words.edge_steps"] += args[1] * live


def _count_perron(counts, args, result):
    counts["spectral.perron.iterations"] += result.iterations


def _count_direct(counts, args, result):
    counts["matrixgen.R.nnz"] += len(result.entries)


#: Work counters taken from a traced call's arguments and result.  Each one
#: is a sum over calls, except bitset_bytes, a high-water mark.  bitset_bytes
#: and edge_steps are computed from sizes, not measured.
COUNTS = (
    "automaton.states",
    "automaton.boolean_primitive.bitset_bytes",
    "automaton.recurrent.dim",
    "automaton.recurrent.nnz",
    "automaton.count_words.edge_steps",
    "spectral.perron.iterations",
    "matrixgen.R.nnz",
)
COUNTERS = {
    "automaton.build": _count_build,
    "automaton.boolean_primitive": _count_primitive,
    "automaton.recurrent_matrix": _count_recurrent,
    "automaton.count_words": _count_words,
    "spectral.perron": _count_perron,
    "matrixgen.build_R_direct": _count_direct,
}


class Tracer:
    """Spans as (name, start, end, parent index), kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Per name: summed span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


#: Calls of a no-op made plain and traced, per repeat, to price one span.
CALIBRATION_CALLS = 20_000


def span_cost() -> float:
    """Seconds one traced call adds to a plain call, the best of 3 repeats
    on a no-op.  The counters' own work is not included."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = {}
    for fn in (noop, traced) * 3:
        t0 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn()
        best[fn] = min(best.get(fn, float("inf")), perf_counter() - t0)
    return max(0.0, (best[traced] - best[noop]) / CALIBRATION_CALLS)


@contextmanager
def installed(tracer: Tracer):
    """Replace each TRACED function in every braidlex module that binds it."""
    modules = [importlib.import_module(f"braidlex.{m}") for m in MODULES]
    replaced: list[tuple[object, str, object]] = []
    try:
        for qualname in TRACED:
            modname, fname = qualname.split(".")
            original = getattr(importlib.import_module(f"braidlex.{modname}"), fname)
            wrapper = tracer.wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, value in reversed(replaced):
            setattr(mod, attr, value)
