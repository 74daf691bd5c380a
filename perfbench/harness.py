"""Running a workload's ops through braidlex.cli.main and scoring them."""

from __future__ import annotations

import io
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import refclock
import tracing
import workloads


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # exit 0 with output that fails its check
    wall_s: float = 0.0     # as measured, reference samples included
    cpu_s: float = 0.0
    wall_norm_s: float = 0.0   # program time rescaled to the reference speed
    cpu_norm_s: float = 0.0
    slowdown: float = 0.0      # mean warm reference-loop time over REF_S
    failures: list[str] = field(default_factory=list)


class _Untraced:
    def span(self, name):
        return nullcontext()


def run_ops(ops, main, tracer=None) -> Outcome:
    """Run each op through ``main``; an op fails on a nonzero exit, an
    exception or a failed output check, and the run goes on."""
    tracer = tracer or _Untraced()
    res = Outcome()
    cpu0 = time.process_time()
    with refclock.Sampler() as clock:
        for op in ops:
            _run_op(op, main, tracer, res)
    res.cpu_s = time.process_time() - cpu0
    res.wall_s = clock.stop - clock.start
    res.wall_norm_s = clock.rescaled()
    program_s = res.wall_s - clock.sampled_s
    res.cpu_norm_s = (res.cpu_s - clock.sampled_s) * res.wall_norm_s / program_s
    res.slowdown = clock.slowdown
    return res


def _run_op(op, main, tracer, res: Outcome) -> None:
    res.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    try:
        with tracer.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
            rc = main(list(op.argv))
    except Exception:  # a crash is a failed op, not the end of the run
        res.failed += 1
        res.failures.append(f"{op.label}: raised\n{traceback.format_exc()}")
        return
    if rc != 0:
        res.failed += 1
        res.failures.append(f"{op.label}: exit {rc}: {err.getvalue().strip()}")
        return
    try:
        with tracer.span("bench.check"):
            op.check(out.getvalue())
    except (workloads.CheckFailed, ValueError, IndexError, OSError) as exc:
        res.failed += 1
        res.wrong += 1
        res.failures.append(f"{op.label}: wrong output: {exc!r}")


def layer_metrics(tracer: tracing.Tracer, res: Outcome) -> dict[str, float]:
    """Self time of every traced name, call counts, work counters and ratios."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    out = {f"{name}.self_s": self_s.get(name, 0.0)
           for name in ("cli.main", "bench.check") + tracing.TRACED}
    out.update({name: float(tracer.counts[name]) for name in tracing.COUNTS})
    out["automaton.build.calls"] = calls["automaton.build"]
    out["oracle.minimal_forbidden_prefixes.calls"] = calls["oracle.minimal_forbidden_prefixes"]
    analyses, count_ops = calls["spectral.analyze"], calls["cli.cmd_count"]
    out["automaton.recurrent_states.calls_per_analysis"] = (
        calls["automaton.recurrent_states"] / analyses if analyses else 0.0)
    out["automaton.count_words.calls_per_op"] = (
        calls["automaton.count_words"] / count_ops if count_ops else 0.0)
    out["trace.wall_s"] = res.wall_s
    out["trace.slowdown"] = res.slowdown
    out["trace.unattributed_s"] = res.wall_s - sum(self_s.values())
    out["trace.spans"] = float(len(tracer.spans))
    out["trace.overhead_s"] = len(tracer.spans) * tracing.span_cost()
    return out
