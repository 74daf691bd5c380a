"""braidlex benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are fixed lists of braidlex
command lines (see workloads.py and README.md); the seed is accepted and
does not change them.  Each pass runs in its own fresh interpreter
(worker.py), one at a time, and starts no threads of its own: a closed
loop with a single client.  Passes repeat until ``--seconds`` have
elapsed, at least MIN_PASSES times.

Times are rescaled to a fixed reference speed (refclock.py), because a
shared host's speed can drift by 1.7 times.  --trace 0 prints the
end-to-end metrics, medians over the passes: wall_norm_s and cpu_norm_s
of the ops, the worker's peak_rss_mb, and setup_s, the time from starting
an interpreter until braidlex.cli is imported, over SETUP_PROBES extra
start-ups plus one per pass.
--trace 1 makes traced passes only and prints per-layer self times and
work counts, with trace.overhead_s estimated from the span count, and the
raw traced wall time with the host slowdown it was measured at.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``correct`` is false when an op exits 0
with output that fails its check; ops that exit nonzero or raise are
counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 10
MIN_PASSES = 2
DEADLINE_S = 170.0


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker, return (seconds until it printed "ready", rest of stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line != b"ready\n":
            raise RuntimeError(f"worker {args} did not start: {line!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}")
    return setup, out.decode()


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run a worker; return its rescaled set-up time and its JSON line."""
    setup, out = _spawn(args, deadline)
    doc = json.loads(out.splitlines()[-1])
    ticks = doc["setup_ticks"]
    return refclock.rescale(setup - sum(t for t, _ in ticks), [s for _, s in ticks]), doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "braidlex" / "cli.py").is_file():
        print(f"no braidlex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RUN_DIR.mkdir(exist_ok=True)
    try:
        return _run(args, deadline)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        (RUN_DIR / workloads.R12_FILE).unlink(missing_ok=True)


def _run(args, deadline: float) -> int:
    # set-up is an end-to-end metric, so a traced run does not probe it
    setups = [] if args.trace else [
        _worker(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    stop = time.monotonic() + args.seconds
    while True:
        setup, doc = _worker(
            ["--workload", args.workload, "--trace", str(args.trace)], deadline)
        setups.append(setup)
        passes.append(doc)
        print(f"[{args.workload}] pass {len(passes)}: wall {doc['wall_s']:.3f} s "
              f"(rescaled {doc['wall_norm_s']:.3f} s, host slowdown {doc['slowdown']:.2f}), "
              f"rss {doc['peak_rss_mb']:.1f} MB, setup {setup:.3f} s, "
              f"failed {doc['failed']}/{doc['attempted']}", file=sys.stderr)
        if len(passes) >= MIN_PASSES and time.monotonic() >= stop:
            break

    if args.trace:
        values = {n: statistics.median(d["layers"][n] for d in passes)
                  for n in passes[0]["layers"]}
    else:
        values = {n: statistics.median(d[n] for d in passes)
                  for n in ("wall_norm_s", "cpu_norm_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
    units = _declared(args.trace)
    if set(units) != set(values):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    result = {
        "correct": all(d["wrong"] == 0 for d in passes),
        "attempted": sum(d["attempted"] for d in passes),
        "failed": sum(d["failed"] for d in passes),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
