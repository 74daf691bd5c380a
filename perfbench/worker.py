"""One pass of one workload, in a fresh interpreter.

Run by run.py as ``python3 perfbench/worker.py --workload NAME --trace 0|1``
with the checkout's ``src`` on PYTHONPATH.  The first line on stdout,
"ready", is written as soon as braidlex.cli is imported, so the parent can
time interpreter start-up plus import.  The reference loop (refclock.py) is
sampled during the import, so that the parent can rescale that set-up
time.  With ``--probe`` the worker stops there.  Otherwise it calls
``braidlex.cli.main(argv)`` in-process for each op, checks the output, and
prints one JSON line.
"""

import refclock

with refclock.Sampler(interval=0.02) as SETUP_CLOCK:
    import braidlex.cli  # everything up to "ready" is set-up time

import sys  # noqa: E402

sys.stdout.write("ready\n")
sys.stdout.flush()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# (tick time, warm sample time) of the ticks during the import, so that the
# parent can take the ticks out of the set-up time and rescale the rest
SETUP_TICKS = [(tick, s) for _, tick, s in SETUP_CLOCK.marks]

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"


def main() -> int:
    if "--probe" in sys.argv:
        sys.stdout.write(json.dumps({"setup_ticks": SETUP_TICKS}) + "\n")
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path(braidlex.cli.__file__).resolve().parent.parent
    if src != ROOT / "src":
        print(f"braidlex imported from {src}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = workloads.ops(args.workload, RUN_DIR)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracing.installed(tracer):
            res = harness.run_ops(ops, braidlex.cli.main, tracer)
        tracer.dump(RUN_DIR / f"spans-{args.workload}.json")
    else:
        res = harness.run_ops(ops, braidlex.cli.main)
    for failure in res.failures:
        print(f"[{args.workload}] FAILED {failure}", file=sys.stderr)

    doc = asdict(res)
    doc["setup_ticks"] = SETUP_TICKS
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        doc["layers"] = harness.layer_metrics(tracer, res)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
