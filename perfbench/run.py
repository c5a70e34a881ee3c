"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload q6-burst --seed 1 --seconds 24 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics, writing the spans under ``perfbench/out/``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the metrics ``BENCHMARK.json`` lists for
that mode). The human-readable report above it prints every metric,
with its unit, and every failed check with the field that failed.

The simulator is imported from ``src/`` of the same checkout; without
it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (ROOT_DIR, ROOT_DIR / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT_DIR / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT_DIR / "src"):
        print(f"perfbench: the simulator must come from {ROOT_DIR / 'src'}, "
              f"not {repro.__file__}", file=sys.stderr)
        return 2

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = harness.contract()
    import_s = [] if args.trace else harness.import_seconds(workload)
    run = harness.Run(workload, args.seed)
    harness.measure(run, args.seconds, trace=bool(args.trace))

    print(f"perfbench {workload.name} seed={args.seed} "
          f"trace={args.trace}: {run.attempted} reps, {run.failed} failed")
    for index, rep in enumerate(run.reps):
        for failure in rep.failures:
            kind = "traced" if rep.traced else "untraced"
            print(f"  FAIL rep {index} ({kind}): {failure}")
    if not any(rep.outcome is not None and not rep.traced
               for rep in run.reps):
        print("perfbench: no rep produced outputs", file=sys.stderr)
        return 1
    if args.trace and not any(rep.layers is not None for rep in run.reps):
        print("perfbench: no traced rep completed", file=sys.stderr)
        return 1

    if args.trace:
        values = run.per_layer()
        for line in harness.report_layers(run, values):
            print(line)
        stem = harness.save_trace(run, values)
        print(f"spans and layer report written to {stem}-*")
        listed = contract["per_layer"]
    else:
        metrics = run.end_to_end(import_s)
        for line in harness.report_end_to_end(run, metrics):
            print(line)
        values = {name: (value, None) for name, value in metrics.items()}
        listed = contract["end_to_end"]
    print(json.dumps(harness.result_line(run, values, listed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
