"""`repro bench` — run the perf macro-scenarios and gate against baseline.

Usage::

    repro bench                         # measure all scenarios (full size)
    repro bench --smoke                 # small variants + CI gate
    repro bench --scenario serving      # one scenario only
    repro bench --record before         # write results into BENCH_PR10.json
    repro bench --record after --smoke  # and the smoke slot
    repro bench --compare A.json B.json # speedup table for two recordings

Without ``--record``, measurements are printed and (in ``--smoke``)
compared against the committed baseline: deterministic checks must match
exactly and the serving wall-clock (spin-normalized) must stay within
the regression factor. With ``--record``, measurements are merged into
the baseline file instead and the gate is skipped. ``--compare`` runs
nothing: it prints a spin-normalized speedup table between any two
committed recordings and exits (non-zero if any compared entry's
deterministic checks drifted between the two files).
"""

from __future__ import annotations

import sys
from pathlib import Path

DEFAULT_BASELINE = Path("benchmarks/perf/BENCH_PR10.json")


def add_bench_arguments(parser) -> None:
    """Attach `repro bench` arguments to an argparse subparser."""
    from repro.bench.harness import SLOTS

    parser.add_argument("--smoke", action="store_true",
                        help="small scenario variants; gate against the "
                             "committed baseline (CI mode)")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="measure only this scenario (repeatable)")
    parser.add_argument("--record", choices=SLOTS, default=None,
                        help="write results into the baseline file under "
                             "this slot instead of gating")
    parser.add_argument("--file", type=Path, default=DEFAULT_BASELINE,
                        help=f"baseline JSON path "
                             f"(default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-calls", action="store_true",
                        help="skip the cProfile call-count pass (faster)")
    parser.add_argument("--compare", nargs=2, type=Path, default=None,
                        metavar=("BEFORE", "AFTER"),
                        help="print a speedup table between two recorded "
                             "baseline files and exit (runs nothing)")


def run_bench(args) -> int:
    """Entry point for the `bench` subcommand; returns an exit code."""
    from repro.bench.harness import (
        format_comparison,
        format_results,
        gate,
        load_baseline,
        record,
        run_scenarios,
        save_baseline,
    )
    from repro.bench.scenarios import SCENARIOS
    from repro.telemetry.export import CorruptJSONError

    if args.compare is not None:
        before_path, after_path = args.compare
        for path in (before_path, after_path):
            if not path.exists():
                print(f"repro bench --compare: no such file: {path}",
                      file=sys.stderr)
                return 2
        try:
            before, after = load_baseline(before_path), load_baseline(after_path)
        except CorruptJSONError as exc:
            print(f"repro bench --compare: error: {exc}", file=sys.stderr)
            return 2
        table = format_comparison(
            before, after,
            before_name=before_path.stem, after_name=after_path.stem)
        print(table)
        return 1 if "DRIFTED" in table else 0

    names = args.scenario or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"repro bench: unknown scenario(s) {unknown}; "
              f"choose from {sorted(SCENARIOS)}", file=sys.stderr)
        return 2

    try:
        baseline = load_baseline(args.file)
    except CorruptJSONError as exc:
        print(f"repro bench: error: {exc}", file=sys.stderr)
        return 2
    try:
        results = run_scenarios(names, smoke=args.smoke,
                                count_calls=not args.no_calls)
    except RuntimeError as exc:
        print(f"repro bench: error: {exc}", file=sys.stderr)
        return 1
    print(format_results(results, baseline, smoke=args.smoke))

    if args.record:
        record(baseline, results, args.record, smoke=args.smoke)
        save_baseline(baseline, args.file)
        mode = "smoke" if args.smoke else "full"
        print(f"recorded {mode}/{args.record} for {', '.join(names)} "
              f"-> {args.file}")
        return 0

    if args.smoke:
        failures = gate(results, baseline, smoke=True)
        if failures:
            for failure in failures:
                print(f"repro bench --smoke: FAIL: {failure}",
                      file=sys.stderr)
            return 1
        print("smoke OK: deterministic checks match baseline, "
              "no wall-clock regression")
    return 0
