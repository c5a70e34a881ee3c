"""Measurement harness behind `repro bench`.

Measures each macro-scenario's wall-clock time (the *only* quantity the
perf PRs are allowed to change), a deterministic check dict (which must
never change), and — optionally — the total Python call count under
cProfile, the metric the hot-path inventory in ``docs/performance.md``
is written against.

Wall-clock comparisons across machines are normalized by a spin
calibration score (a fixed pure-Python loop timed on the same host), so
the CI smoke gate compares ``wall / spin`` ratios rather than raw
seconds. Deterministic checks are compared exactly.

This module is the one place in ``src/`` allowed to read the host
clock: it measures the simulator from the outside.
"""

from __future__ import annotations

import cProfile
import sys
import time
from pathlib import Path
from typing import Optional

from repro.bench.scenarios import SCENARIOS, Scenario
from repro.telemetry import canonical_json
from repro.telemetry.export import read_json

#: Slot names a measurement can be recorded under in the baseline file.
SLOTS = ("before", "after")

#: The CI gate: smoke serving wall (spin-normalized) may exceed the
#: committed baseline by at most this factor.
REGRESSION_FACTOR = 1.25

#: Scenarios whose wall-clock is gated in --smoke (the others gate on
#: deterministic checks only; their smoke workloads are too short for a
#: stable wall measurement in shared CI runners).
WALL_GATED = ("serving",)

_SPIN_ITERATIONS = 2_000_000


def spin_score() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed yardstick."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()  # repro-lint: disable=DET001 bench harness measures the simulator from outside
        acc = 0
        for i in range(_SPIN_ITERATIONS):
            acc += i & 7
        elapsed = time.perf_counter() - started  # repro-lint: disable=DET001 bench harness measures the simulator from outside
        best = min(best, elapsed)
    return best


def measure(scenario: Scenario, smoke: bool = False,
            count_calls: bool = True) -> dict:
    """Run one scenario; return its measurement entry.

    The timed body runs once for wall-clock, and (optionally) a second
    time under cProfile for the call count. Both runs are freshly set
    up and deterministic, so their check dicts must agree — a mismatch
    means the scenario itself is nondeterministic and is reported as a
    hard error.
    """
    body = scenario.build(smoke)
    started = time.perf_counter()  # repro-lint: disable=DET001 bench harness measures the simulator from outside
    checks = body()
    wall_s = time.perf_counter() - started  # repro-lint: disable=DET001 bench harness measures the simulator from outside
    entry = {
        "wall_s": round(wall_s, 6),
        "spin_s": round(spin_score(), 6),
        "checks": checks,
    }
    if count_calls:
        profile = cProfile.Profile()
        body = scenario.build(smoke)
        profile.enable()
        profiled_checks = body()
        profile.disable()
        if profiled_checks != checks:
            raise RuntimeError(
                f"scenario {scenario.name!r} is nondeterministic: "
                f"profiled run produced different checks")
        entry["calls"] = sum(stat.callcount
                             for stat in profile.getstats())
    return entry


def run_scenarios(names: Optional[list[str]] = None, smoke: bool = False,
                  count_calls: bool = True) -> dict:
    """Measure the named scenarios (default: all); return name → entry."""
    results = {}
    for name in names or sorted(SCENARIOS):
        results[name] = measure(SCENARIOS[name], smoke=smoke,
                                count_calls=count_calls)
    return results


# -- baseline file ------------------------------------------------------------

def load_baseline(path: Path) -> dict:
    """Parse the committed BENCH_*.json, or an empty skeleton.

    A file that does not parse raises
    :class:`~repro.telemetry.export.CorruptJSONError`.
    """
    if not path.exists():
        return {"schema": 1, "scenarios": {}}
    return read_json(path)


def record(baseline: dict, results: dict, slot: str, smoke: bool) -> dict:
    """Merge measured ``results`` into ``baseline`` under ``slot``."""
    if slot not in SLOTS:
        raise ValueError(f"slot must be one of {SLOTS}, got {slot!r}")
    mode = "smoke" if smoke else "full"
    scenarios = baseline.setdefault("scenarios", {})
    for name, entry in results.items():
        scenarios.setdefault(name, {}).setdefault(mode, {})[slot] = entry
    baseline["python"] = sys.version.split()[0]
    return baseline


def save_baseline(baseline: dict, path: Path) -> None:
    path.write_text(canonical_json(baseline) + "\n")


# -- the CI smoke gate --------------------------------------------------------

def normalized_wall(entry: dict) -> float:
    """Machine-speed-normalized wall clock (wall / spin)."""
    spin = entry.get("spin_s") or 1.0
    return entry["wall_s"] / spin


def gate(results: dict, baseline: dict, smoke: bool = True) -> list[str]:
    """Compare measured smoke results against the committed baseline.

    Returns a list of failure messages (empty = gate passes). Two
    checks per scenario:

    * deterministic check values must match the committed ``after``
      entry exactly — a drift means the optimization changed a
      simulated outcome;
    * for :data:`WALL_GATED` scenarios, the spin-normalized wall clock
      must not exceed the committed ``after`` value by more than
      :data:`REGRESSION_FACTOR`.
    """
    mode = "smoke" if smoke else "full"
    failures = []
    for name, entry in results.items():
        committed = (baseline.get("scenarios", {}).get(name, {})
                     .get(mode, {}).get("after"))
        if committed is None:
            failures.append(f"{name}: no committed {mode}/after baseline")
            continue
        if entry["checks"] != committed["checks"]:
            failures.append(
                f"{name}: deterministic checks drifted from baseline "
                f"(got {entry['checks']}, committed {committed['checks']})")
        if name in WALL_GATED:
            measured = normalized_wall(entry)
            allowed = normalized_wall(committed) * REGRESSION_FACTOR
            if measured > allowed:
                failures.append(
                    f"{name}: wall-clock regression — normalized "
                    f"{measured:.3f} exceeds baseline "
                    f"{normalized_wall(committed):.3f} "
                    f"x{REGRESSION_FACTOR}")
    return failures


def format_comparison(before: dict, after: dict,
                      before_name: str = "before",
                      after_name: str = "after") -> str:
    """Speedup table between any two recordings (``--compare``).

    Walks every scenario/mode/slot present in *both* baselines and
    compares spin-normalized wall clocks (so recordings from different
    machines compare meaningfully); flags any deterministic-check
    drift, since a speedup over different checks is not a speedup.
    """
    lines = [f"{'scenario':<26} {'mode':<6} {'slot':<7} "
             f"{before_name:>10} {after_name:>10} {'speedup':>8}  checks"]
    a_scenarios = before.get("scenarios", {})
    b_scenarios = after.get("scenarios", {})
    for name in sorted(set(a_scenarios) & set(b_scenarios)):
        for mode in ("full", "smoke"):
            slots_a = a_scenarios[name].get(mode, {})
            slots_b = b_scenarios[name].get(mode, {})
            for slot in SLOTS:
                entry_a, entry_b = slots_a.get(slot), slots_b.get(slot)
                if entry_a is None or entry_b is None:
                    continue
                ratio = (normalized_wall(entry_a)
                         / max(normalized_wall(entry_b), 1e-12))
                drift = ("ok" if entry_a["checks"] == entry_b["checks"]
                         else "DRIFTED")
                lines.append(
                    f"{name:<26} {mode:<6} {slot:<7} "
                    f"{entry_a['wall_s']:>9.3f}s {entry_b['wall_s']:>9.3f}s "
                    f"{ratio:>7.2f}x  {drift}")
    if len(lines) == 1:
        lines.append("(no scenario/mode/slot present in both files)")
    return "\n".join(lines)


def format_results(results: dict, baseline: Optional[dict] = None,
                   smoke: bool = False) -> str:
    """Human-readable result table, with speedup vs 'before' if known."""
    mode = "smoke" if smoke else "full"
    lines = [f"{'scenario':<12} {'wall_s':>9} {'calls':>10} "
             f"{'vs before':>10}  checks"]
    for name, entry in sorted(results.items()):
        speedup = ""
        if baseline is not None:
            before = (baseline.get("scenarios", {}).get(name, {})
                      .get(mode, {}).get("before"))
            if before:
                ratio = (normalized_wall(before)
                         / max(normalized_wall(entry), 1e-12))
                speedup = f"{ratio:.2f}x"
        calls = entry.get("calls")
        check_text = ", ".join(
            f"{key}={value}" for key, value in sorted(
                entry["checks"].items())
            if not key.endswith("digest"))
        lines.append(
            f"{name:<12} {entry['wall_s']:>9.3f} "
            f"{calls if calls is not None else '-':>10} "
            f"{speedup:>10}  {check_text}")
    return "\n".join(lines)
