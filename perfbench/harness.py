"""The measurement loop, the output checks and the report of one run.

A *rep* builds a workload's instance (untimed set-up), runs its body
(timed, with a fresh simulation and empty caches, since every ``repro``
invocation pays that cost) and checks the outputs. A run
repeats reps until ``--seconds`` have passed, with at least
:data:`MIN_REPS` reps, and reports medians over reps. Host times are
scaled by the host speed measured around each body (see ``speed``), so
they read in reference seconds; the unscaled host times are printed
beside them.

With tracing on, reps alternate untraced and traced. The traced reps
give the per-layer metrics; their outputs must equal the untraced ones
exactly (trace neutrality), and the ratio of their walls is the tracing
overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench import probes, speed
from perfbench.tracer import ROOT, Tracer
from perfbench.workloads import DEFAULT_SEED, Outcome, Workload, ranking_holds

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_REPS = 3
IMPORT_RUNS = 9

#: Every end-to-end metric, by unit. ``BENCHMARK.json`` bounds those of
#: them whose value is never zero and steady across seeds. The ``host_``
#: metrics are the unscaled host times and the host speed they were
#: scaled by.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"), ("throughput_rps", "req/s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"), ("setup_s", "s"), ("failed_ratio", "1"),
    ("sim_latency_p50_s", "s"), ("sim_latency_p99_s", "s"),
    ("sim_cost_usd", "USD"), ("sim_served_ratio", "1"),
    ("host_wall_s", "s"), ("host_cpu_s", "s"), ("host_setup_s", "s"),
    ("host_speed", "1"),
)


@dataclass
class Rep:
    """One rep: its host timings and either an outcome or an exception."""

    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Reference seconds per host second, measured around the body.
    speed: float = 1.0
    outcome: Optional[Outcome] = None
    failures: list[str] = field(default_factory=list)
    layers: Optional[dict] = None
    self_s: Optional[dict] = None


def load_pins() -> dict:
    with open(Path(__file__).resolve().parent / "pins.json",
              encoding="utf-8") as handle:
        return json.load(handle)


def contract() -> dict:
    """The metric lists the machine-readable result line must carry."""
    with open(ROOT_DIR / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def import_seconds(workload: Workload, runs: int = IMPORT_RUNS) -> list[float]:
    """Import time of the workload's modules, each in a fresh interpreter."""
    code = ("import sys, time\nsys.path.insert(0, sys.argv[1])\n"
            "start = time.perf_counter()\n"
            + "".join(f"import {module}\n" for module in workload.modules)
            + "print(time.perf_counter() - start)\n")
    values = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT_DIR / "src")],
            capture_output=True, text=True, timeout=120, check=True,
            cwd=ROOT_DIR)
        values.append(float(proc.stdout.split()[-1]))
    return values


def _diff(label: str, got: dict, want: dict) -> list[str]:
    fields = sorted(set(got) | set(want))
    return [f"{label} {name}: got {got.get(name)!r}, expected "
            f"{want.get(name)!r}"
            for name in fields if got.get(name) != want.get(name)]


def _fingerprint_diff(label: str, got: Outcome, want: Outcome) -> list[str]:
    names = ("checks", "requests", "served", "latency_p50_s",
             "latency_p99_s", "cost_usd", "layer_counts")
    problems = []
    for name, mine, theirs in zip(names, got.fingerprint(),
                                  want.fingerprint()):
        if isinstance(mine, dict):
            problems += _diff(f"{label} {name}", mine, theirs)
        elif mine != theirs:
            problems.append(f"{label} {name}: got {mine!r}, expected "
                            f"{theirs!r}")
    return problems


class Run:
    """Reps of one workload at one seed, and the checks across them."""

    def __init__(self, workload: Workload, seed: int, size: str = "full",
                 pins: Optional[dict] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        if pins is None and seed == DEFAULT_SEED and size == "full":
            pins = load_pins().get(workload.name)
        self.pins = pins
        self.reps: list[Rep] = []
        self.reference: Optional[Outcome] = None
        self.tracer: Optional[Tracer] = None

    def rep(self, traced: bool = False) -> Rep:
        """Run, time and check one rep; record it."""
        rep = Rep(traced=traced)
        self.reps.append(rep)
        tracer = None
        if traced:
            tracer = self.tracer = self.tracer or Tracer()
            tracer.clear_spans()
            probes.install(tracer)
        try:
            self._measure(rep, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed rep is reported
            rep.failures.append(f"exception: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if rep.outcome is not None:
            self._check(rep)
        return rep

    def _measure(self, rep: Rep, tracer: Optional[Tracer]) -> None:
        start = time.perf_counter()
        instance = self.workload.build(self.seed, self.size)
        rep.setup_s = time.perf_counter() - start
        gc.collect()
        kernel_s = speed.sample()
        if tracer is None:
            cpu = _cpu_s()
            start = time.perf_counter()
            raw = instance.body()
            rep.wall_s = time.perf_counter() - start
            rep.cpu_s = _cpu_s() - cpu
            rep.speed = speed.factor(kernel_s + speed.sample())
            rep.outcome = instance.evaluate(raw)
            return
        before = probes.snapshot(tracer)
        start = time.perf_counter()
        with tracer.root(self.workload.name):
            raw = instance.body()
        rep.wall_s = time.perf_counter() - start
        rep.speed = speed.factor(kernel_s + speed.sample())
        after = probes.snapshot(tracer)
        rep.outcome = instance.evaluate(raw)
        rep.layers = probes.layer_metrics(tracer, before, after,
                                          rep.outcome.layer_counts)
        rep.self_s = dict(tracer.self_s)

    def _check(self, rep: Rep) -> None:
        outcome = rep.outcome
        rep.failures += [f"invariant {message}"
                         for message in outcome.violations]
        if self.pins is not None:
            rep.failures += _diff("pinned", outcome.checks, self.pins)
        if self.reference is None:
            if not rep.traced:
                self.reference = outcome
            return
        label = "trace-neutrality" if rep.traced else "repeat"
        rep.failures += _fingerprint_diff(label, outcome, self.reference)

    # -- metrics -----------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.reps)

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.reps if rep.failures)

    def end_to_end(self, import_s: list[float]) -> dict[str, float]:
        """The end-to-end metrics over the untraced reps.

        Each rep's host times are scaled by the speed measured around
        its body; the imports, timed in other interpreters just before
        the reps, by the median speed of the run.
        """
        reps = [rep for rep in self.reps
                if not rep.traced and rep.outcome is not None]
        outcome = reps[0].outcome
        median = statistics.median
        run_speed = median(rep.speed for rep in reps)
        wall = median(rep.wall_s * rep.speed for rep in reps)
        return {
            "wall_s": wall,
            "throughput_rps": outcome.served / wall,
            "cpu_s": median(rep.cpu_s * rep.speed for rep in reps),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": median(import_s) * run_speed
                       + median(rep.setup_s * rep.speed for rep in reps),
            "failed_ratio": self.failed / self.attempted,
            "sim_latency_p50_s": outcome.latency_p50_s,
            "sim_latency_p99_s": outcome.latency_p99_s,
            "sim_cost_usd": outcome.cost_usd,
            "sim_served_ratio": outcome.served / outcome.requests,
            "host_wall_s": median(rep.wall_s for rep in reps),
            "host_cpu_s": median(rep.cpu_s for rep in reps),
            "host_setup_s": median(import_s)
                            + median(rep.setup_s for rep in reps),
            "host_speed": run_speed,
        }

    def per_layer(self) -> dict[str, tuple]:
        """Per-layer metrics: medians over the traced reps."""
        traced = [rep for rep in self.reps
                  if rep.traced and rep.layers is not None]
        plain = [rep for rep in self.reps
                 if not rep.traced and rep.outcome is not None]
        layers = probes.median_layers([rep.layers for rep in traced])
        layers["trace.overhead_ratio"] = (
            statistics.median(rep.wall_s * rep.speed for rep in traced)
            / statistics.median(rep.wall_s * rep.speed for rep in plain),
            None)
        return layers

    def layer_self_s(self) -> dict[str, float]:
        """Median self time per layer over the traced reps (root included)."""
        traced = [rep.self_s for rep in self.reps if rep.self_s is not None]
        names = sorted({name for self_s in traced for name in self_s})
        return {name: statistics.median(s.get(name, 0.0) for s in traced)
                for name in names}


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Repeat reps for ``seconds`` (at least :data:`MIN_REPS`)."""
    deadline = time.perf_counter() + seconds
    while True:
        run.rep(traced=False)
        if trace:
            run.rep(traced=True)
        done = len([rep for rep in run.reps if not rep.traced])
        if time.perf_counter() >= deadline and (trace or done >= MIN_REPS):
            return


# -- report ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_end_to_end(run: Run, metrics: dict[str, float]) -> list[str]:
    lines = [f"end-to-end, tracing off ({run.workload.unit} is the request "
             f"unit; medians over {run.attempted} reps):"]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<22} {_fmt(metrics[name]):>14} {unit}")
    return lines


def report_layers(run: Run, layers: dict[str, tuple]) -> list[str]:
    units = dict(probes.METRICS)
    lines = ["per-layer, traced run (medians over "
             f"{sum(rep.traced for rep in run.reps)} traced reps):"]
    for name, _ in probes.METRICS:
        value, reason = layers[name]
        shown = f"missing ({reason})" if value is None else \
            f"{_fmt(value)} {units[name]}"
        lines.append(f"  {name:<32} {shown}")
    self_s = run.layer_self_s()
    total = sum(self_s.values())
    lines.append(f"self time by layer (root span {total:.4f} s):")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {seconds:10.4f} s "
                     f"{100.0 * seconds / total:6.1f}%")
    ranked = {k: v for k, v in self_s.items() if k != ROOT}
    if run.workload.leaders:
        verdict = "holds" if ranking_holds(run.workload, ranked) else \
            "DOES NOT HOLD"
        unranked = run.workload.unranked
        lines.append(f"expected leaders {', '.join(run.workload.leaders)}"
                     + (f" (ranking without {', '.join(unranked)})"
                        if unranked else "") + f": {verdict}")
    return lines


def result_line(run: Run, values: dict[str, tuple], listed: list[dict]
                ) -> dict:
    """The machine-readable result: every listed metric, by name with unit."""
    metrics = {}
    for entry in listed:
        value, reason = values[entry["name"]]
        if value is None:
            raise RuntimeError(f"{entry['name']} is listed in BENCHMARK.json "
                               f"but missing on {run.workload.name}: {reason}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def save_trace(run: Run, layers: dict[str, tuple]) -> Path:
    """Write the last traced rep's spans and the per-layer report."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{run.workload.name}-seed{run.seed}"
    run.tracer.save(f"{stem}-spans.npz")
    with open(f"{stem}-layers.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": run.workload.name, "seed": run.seed,
                   "spans": run.tracer.span_count,
                   "self_s": run.layer_self_s(),
                   "metrics": {name: {"value": value, "missing": reason}
                               for name, (value, reason) in layers.items()}},
                  handle, indent=1, sort_keys=True)
    return stem
