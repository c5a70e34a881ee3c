"""Sanity tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import harness, probes, speed
from perfbench.tracer import ROOT, Tracer
from perfbench.workloads import WORKLOADS, Instance, ranking_holds

NAMES = tuple(WORKLOADS)


def _traced_run(name: str, size: str = "tiny") -> harness.Run:
    run = harness.Run(WORKLOADS[name], seed=3, size=size)
    run.rep(traced=False)
    run.rep(traced=True)
    return run


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, harness.Run]:
    return {name: _traced_run(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_prints_with_its_unit(name):
    run = harness.Run(WORKLOADS[name], seed=2, size="tiny")
    harness.measure(run, seconds=0.0, trace=False)
    assert run.attempted == harness.MIN_REPS and run.failed == 0
    metrics = run.end_to_end(import_s=[0.25])
    lines = harness.report_end_to_end(run, metrics)
    for metric, unit in harness.END_TO_END:
        assert any(line.split()[:1] == [metric] and line.endswith(f" {unit}")
                   for line in lines), metric
    listed = harness.contract()["end_to_end"]
    result = harness.result_line(
        run, {k: (v, None) for k, v in metrics.items()}, listed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert [m for m in result["metrics"]] == [e["name"] for e in listed]
    for entry in listed:
        value = result["metrics"][entry["name"]]["value"]
        assert isinstance(value, float) and value > 0, entry["name"]


def test_contract_units_match_the_harness():
    units = dict(harness.END_TO_END) | dict(probes.METRICS)
    contract = harness.contract()
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert units[entry["name"]] == entry["unit"], entry["name"]


def test_every_per_layer_metric_is_reported_or_missing_with_reason(
        traced_runs):
    listed = [entry["name"] for entry in harness.contract()["per_layer"]]
    for name, run in traced_runs.items():
        assert run.failed == 0, [rep.failures for rep in run.reps]
        layers = run.per_layer()
        lines = "\n".join(harness.report_layers(run, layers))
        for metric, unit in probes.METRICS:
            value, reason = layers[metric]
            assert (value is None) != (reason is None), metric
            assert metric in lines
            if value is None:
                assert f"missing ({reason})" in lines
        # The result line carries numbers only, on every workload.
        for metric in listed:
            assert isinstance(layers[metric][0], (int, float)), (name, metric)


def test_missing_counts_are_never_zero(traced_runs):
    layers = traced_runs["shard-replay"].per_layer()
    assert layers["sim.events"][0] is None
    assert "manual clock" in layers["sim.events"][1]
    assert layers["network.flows"] == (0, None)
    assert layers["network.shaper_calls_per_flow"][0] is None
    q6 = traced_runs["q6-burst"].per_layer()
    assert q6["shard.routes"] == (0, None)
    assert q6["shard.route_cache_hit_ratio"][0] is None
    assert q6["sim.events"][0] > 0


def test_self_times_sum_to_no_more_than_the_root_span(traced_runs):
    for run in traced_runs.values():
        tracer = run.tracer
        total = sum(tracer.self_s.values())
        assert all(seconds >= -1e-9 for seconds in tracer.self_s.values())
        assert total <= tracer.root_s * (1 + 1e-9)
        assert math.isclose(total, tracer.root_s, rel_tol=1e-6)


def test_traced_outputs_equal_untraced_outputs(traced_runs):
    for run in traced_runs.values():
        plain, traced = run.reps
        assert not traced.failures
        assert traced.outcome.fingerprint() == plain.outcome.fingerprint()


def test_corrupted_output_check_counts_in_failed_ratio():
    workload = WORKLOADS["q12-chaos"]
    calls = []

    def corrupt_second_rep(offset, size):
        instance = workload.prepare(offset, size)
        calls.append(offset)

        def evaluate(raw):
            outcome = instance.evaluate(raw)
            if len(calls) == 2:
                outcome.checks["digest"] = "corrupted"
            return outcome

        return Instance(instance.body, evaluate)

    run = harness.Run(replace(workload, prepare=corrupt_second_rep), seed=4,
                      size="tiny")
    harness.measure(run, seconds=0.0, trace=False)
    assert run.attempted == 3 and run.failed == 1
    assert run.end_to_end(import_s=[0.25])["failed_ratio"] == 1 / 3
    failure, = run.reps[1].failures
    assert failure.startswith("repeat checks digest:")
    assert "corrupted" in failure


def test_host_times_are_scaled_by_the_speed_around_each_rep():
    run = harness.Run(WORKLOADS["q12-chaos"], seed=2, size="tiny")
    harness.measure(run, seconds=0.0, trace=False)
    assert len(speed.sample()) == speed.SAMPLES
    assert all(rep.speed > 0 for rep in run.reps)
    for rep, factor in zip(run.reps, (0.5, 1.0, 2.0)):
        rep.speed = factor
    metrics = run.end_to_end(import_s=[0.25])
    reps = run.reps
    assert metrics["wall_s"] == statistics.median(
        rep.wall_s * rep.speed for rep in reps)
    assert metrics["cpu_s"] == statistics.median(
        rep.cpu_s * rep.speed for rep in reps)
    assert metrics["setup_s"] == 0.25 + statistics.median(
        rep.setup_s * rep.speed for rep in reps)
    assert metrics["host_wall_s"] == statistics.median(
        rep.wall_s for rep in reps)
    assert metrics["host_speed"] == 1.0


def test_pinned_checks_are_compared_field_by_field():
    workload = WORKLOADS["q12-chaos"]
    good = harness.Run(workload, seed=1, size="tiny")
    good.rep()
    pins = dict(good.reps[0].outcome.checks, goodput=0.5)
    run = harness.Run(workload, seed=1, size="tiny", pins=pins)
    run.rep()
    failure, = run.reps[0].failures
    assert failure.startswith("pinned goodput:")


def test_pins_cover_every_workload_at_the_default_seed():
    pins = harness.load_pins()
    assert set(pins) == set(WORKLOADS)
    for checks in pins.values():
        # Each pin carries an output digest or, for Q6, the revenue.
        assert any("digest" in key or key == "revenue" for key in checks)


def test_seed_selects_the_inputs():
    workload = WORKLOADS["q12-chaos"]
    first = harness.Run(workload, seed=5, size="tiny")
    again = harness.Run(workload, seed=5, size="tiny")
    other = harness.Run(workload, seed=6, size="tiny")
    for run in (first, again, other):
        run.rep()
    digest = [run.reps[0].outcome.checks["digest"]
              for run in (first, again, other)]
    assert digest[0] == digest[1] != digest[2]


def test_traced_ranking_reproduces_the_roadmap():
    q6 = _traced_run("q6-burst", size="small")
    assert ranking_holds(q6.workload, _ranked(q6))
    shard = _traced_run("shard-replay")
    assert ranking_holds(shard.workload, _ranked(shard))
    assert shard.per_layer()["network.flows"][0] == 0
    serving = _traced_run("serving")
    assert ranking_holds(serving.workload, _ranked(serving))


def _ranked(run: harness.Run) -> dict[str, float]:
    return {k: v for k, v in run.layer_self_s().items() if k != ROOT}


def test_generator_resumptions_are_spans_of_their_layer():
    tracer = Tracer()

    def inner():
        received = yield "a"
        try:
            yield received
        except KeyError:
            yield "caught"
        return "done"

    probed = tracer.probe(inner, "storage", "inner", count="calls")

    def outer():
        result = yield from probed()
        return result

    with tracer.root("test"):
        gen = tracer.wrap_generator(outer(), "engine", "outer")
        assert gen.__name__ == "outer"
        assert next(gen) == "a"
        assert gen.send("b") == "b"
        assert gen.throw(KeyError()) == "caught"
        with pytest.raises(StopIteration) as stop:
            next(gen)
    assert stop.value.value == "done"
    assert tracer.counts == {"calls": 1}
    spans = tracer.spans()
    layers = [spans["layers"][i] for i in spans["layer"]]
    # Root, then one engine span and one nested storage span per resumption.
    assert layers == [ROOT] + ["engine", "storage"] * 4
    assert set(tracer.self_s) == {ROOT, "engine", "storage"}


def test_uninstall_restores_the_program():
    from repro.formats import columnar
    from repro.engine import worker
    from repro.sim.kernel import Environment

    before = (Environment.run, Environment.process, columnar.read_file,
              worker.read_file)
    tracer = Tracer()
    probes.install(tracer)
    assert Environment.run is not before[0]
    assert worker.read_file is not before[3]
    tracer.uninstall()
    assert (Environment.run, Environment.process, columnar.read_file,
            worker.read_file) == before


def test_exits_without_a_result_when_the_program_is_absent(tmp_path):
    root = harness.ROOT_DIR
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "q6-burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
