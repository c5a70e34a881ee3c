"""The benchmark's four workloads and their output checks.

A workload builds an :class:`Instance` from the benchmark seed: one
fully seeded run of the simulator. Its inputs are built untimed,
:attr:`Instance.body` is what gets timed, and :attr:`Instance.evaluate`
reduces the outputs to an :class:`Outcome`. The program sees only the
inputs an instance hands it; the seed reaches it only as the simulation
seeds derived here.

Under benchmark seed ``s`` every simulation seed of a workload is its
base seed plus ``(s - 1) mod 2**20``. At the default seed 1 each
workload therefore runs the configuration ``repro bench`` uses, and its
check dict is pinned in ``pins.json``.

Why each workload was chosen is recorded in ``README.md`` beside this
file.
"""

from __future__ import annotations

import datetime
import hashlib
import math
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 1


@dataclass
class Outcome:
    """What an instance produced, reduced to checks and metrics."""

    #: Deterministic check values; pinned at the default seed.
    checks: dict
    #: Simulated requests offered, in the workload's request unit.
    requests: int
    #: Simulated requests completed.
    served: int
    latency_p50_s: float
    latency_p99_s: float
    cost_usd: float
    #: Invariant violations, one message per failed field.
    violations: list[str] = field(default_factory=list)
    #: Per-layer counts only the outputs report (see ``probes``).
    layer_counts: dict = field(default_factory=dict)

    def fingerprint(self) -> tuple:
        """Everything that must repeat bit for bit for one instance."""
        return (self.checks, self.requests, self.served, self.latency_p50_s,
                self.latency_p99_s, self.cost_usd, self.layer_counts)


@dataclass
class Instance:
    """One seeded run: untimed inputs, a timed body, an untimed check."""

    body: Callable[[], Any]
    evaluate: Callable[[Any], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    #: The simulated request unit ``throughput_rps`` counts.
    unit: str
    #: Modules a fresh process imports before it can build inputs.
    modules: tuple[str, ...]
    #: ``prepare(offset, size)`` builds an instance's inputs.
    prepare: Callable[[int, str], Instance]
    #: Layers expected to lead the traced self-time ranking once the
    #: ``unranked`` layers are dropped; see ``ranking_holds``.
    leaders: tuple[str, ...] = ()
    unranked: tuple[str, ...] = ()

    def build(self, seed: int, size: str) -> Instance:
        """The instance of benchmark seed ``seed`` (inputs built now)."""
        return self.prepare((seed - DEFAULT_SEED) % 2**20, size)


def digest(text: str) -> str:
    """Short stable fingerprint of a canonical-JSON artifact."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- q6-burst --------------------------------------------------------------------

_Q6_WORKERS = {"full": 900, "small": 300, "tiny": 12}


def q6_oracle(spec, data_seed: int) -> float:
    """TPC-H Q6 revenue over the generated partitions, in plain numpy."""
    epoch = datetime.date(1970, 1, 1)
    low = (datetime.date(1994, 1, 1) - epoch).days
    high = (datetime.date(1995, 1, 1) - epoch).days
    revenue = 0.0
    for index in range(spec.partition_count):
        batch = spec.generator(spec.rows_for_partition(index), data_seed,
                               index, spec.physical_scale_factor)
        cols = batch.columns
        mask = ((cols["l_shipdate"] >= low) & (cols["l_shipdate"] < high)
                & (cols["l_discount"] >= 0.05) & (cols["l_discount"] <= 0.07)
                & (cols["l_quantity"] < 24.0))
        revenue += float(np.sum(cols["l_extendedprice"][mask]
                                * cols["l_discount"][mask]))
    return revenue


def _prepare_q6(offset: int, size: str) -> Instance:
    core = import_module("repro.core")
    datagen = import_module("repro.datagen")
    engines = import_module("repro.engine")
    queries = import_module("repro.engine.queries")

    workers = _Q6_WORKERS[size]
    data_seed = 1000 + offset
    sim = core.CloudSim(seed=14 + offset)
    s3 = sim.s3()
    spec = datagen.scaled_spec("lineitem", workers, rows_per_partition=16)
    metadata = sim.run(datagen.load_table(sim.env, s3, spec, seed=data_seed))
    engine = engines.SkyriseEngine(sim.env, sim.platform,
                                   storage={"s3-standard": s3})
    engine.register_table(metadata)
    engine.deploy()
    plan = queries.tpch_q6(scan_fragments=workers)
    events_before = sim.env.scheduled_events

    def body():
        return sim.run(engine.run_query(plan))

    def evaluate(result) -> Outcome:
        records = [r for r in sim.platform.records
                   if r.function == "skyrise-worker"]
        served = sum(1 for r in records if r.error is None)
        offered = sum(result.fragments.values())
        revenue = float(result.batch.column("revenue")[0])
        expected = q6_oracle(spec, data_seed)
        violations = []
        if len(result.batch) != 1:
            violations.append(f"rows: {len(result.batch)} != 1")
        if not math.isclose(revenue, expected, rel_tol=1e-9):
            violations.append(
                f"revenue: engine {revenue!r} != numpy {expected!r}")
        if served != offered:
            violations.append(
                f"fragments: {served} served != {offered} offered")
        return Outcome(
            checks={"workers": workers, "runtime_s": result.runtime,
                    "revenue": revenue, "requests": result.requests,
                    "cost_cents": result.cost_cents,
                    "events": sim.env.scheduled_events - events_before},
            requests=offered, served=served,
            latency_p50_s=result.runtime,
            latency_p99_s=_percentile(
                [r.finished_at - r.requested_at for r in records], 99),
            cost_usd=result.cost_cents / 100.0, violations=violations)

    return Instance(body, evaluate)


# -- serving -----------------------------------------------------------------------

_SERVING_WINDOW_S = {"full": 600.0, "tiny": 60.0}


def _prepare_serving(offset: int, size: str) -> Instance:
    serve = import_module("repro.serve")

    seed = 1 + offset
    window_s = _SERVING_WINDOW_S[size]
    mixes = {policy: serve.default_tenant_mix(rate_scale=6.0)
             for policy in ("fifo", "fair")}

    def body():
        return [serve.run_serving_workload(
                    mix, policy=policy, window_s=window_s, seed=seed,
                    max_concurrent_queries=1)
                for policy, mix in mixes.items()]

    def evaluate(outcomes) -> Outcome:
        checks: dict = {}
        violations = []
        for outcome in outcomes:
            policy = outcome.policy
            checks[f"{policy}_offered"] = outcome.total_offered
            checks[f"{policy}_completed"] = outcome.total_completed
            checks[f"{policy}_shed"] = outcome.total_shed
            checks[f"{policy}_cost_usd"] = outcome.total_cost_usd
            checks[f"{policy}_digest"] = digest(outcome.to_json())
            accounted = (outcome.total_completed + outcome.total_shed
                         + outcome.total_failed)
            if outcome.total_offered != accounted:
                violations.append(
                    f"{policy}_offered: {outcome.total_offered} != completed "
                    f"+ shed + failed = {accounted}")
        reports = [report for outcome in outcomes
                   for report in outcome.reports.values()]
        return Outcome(
            checks=checks,
            requests=sum(o.total_offered for o in outcomes),
            served=sum(o.total_completed for o in outcomes),
            # The worst-served tenant's percentiles: the serving layer
            # reports latency per tenant, not pooled.
            latency_p50_s=max(r.latency_p50 for r in reports),
            latency_p99_s=max(r.latency_p99 for r in reports),
            cost_usd=sum(o.total_cost_usd for o in outcomes),
            violations=violations)

    return Instance(body, evaluate)


# -- shard-replay ------------------------------------------------------------------


def _replay_config(shard, seed: int, size: str):
    if size == "tiny":
        return shard.ReplayConfig(
            tenants=3_000, events=6_000, window_s=300.0, seed=seed,
            control_interval_s=60.0, fail_at=(150.0,),
            fault_plan="shard-failure")
    return shard.ReplayConfig(seed=seed).smoke()


def _prepare_shard(offset: int, size: str) -> Instance:
    shard = import_module("repro.shard")

    config = _replay_config(shard, 7 + offset, size)

    def body():
        return shard.run_replay(config)

    def evaluate(result) -> Outcome:
        report = result.report
        violations = []
        if not report["balanced"]:
            violations.append("balanced: offered != completed + shed + "
                              "failed + pending")
        if result.full_scans != 0:
            violations.append(f"full_scans: {result.full_scans} != 0")
        if report["pending"] != 0:
            violations.append(f"pending: {report['pending']} != 0")
        return Outcome(
            checks={"distinct_tenants": result.distinct_tenants,
                    "completed": report["completed"],
                    "shed": report["shed"],
                    "recovered": report["recovered"],
                    "balanced": report["balanced"],
                    "full_scans": result.full_scans,
                    "failures": result.failures_injected,
                    "stale_retries": result.stale_retries,
                    "shards_final": result.shards_final,
                    "digest": result.digest()[:16]},
            requests=result.events, served=report["completed"],
            latency_p50_s=report["latency_p50"],
            latency_p99_s=report["latency_p99"],
            cost_usd=report["cost_usd"], violations=violations)

    return Instance(body, evaluate)


# -- q12-chaos ---------------------------------------------------------------------

_CHAOS_SIZES = {
    "full": {"repeats": 6, "lineitem": 12, "orders": 6, "join": 8},
    "tiny": {"repeats": 1, "lineitem": 4, "orders": 2, "join": 2},
}


def _prepare_chaos(offset: int, size: str) -> Instance:
    runner = import_module("repro.chaos.runner")
    suite = import_module("repro.workloads.suite")

    params = _CHAOS_SIZES[size]
    setup = suite.SuiteSetup(
        lineitem_partitions=params["lineitem"],
        orders_partitions=params["orders"], rows_per_partition=96,
        queries=("tpch-q12",))
    plan_kwargs = {"lineitem_fragments": params["lineitem"],
                   "orders_fragments": params["orders"],
                   "join_fragments": params["join"]}

    def body():
        return runner.run_chaos_suite(
            "demo-outage", queries=("tpch-q12",), repeats=params["repeats"],
            seed=offset, plan_kwargs=plan_kwargs, setup=setup)

    def evaluate(report) -> Outcome:
        violations = []
        if report.unrecovered != 0:
            violations.append(f"unrecovered: {report.unrecovered} != 0")
        runtimes = [o.runtime_s for o in report.outcomes if o.ok]
        return Outcome(
            checks={"repeats": params["repeats"], "goodput": report.goodput,
                    "unrecovered": report.unrecovered,
                    "retries": report.total_retries,
                    "hedges": report.total_hedges,
                    "digest": digest(report.to_json())},
            requests=report.offered, served=report.completed,
            latency_p50_s=_percentile(runtimes, 50) if runtimes else 0.0,
            latency_p99_s=_percentile(runtimes, 99) if runtimes else 0.0,
            cost_usd=sum(o.cost_cents for o in report.outcomes) / 100.0,
            violations=violations,
            layer_counts={"chaos.retries": report.total_retries,
                          "chaos.hedges": report.total_hedges})

    return Instance(body, evaluate)


WORKLOADS: dict[str, Workload] = {
    "q6-burst": Workload(
        name="q6-burst", unit="fragment",
        modules=("repro.core", "repro.datagen", "repro.engine",
                 "repro.engine.queries"),
        prepare=_prepare_q6,
        leaders=("network",)),
    "serving": Workload(
        name="serving", unit="query",
        modules=("repro.serve",),
        prepare=_prepare_serving,
        # The ROADMAP's ranking left numpy time unattributed; here it
        # counts to the engine operators that call it (see README.md).
        leaders=("network", "sim", "formats"), unranked=("engine",)),
    "shard-replay": Workload(
        name="shard-replay", unit="event",
        modules=("repro.shard",),
        prepare=_prepare_shard,
        leaders=("shard", "serve")),
    "q12-chaos": Workload(
        name="q12-chaos", unit="query",
        modules=("repro.chaos.runner", "repro.workloads.suite"),
        prepare=_prepare_chaos),
}


def ranking_holds(workload: Workload, self_s: dict[str, float]) -> bool:
    """Whether the leaders are the top layers by self time, in any order."""
    ranked = [layer for layer, _ in sorted(self_s.items(),
                                           key=lambda kv: -kv[1])
              if layer not in workload.unranked]
    return set(ranked[:len(workload.leaders)]) == set(workload.leaders)
