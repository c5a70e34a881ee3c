"""Where the traced run attaches to the simulator, and what it derives.

Every probe is a public entry point of one layer, plus the two places
where the kernel calls into a layer on its own: process resumption
(``Environment.process`` hands the kernel a generator) and the fabric's
timer callback (``Fabric._on_wake``). Layers are named by the ``LAYERS``
map of ``repro.lint.layer_dag``, the repository's only layer taxonomy:
a probe's layer is the layer of the module that defines it.

Counts come from two places. Call counts are bumped by the probes while
a body runs. Counters the program keeps itself (scheduled events,
request stats, cache hits, invocation records, fault counts) are read
from the objects the program builds, before and after the body, and
differenced. A metric that no public boundary can observe on a workload
is reported as missing with its reason, never as zero.
"""

from __future__ import annotations

import functools
import statistics
from importlib import import_module
from typing import Optional

from perfbench.tracer import Tracer

#: ``(module, class, method, counter)``: probed methods.
METHODS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("repro.sim.kernel", "Environment", "run", None),
    ("repro.core.context", "CloudSim", "run", None),
    ("repro.network.fabric", "Fabric", "transfer", "network.flows"),
    ("repro.network.fabric", "Fabric", "open_flow", "network.flows"),
    ("repro.network.fabric", "Fabric", "stop_flow", None),
    ("repro.network.fabric", "Fabric", "sync_now", "network.syncs"),
    ("repro.network.fabric", "Fabric", "_on_wake", "network.wakes"),
    ("repro.network.shaper", "TokenBucketShaper", "advance",
     "network.shaper_calls"),
    ("repro.network.shaper", "TokenBucketShaper", "next_change",
     "network.shaper_calls"),
    ("repro.storage.base", "StorageService", "get", "storage.gets"),
    ("repro.storage.base", "StorageService", "get_range",
     "storage.range_gets"),
    ("repro.storage.base", "StorageService", "put", "storage.puts"),
    # The engine's chunked reader skips ``get`` and drives these
    # directly, so they are the storage layer's entry points too.
    ("repro.storage.base", "StorageService", "check_fault", None),
    ("repro.storage.base", "StorageService", "_admit_one", None),
    ("repro.storage.base", "StorageService", "_transfer", None),
    ("repro.storage.client", "RetryingClient", "get", "storage.client_calls"),
    ("repro.storage.client", "RetryingClient", "get_range",
     "storage.client_calls"),
    ("repro.storage.client", "RetryingClient", "put", "storage.client_calls"),
    ("repro.formats.columnar", "ColumnarCache", "encode_batch", None),
    ("repro.faas.platform", "LambdaPlatform", "invoke", "faas.invocations"),
    ("repro.faas.platform", "LambdaPlatform", "invoke_async",
     "faas.invocations"),
    ("repro.engine.engine", "SkyriseEngine", "run_query", None),
    ("repro.engine.plan", "IdentityMemo", "get", "engine.memo_gets"),
    ("repro.serve.gateway", "QueryGateway", "submit", "serve.submits"),
    ("repro.serve.gateway", "QueryGateway", "pop", None),
    ("repro.shard.router", "ShardRouter", "route", "shard.routes"),
    ("repro.shard.router", "ShardRouter", "submit", None),
    ("repro.shard.directory", "PartitionDirectory", "locate",
     "shard.locates"),
    ("repro.shard.rebalance", "Rebalancer", "step", None),
    ("repro.chaos.injector", "FaultInjector", "on_invoke", None),
    ("repro.chaos.injector", "FaultInjector", "on_place", None),
    ("repro.chaos.injector", "FaultInjector", "on_storage", None),
    ("repro.chaos.injector", "FaultInjector", "on_shard", None),
    ("repro.pricing.calculator", "CostCalculator", "add_function_invocation",
     None),
    ("repro.pricing.calculator", "CostCalculator", "add_vm_time", None),
    ("repro.pricing.calculator", "CostCalculator", "add_storage_requests",
     None),
    ("repro.pricing.calculator", "CostCalculator", "add_storage_capacity",
     None),
)

#: ``(module, function, counter)``: probed module-level functions.
FUNCTIONS: tuple[tuple[str, str, Optional[str]], ...] = (
    ("repro.formats.columnar", "read_file", "formats.reads"),
    ("repro.formats.columnar", "write_file", None),
    ("repro.datagen.datasets", "load_table", None),
    ("repro.workloads.traffic", "zipf_trace", None),
    ("repro.workloads.traffic", "poisson_arrivals", None),
    ("repro.telemetry.export", "canonical_json", None),
    ("repro.telemetry.recorder", "get_recorder", None),
    ("repro.serve.service", "run_serving_workload", None),
    ("repro.chaos.runner", "run_chaos_suite", None),
    ("repro.shard.replay", "run_replay", None),
)

#: ``(module, class, kind)``: objects whose own counters are read.
COLLECTED: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.kernel", "Environment", "env"),
    ("repro.storage.base", "StorageService", "storage"),
    ("repro.storage.client", "RetryingClient", "client"),
    ("repro.formats.columnar", "ColumnarCache", "cache"),
    ("repro.faas.platform", "LambdaPlatform", "platform"),
    ("repro.chaos.injector", "FaultInjector", "injector"),
    ("repro.shard.router", "ShardRouter", "router"),
)

#: The per-layer metrics of the traced report, in print order, by unit.
METRICS: tuple[tuple[str, str], ...] = (
    ("sim.events", "count"), ("sim.self_s", "s"),
    ("network.flows", "count"), ("network.syncs", "count"),
    ("network.shaper_calls", "count"),
    ("network.shaper_calls_per_flow", "calls/flow"),
    ("network.self_s", "s"),
    ("storage.gets", "count"), ("storage.range_gets", "count"),
    ("storage.puts", "count"), ("storage.get_requests", "count"),
    ("storage.put_requests", "count"), ("storage.admit_ratio", "1"),
    ("storage.retries", "count"), ("storage.self_s", "s"),
    ("formats.reads", "count"), ("formats.cache_hit_ratio", "1"),
    ("formats.self_s", "s"),
    ("engine.fragments", "count"), ("engine.memo_hit_ratio", "1"),
    ("engine.self_s", "s"),
    ("faas.invocations", "count"), ("faas.cold_starts", "count"),
    ("faas.self_s", "s"),
    ("serve.submits", "count"), ("serve.self_s", "s"),
    ("shard.routes", "count"), ("shard.route_cache_hit_ratio", "1"),
    ("shard.stale_retries", "count"), ("shard.self_s", "s"),
    ("chaos.faults", "count"), ("chaos.retries", "count"),
    ("chaos.hedges", "count"), ("chaos.self_s", "s"),
    ("telemetry.self_s", "s"), ("pricing.self_s", "s"),
    ("trace.overhead_ratio", "1"),
)


@functools.lru_cache(maxsize=None)
def layer_of(module: str) -> Optional[str]:
    """The ``LAYERS`` layer of ``module`` (most specific prefix wins)."""
    from repro.lint.layer_dag import LAYERS

    best, best_len = None, -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            # The bare ``repro`` prefix matches the package itself only.
            if module == prefix or (prefix != "repro"
                                    and module.startswith(prefix + ".")):
                if len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
    return best


def _fragment_id(context, payload) -> Optional[str]:
    """Request id of a worker span: query, pipeline, fragment, attempt."""
    if not isinstance(payload, dict) or "query_id" not in payload:
        return None
    pipeline = payload.get("pipeline")
    stage = pipeline.get("id", "") if isinstance(pipeline, dict) else ""
    return (f"{payload['query_id']}/{stage}/{payload.get('fragment')}"
            f"#{payload.get('attempt', 0)}")


def install(tracer: Tracer) -> None:
    """Attach every probe (idempotent only after :meth:`Tracer.uninstall`)."""
    for module, cls_name, method, counter in METHODS:
        cls = getattr(import_module(module), cls_name)
        tracer.patch_method(cls, method, layer_of(module), counter)
    for module, function, counter in FUNCTIONS:
        import_module(module)
        tracer.patch_function(module, function, layer_of(module), counter)

    # Every process resumption is the kernel calling into the layer that
    # wrote the generator.
    kernel = import_module("repro.sim.kernel")
    spawn = kernel.Environment.__dict__["process"]

    def process(env, generator, name=None):
        if tracer.active and getattr(generator, "gi_frame", None) is not None:
            layer = layer_of(generator.gi_frame.f_globals.get("__name__", ""))
            if layer is not None:
                generator = tracer.wrap_generator(
                    generator, layer, f"process {generator.__name__}")
        return spawn(env, generator, name)

    tracer.replace(kernel.Environment, "process", process)

    # The worker handler a deployed engine runs once per fragment.
    import_module("repro.engine.worker")
    tracer.patch_function(
        "repro.engine.worker", "make_worker_handler", "engine",
        result=lambda handler: tracer.probe(
            handler, "engine", "worker handler", "engine.fragments",
            request=_fragment_id))

    # Memo misses: count the parse function each memo is built with.
    plan = import_module("repro.engine.plan")

    def counting_parse(args, kwargs):
        parse = args[0] if args else kwargs.pop("parse")

        def parse_counted(data):
            if tracer.active:
                tracer.counts["engine.memo_parses"] = \
                    tracer.counts.get("engine.memo_parses", 0) + 1
            return parse(data)

        return (parse_counted,) + tuple(args[1:]), kwargs

    tracer.patch_init(plan.IdentityMemo, before=counting_parse)

    for module, cls_name, kind in COLLECTED:
        tracer.patch_init(getattr(import_module(module), cls_name), kind=kind)


def snapshot(tracer: Tracer) -> dict[str, Optional[float]]:
    """Counters the program keeps itself, summed over collected objects.

    ``None`` marks a counter whose owning object was never built; the
    metrics read that as zero work, except where the work exists but is
    kept elsewhere (see :func:`layer_metrics`).
    """
    found = tracer.objects

    def total(kind: str, read) -> Optional[float]:
        objects = found.get(kind, [])
        return sum(read(obj) for obj in objects) if objects else None

    return {
        "sim.events": total("env", lambda env: env.scheduled_events),
        "storage.attempts": total("storage", lambda s: s.stats.total()),
        "storage.get_requests": total(
            "storage", lambda s: s.stats.total(_request_type("GET"))),
        "storage.put_requests": total(
            "storage", lambda s: s.stats.total(_request_type("PUT"))),
        "storage.successes": total("storage", lambda s: s.stats.successes),
        "client.attempts": total("client", lambda c: c.stats.attempts),
        "cache.hits": total("cache", lambda c: c.hits),
        "cache.lookups": total("cache", lambda c: c.hits + c.misses),
        "faas.cold": total("platform", lambda p: sum(
            1 for record in p.records if record.cold)),
        "shard.stale": total("router", lambda r: r.stale_retries),
        "chaos.faults": total("injector", lambda i: i.total_injected),
    }


def _request_type(name: str):
    return getattr(import_module("repro.storage.base").RequestType, name)


def _delta(before: dict, after: dict, key: str) -> Optional[float]:
    if after[key] is None:
        return None
    return after[key] - (before[key] or 0)


def _ratio(numerator: float, denominator: float, what: str):
    if not denominator:
        return None, f"no {what} in this workload (ratio undefined)"
    return numerator / denominator, None


def layer_metrics(tracer: Tracer, before: dict, after: dict,
                  layer_counts: dict) -> dict[str, tuple]:
    """Per-layer metrics of one traced rep: name -> (value, reason).

    ``value`` is ``None`` exactly when ``reason`` says why the metric
    cannot be observed on this workload. ``layer_counts`` are counts the
    workload's own outputs report (the chaos suite's resilience report).
    """
    counts = tracer.counts
    self_s = tracer.self_s
    out: dict[str, tuple] = {}

    def count(name: str) -> int:
        return counts.get(name, 0)

    events = _delta(before, after, "sim.events")
    if events is None:
        out["sim.events"] = (None, "no simulation Environment was built "
                                   "(the workload runs on a manual clock)")
        out["sim.self_s"] = out["sim.events"]
    else:
        out["sim.events"] = (events, None)
        out["sim.self_s"] = (self_s.get("sim", 0.0), None)

    for layer_name in ("network", "storage", "formats", "engine", "faas",
                       "serve", "shard", "chaos", "telemetry", "pricing"):
        out[f"{layer_name}.self_s"] = (self_s.get(layer_name, 0.0), None)

    flows = count("network.flows")
    out["network.flows"] = (flows, None)
    out["network.syncs"] = (count("network.syncs"), None)
    out["network.shaper_calls"] = (count("network.shaper_calls"), None)
    out["network.shaper_calls_per_flow"] = _ratio(
        count("network.shaper_calls"), flows, "fabric flows")

    out["storage.gets"] = (count("storage.gets"), None)
    out["storage.range_gets"] = (count("storage.range_gets"), None)
    out["storage.puts"] = (count("storage.puts"), None)
    for name in ("storage.get_requests", "storage.put_requests"):
        out[name] = (_delta(before, after, name) or 0, None)
    attempts = _delta(before, after, "storage.attempts") or 0
    out["storage.admit_ratio"] = _ratio(
        _delta(before, after, "storage.successes") or 0, attempts,
        "storage requests")
    client_attempts = _delta(before, after, "client.attempts")
    if client_attempts is None and attempts:
        out["storage.retries"] = (
            None, "no RetryingClient was built, so no ClientStats: the "
                  "engine retries inside its IoStack, which keeps the count "
                  "to itself")
    elif client_attempts is None:
        out["storage.retries"] = (0, None)
    else:
        out["storage.retries"] = (
            client_attempts - count("storage.client_calls"), None)

    out["formats.reads"] = (count("formats.reads"), None)
    lookups = _delta(before, after, "cache.lookups")
    out["formats.cache_hit_ratio"] = _ratio(
        _delta(before, after, "cache.hits") or 0, lookups or 0,
        "ColumnarCache lookups")

    out["engine.fragments"] = (count("engine.fragments"), None)
    gets = count("engine.memo_gets")
    out["engine.memo_hit_ratio"] = _ratio(
        gets - count("engine.memo_parses"), gets, "IdentityMemo lookups")

    out["faas.invocations"] = (count("faas.invocations"), None)
    cold = _delta(before, after, "faas.cold")
    out["faas.cold_starts"] = (cold or 0, None)

    out["serve.submits"] = (count("serve.submits"), None)

    routes = count("shard.routes")
    out["shard.routes"] = (routes, None)
    out["shard.route_cache_hit_ratio"] = _ratio(
        routes - count("shard.locates"), routes, "shard routes")
    out["shard.stale_retries"] = (_delta(before, after, "shard.stale") or 0,
                                  None)

    out["chaos.faults"] = (_delta(before, after, "chaos.faults") or 0, None)
    for name in ("chaos.retries", "chaos.hedges"):
        if name in layer_counts:
            out[name] = (layer_counts[name], None)
        else:
            out[name] = (None, "no resilience report: the workload runs no "
                               "chaos suite")
    return out


def median_layers(reps: list[dict[str, tuple]]) -> dict[str, tuple]:
    """Per-layer metrics over traced reps: counts repeat, times vary.

    A metric that reads the same in every rep (every count does, the
    simulation being deterministic) keeps its value; the others (self
    times, and ratios of them) take the median.
    """
    merged: dict[str, tuple] = {}
    for name in reps[0]:
        values = [rep[name][0] for rep in reps]
        if any(value is None for value in values) \
                or all(value == values[0] for value in values):
            merged[name] = reps[0][name]
        else:
            merged[name] = (statistics.median(values), None)
    return merged
