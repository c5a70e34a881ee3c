"""Deterministic million-tenant trace replay over the sharded fabric.

The full discrete-event kernel prices every arrival at a heap push plus
a process step — fine for thousands of queries, hopeless for millions.
The replay keeps the *admission* path fully real (router, route cache,
epoch fences, gateway queues, shed decisions, rebalancer, failures) and
replaces only query *execution* with an analytic slot model: each shard
is ``slots`` parallel servers; a heap of slot-free times is drained as
the trace clock advances, and each dispatch's completion time is known
in closed form. Everything runs on a :class:`ManualClock`, so the whole
run is a single pass over the trace — O(events) work, O(active) memory.

There is one kernel and one oracle:

* :func:`run_replay` is the kernel. Its trace walk routes each arrival
  through the router's data plane (:meth:`ShardRouter.admit`) and
  appends an *op* to the routed shard's buffer; each shard then
  replays its ops through a batched fast lane. Between control ticks
  no directory mutation, failure, rebalance, or SLO scrape can happen,
  so each shard's drain is independent of every other shard's, and
  the buffers are flushed at every tick and every :data:`_WINDOW`
  events without changing any outcome.
* :func:`run_replay_reference` steps the same fleet one arrival at a
  time. It is the oracle the kernel must match byte for byte — called
  by the tests and the ``repro shard --smoke`` gate, never by product
  code.

Two instruments make the complexity claims checkable rather than
asserted:

* :class:`ScanGuard` wraps every gateway's tenant-keyed dicts and
  counts *full iterations* (``keys``/``values``/``items``/``iter``).
  The replay reports ``full_scans``; the bench gate pins it to zero —
  the per-event cost provably never walks a tenant-sized structure.
* The result digest is :func:`~repro.telemetry.canonical_json` hashed
  over the fleet roll-up, the rebalance history, and every counter —
  two same-seed runs must be byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.serve.gateway import QueryGateway, Tenant
from repro.serve.metrics import CompletedQuery
from repro.shard.metrics import ShardMetrics
from repro.shard.rebalance import Rebalancer
from repro.shard.router import ShardRouter
from repro.sim.rng import RandomStreams
from repro.telemetry import canonical_json

# The histogram bucket constants, so the fast lane can inline
# ``LatencyHistogram.record`` (same expressions, same order — the
# digest pins the equivalence).
from repro.telemetry.metrics import _BUCKETS, _BUCKETS_PER_DECADE, _LOG_MIN
from repro.workloads.traffic import zipf_trace

#: Cost model of one served query: the paper's Lambda price point
#: (USD per GB-second) at 2 GB, applied to analytic service time.
_USD_PER_SLOT_SECOND = 2.0 * 0.0000166667

_TOP_BUCKET = _BUCKETS + 1

#: Trace events the kernel converts to Python objects at a time; also
#: its flush boundary. One constant bounds both the trace slice and the
#: op buffers, so the kernel's memory does not grow with the trace.
_WINDOW = 16_384


class ManualClock:
    """A bare virtual clock: the only ``env`` surface the replay needs.

    Gateways read ``env.now`` for timestamps; nothing here schedules —
    the replay advances ``now`` itself, one trace arrival at a time.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class ScanGuard(dict):
    """A dict that counts full iterations over itself.

    Keyed lookups (``get``/``[]``/``in``/``len``) stay free; anything
    that walks the whole mapping bumps :attr:`full_scans`. Wrapped
    around tenant-keyed gateway state, a zero count after a
    million-event replay is a *proof* the hot path is O(1) in tenant
    count — not a benchmark that happens to be fast.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.full_scans = 0

    def __iter__(self):
        self.full_scans += 1
        return super().__iter__()

    def keys(self):
        self.full_scans += 1
        return super().keys()

    def values(self):
        self.full_scans += 1
        return super().values()

    def items(self):
        self.full_scans += 1
        return super().items()

    def copy(self):
        """Counted: copying *is* a full scan — exactly once.

        Whether ``dict.copy`` on a subclass dispatches through the
        Python-level ``keys()`` override is a CPython implementation
        detail: overriding ``__iter__`` changes ``tp_iter``, which
        defeats ``PyDict_Merge``'s exact-dict fast path and sends the
        walk through ``keys()`` (counted) on current CPython — but
        that is nowhere contracted. Bumping only when the parent copy
        did not already count keeps ``sg.copy()`` at exactly one scan
        on any dispatch behavior. Walks that read the key table
        directly at the C level (``repr``, ``==``) remain invisible —
        the regression test pins the current census of both groups.
        """
        before = self.full_scans
        data = super().copy()
        self.full_scans = before + 1
        return data


@dataclass(frozen=True)
class ReplayConfig:
    """One sharded-serving replay, fully determined by its fields."""

    tenants: int = 1_000_000
    events: int = 1_500_000
    window_s: float = 3_600.0
    seed: int = 7
    shards: int = 4
    slots_per_shard: int = 16
    max_pending_per_shard: int = 4_096
    tenant_queue_depth: int = 32
    zipf_s: float = 1.3
    mean_service_s: float = 0.2
    slo_latency_s: float = 2.0
    control_interval_s: float = 60.0
    hot_factor: float = 1.15
    cold_factor: float = 0.55
    max_shards: int = 12
    #: Virtual times at which a shard failure is injected (the
    #: currently most-backlogged shard dies; its queue must be
    #: recovered, not lost).
    fail_at: tuple = ()
    #: Optional :mod:`repro.chaos` plan name; its ``shard_failure``
    #: specs are polled per live shard at every control tick.
    fault_plan: str = ""

    def __post_init__(self) -> None:
        # Each would otherwise fail far from its cause: no shard makes
        # the ring lookup raise, a slotless shard never drains, and a
        # non-positive interval never advances the control clock.
        if self.shards < 1:
            raise ValueError(
                f"ReplayConfig.shards must be >= 1, got {self.shards!r}")
        if self.slots_per_shard < 1:
            raise ValueError(f"ReplayConfig.slots_per_shard must be >= 1, "
                             f"got {self.slots_per_shard!r}")
        if not self.control_interval_s > 0:
            raise ValueError(f"ReplayConfig.control_interval_s must be > 0, "
                             f"got {self.control_interval_s!r}")

    def smoke(self) -> "ReplayConfig":
        """The CI-sized variant: >=100k tenants, truncated trace."""
        return dataclasses.replace(
            self, tenants=120_000, events=180_000, window_s=600.0,
            control_interval_s=60.0, fail_at=(150.0,),
            fault_plan="shard-failure")


@dataclass
class ReplayResult:
    """The replay's outcome: the roll-up, the history, the proof bits.

    ``extra`` carries non-deterministic annotations (wall times, RSS);
    it is deliberately excluded from :meth:`to_dict` and the digest.
    """

    report: dict
    rebalances: list[dict]
    distinct_tenants: int
    events: int
    shards_final: int
    submits: int
    stale_retries: int
    migrated: int
    recovered: int
    full_scans: int
    failures_injected: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "report": self.report,
            "rebalances": self.rebalances,
            "distinct_tenants": self.distinct_tenants,
            "events": self.events,
            "shards_final": self.shards_final,
            "submits": self.submits,
            "stale_retries": self.stale_retries,
            "migrated": self.migrated,
            "recovered": self.recovered,
            "full_scans": self.full_scans,
            "failures_injected": self.failures_injected,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the full outcome."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()


class _SlotBank:
    """Analytic execution model of one shard: ``slots`` parallel servers."""

    __slots__ = ("slots", "busy")

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self.busy: list[float] = []  # heap of slot-free times


def _next_request(gateway: QueryGateway):
    """Pop the next request: round-robin across backlogged tenants.

    FIFO within a tenant; tenants take turns in first-backlogged
    order. O(1) per call — one dict-head read, one deque pop, and a
    constant-cost rotation of the backlog index.
    """
    backlog = gateway._backlog
    if not backlog:
        return None
    name = next(iter(backlog))
    request = gateway.pop(name)
    if name in backlog:  # still backlogged: rotate to the back
        del backlog[name]
        backlog[name] = None
    return request


# Knuth's multiplicative hash constant, for the observer interest
# filter's deterministic request-id slice (shared spec with
# ``repro.obs.sampler.baseline_keep`` — kept as a literal so the shard
# layer stays import-free of obs).
_SAMPLE_HASH_MULT = 2654435761

#: Sentinel slow-threshold: every latency compares >= -inf, so an
#: observer without an interest spec sees every completion.
_ALWAYS = float("-inf")

#: The completion hook of a run without an observer, unpacked the way
#: ``_advance`` takes it: no callback, every interest bound open.
_NO_HOOK = (None, _ALWAYS, 0, 0)


def _complete(metrics, request, start: float, shard: str = "",
              on_completion=None, slow_s: float = _ALWAYS,
              salt: int = 0, cut: int = 0) -> float:
    finish = start + request.plan
    metrics.record_completion(CompletedQuery(
        tenant=request.tenant, query_id=f"q{request.seq}",
        submitted_at=request.submitted_at, started_at=start,
        finished_at=finish, runtime=request.plan,
        cost_usd=request.plan * _USD_PER_SLOT_SECOND,
        retries=0, hedges=0))
    if on_completion is not None:
        # Interest pre-filter (see run_replay): three scalar checks in
        # place of a Python call per served request. With the default
        # sentinel bounds every completion passes.
        if (finish - request.submitted_at >= slow_s or request.rescued
                or ((request.seq * _SAMPLE_HASH_MULT + salt)
                    & 0xFFFFFFFF) < cut):
            on_completion(finish, shard, request)
    return finish


def _advance(bank: _SlotBank, gateway: QueryGateway, now: float,
             on_completion=None, slow_s: float = _ALWAYS,
             salt: int = 0, cut: int = 0) -> None:
    """Drain one shard's slots up to virtual time ``now``.

    ``on_completion`` is the observer's pre-bound completion hook (not
    the observer itself) and ``slow_s``/``salt``/``cut`` its unpacked
    interest spec: both are hoisted out of the loop at the call sites
    because this is the replay's per-event hot path.
    """
    busy = bank.busy
    shard = gateway.shard_id
    metrics = gateway.metrics
    while busy and busy[0] <= now:
        freed = heapq.heappop(busy)
        request = _next_request(gateway)
        if request is None:
            continue
        start = freed if freed >= request.submitted_at \
            else request.submitted_at
        heapq.heappush(busy, _complete(metrics, request, start, shard,
                                       on_completion, slow_s, salt, cut))
    while len(busy) < bank.slots:
        request = _next_request(gateway)
        if request is None:
            break
        heapq.heappush(busy, _complete(metrics, request, now, shard,
                                       on_completion, slow_s, salt, cut))


def _quiesce(bank: _SlotBank, gateway: QueryGateway, horizon: float,
             step: float, on_completion=None, slow_s: float = _ALWAYS,
             salt: int = 0, cut: int = 0) -> None:
    """Drain one shard past its last completion (end of trace)."""
    while bank.busy or gateway.total_pending:
        if bank.busy:
            horizon = max(horizon, bank.busy[0])
        _advance(bank, gateway, horizon, on_completion, slow_s, salt, cut)
        horizon += step


def _distinct(ids) -> int:
    """Distinct tenant ids in the trace, without a million-entry set."""
    if len(ids) == 0:
        return 0
    ordered = ids.copy()
    ordered.sort()
    return 1 + int((ordered[1:] != ordered[:-1]).sum())


def _trace(config: ReplayConfig):
    """The seeded trace: arrival times, tenant ids, service times."""
    streams = RandomStreams(config.seed)
    times, ids = zipf_trace(
        streams.stream("shard.trace"), config.tenants, config.events,
        config.window_s, s=config.zipf_s)
    services = streams.stream("shard.service").exponential(
        config.mean_service_s, size=config.events)
    return times, ids, services


class _Fleet:
    """What the kernel and its oracle share: fleet, banks, control plane.

    The router's gateways are built by :meth:`_gateway`, which wraps
    their tenant-keyed dicts in :class:`ScanGuard`; ``banks`` holds one
    :class:`_SlotBank` per live shard. :meth:`tick` is the control step
    at an interval boundary and :meth:`finish` drains to quiescence and
    packages the result, so the two kernels differ only in how they
    walk the trace between ticks.
    """

    def __init__(self, config: ReplayConfig, observer) -> None:
        self.config = config
        self.observer = observer
        self.clock = ManualClock()
        #: Every ScanGuard ever created, retired gateways included —
        #: the run's ``full_scans`` proof covers dead shards too.
        self.guards: list[ScanGuard] = []
        template = Tenant(name="__default__",
                          max_queue_depth=config.tenant_queue_depth,
                          slo_latency_s=config.slo_latency_s)
        self.router = ShardRouter(
            self.clock, shards=config.shards,
            max_pending=config.max_pending_per_shard,
            default_tenant=template, slo_latency_s=config.slo_latency_s,
            gateway_factory=self._gateway)
        self.rebalancer = Rebalancer(
            self.router, seed=config.seed, hot_factor=config.hot_factor,
            cold_factor=config.cold_factor, min_shards=1,
            max_shards=config.max_shards)
        self.banks: dict[str, _SlotBank] = {
            shard: _SlotBank(config.slots_per_shard)
            for shard in self.router.shards()}
        self.pending_failures = sorted(config.fail_at)
        self.failures = 0
        # The per-completion hook, pre-bound with its interest spec
        # unpacked: it fires once per served request, the other
        # observer hooks only at control cadence.
        self.hook = _NO_HOOK
        if observer is not None:
            interest = getattr(observer, "completion_interest", None)
            self.hook = (observer.on_completion,
                         *(interest or _NO_HOOK[1:]))
        self.injector = None
        if config.fault_plan:
            from repro.chaos.injector import FaultInjector
            from repro.chaos.plan import get_plan
            self.injector = FaultInjector(get_plan(config.fault_plan),
                                          RandomStreams(config.seed))
            if observer is not None:
                self.injector.observer = observer

    def _gateway(self, env, **kwargs) -> QueryGateway:
        gateway = QueryGateway(env, **kwargs)
        gateway.queues = ScanGuard(gateway.queues)
        gateway.tenants = ScanGuard(gateway.tenants)
        self.guards.append(gateway.queues)
        self.guards.append(gateway.tenants)
        return gateway

    def _kill(self, victim: str) -> None:
        orphans = self.router.fail_shard(victim)
        self.banks.pop(victim)
        self.failures += 1
        if self.observer is not None:
            self.observer.on_shard_failure(self.clock.now, victim, orphans)

    def tick(self, at: float) -> None:
        """The control step at ``at``: failures, drain, rebalance."""
        router = self.router
        gateways = router.gateways
        self.clock.now = at
        # Failures fire on the un-drained state: whatever is still
        # queued on the victim at the instant it dies is exactly the
        # work that must be recovered, not completed.
        while self.pending_failures and self.pending_failures[0] <= at:
            self.pending_failures.pop(0)
            if len(gateways) > 1:
                depth = {shard: gateways[shard].total_pending
                         for shard in sorted(gateways)}
                self._kill(max(sorted(depth), key=lambda s: depth[s]))
        if self.injector is not None:
            for shard in router.shards():
                if len(gateways) > 1 and self.injector.on_shard(shard, at):
                    self._kill(shard)
        for shard in sorted(self.banks):
            _advance(self.banks[shard], gateways[shard], at, *self.hook)
        for event in self.rebalancer.step(at):
            if event.action == "split":
                self.banks[event.peer] = _SlotBank(
                    self.config.slots_per_shard)
            elif event.action == "merge":
                self.banks.pop(event.shard)
        if self.observer is not None:
            self.observer.on_control_tick(at, router)

    def finish(self, ids) -> ReplayResult:
        """Drain every shard past its last job; package the outcome."""
        config = self.config
        router = self.router
        self.clock.now = config.window_s
        for shard in sorted(self.banks):
            _quiesce(self.banks[shard], router.gateways[shard],
                     config.window_s, config.mean_service_s, *self.hook)
        if self.observer is not None:
            self.observer.on_end(config.window_s, router)
        return ReplayResult(
            report=router.roll_up().to_dict(),
            rebalances=self.rebalancer.history(),
            distinct_tenants=_distinct(ids),
            events=config.events,
            shards_final=len(router.gateways),
            submits=router.submits,
            stale_retries=router.stale_retries,
            migrated=router.migrated,
            recovered=router.fleet.recovered_requests,
            full_scans=sum(guard.full_scans for guard in self.guards),
            failures_injected=self.failures)


# -- the kernel ------------------------------------------------------------------
#
# Op encodings (the first element is always the virtual time):
#
# * ``(now, tenant, service)`` — advance, submit, advance-if-admitted:
#   the common event.
# * ``(now,)`` — advance only: the shard a stale route named, when the
#   refreshed route sent the tenant elsewhere.
# * ``(now, tenant, service, 0)`` — submit without pre-advance: the
#   shard that stale event lands on (the reference advanced the stale
#   shard, not this one, before its retry).


def _replay_op(gateway: QueryGateway, bank: _SlotBank, clock: ManualClock,
               op: tuple, hook: tuple) -> None:
    """One op, stepped exactly as the reference steps its event."""
    now = op[0]
    clock.now = now
    if len(op) != 4:
        _advance(bank, gateway, now, *hook)
        if len(op) == 1:
            return
    if gateway.submit(op[1], op[2]) is not None:
        _advance(bank, gateway, now, *hook)


def _run_collect(gateway: QueryGateway, bank: _SlotBank,
                 clock: ManualClock, ops: list, gidxs: list,
                 interest: tuple) -> list:
    """Observer path: the reference's steps, with tagged completions.

    Returns every completion the interest spec keeps as ``(tag,
    finish, shard, request)`` with ``tag = (event index, phase, firing
    order)``; phase 1 marks the landing shard of a stale event, which
    the reference reaches after the stale shard's advance. Sorting all
    shards' keeps by tag restores the reference's firing order.
    """
    kept: list = []
    tag = [0, 0, 0]

    def keep(finish: float, shard: str, request) -> None:
        kept.append(((tag[0], tag[1], tag[2]), finish, shard, request))
        tag[2] += 1

    hook = (keep, *interest)
    for op, gidx in zip(ops, gidxs):
        tag[0] = gidx
        tag[1] = 1 if len(op) == 4 else 0
        tag[2] = 0
        _replay_op(gateway, bank, clock, op, hook)
    return kept


def _run_fast(gateway: QueryGateway, bank: _SlotBank, clock: ManualClock,
              ops: list) -> None:
    """Bare path: inlined dispatch plus the closed-form fast lane.

    Bit-equivalence with the reference is argued update by update: the
    dispatch blocks below are ``_next_request`` + ``_complete`` +
    ``ShardMetrics.record_completion`` inlined (same arithmetic
    expressions, same order of float accumulation). The fast lane only
    fires when the shard has no backlog, no external admissions, and a
    free slot — exactly the state in which the full path would offer,
    admit, dispatch at ``start = now``, and complete with no other side
    effect. ``queue_wait_sum += start - submitted_at`` is skipped there
    because the increment is exactly ``+0.0``, the identity on the
    non-negative sum. Expired slots are dropped early whenever the
    backlog is empty: no queued request can claim them, and a request
    queued later starts at its own submission time either way.
    ``LatencyHistogram.record`` is inlined with the same expressions in
    the same order, and the clock is written only on slow-path
    excursions — ``submit`` is the only callee that reads it.

    A gateway with telemetry, a scheduler hook, or a zero pending bound
    is stepped through the reference path instead.
    """
    if (gateway._telemetry is not None or gateway.on_submit is not None
            or gateway.max_pending < 1):
        for op in ops:
            _replay_op(gateway, bank, clock, op, _NO_HOOK)
        return
    metrics = gateway.metrics
    busy = bank.busy
    slots = bank.slots
    slo = metrics.slo_latency_s
    hist = metrics.latency
    counts = hist.counts
    backlog = gateway._backlog
    queues = gateway.queues
    tenants = gateway.tenants
    seq = gateway._seq
    submit = gateway.submit
    heappop = heapq.heappop
    heappush = heapq.heappush
    log10 = math.log10

    for op in ops:
        now = op[0]
        if not backlog:
            while busy and busy[0] <= now:
                heappop(busy)
        elif len(op) != 4:
            # The pre-advance: slots freed by ``now`` take queued work
            # first, then idle slots fill.
            while busy and busy[0] <= now:
                freed = heappop(busy)
                if not backlog:
                    continue
                name = next(iter(backlog))
                queue = queues[name]
                request = queue.popleft()
                gateway._pending -= 1
                del backlog[name]
                if queue:
                    backlog[name] = None
                elif name not in tenants:
                    del queues[name]
                submitted = request.submitted_at
                start = freed if freed >= submitted else submitted
                plan = request.plan
                finish = start + plan
                metrics.completed += 1
                latency = finish - submitted
                if latency <= 0.0:
                    counts[0] += 1
                else:
                    bucket = int((log10(latency) - _LOG_MIN)
                                 * _BUCKETS_PER_DECADE) + 1
                    if bucket < 0:
                        bucket = 0
                    elif bucket > _TOP_BUCKET:
                        bucket = _TOP_BUCKET
                    counts[bucket] += 1
                hist.total += 1
                metrics.queue_wait_sum += start - submitted
                metrics.cost_usd += plan * _USD_PER_SLOT_SECOND
                if latency <= slo:
                    metrics.within_slo += 1
                heappush(busy, finish)
            while backlog and len(busy) < slots:
                name = next(iter(backlog))
                queue = queues[name]
                request = queue.popleft()
                gateway._pending -= 1
                del backlog[name]
                if queue:
                    backlog[name] = None
                elif name not in tenants:
                    del queues[name]
                submitted = request.submitted_at
                plan = request.plan
                finish = now + plan
                metrics.completed += 1
                latency = finish - submitted
                if latency <= 0.0:
                    counts[0] += 1
                else:
                    bucket = int((log10(latency) - _LOG_MIN)
                                 * _BUCKETS_PER_DECADE) + 1
                    if bucket < 0:
                        bucket = 0
                    elif bucket > _TOP_BUCKET:
                        bucket = _TOP_BUCKET
                    counts[bucket] += 1
                hist.total += 1
                metrics.queue_wait_sum += now - submitted
                metrics.cost_usd += plan * _USD_PER_SLOT_SECOND
                if latency <= slo:
                    metrics.within_slo += 1
                heappush(busy, finish)
        if len(op) == 1:
            continue
        if not backlog and gateway._external == 0 and len(busy) < slots:
            service = op[2]
            metrics.offered += 1
            next(seq)
            finish = now + service
            metrics.completed += 1
            latency = finish - now
            if latency <= 0.0:
                counts[0] += 1
            else:
                bucket = int((log10(latency) - _LOG_MIN)
                             * _BUCKETS_PER_DECADE) + 1
                if bucket < 0:
                    bucket = 0
                elif bucket > _TOP_BUCKET:
                    bucket = _TOP_BUCKET
                counts[bucket] += 1
            hist.total += 1
            metrics.cost_usd += service * _USD_PER_SLOT_SECOND
            if latency <= slo:
                metrics.within_slo += 1
            heappush(busy, finish)
        else:
            clock.now = now
            if submit(op[1], op[2]) is not None:
                _advance(bank, gateway, now)


def run_replay(config: ReplayConfig, observer=None) -> ReplayResult:
    """Replay a Zipf trace through the sharded fabric, deterministically.

    One pass over the trace: each arrival is routed through the
    router's data plane (cache, epoch fence, one refresh) and buffered
    as an op on its shard; at every control tick and every
    :data:`_WINDOW` arrivals the buffers are flushed, each shard
    advancing its slot bank and offering its queries (shed bound
    included) in arrival order. Every ``control_interval_s`` the
    rebalancer takes a load window and may split/merge; configured
    shard failures fire at the control cadence too. After the last
    arrival all shards are drained to quiescence, and the fleet roll-up
    is reconciled. The outcome is byte-identical to
    :func:`run_replay_reference`.

    ``observer`` is an optional observability plane (duck-typed; see
    :class:`repro.obs.plane.ReplayObsPlane`): ``on_completion`` fires
    per served request, ``on_shard_failure`` when a shard dies,
    ``on_fault`` per injected chaos fault, ``on_control_tick`` after
    each control interval's drain/rebalance, and ``on_end`` after
    quiescence — every callback in the reference's order. Observation
    is strictly outcome-neutral — the returned result (and its digest)
    is byte-identical with or without one.

    An observer that only needs a *subset* of completions may expose a
    ``completion_interest = (slow_threshold_s, salt, cut)`` attribute:
    the replay then pre-filters the firehose inline — a completion is
    delivered iff its latency is ``>= slow_threshold_s``, the request
    was rescued from a failed shard, or the Knuth hash of its request
    id (salted with ``salt``, both ints) falls under ``cut`` (an
    integer threshold out of 2^32). Three scalar checks replace a
    Python call per served request; observers that expose it must
    reconstruct totals from the shard counters (they are scraped at
    every control tick anyway).
    """
    times, ids, services = _trace(config)
    fleet = _Fleet(config, observer)
    router = fleet.router
    admit = router.admit
    gateways = router.gateways
    banks = fleet.banks
    clock = fleet.clock
    on_completion, *interest = fleet.hook
    collect = observer is not None
    interval = config.control_interval_s
    next_control = interval
    #: Per-shard ops since the last flush, and (with an observer) the
    #: trace index of each op.
    buffers: defaultdict[str, list] = defaultdict(list)
    gidxs: defaultdict[str, list] = defaultdict(list)

    def flush() -> None:
        if collect:
            kept: list = []
            for shard, ops in buffers.items():
                kept.extend(_run_collect(gateways[shard], banks[shard],
                                         clock, ops, gidxs[shard],
                                         interest))
            kept.sort(key=lambda entry: entry[0])
            for _tag, finish, shard, request in kept:
                on_completion(finish, shard, request)
        else:
            for shard, ops in buffers.items():
                _run_fast(gateways[shard], banks[shard], clock, ops)
        buffers.clear()
        gidxs.clear()

    for start in range(0, config.events, _WINDOW):
        stop = min(start + _WINDOW, config.events)
        for index, now, tenant_id, service in zip(
                range(start, stop), times[start:stop].tolist(),
                ids[start:stop].tolist(), services[start:stop].tolist()):
            if now >= next_control:
                flush()
                while now >= next_control:
                    fleet.tick(next_control)
                    next_control += interval
            tenant = f"t{tenant_id}"
            first, route = admit(tenant)
            shard = route.shard
            if first == shard:
                op = (now, tenant, service)
            else:
                buffers[first].append((now,))
                if collect:
                    gidxs[first].append(index)
                op = (now, tenant, service, 0)
            buffers[shard].append(op)
            if collect:
                gidxs[shard].append(index)
        flush()
    return fleet.finish(ids)


def run_replay_reference(config: ReplayConfig,
                         observer=None) -> ReplayResult:
    """The event-at-a-time replay: :func:`run_replay`'s oracle.

    At each arrival the routed shard's slot bank is advanced to the
    arrival time, the query is offered through the router, and idle
    slots pull from the queues — the fleet stepped in trace order with
    no buffering and no fast lane. Same result, same observer callback
    sequence as the kernel; the tests and the ``repro shard --smoke``
    gate compare the two.
    """
    times, ids, services = _trace(config)
    fleet = _Fleet(config, observer)
    router = fleet.router
    banks = fleet.banks
    hook = fleet.hook
    next_control = config.control_interval_s

    for index in range(config.events):
        now = float(times[index])
        while now >= next_control:
            fleet.tick(next_control)
            next_control += config.control_interval_s
        fleet.clock.now = now
        tenant = f"t{ids[index]}"
        shard = router.route(tenant).shard
        _advance(banks[shard], router.gateways[shard], now, *hook)
        request = router.submit(tenant, float(services[index]))
        if request is not None:
            # A stale-epoch retry may have re-routed the tenant: the
            # cache is fresh after submit, so re-read the shard.
            shard = router.route(tenant).shard
            _advance(banks[shard], router.gateways[shard], now, *hook)
    return fleet.finish(ids)


def run_unsharded_replay(config: ReplayConfig) -> dict:
    """The same trace through one monolithic gateway (the baseline).

    Equal aggregate capacity (``shards * slots_per_shard`` slots, the
    summed pending bound), no router, no rebalancing — the comparison
    point BENCH_PR7 records events/sec and peak memory against.
    """
    times, ids, services = _trace(config)
    clock = ManualClock()
    template = Tenant(name="__default__",
                      max_queue_depth=config.tenant_queue_depth,
                      slo_latency_s=config.slo_latency_s)
    metrics = ShardMetrics(shard_id="mono",
                           slo_latency_s=config.slo_latency_s)
    gateway = QueryGateway(
        clock, metrics=metrics,
        max_pending=config.max_pending_per_shard * config.shards,
        shard_id="mono", default_tenant=template)
    bank = _SlotBank(config.slots_per_shard * config.shards)

    for index in range(config.events):
        now = float(times[index])
        clock.now = now
        _advance(bank, gateway, now)
        gateway.submit(f"t{ids[index]}", float(services[index]))
        _advance(bank, gateway, now)

    clock.now = config.window_s
    _quiesce(bank, gateway, config.window_s, config.mean_service_s)

    return {
        "offered": metrics.offered,
        "completed": metrics.completed,
        "shed": metrics.shed,
        "p50": metrics.latency.percentile(50.0),
        "p99": metrics.latency.percentile(99.0),
        "cost_usd": round(metrics.cost_usd, 9),
    }
