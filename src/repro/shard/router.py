"""The shard router: the fleet's O(1)-per-event data plane.

A :class:`ShardRouter` fronts a fleet of
:class:`~repro.serve.gateway.QueryGateway` shards. On the hot path it
does exactly three O(1)-in-tenant-count things per submission, all in
:meth:`ShardRouter.admit`: look the tenant up in a bounded route cache
(falling back to the directory's O(log vnodes) ring lookup on a miss),
compare the route's epoch with the routed shard's fence, and — if the
fence has advanced because a rebalance superseded the route — refresh
from the directory once. The refresh is bounded: the router is the
only mutator of the directory and re-syncs every live shard's fence
after each mutation, so a freshly fetched route is never stale. The
offer then carries the route's epoch, so the gateway's own fence
stays a backstop.

The control plane (``split_shard`` / ``merge_shard`` / ``fail_shard``
/ ``add_shard``) keeps the admitted-work invariant: whenever a shard
is retired or loses key ranges, its backlog is drained in arrival
order and re-homed on the shards the directory now names — admitted
queries are never dropped, and the fleet roll-up counts every re-homed
request as recovered.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.serve.gateway import QueryGateway, Tenant
from repro.shard.directory import PartitionDirectory, Route
from repro.shard.metrics import FleetMetrics, ShardMetrics
from repro.telemetry import get_recorder

#: Route-cache capacity: bounds router memory at O(cache), not
#: O(tenants ever seen); eviction is FIFO on insertion order, so it is
#: deterministic and O(1).
DEFAULT_ROUTE_CACHE = 65536


class ShardRouter:
    """Routes tenant traffic onto a fleet of gateway shards."""

    def __init__(self, env, shards: int = 2,
                 vnodes: Optional[int] = None,
                 max_pending: float = math.inf,
                 default_tenant: Optional[Tenant] = None,
                 slo_latency_s: float = math.inf,
                 route_cache_size: int = DEFAULT_ROUTE_CACHE,
                 gateway_factory: Optional[Callable[..., QueryGateway]]
                 = None,
                 directory: Optional[PartitionDirectory] = None) -> None:
        if route_cache_size <= 0:
            raise ValueError("route_cache_size must be positive")
        self.env = env
        self.directory = directory if directory is not None \
            else PartitionDirectory(shards=shards, vnodes=vnodes)
        self.max_pending = max_pending
        self.default_tenant = default_tenant
        self.slo_latency_s = slo_latency_s
        self.route_cache_size = route_cache_size
        self._gateway_factory = gateway_factory
        self.fleet = FleetMetrics()
        #: Live gateways by shard id.
        self.gateways: dict[str, QueryGateway] = {}
        #: Serving metrics of every shard *ever* — retired shards stay
        #: in the roll-up so conservation holds across rebalances.
        self.shard_metrics: dict[str, ShardMetrics] = {}
        #: Bounded tenant -> Route cache. OrderedDict for its O(1)
        #: ``popitem(last=False)``: FIFO eviction via ``next(iter(d))``
        #: on a plain dict degrades linearly with accumulated deletion
        #: tombstones at million-tenant churn.
        self._routes: OrderedDict[str, Route] = OrderedDict()
        #: Submissions per live shard since the last window take —
        #: the rebalancer's load signal.
        self._window: dict[str, int] = {}
        self.submits = 0
        self.stale_retries = 0
        self.migrated = 0
        recorder = get_recorder()
        self._telemetry = recorder if recorder.enabled else None
        if self._telemetry is not None:
            self._submit_counter = recorder.counter("router.submits")
            self._stale_counter = recorder.counter("router.stale_retries")
        for shard in self.directory.shards():
            self._spawn(shard)

    # -- fleet membership --------------------------------------------------

    def shards(self) -> list[str]:
        """Live shard ids, sorted."""
        return sorted(self.gateways)

    def _spawn(self, shard: str) -> QueryGateway:
        metrics = ShardMetrics(shard_id=shard,
                               slo_latency_s=self.slo_latency_s)
        if self._gateway_factory is not None:
            gateway = self._gateway_factory(
                self.env, metrics=metrics, max_pending=self.max_pending,
                shard_id=shard, default_tenant=self.default_tenant)
        else:
            gateway = QueryGateway(
                self.env, metrics=metrics, max_pending=self.max_pending,
                shard_id=shard, default_tenant=self.default_tenant)
        gateway.epoch = self.directory.shard_epoch(shard)
        self.gateways[shard] = gateway
        self.shard_metrics[shard] = metrics
        self._window[shard] = 0
        return gateway

    def _sync_fences(self) -> None:
        # After any directory mutation, every live shard's fence tracks
        # its directory epoch; O(shards), never O(tenants).
        for shard in sorted(self.gateways):
            self.gateways[shard].epoch = self.directory.shard_epoch(shard)

    # -- data plane --------------------------------------------------------

    def route(self, tenant: str) -> Route:
        """The cached route of a tenant (refreshed when invalid)."""
        route = self._routes.get(tenant)
        if route is None or route.shard not in self.gateways:
            route = self._refresh(tenant)
        return route

    def _refresh(self, tenant: str) -> Route:
        route = self.directory.locate(tenant)
        if tenant not in self._routes \
                and len(self._routes) >= self.route_cache_size:
            self._routes.popitem(last=False)
        self._routes[tenant] = route
        return route

    def admit(self, tenant: str) -> tuple[str, Route]:
        """The data plane: resolve one admission's route, fenced.

        Probes the route cache, compares the route's epoch with the
        routed shard's fence and — only when a rebalance raced the
        cached route — refreshes from the directory once. Counts the
        submission, the stale retry, and the load window. Returns the
        shard the cached route named (where a stale route was caught)
        and the fresh route the offer must go to.

        :meth:`submit`, :meth:`offer_external`, and the replay kernel's
        trace walk all route through here; nothing else touches the
        cache or the fences on the hot path.
        """
        self.submits += 1
        route = self.route(tenant)
        first = route.shard
        if route.epoch != self.gateways[first].epoch:
            self.stale_retries += 1
            if self._telemetry is not None:
                self._stale_counter.inc()
            route = self._refresh(tenant)
            if route.epoch != self.gateways[route.shard].epoch:
                raise RuntimeError(
                    f"route of tenant {tenant!r} stale after directory "
                    f"refresh")
        self._window[route.shard] += 1
        if self._telemetry is not None:
            self._submit_counter.inc()
        return first, route

    def submit(self, tenant: str, plan: Any):
        """Route one query; returns the queued request or ``None`` if shed.

        Cost per call is O(1) in the number of tenants: one
        :meth:`admit` and one gateway offer on the fenced route.
        """
        route = self.admit(tenant)[1]
        return self.gateways[route.shard].submit(tenant, plan,
                                                 epoch=route.epoch)

    def offer_external(self, tenant: str) -> Optional[Callable[[], None]]:
        """Admit one unit of external work (e.g. a futures job).

        Routes exactly like :meth:`submit` but holds shard capacity via
        :meth:`~repro.serve.gateway.QueryGateway.offer_external`;
        returns the release callable, or ``None`` when shed.
        """
        route = self.admit(tenant)[1]
        return self.gateways[route.shard].offer_external(
            tenant, epoch=route.epoch)

    # -- rebalancer signals ------------------------------------------------

    def take_load_window(self) -> dict[str, int]:
        """Per-shard submissions since the last take (and reset)."""
        window = {shard: self._window[shard]
                  for shard in sorted(self._window)}
        for shard in window:
            self._window[shard] = 0
        return window

    def pending_total(self) -> int:
        """Queued plus external work across all live shards."""
        return sum(self.gateways[shard].load
                   for shard in sorted(self.gateways))

    def roll_up(self):
        """Fleet-level metrics roll-up, reconciled against the backlog."""
        return self.fleet.roll_up(
            [self.shard_metrics[shard]
             for shard in sorted(self.shard_metrics)],
            pending=self.pending_total())

    # -- control plane -----------------------------------------------------

    def _rehome(self, orphans, recovered: bool) -> int:
        """Adopt drained requests onto their current directory owners.

        Returns how many landed on a different shard than they were
        drained from. ``recovered`` requests (from merged or failed
        shards) are counted in the fleet roll-up.
        """
        moved = 0
        for request in orphans:
            if recovered:
                request.rescued = True
            target = self._refresh(request.tenant).shard
            self.gateways[target].adopt(request)
            moved += 1
        if recovered:
            self.fleet.recovered_requests += len(orphans)
        return moved

    def add_shard(self, name: Optional[str] = None) -> str:
        """Grow the fleet by one shard; re-homes remapped backlog."""
        start = self.env.now
        shard = self.directory.add_shard(name)
        self._spawn(shard)
        self._sync_fences()
        # Losers' queued tenants may now map to the new shard: drain
        # and re-home every live backlog entry whose route moved.
        moved = 0
        for owner in self.shards():
            if owner == shard:
                continue
            moved += self._resettle(owner)
        self.migrated += moved
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.add:{shard}", start, self.env.now,
                category="rebalance", attrs={"shard": shard,
                                             "moved": moved})
        return shard

    def _resettle(self, owner: str) -> int:
        """Re-home the queued requests of ``owner`` that remapped away."""
        gateway = self.gateways[owner]
        stay: list = []
        moved = 0
        for request in gateway.drain_backlog():
            target = self._refresh(request.tenant).shard
            if target == owner:
                stay.append(request)
            else:
                self.gateways[target].adopt(request)
                moved += 1
        for request in stay:
            gateway.adopt(request)
        return moved

    def split_shard(self, hot: str) -> str:
        """Split a hot shard; remapped backlog follows its tenants."""
        start = self.env.now
        new = self.directory.split_shard(hot)
        self._spawn(new)
        self._sync_fences()
        moved = self._resettle(hot)
        self.migrated += moved
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.split:{hot}", start, self.env.now,
                category="rebalance",
                attrs={"hot": hot, "new": new, "moved": moved})
        return new

    def merge_shard(self, cold: str, target: str) -> int:
        """Merge a cold shard away; its backlog is recovered, not lost."""
        start = self.env.now
        gateway = self.gateways.pop(cold)
        self._window.pop(cold)
        orphans = gateway.drain_backlog()
        self.directory.merge_shard(cold, target)
        self._sync_fences()
        self._rehome(orphans, recovered=True)
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.merge:{cold}", start, self.env.now,
                category="rebalance",
                attrs={"cold": cold, "target": target,
                       "recovered": len(orphans)})
        return len(orphans)

    def fail_shard(self, dead: str) -> int:
        """Fail a shard; the directory reassigns, the backlog is rescued.

        Models a shard loss with a durable admission log: queued (not
        yet dispatched) requests are re-homed on the heir shards the
        ring names, so no admitted query disappears. Returns the number
        of recovered requests.
        """
        start = self.env.now
        gateway = self.gateways.pop(dead)
        self._window.pop(dead)
        orphans = gateway.drain_backlog()
        heirs = self.directory.fail_shard(dead)
        self._sync_fences()
        self._rehome(orphans, recovered=True)
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.fail:{dead}", start, self.env.now,
                category="rebalance",
                attrs={"dead": dead, "heirs": ",".join(heirs),
                       "recovered": len(orphans)})
        return len(orphans)
