"""Fluid-flow network fabric with max-min fair bandwidth sharing.

Flows between endpoints receive piecewise-constant rates. A rate
recomputation happens whenever the constraint picture changes: a flow
starts or finishes, a token bucket empties, or a quantized grant arrives.
Between recomputations, transferred bytes advance linearly, so long
simulated timespans cost only a handful of events.

Constraints are of two kinds:

* :class:`FluidLink` — a fixed shared capacity (e.g. the ~20 GiB/s VPC
  ceiling of Section 4.2.2, or a storage service's aggregate bandwidth);
* :class:`~repro.network.shaper.TokenBucketShaper` attached to an
  :class:`Endpoint` direction — a time-varying aggregate ceiling.

The allocation is standard max-min (progressive filling): repeatedly find
the most contended constraint, freeze its members at their fair share, and
subtract.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro import units
from repro.network.shaper import TokenBucketShaper
from repro.sim import Environment, Event
from repro.telemetry import get_recorder

#: Rate granted to a flow that crosses no finite constraint (100 Gbps).
DEFAULT_FREE_RATE = 100 * units.Gbps

#: Completion slack for float drift, in bytes.
_EPSILON_BYTES = 1e-6

#: Minimum delay for a scheduled rate-recomputation wake. Guarantees the
#: clock strictly advances between wakes, which float-derived wake times
#: (one ulp short of a grant boundary) otherwise cannot.
_MIN_WAKE_DELAY = 1e-9


class FluidLink:
    """A shared, fixed-capacity network constraint."""

    def __init__(self, capacity: float, name: str = "link") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self.name = name

    def __repr__(self) -> str:
        return f"<FluidLink {self.name} {units.gib_per_s(self.capacity):.2f} GiB/s>"


class Endpoint:
    """A network attachment point with optional per-direction shapers.

    ``links`` are implicit shared constraints every flow touching this
    endpoint crosses — e.g. the VPC throughput cap of Section 4.2.2.
    """

    def __init__(self, fabric: "Fabric", name: str,
                 ingress: Optional[TokenBucketShaper] = None,
                 egress: Optional[TokenBucketShaper] = None,
                 links: tuple["FluidLink", ...] = ()) -> None:
        self.fabric = fabric
        self.name = name
        self.ingress = ingress
        self.egress = egress
        self.links = tuple(links)

    def __repr__(self) -> str:
        return f"<Endpoint {self.name}>"


class Flow:
    """A transfer between two endpoints.

    ``size`` may be ``None`` for an open-ended flow (stopped explicitly
    via :meth:`stop`, e.g. an iPerf measurement). ``flow.done`` is an event
    that triggers with the flow once it completes or is stopped.
    """

    _ids = itertools.count()

    def __init__(self, fabric: "Fabric", src: Endpoint, dst: Endpoint,
                 size: Optional[float],
                 links: tuple[FluidLink, ...] = ()) -> None:
        self.id = next(Flow._ids)
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.size = size
        self.links = tuple(links)
        self.transferred = 0.0
        self.rate = 0.0
        self.started_at = fabric.env.now
        self.finished_at: Optional[float] = None
        self.done: Event = fabric.env.event()
        # Constraints are fixed at creation; cache them (the allocator
        # walks them millions of times in large simulations).
        self._constraints: tuple[object, ...] = self._collect_constraints()
        self._shapers: tuple[TokenBucketShaper, ...] = tuple(
            c for c in self._constraints
            if isinstance(c, TokenBucketShaper))
        # Opaque identity tokens for the fabric's constraint registry —
        # used only as dict keys, never ordered. The registry pins each
        # constraint object while it has members, so tokens cannot be
        # reused while registered.
        self._keys: tuple[int, ...] = tuple(
            id(c) for c in self._constraints)  # repro-lint: disable=DET004 identity token, never ordered

    @property
    def remaining(self) -> float:
        """Bytes still to transfer; ``inf`` for open-ended flows."""
        if self.size is None:
            return float("inf")
        return max(0.0, self.size - self.transferred)

    @property
    def active(self) -> bool:
        """Whether the flow is still in the fabric."""
        return self.finished_at is None

    def _collect_constraints(self) -> tuple[object, ...]:
        found: list[object] = []
        if self.src.egress is not None:
            found.append(self.src.egress)
        if self.dst.ingress is not None:
            found.append(self.dst.ingress)
        found.extend(self.src.links)
        found.extend(self.dst.links)
        found.extend(self.links)
        return tuple(found)

    def constraints(self) -> tuple[object, ...]:
        """All finite constraints this flow crosses (cached)."""
        return self._constraints

    def shapers(self) -> tuple[TokenBucketShaper, ...]:
        """The token-bucket shapers among the constraints (cached)."""
        return self._shapers

    def stop(self) -> None:
        """Terminate an open-ended flow now."""
        self.fabric.stop_flow(self)

    def __repr__(self) -> str:
        return (f"<Flow #{self.id} {self.src.name}->{self.dst.name} "
                f"{self.transferred:.0f}B rate={self.rate:.0f}B/s>")


class _ConstraintState:
    """Fabric-side registry entry for one constraint with active flows.

    Holds a strong reference to the constraint (so its identity token
    stays valid while registered), the member flows, the capacity used
    in the last allocation (drift against ``allowed_rate()`` marks the
    constraint dirty), and — for shapers — the cached sum of member
    rates in flow-creation order (a pure function of the members, so it
    only needs recomputing when the member component is reallocated).
    """

    __slots__ = ("constraint", "is_shaper", "members", "capacity",
                 "consumption")

    def __init__(self, constraint: object) -> None:
        self.constraint = constraint
        self.is_shaper = isinstance(constraint, TokenBucketShaper)
        self.members: set[Flow] = set()
        self.capacity = 0.0
        self.consumption = 0.0


class Fabric:
    """Event-driven fluid network simulator.

    Rates are recomputed *incrementally*: the fabric keeps a registry of
    constraints with active flows, marks constraints dirty when their
    membership or allowed rate changes, and reallocates only the
    connected components reachable from dirty constraints. Components
    the change cannot reach keep their rates — and because the
    per-component fill is a pure function of the component's membership
    and capacities (canonical flow-creation order throughout), the
    incremental allocation is bit-for-bit identical to a from-scratch
    one (:meth:`_recompute_rates`, kept as the reference and exercised
    against the incremental path by the property tests).
    """

    def __init__(self, env: Environment,
                 default_rate: float = DEFAULT_FREE_RATE) -> None:
        self.env = env
        self.default_rate = float(default_rate)
        self._flows: set[Flow] = set()
        self._last_sync = env.now
        self._wake_version = 0
        #: Constraint registry, keyed by the flows' identity tokens.
        self._states: dict[int, _ConstraintState] = {}
        #: Constraint keys whose component needs reallocating.
        self._dirty: set[int] = set()
        #: Flows the last :meth:`sync_now` found complete, for the update
        #: that issued it.
        self._completed: list[Flow] = []
        #: Testing hook: force from-scratch recomputation on every
        #: update (the reference the incremental path must match).
        self._force_full = False
        # With telemetry recording, shapers emit events as they advance,
        # so the sweep must keep its historical (flow-creation) order;
        # without a recorder the order is unobservable and the registry
        # sweep is used. Captured at construction, like the shapers do.
        self._ordered_sync = get_recorder().enabled

    # -- public API ---------------------------------------------------------

    def endpoint(self, name: str,
                 ingress: Optional[TokenBucketShaper] = None,
                 egress: Optional[TokenBucketShaper] = None,
                 links: tuple[FluidLink, ...] = ()) -> Endpoint:
        """Create an endpoint attached to this fabric."""
        return Endpoint(self, name, ingress=ingress, egress=egress, links=links)

    def link(self, capacity: float, name: str = "link") -> FluidLink:
        """Create a shared fixed-capacity constraint."""
        return FluidLink(capacity, name=name)

    def transfer(self, src: Endpoint, dst: Endpoint, size: float,
                 links: tuple[FluidLink, ...] = ()) -> Flow:
        """Start a bounded transfer of ``size`` bytes; returns the flow.

        Processes wait on ``flow.done`` for completion.
        """
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        return self._add_flow(Flow(self, src, dst, float(size), links))

    def open_flow(self, src: Endpoint, dst: Endpoint,
                  links: tuple[FluidLink, ...] = ()) -> Flow:
        """Start an open-ended flow (e.g. a bandwidth measurement)."""
        return self._add_flow(Flow(self, src, dst, None, links))

    def stop_flow(self, flow: Flow) -> None:
        """Remove ``flow`` from the fabric, triggering its ``done`` event."""
        if not flow.active:
            return
        self.sync_now()
        self._finish(flow)
        self._update()

    def sync_now(self) -> None:
        """Advance transferred bytes and bucket levels to ``env.now``.

        Rates are *not* recomputed; use this before reading
        ``flow.transferred`` or shaper levels from a probe.

        This is also the first half of every fabric update, so the same
        two loops take stock for the rest of it: the flow loop collects
        the flows now within :data:`_EPSILON_BYTES` of their size, and the
        shaper loop marks dirty every shaper whose ``allowed_rate()`` no
        longer equals the capacity of the last allocation. Both checks
        run even when no time has passed: a ``degrade()`` at the instant
        of an update needs the drift check, and a probe's own call just
        before a completion's wake leaves that completion to the wake's
        zero-elapsed call.
        """
        now = self.env.now
        elapsed = now - self._last_sync
        completed: list[Flow] = []
        if elapsed > 0:
            for flow in self._flows:
                transferred = flow.transferred + flow.rate * elapsed
                flow.transferred = transferred
                size = flow.size
                if size is not None and size - transferred <= _EPSILON_BYTES:
                    completed.append(flow)
            self._last_sync = now
        else:
            elapsed = 0.0
            for flow in self._flows:
                size = flow.size
                if (size is not None
                        and size - flow.transferred <= _EPSILON_BYTES):
                    completed.append(flow)
        self._completed = completed
        ordered = self._ordered_sync
        if ordered and elapsed:
            for shaper, rate in self._shaper_consumption().items():
                shaper.advance(now, elapsed, rate)
        advance = elapsed and not ordered
        dirty = self._dirty
        for key, state in self._states.items():
            if state.is_shaper:
                shaper = state.constraint
                if advance:
                    shaper.advance(now, elapsed, state.consumption)
                if shaper.allowed_rate() != state.capacity:
                    dirty.add(key)

    def total_rate(self) -> float:
        """Aggregate rate of all active flows right now (bytes/s)."""
        return sum(flow.rate for flow in self._flows)

    # -- internals ------------------------------------------------------------

    def _add_flow(self, flow: Flow) -> Flow:
        self.sync_now()
        now = self.env.now
        states = self._states
        dirty = self._dirty
        for shaper in flow.shapers():
            shaper.on_activate(now)
        for constraint, key in zip(flow.constraints(), flow._keys):
            state = states.get(key)
            if state is None:
                states[key] = state = _ConstraintState(constraint)
            state.members.add(flow)
            dirty.add(key)
        self._flows.add(flow)
        if not flow._keys:
            # Crosses no finite constraint: the free rate, immediately
            # (exactly what a one-flow fill with no constraints grants).
            flow.rate = self.default_rate
        if flow.size is not None and flow.size <= _EPSILON_BYTES:
            self._completed.append(flow)
        self._update()
        return flow

    def _shaper_consumption(self) -> dict[TokenBucketShaper, float]:
        # Summation runs in flow-creation order: the per-shaper sum must
        # be a pure function of the shaper's member set so the cached
        # (incremental) and from-scratch paths produce identical floats.
        consumption: dict[TokenBucketShaper, float] = {}
        for flow in sorted(self._flows, key=lambda f: f.id):
            for shaper in flow.shapers():
                consumption[shaper] = (consumption.get(shaper, 0.0)
                                       + flow.rate)
        return consumption

    def _finish(self, flow: Flow) -> None:
        now = self.env.now
        flow.finished_at = now
        flow.rate = 0.0
        self._flows.discard(flow)
        states = self._states
        dirty = self._dirty
        for constraint, key in zip(flow.constraints(), flow._keys):
            state = states.get(key)
            if state is None:
                continue
            state.members.discard(flow)
            if state.members:
                dirty.add(key)
            else:
                # Last member gone: drop the registry entry (releasing
                # the identity pin) and idle-refill shapers.
                del states[key]
                dirty.discard(key)
                if state.is_shaper:
                    constraint.on_idle(now)
        flow.done.succeed(flow)

    def _update(self) -> None:
        """Complete finished flows, recompute rates, schedule the wake.

        The second half of an update: the caller has just run
        :meth:`sync_now`, which collected the completions and marked the
        drifted shapers. Same-update completions finish in creation
        order, so their ``done`` events fire in that order.
        """
        completed = self._completed
        if completed:
            self._completed = []
            completed.sort(key=lambda f: f.id)
            for flow in completed:
                # stop_flow may already have finished it.
                if flow.finished_at is None:
                    flow.transferred = flow.size
                    self._finish(flow)
        if self._force_full:
            self._recompute_rates()
        else:
            self._recompute_dirty()
        self._schedule_wake()

    def _recompute_dirty(self) -> None:
        """Reallocate only the components a change can have affected.

        Dirty seeds are constraints whose membership changed since the
        last allocation plus shapers whose ``allowed_rate()`` drifted
        from the capacity used then (budget exhaustion, grant arrival,
        idle refill, chaos degradation; :meth:`sync_now` marks those).
        The affected region is the
        union of the connected components containing a seed; everything
        outside it kept both its membership and its capacities, so its
        previous rates are exactly what a full recompute would produce.
        """
        states = self._states
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = set()
        # Closure over the flow/constraint bipartite graph.
        affected: set[Flow] = set()
        stack = [key for key in dirty if key in states]
        seen_keys = set(stack)
        while stack:
            for flow in states[stack.pop()].members:
                if flow not in affected:
                    affected.add(flow)
                    for other in flow._keys:
                        if other not in seen_keys:
                            seen_keys.add(other)
                            stack.append(other)
        self._allocate(affected)

    def _recompute_rates(self) -> None:
        """From-scratch max-min allocation over all active flows.

        The reference implementation: recomputes every component. The
        normal update path uses :meth:`_recompute_dirty`; this method
        backs the ``_force_full`` testing hook, and the equivalence
        property tests check the two paths produce identical rates.
        """
        self._dirty = set()
        self._allocate(self._flows)

    def _allocate(self, flows) -> None:
        """Decompose ``flows`` into components and fill each.

        ``flows`` must be a union of whole connected components.
        """
        component_of: dict[Flow, int] = {}
        component_id = 0
        states = self._states
        for seed in flows:
            if seed in component_of:
                continue
            queue = [seed]
            component_of[seed] = component_id
            while queue:
                for key in queue.pop()._keys:
                    for neighbour in states[key].members:
                        if neighbour not in component_of:
                            component_of[neighbour] = component_id
                            queue.append(neighbour)
            component_id += 1
        components: list[list[Flow]] = [[] for _ in range(component_id)]
        for flow, cid in component_of.items():
            components[cid].append(flow)
        for component in components:
            # Creation-id order, not discovery order: the fill must be a
            # pure function of the component's membership so incremental
            # recomputation reproduces a full one bit for bit.
            component.sort(key=lambda f: f.id)
            self._fill_component(component)

    def _fill_component(self, flows: list[Flow]) -> None:
        """Progressive filling within one constraint-sharing component.

        ``flows`` must be a whole component in flow-creation order.
        Updates each member's rate, and refreshes the component's
        registry entries (capacity used, cached consumption sums).
        """
        states = self._states
        remaining: dict[int, float] = {}
        live: dict[int, set[Flow]] = {}
        for flow in flows:
            for key in flow._keys:
                if key not in remaining:
                    state = states[key]
                    constraint = state.constraint
                    if state.is_shaper:
                        capacity = constraint.allowed_rate()
                    else:
                        capacity = constraint.capacity
                    state.capacity = capacity
                    remaining[key] = capacity
                    # The component closure makes members ⊆ flows.
                    live[key] = set(state.members)
        unfrozen = set(flows)
        while unfrozen:
            best_key = None
            best_share = None
            for key, flows_here in live.items():
                if not flows_here:
                    continue
                share = max(0.0, remaining[key]) / len(flows_here)
                if best_share is None or share < best_share:
                    best_share = share
                    best_key = key
            if best_key is None:
                # No finite constraints left: grant the default free rate.
                for flow in sorted(unfrozen, key=lambda f: f.id):
                    flow.rate = self.default_rate
                break
            frozen_now = sorted(live[best_key], key=lambda f: f.id)
            for flow in frozen_now:
                flow.rate = best_share
                unfrozen.discard(flow)
                for key in flow._keys:
                    remaining[key] -= best_share
                    live[key].discard(flow)
        # Refresh the cached consumption sums (flow-creation order, the
        # same partial sums _shaper_consumption computes from scratch).
        for key in remaining:
            state = states[key]
            if state.is_shaper:
                total = 0.0
                for flow in sorted(state.members, key=lambda f: f.id):
                    total += flow.rate
                state.consumption = total

    def _schedule_wake(self) -> None:
        now = self.env.now
        wake_at = float("inf")
        # Flow completions.
        for flow in self._flows:
            rate = flow.rate
            size = flow.size
            if size is not None and rate > 0:
                left = size - flow.transferred
                upcoming = now + (left if left > 0.0 else 0.0) / rate
                if upcoming < wake_at:
                    wake_at = upcoming
        # Shaper state changes.
        if self._ordered_sync:
            for shaper, rate in self._shaper_consumption().items():
                upcoming = shaper.next_change(now, rate)
                if upcoming < wake_at:
                    wake_at = upcoming
        else:
            for state in self._states.values():
                if state.is_shaper:
                    upcoming = state.constraint.next_change(
                        now, state.consumption)
                    if upcoming < wake_at:
                        wake_at = upcoming
        self._wake_version += 1
        if wake_at == float("inf"):
            return
        version = self._wake_version
        delay = max(_MIN_WAKE_DELAY, wake_at - now)
        timeout = self.env.timeout(delay)
        timeout.callbacks.append(lambda _event: self._on_wake(version))

    def _on_wake(self, version: int) -> None:
        if version != self._wake_version:
            return  # superseded by a newer recomputation
        self.sync_now()
        self._update()
