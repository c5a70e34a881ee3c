"""Cross-cutting property-based tests on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.engine.shuffle import _hash_partition
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema
from repro.network import Fabric
from repro.network.fabric import _EPSILON_BYTES
from repro.network.shaper import _EPSILON_BYTES as _SHAPER_EPSILON_BYTES
from repro.network.shaper import _TIME_TOLERANCE, TokenBucketShaper, lambda_shaper
from repro.pricing import STORAGE_PRICES
from repro.pricing.breakeven import (
    CapacityTier,
    break_even_interval_capacity,
    break_even_interval_requests,
)
from repro.sim import Environment
from repro.storage.latency import LatencyModel


class TestFabricConservation:
    @given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e4),
                          min_size=1, max_size=10),
           capacity=st.floats(min_value=10.0, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_link_never_exceeded_and_all_bytes_delivered(self, sizes,
                                                         capacity):
        """Flows through a shared link finish with exact byte counts and
        never before total_bytes / capacity."""
        env = Environment()
        fabric = Fabric(env)
        link = fabric.link(capacity=capacity)
        flows = [fabric.transfer(fabric.endpoint(f"s{i}"),
                                 fabric.endpoint(f"d{i}"),
                                 size=size, links=(link,))
                 for i, size in enumerate(sizes)]
        env.run()
        total = sum(sizes)
        for flow, size in zip(flows, sizes):
            assert flow.transferred == pytest.approx(size, rel=1e-6)
            assert flow.finished_at is not None
        makespan = max(flow.finished_at for flow in flows)
        # The link cannot move bytes faster than its capacity.
        assert makespan >= total / capacity * (1 - 1e-9)

    @given(capacity=st.floats(min_value=10.0, max_value=1e5),
           burst=st.floats(min_value=10.0, max_value=1e4),
           refill=st.floats(min_value=0.1, max_value=100.0),
           horizon=st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_shaped_flow_never_exceeds_token_budget(self, capacity, burst,
                                                    refill, horizon):
        """Transferred bytes never exceed initial tokens + refill."""
        env = Environment()
        fabric = Fabric(env)
        shaper = TokenBucketShaper(capacity=capacity, burst_rate=burst,
                                   refill_rate=refill, mode="continuous",
                                   initial_level=capacity)
        dst = fabric.endpoint("fn", ingress=shaper)
        flow = fabric.open_flow(fabric.endpoint("src"), dst)
        env.run(until=horizon)
        fabric.sync_now()
        budget = capacity + refill * horizon
        assert flow.transferred <= budget * (1 + 1e-6)


class TestShufflePartitioning:
    @given(keys=st.lists(st.integers(min_value=-10**9, max_value=10**9),
                         min_size=1, max_size=300),
           partitions=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_partitioning_is_total_stable_and_consistent(self, keys,
                                                         partitions):
        array = np.array(keys, dtype=np.int64)
        first = _hash_partition(array, partitions)
        second = _hash_partition(array, partitions)
        np.testing.assert_array_equal(first, second)
        assert ((first >= 0) & (first < partitions)).all()
        # Equal keys always colocate.
        by_key = {}
        for key, partition in zip(keys, first):
            if key in by_key:
                assert by_key[key] == partition
            by_key[key] = partition


class TestLatencyModelProperties:
    @given(median=st.floats(min_value=1e-4, max_value=1.0),
           spread=st.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_sampled_median_matches_parameter(self, median, spread):
        model = LatencyModel(median=median, p95=median * spread,
                             ceiling=1e6)
        rng = np.random.default_rng(0)
        samples = model.sample(rng, size=20_000)
        assert np.median(samples) == pytest.approx(median, rel=0.1)
        assert (samples > 0).all()

    @given(median=st.floats(min_value=1e-3, max_value=0.1))
    @settings(max_examples=20, deadline=None)
    def test_ceiling_respected(self, median):
        model = LatencyModel(median=median, p95=median * 3,
                             tail_probability=0.05, tail_alpha=1.01,
                             ceiling=median * 10)
        rng = np.random.default_rng(1)
        samples = model.sample(rng, size=5_000)
        assert samples.max() <= median * 10 + 1e-12


class TestBreakEvenProperties:
    @given(size=st.floats(min_value=1024, max_value=64 * 1024**2))
    @settings(max_examples=30, deadline=None)
    def test_capacity_bei_decreases_with_access_size(self, size):
        """Larger accesses never lengthen the capacity-priced interval."""
        tier = CapacityTier(name="d", rent_per_hour=0.2, iops=100_000,
                            bandwidth=2 * units.GiB)
        small = break_even_interval_capacity(size, tier, 1e-6)
        larger = break_even_interval_capacity(size * 2, tier, 1e-6)
        assert larger <= small * (1 + 1e-9)

    @given(size=st.floats(min_value=1024, max_value=64 * 1024**2),
           ram=st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=30, deadline=None)
    def test_request_bei_positive_and_scales_with_ram_price(self, size, ram):
        bei = break_even_interval_requests(
            size, STORAGE_PRICES["s3-standard"], ram)
        cheaper_ram = break_even_interval_requests(
            size, STORAGE_PRICES["s3-standard"], ram / 2)
        assert bei > 0
        # Cheaper RAM keeps pages cached longer: interval grows.
        assert cheaper_ram == pytest.approx(2 * bei, rel=1e-9)


class TestChaosDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None)
    def test_same_seed_and_plan_give_byte_identical_reports(self, seed):
        """The resilience report's determinism contract is byte-exact:
        the whole run — arrivals, injections, retries, hedges, billing —
        replays identically from (seed, plan)."""
        from repro.chaos.runner import run_chaos_suite

        first = run_chaos_suite("smoke", queries=("tpch-q6",), repeats=1,
                                seed=seed, baseline=False)
        second = run_chaos_suite("smoke", queries=("tpch-q6",), repeats=1,
                                 seed=seed, baseline=False)
        assert first.to_json() == second.to_json()


class TestBatchInvariants:
    @given(n=st.integers(min_value=0, max_value=200),
           take_seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_take_preserves_row_content(self, n, take_seed):
        rng = np.random.default_rng(take_seed)
        batch = RecordBatch(
            Schema([Field("a", DataType.INT64)]),
            {"a": np.arange(n, dtype=np.int64)})
        mask = rng.random(n) < 0.5
        subset = batch.take(mask)
        np.testing.assert_array_equal(subset.column("a"),
                                      np.arange(n)[mask])
        assert subset.logical_bytes <= batch.logical_bytes + 1e-9

    @given(pieces=st.lists(st.integers(min_value=0, max_value=50),
                           min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_concat_preserves_order_and_counts(self, pieces):
        schema = Schema([Field("a", DataType.INT64)])
        batches = []
        offset = 0
        for count in pieces:
            batches.append(RecordBatch(
                schema,
                {"a": np.arange(offset, offset + count, dtype=np.int64)}))
            offset += count
        merged = RecordBatch.concat(batches)
        np.testing.assert_array_equal(merged.column("a"),
                                      np.arange(offset))


class TestFabricIncrementalEquivalence:
    """The incremental max-min allocator must be bit-for-bit identical
    to the from-scratch reference under random arrival/departure mixes.

    The example counts come from the active hypothesis profile (CI runs
    these under ``--hypothesis-profile=deep``), so no explicit
    ``max_examples`` may pin them here.
    """

    @given(data=st.data())
    @settings(deadline=None)
    def test_incremental_matches_full_recompute(self, data):
        n_links = data.draw(st.integers(min_value=1, max_value=4),
                            label="n_links")
        caps = data.draw(st.lists(
            st.floats(min_value=10.0, max_value=1e4),
            min_size=n_links, max_size=n_links), label="capacities")
        shaped = data.draw(st.booleans(), label="shaped_endpoints")
        n_flows = data.draw(st.integers(min_value=1, max_value=12),
                            label="n_flows")
        specs = []
        for i in range(n_flows):
            start = data.draw(st.floats(min_value=0.0, max_value=5.0),
                              label=f"start_{i}")
            size = data.draw(st.floats(min_value=1.0, max_value=5e3),
                             label=f"size_{i}")
            link_ids = data.draw(st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=0, max_size=n_links, unique=True),
                label=f"links_{i}")
            # Open-ended flows are stopped explicitly, covering the
            # departure path; bounded flows depart by finishing.
            stop_after = data.draw(
                st.one_of(st.none(),
                          st.floats(min_value=0.1, max_value=3.0)),
                label=f"stop_{i}")
            specs.append((start, size, tuple(link_ids), stop_after))

        def run(force_full):
            env = Environment()
            fabric = Fabric(env)
            fabric._force_full = force_full
            links = [fabric.link(capacity=cap, name=f"l{j}")
                     for j, cap in enumerate(caps)]

            def endpoint(name):
                if not shaped:
                    return fabric.endpoint(name)
                return fabric.endpoint(name, egress=TokenBucketShaper(
                    capacity=2e3, burst_rate=1e3, refill_rate=200.0,
                    mode="continuous"))

            flows = []

            def starter(start, size, link_ids, stop_after, i):
                yield env.timeout(start)
                chosen = tuple(links[j] for j in link_ids)
                if stop_after is None:
                    flow = fabric.transfer(endpoint(f"s{i}"),
                                           endpoint(f"d{i}"),
                                           size=size, links=chosen)
                    flows.append(flow)
                    return
                flow = fabric.open_flow(endpoint(f"s{i}"),
                                        endpoint(f"d{i}"), links=chosen)
                flows.append(flow)
                yield env.timeout(stop_after)
                fabric.stop_flow(flow)

            for i, spec in enumerate(specs):
                env.process(starter(*spec, i), name=f"flow-{i}")
            env.run()
            return [(f.transferred, f.finished_at) for f in flows]

        assert run(False) == run(True)

    @given(data=st.data())
    @settings(deadline=None)
    def test_lambda_endpoints_match_both_oracles(self, data):
        """Quantized Lambda shapers (one-off budget, grants, idle
        refill), same-instant arrivals, transfers within the completion
        epsilon and same-instant ``degrade()`` calls: the fused update
        must match both the from-scratch allocation (``_force_full``)
        and the creation-ordered sweep (``_ordered_sync``) bit for bit.
        """
        instants = (0.0, 0.05, 0.1, 1.25)
        n_fns = data.draw(st.integers(min_value=1, max_value=3),
                          label="functions")
        link_capacity = data.draw(st.one_of(
            st.none(), st.floats(min_value=50 * units.MiB,
                                 max_value=2 * units.GiB)), label="link")
        n_flows = data.draw(st.integers(min_value=1, max_value=8),
                            label="n_flows")
        specs = []
        for i in range(n_flows):
            start = data.draw(st.one_of(
                st.sampled_from(instants),
                st.floats(min_value=0.0, max_value=3.0)), label=f"start_{i}")
            size = data.draw(st.one_of(
                st.none(),
                st.just(_EPSILON_BYTES),
                st.floats(min_value=1e-9, max_value=_EPSILON_BYTES),
                st.floats(min_value=1.0, max_value=160 * units.MiB)),
                label=f"size_{i}")
            stop_after = (data.draw(st.floats(min_value=0.01, max_value=2.0),
                                    label=f"stop_{i}")
                          if size is None else None)
            fn = data.draw(st.integers(min_value=0, max_value=n_fns - 1),
                           label=f"fn_{i}")
            upload = data.draw(st.booleans(), label=f"upload_{i}")
            # A chaos-style slowdown of any shaper at the arrival's
            # instant, just before or just after it.
            degrade = data.draw(st.one_of(st.none(), st.tuples(
                st.integers(min_value=0, max_value=2 * n_fns - 1),
                st.floats(min_value=0.2, max_value=1.0),
                st.booleans())), label=f"degrade_{i}")
            specs.append((start, size, stop_after, fn, upload, degrade))

        def run(force_full, ordered_sync):
            env = Environment()
            fabric = Fabric(env)
            fabric._force_full = force_full
            fabric._ordered_sync = ordered_sync
            links = (() if link_capacity is None
                     else (fabric.link(capacity=link_capacity),))
            storage = fabric.endpoint("s3")
            shapers = []
            fns = []
            for k in range(n_fns):
                ingress = lambda_shaper("in", name=f"fn{k}/in")
                egress = lambda_shaper("out", name=f"fn{k}/out")
                shapers += [ingress, egress]
                fns.append(fabric.endpoint(f"fn{k}", ingress=ingress,
                                           egress=egress))
            flows = []
            finished = []

            def flow_process(start, size, stop_after, fn, upload, degrade):
                yield env.timeout(start)
                if degrade is not None and degrade[2]:
                    shapers[degrade[0]].degrade(degrade[1])
                ends = (fns[fn], storage) if upload else (storage, fns[fn])
                if size is None:
                    flow = fabric.open_flow(*ends, links=links)
                else:
                    flow = fabric.transfer(*ends, size=size, links=links)
                flows.append(flow)
                flow.done.callbacks.append(
                    lambda event: finished.append(flows.index(event.value)))
                if degrade is not None and not degrade[2]:
                    shapers[degrade[0]].degrade(degrade[1])
                if stop_after is not None:
                    yield env.timeout(stop_after)
                    fabric.stop_flow(flow)

            for spec in specs:
                env.process(flow_process(*spec))
            env.run()
            return ([(_bits(f.transferred), _bits(f.finished_at),
                      _bits(f.rate)) for f in flows],
                    finished,
                    [(_bits(s.level), _bits(s.one_off_remaining),
                      _bits(s._next_grant_at)) for s in shapers],
                    _bits(env.now))

        fused = run(False, False)
        assert fused == run(True, False)
        assert fused == run(False, True)


def _bits(value):
    """A float by its exact bits (``None`` passes through)."""
    return None if value is None else float.hex(value)


class _SeedShaper(TokenBucketShaper):
    """The oracle: the shaper's fabric methods as they stood before
    they were flattened (compare-selects, one-pass budget, amortized
    grant walk), copied verbatim."""

    @property
    def budget(self) -> float:
        """Total immediately spendable bytes (one-off + bucket)."""
        return self.one_off_remaining + self._level

    def allowed_rate(self) -> float:
        """Aggregate rate ceiling right now (bytes/second)."""
        if self.budget > 0:
            return self.burst_rate
        if self.mode == "continuous":
            return min(self.refill_rate, self.burst_rate)
        return 0.0  # quantized: stalled until the next grant

    def advance(self, now: float, elapsed: float, consumed_rate: float) -> None:
        """Account for ``elapsed`` seconds of consumption at ``consumed_rate``.

        The fabric guarantees ``consumed_rate <= allowed_rate()`` held for
        the whole interval (it schedules a recompute at every state change).
        """
        if elapsed < 0:
            raise ValueError(f"negative elapsed time {elapsed}")
        if elapsed == 0:
            return
        consumed = consumed_rate * elapsed
        if self.mode == "continuous":
            refilled = self.refill_rate * elapsed
            # One-off budget is spent first and never refills.
            from_one_off = min(consumed, self.one_off_remaining)
            self.one_off_remaining -= from_one_off
            net = (consumed - from_one_off) - refilled
            self._level = min(self.capacity, max(0.0, self._level - net))
        else:
            grants = self._grants_between(now - elapsed, now)
            from_one_off = min(consumed, self.one_off_remaining)
            self.one_off_remaining -= from_one_off
            remaining = consumed - from_one_off
            self._level = min(self.capacity,
                              max(0.0, self._level + grants - remaining))
        # Clamp float residue so exhaustion is reached exactly, not
        # asymptotically (which would flood the fabric with micro-wakeups).
        if self._level < _SHAPER_EPSILON_BYTES:
            self._level = 0.0
        if self.one_off_remaining < _SHAPER_EPSILON_BYTES:
            self.one_off_remaining = 0.0
        if self._telemetry is not None:
            self._level_series.sample(now, self._level)
            self._rate_series.sample(now, self.allowed_rate())
            throttled = self.budget <= 0
            if throttled != self._was_throttled:
                self._was_throttled = throttled
                self._throttle_counter.value += 1
                self._telemetry.event(
                    now, "shaper.throttled" if throttled
                    else "shaper.recovered",
                    category="network", shaper=self.telemetry_name)

    def _grants_between(self, start: float, end: float) -> float:
        """Bytes granted by quantized refill up to time ``end``.

        Consumes the stateful grant schedule: every grant with a due time
        at or before ``end`` (with a small tolerance for float drift) is
        delivered exactly once.
        """
        del start  # the stateful schedule makes the interval start moot
        if self.refill_rate <= 0:
            return 0.0
        if self._next_grant_at > end + _TIME_TOLERANCE:
            return 0.0
        quantum = self.refill_rate * self.grant_interval
        count = 1 + math.floor(
            (end + _TIME_TOLERANCE - self._next_grant_at) / self.grant_interval)
        self._next_grant_at += count * self.grant_interval
        return count * quantum

    def next_change(self, now: float, consumed_rate: float) -> float:
        """Absolute time at which :meth:`allowed_rate` next changes.

        Returns ``inf`` if the ceiling is stable under the given
        consumption rate.
        """
        if self.budget > 0:
            if self.mode == "continuous":
                net_drain = consumed_rate - self.refill_rate
            else:
                net_drain = consumed_rate  # grants are discrete, handled below
            if net_drain > 0:
                exhaust = now + self.budget / net_drain
            else:
                exhaust = float("inf")
            if self.mode == "quantized":
                return min(exhaust, self._next_grant_time(now))
            return exhaust
        if self.mode == "quantized":
            return self._next_grant_time(now)
        return float("inf")

    def _next_grant_time(self, now: float) -> float:
        if self.refill_rate <= 0:
            return float("inf")
        due = self._next_grant_at
        while due <= now + _TIME_TOLERANCE:
            due += self.grant_interval
        return due


_RATES = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(min_value=0.0, max_value=1e4))


class TestShaperSeedOracle:
    """The flattened shaper methods against :class:`_SeedShaper`."""

    @given(data=st.data())
    @settings(deadline=None)
    def test_fabric_interface_matches_seed_bodies(self, data):
        quantized = data.draw(st.booleans(), label="quantized")
        capacity = data.draw(st.one_of(st.sampled_from([0.0, -0.0]),
                                       st.floats(min_value=0.0,
                                                 max_value=1e4)),
                             label="capacity")
        params = dict(
            capacity=capacity,
            burst_rate=data.draw(st.floats(min_value=1e-3, max_value=1e4),
                                 label="burst"),
            refill_rate=data.draw(_RATES.filter(lambda r: r >= 0),
                                  label="refill"),
            mode="quantized" if quantized else "continuous",
            one_off_budget=data.draw(st.one_of(
                st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
                label="one_off"),
            idle_refill_level=data.draw(st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=1e4)),
                label="idle_refill"),
            grant_interval=data.draw(st.one_of(
                st.sampled_from([0.1, 0.03, 0.07]),
                st.floats(min_value=0.01, max_value=1.0)),
                label="grant_interval"),
            initial_level=data.draw(st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=1e4)),
                label="initial_level"),
        )
        fast = TokenBucketShaper(**params)
        seed = _SeedShaper(**params)
        now = data.draw(st.floats(min_value=0.0, max_value=50.0),
                        label="start")
        # "update" is the fabric's own sequence: advance to ``now``, then
        # ask for the next change at the same instant.
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(["update", "advance", "next_change",
                             "allowed_rate", "degrade", "idle",
                             "activate"]),
            st.one_of(st.just(0.0), st.floats(min_value=0.0,
                                              max_value=2.0)),
            _RATES,
            st.floats(min_value=0.1, max_value=1.0)),
            max_size=40), label="ops")
        for op, step, rate, factor in ops:
            now += step
            for shaper in (fast, seed):
                if op == "update":
                    shaper.advance(now, step, rate)
                    result = shaper.next_change(now, rate)
                elif op == "advance":
                    result = shaper.advance(now, step, rate)
                elif op == "next_change":
                    result = shaper.next_change(now, rate)
                elif op == "allowed_rate":
                    result = shaper.allowed_rate()
                elif op == "degrade":
                    result = shaper.degrade(factor)
                elif op == "idle":
                    result = shaper.on_idle(now)
                else:
                    result = shaper.on_activate(now)
                if shaper is fast:
                    expected = result
            assert _bits(result) == _bits(expected), op
            assert _state_bits(fast) == _state_bits(seed), op


def _state_bits(shaper):
    return (_bits(shaper.level), _bits(shaper.one_off_remaining),
            _bits(shaper._next_grant_at), _bits(shaper.burst_rate),
            _bits(shaper.refill_rate), shaper._idle_since)
