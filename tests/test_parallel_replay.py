"""The replay kernel against its oracle: byte-identical, always.

:func:`repro.shard.run_replay` batches each shard's ops between
control ticks and replays them through a closed-form fast lane;
:func:`repro.shard.replay.run_replay_reference` steps the same fleet
one arrival at a time. The contract under test is absolute: for any
config and any observer the kernel produces the byte-identical
:class:`ReplayResult` (and the identical observer callback sequence)
as the reference. The hypothesis property sweeps random configs —
shard counts, seeds, ``fail_at`` ticks, fault plans — so the
equivalence is a checked invariant, not a pinned example.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ReplayConfig, run_replay, run_replay_reference

SMALL = ReplayConfig(tenants=5_000, events=8_000, window_s=240.0,
                     shards=3, slots_per_shard=2,
                     max_pending_per_shard=256, tenant_queue_depth=8,
                     control_interval_s=30.0, max_shards=6,
                     fail_at=(60.0,), fault_plan="shard-failure")


@pytest.fixture(scope="module")
def reference():
    return run_replay_reference(SMALL)


class TestDigestIdentity:
    def test_kernel_matches_reference(self, reference):
        kernel = run_replay(SMALL)
        assert kernel.digest() == reference.digest()
        assert kernel.to_dict() == reference.to_dict()

    def test_hot_path_never_walks_tenant_state(self, reference):
        assert run_replay(SMALL).full_scans == 0
        assert reference.full_scans == 0

    def test_smoke_digest_is_pinned(self):
        """The committed smoke digest (BENCH_PR10, perfbench pins)."""
        digest = run_replay(ReplayConfig().smoke()).digest()
        assert digest[:16] == "07a053f41f28efcd"


class TestPropertyEquivalence:
    @given(
        tenants=st.integers(min_value=200, max_value=1_500),
        extra_events=st.integers(min_value=0, max_value=4_000),
        shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        slots=st.integers(min_value=1, max_value=8),
        queue_depth=st.integers(min_value=1, max_value=4),
        fail_at=st.lists(
            st.floats(min_value=10.0, max_value=230.0), max_size=2),
        fault_plan=st.sampled_from(["", "shard-failure"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_kernel_digest_equals_reference_digest(
            self, tenants, extra_events, shards, seed, slots, queue_depth,
            fail_at, fault_plan):
        config = ReplayConfig(
            tenants=tenants, events=tenants + extra_events,
            window_s=240.0, seed=seed, shards=shards,
            slots_per_shard=slots, max_pending_per_shard=128,
            tenant_queue_depth=queue_depth, control_interval_s=30.0,
            max_shards=8, fail_at=tuple(fail_at),
            fault_plan=fault_plan)
        reference = run_replay_reference(config)
        kernel = run_replay(config)
        assert kernel.digest() == reference.digest()
        assert kernel.to_dict() == reference.to_dict()


class _RecordingObserver:
    """Record every callback the replay makes, in order."""

    #: Keep slow completions plus a ~12.5% hash-sampled slice, so the
    #: merge is exercised on a sparse, irregular kept set (the
    #: all-kept case is implied: rescued requests always pass).
    completion_interest = (1.0, 104729, 1 << 29)

    def __init__(self) -> None:
        self.calls = []

    def on_completion(self, finish, shard, request):
        self.calls.append(
            ("completion", round(finish, 9), shard, request.tenant,
             request.seq, request.rescued))

    def on_shard_failure(self, now, shard, orphans):
        self.calls.append(("failure", now, shard, orphans))

    def on_fault(self, now, kind, target, detail):
        self.calls.append(("fault", now, kind, target, detail))

    def on_control_tick(self, now, router):
        report = router.roll_up()
        self.calls.append(
            ("tick", now, sorted(router.shard_metrics),
             report.completed, report.shed,
             round(report.cost_usd, 9), router.pending_total()))

    def on_end(self, now, router):
        self.calls.append(("end", now, router.roll_up().to_dict()))


class TestObserverEquivalence:
    def test_observer_sees_the_sequential_callback_sequence(self):
        reference_obs, kernel_obs = _RecordingObserver(), _RecordingObserver()
        reference = run_replay_reference(SMALL, observer=reference_obs)
        kernel = run_replay(SMALL, observer=kernel_obs)
        assert kernel.digest() == reference.digest()
        assert reference_obs.calls, "observer must have fired"
        assert kernel_obs.calls == reference_obs.calls


class TestTraceMemory:
    def test_kernel_peak_stays_near_the_reference(self):
        """The kernel holds one window of trace objects, not the trace.

        Over a trace spanning several windows the kernel's tracemalloc
        peak stays within 1.25x of the reference's; converting the
        whole trace to Python lists at once lands far above it.
        """
        config = ReplayConfig(tenants=40_000, events=80_000,
                              window_s=300.0, fail_at=(150.0,))

        def peak(kernel) -> int:
            kernel(config)  # warm-up: imports and one-time caches
            tracemalloc.start()
            try:
                kernel(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reference = peak(run_replay_reference)
        assert peak(run_replay) <= 1.25 * reference
