"""Replay tests: determinism, conservation, failure recovery, O(1) proof."""

import dataclasses
import signal

import pytest

from repro.shard import ReplayConfig, run_replay, run_unsharded_replay
from repro.shard.replay import ScanGuard

SMALL = ReplayConfig(tenants=5_000, events=8_000, window_s=240.0,
                     shards=3, slots_per_shard=2,
                     max_pending_per_shard=256, tenant_queue_depth=8,
                     control_interval_s=30.0, max_shards=6,
                     fail_at=(60.0,), fault_plan="shard-failure")


@pytest.fixture(scope="module")
def outcome():
    return run_replay(SMALL)


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self, outcome):
        again = run_replay(SMALL)
        assert outcome.digest() == again.digest()
        assert outcome.to_dict() == again.to_dict()

    def test_seed_changes_the_outcome(self, outcome):
        other = run_replay(ReplayConfig(**{
            **SMALL.__dict__, "seed": SMALL.seed + 1}))
        assert other.digest() != outcome.digest()


class TestConservation:
    def test_roll_up_reconciles_after_quiesce(self, outcome):
        report = outcome.report
        assert report["balanced"]
        assert report["pending"] == 0
        assert report["offered"] == report["completed"] + report["shed"] \
            + report["failed"]

    def test_trace_covers_every_tenant(self, outcome):
        assert outcome.distinct_tenants == SMALL.tenants
        assert outcome.events == SMALL.events

    def test_shard_failures_fire_and_recover(self, outcome):
        """Both failure paths (explicit fail_at + the chaos plan) kill a
        shard, and the victims' backlogs are re-homed, not dropped."""
        assert outcome.failures_injected >= 1
        assert outcome.recovered > 0
        assert outcome.report["recovered"] >= outcome.recovered

    def test_hot_path_never_walks_tenant_state(self, outcome):
        assert outcome.full_scans == 0

    def test_rebalances_are_recorded_with_stable_keys(self, outcome):
        for row in outcome.rebalances:
            assert row["action"] in ("split", "merge")
            assert row["moved"] >= 0


class TestUnshardedBaseline:
    def test_monolithic_replay_conserves_queries(self):
        report = run_unsharded_replay(SMALL)
        assert report["offered"] == SMALL.events
        assert report["offered"] == report["completed"] + report["shed"]
        assert report["p50"] <= report["p99"]

    def test_sharded_and_unsharded_see_the_same_trace(self, outcome):
        """Same seed -> same arrivals: offered totals agree."""
        report = run_unsharded_replay(SMALL)
        assert outcome.report["offered"] == report["offered"]


class TestScanGuard:
    def test_keyed_access_stays_free(self):
        guard = ScanGuard({"a": 1, "b": 2})
        assert guard["a"] == 1
        assert guard.get("c") is None
        assert "b" in guard
        assert len(guard) == 2
        assert guard.full_scans == 0

    def test_python_level_walks_are_counted(self):
        guard = ScanGuard({"a": 1, "b": 2})
        list(guard)
        list(guard.keys())
        list(guard.values())
        list(guard.items())
        assert guard.full_scans == 4

    def test_copy_counts_exactly_one_scan(self):
        """``copy`` must count one scan no matter how CPython routes
        the walk: because the guard overrides ``__iter__``, current
        CPython sends ``dict.copy`` through the generic merge path
        (which calls the counted ``keys()``); the override normalizes
        to exactly +1 either way, so a future fast path that skips
        ``keys()`` cannot silently uncount copies."""
        guard = ScanGuard({"a": 1, "b": 2})
        copied = guard.copy()
        assert copied == {"a": 1, "b": 2}
        assert type(copied) is dict
        assert guard.full_scans == 1

    def test_c_level_walk_census(self):
        """The documented blind-spot census on this CPython.

        Overriding ``__iter__`` defeats ``PyDict_Merge``'s exact-dict
        fast path, so subclass-consuming constructors and unpacking
        *are* counted (they dispatch through ``keys()``). What stays
        invisible are walks that read the key table directly at the C
        level: ``repr`` and ``==``. If a CPython release shifts any
        of these between groups, this test fails and the guard's
        contract must be re-audited.
        """
        counted = {
            "dict(sg)": lambda sg: dict(sg),
            "{**sg}": lambda sg: {**sg},
            "ScanGuard(sg)": lambda sg: ScanGuard(sg),
        }
        for label, walk in counted.items():
            guard = ScanGuard({"a": 1, "b": 2})
            assert walk(guard) == {"a": 1, "b": 2}, label
            assert guard.full_scans == 1, label
        uncounted = {
            "repr(sg)": repr,
            "sg == other": lambda sg: sg == {"a": 1, "b": 2},
        }
        for label, walk in uncounted.items():
            guard = ScanGuard({"a": 1, "b": 2})
            walk(guard)
            assert guard.full_scans == 0, label


class _Hung(Exception):
    pass


def _within(seconds: int, call):
    """Run ``call``; raise :class:`_Hung` if it outlives ``seconds``."""
    def expire(signum, frame):
        raise _Hung(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestConfig:
    def test_smoke_variant_meets_the_gate_floor(self):
        smoke = ReplayConfig().smoke()
        assert smoke.tenants >= 100_000
        assert smoke.fail_at and smoke.fault_plan

    @pytest.mark.parametrize("name, value", [
        ("shards", 0),
        ("slots_per_shard", 0),
        ("control_interval_s", 0.0),
        ("control_interval_s", -30.0),
    ])
    def test_bad_field_raises_value_error_naming_it(self, name, value):
        """Bad configs fail at construction, naming the field.

        Unvalidated, ``control_interval_s <= 0`` and ``slots_per_shard=0``
        hang the replay and ``shards=0`` escapes as a bare
        ``LookupError`` from the ring — hence the deadline.
        """
        def build_and_run():
            run_replay(dataclasses.replace(SMALL, **{name: value}))

        with pytest.raises(ValueError, match=name):
            _within(20, build_and_run)

    def test_smoke_keeps_every_unchanged_field(self):
        """``smoke()`` overrides its own fields and no others."""
        base = dataclasses.replace(SMALL, seed=11, zipf_s=1.1)
        smoke = base.smoke()
        changed = {f.name for f in dataclasses.fields(ReplayConfig)
                   if getattr(smoke, f.name) != getattr(base, f.name)}
        assert changed == {"tenants", "events", "window_s", "fail_at",
                           "control_interval_s"}
        assert smoke.fault_plan == "shard-failure"


