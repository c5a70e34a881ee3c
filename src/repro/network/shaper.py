"""Token-bucket traffic shapers.

A shaper limits the aggregate rate of all flows crossing one direction of
an endpoint. Two refill disciplines are supported:

* ``continuous`` — tokens accrue at ``refill_rate`` up to ``capacity``
  (EC2-style). While tokens remain, traffic may drain at ``burst_rate``;
  once the bucket is empty, traffic proceeds at ``refill_rate``.
* ``quantized`` — tokens arrive in discrete ``quantum``-sized grants every
  ``grant_interval`` seconds (Lambda-style). Once the bucket is empty the
  flow stalls until the next grant, producing the characteristic spiky
  baseline of Figure 5.

Additionally, a shaper can hold a *one-off budget* that is spent before the
rechargeable bucket and never comes back (the non-rechargeable ~150 MiB the
paper finds on Lambda), and an *idle refill level* the bucket snaps back to
when the endpoint stops sending (the "refills halfway" behaviour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import units
from repro.telemetry import get_recorder

#: Minimum virtual-time spacing between telemetry samples of a shaper's
#: bucket level / allowed rate. The fabric can advance a shaper many
#: times per grant interval; 2 ms resolves the 100 ms grant sawtooth of
#: Figure 5 while keeping series bounded.
_SAMPLE_MIN_DT = 0.002


#: Bucket levels below this many bytes are clamped to zero; float residue
#: otherwise produces asymptotic micro-wakeups in the fabric.
_EPSILON_BYTES = 1e-3

#: Tolerance when comparing simulated timestamps (seconds).
_TIME_TOLERANCE = 1e-9

_INF = float("inf")

#: Minimum idle duration before the "refill halfway" behaviour applies.
#: Back-to-back requests with millisecond gaps do not count as the
#: function "stopping to utilize the network" (Section 4.2.1); the
#: paper's refill observation used a 3-second break.
IDLE_REFILL_MIN_S = 1.0


@dataclass
class ShaperState:
    """Snapshot of a shaper's bucket for inspection and testing."""

    level: float
    one_off_remaining: float
    mode: str


class TokenBucketShaper:
    """Aggregate token-bucket rate limiter for one traffic direction.

    The shaper is driven by the fabric: :meth:`advance` consumes tokens for
    an elapsed interval at a given consumption rate, :meth:`allowed_rate`
    reports the current aggregate ceiling, and :meth:`next_change` tells the
    fabric when the ceiling will change so it can schedule a rate
    recomputation.
    """

    def __init__(self, capacity: float, burst_rate: float,
                 refill_rate: float, mode: str = "continuous",
                 one_off_budget: float = 0.0,
                 idle_refill_level: float | None = None,
                 grant_interval: float = 0.1,
                 initial_level: float | None = None,
                 name: str | None = None) -> None:
        if mode not in ("continuous", "quantized"):
            raise ValueError(f"unknown shaper mode {mode!r}")
        if capacity < 0 or burst_rate <= 0 or refill_rate < 0:
            raise ValueError("capacity/burst/refill must be non-negative "
                             "(burst strictly positive)")
        self.capacity = float(capacity)
        self.burst_rate = float(burst_rate)
        self.refill_rate = float(refill_rate)
        self.mode = mode
        self.one_off_budget = float(one_off_budget)
        self.one_off_remaining = float(one_off_budget)
        self.idle_refill_level = (float(idle_refill_level)
                                  if idle_refill_level is not None else None)
        self.grant_interval = float(grant_interval)
        self._level = float(initial_level if initial_level is not None else capacity)
        #: Absolute time of the next quantized grant (stateful, to avoid
        #: float-grid mismatches between scheduling and accounting).
        self._next_grant_at = self.grant_interval
        #: How far :meth:`_next_grant_time` has walked the schedule from
        #: ``_next_grant_at`` (reset whenever a grant is consumed).
        self._grant_walk = self._next_grant_at
        self._quantized = mode == "quantized"
        #: When the shaper last went idle (None while active).
        self._idle_since: float | None = None
        # Telemetry is captured at construction: enable() must precede
        # simulation setup. Disabled recorders cost one None-check here.
        recorder = get_recorder()
        if recorder.enabled:
            self._telemetry = recorder
            label = recorder.unique_name(f"shaper.{name or mode}")
            self.telemetry_name = label
            self._level_series = recorder.timeseries(
                f"{label}.level", min_dt=_SAMPLE_MIN_DT)
            self._rate_series = recorder.timeseries(
                f"{label}.allowed_rate", min_dt=_SAMPLE_MIN_DT)
            self._throttle_counter = recorder.counter(
                "shaper.throttle_transitions")
            self._was_throttled = self.one_off_remaining + self._level <= 0
        else:
            self._telemetry = None
            self.telemetry_name = name or mode

    # -- inspection ---------------------------------------------------------

    @property
    def level(self) -> float:
        """Tokens currently in the rechargeable bucket (bytes)."""
        return self._level

    def state(self) -> ShaperState:
        """Return a snapshot for assertions in tests."""
        return ShaperState(level=self._level,
                           one_off_remaining=self.one_off_remaining,
                           mode=self.mode)

    # -- fabric interface ---------------------------------------------------
    #
    # The fabric calls these once per registered shaper per update, so
    # they are written flat: the spendable budget is the literal sum
    # ``one_off_remaining + _level``, and builtin ``min(a, b)`` /
    # ``max(a, b)`` are spelled as the compare-selects CPython evaluates
    # them to (``b if b < a else a`` / ``b if b > a else a``), which return
    # the same float in every case.

    def allowed_rate(self) -> float:
        """Aggregate rate ceiling right now (bytes/second)."""
        if self.one_off_remaining + self._level > 0:
            return self.burst_rate
        if self._quantized:
            return 0.0  # stalled until the next grant
        burst = self.burst_rate
        refill = self.refill_rate
        return burst if burst < refill else refill

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
        # One-off budget is spent first and never refills.
        one_off = self.one_off_remaining
        from_one_off = one_off if one_off < consumed else consumed
        one_off -= from_one_off
        if self._quantized:
            if (self.refill_rate > 0
                    and self._next_grant_at <= now + _TIME_TOLERANCE):
                grants = self._grants_between(now - elapsed, now)
            else:
                grants = 0.0
            level = self._level + grants - (consumed - from_one_off)
        else:
            level = self._level - ((consumed - from_one_off)
                                   - self.refill_rate * elapsed)
        level = level if level > 0.0 else 0.0
        capacity = self.capacity
        level = level if level < capacity else capacity
        # Clamp float residue so exhaustion is reached exactly, not
        # asymptotically (which would flood the fabric with micro-wakeups).
        self._level = 0.0 if level < _EPSILON_BYTES else level
        self.one_off_remaining = 0.0 if one_off < _EPSILON_BYTES else one_off
        if self._telemetry is not None:
            self._level_series.sample(now, self._level)
            self._rate_series.sample(now, self.allowed_rate())
            throttled = self.one_off_remaining + self._level <= 0
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
        # The schedule moved: the next-grant walk restarts from it.
        self._grant_walk = self._next_grant_at
        return count * quantum

    def next_change(self, now: float, consumed_rate: float) -> float:
        """Absolute time at which :meth:`allowed_rate` next changes.

        Returns ``inf`` if the ceiling is stable under the given
        consumption rate.
        """
        budget = self.one_off_remaining + self._level
        if not self._quantized:
            if budget > 0:
                net_drain = consumed_rate - self.refill_rate
                if net_drain > 0:
                    return now + budget / net_drain
            return _INF
        # Quantized: grants are discrete, so the ceiling changes at the
        # next grant or, while tokens remain, when they run out.
        if self.refill_rate <= 0:
            grant = _INF
        else:
            grant = self._grant_walk
            if grant <= now + _TIME_TOLERANCE:
                grant = self._next_grant_time(now)
        if budget > 0 and consumed_rate > 0:
            exhaust = now + budget / consumed_rate
            return grant if grant < exhaust else exhaust
        return grant

    def _next_grant_time(self, now: float) -> float:
        """First grant due strictly after ``now`` (beyond the tolerance).

        Walks the schedule forward one ``grant_interval`` at a time and
        keeps the walked value, so the next call resumes from it rather
        than from ``_next_grant_at``: the repeated sum, and hence every
        float, is the same. ``now`` must not decrease between calls
        while the schedule stands (the simulated clock never does).
        """
        if self.refill_rate <= 0:
            return _INF
        due = self._grant_walk
        horizon = now + _TIME_TOLERANCE
        interval = self.grant_interval
        while due <= horizon:
            due += interval
        self._grant_walk = due
        return due

    def degrade(self, factor: float) -> None:
        """Scale this shaper's rates down by ``factor`` (0 < factor <= 1).

        Models a sandbox that drew a slow NIC (the placement-dependent
        bandwidth variance of Section 4.2): both the burst and refill
        rates shrink, so the endpoint is a persistent straggler for its
        whole lifetime. Used by the chaos subsystem's ``network_degrade``
        fault.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        self.burst_rate *= factor
        self.refill_rate *= factor

    def on_idle(self, now: float = 0.0) -> None:
        """The last flow through this shaper stopped at time ``now``."""
        if self.idle_refill_level is not None and self._idle_since is None:
            self._idle_since = now

    def on_activate(self, now: float = 0.0) -> None:
        """A flow starts using the shaper again.

        If the shaper sat idle for at least :data:`IDLE_REFILL_MIN_S`,
        the bucket snaps up to its idle refill level ("refills halfway to
        the initial capacity", Section 4.2.1).
        """
        if (self.idle_refill_level is not None
                and self._idle_since is not None
                and now - self._idle_since >= IDLE_REFILL_MIN_S):
            self._level = max(self._level, self.idle_refill_level)
        self._idle_since = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TokenBucketShaper {self.mode} level={self._level:.0f} "
                f"one_off={self.one_off_remaining:.0f}>")


#: Calibration constants from Section 4.2 of the paper. The inbound and
#: outbound buckets are maintained independently; each starts with ~300 MiB
#: of spendable budget (150 MiB one-off + 150 MiB rechargeable), drains at
#: burst rate, and once empty receives 7.5 MiB grants every 100 ms.
LAMBDA_BURST_RATE_IN = 1.2 * units.GiB
LAMBDA_BURST_RATE_OUT = 0.8 * units.GiB
LAMBDA_ONE_OFF_BUDGET = 150 * units.MiB
LAMBDA_BUCKET_CAPACITY = 150 * units.MiB
LAMBDA_BASELINE_RATE = 75 * units.MiB
LAMBDA_GRANT_INTERVAL = 0.1


def lambda_shaper(direction: str = "in",
                  name: str | None = None) -> TokenBucketShaper:
    """Shaper calibrated to the Lambda network model of Section 4.2."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    burst = LAMBDA_BURST_RATE_IN if direction == "in" else LAMBDA_BURST_RATE_OUT
    return TokenBucketShaper(
        capacity=LAMBDA_BUCKET_CAPACITY,
        burst_rate=burst,
        refill_rate=LAMBDA_BASELINE_RATE,
        mode="quantized",
        one_off_budget=LAMBDA_ONE_OFF_BUDGET,
        idle_refill_level=LAMBDA_BUCKET_CAPACITY,
        grant_interval=LAMBDA_GRANT_INTERVAL,
        initial_level=LAMBDA_BUCKET_CAPACITY,
        name=name or f"lambda/{direction}",
    )


def ec2_shaper(baseline_rate: float, burst_rate: float,
               bucket_bytes: float,
               name: str | None = None) -> TokenBucketShaper:
    """EC2-style shaper: continuous refill at baseline, drain at burst."""
    return TokenBucketShaper(
        capacity=bucket_bytes,
        burst_rate=burst_rate,
        refill_rate=baseline_rate,
        mode="continuous",
        initial_level=bucket_bytes,
        name=name or "ec2",
    )
