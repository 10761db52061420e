"""BBR v2 and BBRv2+ (delay-aware probing), simplified but state-complete.

BBR v2 (Cardwell et al., IETF drafts 2019-2021) keeps v1's model — a
windowed-max bandwidth filter, a windowed-min RTT filter, STARTUP / DRAIN
/ PROBE_BW / PROBE_RTT — but bounds it with explicit *inflight limits*
learned from loss. :class:`Bbr2` therefore extends :class:`~repro.transport.
cc.bbr.Bbr`: the filters, the ACK-aggregation estimate, the STARTUP exit
and their constants are v1's, defined once in :mod:`repro.transport.cc.bbr`;
this module adds only what v2 changes:

* ``inflight_hi`` — a hard ceiling on bytes in flight, set where loss
  exceeded :data:`LOSS_THRESH` (2%) and only raised again by deliberate
  PROBE_UP rounds. This is what makes v2 coexist with loss-based CCAs:
  v1 simply ignored loss and bulldozed CUBIC out of shallow buffers.
* ``inflight_lo`` / ``bw_lo`` — short-term conservative bounds applied
  during a lossy round (the AIMD-style "beta" response), reset when the
  next PROBE_BW:REFILL deliberately re-fills the pipe.
* PROBE_BW becomes a four-phase cycle DOWN → CRUISE → REFILL → UP: drain
  below the ceiling, cruise with headroom, refill to the estimated BDP,
  then probe above it — capping the probe the moment the loss rate of the
  round crosses the threshold.

BBRv2+ (Yang et al., arXiv:2107.03057) adds **delay-aware bandwidth
probing**: PROBE_UP also watches the RTT sample against ``min_rtt`` and
aborts the probe when delay inflates past :data:`DELAY_PROBE_TOLERANCE`
*before* loss appears, and backs the probing cadence off after an aborted
probe. That keeps queues short on bufferbloated paths (where v2 only
stops at 2% loss) without giving up bandwidth convergence — and it is
the modern algorithm whose interaction with HVC steering the paper
leaves open: under DChannel the min-RTT filter still latches onto
URLLC's ~5 ms samples, so the delay-aware abort fires early and the
probe cadence stretches (measured in the ``cc-matrix`` experiment).
"""

from __future__ import annotations

from typing import Optional

from repro.transport.cc.base import AckSample, INITIAL_WINDOW_SEGMENTS
from repro.transport.cc.bbr import (
    BTLBW_WINDOW_ROUNDS,
    CWND_GAIN,
    DRAIN_GAIN,
    MIN_CWND_SEGMENTS,
    PROBE_RTT_DURATION,
    STARTUP_GAIN,
    Bbr,
)

# -- PROBE_BW phase gains (Linux bbr2 values) --------------------------
PROBE_DOWN_GAIN = 0.75
CRUISE_GAIN = 1.0
PROBE_UP_GAIN = 1.25

# -- v2 loss model -----------------------------------------------------
#: Loss rate (lost / (delivered + lost) per round) above which a PROBE_UP
#: is declared over-aggressive and ``inflight_hi`` is capped.
LOSS_THRESH = 0.02
#: Multiplicative cut applied to the short-term bounds on a lossy round.
BETA = 0.7
#: Fraction of ``inflight_hi`` targeted while cruising (leave headroom
#: for the other flows sharing the bottleneck).
HEADROOM = 0.85
#: Seconds between bandwidth probes (Linux: 2-3 s randomized; we keep it
#: deterministic for reproducibility).
PROBE_INTERVAL = 2.0

# -- BBRv2+ delay-aware probing ----------------------------------------
#: Abort a bandwidth probe when an RTT sample exceeds
#: ``min_rtt * (1 + DELAY_PROBE_TOLERANCE)`` — the queue is already
#: building, no need to push to loss.
DELAY_PROBE_TOLERANCE = 0.25
#: After a delay-aborted probe the next probe waits this factor longer
#: (up to MAX_PROBE_INTERVAL); a successful probe resets the cadence.
PROBE_BACKOFF = 2.0
MAX_PROBE_INTERVAL = 8.0


class Bbr2(Bbr):
    """BBR v2 on v1's model; pass ``delay_aware=True`` (the ``"bbr2+"``
    registry name) for BBRv2+'s delay-aware probing."""

    name = "bbr2"

    # PROBE_BW sub-phases (each is a top-level state here; ``in_probe_bw``
    # groups them).
    PROBE_DOWN = "probe_down"
    CRUISE = "cruise"
    REFILL = "refill"
    PROBE_UP = "probe_up"

    _PROBE_BW_STATES = frozenset((PROBE_DOWN, CRUISE, REFILL, PROBE_UP))

    def __init__(self, mss: int = 1460, delay_aware: bool = False) -> None:
        super().__init__(mss)
        self.delay_aware = delay_aware
        if delay_aware:
            self.name = "bbr2+"

        # Round accounting: a round ends when total_delivered passes the
        # level recorded at the round's start plus the flight size then.
        self._round_target = 0
        self._round_delivered = 0
        self._round_lost = 0
        self._round_max_inflight = 0

        # v2 inflight bounds. ``inf`` means "not yet learned".
        self.inflight_hi = float("inf")
        self.inflight_lo = float("inf")
        self.bw_lo = float("inf")
        #: True while the current round has already triggered the loss
        #: response (one multiplicative cut per round, like one cwnd
        #: reduction per window of loss).
        self._loss_round = False

        # PROBE_BW cycle bookkeeping.
        self._cruise_until = 0.0
        self._probe_interval = PROBE_INTERVAL
        self._probe_up_rounds = 0
        #: Counts delay-aborted probes (BBRv2+), exposed for experiments.
        self.delay_probe_aborts = 0

        # PROBE_RTT returns to the cycle through CRUISE.
        self._state_before_probe = self.CRUISE

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def _update_bw(self, sample: AckSample) -> None:
        if sample.delivery_rate is None:
            return
        rate_bytes = sample.delivery_rate / 8.0
        if sample.app_limited and rate_bytes <= self._bw_samples.value:
            return  # app-limited samples may only raise the estimate
        if self.state == self.PROBE_DOWN and rate_bytes <= self._bw_samples.value:
            # BBRv2+ bandwidth compensation: samples taken while we are
            # deliberately draining under-report the path; let them raise
            # the filter, never drag it down mid-drain.
            return
        self._bw_samples.push(self._round, rate_bytes, self._round - BTLBW_WINDOW_ROUNDS)

    # ------------------------------------------------------------------
    # Round + loss model
    # ------------------------------------------------------------------
    def _round_loss_rate(self) -> float:
        total = self._round_delivered + self._round_lost
        if total <= 0:
            return 0.0
        return self._round_lost / total

    def _apply_loss_bounds(self, in_flight: int) -> None:
        """The v2 loss response: cap the ceiling, cut the short-term bounds.

        Called at most once per round (the ``_loss_round`` latch), when the
        round's loss rate crossed :data:`LOSS_THRESH`.
        """
        self._loss_round = True
        floor = MIN_CWND_SEGMENTS * self.mss
        # The ceiling is where we actually were when loss got excessive —
        # probing above it has been empirically refuted.
        measured = max(in_flight, self._round_max_inflight)
        self.inflight_hi = max(float(floor), min(self.inflight_hi, float(measured)))
        # Short-term conservative bounds for the rest of the episode.
        base = measured if measured > 0 else self._bdp_bytes()
        self.inflight_lo = max(float(floor), BETA * base)
        bw = self._bw_samples.value
        if bw > 0:
            self.bw_lo = max(bw * BETA, float(self.mss))
        if self.state == self.PROBE_UP:
            self._finish_probe(success=False, now=None)
        elif self.state == self.STARTUP:
            # v2 exits STARTUP on excessive loss, not only on bw plateau.
            self.state = self.DRAIN

    def on_lost(self, now: float, lost_bytes: int, in_flight: int) -> None:
        """Segments were declared lost (SACK/dup-ACK inference).

        This byte accounting is v2's whole loss signal; the once-per-window
        :meth:`on_loss` the connection fires alongside stays v1's no-op."""
        self._round_lost += lost_bytes
        self._in_flight = in_flight
        if not self._loss_round and self._round_loss_rate() >= LOSS_THRESH:
            self._apply_loss_bounds(in_flight)

    def _end_round(self, sample: AckSample) -> None:
        if not self._loss_round and self._round_loss_rate() >= LOSS_THRESH:
            self._apply_loss_bounds(sample.in_flight)
        if self.state == self.STARTUP:
            self._check_startup_done()
        elif self.state == self.REFILL:
            # One full round re-filling the pipe; now probe above it.
            self._enter_probe_up()
        elif self.state == self.PROBE_UP:
            self._probe_up_rounds += 1
            self._raise_inflight_hi()
            if self._probe_up_rounds >= 2:
                # Held 1.25x for a full round without tripping the loss
                # or delay gates: the path absorbed it.
                self._finish_probe(success=True, now=sample.now)
        if not self._loss_round:
            # A clean round retires the short-term bounds gradually.
            self.inflight_lo = float("inf")
            self.bw_lo = float("inf")
        self._loss_round = False
        self._round_delivered = 0
        self._round_lost = 0
        self._round_max_inflight = 0

    def _raise_inflight_hi(self) -> None:
        if self.inflight_hi == float("inf"):
            return
        # Raise the ceiling to what this probe round actually put in
        # flight (plus one segment of growth room).
        reached = max(
            self._round_max_inflight, int(PROBE_UP_GAIN * self._bdp_bytes())
        )
        if reached + self.mss > self.inflight_hi:
            self.inflight_hi = float(reached + self.mss)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _enter_probe_rtt(self, now: float) -> None:
        if self.state != self.PROBE_RTT:
            if self.state in self._PROBE_BW_STATES:
                self._state_before_probe = self.CRUISE
            elif self.state == self.DRAIN:
                self._state_before_probe = self.CRUISE
            else:
                self._state_before_probe = self.state
            self.state = self.PROBE_RTT
            self._probe_rtt_done_at = now + PROBE_RTT_DURATION

    def _enter_cruise(self, now: float) -> None:
        self.state = self.CRUISE
        self._cruise_until = now + self._probe_interval

    def _enter_probe_up(self) -> None:
        self.state = self.PROBE_UP
        self._probe_up_rounds = 0

    def _finish_probe(self, success: bool, now: Optional[float]) -> None:
        """Leave PROBE_UP (or REFILL) for PROBE_DOWN, adapting the cadence."""
        if success:
            self._probe_interval = PROBE_INTERVAL
        else:
            self._probe_interval = min(
                self._probe_interval * PROBE_BACKOFF, MAX_PROBE_INTERVAL
            )
        self.state = self.PROBE_DOWN

    def _delay_probe_gate(self, sample: AckSample) -> bool:
        """BBRv2+: abort the probe when delay inflates before loss does."""
        if not self.delay_aware or sample.rtt is None or self._min_rtt is None:
            return False
        return sample.rtt > self._min_rtt * (1.0 + DELAY_PROBE_TOLERANCE)

    def on_ack(self, sample: AckSample) -> None:
        self._in_flight = sample.in_flight
        if sample.in_flight > self._round_max_inflight:
            self._round_max_inflight = sample.in_flight
        self._round_delivered += sample.newly_acked
        self._update_bw(sample)
        self._update_min_rtt(sample)
        self._update_extra_acked(sample)

        if sample.total_delivered >= self._round_target:
            self._round += 1
            self._round_target = sample.total_delivered + max(
                sample.in_flight, self.mss
            )
            self._end_round(sample)

        state = self.state
        if state == self.DRAIN:
            if sample.in_flight <= self._bdp_bytes():
                self._enter_cruise(sample.now)
        elif state == self.PROBE_DOWN:
            if sample.in_flight <= self._cruise_target():
                self._enter_cruise(sample.now)
        elif state == self.CRUISE:
            if sample.now >= self._cruise_until:
                # Deliberate probe: reset the short-term bounds and refill.
                self.inflight_lo = float("inf")
                self.bw_lo = float("inf")
                self.state = self.REFILL
        elif state == self.PROBE_UP:
            if self._delay_probe_gate(sample):
                self.delay_probe_aborts += 1
                self._finish_probe(success=False, now=sample.now)
        elif state == self.PROBE_RTT:
            assert self._probe_rtt_done_at is not None
            if sample.now >= self._probe_rtt_done_at:
                self._min_rtt_stamp = sample.now
                restored = self._state_before_probe
                if restored in self._PROBE_BW_STATES:
                    self._enter_cruise(sample.now)
                else:
                    self.state = restored

    def on_sent(self, now: float, size_bytes: int, in_flight: int) -> None:
        self._in_flight = in_flight
        if in_flight > self._round_max_inflight:
            self._round_max_inflight = in_flight

    def on_timeout(self, now: float) -> None:
        """Conservative restart; the learned ceiling survives the RTO."""
        self._bw_samples.clear()
        self._full_bw = 0.0
        self._full_bw_count = 0
        floor = MIN_CWND_SEGMENTS * self.mss
        self.inflight_lo = max(float(floor), BETA * self._bdp_bytes())
        self.state = self.STARTUP

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def _bdp_bytes(self) -> float:
        bw = min(self._bw_samples.value, self.bw_lo)
        rtt = self._min_rtt
        if bw <= 0 or bw == float("inf") or rtt is None:
            return float(INITIAL_WINDOW_SEGMENTS * self.mss)
        return bw * rtt

    def _cruise_target(self) -> float:
        """Inflight level to cruise at: BDP, but with headroom under the
        learned ceiling so competing flows keep a working share."""
        target = self._bdp_bytes()
        if self.inflight_hi != float("inf"):
            target = min(target, HEADROOM * self.inflight_hi)
        return max(target, MIN_CWND_SEGMENTS * self.mss)

    @property
    def pacing_gain(self) -> float:
        state = self.state
        if state == self.STARTUP:
            return STARTUP_GAIN
        if state == self.DRAIN:
            return DRAIN_GAIN
        if state == self.PROBE_DOWN:
            return PROBE_DOWN_GAIN
        if state == self.PROBE_UP:
            return PROBE_UP_GAIN
        return CRUISE_GAIN  # CRUISE, REFILL, PROBE_RTT

    @property
    def cwnd_bytes(self) -> float:
        floor = float(MIN_CWND_SEGMENTS * self.mss)
        if self.state == self.PROBE_RTT:
            cwnd = floor
        else:
            cwnd = CWND_GAIN * self._bdp_bytes() + self._extra_acked_samples.value
            if self.state == self.CRUISE:
                cwnd = min(cwnd, max(self._cruise_target() * CWND_GAIN, floor))
            if self._loss_round and self.inflight_lo != float("inf"):
                cwnd = min(cwnd, self.inflight_lo)
        if self.inflight_hi != float("inf"):
            cwnd = min(cwnd, self.inflight_hi)
        return max(cwnd, floor)

    @property
    def pacing_rate_bps(self) -> Optional[float]:
        bw = min(self._bw_samples.value, self.bw_lo)
        if bw <= 0 or bw == float("inf"):
            return None  # pre-estimate: window-limited startup
        return self.pacing_gain * bw * 8.0
