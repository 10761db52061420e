"""BBR v1 (Cardwell et al., 2017), simplified but state-complete.

The model keeps the pieces Fig. 1 depends on:

* a windowed-max **bottleneck bandwidth** filter over delivery-rate samples;
* a windowed-min **RTT** filter with the 10 s expiry and PROBE_RTT drain —
  the behaviour visible at the 10 s mark of Fig. 1a/1b;
* STARTUP / DRAIN / PROBE_BW pacing-gain cycling;
* inflight capped at ``cwnd_gain × BtlBw × RTprop``.

Under DChannel steering the min-RTT filter latches onto URLLC's ~5 ms
samples while data actually rides the ~50 ms eMBB path, so the BDP — and
with it throughput — is underestimated by roughly RTprop(urllc)/RTT(embb).
That emergent failure is the point of the reproduction.

:class:`~repro.transport.cc.bbr2.Bbr2` subclasses :class:`Bbr`: the
filters, the ACK-aggregation estimate, the STARTUP exit and the constants
here are the one model both generations run.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.cc.base import AckSample, CongestionControl, INITIAL_WINDOW_SEGMENTS
from repro.transport.cc.windowed import WindowedMax

STARTUP_GAIN = 2.885  # 2/ln(2)
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
CWND_GAIN = 2.0
MIN_RTT_WINDOW = 10.0  # seconds
PROBE_RTT_DURATION = 0.2  # seconds
BTLBW_WINDOW_ROUNDS = 10
STARTUP_GROWTH_TARGET = 1.25
STARTUP_FULL_BW_ROUNDS = 3
MIN_CWND_SEGMENTS = 4


class Bbr(CongestionControl):
    name = "bbr"

    STARTUP = "startup"
    DRAIN = "drain"
    PROBE_BW = "probe_bw"
    PROBE_RTT = "probe_rtt"

    def __init__(self, mss: int = 1460) -> None:
        super().__init__(mss)
        self.state = self.STARTUP
        # Bandwidth filter: (round, bytes_per_second) samples, max over the
        # last BTLBW_WINDOW_ROUNDS rounds (monotonic deque, O(1) queries).
        self._bw_samples = WindowedMax()
        self._round = 0
        self._round_delivered_target = 0
        # RTT filter: (time, rtt) minima within MIN_RTT_WINDOW.
        self._min_rtt: Optional[float] = None
        self._min_rtt_stamp = 0.0
        # Startup full-bandwidth detection (evaluated once per round).
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._last_round_checked = -1
        # Linux BBR's ACK-aggregation compensation ("extra_acked"): when
        # ACKs arrive in bursts (aggregating links, or a resequencing shim
        # batching cross-channel deliveries), delivered bytes transiently
        # exceed btlbw × elapsed; the windowed max of that excess is added
        # to cwnd so throughput does not collapse to the BDP estimate. On
        # HVC paths this also softens min-RTT poisoning (a URLLC-floored
        # min_rtt understates the eMBB BDP).
        self._extra_acked_start = 0.0
        self._extra_acked_delivered = 0
        self._extra_acked_samples = WindowedMax()
        # PROBE_BW gain cycling.
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        # PROBE_RTT bookkeeping.
        self._probe_rtt_done_at: Optional[float] = None
        self._state_before_probe = self.PROBE_BW
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    @property
    def btlbw_bytes_per_s(self) -> float:
        """Current bottleneck-bandwidth estimate (bytes/s); 0 if unknown."""
        return self._bw_samples.value

    @property
    def min_rtt(self) -> Optional[float]:
        return self._min_rtt

    def _update_bw(self, sample: AckSample) -> None:
        if sample.delivery_rate is None:
            return
        rate_bytes = sample.delivery_rate / 8.0
        if sample.app_limited and rate_bytes <= self._bw_samples.value:
            return  # app-limited samples may only raise the estimate
        # Advance the round counter roughly once per window of delivered data.
        if sample.total_delivered >= self._round_delivered_target:
            self._round += 1
            self._round_delivered_target = sample.total_delivered + max(
                self._in_flight, self.mss
            )
        self._bw_samples.push(self._round, rate_bytes, self._round - BTLBW_WINDOW_ROUNDS)

    def _update_min_rtt(self, sample: AckSample) -> None:
        if sample.rtt is None:
            return
        expired = sample.now - self._min_rtt_stamp > MIN_RTT_WINDOW
        if self._min_rtt is None or sample.rtt <= self._min_rtt:
            self._min_rtt = sample.rtt
            self._min_rtt_stamp = sample.now
        elif expired:
            # The 10 s window lapsed without a fresh minimum: drain the pipe
            # (PROBE_RTT) and restart the filter from the current sample.
            self._enter_probe_rtt(sample.now)
            self._min_rtt = sample.rtt
            self._min_rtt_stamp = sample.now

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _enter_probe_rtt(self, now: float) -> None:
        if self.state != self.PROBE_RTT:
            self._state_before_probe = (
                self.state if self.state != self.DRAIN else self.PROBE_BW
            )
            self.state = self.PROBE_RTT
            self._probe_rtt_done_at = now + PROBE_RTT_DURATION

    def _check_startup_done(self) -> None:
        bw = self._bw_samples.value
        if bw >= self._full_bw * STARTUP_GROWTH_TARGET:
            self._full_bw = bw
            self._full_bw_count = 0
            return
        self._full_bw_count += 1
        if self._full_bw_count >= STARTUP_FULL_BW_ROUNDS:
            self.state = self.DRAIN

    def _advance_cycle(self, now: float) -> None:
        interval = self._min_rtt if self._min_rtt is not None else 0.01
        if now - self._cycle_stamp >= interval:
            self._cycle_stamp = now
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)

    def _update_extra_acked(self, sample: AckSample) -> None:
        elapsed = sample.now - self._extra_acked_start
        self._extra_acked_delivered += sample.newly_acked
        expected = self._bw_samples.value * elapsed
        extra = self._extra_acked_delivered - expected
        if extra <= 0 or elapsed > 1.0:
            self._extra_acked_start = sample.now
            self._extra_acked_delivered = sample.newly_acked
            extra = max(0.0, float(sample.newly_acked))
        self._extra_acked_samples.push(self._round, extra, self._round - BTLBW_WINDOW_ROUNDS)

    @property
    def extra_acked_bytes(self) -> float:
        return self._extra_acked_samples.value

    def on_ack(self, sample: AckSample) -> None:
        self._in_flight = sample.in_flight
        self._update_bw(sample)
        self._update_min_rtt(sample)
        self._update_extra_acked(sample)
        if self.state == self.STARTUP and self._round != self._last_round_checked:
            self._last_round_checked = self._round
            self._check_startup_done()
        elif self.state == self.DRAIN:
            if sample.in_flight <= self._bdp_bytes():
                self.state = self.PROBE_BW
                self._cycle_stamp = sample.now
        elif self.state == self.PROBE_BW:
            self._advance_cycle(sample.now)
        elif self.state == self.PROBE_RTT:
            assert self._probe_rtt_done_at is not None
            if sample.now >= self._probe_rtt_done_at:
                self._min_rtt_stamp = sample.now  # window refreshed
                self.state = self._state_before_probe
                self._cycle_stamp = sample.now

    def on_sent(self, now: float, size_bytes: int, in_flight: int) -> None:
        self._in_flight = in_flight

    def on_loss(self, now: float, in_flight: int) -> None:
        """BBR v1 mostly ignores isolated loss; no window reduction."""

    def on_timeout(self, now: float) -> None:
        """Conservative restart after an RTO (mirrors cwnd collapse)."""
        self._bw_samples.clear()
        self._full_bw = 0.0
        self._full_bw_count = 0
        self.state = self.STARTUP

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def _bdp_bytes(self) -> float:
        bw = self._bw_samples.value
        rtt = self._min_rtt
        if bw <= 0 or rtt is None:
            return float(INITIAL_WINDOW_SEGMENTS * self.mss)
        return bw * rtt

    @property
    def pacing_gain(self) -> float:
        if self.state == self.STARTUP:
            return STARTUP_GAIN
        if self.state == self.DRAIN:
            return DRAIN_GAIN
        if self.state == self.PROBE_RTT:
            return 1.0
        return PROBE_BW_GAINS[self._cycle_index]

    @property
    def cwnd_bytes(self) -> float:
        if self.state == self.PROBE_RTT:
            return float(MIN_CWND_SEGMENTS * self.mss)
        cwnd = CWND_GAIN * self._bdp_bytes() + self._extra_acked_samples.value
        return max(cwnd, MIN_CWND_SEGMENTS * self.mss)

    @property
    def pacing_rate_bps(self) -> Optional[float]:
        bw = self._bw_samples.value
        if bw <= 0:
            return None  # pre-estimate: window-limited startup
        return self.pacing_gain * bw * 8.0
